fn serve_detached(stream: TcpStream) {
    let _ = thread::Builder::new().spawn(move || serve(stream));
}
