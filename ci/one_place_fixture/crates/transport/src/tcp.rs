fn spawn(self: &Arc<Runtime>, name: String) -> io::Result<JoinHandle<()>> {
    thread::Builder::new().name(name).spawn(move || run(&rt))
}
