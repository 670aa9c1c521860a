fn new(nodes: Vec<N>) -> EventLoop {
    EventLoop { faults: NetFaults::default(), nodes }
}
