pub fn instantiate(&self) -> Box<dyn Workload> {
    match self {
        ClusterWorkload::Smallbank(c) => Box::new(Smallbank::new(c.clone())),
        ClusterWorkload::Ycsb(c) => Box::new(Ycsb::new(c.clone())),
        ClusterWorkload::Tpcc(c) => Box::new(Tpcc::new(c.clone())),
    }
}
