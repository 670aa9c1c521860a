fn run(&self) {
    let table = NetFaults::new(cfg.faults.link_faults(|r| replica_idx[r]));
}
