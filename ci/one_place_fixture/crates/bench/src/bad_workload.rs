fn point(theta: f64) -> Box<dyn Workload> {
    Box::new(Ycsb::new(YcsbConfig {
        theta,
        ..YcsbConfig::default()
    }))
}
