fn catch_up() {
    self.install_snapshot(&snapshot);
    self.replay_range(&blocks);
    spec.build(store);
}
