fn run(txn: &dyn Contract) {
    vtime::charge(txn.think_time_ns());
}
