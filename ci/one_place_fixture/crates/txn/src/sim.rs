fn simulate(txn: &dyn Contract, view: &dyn SnapshotView) {
    let mut ctx = TxnCtx::new(view);
}
