// Every pattern, below the first unindented `#[cfg(test)]`.
pub fn plan_block(block: &Block) {}

#[cfg(test)]
mod tests {
    fn all() {
        Aria::new(store, config);
        plan_block(&router, &block);
        chain.replay_range(&blocks);
        chain.install_snapshot(&snapshot);
        spec.build(store);
        schedule_block(&costs, workers);
        TxnCtx::new(&view);
        ChainPipeline::new();
        put_summary(&mut w, None);
        leaf_digest(b"k", b"v");
        NetFaults::default();
    }
}
