fn price(block: &Block) -> u64 {
    schedule_block(&costs, workers)
}
