struct Host {
    prev_summary: BlockSummary,
}
