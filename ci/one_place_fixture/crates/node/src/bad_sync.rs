fn apply_sync(chain: &mut OeChain) {
    chain.replay_range(&blocks);
}
