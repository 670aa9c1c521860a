pub fn leaf_digest(key: &[u8], value: &[u8]) -> Digest {
    sha256_concat(&[&[MAP_LEAF_TAG], key, value])
}
fn rehash(&mut self, idx: u32) {
    let digest = node_digest(&left, &leaf, &right);
}
