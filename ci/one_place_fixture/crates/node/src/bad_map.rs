fn audit(left: &Digest, leaf: &Digest, right: &Digest) -> Digest {
    node_digest(left, leaf, right)
}
