fn main() {
    let engine = spec.build(store);
}
