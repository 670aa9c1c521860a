impl Node {
    #[cfg(test)]
    fn for_tests() {}

    // Below an indented `#[cfg(test)]`: still non-test code.
    fn new() {
        let engine = Aria::new(store, config);
    }
}
