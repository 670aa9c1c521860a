impl Driver {
    #[cfg(test)]
    fn for_tests() {}

    // Below an indented `#[cfg(test)]`: still non-test code.
    fn run() {
        let plan = plan_block(&router, &block);
    }
}
