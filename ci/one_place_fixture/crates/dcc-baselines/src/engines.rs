fn build() {
    Aria::new(store, config);
    spec.build(store);
}
