fn execute_block() {
    plan_block(&router, &block);
}
