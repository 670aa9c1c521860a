fn charge() {
    schedule_block(&costs, workers);
}
