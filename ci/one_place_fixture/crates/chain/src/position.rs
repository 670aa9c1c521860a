fn encode_into(&self, w: &mut Writer) {
    put_block_undo(w, &self.undo);
    put_summary(w, self.summary.as_ref());
}
