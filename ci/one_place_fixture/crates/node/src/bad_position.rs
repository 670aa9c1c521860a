fn checkpoint(&self, w: &mut Writer) {
    put_summary(w, self.last_summary.as_ref());
}
