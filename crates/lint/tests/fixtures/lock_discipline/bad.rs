// Positive fixture: retraining under the publish write lock, directly
// and through a retrain seam, plus a re-entrant acquisition that would
// deadlock parking_lot.
impl Handle {
    pub fn adopt_wrong(&self) {
        let mut s = self.state.write();
        let tree = self.trainer.train_to_tree();
        let retrain = self.retrain;
        let graft = retrain(&self.rules, &self.cfg, self.seed);
        s.tree = tree;
        s.graft = graft;
        let peek = self.state.read();
        drop(peek);
    }
}
