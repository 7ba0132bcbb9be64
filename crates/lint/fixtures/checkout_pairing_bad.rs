// Known-bad fixture for the checkout-pairing rule. Line numbers are
// asserted exactly by tests/rules.rs — keep edits in sync.

impl Peers {
    fn leaks_on_question_mark(&self, addr: &str) -> Result<()> {
        let conn = self.pool.checkout(addr)?;
        let hashes = conn.hash_list("set")?;
        self.pool.checkin(addr, conn);
        Ok(hashes)
    }

    fn leaks_on_early_return(&self, addr: &str) -> Result<()> {
        let conn = self.pool.checkout(addr)?;
        if self.closed() {
            return Ok(());
        }
        self.pool.checkin(addr, conn);
        Ok(())
    }

    fn never_consumed(&self, addr: &str) {
        let conn = self.pool.checkout(addr);
        conn.set_trace(None);
    }

    fn not_bound(&self, addr: &str) {
        self.pool.checkout(addr);
    }

    fn leaks_before_handing_off(&self, addr: &str) -> Result<Sink> {
        let conn = self.pool.checkout(addr)?;
        Ok(Sink {
            set: self.validate()?,
            conn,
        })
    }
}
