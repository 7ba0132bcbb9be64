// Known-good fixture for the checkout-pairing rule: zero diagnostics.

impl Peers {
    fn pairs_on_all_paths(&self, addr: &str) -> Result<u64> {
        let conn = self.pool.checkout(addr)?;
        match conn.hash_list("set") {
            Ok(h) => {
                self.pool.checkin(addr, conn);
                Ok(h)
            }
            Err(e) => {
                self.pool.discard(conn);
                Err(e)
            }
        }
    }

    fn discards_before_fallible_exit(&self, addr: &str) -> Result<()> {
        let conn = self.pool.checkout(addr)?;
        self.pool.discard(conn);
        self.audit()?;
        Ok(())
    }

    fn hands_off_to_the_caller(&self, addr: &str) -> Result<Box<Sink>> {
        let mut conn = self.pool.checkout(addr)?;
        conn.set_trace(None);
        Ok(Box::new(Sink {
            set: self.set.clone(),
            conn: Some(conn),
        }))
    }
}
