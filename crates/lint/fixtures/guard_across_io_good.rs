// Known-good fixture for the guard-across-io rule: every shape here is
// deliberate and must produce zero diagnostics.

impl Node {
    fn drops_before_io(&self) {
        let g = self.state.lock();
        let payload = g.payload.clone();
        drop(g);
        self.client.call(&payload);
    }

    fn io_through_the_guard_itself(&self) {
        let mut w = self.writer.lock();
        write_frame_corr(&mut *w, 0, b"frame");
    }

    fn copies_value_out(&self) {
        let cursor = *self.cursor.lock();
        self.client.call(cursor);
    }

    fn guard_scoped_in_block(&self) {
        {
            let g = self.state.lock();
            g.tick();
        }
        self.client.call(b"after");
    }

    fn benign_methods_on_io_names(&self) {
        let g = self.state.lock();
        let n = self.client.clone();
        let _ = n.is_some();
        drop(g);
    }

    fn annotated_hold(&self) {
        // Held across IO on purpose: this lock serializes the handshake. lint:allow(guard-across-io)
        let g = self.state.lock();
        self.client.call(&g.payload);
    }
}
