// Known-bad fixture for the guard-across-io rule. Line numbers are
// asserted exactly by tests/rules.rs — keep edits in sync.

impl Node {
    fn named_guard_across_io(&self) {
        let g = self.state.lock();
        self.client.call(&g.payload);
        drop(g);
    }

    fn scrutinee_guard_across_io(&self) {
        if let Some(hook) = self.hook.lock().as_ref() {
            self.client.call(hook);
        }
    }

    fn match_guard_across_io(&self) {
        match self.peers.read().first() {
            Some(peer) => {
                write_frame_corr(&mut self.out, 0, peer);
            }
            None => {}
        }
    }

    fn io_base_method_across_io(&self) {
        let table = self.routes.lock().unwrap();
        self.transport.send_bytes(&table[0]);
    }

    fn paged_scan_across_io(&self) {
        let seen = self.cursors.lock();
        self.workers.scan_chunk("events", *seen);
    }

    fn page_guard_across_io(&self, pin: &PagePin) {
        let page = pin.write();
        self.client.call(&page[..]);
    }

    fn push_stream_send_across_io(&mut self, batch: Vec<Vec<u8>>) {
        let set = self.set.lock();
        self.loads.send(batch, |records| append(&set, records));
    }
}
