// Known-bad/known-good mix for the opcode-coverage rule, in the shape of
// the `messages!` table: `Ping` is handled, `Orphan` has no handler
// arm, `Waived` carries an allow. Line numbers are asserted exactly by
// tests/rules.rs.

messages! {
    pub enum Request {
        Ping = 1,
        Orphan { payload: Vec<u8>, } = 2,
        // Decoder-internal pseudo-opcode, never dispatched. lint:allow(opcode-coverage)
        Waived = 3,
    }

    pub enum Response {
        Ok = 1,
        Lost { code: u32, } = 2,
    }
}
