//! Minimal, dependency-free termination handling for the daemons.
//!
//! The daemon binaries must run their clean-exit paths — the worker
//! agent's deregistration, the servers' graceful drain — when an
//! operator stops them, so `SIGINT`/`SIGTERM` set a flag the main
//! thread polls instead of killing the process outright.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_terminate(_sig: i32) {
    // Only async-signal-safe work here: flip the flag, nothing else.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Blocks until the process receives `SIGINT` or `SIGTERM` (on unix;
/// elsewhere it parks forever and the default signal disposition
/// applies). Call once from a daemon's main thread; run the clean-exit
/// path after it returns.
pub fn wait_for_termination() {
    #[cfg(unix)]
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        let handler = on_terminate as *const () as usize;
        signal(2, handler); // SIGINT
        signal(15, handler); // SIGTERM
    }
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Sleeps out one `interval` of a background ticker (the heartbeat,
/// the liveness sweep, the scrape loop) in 5 ms slices, so a raised
/// `stop` ends it promptly. Returns `false` once `stop` is set.
pub(crate) fn tick(stop: &AtomicBool, interval: Duration) -> bool {
    let deadline = Instant::now() + interval;
    while !stop.load(Ordering::SeqCst) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(left.min(Duration::from_millis(5)));
    }
    false
}
