//! Offline stand-in for [`parking_lot`](https://crates.io/crates/parking_lot).
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of the `parking_lot` API it actually uses as a thin
//! veneer over `std::sync`. Semantics follow parking_lot, not std:
//!
//! * `lock()` / `read()` / `write()` return guards directly (no `Result`);
//! * poisoning is ignored — a panic while holding a lock does not poison it
//!   for later users (`into_inner` on the poison error).
//!
//! Only what the workspace needs is provided; this is not a general
//! replacement for the real crate.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Opt-in lock-acquisition-order deadlock detector (`--features
/// lock-order`). Every shim lock gets a lazily assigned id; each
/// acquisition records "held → wanted" edges into a global directed
/// graph and panics — *before* blocking on the real lock — when the
/// wanted lock already has a recorded path back to something this
/// thread holds. A would-be deadlock thus becomes a loud panic naming
/// the cycle instead of a hung test killed by timeout with no
/// diagnosis. Debug/CI only: every acquire takes a global mutex.
#[cfg(feature = "lock-order")]
pub mod order {
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    /// `edges[a]` contains `b` ⇔ some thread acquired `b` while
    /// holding `a` (or declared the intent to).
    fn graph() -> &'static Mutex<HashMap<u64, HashSet<u64>>> {
        static GRAPH: OnceLock<Mutex<HashMap<u64, HashSet<u64>>>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(HashMap::new()))
    }

    thread_local! {
        /// Ids of the locks this thread currently holds, in
        /// acquisition order (duplicates possible for RwLock reads).
        static HELD: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }

    /// The lock's id, assigned on first contact. `slot` starts at 0
    /// (`const`-compatible); the first caller installs a fresh nonzero
    /// id, racers keep the winner's.
    fn lock_id(slot: &AtomicU64) -> u64 {
        let cur = slot.load(Ordering::Relaxed);
        if cur != 0 {
            return cur;
        }
        let fresh = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        match slot.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => fresh,
            Err(winner) => winner,
        }
    }

    /// Path `from → … → to` through the edge graph, if one exists.
    fn find_path(
        edges: &HashMap<u64, HashSet<u64>>,
        from: u64,
        to: &[u64],
        path: &mut Vec<u64>,
        seen: &mut HashSet<u64>,
    ) -> bool {
        if !seen.insert(from) {
            return false;
        }
        path.push(from);
        if let Some(next) = edges.get(&from) {
            for &n in next {
                if to.contains(&n) {
                    path.push(n);
                    return true;
                }
                if find_path(edges, n, to, path, seen) {
                    return true;
                }
            }
        }
        path.pop();
        false
    }

    /// Declares the intent to acquire the lock whose id lives in
    /// `slot`: records "held → wanted" edges and panics if the wanted
    /// lock already has a recorded path back to anything this thread
    /// holds (an acquisition-order cycle — some interleaving of the
    /// two orders deadlocks). Must run *before* blocking on the real
    /// lock so the panic fires instead of the hang. Returns the id.
    pub fn about_to_acquire(slot: &AtomicU64) -> u64 {
        let id = lock_id(slot);
        let held: Vec<u64> = HELD.with(|h| h.borrow().clone());
        if held.is_empty() {
            return id;
        }
        let mut g = graph().lock().unwrap_or_else(|e| e.into_inner());
        // Re-acquiring a lock already held (RwLock read recursion) is
        // not an *order* violation; self-edges would only add noise.
        let mut path = Vec::new();
        let mut seen = HashSet::new();
        let others: Vec<u64> = held.iter().copied().filter(|&h| h != id).collect();
        if !others.is_empty() && find_path(&g, id, &others, &mut path, &mut seen) {
            drop(g);
            panic!(
                "lock-order cycle: thread holding locks {held:?} wants lock \
                 #{id}, but the reverse order was already recorded: \
                 {path:?} (a → b means \"a was held while acquiring b\"); \
                 some interleaving of these two orders deadlocks"
            );
        }
        for &h in &held {
            if h != id {
                g.entry(h).or_default().insert(id);
            }
        }
        id
    }

    /// Records that the acquisition declared by [`about_to_acquire`]
    /// succeeded; the id joins this thread's held stack.
    pub fn acquired(id: u64) {
        HELD.with(|h| h.borrow_mut().push(id));
    }

    /// Records a successful `try_lock`-style acquisition: edges and
    /// held stack, but no cycle panic — a failed try degrades
    /// gracefully, it cannot deadlock.
    pub fn try_acquired(slot: &AtomicU64) -> u64 {
        let id = lock_id(slot);
        let held: Vec<u64> = HELD.with(|h| h.borrow().clone());
        if !held.is_empty() {
            let mut g = graph().lock().unwrap_or_else(|e| e.into_inner());
            for &h in &held {
                if h != id {
                    g.entry(h).or_default().insert(id);
                }
            }
        }
        acquired(id);
        id
    }

    /// Removes `id` from this thread's held stack (latest occurrence
    /// first, matching nested guard drop order).
    pub fn on_release(id: u64) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&x| x == id) {
                held.remove(pos);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion lock with parking_lot's panic-transparent semantics.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "lock-order")]
    order: std::sync::atomic::AtomicU64,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(feature = "lock-order")]
            order: std::sync::atomic::AtomicU64::new(0),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        let order_id = order::about_to_acquire(&self.order);
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        #[cfg(feature = "lock-order")]
        order::acquired(order_id);
        MutexGuard {
            inner,
            #[cfg(feature = "lock-order")]
            order_id,
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            inner,
            #[cfg(feature = "lock-order")]
            order_id: order::try_acquired(&self.order),
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
    #[cfg(feature = "lock-order")]
    order_id: u64,
}

#[cfg(feature = "lock-order")]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        order::on_release(self.order_id);
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A reader-writer lock with parking_lot's panic-transparent semantics.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "lock-order")]
    order: std::sync::atomic::AtomicU64,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(feature = "lock-order")]
            order: std::sync::atomic::AtomicU64::new(0),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        let order_id = order::about_to_acquire(&self.order);
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        #[cfg(feature = "lock-order")]
        order::acquired(order_id);
        RwLockReadGuard {
            inner,
            #[cfg(feature = "lock-order")]
            order_id,
        }
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        let order_id = order::about_to_acquire(&self.order);
        let inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        #[cfg(feature = "lock-order")]
        order::acquired(order_id);
        RwLockWriteGuard {
            inner,
            #[cfg(feature = "lock-order")]
            order_id,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            Err(_) => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    #[cfg(feature = "lock-order")]
    order_id: u64,
}

#[cfg(feature = "lock-order")]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        order::on_release(self.order_id);
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    #[cfg(feature = "lock-order")]
    order_id: u64,
}

#[cfg(feature = "lock-order")]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        order::on_release(self.order_id);
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    /// The detector panics on the second half of an A→B / B→A
    /// inversion even when the threads never actually contend — the
    /// *recorded orders* conflict, which is what makes some
    /// interleaving deadlock. Serialized here (thread 2 starts after
    /// thread 1 finished) precisely to prove it's order history, not
    /// luck of the schedule, that trips the check.
    #[cfg(feature = "lock-order")]
    #[test]
    fn lock_order_inversion_panics() {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        std::thread::spawn(move || {
            let _ga = a1.lock();
            let _gb = b1.lock();
        })
        .join()
        .expect("A→B order records fine");
        let inverted = std::thread::spawn(move || {
            let _gb = b.lock();
            let _ga = a.lock(); // closes the cycle: must panic, not hang
        })
        .join();
        let err = inverted.expect_err("B→A after A→B must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("lock-order cycle"),
            "panic should name the cycle, got: {msg}"
        );
    }

    /// Consistent ordering across threads never trips the detector,
    /// and re-reading a lock this thread already reads (RwLock
    /// recursion) is not treated as an inversion.
    #[cfg(feature = "lock-order")]
    #[test]
    fn lock_order_consistent_use_is_quiet() {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(RwLock::new(0u32));
        for _ in 0..4 {
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            std::thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.read();
                let _gb2 = b2.read();
            })
            .join()
            .expect("same order everywhere: no cycle");
        }
    }

    #[test]
    fn poisoned_lock_is_still_usable() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 0, "parking_lot semantics: no poisoning");
    }
}
