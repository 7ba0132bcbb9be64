//! The source-side combine's per-token step — tokenize a line, split
//! each token into a borrowed key and its value, merge it into a pooled
//! `ReduceBuffer` that already holds the key — makes no heap
//! allocation. A counting global allocator checks it: an allocation per
//! token would cost the combine more than the merge itself.

use pangea_common::KB;
use pangea_core::{HashConfig, NodeConfig, ReduceBuffer, StorageNode};
use pangea_net::{KeySpec, MapSpec, ReduceSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// The system allocator, counting the allocations of whichever thread
/// has switched counting on (so the test harness's own threads do not
/// show up).
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while this thread's locals are
    // being torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(|n| n.get())
}

#[test]
fn combine_step_into_a_present_key_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("pangea-combine-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let node = StorageNode::new(
        NodeConfig::new(&dir)
            .with_pool_capacity(256 * KB)
            .with_page_size(4 * KB),
    )
    .unwrap();
    let map = MapSpec::tokenize(b' ');
    let reduce = ReduceSpec::count(KeySpec::WholeRecord, b'|');
    let mut acc =
        ReduceBuffer::create(&node, "combine", HashConfig::new(4), reduce.merge_fn()).unwrap();
    let line = b"the quick brown fox jumps over the lazy dog";
    let step = |acc: &mut ReduceBuffer| {
        map.for_each_emit(line, &mut |token| {
            if let Some((key, value)) = reduce.key_value(token) {
                acc.insert_merge(key, value)?;
            }
            Ok(())
        })
        .unwrap();
    };

    // The counter sees an allocation when there is one.
    assert!(allocations(|| drop(black_box(reduce.accumulate(b"the")))) > 0);

    // First sight inserts every key and sizes the merge's scratch value.
    step(&mut acc);
    let allocs = allocations(|| {
        for _ in 0..100 {
            step(&mut acc);
        }
    });
    assert_eq!(allocs, 0, "900 combine steps into present keys");

    let pairs = acc.finalize().unwrap();
    assert_eq!(pairs.len(), 8);
    let the = pairs.iter().find(|(key, _)| key == b"the").unwrap();
    assert_eq!(the.1, 202);
    drop(node);
    let _ = std::fs::remove_dir_all(&dir);
}
