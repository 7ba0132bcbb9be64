//! Property-based tests over the core data structures and invariants:
//! the in-page record layout, the in-page hash table, the virtual hash
//! buffer (against a model), partitioning determinism, and the
//! colliding-ratio formula.

use pangea::common::{KB, MB};
use pangea::core::HashConfig;
use pangea::core::{hashpage, page, NodeConfig, SetOptions, StorageNode, VirtualHashBuffer};
use proptest::prelude::*;
use std::collections::HashMap;

fn dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "pangea-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

proptest! {
    /// Every record appended to a page reads back identically, in order,
    /// and a page never accepts a record it cannot hold.
    #[test]
    fn record_pages_roundtrip(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..100),
        cap in 64usize..2048,
    ) {
        let mut bytes = vec![0u8; cap];
        page::init_record_page(&mut bytes);
        let mut accepted = Vec::new();
        for r in &records {
            if page::append_record(&mut bytes, r) {
                accepted.push(r.clone());
            } else {
                // Full is sticky for anything at least as large.
                prop_assert!(
                    page::free_bytes(&bytes) < r.len() + page::RECORD_PREFIX
                );
            }
        }
        let read: Vec<Vec<u8>> =
            page::RecordSlices::new(&bytes).map(|r| r.to_vec()).collect();
        prop_assert_eq!(read, accepted);
    }

    /// The in-page hash table behaves like a map for any operation
    /// sequence that fits, and signals Full instead of corrupting. Every
    /// store goes through the one probe (`find`, then `value` and `put`
    /// on what it found); a key the model knows is absent alternates
    /// between that and the probe-less `append`.
    #[test]
    fn hashpage_matches_model(
        ops in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..12),
             prop::collection::vec(any::<u8>(), 0..12)),
            1..200,
        )
    ) {
        let mut bytes = vec![0u8; 4096];
        hashpage::init(&mut bytes, hashpage::buckets_for(4096), 0).unwrap();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for (i, (k, v)) in ops.iter().enumerate() {
            let hash = hashpage::hash_key(k);
            let probe = hashpage::find(&bytes, hash, k);
            prop_assert_eq!(
                hashpage::value(&bytes, probe),
                model.get(k).map(|x| x.as_slice())
            );
            let outcome = if !model.contains_key(k) && i % 2 == 0 {
                hashpage::append(&mut bytes, hash, k, v).unwrap()
            } else {
                hashpage::put(&mut bytes, probe, k, v).unwrap()
            };
            match (outcome, model.insert(k.clone(), v.clone())) {
                (hashpage::HashInsert::Updated, Some(old)) => prop_assert_eq!(old.len(), v.len()),
                (hashpage::HashInsert::Inserted, None) => {}
                (hashpage::HashInsert::Inserted, Some(old)) => prop_assert!(old.len() != v.len()),
                (hashpage::HashInsert::Full, _) => {
                    // A store that found the page full leaves the key out.
                    model.remove(k);
                    break;
                }
                (outcome, old) => prop_assert!(false, "{:?} over {:?}", outcome, old),
            }
        }
        prop_assert_eq!(hashpage::n_items(&bytes) as usize, model.len());
        for (k, v) in &model {
            let probe = hashpage::find(&bytes, hashpage::hash_key(k), k);
            prop_assert_eq!(hashpage::value(&bytes, probe), Some(v.as_slice()));
        }
        // Everything enumerable matches the model too.
        let mut seen = 0;
        hashpage::for_each(&bytes, |k, v| {
            assert_eq!(model.get(k).map(|x| x.as_slice()), Some(v));
            seen += 1;
            Ok(())
        })
        .unwrap();
        prop_assert_eq!(seen, model.len());
    }

    /// The colliding-ratio formula is a probability, declines with
    /// cluster size, and grows with the failure-tolerance level.
    #[test]
    fn colliding_ratio_formula_properties(k in 2u32..100, r in 1u32..4) {
        let f = pangea::cluster::expected_colliding_ratio(k, r);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(f >= pangea::cluster::expected_colliding_ratio(k + 1, r) - 1e-12);
        prop_assert!(
            pangea::cluster::expected_colliding_ratio(k, r + 1) >= f - 1e-12
        );
    }

    /// Hash partitioning is deterministic and respects the partition
    /// count; round-robin cycles exactly.
    #[test]
    fn partition_schemes_are_lawful(
        keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 1..50),
        parts in 1u32..32,
    ) {
        let scheme = pangea::cluster::PartitionScheme::hash("k", parts, |r: &[u8]| r.to_vec());
        for key in &keys {
            let p1 = scheme.partition_of(key, 0);
            let p2 = scheme.partition_of(key, 99);
            prop_assert_eq!(p1, p2);
            prop_assert!(p1.raw() < parts);
        }
        let rr = pangea::cluster::PartitionScheme::round_robin(parts);
        for i in 0..(parts as u64 * 2) {
            prop_assert_eq!(rr.partition_of(b"x", i).raw(), (i % parts as u64) as u32);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The virtual hash buffer aggregates exactly like a HashMap model,
    /// including when memory pressure forces splits and spills.
    #[test]
    fn virtual_hash_buffer_matches_model(
        keys in prop::collection::vec(0u32..400, 1..800),
        pool_kb in 3usize..32,
    ) {
        let node = StorageNode::new(
            NodeConfig::new(dir(&format!("vhb-{pool_kb}")))
                .with_pool_capacity(pool_kb * KB)
                .with_page_size(KB),
        ).unwrap();
        let mut vhb = VirtualHashBuffer::create(
            &node,
            "agg",
            HashConfig::new(2),
            |acc: &mut u64, v: u64| *acc += v,
        ).unwrap();
        let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
        for k in &keys {
            let key = format!("key-{k:05}").into_bytes();
            vhb.insert_merge(&key, 1).unwrap();
            *model.entry(key).or_default() += 1;
        }
        let mut got: Vec<(Vec<u8>, u64)> = vhb.finalize().unwrap();
        got.sort();
        let mut want: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// Sequential write → scan roundtrips under arbitrary pool pressure:
    /// no record is lost, duplicated, or reordered, whatever fits or
    /// spills.
    #[test]
    fn seq_write_scan_roundtrip_under_pressure(
        n in 1usize..2_000,
        pool_pages in 4usize..24,
    ) {
        let node = StorageNode::new(
            NodeConfig::new(dir(&format!("seq-{pool_pages}")))
                .with_pool_capacity(pool_pages * KB)
                .with_page_size(KB),
        ).unwrap();
        let set = node.create_set("s", SetOptions::write_back()).unwrap();
        let mut w = set.writer();
        for i in 0..n {
            w.add_object(format!("row-{i:07}").as_bytes()).unwrap();
        }
        w.finish().unwrap();
        let mut got = Vec::with_capacity(n);
        let mut iters = set.page_iterators(1).unwrap();
        while let Some(pin) = iters[0].next() {
            let pin = pin.unwrap();
            pangea::core::ObjectIter::new(&pin)
                .for_each(|rec| got.push(String::from_utf8(rec.to_vec()).unwrap()));
        }
        let want: Vec<String> = (0..n).map(|i| format!("row-{i:07}")).collect();
        prop_assert_eq!(got, want);
    }
}

/// Non-proptest sanity guard used by CI to make sure the property file
/// itself is wired in.
#[test]
fn property_suite_is_registered() {
    assert_eq!(MB / KB, 1024);
}
