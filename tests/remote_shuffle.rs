//! Loopback TCP integration tests of one `pangead` driven by a
//! `PangeaClient`: the cursor-paged scan, and typed remote errors that
//! leave the connection usable. The distributed paths over
//! real sockets are covered by `remote_mapshuffle`, `remote_pipeline`
//! and `remote_recovery`.

use pangea::common::{KB, MB};
use pangea::core::{NodeConfig, StorageNode};
use pangea::net::{for_each_chunk, PangeaClient, PangeadServer, PUSH_BATCH_BYTES};
use std::path::PathBuf;

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "pangea-remote-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn small_node(tag: &str) -> StorageNode {
    StorageNode::new(
        NodeConfig::new(dir(tag))
            .with_pool_capacity(256 * KB)
            .with_page_size(4 * KB),
    )
    .unwrap()
}

/// Loads `rows` into `set` as one pipelined batch, seals the load, and
/// returns the acked record count.
fn load<R: AsRef<[u8]>>(client: &mut PangeaClient, set: &str, rows: &[R]) -> u64 {
    let records = rows.iter().map(|r| r.as_ref().to_vec()).collect();
    let (corr, bytes) = client.append_submit(set, records).unwrap();
    let (appended, ..) = client.ingest_append_await(corr, bytes).unwrap();
    client.append_end(set).unwrap();
    appended
}

/// A scan pages through a share in replies closed by the push batch
/// rule: a reply boundary may fall inside a page, a record larger than
/// a whole reply still travels (alone or closing its reply), and the
/// records come back once each, in storage order.
#[test]
fn paged_scan_returns_a_share_in_bounded_replies() {
    let node = StorageNode::new(
        NodeConfig::new(dir("cli-scan"))
            .with_pool_capacity(2 * MB)
            .with_page_size(4 * KB),
    )
    .unwrap();
    let server = PangeadServer::bind(node, "127.0.0.1:0").unwrap();
    let mut client = PangeaClient::connect(server.local_addr()).unwrap();
    // Pages of 256 KB hold two replies' worth of small records, so at
    // least one reply must end inside a page.
    client
        .create_set("events", "write-back", Some(256 * KB))
        .unwrap();
    let mut rows: Vec<Vec<u8>> = (0..4000)
        .map(|i| format!("event-{i:05}-{}", "x".repeat(80)).into_bytes())
        .collect();
    rows.insert(2000, vec![b'L'; PUSH_BATCH_BYTES + 1]);
    assert_eq!(load(&mut client, "events", &rows), rows.len() as u64);

    let mut starts = Vec::new();
    let mut restored = Vec::new();
    for_each_chunk(
        "scan",
        |cursor| {
            starts.push(cursor);
            client.scan_chunk("events", cursor)
        },
        |records| {
            let (last, rest) = records.split_last().expect("a reply carries a record");
            let below: usize = rest.iter().map(|r| r.len() + 4).sum();
            assert!(
                below < PUSH_BATCH_BYTES,
                "a reply closes at the record that reaches the batch budget ({} B + {} B)",
                below,
                last.len()
            );
            restored.extend(records);
            Ok(())
        },
    )
    .unwrap();
    assert!(starts.len() >= 3, "replies: {starts:?}");
    assert!(
        starts.iter().any(|&(_, record)| record > 0),
        "a reply boundary falls inside a page: {starts:?}"
    );
    assert!(restored == rows, "every record once, in storage order");
    assert!(client.scan("events").unwrap() == rows);
    let scans = server
        .daemon()
        .obs()
        .registry()
        .counter("rpc.count.Scan")
        .get();
    assert!(scans >= 3, "the share is served over {scans} Scan requests");
}

/// Remote errors carry their message across the wire instead of killing
/// the connection.
#[test]
fn remote_errors_round_trip_cleanly() {
    let server = PangeadServer::bind(small_node("cli-err"), "127.0.0.1:0").unwrap();
    let mut client = PangeaClient::connect(server.local_addr()).unwrap();
    match client.scan("missing-set") {
        Err(pangea::common::PangeaError::Remote(m)) => {
            assert!(m.contains("missing-set"), "{m}");
        }
        other => panic!("expected Remote error, got {other:?}"),
    }
    // The connection survives the error.
    client.ping().unwrap();
    client.create_set("ok", "write-through", None).unwrap();
    assert_eq!(load(&mut client, "ok", &["x"]), 1);
}
