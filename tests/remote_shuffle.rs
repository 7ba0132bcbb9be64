//! Loopback TCP integration tests of one `pangead` driven by a
//! `PangeaClient`: the page-level recovery read path, and typed remote
//! errors that leave the connection usable. The distributed paths over
//! real sockets are covered by `remote_mapshuffle`, `remote_pipeline`
//! and `remote_recovery`.

use pangea::common::KB;
use pangea::core::{NodeConfig, StorageNode};
use pangea::net::{PangeaClient, PangeadServer};
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

/// The recovery read path over the wire: fetch raw remote pages and
/// parse them with the page codec, as a recovering node would.
#[test]
fn fetch_page_supports_remote_recovery_reads() {
    let server = PangeadServer::bind(small_node("cli-fetch"), "127.0.0.1:0").unwrap();
    let mut client = PangeaClient::connect(server.local_addr()).unwrap();
    client.create_set("events", "write-back", None).unwrap();
    let rows: Vec<String> = (0..300).map(|i| format!("event-{i:05}")).collect();
    assert_eq!(load(&mut client, "events", &rows), 300);

    let mut restored = Vec::new();
    for num in client.page_numbers("events").unwrap() {
        let bytes = client.fetch_page("events", num).unwrap();
        for rec in pangea::core::page::RecordSlices::new(&bytes) {
            restored.push(String::from_utf8(rec.to_vec()).unwrap());
        }
    }
    assert_eq!(
        restored, rows,
        "page-level fetch restores every record in order"
    );
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
