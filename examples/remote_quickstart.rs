//! Remote quickstart: a client talking to a `pangead` node daemon over
//! TCP.
//!
//! This example starts the daemon in-process on an ephemeral loopback
//! port (the standalone equivalent is
//! `pangead --listen 127.0.0.1:7781 --data /tmp/pangea-node0`), then
//! drives it with [`PangeaClient`]: create a locality set, append
//! records through the remote sequential write service, scan them back,
//! and read the node's I/O counters. `remote_cluster` runs a shuffle
//! across a fleet of these daemons.
//!
//! Run with: `cargo run --example remote_quickstart`

use pangea::common::{KB, MB};
use pangea::core::{NodeConfig, StorageNode};
use pangea::net::{PangeaClient, PangeadServer};
use pangea::prelude::Result;

fn main() -> Result<()> {
    let data_dir =
        std::env::temp_dir().join(format!("pangea-remote-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    // -- Server side: one storage node behind the wire protocol. -------
    let node = StorageNode::new(
        NodeConfig::new(&data_dir)
            .with_pool_capacity(4 * MB)
            .with_page_size(64 * KB),
    )?;
    let server = PangeadServer::bind(node, "127.0.0.1:0")?;
    println!(
        "pangead serving {} from {}",
        server.local_addr(),
        data_dir.display()
    );

    // -- Client side: the paper's node API, over TCP. ------------------
    let mut client = PangeaClient::connect(server.local_addr())?;
    client.ping()?;

    client.create_set("events", "write-through", None)?;
    let events: Vec<String> = (0..10_000).map(|i| format!("event-{i:05}")).collect();
    // A load is a stream of `Append` batches, all in flight before the
    // first ack is read; the daemon writes them through one sequential
    // writer, and `append_end` seals the tail page.
    let mut inflight = Vec::new();
    for batch in events.chunks(256) {
        let records = batch.iter().map(|e| e.as_bytes().to_vec()).collect();
        inflight.push(client.append_submit("events", records)?);
    }
    let mut appended = 0;
    for (corr, bytes) in inflight {
        appended += client.ingest_append_await(corr, bytes)?.0;
    }
    client.append_end("events")?;
    println!("appended {appended} records to 'events'");

    // A scan pages through the set one bounded reply at a time and
    // collects the records in storage order.
    let scanned = client.scan("events")?;
    println!("'events' holds {} records", scanned.len());
    assert_eq!(scanned.len(), events.len());

    let stats = client.remote_stats()?;
    println!(
        "server counters: {} payload B in {} messages, disk {} B written",
        stats.net_bytes, stats.net_messages, stats.disk_write_bytes
    );

    drop(client);
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok(())
}
