//! `pangead` — run one Pangea storage node behind the wire protocol.
//!
//! ```text
//! pangead --listen 127.0.0.1:7781 --data /var/lib/pangea/node0 \
//!         [--pool-mb 64] [--page-kb 256] [--disks 1] \
//!         [--strategy data-aware] [--disk-bw-mb <MB/s>] \
//!         [--secret S | --secret-file PATH] \
//!         [--manager <addr:port>] [--advertise <addr:port>] \
//!         [--slot N] [--heartbeat-ms 500] [--trace-log PATH] \
//!         [--max-conns 256]
//! ```
//!
//! With `--manager`, the daemon registers itself with a `pangea-mgr`
//! (pinning `--slot` when replacing a dead worker), heartbeats in the
//! background, and deregisters on clean exit. With `--trace-log`, every
//! completed trace span (traced RPCs and their fan-out) is also
//! appended to PATH as one JSON object per line, in addition to the
//! in-memory ring served by `MetricsDump`. Outbound pushes (task
//! ingest, repair streaming) keep at most `PIPELINE_WINDOW` batches in
//! flight per peer, fewer when the receiver's credit grant says so;
//! the window is not a flag. Argument parsing is deliberately
//! dependency-free.

use pangea_coord::WorkerAgent;
use pangea_core::{NodeConfig, StorageNode};
use pangea_net::{PangeadServer, ServerConfig};
use std::process::exit;
use std::time::Duration;

struct Args {
    listen: String,
    data: String,
    pool_mb: usize,
    page_kb: usize,
    disks: usize,
    strategy: String,
    disk_bw_mb: Option<u64>,
    secret: Option<String>,
    manager: Option<String>,
    advertise: Option<String>,
    slot: Option<u32>,
    heartbeat_ms: u64,
    trace_log: Option<String>,
    max_conns: usize,
}

const USAGE: &str = "usage: pangead --listen <addr:port> --data <dir> \
    [--pool-mb N] [--page-kb N] [--disks N] [--strategy NAME] [--disk-bw-mb N] \
    [--secret S | --secret-file PATH] \
    [--manager <addr:port>] [--advertise <addr:port>] [--slot N] [--heartbeat-ms N] \
    [--trace-log PATH] [--max-conns N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: String::new(),
        data: String::new(),
        pool_mb: 64,
        page_kb: 256,
        disks: 1,
        strategy: "data-aware".to_string(),
        disk_bw_mb: None,
        secret: None,
        manager: None,
        advertise: None,
        slot: None,
        heartbeat_ms: 500,
        trace_log: None,
        max_conns: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--data" => args.data = value("--data")?,
            "--pool-mb" => {
                args.pool_mb = value("--pool-mb")?
                    .parse()
                    .map_err(|e| format!("--pool-mb: {e}"))?;
            }
            "--page-kb" => {
                args.page_kb = value("--page-kb")?
                    .parse()
                    .map_err(|e| format!("--page-kb: {e}"))?;
            }
            "--disks" => {
                args.disks = value("--disks")?
                    .parse()
                    .map_err(|e| format!("--disks: {e}"))?;
            }
            "--strategy" => args.strategy = value("--strategy")?,
            "--disk-bw-mb" => {
                args.disk_bw_mb = Some(
                    value("--disk-bw-mb")?
                        .parse()
                        .map_err(|e| format!("--disk-bw-mb: {e}"))?,
                );
            }
            "--secret" | "--secret-file" => {
                let v = value(&flag)?;
                args.secret = Some(pangea_coord::cli::resolve_secret_flag(&flag, v)?);
            }
            "--manager" => args.manager = Some(value("--manager")?),
            "--advertise" => args.advertise = Some(value("--advertise")?),
            "--slot" => {
                args.slot = Some(
                    value("--slot")?
                        .parse()
                        .map_err(|e| format!("--slot: {e}"))?,
                );
            }
            "--heartbeat-ms" => {
                args.heartbeat_ms = value("--heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("--heartbeat-ms: {e}"))?;
            }
            "--trace-log" => args.trace_log = Some(value("--trace-log")?),
            "--max-conns" => {
                args.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.listen.is_empty() || args.data.is_empty() {
        return Err("--listen and --data are required".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pangead: {e}\n{USAGE}");
            exit(2);
        }
    };
    let mut config = NodeConfig::new(&args.data)
        .with_pool_capacity(args.pool_mb * pangea_common::MB)
        .with_page_size(args.page_kb * pangea_common::KB)
        .with_disks(args.disks)
        .with_strategy(&args.strategy);
    if let Some(bw) = args.disk_bw_mb {
        config = config.with_disk_bandwidth(bw * pangea_common::MB as u64);
    }
    let node = match StorageNode::new(config) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("pangead: cannot start storage node: {e}");
            exit(1);
        }
    };
    // --max-conns 0 keeps the library's default connection cap.
    let server_config = ServerConfig {
        max_conns: args.max_conns,
        registry: None,
    };
    let mut server = match PangeadServer::bind_with_config(
        node,
        &args.listen,
        args.secret.clone(),
        server_config,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pangead: cannot bind {}: {e}", args.listen);
            exit(1);
        }
    };
    if let Some(path) = &args.trace_log {
        if let Err(e) = server
            .daemon()
            .obs()
            .ring()
            .set_jsonl_sink(std::path::Path::new(path))
        {
            eprintln!("pangead: cannot open trace log {path}: {e}");
            exit(1);
        }
        println!("pangead: appending trace spans to {path}");
    }
    println!(
        "pangead listening on {} (data: {}, pool: {} MB, pages: {} KB, strategy: {})",
        server.local_addr(),
        args.data,
        args.pool_mb,
        args.page_kb,
        args.strategy
    );
    // Register with the manager when one is configured: the agent
    // heartbeats in the background and deregisters on clean shutdown.
    let mut agent = match &args.manager {
        Some(mgr) => {
            let advertise = args
                .advertise
                .clone()
                .unwrap_or_else(|| server.local_addr().to_string());
            match WorkerAgent::register(
                mgr,
                args.secret.as_deref(),
                &advertise,
                args.slot.map(pangea_common::NodeId),
                Duration::from_millis(args.heartbeat_ms),
            ) {
                Ok(agent) => {
                    println!(
                        "registered with pangea-mgr {mgr} as {} ({}, advertising {advertise})",
                        agent.node(),
                        agent.epoch(),
                    );
                    Some(agent)
                }
                Err(e) => {
                    eprintln!("pangead: cannot register with manager {mgr}: {e}");
                    exit(1);
                }
            }
        }
        None => None,
    };
    // Serve until SIGINT/SIGTERM, then exit cleanly: deregister with
    // the manager (Left, not Dead — never fed to recovery) and drain
    // in-flight requests before closing connections.
    pangea_coord::wait_for_termination();
    println!("pangead: shutting down");
    if let Some(agent) = agent.as_mut() {
        if let Err(e) = agent.shutdown() {
            eprintln!("pangead: deregistration failed: {e}");
        }
    }
    server.shutdown();
}
