//! `pangea-mgr top` — one fleet-wide observability snapshot.
//!
//! The subcommand asks the manager for its membership view, then issues
//! one `MetricsDump` RPC to the manager itself and to every alive
//! worker, and renders the result either as a per-node text table
//! (per-opcode RPC counts, payload bytes, and p50/p99 latency pulled
//! from the wire histograms) or as one JSON document (`--json`) for
//! scripting. A node that cannot be reached degrades to an error line
//! instead of failing the whole snapshot — `top` is a diagnostic tool
//! and must work best on a half-broken fleet.

use crate::client::ManagerClient;
use pangea_common::Result;
use pangea_net::{ClientPool, PangeaClient, WireMetric, WireSpan, WorkerState};
use pangea_obs::{json_escape, names, quantile_from_buckets};
use std::sync::Arc;

/// One node's slice of the fleet snapshot.
#[derive(Debug)]
pub struct NodeDump {
    /// Display name: `mgr` for the manager, `worker<N>` for slot N.
    pub name: String,
    /// The address the dump was fetched from (the advertised address
    /// for workers, the `--manager` address for the manager).
    pub addr: String,
    /// Membership state for workers; `None` for the manager row.
    pub state: Option<WorkerState>,
    /// The node's full metric registry, sorted by name.
    pub metrics: Vec<WireMetric>,
    /// The retained tail of the node's span ring.
    pub spans: Vec<WireSpan>,
    /// Why the dump is empty, when the node could not be reached.
    pub error: Option<String>,
}

/// Fetches a [`NodeDump`] from every reachable node: the manager first,
/// then each worker the membership snapshot lists as alive (dead/left
/// slots get an error row — their daemons are gone by definition).
pub fn fleet_snapshot(manager: &str, secret: Option<&str>) -> Result<Vec<NodeDump>> {
    let workers = ManagerClient::connect(manager, secret)?.list_workers()?;
    let mut nodes = Vec::with_capacity(workers.len() + 1);
    nodes.push(dump_node("mgr", manager, None, secret));
    for w in &workers {
        let name = format!("worker{}", w.node);
        if w.state == WorkerState::Alive {
            nodes.push(dump_node(&name, &w.addr, Some(w.state), secret));
        } else {
            nodes.push(NodeDump {
                name,
                addr: w.addr.clone(),
                state: Some(w.state),
                metrics: Vec::new(),
                spans: Vec::new(),
                error: Some(format!("not dumped: slot is {:?}", w.state)),
            });
        }
    }
    Ok(nodes)
}

fn dump_node(name: &str, addr: &str, state: Option<WorkerState>, secret: Option<&str>) -> NodeDump {
    let fetched = PangeaClient::connect_with_secret(addr, secret)
        .and_then(|mut client| client.metrics_dump());
    let (metrics, spans, error) = match fetched {
        Ok((metrics, spans)) => (metrics, spans, None),
        Err(e) => (Vec::new(), Vec::new(), Some(e.to_string())),
    };
    NodeDump {
        name: name.to_string(),
        addr: addr.to_string(),
        state,
        metrics,
        spans,
        error,
    }
}

/// One per-opcode row of the text table, stitched from the node's
/// `rpc.count.*` / `rpc.bytes.*` / `rpc.latency_ns.*` metrics.
struct OpRow {
    op: String,
    count: u64,
    bytes: u64,
    p50_ns: u64,
    p99_ns: u64,
}

fn row_index(rows: &mut Vec<OpRow>, op: &str) -> usize {
    if let Some(i) = rows.iter().position(|r| r.op == op) {
        return i;
    }
    rows.push(OpRow {
        op: op.to_string(),
        count: 0,
        bytes: 0,
        p50_ns: 0,
        p99_ns: 0,
    });
    rows.len() - 1
}

fn op_rows(metrics: &[WireMetric]) -> Vec<OpRow> {
    let mut rows: Vec<OpRow> = Vec::new();
    for m in metrics {
        if let Some(op) = m.name().strip_prefix(names::RPC_COUNT_PREFIX) {
            if let WireMetric::Counter { value, .. } = m {
                let i = row_index(&mut rows, op);
                rows[i].count = *value;
            }
        } else if let Some(op) = m.name().strip_prefix(names::RPC_BYTES_PREFIX) {
            if let WireMetric::Counter { value, .. } = m {
                let i = row_index(&mut rows, op);
                rows[i].bytes = *value;
            }
        } else if let Some(op) = m.name().strip_prefix(names::RPC_LATENCY_NS_PREFIX) {
            if let WireMetric::Histogram { buckets, .. } = m {
                let i = row_index(&mut rows, op);
                rows[i].p50_ns = quantile_from_buckets(buckets, 0.50);
                rows[i].p99_ns = quantile_from_buckets(buckets, 0.99);
            }
        }
    }
    rows.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.op.cmp(&b.op)));
    rows
}

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

/// Renders the snapshot as a human-oriented text table: one block per
/// node with its per-opcode RPC rows plus the non-RPC counters and
/// gauges, latencies in microseconds (bucket upper bounds, so they are
/// coarse by design — log2 buckets).
pub fn render_table(nodes: &[NodeDump]) -> String {
    let mut out = String::new();
    for node in nodes {
        let state = match node.state {
            Some(s) => format!("{s:?}").to_lowercase(),
            None => "manager".to_string(),
        };
        out.push_str(&format!("== {} ({}, {}) ==\n", node.name, node.addr, state));
        if let Some(e) = &node.error {
            out.push_str(&format!("  unreachable: {e}\n\n"));
            continue;
        }
        let rows = op_rows(&node.metrics);
        if rows.is_empty() {
            out.push_str("  no RPCs served yet\n");
        } else {
            out.push_str(&format!(
                "  {:<16} {:>8} {:>12} {:>10} {:>10}\n",
                "OP", "COUNT", "BYTES", "P50(us)", "P99(us)"
            ));
            for r in &rows {
                out.push_str(&format!(
                    "  {:<16} {:>8} {:>12} {:>10} {:>10}\n",
                    r.op,
                    r.count,
                    r.bytes,
                    us(r.p50_ns),
                    us(r.p99_ns)
                ));
            }
        }
        let mut extras = Vec::new();
        for m in &node.metrics {
            match m {
                WireMetric::Counter { name, value } if !name.starts_with("rpc.") => {
                    extras.push(format!("{name}={value}"));
                }
                WireMetric::Gauge { name, value } => {
                    extras.push(format!("{name}={value}"));
                }
                _ => {}
            }
        }
        if !extras.is_empty() {
            out.push_str(&format!("  {}\n", extras.join("  ")));
        }
        out.push_str(&format!("  spans retained: {}\n\n", node.spans.len()));
    }
    out
}

fn metric_json(m: &WireMetric) -> String {
    match m {
        WireMetric::Counter { name, value } => format!(
            "{{\"name\":\"{}\",\"kind\":\"counter\",\"value\":{value}}}",
            json_escape(name)
        ),
        WireMetric::Gauge { name, value } => format!(
            "{{\"name\":\"{}\",\"kind\":\"gauge\",\"value\":{value}}}",
            json_escape(name)
        ),
        WireMetric::Histogram {
            name,
            count,
            sum,
            buckets,
        } => format!(
            "{{\"name\":\"{}\",\"kind\":\"histogram\",\"count\":{count},\"sum\":{sum},\
             \"p50\":{},\"p99\":{}}}",
            json_escape(name),
            quantile_from_buckets(buckets, 0.50),
            quantile_from_buckets(buckets, 0.99),
        ),
    }
}

fn span_json(s: &WireSpan) -> String {
    format!(
        "{{\"seq\":{},\"job\":{},\"span\":{},\"parent\":{},\"op\":\"{}\",\"peer\":\"{}\",\
         \"start_ns\":{},\"end_ns\":{},\"bytes\":{},\"outcome\":\"{}\"}}",
        s.seq,
        s.job,
        s.span,
        s.parent,
        json_escape(&s.op),
        json_escape(&s.peer),
        s.start_ns,
        s.end_ns,
        s.bytes,
        json_escape(&s.outcome),
    )
}

/// Renders the snapshot as one JSON document (`--json`): an object with
/// a `nodes` array; each node carries its name/addr/state, an `error`
/// when unreachable, the full metric list (histograms pre-digested to
/// p50/p99 in nanoseconds), and the retained spans.
pub fn render_json(nodes: &[NodeDump]) -> String {
    let mut items = Vec::with_capacity(nodes.len());
    for node in nodes {
        let state = match node.state {
            Some(s) => format!("\"{s:?}\"").to_lowercase(),
            None => "\"manager\"".to_string(),
        };
        let error = match &node.error {
            Some(e) => format!("\"{}\"", json_escape(e)),
            None => "null".to_string(),
        };
        let metrics: Vec<String> = node.metrics.iter().map(metric_json).collect();
        let spans: Vec<String> = node.spans.iter().map(span_json).collect();
        items.push(format!(
            "{{\"name\":\"{}\",\"addr\":\"{}\",\"state\":{state},\"error\":{error},\
             \"metrics\":[{}],\"spans\":[{}]}}",
            json_escape(&node.name),
            json_escape(&node.addr),
            metrics.join(","),
            spans.join(","),
        ));
    }
    format!("{{\"nodes\":[{}]}}\n", items.join(","))
}

/// Runs the `top` subcommand end to end: snapshot the fleet via
/// `manager`, render (table by default, JSON with `json`), and return
/// the rendered text for the binary to print.
pub fn run(manager: &str, secret: Option<&str>, json: bool) -> Result<String> {
    let nodes = fleet_snapshot(manager, secret)?;
    Ok(if json {
        render_json(&nodes)
    } else {
        render_table(&nodes)
    })
}

/// The fixed `--watch` column set: `(fleet.<node>.<key>, header)` pairs,
/// in display order. The values come from the manager's scrape loop
/// (`fleet.*` gauges), so `--watch` costs one manager RPC per tick no
/// matter how large the fleet is.
const WATCH_COLUMNS: &[(&str, &str)] = &[
    (names::FLEET_RPC_PER_SEC, "RPC/S"),
    (names::FLEET_BYTES_PER_SEC, "BYTES/S"),
    (names::FLEET_RPC_P50_NS, "P50(us)"),
    (names::FLEET_RPC_P99_NS, "P99(us)"),
    ("share_bytes", "SHARE(B)"),
    ("session_bytes", "SESS(B)"),
    ("pool_peers", "PEERS"),
    ("spill_bytes", "SPILL(B)"),
    ("pool_used", "POOL(B)"),
    ("staleness_ms", "STALE(ms)"),
    ("ring_dropped_spans", "RINGDROP"),
    (names::FLEET_SCRAPE_DROPPED_SPANS, "LOST"),
];

/// Renders one `--watch` frame from the manager's metric dump: one row
/// per node seen in the `fleet.*` gauges, `-` where the scrape loop has
/// not exported a value (e.g. workers have no staleness until the
/// manager measures one, the manager has no heartbeat staleness at
/// all). Latency gauges are nanosecond bucket bounds; shown as us to
/// match the snapshot table.
pub fn render_watch(metrics: &[WireMetric]) -> String {
    let mut nodes: Vec<String> = Vec::new();
    let mut cells: Vec<(String, String, u64)> = Vec::new();
    for m in metrics {
        let (name, value) = match m {
            WireMetric::Gauge { name, value } => (name, *value),
            _ => continue,
        };
        let Some(rest) = name.strip_prefix(names::FLEET_PREFIX) else {
            continue;
        };
        let Some((node, key)) = rest.rsplit_once('.') else {
            continue;
        };
        if !nodes.iter().any(|n| n == node) {
            nodes.push(node.to_string());
        }
        cells.push((node.to_string(), key.to_string(), value));
    }
    nodes.sort();
    let mut out = String::new();
    if nodes.is_empty() {
        out.push_str("no fleet.* gauges yet — is the manager's scrape loop on? (--scrape-ms)\n");
        return out;
    }
    out.push_str(&format!("  {:<10}", "NODE"));
    for (_, header) in WATCH_COLUMNS {
        out.push_str(&format!(" {header:>9}"));
    }
    out.push('\n');
    for node in &nodes {
        out.push_str(&format!("  {node:<10}"));
        for (key, _) in WATCH_COLUMNS {
            let cell = cells
                .iter()
                .find(|(n, k, _)| n == node && k == key)
                .map(|(_, _, v)| {
                    if key.ends_with("_ns") {
                        us(*v)
                    } else {
                        v.to_string()
                    }
                })
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(" {cell:>9}"));
        }
        out.push('\n');
    }
    out
}

/// Runs `top --watch`: every `interval_ms`, one `MetricsDump` RPC to
/// the manager, rendered as a fleet rates table (see [`render_watch`]).
/// Prints frames to stdout until `iters` runs out (`None` = forever).
/// Reconnects on a failed tick instead of exiting — like the snapshot
/// form, watching must work best on a half-broken fleet.
pub fn run_watch(
    manager: &str,
    secret: Option<&str>,
    interval_ms: u64,
    iters: Option<u64>,
) -> Result<()> {
    let interval = std::time::Duration::from_millis(interval_ms.max(100));
    let pool = ClientPool::new(Arc::default(), secret, None);
    let mut tick = 0u64;
    loop {
        let dumped = pool.call(manager, |c: &mut PangeaClient| c.metrics_dump());
        tick += 1;
        match dumped {
            Ok((metrics, _)) => println!("-- tick {tick} --\n{}", render_watch(&metrics)),
            Err(e) => println!("-- tick {tick} --\nmanager unreachable: {e}\n"),
        }
        if let Some(n) = iters {
            if tick >= n {
                return Ok(());
            }
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<NodeDump> {
        let mut buckets = vec![0u64; pangea_obs::HISTOGRAM_BUCKETS];
        buckets[11] = 3; // three observations in the (1024, 2048] bucket
        vec![NodeDump {
            name: "worker0".to_string(),
            addr: "127.0.0.1:7781".to_string(),
            state: Some(WorkerState::Alive),
            metrics: vec![
                WireMetric::Counter {
                    name: "rpc.count.TaskRun".to_string(),
                    value: 3,
                },
                WireMetric::Counter {
                    name: "rpc.bytes.TaskRun".to_string(),
                    value: 600,
                },
                WireMetric::Histogram {
                    name: "rpc.latency_ns.TaskRun".to_string(),
                    count: 3,
                    sum: 5000,
                    buckets,
                },
                WireMetric::Gauge {
                    name: "sessions.ingest.live".to_string(),
                    value: 0,
                },
            ],
            spans: vec![WireSpan {
                seq: 0,
                job: 7,
                span: 1,
                parent: 0,
                op: "TaskRun".to_string(),
                peer: "d\"r".to_string(),
                start_ns: 1,
                end_ns: 2,
                bytes: 0,
                outcome: "ok".to_string(),
            }],
            error: None,
        }]
    }

    #[test]
    fn table_stitches_per_opcode_rows() {
        let text = render_table(&sample());
        assert!(text.contains("worker0"), "{text}");
        let row = text.lines().find(|l| l.contains("TaskRun")).unwrap();
        assert!(row.contains('3'), "count column: {row}");
        assert!(row.contains("600"), "bytes column: {row}");
        // All three observations sit in [1024, 2048) ns: p50 is the
        // 2nd of 3 (1536 ns = 1.5 us), p99 the 3rd (1877 ns = 1.9 us).
        assert!(row.contains("1.5") && row.contains("1.9"), "{row}");
        assert!(text.contains("sessions.ingest.live=0"), "{text}");
        assert!(text.contains("spans retained: 1"), "{text}");
    }

    #[test]
    fn watch_renders_fleet_gauges_per_node() {
        let metrics = vec![
            WireMetric::Gauge {
                name: "fleet.worker0.rpc_per_sec".to_string(),
                value: 12,
            },
            WireMetric::Gauge {
                name: "fleet.worker0.rpc_p99_ns".to_string(),
                value: 2048,
            },
            WireMetric::Gauge {
                name: "fleet.mgr.rpc_per_sec".to_string(),
                value: 3,
            },
            // Non-fleet metrics are ignored by the watch table.
            WireMetric::Gauge {
                name: "mgr.heartbeat_staleness_ms".to_string(),
                value: 99,
            },
            WireMetric::Counter {
                name: "fleet.worker0.rpc_per_sec".to_string(),
                value: 777,
            },
        ];
        let text = render_watch(&metrics);
        let mgr = text.lines().find(|l| l.contains("mgr")).unwrap();
        let w0 = text.lines().find(|l| l.contains("worker0")).unwrap();
        assert!(mgr.contains('3'), "{mgr}");
        assert!(w0.contains("12"), "{w0}");
        assert!(w0.contains("2.0"), "p99 shown in us: {w0}");
        assert!(!w0.contains("777"), "counters are not watch cells: {w0}");
        assert!(w0.contains('-'), "missing cells dashed: {w0}");
        assert!(!mgr.contains("99"), "non-fleet gauge leaked in: {mgr}");

        let empty = render_watch(&[]);
        assert!(empty.contains("--scrape-ms"), "{empty}");
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let json = render_json(&sample());
        assert!(json.starts_with("{\"nodes\":["), "{json}");
        assert!(json.contains("\"kind\":\"histogram\""), "{json}");
        assert!(json.contains("\"p50\":1536,\"p99\":1877"), "{json}");
        assert!(json.contains("d\\\"r"), "quote in peer escaped: {json}");
        assert!(json.contains("\"state\":\"alive\""), "{json}");
    }
}
