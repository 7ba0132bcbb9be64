//! The two kinds of run: the end-to-end run (tracing off) and the
//! traced run that fills the per-layer ladder.

use crate::counters::{self, WorkerCounters};
use crate::json::Value;
use crate::pass::{
    deploy, generate, prefix_input, run_pass, warm_up, Deployment, Input, PassResult, Plan, Tally,
};
use crate::probes::Probes;
use crate::spans::{self, Tracer};
use crate::spec::{self, Kind, Workload, WORKERS};
use crate::stats::{self, Summary};
use pangea::common::MB;
use pangea::coord::ManagerClient;
use pangea::obs::{quantile_from_buckets, NodeSpan, SpanRecord, SpanTree};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Every workload runs at a fiftieth of its size under `--smoke`.
const SMOKE_DIVISOR: usize = 50;
/// Set-ups (corpus generation + fleet boot) per end-to-end run; the
/// reported `setup_s` is their median.
const SETUP_REPS: usize = 5;
const MIN_ROUNDS: usize = 3;
/// A round loads for a second, about as long as its job takes, so that
/// loading and the jobs each get near half of the run.
const LOAD_TIME_PER_ROUND: Duration = Duration::from_secs(1);
/// One scan a round, checked against its digest; its time is in the
/// result file, and in no end-to-end metric (README, "Where this
/// departs").
const SCANS_PER_ROUND: usize = 1;
/// Probes in the ladder, for dividing the probe share of the budget.
const PROBE_COUNT: u32 = 25;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// How long the run measures for.
    pub seconds: f64,
    pub smoke: bool,
    pub strategy: String,
    /// Where fleets keep their data and result files go.
    pub out_dir: PathBuf,
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub tally: Tally,
    /// Every metric of the run's kind, in catalog order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample summaries and settings, for the result file.
    pub details: Vec<(String, Value)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The last line of a driver-mode run.
    pub fn result_line(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            ("metrics", self.metrics_value()),
        ])
    }

    fn metrics_value(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::obj([
                            ("value", Value::Num(*value)),
                            ("unit", Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The result file: the result line's fields plus the details.
    pub fn to_file(&self, opts: &Options) -> Value {
        let mut pairs = vec![
            ("workload".to_string(), Value::Str(self.workload.into())),
            ("traced".to_string(), Value::Bool(self.traced)),
            ("seed".to_string(), Value::Num(opts.seed as f64)),
            ("seconds".to_string(), Value::Num(opts.seconds)),
            ("smoke".to_string(), Value::Bool(opts.smoke)),
            ("strategy".to_string(), Value::Str(opts.strategy.clone())),
            (
                "cores".to_string(),
                Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                Value::Num(self.tally.attempted as f64),
            ),
            ("failed".to_string(), Value::Num(self.tally.failed as f64)),
            (
                "failures".to_string(),
                Value::Arr(self.tally.notes.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics".to_string(), self.metrics_value()),
        ];
        pairs.extend(self.details.iter().cloned());
        Value::Obj(pairs)
    }
}

/// A phase's summary, with its samples in the order they were taken: a
/// drift within the run and a mixture of modes both show in the order
/// and in no summary.
fn summary_value(samples: &[f64]) -> Value {
    let Summary {
        median,
        min,
        max,
        n,
    } = stats::summary(samples);
    Value::obj([
        ("median", Value::Num(median)),
        ("min", Value::Num(min)),
        ("max", Value::Num(max)),
        ("n", Value::Num(n as f64)),
        (
            "samples",
            Value::Arr(samples.iter().copied().map(Value::Num).collect()),
        ),
    ])
}

fn records_of(w: &Workload, opts: &Options) -> usize {
    if opts.smoke {
        w.records / SMOKE_DIVISOR
    } else {
        w.records
    }
}

/// A share of the run's measuring time; a smoke run does one rep of
/// everything whatever `--seconds` says.
fn budget_share(opts: &Options, fraction: f64) -> Duration {
    if opts.smoke {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(opts.seconds * fraction)
    }
}

fn scratch(opts: &Options) -> PathBuf {
    opts.out_dir.join("tmp")
}

/// Per-rep rates: records of each rep over its seconds.
fn rates(pass: &PassResult) -> Vec<f64> {
    pass.job_records
        .iter()
        .zip(&pass.job_s)
        .map(|(r, s)| *r as f64 / s.max(1e-9))
        .collect()
}

/// The end-to-end run: set up several times, then one pass of rounds
/// with tracing off, every phase reported as a median over them.
///
/// A set-up is everything before the first timed operation: corpus and
/// reference, fleet boot until the driver sees every worker alive, and
/// the warm-up job. Work a change moves out of the timed phases into
/// any of them shows in `setup_s`.
pub fn run_end_to_end(w: &'static Workload, opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    let reps = |n: usize| if opts.smoke { 1 } else { n };
    let plan = Plan {
        workload: w,
        workers: WORKERS,
        strategy: &opts.strategy,
        traced: false,
        budget: budget_share(opts, 1.0),
        min_rounds: reps(MIN_ROUNDS),
        load_time: if opts.smoke {
            Duration::ZERO
        } else {
            LOAD_TIME_PER_ROUND
        },
        scans_per_round: reps(SCANS_PER_ROUND),
        warmup: false,
    };
    let mut setup_s = Vec::new();
    let mut ready: Option<(Input, Deployment)> = None;
    for _ in 0..reps(SETUP_REPS) {
        ready = None; // the previous fleet goes away outside the timed set-up
        let t0 = Instant::now();
        let input = generate(w, records_of(w, opts), opts.seed);
        let Some(mut deployment) = tally.op("setup", deploy(&plan, &scratch(opts))) else {
            continue;
        };
        if warm_up(&plan, &input, &mut deployment, &mut tally).is_some() {
            setup_s.push(t0.elapsed().as_secs_f64());
            ready = Some((input, deployment));
        }
    }
    let mut outcome = Outcome {
        workload: w.name,
        traced: false,
        tally,
        metrics: Vec::new(),
        details: Vec::new(),
    };
    let pass = match &mut ready {
        Some((input, deployment)) => run_pass(
            &plan,
            input,
            &Tracer::new(false),
            deployment,
            &mut outcome.tally,
        ),
        None => PassResult::default(),
    };
    let job_records: u64 = pass.job_records.iter().sum();
    let input_bytes = pass.input_bytes.max(1) as f64;
    let values = [
        stats::median(&setup_s),
        pass.input_records as f64 / stats::median(&pass.load_s).max(1e-9),
        stats::median(&rates(&pass)),
        pass.job_cpu.total() / (job_records.max(1) as f64 / 1e6),
        pass.worker_rss_peak_mb.iter().sum(),
        (pass.load_disk_write_bytes as f64
            + pass.job_disk_write_bytes as f64 / pass.job_s.len().max(1) as f64)
            / input_bytes,
    ];
    outcome.metrics = spec::end_to_end()
        .into_iter()
        .zip(values)
        .map(|(def, value)| (def.name, value, def.unit))
        .collect();
    outcome.details = vec![
        (
            "input_records".into(),
            Value::Num(pass.input_records as f64),
        ),
        ("input_bytes".into(), Value::Num(pass.input_bytes as f64)),
        ("setup_s".into(), summary_value(&setup_s)),
        ("load_s".into(), summary_value(&pass.load_s)),
        ("job_s".into(), summary_value(&pass.job_s)),
        ("scan_s".into(), summary_value(&pass.scan_s)),
        ("scan_records".into(), Value::Num(pass.scan_records as f64)),
    ];
    outcome
}

/// Spans of one of the program's trace jobs, fetched from the manager's
/// retained store and stitched.
fn query_trace(mgr_addr: &str, job: u64) -> Result<(SpanTree, u64), String> {
    // The manager scrapes the workers every 100 ms in a traced run; give
    // it two ticks to have the job's last spans.
    std::thread::sleep(Duration::from_millis(250));
    let (pairs, dropped) = ManagerClient::connect(mgr_addr, None)
        .and_then(|mut m| m.trace_query(job))
        .map_err(|e| e.to_string())?;
    let spans: Vec<NodeSpan> = pairs
        .into_iter()
        .map(|(node, w)| NodeSpan {
            node,
            seq: w.seq,
            record: SpanRecord {
                job: w.job,
                span: w.span,
                parent: w.parent,
                op: w.op,
                peer: w.peer,
                start_ns: w.start_ns,
                end_ns: w.end_ns,
                bytes: w.bytes,
                outcome: w.outcome,
            },
        })
        .collect();
    Ok((SpanTree::build(&spans), dropped))
}

/// Self time per operation over a stitched tree, in ms: a span's
/// duration minus what its children's aligned intervals cover.
fn tree_self_ms(tree: &SpanTree) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in &tree.spans {
        let mut kids: Vec<(u64, u64)> = s
            .children
            .iter()
            .map(|&c| (tree.spans[c].aligned_start_ns, tree.spans[c].aligned_end_ns))
            .collect();
        let covered = spans::covered_ns(s.aligned_start_ns, s.aligned_end_ns, &mut kids);
        let own = (s.aligned_end_ns - s.aligned_start_ns).saturating_sub(covered);
        *out.entry(s.record.op.clone()).or_default() += own as f64 / 1e6;
    }
    out
}

/// Busiest worker's self time over the median worker's.
fn straggler_skew(tree: &SpanTree) -> f64 {
    let busy: Vec<f64> = tree
        .per_node_busy_ns()
        .into_iter()
        .filter(|(node, _)| node.starts_with("worker"))
        .map(|(_, ns)| ns as f64)
        .collect();
    let median = stats::median(&busy);
    if median == 0.0 {
        0.0
    } else {
        busy.iter().fold(0.0f64, |a, b| a.max(*b)) / median
    }
}

/// What the model needs to know about the workload's data.
struct Shape {
    /// Records each worker emits per job (tokens, or restored objects).
    emitted_per_worker: f64,
    /// Mean bytes of a shipped record.
    shipped_len: f64,
    /// Distinct keys each worker's accumulator holds.
    keys_per_worker: f64,
}

/// Seconds the probes' rates predict for one job, along the slowest
/// worker: its work counts (from the fleet's own counters) over the
/// rate of the layer that does the work, summed, times how far the
/// workers oversubscribe the cores. Rough by construction; the
/// residual against the measured job time is reported, not gated.
fn model_job_s(
    w: &Workload,
    shape: &Shape,
    input_records: u64,
    per_worker: &[WorkerCounters],
    reps: usize,
    probes: &BTreeMap<String, f64>,
) -> f64 {
    let rate = |name: &str, scale: f64| probes.get(name).copied().unwrap_or(0.0) * scale;
    let cost = |work: f64, per_s: f64| if per_s > 0.0 { work / per_s } else { 0.0 };
    let reps = reps.max(1) as f64;
    let pool = (w.pool_mb * MB) as f64;
    let state = shape.keys_per_worker * 32.0;
    let hash = match state / pool {
        r if r <= 1.0 => "core.hash.insert_merge_mops_s.x1",
        r if r <= 4.0 => "core.hash.insert_merge_mops_s.x4",
        _ => "core.hash.insert_merge_mops_s.x16",
    };
    let scanned = input_records as f64 / per_worker.len().max(1) as f64;
    let slowest = per_worker
        .iter()
        .map(|c| {
            let s = &c.stats;
            let shipped_bytes = (s.shuffle_bytes + s.repair_bytes) as f64 / reps;
            let entries = shipped_bytes / shape.shipped_len.max(1.0);
            let evict = if s.paging_spill_bytes > 0 {
                "storage.pool.evict_dirty_kops_s"
            } else {
                "storage.pool.evict_clean_kops_s"
            };
            // The append rung's session dedups through a ledger that
            // grows as a job's does, so shipped bytes pay for the
            // ledger there and not a second time.
            let mut secs = cost(scanned, rate("core.seq.scan_mrec_s", 1e6))
                + cost(shipped_bytes, rate("net.rpc.append_mb_s.w8", MB as f64))
                + cost(s.paging_evictions as f64 / reps, rate(evict, 1e3))
                + cost(
                    s.paging_misses as f64 / reps,
                    rate("storage.pool.miss_reload_kops_s", 1e3),
                );
            secs += match w.kind {
                Kind::Repair => cost(entries, rate("core.seq.write_mrec_s", 1e6)),
                Kind::ShuffleWide => {
                    cost(
                        shape.emitted_per_worker,
                        rate("net.wire.map_emit_mrec_s", 1e6),
                    ) + cost(shape.emitted_per_worker, rate("net.wire.route_mrec_s", 1e6))
                        + cost(entries, rate("core.seq.write_mrec_s", 1e6))
                }
                Kind::WordcountRoomy | Kind::WordcountTight => {
                    cost(
                        shape.emitted_per_worker,
                        rate("net.wire.map_emit_mrec_s", 1e6),
                    ) + cost(
                        shape.emitted_per_worker,
                        rate("net.wire.reduce_fold_mrec_s", 1e6),
                    ) + cost(shape.emitted_per_worker + entries, rate(hash, 1e6))
                        + cost(shape.keys_per_worker, rate("core.seq.write_mrec_s", 1e6))
                }
            };
            secs
        })
        .fold(0.0f64, f64::max);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    slowest * (per_worker.len() as f64 / cores).max(1.0)
}

fn shape_of(w: &Workload, input: &Input, traced: &PassResult) -> Shape {
    let workers = WORKERS as f64;
    let reference = &input.reference;
    match w.kind {
        Kind::Repair => Shape {
            emitted_per_worker: stats::median(
                &traced
                    .job_records
                    .iter()
                    .map(|r| *r as f64)
                    .collect::<Vec<_>>(),
            ),
            shipped_len: input.corpus.total_bytes() as f64 / input.corpus.len().max(1) as f64,
            keys_per_worker: 0.0,
        },
        Kind::ShuffleWide => {
            let tokens = reference.output.count as f64;
            Shape {
                emitted_per_worker: tokens / workers,
                shipped_len: (input.corpus.total_bytes() as f64 - input.corpus.len() as f64 * 7.0)
                    / tokens.max(1.0),
                keys_per_worker: 0.0,
            }
        }
        Kind::WordcountRoomy | Kind::WordcountTight => {
            let counts = reference.counts.as_ref().expect("wordcount rows");
            let tokens: u64 = counts.values().sum();
            let key_bytes: usize = counts.keys().map(Vec::len).sum();
            Shape {
                emitted_per_worker: tokens as f64 / workers,
                shipped_len: key_bytes as f64 / counts.len().max(1) as f64 + 3.0,
                // A zipf vocabulary shows up whole on every worker; mostly
                // unique keys split evenly.
                keys_per_worker: if w.kind == Kind::WordcountRoomy {
                    counts.len() as f64
                } else {
                    counts.len() as f64 / workers
                },
            }
        }
    }
}

/// The traced run: an untraced reference pass, the traced pass (spans,
/// 100 ms scrape, counter deltas), the single-worker rung, the probes,
/// and the model that ties them together.
pub fn run_traced(w: &'static Workload, opts: &Options) -> Outcome {
    let mut outcome = Outcome {
        workload: w.name,
        traced: true,
        tally: Tally::default(),
        metrics: Vec::new(),
        details: Vec::new(),
    };
    let tally = &mut outcome.tally;
    let tracer = Tracer::new(true);
    let share = |fraction: f64| budget_share(opts, fraction);
    let min_reps = if opts.smoke { 1 } else { 2 };
    let mut m: BTreeMap<String, f64> = BTreeMap::new();

    let t0 = Instant::now();
    let input = tracer.root("corpus_gen", |_| {
        generate(w, records_of(w, opts), opts.seed)
    });
    m.insert("phase.corpus_gen_s".into(), t0.elapsed().as_secs_f64());

    let base = Plan {
        workload: w,
        workers: WORKERS,
        strategy: &opts.strategy,
        traced: false,
        budget: share(0.2),
        min_rounds: min_reps,
        load_time: Duration::ZERO,
        scans_per_round: 0,
        warmup: true,
    };
    // Tracing off: the reference the traced pass is compared with.
    let quiet = tally
        .op("setup", deploy(&base, &scratch(opts)))
        .map(|mut d| run_pass(&base, &input, &Tracer::new(false), &mut d, tally))
        .unwrap_or_default();

    let traced_plan = Plan {
        traced: true,
        scans_per_round: 1,
        ..base.clone()
    };
    let mut tree = None;
    let traced = match tally.op("setup", deploy(&traced_plan, &scratch(opts))) {
        Some(mut deployment) => {
            m.insert("phase.fleet_boot_s".into(), deployment.boot_s);
            let pass = run_pass(&traced_plan, &input, &tracer, &mut deployment, tally);
            if let Some(job) = pass.last_job {
                tree = tally.op("trace_query", query_trace(&pass.mgr_addr, job));
            }
            pass
        }
        None => PassResult::default(),
    };

    // Rung 5: the same job on one worker over a third of the input.
    let single = if w.kind == Kind::Repair {
        PassResult::default() // a lone worker has no survivor to repair from
    } else {
        let third = prefix_input(w.kind, &input, input.corpus.len() / WORKERS as usize);
        let plan = Plan {
            workers: 1,
            budget: share(0.1),
            min_rounds: 1,
            warmup: false,
            ..base.clone()
        };
        tally
            .op("setup", deploy(&plan, &scratch(opts)))
            .map(|mut d| run_pass(&plan, &third, &Tracer::new(false), &mut d, tally))
            .unwrap_or_default()
    };

    let (probes, probe_failed) = Probes {
        workload: w,
        input: &input,
        strategy: &opts.strategy,
        scratch: &scratch(opts),
        slice: share(0.3) / PROBE_COUNT,
        tracer: &tracer,
    }
    .run();
    m.extend(probes.clone());
    m.insert("probe.failed".into(), probe_failed as f64);

    let fleet_rate = stats::median(&rates(&traced));
    let single_rate = stats::median(&rates(&single));
    m.insert("task.single_worker_mrec_s".into(), single_rate / 1e6);
    m.insert(
        "task.fleet_speedup".into(),
        if single_rate > 0.0 {
            fleet_rate / single_rate
        } else {
            0.0
        },
    );

    let fleet = counters::total(&traced.job_counters);
    let s = &fleet.stats;
    let pins = (s.paging_hits + s.paging_misses) as f64;
    for (name, value) in [
        ("paging.hits", s.paging_hits as f64),
        ("paging.misses", s.paging_misses as f64),
        ("paging.evictions", s.paging_evictions as f64),
        ("paging.spill_bytes", s.paging_spill_bytes as f64),
        (
            "paging.hit_ratio",
            if pins > 0.0 {
                s.paging_hits as f64 / pins
            } else {
                0.0
            },
        ),
        ("io.disk_read_bytes", s.disk_read_bytes as f64),
        ("io.disk_write_bytes", s.disk_write_bytes as f64),
        ("io.shuffle_bytes", s.shuffle_bytes as f64),
        ("io.repair_bytes", s.repair_bytes as f64),
        ("io.net_bytes", s.net_bytes as f64),
        ("io.net_messages", s.net_messages as f64),
    ] {
        m.insert(name.into(), value);
    }
    for name in [
        "net.credit_stalls",
        "net.credit_stalls_ms",
        "net.busy_rejects",
        "ingest.dedup_hits",
        "repair.dedup_hits",
        "pool.dials",
        "pool.hits",
        "trace.dropped_spans",
    ] {
        m.insert(name.into(), fleet.value(name) as f64);
    }
    let self_ms = tree
        .as_ref()
        .map(|(t, _)| tree_self_ms(t))
        .unwrap_or_default();
    for op in spec::OPCODES.into_iter().chain(["DriverJob", "DriverRpc"]) {
        m.insert(
            format!("span.{op}.self_ms"),
            self_ms.get(op).copied().unwrap_or(0.0),
        );
    }
    for op in spec::OPCODES {
        m.insert(
            format!("rpc.{op}.count"),
            fleet.value(&format!("rpc.count.{op}")) as f64,
        );
        m.insert(
            format!("rpc.{op}.bytes"),
            fleet.value(&format!("rpc.bytes.{op}")) as f64,
        );
        let buckets = fleet.histograms.get(&format!("rpc.latency_ns.{op}"));
        for (tag, q) in [("p50_us", 0.50), ("p99_us", 0.99)] {
            let ns = buckets
                .filter(|b| b.iter().any(|n| *n > 0))
                .map_or(0, |b| quantile_from_buckets(b, q));
            m.insert(format!("rpc.{op}.{tag}"), ns as f64 / 1e3);
        }
    }
    if let Some((tree, dropped)) = &tree {
        m.insert("span.critical_path_ms".into(), tree.total_ns() as f64 / 1e6);
        m.insert("span.straggler_skew".into(), straggler_skew(tree));
        // Spans the manager's store knows it lost, on top of the rings'.
        *m.entry("trace.dropped_spans".into()).or_default() += *dropped as f64;
    }

    let cpu = &traced.job_cpu;
    m.insert("proc.worker_cpu_s".into(), cpu.workers.iter().sum());
    m.insert(
        "proc.worker_cpu_max_s".into(),
        cpu.workers.iter().fold(0.0f64, |a, b| a.max(*b)),
    );
    m.insert("proc.driver_cpu_s".into(), cpu.driver);
    m.insert("proc.mgr_cpu_s".into(), cpu.mgr);
    m.insert(
        "proc.worker_rss_peak_mb".into(),
        traced.worker_rss_peak_mb.iter().sum(),
    );
    let job = stats::summary(&traced.job_s);
    for (name, value) in [
        ("phase.load_dispatch_s", traced.load_dispatch_s),
        ("phase.load_finish_s", traced.load_finish_s),
        ("phase.replica_register_s", traced.replica_register_s),
        ("phase.job_s_min", job.min),
        ("phase.job_s_max", job.max),
        ("phase.scan_s", stats::median(&traced.scan_s)),
        ("phase.verify_s", traced.verify_s),
        ("phase.kill_detect_s", stats::median(&traced.kill_detect_s)),
        (
            "phase.replacement_boot_s",
            stats::median(&traced.replacement_boot_s),
        ),
    ] {
        m.insert(name.into(), value);
    }

    let model = model_job_s(
        w,
        &shape_of(w, &input, &traced),
        traced.input_records,
        &traced.job_counters,
        traced.job_s.len(),
        &probes,
    );
    m.insert("model.job_s".into(), model);
    m.insert(
        "model.residual_share".into(),
        if job.median > 0.0 {
            (job.median - model) / job.median
        } else {
            0.0
        },
    );
    let quiet_job = stats::median(&quiet.job_s);
    m.insert(
        "trace.overhead_share".into(),
        if quiet_job > 0.0 {
            (job.median - quiet_job) / quiet_job
        } else {
            0.0
        },
    );

    outcome.metrics = spec::per_layer()
        .into_iter()
        .map(|def| {
            let value = m.get(&def.name).copied().unwrap_or(0.0);
            (def.name, value, def.unit)
        })
        .collect();
    let bench_spans = tracer.spans();
    let self_by_name = spans::self_time_by_name(&bench_spans);
    outcome.details = vec![
        ("job_s_traced".into(), summary_value(&traced.job_s)),
        ("job_s_untraced".into(), summary_value(&quiet.job_s)),
        ("job_s_single_worker".into(), summary_value(&single.job_s)),
        (
            "benchmark_span_self_ms".into(),
            Value::Obj(
                self_by_name
                    .iter()
                    .map(|(name, ns)| (name.clone(), Value::Num(*ns as f64 / 1e6)))
                    .collect(),
            ),
        ),
    ];
    let trace_path = opts.out_dir.join(format!("{}.trace.json", w.name));
    let written = write_spans(&trace_path, &bench_spans);
    outcome.tally.op("trace_file", written);
    outcome
}

/// Writes the benchmark-side spans, one JSON object per span.
fn write_spans(path: &std::path::Path, spans: &[spans::Span]) -> Result<(), String> {
    let doc = Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("id", Value::Num(s.id as f64)),
                    ("parent", Value::Num(s.parent as f64)),
                    ("trace", Value::Num(s.trace as f64)),
                    ("name", Value::Str(s.name.clone())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    );
    std::fs::write(path, doc.to_line() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints a run for people: every metric by name with its unit, and the
/// sample summaries behind the medians.
pub fn print_human(outcome: &Outcome) {
    println!(
        "== {} ({}) attempted {} failed {}",
        outcome.workload,
        if outcome.traced {
            "traced"
        } else {
            "end to end"
        },
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
    for (name, detail) in &outcome.details {
        if let (Some(median), Some(n)) = (
            detail.get("median").and_then(Value::as_f64),
            detail.get("n").and_then(Value::as_f64),
        ) {
            let get = |k| detail.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            println!(
                "  {name:<44} median {median:.4} min {:.4} max {:.4} n {n}",
                get("min"),
                get("max")
            );
        }
    }
    for note in &outcome.tally.notes {
        println!("  FAILED {note}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangea::net::RemoteStats;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            workload: "wordcount-roomy",
            traced: false,
            tally: Tally::default(),
            metrics: vec![("setup_s".into(), 0.8127, "s")],
            details: Vec::new(),
        };
        let line = outcome.result_line();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.to_line(),
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }

    #[test]
    fn the_model_charges_each_layer_its_counted_work() {
        let w = spec::workload("shuffle-wide").unwrap();
        let shape = Shape {
            emitted_per_worker: 1e6,
            shipped_len: 10.0,
            keys_per_worker: 0.0,
        };
        let worker = WorkerCounters {
            stats: RemoteStats {
                shuffle_bytes: 2 * 10_000_000, // two reps of 1M ten-byte records
                ..Default::default()
            },
            ..Default::default()
        };
        let probes: BTreeMap<String, f64> = [
            ("core.seq.scan_mrec_s", 1.0),
            ("net.wire.map_emit_mrec_s", 2.0),
            ("net.wire.route_mrec_s", 4.0),
            ("net.rpc.append_mb_s.w8", 10.0 * 1e6 / MB as f64),
            ("core.seq.write_mrec_s", 1.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        // scan 1M (1 s) + ship (1 s) + emit (0.5 s) + route (0.25 s)
        // + write (1 s), on one worker.
        let secs = model_job_s(w, &shape, 1_000_000, &[worker], 2, &probes);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        assert!(
            (secs - 3.75 * (1.0 / cores).max(1.0)).abs() < 1e-6,
            "model gave {secs}"
        );
    }
}
