//! One pass of a workload over one fleet: a warm-up, then rounds of
//! load, job and scans until the time is spent, then a last check. A
//! phase that ran once, in its own part of the pass, would take the
//! machine's speed of those few seconds for its own; going round, every
//! phase samples the whole pass, and its median outlasts a slow spell.
//! The end-to-end run, the traced run and the single-worker rung all go
//! through [`run_pass`]; they differ only in the [`Plan`].

use crate::counters::{self, WorkerCounters};
use crate::fleet::{self, Fleet, FleetConfig};
use crate::gen::{self, Checksum, Corpus, Counts};
use crate::procfs;
use crate::spans::{Ctx, Tracer};
use crate::spec::{Kind, Workload, PARTITIONS};
use pangea::cluster::{MapShuffleReport, PartitionScheme};
use pangea::common::NodeId;
use pangea::coord::RemoteCluster;
use pangea::net::{KeySpec, MapSpec, ReduceSpec};
use std::path::Path;
use std::time::{Duration, Instant};

/// No phase may take longer; a wedged job must not eat the run's cap.
pub const PHASE_TIMEOUT: Duration = Duration::from_secs(120);
/// Delimiter between key and count in reduce output rows.
const DELIM: u8 = b'|';

/// Operations attempted and failed. A timeout, a typed error and a
/// reference mismatch are all failures, never warnings.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; a failure is noted and yields `None`.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                self.notes.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Runs `f` under the phase watchdog: past [`PHASE_TIMEOUT`] every
/// child process is killed, which fails whatever RPC `f` is blocked in,
/// and the phase reports a timeout. A panic in `f` is passed on, so
/// that the fleet's `Drop` still cleans up on the way out.
pub fn guarded<T: Send>(
    phase: &str,
    f: impl FnOnce() -> Result<T, String> + Send,
) -> Result<T, String> {
    guarded_within(PHASE_TIMEOUT, phase, f)
}

fn guarded_within<T: Send>(
    timeout: Duration,
    phase: &str,
    f: impl FnOnce() -> Result<T, String> + Send,
) -> Result<T, String> {
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = scope.spawn(move || {
            let out = f();
            let _ = done_tx.send(());
            out
        });
        // A disconnect means `f` panicked; only a real timeout kills.
        let timed_out = matches!(
            done_rx.recv_timeout(timeout),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout)
        );
        if timed_out {
            fleet::kill_every_child();
        }
        match worker.join() {
            Ok(_) if timed_out => Err(format!(
                "{phase}: timed out after {timeout:?}; fleet killed"
            )),
            Ok(out) => out.map_err(|e| format!("{phase}: {e}")),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// What a workload's outputs are checked against, computed in the
/// driver from the same generated corpus.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Digest of the input records.
    pub input: Checksum,
    /// Exact `word -> count` rows (both wordcounts).
    pub counts: Option<Counts>,
    /// Digest of the expected job output (tokens, or `word|count` rows).
    pub output: Checksum,
}

/// A generated input with its reference.
#[derive(Debug, Clone)]
pub struct Input {
    pub corpus: Corpus,
    pub reference: Reference,
}

fn rows_checksum(counts: &Counts) -> Checksum {
    let mut sum = Checksum::default();
    let mut row = Vec::new();
    for (word, n) in counts {
        row.clear();
        row.extend_from_slice(word);
        row.push(DELIM);
        row.extend_from_slice(n.to_string().as_bytes());
        sum.add(&row);
    }
    sum
}

/// Generates `records` input records for `workload` from `seed`.
pub fn generate(workload: &Workload, records: usize, seed: u64) -> Input {
    let (corpus, counts) = match workload.kind {
        Kind::WordcountRoomy | Kind::ShuffleWide => {
            let (c, n) = gen::zipf_lines(
                seed,
                records,
                crate::spec::TOKENS_PER_LINE,
                crate::spec::VOCABULARY,
            );
            (c, Some(n))
        }
        Kind::WordcountTight => {
            let (c, n) = gen::unique_lines(seed, records);
            (c, Some(n))
        }
        Kind::Repair => (gen::event_records(seed, records), None),
    };
    with_reference(workload.kind, corpus, counts)
}

/// The first `records` of `input` as an input of its own; its
/// reference is recounted by the driver's own tokenizer.
pub fn prefix_input(kind: Kind, input: &Input, records: usize) -> Input {
    let corpus = input.corpus.prefix(records);
    let counts = input
        .reference
        .counts
        .as_ref()
        .map(|_| gen::count_tokens(&corpus));
    with_reference(kind, corpus, counts)
}

fn with_reference(kind: Kind, corpus: Corpus, counts: Option<Counts>) -> Input {
    let input = Checksum::of(corpus.records());
    let (counts, output) = match kind {
        Kind::ShuffleWide => (None, gen::token_checksum(&corpus)),
        Kind::Repair => (None, input),
        Kind::WordcountRoomy | Kind::WordcountTight => {
            let counts = counts.expect("wordcount inputs come with their counts");
            let output = rows_checksum(&counts);
            (Some(counts), output)
        }
    };
    Input {
        corpus,
        reference: Reference {
            input,
            counts,
            output,
        },
    }
}

/// How one pass runs.
#[derive(Debug, Clone)]
pub struct Plan<'a> {
    pub workload: &'a Workload,
    pub workers: u32,
    pub strategy: &'a str,
    /// Traced passes record benchmark-side spans, scrape every 100 ms
    /// and read `MetricsDump` around each job rep.
    pub traced: bool,
    /// Rounds go on until this much time is spent...
    pub budget: Duration,
    /// ...but at least this many are run.
    pub min_rounds: usize,
    /// Each round loads the input again and again until it has spent
    /// this long loading, and at least once.
    pub load_time: Duration,
    /// Timed scans at the end of each round.
    pub scans_per_round: usize,
    /// Whether the pass starts with the warm-up job; not when the
    /// caller has run it as part of the set-up it times.
    pub warmup: bool,
}

/// What one load measured.
struct LoadTimes {
    dispatch_s: f64,
    finish_s: f64,
    replica_s: f64,
}

/// A booted fleet with a connected driver.
pub struct Deployment {
    pub fleet: Fleet,
    pub cluster: RemoteCluster,
    pub boot_s: f64,
}

/// Boots the fleet and connects, returning once the driver sees every
/// worker alive.
pub fn deploy(plan: &Plan, scratch: &Path) -> Result<Deployment, String> {
    guarded("fleet_boot", || {
        let t0 = Instant::now();
        let fleet = Fleet::boot(
            FleetConfig {
                workers: plan.workers,
                pool_mb: plan.workload.pool_mb,
                page_kb: plan.workload.page_kb,
                strategy: plan.strategy.to_string(),
                scrape_ms: plan.traced.then_some(100),
            },
            scratch,
        )?;
        let cluster = RemoteCluster::connect(&fleet.mgr.addr, None).map_err(|e| e.to_string())?;
        fleet::wait_until(Duration::from_secs(20), || {
            cluster.refresh_membership().map_err(|e| e.to_string())?;
            Ok(cluster.alive_nodes().len() == plan.workers as usize)
        })?;
        Ok(Deployment {
            fleet,
            cluster,
            boot_s: t0.elapsed().as_secs_f64(),
        })
    })
}

/// CPU seconds by process role.
#[derive(Debug, Clone, Default)]
pub struct CpuSplit {
    pub workers: Vec<f64>,
    pub mgr: f64,
    pub driver: f64,
}

impl CpuSplit {
    fn read(fleet: &Fleet) -> Self {
        let (workers, mgr) = fleet.pids();
        Self {
            workers: workers.into_iter().map(procfs::cpu_seconds).collect(),
            mgr: procfs::cpu_seconds(mgr),
            driver: procfs::cpu_seconds(std::process::id()),
        }
    }

    fn add_since(&mut self, before: &CpuSplit, after: &CpuSplit) {
        self.workers.resize(after.workers.len(), 0.0);
        for (slot, (a, b)) in self
            .workers
            .iter_mut()
            .zip(after.workers.iter().zip(&before.workers))
        {
            *slot += (a - b).max(0.0);
        }
        self.mgr += (after.mgr - before.mgr).max(0.0);
        self.driver += (after.driver - before.driver).max(0.0);
    }

    pub fn total(&self) -> f64 {
        self.workers.iter().sum::<f64>() + self.mgr + self.driver
    }
}

/// Everything one pass measured. Vectors hold one sample per rep.
#[derive(Debug, Default)]
pub struct PassResult {
    pub input_records: u64,
    pub input_bytes: u64,
    pub load_s: Vec<f64>,
    pub load_dispatch_s: f64,
    pub load_finish_s: f64,
    pub replica_register_s: f64,
    pub job_s: Vec<f64>,
    /// Records per rep: the input (jobs) or `objects_restored` (repair).
    pub job_records: Vec<u64>,
    pub job_cpu: CpuSplit,
    pub kill_detect_s: Vec<f64>,
    pub replacement_boot_s: Vec<f64>,
    pub scan_s: Vec<f64>,
    pub scan_records: u64,
    pub verify_s: f64,
    /// What the first load wrote.
    pub load_disk_write_bytes: u64,
    pub job_disk_write_bytes: u64,
    /// Per-slot counter deltas summed over the job reps.
    pub job_counters: Vec<WorkerCounters>,
    pub worker_rss_peak_mb: Vec<f64>,
    /// The program's trace id of the last job rep.
    pub last_job: Option<u64>,
    pub mgr_addr: String,
}

struct Pass<'a> {
    plan: &'a Plan<'a>,
    input: &'a Input,
    tracer: &'a Tracer,
    dep: &'a mut Deployment,
    /// The set the jobs read.
    input_set: String,
    /// The set the last round loaded, dropped by the next.
    round_input: Option<String>,
    out: PassResult,
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

impl Pass<'_> {
    fn kind(&self) -> Kind {
        self.plan.workload.kind
    }

    fn worker_addrs(&self) -> Vec<String> {
        self.dep
            .fleet
            .workers
            .iter()
            .map(|w| w.addr.clone())
            .collect()
    }

    fn counters(&self) -> Result<Vec<WorkerCounters>, String> {
        counters::read_fleet(&self.worker_addrs(), self.plan.traced)
    }

    /// Loads `corpus` into a fresh set `name` through the loader;
    /// `replica` then registers a replica of it keyed by the event field.
    fn load(
        &self,
        ctx: Ctx,
        name: &str,
        corpus: &Corpus,
        replica: bool,
    ) -> Result<LoadTimes, String> {
        let t = self.tracer;
        let scheme = match self.kind() {
            Kind::Repair => PartitionScheme::hash_field("key", PARTITIONS, DELIM, 0),
            _ => PartitionScheme::round_robin(PARTITIONS),
        };
        let t0 = Instant::now();
        let set = t
            .child(ctx, "coord.create_dist_set", |_| {
                self.dep.cluster.create_dist_set(name, scheme)
            })
            .map_err(err)?;
        let mut loader = set.loader().map_err(err)?;
        t.child(ctx, "cluster.loader.dispatch", |_| {
            corpus
                .records()
                .try_for_each(|r| loader.dispatch(r).map(|_| ()))
        })
        .map_err(err)?;
        let dispatch_s = t0.elapsed().as_secs_f64();
        t.child(ctx, "cluster.loader.finish", |_| loader.finish())
            .map_err(err)?;
        let finish_s = t0.elapsed().as_secs_f64() - dispatch_s;
        let mut replica_s = 0.0;
        if replica {
            let t1 = Instant::now();
            t.child(ctx, "coord.register_replica", |_| {
                self.dep.cluster.register_replica(
                    name,
                    &replica_of(name),
                    PartitionScheme::hash_field("event", PARTITIONS, DELIM, 1),
                )
            })
            .map_err(err)?;
            replica_s = t1.elapsed().as_secs_f64();
        }
        Ok(LoadTimes {
            dispatch_s,
            finish_s,
            replica_s,
        })
    }

    fn drop_set(&self, ctx: Ctx, name: &str) -> Result<(), String> {
        self.tracer
            .child(ctx, "coord.drop_dist_set", |_| {
                self.dep.cluster.drop_dist_set(name)
            })
            .map_err(err)
    }

    /// The workload's job from `input` into a fresh `output`.
    fn job(&self, ctx: Ctx, input: &str, output: &str) -> Result<MapShuffleReport, String> {
        let map = MapSpec::tokenize(b' ');
        match self.kind() {
            Kind::ShuffleWide => self.tracer.child(ctx, "coord.map_shuffle", |_| {
                self.dep.cluster.map_shuffle(
                    input,
                    output,
                    &map,
                    PartitionScheme::hash_whole("word", PARTITIONS),
                )
            }),
            _ => self.tracer.child(ctx, "coord.map_reduce", |_| {
                self.dep.cluster.map_reduce(
                    input,
                    output,
                    &map,
                    &ReduceSpec::count(KeySpec::WholeRecord, DELIM),
                    PartitionScheme::hash_field("word", PARTITIONS, DELIM, 0),
                )
            }),
        }
        .map_err(err)
    }

    /// Reads a whole set back through the driver, digesting it.
    fn scan(&self, ctx: Ctx, name: &str) -> Result<Checksum, String> {
        let set = self
            .dep
            .cluster
            .get_dist_set(name)
            .map_err(err)?
            .ok_or_else(|| format!("set {name} is not cataloged"))?;
        let mut sum = Checksum::default();
        self.tracer
            .child(ctx, "cluster.for_each_record", |_| {
                set.for_each_record(|_, r| sum.add(r))
            })
            .map_err(err)?;
        Ok(sum)
    }

    fn total_records(&self, name: &str) -> Result<u64, String> {
        self.dep
            .cluster
            .get_dist_set(name)
            .map_err(err)?
            .ok_or_else(|| format!("set {name} is not cataloged"))?
            .total_records()
            .map_err(err)
    }

    /// Loads the input into the fresh set `name`, timed from the set's
    /// creation to the loader's `finish`, and checks that it landed.
    fn timed_load(&mut self, tally: &mut Tally, name: &str, replica: bool) -> Option<()> {
        let records = self.input.corpus.len() as u64;
        let before = tally.op("stats", self.counters())?;
        let timed = guarded("load", || {
            self.tracer.root("load", |ctx| {
                self.load(ctx, name, &self.input.corpus, replica)
            })
        });
        let times = tally.op("load", timed)?;
        let landed = guarded("load_check", || self.total_records(name)).and_then(|n| {
            (n == records)
                .then_some(())
                .ok_or_else(|| format!("{name} holds {n} records, loaded {records}"))
        });
        tally.op("load_check", landed)?;
        let after = tally.op("stats", self.counters())?;
        self.out.load_s.push(times.dispatch_s + times.finish_s);
        self.out.load_dispatch_s = times.dispatch_s;
        self.out.load_finish_s = times.finish_s;
        if replica {
            self.out.replica_register_s = times.replica_s;
        }
        if self.out.load_s.len() == 1 {
            // The first load is the one with `repair`'s replica; every
            // later load of a workload writes what its first one did.
            self.out.load_disk_write_bytes =
                counters::total(&counters::fleet_delta(&before, &after))
                    .stats
                    .disk_write_bytes;
        }
        Some(())
    }

    fn drop_checked(&self, tally: &mut Tally, name: &str) -> Option<()> {
        let dropped = guarded("drop", || {
            self.tracer.root("drop", |ctx| self.drop_set(ctx, name))
        });
        tally.op("drop", dropped)
    }

    fn drop_round_input(&mut self, tally: &mut Tally) -> Option<()> {
        match self.round_input.take() {
            Some(stale) => self.drop_checked(tally, &stale),
            None => Some(()),
        }
    }

    /// Loads the input into a fresh set, the one loaded before dropped
    /// first, and again until the round has spent the plan's loading
    /// time: a small input loads in milliseconds, and a median wants
    /// more of those. The last set is the round's job input, except in
    /// `repair`, whose jobs work on the set loaded before the first
    /// round: there the loads are timed all the same, so that
    /// `load_rec_per_s` is a median over rounds in every workload, and
    /// the set is dropped again before a worker is killed under it.
    fn load_round(&mut self, tally: &mut Tally) -> Option<()> {
        let t0 = Instant::now();
        loop {
            self.drop_round_input(tally)?;
            let name = format!("in{}", self.out.load_s.len());
            self.timed_load(tally, &name, false)?;
            self.round_input = Some(name);
            if t0.elapsed() >= self.plan.load_time {
                break;
            }
        }
        if self.kind() == Kind::Repair {
            self.drop_round_input(tally)
        } else {
            self.input_set = self.round_input.clone().expect("the round loaded a set");
            Some(())
        }
    }

    /// One job on a tenth of the input, so that lazy set-up in the
    /// daemons (peer connections, first pages) is paid before the timed
    /// reps. `repair` has none: its job needs a kill.
    fn warmup_phase(&mut self, tally: &mut Tally) -> Option<()> {
        if self.kind() == Kind::Repair {
            return Some(());
        }
        let small = self.input.corpus.prefix(self.input.corpus.len() / 10);
        let warmed = guarded("warmup", || {
            self.tracer.root("warmup", |ctx| {
                self.load(ctx, "warm_in", &small, false)?;
                let report = self.job(ctx, "warm_in", "warm_out")?;
                if report.scanned != small.len() as u64 {
                    return Err(format!(
                        "warm-up scanned {} of {}",
                        report.scanned,
                        small.len()
                    ));
                }
                self.drop_set(ctx, "warm_out")?;
                self.drop_set(ctx, "warm_in")
            })
        });
        tally.op("warmup", warmed)
    }

    /// Runs `round` until the plan's budget is spent (and at least its
    /// minimum number of times). A round is not started when the median
    /// round so far would overrun the budget.
    fn rounds(
        &mut self,
        tally: &mut Tally,
        mut round: impl FnMut(&mut Self, &mut Tally, usize) -> Option<()>,
    ) -> Option<()> {
        let t0 = Instant::now();
        let mut took: Vec<f64> = Vec::new();
        loop {
            let n = took.len();
            let spent = t0.elapsed().as_secs_f64();
            let next = crate::stats::median(&took);
            if n >= self.plan.min_rounds && spent + next > self.plan.budget.as_secs_f64() {
                return Some(());
            }
            let t1 = Instant::now();
            round(self, tally, n)?;
            took.push(t1.elapsed().as_secs_f64());
        }
    }

    /// Times `job` between two readings of the fleet's counters and CPU
    /// clocks (taken outside the timed region) and records the rep.
    /// `records` says how many records the job's report accounts for, or
    /// what is wrong with it. Returns the per-worker counter deltas.
    fn measured_job<T: Send>(
        &mut self,
        tally: &mut Tally,
        job: impl FnOnce(&Self, Ctx) -> Result<T, String> + Send,
        records: impl FnOnce(&T) -> Result<u64, String>,
    ) -> Option<Vec<WorkerCounters>> {
        let before = tally.op("stats", self.counters())?;
        let cpu_before = CpuSplit::read(&self.dep.fleet);
        let t0 = Instant::now();
        let ran = guarded("job", || self.tracer.root("job", |ctx| job(self, ctx)));
        let secs = t0.elapsed().as_secs_f64();
        let cpu_after = CpuSplit::read(&self.dep.fleet);
        let records = tally.op("job", ran.and_then(|report| records(&report)))?;
        let after = tally.op("stats", self.counters())?;
        let delta = counters::fleet_delta(&before, &after);
        self.out.job_s.push(secs);
        self.out.job_records.push(records);
        self.out.job_cpu.add_since(&cpu_before, &cpu_after);
        self.out.job_disk_write_bytes += counters::total(&delta).stats.disk_write_bytes;
        self.out
            .job_counters
            .resize_with(delta.len(), Default::default);
        for (slot, d) in self.out.job_counters.iter_mut().zip(&delta) {
            slot.add(d);
        }
        self.out.last_job = self.dep.cluster.workers().last_job();
        Some(delta)
    }

    /// The workload's job from the round's input into a fresh output,
    /// the one of the round before dropped first.
    fn job_round(&mut self, tally: &mut Tally, round: usize) -> Option<()> {
        let expected_out = self.input.reference.output.count;
        let records = self.input.corpus.len() as u64;
        let output = format!("out{round}");
        if round > 0 {
            self.drop_checked(tally, &format!("out{}", round - 1))?;
        }
        let delta = self.measured_job(
            tally,
            |pass, ctx| pass.job(ctx, &pass.input_set, &output),
            |report| {
                if report.scanned == records && report.records_out == expected_out {
                    Ok(records)
                } else {
                    Err(format!(
                        "job scanned {} of {records} records and wrote {} of {expected_out}",
                        report.scanned, report.records_out
                    ))
                }
            },
        )?;
        // Only the full input is sized to press on the pool.
        if self.kind() == Kind::WordcountTight
            && self.input.corpus.len() == self.plan.workload.records
        {
            tally.op("pool_pressure", pool_pressure(&delta))?;
        }
        Some(())
    }

    /// Checks the set and its replica against the corpus digest.
    fn check_replicas(&self, ctx: Ctx, set: &str) -> Result<(), String> {
        let want = self.input.reference.input;
        for name in [set.to_string(), replica_of(set)] {
            let total = self.total_records(&name)?;
            let got = self.scan(ctx, &name)?;
            if total != want.count || got != want {
                return Err(format!(
                    "{name}: total_records {total}, scanned {got:?}, expected {want:?}"
                ));
            }
        }
        Ok(())
    }

    /// A `repair` round: kill -9 the worker in slot 1, wait until the
    /// manager declares it dead, start a replacement pinned to the slot,
    /// and time `recover_worker` alone.
    ///
    /// Every round kills the same slot. Rotating slots loses records at
    /// the parent commit: recovery does not rebuild the colliding set's
    /// share on the replacement, so after slot `s` was replaced the
    /// objects colliding on slot `s - 1` have one copy left, and killing
    /// `s - 1` next loses them (see README, "Findings").
    fn repair_round(&mut self, tally: &mut Tally) -> Option<()> {
        const SLOT: usize = 1;
        let node = NodeId(SLOT as u32);
        let t0 = Instant::now();
        let Deployment { fleet, cluster, .. } = &mut *self.dep;
        let detected = guarded("kill_detect", || {
            fleet.kill_worker(SLOT);
            fleet::wait_until(Duration::from_secs(60), || {
                Ok(cluster.dead_workers().map_err(err)?.contains(&node))
            })
        });
        tally.op("kill_detect", detected)?;
        self.out.kill_detect_s.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let fleet = &mut self.dep.fleet;
        let booted = guarded("replacement_boot", || fleet.replace_worker(SLOT));
        tally.op("replacement_boot", booted)?;
        self.out.replacement_boot_s.push(t1.elapsed().as_secs_f64());
        self.measured_job(
            tally,
            |pass, ctx| {
                pass.tracer
                    .child(ctx, "coord.recover_worker", |_| {
                        pass.dep.cluster.recover_worker(node)
                    })
                    .map_err(err)
            },
            |report| Ok(report.objects_restored),
        )?;
        let restored = guarded("verify", || {
            self.tracer
                .root("verify", |ctx| self.check_replicas(ctx, &self.input_set))
        });
        tally.op("post_recovery_check", restored)
    }

    /// The set the scan phase reads: the big input where the output is
    /// a thousand rows, the job's output otherwise.
    fn scan_target(&self) -> (String, Checksum) {
        let reference = &self.input.reference;
        match self.kind() {
            Kind::WordcountRoomy | Kind::Repair => (self.input_set.clone(), reference.input),
            Kind::ShuffleWide | Kind::WordcountTight => {
                (format!("out{}", self.out.job_s.len() - 1), reference.output)
            }
        }
    }

    fn scan_round(&mut self, tally: &mut Tally) -> Option<()> {
        let (target, want) = self.scan_target();
        for _ in 0..self.plan.scans_per_round {
            let t0 = Instant::now();
            let scanned = guarded("scan", || {
                self.tracer.root("scan", |ctx| self.scan(ctx, &target))
            });
            let secs = t0.elapsed().as_secs_f64();
            let checked = scanned.and_then(|got| {
                (got == want)
                    .then_some(got.count)
                    .ok_or_else(|| format!("{target}: scanned {got:?}, expected {want:?}"))
            });
            self.out.scan_records = tally.op("scan", checked)?;
            self.out.scan_s.push(secs);
        }
        Some(())
    }

    /// The final check of the last job's output against the reference:
    /// wordcount rows are compared record for record.
    fn verify_phase(&mut self, tally: &mut Tally) -> Option<()> {
        let t0 = Instant::now();
        let output = format!("out{}", self.out.job_s.len().saturating_sub(1));
        let verdict = match self.kind() {
            Kind::Repair => Ok(()), // checked after every round
            Kind::ShuffleWide => guarded("verify", || {
                self.tracer.root("verify", |ctx| {
                    let got = self.scan(ctx, &output)?;
                    let want = self.input.reference.output;
                    (got == want)
                        .then_some(())
                        .ok_or_else(|| format!("{output}: {got:?}, expected {want:?}"))
                })
            }),
            Kind::WordcountRoomy | Kind::WordcountTight => guarded("verify", || {
                self.tracer
                    .root("verify", |ctx| self.verify_rows(ctx, &output))
            }),
        };
        self.out.verify_s = t0.elapsed().as_secs_f64();
        tally.op("verify", verdict)
    }

    fn verify_rows(&self, ctx: Ctx, output: &str) -> Result<(), String> {
        let want = self
            .input
            .reference
            .counts
            .as_ref()
            .expect("a wordcount has exact rows");
        let set = self
            .dep
            .cluster
            .get_dist_set(output)
            .map_err(err)?
            .ok_or_else(|| format!("set {output} is not cataloged"))?;
        let (mut rows, mut wrong) = (0usize, Vec::new());
        self.tracer
            .child(ctx, "cluster.for_each_record", |_| {
                set.for_each_record(|_, rec| {
                    rows += 1;
                    let split = rec.iter().rposition(|&b| b == DELIM);
                    let parsed = split.and_then(|i| {
                        let n: u64 = std::str::from_utf8(&rec[i + 1..]).ok()?.parse().ok()?;
                        Some((&rec[..i], n))
                    });
                    let ok = parsed.is_some_and(|(word, n)| want.get(word) == Some(&n));
                    if !ok && wrong.len() < 3 {
                        wrong.push(String::from_utf8_lossy(rec).into_owned());
                    }
                })
            })
            .map_err(err)?;
        // Every row matched a distinct expected row only if none was
        // wrong and the counts agree (output keys are unique per set).
        if wrong.is_empty() && rows == want.len() {
            Ok(())
        } else {
            Err(format!(
                "{output}: {rows} rows, expected {}; first wrong rows: {wrong:?}",
                want.len()
            ))
        }
    }

    fn run(&mut self, tally: &mut Tally) -> Option<()> {
        if self.kind() == Kind::Repair {
            // Loaded once: a replica group cannot be dropped.
            self.timed_load(tally, "events", true)?;
            self.input_set = "events".to_string();
            let intact = guarded("verify", || {
                self.tracer
                    .root("verify", |ctx| self.check_replicas(ctx, &self.input_set))
            });
            tally.op("pre_kill_check", intact)?;
        }
        if self.plan.warmup {
            self.warmup_phase(tally)?;
        }
        self.rounds(tally, |pass, tally, round| {
            pass.load_round(tally)?;
            match pass.kind() {
                Kind::Repair => pass.repair_round(tally)?,
                _ => pass.job_round(tally, round)?,
            }
            pass.scan_round(tally)
        })?;
        self.verify_phase(tally)?;
        let (workers, _) = self.dep.fleet.pids();
        self.out.worker_rss_peak_mb = workers.into_iter().map(procfs::vm_hwm_mb).collect();
        Some(())
    }
}

/// `wordcount-tight` measures nothing unless its pools were short of
/// room: every worker must have evicted and spilled.
fn pool_pressure(job: &[WorkerCounters]) -> Result<(), String> {
    match job
        .iter()
        .position(|w| w.stats.paging_evictions == 0 || w.stats.paging_spill_bytes == 0)
    {
        None => Ok(()),
        Some(slot) => Err(format!(
            "worker {slot} ran the job with {} evictions and {} spilled bytes",
            job[slot].stats.paging_evictions, job[slot].stats.paging_spill_bytes
        )),
    }
}

pub fn replica_of(set: &str) -> String {
    format!("{set}_by_event")
}

impl<'a> Pass<'a> {
    fn new(
        plan: &'a Plan<'a>,
        input: &'a Input,
        tracer: &'a Tracer,
        dep: &'a mut Deployment,
    ) -> Self {
        Self {
            plan,
            input,
            tracer,
            out: PassResult {
                input_records: input.corpus.len() as u64,
                input_bytes: input.corpus.total_bytes() as u64,
                mgr_addr: dep.fleet.mgr.addr.clone(),
                ..Default::default()
            },
            dep,
            input_set: String::new(),
            round_input: None,
        }
    }
}

/// Runs one pass over an already booted deployment.
pub fn run_pass(
    plan: &Plan,
    input: &Input,
    tracer: &Tracer,
    deployment: &mut Deployment,
    tally: &mut Tally,
) -> PassResult {
    let mut pass = Pass::new(plan, input, tracer, deployment);
    // A failed phase is in the tally; what was measured before it stays.
    let _ = pass.run(tally);
    pass.out
}

/// The warm-up job alone, for a caller that counts it as set-up.
pub fn warm_up(
    plan: &Plan,
    input: &Input,
    deployment: &mut Deployment,
    tally: &mut Tally,
) -> Option<()> {
    Pass::new(plan, input, &Tracer::new(false), deployment).warmup_phase(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.op("a", Ok(1)), Some(1));
        assert_eq!(t.op::<u8>("b", Err("boom".into())), None);
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.notes, vec!["b: boom".to_string()]);
    }

    #[test]
    fn the_watchdog_reports_a_timeout_and_passes_results_through() {
        assert_eq!(guarded_within(Duration::from_secs(5), "p", || Ok(3)), Ok(3));
        assert_eq!(
            guarded_within::<u8>(Duration::from_secs(5), "p", || Err("typed".into())),
            Err("p: typed".to_string())
        );
        let slow = guarded_within(Duration::from_millis(20), "slow", || {
            std::thread::sleep(Duration::from_millis(200));
            Ok(())
        });
        assert!(slow.unwrap_err().contains("timed out"));
    }

    #[test]
    fn references_follow_the_workload_kind() {
        let by_name = |n| crate::spec::workload(n).unwrap();
        let roomy = generate(by_name("wordcount-roomy"), 300, 5);
        let counts = roomy.reference.counts.as_ref().unwrap();
        assert_eq!(roomy.reference.output.count, counts.len() as u64);
        assert_eq!(roomy.reference.input.count, 300);
        let wide = generate(by_name("shuffle-wide"), 300, 5);
        assert_eq!(wide.reference.output.count, 2400);
        assert!(wide.reference.counts.is_none());
        let repair = generate(by_name("repair"), 300, 5);
        assert_eq!(repair.reference.output, repair.reference.input);
        // A prefix recounts its own reference.
        let head = prefix_input(Kind::WordcountRoomy, &roomy, 30);
        assert_eq!(head.corpus.len(), 30);
        assert_eq!(
            head.reference
                .counts
                .as_ref()
                .unwrap()
                .values()
                .sum::<u64>(),
            240
        );
    }
}
