//! The layer ladder: each probe times calls into one layer's public
//! functions, in this process (or against one loopback `pangead`),
//! single-threaded, on inputs shaped like the workload's. A probe runs
//! for a fixed slice of the run's time budget and reports a rate; one
//! that errors reports 0 and counts in `probe.failed`.

use crate::fleet::{Fleet, FleetConfig};
use crate::gen::Rng;
use crate::pass::Input;
use crate::spans::Tracer;
use crate::spec::{Kind, Workload, PARTITIONS};
use pangea::cluster::PartitionScheme;
use pangea::common::{KB, MB};
use pangea::core::{
    HashConfig, LocalitySet, NodeConfig, ObjectIter, SetOptions, SpillLedger, StorageNode,
    VirtualHashBuffer,
};
use pangea::net::frame::{read_frame_corr, write_frame_corr};
use pangea::net::{ingest_tag, KeySpec, MapSpec, PangeaClient, ReduceSpec, Request};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The daemons' ledger flush threshold (`LEDGER_SPILL_ENTRIES`).
const LEDGER_THRESHOLD: usize = 64 * 1024;
/// The daemons' accumulator root partitions (`ACC_ROOT_PARTITIONS`).
const ACC_ROOT_PARTITIONS: u32 = 2;
/// Payload bytes per pipelined append batch.
const APPEND_BATCH_BYTES: usize = 64 * 1024;
/// Pages in the pool of the hash probes' node: keyed state is sized as
/// a multiple of this pool, which keeps "16x the pool" reachable inside
/// a probe's slice whatever the workload's own pool size.
const HASH_PROBE_POOL_PAGES: usize = 16;
/// Bytes one accumulator entry is assumed to take when sizing keyed
/// state against the pool (12-byte key, 8-byte value, slot overhead).
const HASH_ENTRY_BYTES: usize = 32;
const MIN_PINGS: usize = 10_000;

pub struct Probes<'a> {
    pub workload: &'a Workload,
    pub input: &'a Input,
    pub strategy: &'a str,
    pub scratch: &'a Path,
    /// Time each probe measures for.
    pub slice: Duration,
    pub tracer: &'a Tracer,
}

/// Runs `batch` over and over for `slice`; `batch` returns how many
/// units it did. Returns units per second.
fn rate(slice: Duration, mut batch: impl FnMut() -> Result<u64, String>) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut units = 0u64;
    loop {
        units += batch()?;
        let spent = t0.elapsed();
        if spent >= slice {
            return Ok(units as f64 / spent.as_secs_f64());
        }
    }
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// A scratch directory removed on drop, error paths included.
struct TempDir(PathBuf);

impl TempDir {
    fn new(scratch: &Path, tag: &str) -> Result<Self, String> {
        let dir = scratch.join(format!("probe-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Probes<'_> {
    fn node(&self, dir: &TempDir, pool_bytes: usize) -> Result<StorageNode, String> {
        StorageNode::new(
            NodeConfig::new(&dir.0)
                .with_pool_capacity(pool_bytes)
                .with_page_size(self.workload.page_kb * KB)
                .with_strategy(self.strategy),
        )
        .map_err(err)
    }

    fn workload_node(&self, dir: &TempDir) -> Result<StorageNode, String> {
        self.node(dir, self.workload.pool_mb * MB)
    }

    fn pool_pages(&self) -> usize {
        self.workload.pool_mb * MB / (self.workload.page_kb * KB)
    }

    /// The records one worker ships in this workload, up to `limit`:
    /// raw tokens (map-only shuffle), `word|count` partials (wordcount)
    /// or whole records (repair).
    fn shipped_records(&self, limit: usize) -> Vec<Vec<u8>> {
        let corpus = &self.input.corpus;
        match self.workload.kind {
            Kind::Repair => corpus.records().take(limit).map(<[u8]>::to_vec).collect(),
            Kind::ShuffleWide => corpus
                .records()
                .flat_map(|r| r.split(|&b| b == b' '))
                .take(limit)
                .map(<[u8]>::to_vec)
                .collect(),
            Kind::WordcountRoomy | Kind::WordcountTight => {
                let reduce = ReduceSpec::count(KeySpec::WholeRecord, b'|');
                let counts = self
                    .input
                    .reference
                    .counts
                    .as_ref()
                    .expect("wordcount rows");
                let mut rows: Vec<Vec<u8>> = counts
                    .iter()
                    .take(limit)
                    .map(|(word, n)| reduce.encode_record(word, *n as i64))
                    .collect();
                rows.sort_unstable();
                rows
            }
        }
    }

    /// One `IngestAppend` batch shaped like the workload's: shipped
    /// records, tagged, up to 256 records or 64 KiB.
    fn append_batch(&self, source: u32) -> Vec<(u64, Vec<u8>)> {
        let mut bytes = 0;
        self.shipped_records(256)
            .into_iter()
            .enumerate()
            .take_while(|(_, r)| {
                bytes += r.len();
                bytes <= APPEND_BATCH_BYTES
            })
            .map(|(i, r)| (ingest_tag(source, i as u64, &r), r))
            .collect()
    }

    fn frame_roundtrip(&self) -> Result<f64, String> {
        let payload = Request::IngestAppend {
            set: "probe".into(),
            entries: self.append_batch(0),
        }
        .encode();
        let mut wire = Vec::with_capacity(payload.len() + 16);
        let mut corr = 0u64;
        let per_s = rate(self.slice, || {
            for _ in 0..64 {
                corr += 1;
                wire.clear();
                write_frame_corr(&mut wire, corr, &payload).map_err(err)?;
                let (got, body) = read_frame_corr(&mut wire.as_slice())
                    .map_err(err)?
                    .ok_or("frame vanished")?;
                if got != corr || body.len() != payload.len() {
                    return Err("frame did not round-trip".into());
                }
                black_box(body);
            }
            Ok(64 * payload.len() as u64)
        })?;
        Ok(per_s / MB as f64)
    }

    fn proto_encode(&self) -> Result<f64, String> {
        let req = Request::IngestAppend {
            set: "probe".into(),
            entries: self.append_batch(0),
        };
        let bytes = req.encode().len() as u64;
        let per_s = rate(self.slice, || {
            for _ in 0..64 {
                black_box(black_box(&req).encode());
            }
            Ok(64 * bytes)
        })?;
        Ok(per_s / MB as f64)
    }

    fn proto_decode(&self) -> Result<f64, String> {
        let wire = Request::IngestAppend {
            set: "probe".into(),
            entries: self.append_batch(0),
        }
        .encode();
        let per_s = rate(self.slice, || {
            for _ in 0..64 {
                black_box(Request::decode(black_box(&wire)).map_err(err)?);
            }
            Ok(64 * wire.len() as u64)
        })?;
        Ok(per_s / MB as f64)
    }

    /// The map the workload's tasks run (repair ships records as they
    /// are).
    fn map_spec(&self) -> MapSpec {
        match self.workload.kind {
            Kind::Repair => MapSpec::identity(),
            _ => MapSpec::tokenize(b' '),
        }
    }

    fn map_emit(&self) -> Result<f64, String> {
        let map = self.map_spec();
        let corpus = &self.input.corpus;
        let mut next = 0;
        let per_s = rate(self.slice, || {
            let mut emitted = 0u64;
            for _ in 0..1024 {
                map.for_each_emit(corpus.record(next), &mut |out| {
                    black_box(out);
                    emitted += 1;
                    Ok(())
                })
                .map_err(err)?;
                next = (next + 1) % corpus.len();
            }
            Ok(emitted)
        })?;
        Ok(per_s / 1e6)
    }

    fn reduce_fold(&self) -> Result<f64, String> {
        let reduce = ReduceSpec::count(KeySpec::WholeRecord, b'|');
        let mapped = self.shipped_records(4096);
        let per_s = rate(self.slice, || {
            for rec in &mapped {
                let (key, value) = reduce
                    .accumulate(rec)
                    .ok_or("record dropped from the fold")?;
                let row = reduce.encode_record(&key, value);
                black_box(reduce.decode_record(&row).map_err(err)?);
            }
            Ok(mapped.len() as u64)
        })?;
        Ok(per_s / 1e6)
    }

    fn route(&self) -> Result<f64, String> {
        let scheme = match self.workload.kind {
            Kind::ShuffleWide => PartitionScheme::hash_whole("word", PARTITIONS),
            Kind::Repair => PartitionScheme::hash_field("event", PARTITIONS, b'|', 1),
            _ => PartitionScheme::hash_field("word", PARTITIONS, b'|', 0),
        };
        let shipped = self.shipped_records(4096);
        let per_s = rate(self.slice, || {
            for (i, rec) in shipped.iter().enumerate() {
                black_box(scheme.node_of(rec, i as u64, crate::spec::WORKERS));
            }
            Ok(shipped.len() as u64)
        })?;
        Ok(per_s / 1e6)
    }

    /// Ping latencies in microseconds against a loopback `pangead`.
    fn ping(&self, addr: &str) -> Result<Vec<f64>, String> {
        let mut client = PangeaClient::connect(addr).map_err(err)?;
        let mut samples = Vec::with_capacity(MIN_PINGS);
        let t0 = Instant::now();
        while samples.len() < MIN_PINGS || t0.elapsed() < self.slice {
            let t1 = Instant::now();
            client.ping().map_err(err)?;
            samples.push(t1.elapsed().as_secs_f64() * 1e6);
        }
        Ok(samples)
    }

    /// Pipelined `IngestAppend` with `window` batches in flight: payload
    /// MB/s into one ingest session on a loopback `pangead`.
    fn append(&self, addr: &str, window: usize) -> Result<f64, String> {
        let mut client = PangeaClient::connect(addr).map_err(err)?;
        let set = format!("probe_append_w{window}");
        // As the coordinator creates a job's output set on a worker.
        client
            .create_set(&set, "write-through", None)
            .map_err(err)?;
        client.ingest_begin(&set, None).map_err(err)?;
        // 64 KiB of shipped records per batch, re-tagged per batch so
        // that dedup appends every one of them.
        let mut template: Vec<Vec<u8>> = Vec::new();
        let mut bytes = 0;
        for rec in self.shipped_records(4096).into_iter().cycle() {
            if bytes + rec.len() > APPEND_BATCH_BYTES {
                break;
            }
            bytes += rec.len();
            template.push(rec);
        }
        let mut inflight: VecDeque<(u64, usize)> = VecDeque::new();
        let mut ordinal = 0u64;
        let per_s = rate(self.slice, || {
            let entries = template
                .iter()
                .map(|r| {
                    ordinal += 1;
                    (ingest_tag(0, ordinal, r), r.clone())
                })
                .collect();
            inflight.push_back(client.ingest_append_submit(&set, entries).map_err(err)?);
            let mut acked = 0u64;
            while inflight.len() >= window {
                let (corr, sent) = inflight.pop_front().expect("window is at least one");
                client.ingest_append_await(corr, sent).map_err(err)?;
                acked += sent as u64;
            }
            Ok(acked)
        })?;
        for (corr, sent) in inflight {
            client.ingest_append_await(corr, sent).map_err(err)?;
        }
        client.ingest_end(&set).map_err(err)?;
        Ok(per_s / MB as f64)
    }

    /// A sealed write-through set of `pages` pages on `node`.
    fn sealed_set(
        &self,
        node: &StorageNode,
        name: &str,
        pages: usize,
    ) -> Result<LocalitySet, String> {
        let set = node
            .create_set(name, SetOptions::write_through())
            .map_err(err)?;
        for _ in 0..pages {
            let pin = set.new_page().map_err(err)?;
            set.seal_page(&pin).map_err(err)?;
        }
        Ok(set)
    }

    fn pin_hit(&self) -> Result<f64, String> {
        let dir = TempDir::new(self.scratch, "pin-hit")?;
        let node = self.workload_node(&dir)?;
        let pages = (self.pool_pages() / 2).max(1);
        let set = self.sealed_set(&node, "resident", pages)?;
        let nums = set.page_numbers();
        let per_s = rate(self.slice, || {
            for &num in &nums {
                black_box(set.pin_page(num).map_err(err)?);
            }
            Ok(nums.len() as u64)
        })?;
        Ok(per_s / 1e6)
    }

    /// `pin_page` cycling through a clean set twice the pool: every pin
    /// misses, reads the page back and evicts a clean one.
    fn miss_reload(&self) -> Result<f64, String> {
        let dir = TempDir::new(self.scratch, "miss")?;
        let node = self.workload_node(&dir)?;
        let set = self.sealed_set(&node, "cold", self.pool_pages() * 2)?;
        let nums = set.page_numbers();
        let mut next = 0;
        let per_s = rate(self.slice, || {
            black_box(set.pin_page(nums[next]).map_err(err)?);
            next = (next + 1) % nums.len();
            Ok(1)
        })?;
        Ok(per_s / 1e3)
    }

    /// `new_page` on a full pool. Clean: a write-through set, each page
    /// sealed (persisted, marked clean) before it is unpinned, so the
    /// next allocation evicts a clean page. Dirty: a write-back set,
    /// pages unpinned dirty, so the next allocation writes one back.
    fn evict(&self, dirty: bool) -> Result<f64, String> {
        let dir = TempDir::new(
            self.scratch,
            if dirty { "evict-dirty" } else { "evict-clean" },
        )?;
        let node = self.workload_node(&dir)?;
        let options = if dirty {
            SetOptions::write_back()
        } else {
            SetOptions::write_through()
        };
        let set = node.create_set("churn", options).map_err(err)?;
        let churn = |set: &LocalitySet| -> Result<u64, String> {
            let pin = set.new_page().map_err(err)?;
            if !dirty {
                set.seal_page(&pin).map_err(err)?;
            }
            Ok(1)
        };
        for _ in 0..self.pool_pages() {
            churn(&set)?;
        }
        let per_s = rate(self.slice, || churn(&set))?;
        Ok(per_s / 1e3)
    }

    fn seq_write(&self, set: &LocalitySet) -> Result<f64, String> {
        let corpus = &self.input.corpus;
        let mut writer = set.writer();
        let mut next = 0;
        let per_s = rate(self.slice, || {
            for _ in 0..1024 {
                writer.add_object(corpus.record(next)).map_err(err)?;
                next = (next + 1) % corpus.len();
            }
            Ok(1024)
        })?;
        writer.finish().map_err(err)?;
        Ok(per_s / 1e6)
    }

    fn seq_scan(&self, set: &LocalitySet) -> Result<f64, String> {
        let nums = set.page_numbers();
        let mut next = 0;
        let per_s = rate(self.slice, || {
            let pin = set.pin_page(nums[next]).map_err(err)?;
            next = (next + 1) % nums.len();
            let mut records = 0u64;
            ObjectIter::new(&pin).for_each(|r| {
                black_box(r);
                records += 1;
            });
            Ok(records)
        })?;
        Ok(per_s / 1e6)
    }

    /// Insert-or-merge of 12-byte keys drawn in scattered order from a
    /// keyspace whose state is `multiple` times the probe node's pool.
    fn hash_insert_merge(&self, multiple: usize) -> Result<f64, String> {
        let dir = TempDir::new(self.scratch, &format!("hash-x{multiple}"))?;
        let pool_bytes = HASH_PROBE_POOL_PAGES * self.workload.page_kb * KB;
        let node = self.node(&dir, pool_bytes)?;
        let keyspace = (multiple * pool_bytes / HASH_ENTRY_BYTES) as u64;
        let merge: fn(&mut i64, i64) = |acc, v| *acc = acc.wrapping_add(v);
        let mut acc =
            VirtualHashBuffer::create(&node, "acc", HashConfig::new(ACC_ROOT_PARTITIONS), merge)
                .map_err(err)?;
        let mut rng = Rng::new(multiple as u64);
        let mut key = *b"u00000000000";
        let per_s = rate(self.slice, || {
            for _ in 0..256 {
                let mut n = rng.below(keyspace);
                for digit in key[1..].iter_mut().rev() {
                    *digit = b'0' + (n % 10) as u8;
                    n /= 10;
                }
                acc.insert_merge(&key, 1).map_err(err)?;
            }
            Ok(256)
        })?;
        Ok(per_s / 1e6)
    }

    /// A ledger holding `entries` distinct hashes. Filling goes through
    /// the unchecked `insert` (the hashes are distinct by construction),
    /// which flushes sorted runs exactly as the checked path does but
    /// does not probe them, so a million entries cost milliseconds.
    fn filled_ledger(
        &self,
        node: &StorageNode,
        name: &str,
        entries: u64,
    ) -> Result<SpillLedger, String> {
        let mut ledger = SpillLedger::new(node, name, LEDGER_THRESHOLD);
        for i in 0..entries {
            ledger.insert(scatter(i)).map_err(err)?;
        }
        Ok(ledger)
    }

    /// `insert_if_absent` of fresh hashes into a ledger of `entries`
    /// entries. The ledger is rebuilt (untimed) once it has grown by an
    /// eighth, so the rate is the marginal one at that size.
    fn ledger_insert(&self, entries: u64) -> Result<f64, String> {
        let dir = TempDir::new(self.scratch, &format!("ledger-{entries}"))?;
        let node = self.workload_node(&dir)?;
        let growth = (entries / 8).max(1);
        let (mut done, mut busy) = (0u64, Duration::ZERO);
        let mut round = 0u64;
        while busy < self.slice {
            let mut ledger = self.filled_ledger(&node, &format!("ledger{round}"), entries)?;
            round += 1;
            let t0 = Instant::now();
            let mut fresh = entries;
            while fresh < entries + growth && busy + t0.elapsed() < self.slice {
                for _ in 0..64 {
                    if !ledger.insert_if_absent(scatter(fresh)).map_err(err)? {
                        return Err("a fresh hash was reported present".into());
                    }
                    fresh += 1;
                }
            }
            done += fresh - entries;
            busy += t0.elapsed();
        }
        Ok(done as f64 / busy.as_secs_f64() / 1e6)
    }

    fn ledger_contains(&self, entries: u64) -> Result<f64, String> {
        let dir = TempDir::new(self.scratch, "ledger-contains")?;
        let node = self.workload_node(&dir)?;
        let ledger = self.filled_ledger(&node, "ledger", entries)?;
        let mut rng = Rng::new(entries);
        let per_s = rate(self.slice, || {
            for _ in 0..64 {
                // Half the probes hit, half miss.
                let i = rng.below(entries * 2);
                if ledger.contains(scatter(i)).map_err(err)? != (i < entries) {
                    return Err("ledger membership is wrong".into());
                }
            }
            Ok(64)
        })?;
        Ok(per_s / 1e6)
    }

    /// Runs every probe; returns the metrics and how many probes failed.
    pub fn run(&self) -> (BTreeMap<String, f64>, u64) {
        let mut out = BTreeMap::new();
        let mut failed = 0u64;
        let mut put = |name: &str, result: Result<f64, String>| {
            let value = result.unwrap_or_else(|e| {
                eprintln!("probe {name} failed: {e}");
                failed += 1;
                0.0
            });
            out.insert(name.to_string(), value);
        };
        let t = self.tracer;
        let span = |name: &str, f: &dyn Fn() -> Result<f64, String>| t.root(name, |_| f());
        put(
            "net.frame.roundtrip_mb_s",
            span("net.frame", &|| self.frame_roundtrip()),
        );
        put(
            "net.proto.encode_mb_s",
            span("net.proto.encode", &|| self.proto_encode()),
        );
        put(
            "net.proto.decode_mb_s",
            span("net.proto.decode", &|| self.proto_decode()),
        );
        put(
            "net.wire.map_emit_mrec_s",
            span("net.wire.map_emit", &|| self.map_emit()),
        );
        put(
            "net.wire.reduce_fold_mrec_s",
            span("net.wire.reduce_fold", &|| self.reduce_fold()),
        );
        put(
            "net.wire.route_mrec_s",
            span("net.wire.route", &|| self.route()),
        );

        // One loopback pangead, flags as the workload's, for the RPC rung.
        let loopback = Fleet::boot(
            FleetConfig {
                workers: 1,
                pool_mb: self.workload.pool_mb,
                page_kb: self.workload.page_kb,
                strategy: self.strategy.to_string(),
                scrape_ms: None,
            },
            self.scratch,
        );
        match &loopback {
            Ok(fleet) => {
                let addr = fleet.workers[0].addr.as_str();
                let pings = t.root("net.rpc.ping", |_| self.ping(addr));
                let quantile = |p| {
                    pings
                        .as_ref()
                        .map(|s| crate::stats::percentile(s, p))
                        .map_err(String::clone)
                };
                put("net.rpc.ping_p50_us", quantile(50.0));
                put("net.rpc.ping_p99_us", quantile(99.0));
                for window in [1usize, 8, 64] {
                    put(
                        &format!("net.rpc.append_mb_s.w{window}"),
                        span("net.rpc.append", &|| self.append(addr, window)),
                    );
                }
            }
            Err(e) => {
                for name in [
                    "ping_p50_us",
                    "ping_p99_us",
                    "append_mb_s.w1",
                    "append_mb_s.w8",
                    "append_mb_s.w64",
                ] {
                    put(&format!("net.rpc.{name}"), Err(e.clone()));
                }
            }
        }
        drop(loopback);

        put(
            "storage.pool.pin_hit_mops_s",
            span("storage.pool.pin_hit", &|| self.pin_hit()),
        );
        put(
            "storage.pool.evict_clean_kops_s",
            span("storage.pool.evict_clean", &|| self.evict(false)),
        );
        put(
            "storage.pool.evict_dirty_kops_s",
            span("storage.pool.evict_dirty", &|| self.evict(true)),
        );
        put(
            "storage.pool.miss_reload_kops_s",
            span("storage.pool.miss_reload", &|| self.miss_reload()),
        );

        // Write, then scan what was written.
        let seq = TempDir::new(self.scratch, "seq").and_then(|dir| {
            let node = self.workload_node(&dir)?;
            let set = node
                .create_set("seq", SetOptions::write_through())
                .map_err(err)?;
            Ok((dir, set))
        });
        match &seq {
            Ok((_dir, set)) => {
                put(
                    "core.seq.write_mrec_s",
                    span("core.seq.write", &|| self.seq_write(set)),
                );
                put(
                    "core.seq.scan_mrec_s",
                    span("core.seq.scan", &|| self.seq_scan(set)),
                );
            }
            Err(e) => {
                put("core.seq.write_mrec_s", Err(e.clone()));
                put("core.seq.scan_mrec_s", Err(e.clone()));
            }
        }
        drop(seq);

        for multiple in [1usize, 4, 16] {
            put(
                &format!("core.hash.insert_merge_mops_s.x{multiple}"),
                span("core.hash.insert_merge", &|| {
                    self.hash_insert_merge(multiple)
                }),
            );
        }
        for (tag, entries) in [
            ("n32k", 32u64 << 10),
            ("n256k", 256 << 10),
            ("n1m", 1 << 20),
        ] {
            put(
                &format!("core.ledger.insert_if_absent_mops_s.{tag}"),
                span("core.ledger.insert_if_absent", &|| {
                    self.ledger_insert(entries)
                }),
            );
        }
        put(
            "core.ledger.contains_mops_s.n1m",
            span("core.ledger.contains", &|| self.ledger_contains(1 << 20)),
        );
        (out, failed)
    }
}

/// A bijection on `u64` that scatters consecutive integers over the
/// whole range, as content hashes are.
fn scatter(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29) ^ 0x5851_F42D_4C95_7F2D
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_counts_units_over_the_slice() {
        let mut calls = 0;
        let per_s = rate(Duration::from_millis(30), || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(5));
            Ok(10)
        })
        .unwrap();
        assert!(calls >= 2);
        assert!(per_s > 200.0 && per_s < 2100.0, "rate was {per_s}");
        assert!(rate(Duration::from_millis(1), || Err("no".into())).is_err());
    }

    #[test]
    fn scatter_does_not_collide_on_a_small_range() {
        let seen: std::collections::HashSet<u64> = (0..100_000).map(scatter).collect();
        assert_eq!(seen.len(), 100_000);
    }
}
