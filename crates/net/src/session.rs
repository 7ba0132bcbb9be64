//! Begin/append/end sessions on a node daemon: the one machine behind
//! shuffle ingest (`Ingest*`) and peer repair (`Recover*`). The two
//! kinds differ only in what their request handlers supply: each
//! record's dedup key (a provenance tag, or the record's content key),
//! what a begin prepares (truncate the set, or seed the ledger from
//! what the target and its peers hold), and the [`Sink`]. The daemon
//! keeps one [`SessionTable`] per kind, so an ingest session and a
//! repair session on one set never replace each other.
//!
//! # Reducing sessions merge sorted runs
//!
//! A reducing ingest session keeps no hash table: it stores each
//! source's accepted partials as a run in arrival order, and its end
//! merges the runs, trusting each to rise in key. That holds under
//! retries, for three reasons:
//!
//! - A mapper ships its combined partials sorted by key, and a
//!   partial's tag ordinal is its position in that order
//!   ([`ingest_tag`](crate::wire::ingest_tag)). So one source's
//!   subsequence for this destination rises in ordinal and in key
//!   together, and a retried task re-sends the same subsequence.
//! - Every stream into a session, whether a retried task or a dead
//!   attempt's queued frames, is a prefix of that subsequence. One
//!   connection is applied in order by its one thread, and the
//!   self-destined share is appended in order in-process.
//! - So whichever stream first delivers ordinal `n` has already
//!   delivered every smaller ordinal. The ledger's "first arrival wins"
//!   therefore admits each source's partials in increasing order.
//!
//! A run that goes backwards anyway was not produced by this protocol,
//! and the merge refuses it as [`PangeaError::Corruption`] rather than
//! sort it.

use crate::algebra::ReduceSpec;
use crate::wire::tag_source;
use pangea_common::{FxHashMap, FxHashSet, IoStats, PageNum, PangeaError, Result};
use pangea_core::{
    LocalitySet, ReadPattern, RecordSlices, SeqWriter, SetOptions, SpillLedger, StorageNode,
};
use pangea_obs::{names, Registry};
use parking_lot::Mutex;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Range;
use std::sync::Arc;

/// Where a session's accepted records go.
#[derive(Debug)]
pub(crate) enum Sink {
    /// Into the target set through one sequential writer, opened by the
    /// first stored record, so small batches share pages instead of
    /// sealing one each. The end finishes it; a session that dies any
    /// other way (poisoned, replaced by a new begin, `DropSet`) seals
    /// the open page through the writer's own `Drop`.
    Write(Option<SeqWriter>),
    /// A reducing ingest session: each source's `key|value` partials go,
    /// in arrival order, into that source's [`Run`], opened by its first
    /// accepted partial and named `<set>::run-<source>.<seq>` after the
    /// session's `seq`. Nothing touches the target set until the end
    /// merges the runs; until then the totals count partials accepted.
    Runs {
        spec: ReduceSpec,
        seq: u64,
        runs: BTreeMap<u16, Run>,
    },
}

impl Sink {
    /// A reducing session's sink, its run sets named after `seq`.
    pub(crate) fn runs(spec: ReduceSpec, seq: u64) -> Self {
        Self::Runs {
            spec,
            seq,
            runs: BTreeMap::new(),
        }
    }

    /// Stores a batch's accepted `(key, record)` run, in order: a writer
    /// takes each page's write guard once per page fill, and a reducing
    /// sink does the same per stretch of one source's partials.
    fn put_all(&mut self, target: &LocalitySet, accepted: &[(u64, &[u8])]) -> Result<()> {
        match self {
            Self::Write(writer) => writer
                .get_or_insert_with(|| target.writer())
                .add_objects(accepted.iter().map(|&(_, rec)| rec)),
            Self::Runs { seq, runs, .. } => {
                for stretch in accepted.chunk_by(|a, b| tag_source(a.0) == tag_source(b.0)) {
                    let source = tag_source(stretch[0].0);
                    let run = match runs.entry(source) {
                        Entry::Occupied(run) => run.into_mut(),
                        Entry::Vacant(slot) => {
                            let kind = format!("run-{source}");
                            let name = backing_set_name(target.name(), &kind, *seq);
                            slot.insert(Run::create(target.node(), &name)?)
                        }
                    };
                    run.0.add_objects(stretch.iter().map(|&(_, rec)| rec))?;
                }
                Ok(())
            }
        }
    }
}

/// One source's run of accepted partials in a reducing session: a
/// transient (`write-back`) set, written once through its writer and
/// read once by the end's merge. Its lifetime ends with the run, however
/// the session goes — sealed, poisoned, replaced by a new begin, or
/// dropped with its set — the way a [`SpillLedger`] releases its own.
#[derive(Debug)]
pub(crate) struct Run(SeqWriter);

impl Run {
    fn create(node: &StorageNode, name: &str) -> Result<Self> {
        let set = node.create_set(name, SetOptions::write_back())?;
        Ok(Self(set.writer()))
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        // Best-effort, like the ledger's: release the writer's page
        // first, since a set with a pinned page cannot be dropped.
        let _ = self.0.seal_current();
        let set = self.0.set();
        let _ = set.end_lifetime();
        let _ = set.node().drop_set(set.id());
    }
}

/// A read cursor over one finished run. It works from a copy of the
/// current page, so it holds no pin or page guard between steps: a
/// guard held while another cursor's pin evicts would order page locks
/// both ways round.
struct RunCursor {
    set: LocalitySet,
    pages: std::vec::IntoIter<PageNum>,
    /// The current page's bytes, and the spans of its records not yet
    /// visited.
    page: Vec<u8>,
    spans: std::vec::IntoIter<Range<usize>>,
    /// A copy of the record the cursor stands on, that record's key
    /// length and value, and whether there is one.
    rec: Vec<u8>,
    key_len: usize,
    value: i64,
    live: bool,
}

impl RunCursor {
    /// A cursor standing on `run`'s first record, if it has one.
    fn open(run: &mut Run, spec: &ReduceSpec) -> Result<Self> {
        run.0.finish()?;
        let set = run.0.set().clone();
        set.declare_read(ReadPattern::Sequential)?;
        let mut cursor = Self {
            pages: set.page_numbers().into_iter(),
            set,
            page: Vec::new(),
            spans: Vec::new().into_iter(),
            rec: Vec::new(),
            key_len: 0,
            value: 0,
            live: false,
        };
        cursor.advance(spec)?;
        Ok(cursor)
    }

    /// The key of the record the cursor stands on; `None` once the run
    /// is exhausted.
    fn key(&self) -> Option<&[u8]> {
        self.live.then(|| &self.rec[..self.key_len])
    }

    /// Steps to the run's next record, copying in the next page when
    /// the current one is done. A key below the previous one is
    /// corruption: runs are never sorted here.
    fn advance(&mut self, spec: &ReduceSpec) -> Result<()> {
        loop {
            if let Some(span) = self.spans.next() {
                let rec = &self.page[span];
                let (key, value) = spec.decode_record(rec)?;
                if self.live && key < &self.rec[..self.key_len] {
                    return Err(PangeaError::Corruption(format!(
                        "run '{}' goes backwards: '{}' after '{}'",
                        self.set.name(),
                        String::from_utf8_lossy(key),
                        String::from_utf8_lossy(&self.rec[..self.key_len])
                    )));
                }
                self.key_len = key.len();
                self.value = value;
                self.rec.clear();
                self.rec.extend_from_slice(rec);
                self.live = true;
                return Ok(());
            }
            let Some(num) = self.pages.next() else {
                self.live = false;
                return Ok(());
            };
            self.page.clear();
            self.page.extend_from_slice(&self.set.pin_page(num)?.read());
            let base = self.page.as_ptr() as usize;
            self.spans = RecordSlices::new(&self.page)
                .map(|rec| {
                    let start = rec.as_ptr() as usize - base;
                    start..start + rec.len()
                })
                .collect::<Vec<_>>()
                .into_iter();
        }
    }
}

/// K-way merges a reducing session's runs into `out` in sorted key
/// order, folding each key's partials with the spec's merge, and
/// returns the records and bytes written.
fn merge_runs(
    spec: &ReduceSpec,
    runs: &mut BTreeMap<u16, Run>,
    out: &LocalitySet,
) -> Result<(u64, u64)> {
    let merge = spec.merge_fn();
    let mut cursors = runs
        .values_mut()
        .map(|run| RunCursor::open(run, spec))
        .collect::<Result<Vec<_>>>()?;
    let mut writer = out.writer();
    let (mut appended, mut bytes) = (0u64, 0u64);
    let mut key = Vec::new();
    while let Some((least, first)) = cursors
        .iter()
        .enumerate()
        .filter_map(|(i, cursor)| Some((cursor.key()?, i)))
        .min()
    {
        key.clear();
        key.extend_from_slice(least);
        let mut acc = cursors[first].value;
        cursors[first].advance(spec)?;
        for cursor in &mut cursors {
            while cursor.key() == Some(&key[..]) {
                merge(&mut acc, cursor.value);
                cursor.advance(spec)?;
            }
        }
        let rec = spec.encode_record(&key, acc);
        writer.add_object(&rec)?;
        appended += 1;
        bytes += rec.len() as u64;
    }
    writer.finish()?;
    Ok((appended, bytes))
}

/// One open session.
#[derive(Debug)]
pub(crate) struct Session {
    /// The key of every record this session stored and, for a repair
    /// session, of every record present when it opened — each record is
    /// accepted once, however often a push is retried. A
    /// [`SpillLedger`], so a huge session's ledger pages through the
    /// pool; a repair session's frozen snapshot is what the paginated
    /// `RepairLedger` RPC serves.
    pub(crate) ledger: SpillLedger,
    sink: Sink,
    /// The keys of the batch being appended: scratch that drops a
    /// record repeated within one batch, which the ledger cannot see
    /// until the batch is stored.
    batch_keys: FxHashSet<u64>,
    appended: u64,
    bytes: u64,
    /// Set, under the session lock, when a batch failed part-way or a
    /// new begin replaced this session. Later appends no longer find
    /// the session; one already queued on its lock must fail the same
    /// way instead of writing behind a retry's back or into a sink the
    /// failure left half-written.
    pub(crate) poisoned: bool,
}

impl Session {
    pub(crate) fn new(ledger: SpillLedger, sink: Sink) -> Self {
        Self {
            ledger,
            sink,
            batch_keys: FxHashSet::default(),
            appended: 0,
            bytes: 0,
            poisoned: false,
        }
    }
}

/// What tells the two session tables apart: the words their errors
/// use, the metrics they publish, and what their stored bytes count as.
#[derive(Debug)]
pub(crate) struct SessionKind {
    /// `ingest` or `repair`, as errors name a session.
    noun: &'static str,
    /// The request that opens a session of this kind.
    begin: &'static str,
    begun: &'static str,
    ended: &'static str,
    live: &'static str,
    dedup_hits: &'static str,
    /// Charges the payload a [`Sink::Write`] stored; what a
    /// [`Sink::Runs`] accepts is always reduce-mode shuffle traffic.
    record_written: fn(&IoStats, usize),
}

/// Shuffle-ingest sessions: keyed by the mapper's provenance tags, so a
/// shuffle output keeps its honest duplicates and only re-pushed
/// records (task retries, lost-ack replays) dedup away.
pub(crate) const INGEST: SessionKind = SessionKind {
    noun: "ingest",
    begin: "IngestBegin",
    begun: names::SESSIONS_INGEST_BEGUN,
    ended: names::SESSIONS_INGEST_ENDED,
    live: names::SESSIONS_INGEST_LIVE,
    dedup_hits: names::INGEST_DEDUP_HITS,
    record_written: IoStats::record_shuffle,
};

/// Peer-repair sessions: keyed by record content, so each lost record
/// is restored once however many survivors push it.
pub(crate) const REPAIR: SessionKind = SessionKind {
    noun: "repair",
    begin: "RecoverBegin",
    begun: names::SESSIONS_REPAIR_BEGUN,
    ended: names::SESSIONS_REPAIR_ENDED,
    live: names::SESSIONS_REPAIR_LIVE,
    dedup_hits: names::REPAIR_DEDUP_HITS,
    record_written: IoStats::record_repair,
};

/// A shared handle on one open session.
type SessionHandle = Arc<Mutex<Session>>;

/// The sessions of one kind, by target set.
#[derive(Debug)]
pub(crate) struct SessionTable {
    kind: SessionKind,
    /// Open sessions. Each carries its own lock, so appends into one set
    /// never block sessions of unrelated sets behind disk I/O; this
    /// map's lock is only held for a lookup, and nothing waits for a
    /// session lock while holding it.
    open: Mutex<FxHashMap<String, SessionHandle>>,
    /// Totals of sessions already sealed — the tombstone that makes an
    /// end idempotent: a retry whose first ack was lost re-reads the
    /// same totals instead of failing on a session that no longer
    /// exists. Cleared by the next begin for the set, and by `DropSet`.
    sealed: Mutex<FxHashMap<String, (u64, u64)>>,
}

impl SessionTable {
    pub(crate) fn new(kind: SessionKind) -> Self {
        Self {
            kind,
            open: Mutex::new(FxHashMap::default()),
            sealed: Mutex::new(FxHashMap::default()),
        }
    }

    fn gone(&self, set: &str) -> PangeaError {
        PangeaError::usage(format!(
            "no {} session for '{set}'; {} first",
            self.kind.noun, self.kind.begin
        ))
    }

    /// The open session for `set`.
    pub(crate) fn get(&self, set: &str) -> Result<SessionHandle> {
        self.open
            .lock()
            .get(set)
            .cloned()
            .ok_or_else(|| self.gone(set))
    }

    /// Opens the session `prepare` builds for `set`, replacing any open
    /// one: a begin is the idempotent open of a fresh attempt. A session
    /// a failed attempt left open still holds its writer's page, so it
    /// is poisoned and its sink released first (waiting out an append in
    /// flight on it): its writer closes and its run sets go, so what
    /// `prepare` then reads or truncates includes every record that
    /// attempt stored.
    pub(crate) fn open(
        &self,
        set: &str,
        reg: &Registry,
        prepare: impl FnOnce() -> Result<Session>,
    ) -> Result<()> {
        let stale = self.open.lock().remove(set);
        if let Some(stale) = stale {
            let mut stale = stale.lock();
            stale.poisoned = true;
            stale.sink = Sink::Write(None);
        }
        let session = prepare()?;
        self.sealed.lock().remove(set);
        let mut open = self.open.lock();
        open.insert(set.to_string(), Arc::new(Mutex::new(session)));
        reg.counter(self.kind.begun).inc();
        reg.gauge(self.kind.live).set(open.len() as u64);
        Ok(())
    }

    /// Dedup-appends one batch of `(key, record)` pairs into the open
    /// session for `target` and returns what it accepted, in three
    /// phases: drop every record whose key the ledger holds or the batch
    /// already carried, store the accepted records through one
    /// [`Sink::put_all`], then enter their keys into the ledger — only
    /// after their records are stored, so a failed store leaves them
    /// unseen and the idempotent retry cannot dedup a lost record away.
    ///
    /// The session lock serializes concurrent pushes into one set: the
    /// key check and the store are atomic per batch, and the sink sees
    /// one writer's order. A failure part-way leaves what was stored
    /// unknowable, so the session is poisoned, its sink released and the
    /// session closed: appends queued behind this one are refused, and
    /// the retry's begin re-seeds or truncates from what the set really
    /// holds.
    pub(crate) fn append<'r>(
        &self,
        target: &LocalitySet,
        pairs: impl IntoIterator<Item = (u64, &'r [u8])>,
        stats: &IoStats,
        reg: &Registry,
    ) -> Result<(u64, u64)> {
        let set = target.name();
        let handle = self.get(set)?;
        let mut session = handle.lock();
        if session.poisoned {
            return Err(self.gone(set));
        }
        let outcome = (|| -> Result<(u64, u64)> {
            let Session {
                ledger,
                sink,
                batch_keys,
                ..
            } = &mut *session;
            let pairs = pairs.into_iter();
            let mut accepted = Vec::with_capacity(pairs.size_hint().0);
            let mut hits = 0u64;
            batch_keys.clear();
            for (key, rec) in pairs {
                if ledger.contains(key)? || !batch_keys.insert(key) {
                    hits += 1;
                } else {
                    accepted.push((key, rec));
                }
            }
            reg.counter(self.kind.dedup_hits).add(hits);
            sink.put_all(target, &accepted)?;
            let mut bytes = 0u64;
            for &(key, rec) in &accepted {
                ledger.insert(key)?;
                bytes += rec.len() as u64;
            }
            Ok((accepted.len() as u64, bytes))
        })();
        match outcome {
            Ok((appended, bytes)) => {
                session.appended += appended;
                session.bytes += bytes;
                match session.sink {
                    Sink::Write(_) => (self.kind.record_written)(stats, bytes as usize),
                    Sink::Runs { .. } => stats.record_shuffle_reduce(bytes as usize),
                }
                Ok((appended, bytes))
            }
            Err(e) => {
                session.poisoned = true;
                session.sink = Sink::Write(None);
                let mut open = self.open.lock();
                if open.get(set).is_some_and(|s| Arc::ptr_eq(s, &handle)) {
                    open.remove(set);
                }
                Err(e)
            }
        }
    }

    /// Seals the open session for `set` and returns its totals; a
    /// retried end (the first ack was lost) answers the sealed totals
    /// again. A write session finishes its writer. A reducing session
    /// merges its runs into the (begin-truncated) set in sorted key
    /// order ([`merge_runs`]), so the stored order stays deterministic;
    /// its totals are what was materialized, and its run sets go with
    /// it. A failed seal leaves no tombstone: a retried end fails
    /// loudly, and the next attempt's begin starts clean.
    pub(crate) fn end(&self, node: &StorageNode, set: &str, reg: &Registry) -> Result<(u64, u64)> {
        // The orchestrator ends a session only after its pushes return,
        // so no appender still holds it here.
        let Some(session) = self.open.lock().remove(set) else {
            return self.sealed.lock().get(set).copied().ok_or_else(|| {
                PangeaError::usage(format!("no {} session for '{set}' to end", self.kind.noun))
            });
        };
        let mut session = session.lock();
        let totals = match std::mem::replace(&mut session.sink, Sink::Write(None)) {
            Sink::Write(writer) => {
                if let Some(mut writer) = writer {
                    writer.finish()?;
                }
                (session.appended, session.bytes)
            }
            Sink::Runs { spec, mut runs, .. } => {
                merge_runs(&spec, &mut runs, &local_set(node, set)?)?
            }
        };
        self.sealed.lock().insert(set.to_string(), totals);
        reg.counter(self.kind.ended).inc();
        reg.gauge(self.kind.live).set(self.open.lock().len() as u64);
        Ok(totals)
    }

    /// Forgets `set`'s open session and sealed totals: session state
    /// dies with its set, or a set recreated under the same name would
    /// answer a retried end with a previous life's totals. Dropping a
    /// session also releases its ledger's and runs' backing sets.
    pub(crate) fn forget(&self, set: &str, reg: &Registry) {
        self.sealed.lock().remove(set);
        let mut open = self.open.lock();
        open.remove(set);
        reg.gauge(self.kind.live).set(open.len() as u64);
    }

    /// Payload bytes accumulated in this table's open sessions.
    pub(crate) fn open_bytes(&self) -> u64 {
        // Clone the handles out first: appends hold a session lock
        // across disk I/O, and this map's lock must not wait on one.
        let open: Vec<SessionHandle> = self.open.lock().values().cloned().collect();
        open.iter().map(|s| s.lock().bytes).sum()
    }
}

/// The name of a session's backing set of `kind` for `set`:
/// `<set>::<kind>.<seq>`, where `seq` comes from the daemon's one
/// counter, so a replaced session's not-yet-released set never collides
/// with its successor's.
pub(crate) fn backing_set_name(set: &str, kind: &str, seq: u64) -> String {
    format!("{set}::{kind}.{seq}")
}

/// The set `name` on `node`, or the usage error a request naming a
/// missing set is answered with.
pub(crate) fn local_set(node: &StorageNode, name: &str) -> Result<LocalitySet> {
    node.get_set(name)
        .ok_or_else(|| PangeaError::usage(format!("locality set '{name}' not found")))
}
