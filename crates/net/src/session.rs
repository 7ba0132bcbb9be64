//! Begin/append/end sessions on a node daemon: the one machine behind
//! shuffle ingest (`Ingest*`) and peer repair (`Recover*`). The two
//! kinds differ only in what their request handlers supply: each
//! record's dedup key (a provenance tag, or the record's content key),
//! what a begin prepares (truncate the set and maybe build a fold, or
//! seed the ledger from what the target and its peers hold), and the
//! [`Sink`]. The daemon keeps one [`SessionTable`] per kind, so an
//! ingest session and a repair session on one set never replace each
//! other.

use crate::wire::ReduceSpec;
use pangea_common::{FxHashMap, FxHashSet, IoStats, PangeaError, Result};
use pangea_core::{LocalitySet, ReduceBuffer, SeqWriter, SpillLedger, StorageNode};
use pangea_obs::{names, Registry};
use parking_lot::Mutex;
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
    /// A reducing ingest session: `key|value` partials fold into a keyed
    /// accumulator over pool pages (the paper's §8 hash service), so a
    /// fold larger than memory spills partial aggregates instead of
    /// killing the worker. Nothing touches the set until the end
    /// materializes the fold; until then the totals count partials
    /// accepted into it.
    Fold(ReduceSpec, ReduceBuffer),
}

impl Sink {
    /// Stores a batch's accepted run, in order: a writer takes each
    /// page's write guard once per page fill, a fold folds record by
    /// record.
    fn put_all<'r>(
        &mut self,
        target: &LocalitySet,
        recs: impl IntoIterator<Item = &'r [u8]>,
    ) -> Result<()> {
        match self {
            Self::Write(writer) => writer
                .get_or_insert_with(|| target.writer())
                .add_objects(recs),
            Self::Fold(spec, acc) => recs.into_iter().try_for_each(|rec| {
                let (key, value) = spec.decode_record(rec)?;
                acc.insert_merge(key, value)
            }),
        }
    }
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
    /// way instead of writing behind a retry's back or running on a
    /// half-updated fold (one whose spill failed panics on its next
    /// use).
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
    /// [`Sink::Fold`] accepts is always reduce-mode shuffle traffic.
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
    /// is poisoned and its writer closed first (waiting out an append in
    /// flight on it) — what `prepare` then reads or truncates includes
    /// every record that attempt stored.
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
            if let Sink::Write(writer) = &mut stale.sink {
                *writer = None;
            }
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
    /// already carried, store the accepted run through one
    /// [`Sink::put_all`], then enter its keys into the ledger — only
    /// after their records are stored, so a failed store leaves them
    /// unseen and the idempotent retry cannot dedup a lost record away.
    ///
    /// The session lock serializes concurrent pushes into one set: the
    /// key check and the store are atomic per batch, and the sink sees
    /// one writer's order. A failure part-way leaves what was stored
    /// unknowable, so the session is poisoned and closed: appends queued
    /// behind this one are refused, and the retry's begin re-seeds or
    /// truncates from what the set really holds.
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
            sink.put_all(target, accepted.iter().map(|&(_, rec)| rec))?;
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
                    Sink::Fold(..) => stats.record_shuffle_reduce(bytes as usize),
                }
                Ok((appended, bytes))
            }
            Err(e) => {
                session.poisoned = true;
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
    /// again. A write session finishes its writer. A fold re-aggregates
    /// its in-memory pages with its spilled partials and materializes
    /// into the (begin-truncated) set in sorted-key order, so the stored
    /// order stays deterministic; its totals are what was materialized.
    /// A failed seal leaves no tombstone: a retried end fails loudly,
    /// and the next attempt's begin starts clean.
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
            Sink::Fold(spec, acc) => {
                let mut pairs = acc.finalize()?;
                pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                let mut writer = local_set(node, set)?.writer();
                let (mut appended, mut bytes) = (0u64, 0u64);
                for (key, value) in &pairs {
                    let rec = spec.encode_record(key, *value);
                    writer.add_object(&rec)?;
                    appended += 1;
                    bytes += rec.len() as u64;
                }
                writer.finish()?;
                (appended, bytes)
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
    /// session also releases its ledger's and fold's backing sets.
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

/// The set `name` on `node`, or the usage error a request naming a
/// missing set is answered with.
pub(crate) fn local_set(node: &StorageNode, name: &str) -> Result<LocalitySet> {
    node.get_set(name)
        .ok_or_else(|| PangeaError::usage(format!("locality set '{name}' not found")))
}
