//! The mapper half of the distributed map-shuffle: a shipped
//! [`TaskSpec`] scans its daemon's local share of the job's input,
//! maps it (combining per key first under a reduce), and streams the
//! routed output straight to every destination's ingest session, one
//! [`PushStream`] per remote destination.

use crate::algebra::{TaskReport, TaskSpec};
use crate::pipeline::{PushBatch, PushStream};
use crate::proto::{Request, Response};
use crate::server::{Pangead, ACC_ROOT_PARTITIONS};
use crate::wire::{ingest_tag, SchemeSpec};
use pangea_common::{FxHashMap, PangeaError, Result};
use pangea_core::{HashConfig, ObjectIter, ReduceBuffer};
use pangea_obs::TraceCtx;
use std::collections::hash_map::Entry;

/// One task's fan-out state: the daemon running it, the task, one push
/// stream per remote destination slot, and the batch pending for each
/// slot.
struct Router<'t> {
    daemon: &'t Pangead,
    spec: &'t TaskSpec,
    streams: FxHashMap<u32, PushStream>,
    batches: FxHashMap<u32, PushBatch<(u64, Vec<u8>)>>,
    /// `(job, the TaskRun's span)`, carried by every ingest RPC so the
    /// destinations' spans stitch under the task that produced them.
    ctx: Option<TraceCtx>,
}

impl Pangead {
    /// The mapper half of the distributed map-shuffle: scan the local
    /// share of the task's input, apply the declarative map (possibly
    /// multi-emit), route each output record by the task's scheme, and
    /// stream batches straight to each destination worker's ingest
    /// session — one pooled connection per destination for the task's
    /// lifetime. With a [`ReduceSpec`] the mapper *combines* first:
    /// the whole share folds into a keyed accumulator and only the
    /// encoded per-key partials ship, so the shuffle pays for distinct
    /// keys instead of raw emissions. The orchestrating driver only
    /// ever sees the outcome counters.
    ///
    /// Round-robin output striping is **per source**: mapper `s`'s
    /// `i`-th emission lands on partition `(s + i) % partitions` (the
    /// `s` offset decorrelates the mappers' first records). The serial
    /// engine reference applies the identical rule per scanned node,
    /// so per-node parity holds for round-robin outputs too.
    ///
    /// [`ReduceSpec`]: crate::ReduceSpec
    pub(crate) fn run_task(&self, spec: &TaskSpec, ctx: Option<TraceCtx>) -> Result<Response> {
        let job = &spec.job;
        let input = self.get_set(&job.input)?;
        let nodes = job.nodes.max(1);
        if spec.source > u32::from(u16::MAX) {
            return Err(PangeaError::usage(format!(
                "source slot {} does not fit a provenance tag's 16 bits",
                spec.source
            )));
        }
        if job.reduce.is_some() && matches!(job.scheme, SchemeSpec::RoundRobin { .. }) {
            return Err(PangeaError::usage(
                "a reduce needs key-determined placement; round-robin output \
                 schemes cannot host one",
            ));
        }
        let mut route = Router {
            daemon: self,
            spec,
            streams: FxHashMap::default(),
            batches: FxHashMap::default(),
            ctx,
        };
        let mut report = TaskReport::default();
        match &job.reduce {
            // Source-side combine: fold the whole local share, then
            // ship one encoded partial per key, in sorted key order.
            // A partial's tag ordinal is its position in that order:
            // a retried task re-derives the same fold and the same
            // order, so its partials dedup away at the destinations,
            // and each destination receives every source's partials
            // as a run that rises in ordinal and key together, which
            // is what lets it merge instead of fold. The fold runs
            // through a pool-paged [`ReduceBuffer`], so a share whose
            // distinct keys exceed the memory budget spills partial
            // aggregates instead of OOMing the worker.
            Some(reduce) => {
                let mut acc = ReduceBuffer::create(
                    self.node(),
                    &self.session_set_name(&job.output, "combine"),
                    HashConfig::new(ACC_ROOT_PARTITIONS),
                    reduce.merge_fn(),
                )?;
                for num in input.page_numbers() {
                    let pin = input.pin_page(num)?;
                    let mut it = ObjectIter::new(&pin);
                    while let Some(rec) = it.next() {
                        report.scanned += 1;
                        job.map.for_each_emit(rec, &mut |out| {
                            if let Some((key, value)) = reduce.key_value(out) {
                                acc.insert_merge(key, value)?;
                            }
                            Ok(())
                        })?;
                    }
                }
                let mut pairs = acc.finalize()?;
                pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                for (ordinal, (key, value)) in pairs.iter().enumerate() {
                    let out = reduce.encode_record(key, *value);
                    let dest = job.scheme.node_of(&out, 0, nodes);
                    let tag = ingest_tag(spec.source, ordinal as u64, &out);
                    route.route_output(&mut report, dest, tag, out)?;
                }
            }
            None => {
                // The emission sequence number doubles as the
                // round-robin stripe position and the provenance-tag
                // ordinal: stable across retries (storage order is
                // deterministic), and distinct per emission so a
                // flat-map record emitting the same token twice
                // keeps both honest duplicates.
                for num in input.page_numbers() {
                    let pin = input.pin_page(num)?;
                    let mut it = ObjectIter::new(&pin);
                    while let Some(rec) = it.next() {
                        report.scanned += 1;
                        job.map.for_each_emit(rec, &mut |out| {
                            let seq = report.emitted;
                            let dest = job.scheme.node_of(out, spec.source as u64 + seq, nodes);
                            let tag = ingest_tag(spec.source, seq, out);
                            route.route_output(&mut report, dest, tag, out.to_vec())
                        })?;
                    }
                }
            }
        }
        for (dest, mut batch) in std::mem::take(&mut route.batches) {
            route.deliver(&mut report, dest, batch.take())?;
        }
        // The task's totals only count what the receivers acknowledged.
        // A failure drops the router, and with it every stream still
        // open, unpooled.
        for (_, stream) in route.streams.drain() {
            let (a, b) = stream.finish()?;
            report.appended += a;
            report.appended_bytes += b;
        }
        // Mapper-side attribution: this node shipped `emitted_bytes` of
        // shuffle payload to its peers without touching the driver —
        // labeled by mode, so combine/reduce traffic is distinguishable
        // from map-only traffic in a dump.
        if job.reduce.is_some() {
            self.stats()
                .record_shuffle_reduce(report.emitted_bytes as usize);
        } else {
            self.stats().record_shuffle(report.emitted_bytes as usize);
        }
        Ok(Response::TaskDone { report })
    }
}

impl Router<'_> {
    /// Queues one routed output record for its destination, delivering
    /// the destination's batch once it is full.
    fn route_output(
        &mut self,
        report: &mut TaskReport,
        dest: u32,
        tag: u64,
        out: Vec<u8>,
    ) -> Result<()> {
        report.emitted += 1;
        report.emitted_bytes += out.len() as u64;
        if let Some(entries) = self.batches.entry(dest).or_default().push((tag, out)) {
            self.deliver(report, dest, entries)?;
        }
        Ok(())
    }

    /// Delivers one tagged batch to its destination. The self-destined
    /// share never touches a socket: it is appended straight into this
    /// daemon's own ingest session, the sim's free local delivery,
    /// remotely. Every other slot's batch rides its push stream, opened
    /// on the slot's first batch, and is acked later: its totals reach
    /// the report when the task finishes the stream.
    fn deliver(
        &mut self,
        report: &mut TaskReport,
        dest: u32,
        entries: Vec<(u64, Vec<u8>)>,
    ) -> Result<()> {
        let spec = self.spec;
        let output = &spec.job.output;
        if dest == spec.source {
            if !entries.is_empty() {
                let (a, b) = self.daemon.ingest_append(output, &entries)?;
                report.appended += a;
                report.appended_bytes += b;
            }
            return Ok(());
        }
        let stream = match self.streams.entry(dest) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let (_, addr) = spec.dests.iter().find(|(n, _)| *n == dest).ok_or_else(|| {
                    PangeaError::usage(format!("task has no destination address for slot {dest}"))
                })?;
                v.insert(PushStream::open(&self.daemon.peers, addr, self.ctx)?)
            }
        };
        stream.send(entries, |entries| Request::IngestAppend {
            set: output.clone(),
            entries,
        })
    }
}
