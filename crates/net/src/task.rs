//! The mapper half of the distributed map-shuffle: a shipped
//! [`TaskSpec`] scans its daemon's local share of the job's input,
//! maps it (combining per key first under a reduce), and streams the
//! routed output straight to every destination's ingest session, one
//! pipelined connection per destination.

use crate::algebra::{TaskReport, TaskSpec};
use crate::client::PangeaClient;
use crate::pipeline::{PipelinedPeer, PushBatch};
use crate::proto::Response;
use crate::server::{Pangead, ACC_ROOT_PARTITIONS};
use crate::wire::{ingest_tag, SchemeSpec};
use pangea_common::{FxHashMap, PangeaError, Result};
use pangea_core::{HashConfig, ObjectIter, ReduceBuffer};
use pangea_obs::TraceCtx;
use std::collections::hash_map::Entry;

/// One task's fan-out state: the daemon running it, the task, where
/// each destination slot lives, one pipelined connection per remote
/// destination, and the batch pending for each slot.
struct Router<'t> {
    daemon: &'t Pangead,
    spec: &'t TaskSpec,
    addr_of: FxHashMap<u32, &'t str>,
    conns: FxHashMap<String, PipelinedPeer>,
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
            addr_of: spec
                .dests
                .iter()
                .map(|(node, addr)| (*node, addr.as_str()))
                .collect(),
            conns: FxHashMap::default(),
            batches: FxHashMap::default(),
            ctx,
        };
        let mut report = TaskReport::default();
        let outcome = (|| -> Result<()> {
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
                let entries = batch.take();
                if entries.is_empty() {
                    continue;
                }
                let (a, b) = route.deliver_entries(dest, entries)?;
                report.appended += a;
                report.appended_bytes += b;
            }
            // Drain every destination's outstanding acks: the task's
            // totals only count what the receivers acknowledged.
            let drained = route.conns.iter_mut().try_for_each(|(addr, peer)| {
                let (a, b) = peer.drain().map_err(|e| (addr.clone(), e))?;
                report.appended += a;
                report.appended_bytes += b;
                Ok(())
            });
            if let Err((addr, e)) = drained {
                if let Some(peer) = route.conns.remove(&addr) {
                    self.peers.discard(peer.client);
                }
                return Err(e);
            }
            Ok(())
        })();
        // Healthy (drained) connections go back to the pool even when
        // the task failed on another destination; the failed connection
        // was already dropped by `ingest_into`, and any connection the
        // failure left with acks still in flight is discarded by
        // the pool's pipelined guard at checkin.
        for (addr, peer) in route.conns.drain() {
            self.peers.checkin(&addr, peer.client);
        }
        outcome?;
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
    /// Queues one routed output record for its destination, flushing
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
            let (a, b) = self.deliver_entries(dest, entries)?;
            report.appended += a;
            report.appended_bytes += b;
        }
        Ok(())
    }

    /// Delivers one tagged batch to its destination: the self-destined
    /// share never touches a socket (appended straight into this
    /// daemon's own ingest session — the sim's free local delivery,
    /// remotely); every other slot goes through its pooled connection.
    ///
    /// For a remote destination the returned totals are *not* this
    /// batch's: they are whatever older in-flight batches got acked
    /// while making window room (possibly nothing). This batch's own
    /// totals surface from some later call or the task's final drain —
    /// the task-level sums come out identical to the serial protocol.
    fn deliver_entries(&mut self, dest: u32, entries: Vec<(u64, Vec<u8>)>) -> Result<(u64, u64)> {
        if dest == self.spec.source {
            self.daemon.ingest_append(&self.spec.job.output, &entries)
        } else {
            let addr = *self.addr_of.get(&dest).ok_or_else(|| {
                PangeaError::usage(format!("task has no destination address for slot {dest}"))
            })?;
            self.ingest_into(addr, entries)
        }
    }

    /// Pipelines one tagged batch into the ingest session for the task's
    /// output on the daemon at `addr`, opening (and caching in the
    /// router's connections) the destination connection on first use.
    /// A connection whose RPC failed is dropped, never cached.
    ///
    /// The batch is *submitted*, not round-tripped: up to the effective
    /// window ([`PIPELINE_WINDOW`](crate::pipeline::PIPELINE_WINDOW), shrunk by the receiver's latest
    /// credit grant) of batches ride the wire unacked, so the mapper
    /// keeps scanning while the receiver appends. When the window is
    /// full the oldest ack is awaited first — and when it is the
    /// *credit* that made the window small, the wait is counted as a
    /// credit stall: the receiver's pool residency is throttling this
    /// sender, which is backpressure working as designed.
    fn ingest_into(&mut self, addr: &str, entries: Vec<(u64, Vec<u8>)>) -> Result<(u64, u64)> {
        let daemon = self.daemon;
        let peer = match self.conns.entry(addr.to_string()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let mut conn = daemon.peers.checkout(addr)?;
                conn.set_trace(self.ctx);
                v.insert(PipelinedPeer::new(conn))
            }
        };
        let output = &self.spec.job.output;
        let submit = |c: &mut PangeaClient| c.ingest_append_submit(output, entries);
        match peer.submit(daemon.obs().registry(), submit) {
            Ok(acked) => Ok(acked),
            Err(e) => {
                // Dropped, not returned — and counted, so a failed push
                // doesn't strand the checkout accounting.
                if let Some(peer) = self.conns.remove(addr) {
                    daemon.peers.discard(peer.client);
                }
                Err(e)
            }
        }
    }
}
