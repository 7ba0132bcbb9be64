//! Property tests over the wire framing and the whole protocol codec:
//! round-trips for arbitrary payloads and messages, corruption on
//! truncation at every boundary and on trailing bytes, and
//! oversized-frame rejection.

use pangea_common::PangeaError;
use pangea_net::frame::{read_frame_corr, write_frame_corr, FRAME_OVERHEAD, MAX_FRAME};
use pangea_net::{
    CmpOp, EmitSpec, FilterSpec, Job, KeySpec, MapSpec, ReduceOp, ReduceSpec, RepairFilter,
    RepairPushReport, Request, Response, SchemeSpec, TaskReport, TaskSpec, TraceCtx,
    WireCatalogEntry, WireMetric, WireSpan, WireWorker, WorkerState,
};
use proptest::prelude::*;
use std::io::Cursor;

/// Lowercase ascii identifier from arbitrary bytes (set/key names).
fn ident(bytes: &[u8]) -> String {
    bytes.iter().map(|b| (b'a' + b % 26) as char).collect()
}

fn key_spec(delim: u8, index: u32, whole: bool) -> KeySpec {
    if whole {
        KeySpec::WholeRecord
    } else {
        KeySpec::Field { delim, index }
    }
}

fn scheme_spec(name: &[u8], partitions: u32, hash: bool, key: KeySpec) -> SchemeSpec {
    // Zero partitions are rejected at decode (typed corruption), so the
    // roundtrip generators stay in the encodable domain.
    let partitions = partitions.max(1);
    if hash {
        SchemeSpec::Hash {
            key_name: ident(name),
            partitions,
            key,
        }
    } else {
        SchemeSpec::RoundRobin { partitions }
    }
}

fn cmp_of(tag: u8) -> CmpOp {
    match tag % 6 {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        4 => CmpOp::Eq,
        _ => CmpOp::Ne,
    }
}

#[allow(clippy::too_many_arguments)]
fn map_spec(
    filter_tag: u8,
    filter_key: KeySpec,
    value: &[u8],
    cmp_value: i64,
    emit_tag: u8,
    emit_key: KeySpec,
    delim: u8,
    indices: &[u32],
) -> MapSpec {
    let emit = match emit_tag % 4 {
        0 => EmitSpec::Record,
        1 => EmitSpec::Key(emit_key),
        2 => EmitSpec::Fields {
            delim,
            indices: indices.to_vec(),
        },
        _ => EmitSpec::Tokens { delim },
    };
    let filter = match filter_tag % 4 {
        0 => None,
        1 => Some(FilterSpec::KeyPresent { key: filter_key }),
        2 => Some(FilterSpec::KeyEquals {
            key: filter_key,
            value: value.to_vec(),
        }),
        _ => Some(FilterSpec::KeyCompare {
            key: filter_key,
            cmp: cmp_of(filter_tag),
            value: cmp_value,
        }),
    };
    MapSpec { filter, emit }
}

fn reduce_spec(tag: u8, key: KeySpec, delim: u8, value_index: u32) -> Option<ReduceSpec> {
    let op = match tag % 5 {
        0 => return None,
        1 => ReduceOp::Count,
        2 => ReduceOp::Sum,
        3 => ReduceOp::Min,
        _ => ReduceOp::Max,
    };
    Some(ReduceSpec {
        key,
        op,
        // A delimiter a rendered decimal value could contain is
        // rejected at decode; keep the roundtrip generator in the
        // encodable domain.
        delim: if ReduceSpec::delim_ok(delim) {
            delim
        } else {
            b'|'
        },
        value_index,
    })
}

fn state_of(tag: u8) -> WorkerState {
    match tag % 3 {
        0 => WorkerState::Alive,
        1 => WorkerState::Dead,
        _ => WorkerState::Left,
    }
}

/// Frames `payload` under correlation 1 and unframes it again.
fn through_a_frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame_corr(&mut buf, 1, payload).unwrap();
    let (corr, unframed) = read_frame_corr(&mut Cursor::new(&buf)).unwrap().unwrap();
    assert_eq!(corr, 1);
    unframed
}

fn roundtrip_req(req: Request) {
    let unframed = through_a_frame(&req.encode());
    assert_eq!(Request::decode(&unframed).unwrap(), req);
}

fn roundtrip_resp(resp: Response) {
    let unframed = through_a_frame(&resp.encode());
    assert_eq!(Response::decode(&unframed).unwrap(), resp);
}

/// A scan reply (or repair batch) bigger than one frame is refused on
/// the *send* side as API misuse — an oversized payload can never
/// desynchronize the stream or force a peer allocation.
#[test]
fn oversized_scan_and_repair_replies_are_rejected_at_the_frame() {
    let records = Response::Records {
        next: Some((3, 1)),
        records: vec![vec![7u8; MAX_FRAME + 1]],
    };
    let mut buf = Vec::new();
    match write_frame_corr(&mut buf, 1, &records.encode()) {
        Err(PangeaError::InvalidUsage(m)) => assert!(m.contains("exceeds")),
        other => panic!("oversized scan reply must be refused, got {other:?}"),
    }
    assert!(buf.is_empty(), "nothing may reach the wire");

    let batch = Request::RecoverAppend {
        set: "users".into(),
        records: vec![vec![0u8; MAX_FRAME / 2]; 3],
    };
    match write_frame_corr(&mut buf, 1, &batch.encode()) {
        Err(PangeaError::InvalidUsage(_)) => {}
        other => panic!("oversized repair batch must be refused, got {other:?}"),
    }

    // Same contract for a map-shuffle ingest batch.
    let ingest = Request::IngestAppend {
        set: "words".into(),
        entries: vec![(7, vec![0u8; MAX_FRAME / 2]); 3],
    };
    match write_frame_corr(&mut buf, 1, &ingest.encode()) {
        Err(PangeaError::InvalidUsage(_)) => {}
        other => panic!("oversized ingest batch must be refused, got {other:?}"),
    }
}

/// A hand-crafted zero-partition scheme round-trips the frame but is
/// rejected at decode with a typed corruption error — the wire guard
/// now matches the driver-side `PartitionScheme`, which clamps at
/// construction, so the two sides can never disagree on the routing
/// modulus.
#[test]
fn zero_partition_scheme_specs_are_rejected_at_decode() {
    for hash in [false, true] {
        let spec = if hash {
            SchemeSpec::Hash {
                key_name: "k".into(),
                partitions: 0,
                key: KeySpec::WholeRecord,
            }
        } else {
            SchemeSpec::RoundRobin { partitions: 0 }
        };
        let enc = Request::MgrRegisterSet {
            name: "bad".into(),
            scheme: spec,
        }
        .encode();
        match Request::decode(&enc) {
            Err(PangeaError::Corruption(m)) => {
                assert!(m.contains("zero partitions"), "{m}");
            }
            other => panic!("zero-partition spec must not decode: {other:?}"),
        }
    }
}

/// A reduce delimiter that can appear inside a rendered decimal value
/// (`-` or a digit) would make the `key|value` partial encoding
/// ambiguous; the wire rejects it at decode with a typed corruption
/// error.
#[test]
fn ambiguous_reduce_delimiters_are_rejected_at_decode() {
    for delim in [b'-', b'0', b'7', b'9'] {
        assert!(!ReduceSpec::delim_ok(delim));
        let enc = Request::IngestBegin {
            set: "counts".into(),
            reduce: Some(ReduceSpec {
                key: KeySpec::WholeRecord,
                op: ReduceOp::Min,
                delim,
                value_index: 0,
            }),
        }
        .encode();
        match Request::decode(&enc) {
            Err(PangeaError::Corruption(m)) => assert!(m.contains("delimiter"), "{m}"),
            other => panic!("delim {delim:#04x} must not decode: {other:?}"),
        }
    }
    assert!(ReduceSpec::delim_ok(b'|') && ReduceSpec::delim_ok(b' '));
}

proptest! {
    /// Frames round-trip id and payload exactly, in order, each
    /// consuming exactly the 12-byte overhead the contract names —
    /// correlation 0 included.
    #[test]
    fn correlated_frames_roundtrip_in_order(
        frames in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(any::<u8>(), 0..512)),
            0..20,
        )
    ) {
        let mut buf = Vec::new();
        for (corr, p) in &frames {
            write_frame_corr(&mut buf, *corr, p).unwrap();
        }
        let total: usize = frames.iter().map(|(_, p)| p.len() + FRAME_OVERHEAD).sum();
        prop_assert_eq!(buf.len(), total);
        let mut cur = Cursor::new(&buf);
        for (corr, p) in &frames {
            let (got_corr, got) = read_frame_corr(&mut cur).unwrap().unwrap();
            prop_assert_eq!(got_corr, *corr);
            prop_assert_eq!(&got, p);
        }
        prop_assert!(read_frame_corr(&mut cur).unwrap().is_none());
    }

    /// Truncating a frame at every cut point — inside the length
    /// prefix, inside the correlation id, or inside the payload — is a
    /// corruption error, never a short or garbled payload.
    #[test]
    fn correlated_truncation_is_always_corruption(
        corr in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 1..256),
        cut_fraction in 0usize..100,
    ) {
        let mut buf = Vec::new();
        write_frame_corr(&mut buf, corr, &payload).unwrap();
        let cut = 1 + cut_fraction * (buf.len() - 1) / 100; // 1..buf.len()
        if cut < buf.len() {
            match read_frame_corr(&mut Cursor::new(&buf[..cut])) {
                Err(PangeaError::Corruption(_)) => {}
                other => prop_assert!(false, "cut at {cut}: {other:?}"),
            }
        }
    }

    /// Garbage prefixes never panic the correlated reader: any random
    /// byte stream either yields frames or a typed corruption error.
    #[test]
    fn garbage_never_panics_the_correlated_reader(
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut cur = Cursor::new(&junk);
        while let Ok(Some(_)) = read_frame_corr(&mut cur) {}
    }

    /// A length prefix above MAX_FRAME is rejected before any payload
    /// allocation, whatever follows it on the stream.
    #[test]
    fn oversized_prefix_rejected(
        excess in 1u64..1_000_000,
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let len = (MAX_FRAME as u64 + excess).min(u32::MAX as u64) as u32;
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&junk);
        match read_frame_corr(&mut Cursor::new(&buf)) {
            Err(PangeaError::Corruption(m)) => prop_assert!(m.contains("exceeds")),
            other => prop_assert!(false, "{other:?}"),
        }
    }

    /// Protocol messages survive the trip through encode → frame →
    /// unframe → decode for arbitrary record batches.
    #[test]
    fn protocol_roundtrips_through_frames(
        set in prop::collection::vec(any::<u8>(), 1..16),
        records in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..128),
            0..32,
        ),
        start_page in any::<u64>(),
        start_record in any::<u64>(),
        more in any::<bool>(),
    ) {
        let req = Request::Append { set: ident(&set), records: records.clone() };
        roundtrip_req(req);
        roundtrip_req(Request::Scan { set: ident(&set), start_page, start_record });
        let next = more.then_some((start_page, start_record));
        roundtrip_resp(Response::Records { next, records });
    }

    /// Partitioning schemes (both kinds, both key specs, arbitrary
    /// delimiters including NUL and `0xff`) survive the catalog wire.
    #[test]
    fn scheme_specs_roundtrip_through_frames(
        name in prop::collection::vec(any::<u8>(), 1..24),
        partitions in any::<u32>(),
        hash in any::<bool>(),
        whole in any::<bool>(),
        delim in any::<u8>(),
        index in any::<u32>(),
    ) {
        let scheme = scheme_spec(&name, partitions, hash, key_spec(delim, index, whole));
        roundtrip_req(Request::MgrRegisterSet {
            name: ident(&name),
            scheme,
        });
    }

    /// Catalog entries — with or without a group, arbitrary statistics —
    /// survive the trip inside a `CatalogEntry` response.
    #[test]
    fn catalog_entries_roundtrip_through_frames(
        name in prop::collection::vec(any::<u8>(), 1..24),
        partitions in any::<u32>(),
        hash in any::<bool>(),
        whole in any::<bool>(),
        delim in any::<u8>(),
        index in any::<u32>(),
        has_group in any::<bool>(),
        group in any::<u64>(),
        objects in any::<u64>(),
        bytes in any::<u64>(),
        present in any::<bool>(),
    ) {
        let entry = WireCatalogEntry {
            name: ident(&name),
            scheme: scheme_spec(&name, partitions, hash, key_spec(delim, index, whole)),
            group: has_group.then_some(group),
            objects,
            bytes,
        };
        roundtrip_resp(Response::CatalogEntry {
            entry: present.then_some(entry),
        });
    }

    /// Recovery wire types — repair filters over arbitrary schemes,
    /// peer lists, candidate batches, hash lists, and push outcomes —
    /// survive the trip through encode → frame → unframe → decode.
    #[test]
    fn recovery_messages_roundtrip_through_frames(
        name in prop::collection::vec(any::<u8>(), 1..24),
        partitions in any::<u32>(),
        hash in any::<bool>(),
        whole in any::<bool>(),
        delim in any::<u8>(),
        index in any::<u32>(),
        all in any::<bool>(),
        failed in any::<u32>(),
        nodes in any::<u32>(),
        peers in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 0..6),
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..96), 0..24),
        hashes in prop::collection::vec(any::<u64>(), 0..64),
        counters in prop::collection::vec(any::<u64>(), 5..=5),
    ) {
        let filter = match (all, failed.is_multiple_of(3)) {
            (true, true) => RepairFilter::Absent,
            (true, false) => RepairFilter::All,
            _ => RepairFilter::Lost {
                scheme: scheme_spec(&name, partitions, hash, key_spec(delim, index, whole)),
                failed,
                nodes,
            },
        };
        roundtrip_req(Request::RecoverPush {
            source_set: ident(&name),
            target_set: ident(&name),
            target_addr: ident(&peers.first().cloned().unwrap_or_default()),
            filter,
        });
        roundtrip_req(Request::RepairLedger {
            set: ident(&name),
            start: counters[4],
        });
        roundtrip_req(Request::RecoverBegin {
            set: ident(&name),
            present_from: peers.iter().map(|p| ident(p)).collect(),
        });
        roundtrip_req(Request::RecoverAppend {
            set: ident(&name),
            records: records.clone(),
        });
        roundtrip_req(Request::HashList {
            set: ident(&name),
            start_page: counters[0],
            start_record: counters[1],
        });
        roundtrip_req(Request::RecoverEnd { set: ident(&name) });
        roundtrip_resp(Response::Hashes {
            hashes,
            next: all.then_some((counters[2], counters[3])),
        });
        roundtrip_resp(Response::SessionAck {
            appended: counters[0],
            bytes: counters[1],
            credit: counters[2],
        });
        roundtrip_resp(Response::Pushed {
            report: RepairPushReport {
                scanned: counters[0],
                pushed: counters[1],
                pushed_bytes: counters[2],
                appended: counters[3],
                appended_bytes: counters[4],
            },
        });
    }

    /// Map-shuffle wire types — map specs over every filter/emit shape
    /// (including numeric comparisons and flat-map tokenization), full
    /// task specs with arbitrary destination tables and optional
    /// reduces over every fold, tagged ingest batches, and task/ingest
    /// acks — survive the trip through encode → frame → unframe →
    /// decode.
    #[test]
    fn map_shuffle_messages_roundtrip_through_frames(
        name in prop::collection::vec(any::<u8>(), 1..24),
        partitions in any::<u32>(),
        hash in any::<bool>(),
        whole in any::<bool>(),
        delim in any::<u8>(),
        index in any::<u32>(),
        filter_tag in any::<u8>(),
        value in prop::collection::vec(any::<u8>(), 0..24),
        cmp_value in any::<i64>(),
        emit_tag in any::<u8>(),
        indices in prop::collection::vec(any::<u32>(), 0..8),
        reduce_tag in any::<u8>(),
        nodes in any::<u32>(),
        source in any::<u32>(),
        dests in prop::collection::vec(
            (any::<u32>(), prop::collection::vec(any::<u8>(), 0..24)),
            0..8,
        ),
        entries in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(any::<u8>(), 0..96)),
            0..24,
        ),
        counters in prop::collection::vec(any::<u64>(), 5..=5),
    ) {
        let key = key_spec(delim, index, whole);
        let reduce = reduce_spec(reduce_tag, key, delim, index);
        let spec = TaskSpec {
            job: Job {
                input: ident(&name),
                output: ident(&name),
                map: map_spec(filter_tag, key, &value, cmp_value, emit_tag, key, delim, &indices),
                reduce: reduce.clone(),
                scheme: scheme_spec(&name, partitions, hash, key),
                nodes,
            },
            source,
            dests: dests.iter().map(|(n, a)| (*n, ident(a))).collect(),
        };
        roundtrip_req(Request::TaskRun { spec });
        roundtrip_req(Request::IngestBegin { set: ident(&name), reduce });
        roundtrip_req(Request::IngestAppend {
            set: ident(&name),
            entries,
        });
        roundtrip_req(Request::IngestEnd { set: ident(&name) });
        roundtrip_resp(Response::TaskDone {
            report: TaskReport {
                scanned: counters[0],
                emitted: counters[1],
                emitted_bytes: counters[2],
                appended: counters[3],
                appended_bytes: counters[4],
            },
        });
        roundtrip_resp(Response::SessionAck {
            appended: counters[0],
            bytes: counters[1],
            credit: counters[2],
        });
    }

    /// Truncating an encoded task-run request anywhere inside produces
    /// a decode error, never a short or garbled task — including the
    /// reduce-carrying form.
    #[test]
    fn truncated_task_run_is_an_error(
        name in prop::collection::vec(any::<u8>(), 1..16),
        partitions in any::<u32>(),
        delim in any::<u8>(),
        index in any::<u32>(),
        reduce_tag in any::<u8>(),
        nodes in any::<u32>(),
        source in any::<u32>(),
        cut_fraction in 0usize..100,
    ) {
        let key = key_spec(delim, index, false);
        let enc = Request::TaskRun {
            spec: TaskSpec {
                job: Job {
                    input: ident(&name),
                    output: ident(&name),
                    map: MapSpec::extract(key),
                    reduce: reduce_spec(reduce_tag | 1, key, delim, index),
                    scheme: scheme_spec(&name, partitions, true, key),
                    nodes,
                },
                source,
                dests: vec![(0, "127.0.0.1:7781".into()), (1, "127.0.0.1:7782".into())],
            },
        }
        .encode();
        let cut = 1 + cut_fraction * (enc.len() - 1) / 100;
        if cut < enc.len() {
            prop_assert!(Request::decode(&enc[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    /// Truncating an encoded recovery message anywhere inside produces a
    /// decode error, never a short or garbled message.
    #[test]
    fn truncated_recovery_push_is_an_error(
        name in prop::collection::vec(any::<u8>(), 1..16),
        partitions in any::<u32>(),
        delim in any::<u8>(),
        index in any::<u32>(),
        failed in any::<u32>(),
        nodes in any::<u32>(),
        cut_fraction in 0usize..100,
    ) {
        let enc = Request::RecoverPush {
            source_set: ident(&name),
            target_set: ident(&name),
            target_addr: "127.0.0.1:7781".into(),
            filter: RepairFilter::Lost {
                scheme: scheme_spec(&name, partitions, true, key_spec(delim, index, false)),
                failed,
                nodes,
            },
        }
        .encode();
        let cut = 1 + cut_fraction * (enc.len() - 1) / 100;
        if cut < enc.len() {
            prop_assert!(Request::decode(&enc[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    /// Garbage bytes never decode to a recovery message silently: decode
    /// either fails or re-encodes to a prefix-consistent message (the
    /// codec's length prefixes make random acceptance vanishingly rare).
    #[test]
    fn garbage_never_panics_the_decoder(
        junk in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = Request::decode(&junk);
        let _ = Response::decode(&junk);
    }

    /// Membership messages — registration (fresh or slot-pinned),
    /// heartbeats, deregistration, and worker snapshots in every state —
    /// survive the trip.
    #[test]
    fn membership_messages_roundtrip_through_frames(
        addr in prop::collection::vec(any::<u8>(), 0..32),
        has_slot in any::<bool>(),
        slot in any::<u32>(),
        node in any::<u32>(),
        epoch in any::<u64>(),
        workers in prop::collection::vec(
            (any::<u32>(), prop::collection::vec(any::<u8>(), 0..32), any::<u64>(), any::<u8>()),
            0..8,
        ),
    ) {
        roundtrip_req(Request::MgrRegisterWorker {
            addr: ident(&addr),
            slot: has_slot.then_some(u64::from(slot)),
        });
        roundtrip_req(Request::MgrHeartbeat { node, epoch });
        roundtrip_req(Request::MgrDeregisterWorker { node, epoch });
        roundtrip_resp(Response::WorkerRegistered { node, epoch });
        roundtrip_resp(Response::Workers {
            workers: workers
                .into_iter()
                .map(|(node, addr, epoch, state)| WireWorker {
                    node,
                    addr: ident(&addr),
                    epoch,
                    state: state_of(state),
                })
                .collect(),
        });
    }

    /// Every manager catalog/statistics request — including the
    /// payload-free ones — survives the frame trip byte-identically.
    #[test]
    fn manager_catalog_requests_roundtrip_through_frames(
        name in prop::collection::vec(any::<u8>(), 0..32),
        other in prop::collection::vec(any::<u8>(), 0..32),
        objects in any::<u64>(),
        bytes in any::<u64>(),
        group in any::<u64>(),
    ) {
        roundtrip_req(Request::MgrListWorkers);
        roundtrip_req(Request::MgrDeregisterSet { name: ident(&name) });
        roundtrip_req(Request::MgrEntry { name: ident(&name) });
        roundtrip_req(Request::MgrSetNames);
        roundtrip_req(Request::MgrAddStats {
            name: ident(&name),
            objects,
            bytes,
        });
        roundtrip_req(Request::MgrLinkReplicas {
            a: ident(&name),
            b: ident(&other),
        });
        roundtrip_req(Request::MgrGroupMembers { group });
        roundtrip_req(Request::MgrGroups);
        roundtrip_req(Request::MgrBestReplica {
            set: ident(&name),
            key: ident(&other),
        });
    }

    /// A trace context in the request header survives the trip, and an
    /// untraced request decodes with `None`.
    #[test]
    fn trace_contexts_roundtrip_through_frames(
        set in prop::collection::vec(any::<u8>(), 1..16),
        job in any::<u64>(),
        span in any::<u64>(),
        traced in any::<bool>(),
    ) {
        let req = Request::Scan { set: ident(&set), start_page: job, start_record: span };
        let ctx = TraceCtx { job, span };
        let enc = if traced { req.encode_traced(Some(&ctx)) } else { req.encode() };
        let (back, got) = Request::decode_traced(&through_a_frame(&enc)).unwrap();
        prop_assert_eq!(back, req);
        prop_assert_eq!(got, if traced { Some(ctx) } else { None });
    }

    /// Every strict prefix of a traced request is an error: the trace
    /// context is a header field, so a cut anywhere — inside it or
    /// inside the body — leaves a field unread.
    #[test]
    fn traced_requests_reject_every_strict_prefix(
        set in prop::collection::vec(any::<u8>(), 0..16),
        job in any::<u64>(),
        span in any::<u64>(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let req = Request::Scan { set: ident(&set), start_page: span, start_record: job };
        let enc = req.encode_traced(Some(&TraceCtx { job, span }));
        let cut = ((enc.len() as f64) * cut_fraction) as usize;
        prop_assert!(Request::decode_traced(&enc[..cut]).is_err(), "cut at {cut} decoded");
    }

    /// Bytes after a complete message are corruption, for requests
    /// (traced or not) and responses alike: nothing trails a message.
    #[test]
    fn trailing_bytes_are_corruption(
        junk in prop::collection::vec(any::<u8>(), 1..64),
        traced in any::<bool>(),
    ) {
        let ctx = traced.then_some(TraceCtx { job: 1, span: 2 });
        let mut req = Request::Ping.encode_traced(ctx.as_ref());
        req.extend_from_slice(&junk);
        prop_assert!(matches!(Request::decode_traced(&req), Err(PangeaError::Corruption(_))));
        let mut resp = Response::Ok.encode();
        resp.extend_from_slice(&junk);
        prop_assert!(matches!(Response::decode(&resp), Err(PangeaError::Corruption(_))));
    }

    /// Metrics-dump messages — arbitrary metric mixes, span batches,
    /// and both cursor shapes — survive the trip.
    #[test]
    fn metrics_messages_roundtrip_through_frames(
        metrics_start in any::<u64>(),
        spans_start in any::<u64>(),
        has_next in any::<bool>(),
        metrics in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(any::<u8>(), 1..16), any::<u64>(), any::<u64>(),
             prop::collection::vec(any::<u64>(), 0..8)),
            0..8,
        ),
        spans in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(),
             prop::collection::vec(any::<u8>(), 0..16), any::<u64>()),
            0..8,
        ),
    ) {
        roundtrip_req(Request::MetricsDump { metrics_start, spans_start });
        let metrics = metrics
            .into_iter()
            .map(|(kind, name, a, b, buckets)| match kind % 3 {
                0 => WireMetric::Counter { name: ident(&name), value: a },
                1 => WireMetric::Gauge { name: ident(&name), value: a },
                _ => WireMetric::Histogram { name: ident(&name), count: a, sum: b, buckets },
            })
            .collect();
        let spans = spans
            .into_iter()
            .map(|(seq, job, span, parent, op, start_ns)| WireSpan {
                seq,
                job,
                span,
                parent,
                op: ident(&op),
                peer: "127.0.0.1:0".to_string(),
                start_ns,
                end_ns: start_ns.wrapping_add(17),
                bytes: seq ^ job,
                outcome: "ok".to_string(),
            })
            .collect();
        roundtrip_resp(Response::Metrics {
            metrics,
            spans,
            next: has_next.then_some((metrics_start, spans_start)),
        });
    }

    /// Trace-query/push messages — arbitrary node names, span batches,
    /// drop counts, and both cursor shapes — survive the trip.
    #[test]
    fn trace_messages_roundtrip_through_frames(
        job in any::<u64>(),
        start in any::<u64>(),
        dropped in any::<u64>(),
        has_next in any::<bool>(),
        node in prop::collection::vec(any::<u8>(), 0..12),
        spans in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(),
             prop::collection::vec(any::<u8>(), 0..16), any::<u64>()),
            0..8,
        ),
    ) {
        roundtrip_req(Request::TraceQuery { job, start });
        let wire: Vec<WireSpan> = spans
            .into_iter()
            .map(|(seq, job, span, parent, op, start_ns)| WireSpan {
                seq,
                job,
                span,
                parent,
                op: ident(&op),
                peer: "127.0.0.1:0".to_string(),
                start_ns,
                end_ns: start_ns.wrapping_add(29),
                bytes: seq ^ span,
                outcome: "ok".to_string(),
            })
            .collect();
        roundtrip_req(Request::TracePush {
            node: ident(&node),
            spans: wire.clone(),
        });
        roundtrip_resp(Response::Trace {
            spans: wire.into_iter().map(|s| (ident(&node), s)).collect(),
            dropped,
            next: has_next.then_some(start),
        });
    }

    /// Truncating an encoded trace message at any boundary is a hard
    /// error, never a panic or a silently shortened span list.
    #[test]
    fn truncated_trace_messages_are_errors(
        cut_fraction in 0.0f64..1.0,
        as_response in any::<bool>(),
    ) {
        let span = WireSpan {
            seq: 1,
            job: 2,
            span: 3,
            parent: 0,
            op: "TaskRun".to_string(),
            peer: "127.0.0.1:0".to_string(),
            start_ns: 5,
            end_ns: 6,
            bytes: 7,
            outcome: "ok".to_string(),
        };
        let enc = if as_response {
            Response::Trace {
                spans: vec![("w0".to_string(), span)],
                dropped: 9,
                next: Some(4),
            }
            .encode()
        } else {
            Request::TracePush {
                node: "driver".to_string(),
                spans: vec![span],
            }
            .encode()
        };
        let cut = ((enc.len() as f64) * cut_fraction) as usize;
        if cut < enc.len() {
            if as_response {
                prop_assert!(Response::decode(&enc[..cut]).is_err());
            } else {
                prop_assert!(Request::decode(&enc[..cut]).is_err());
            }
        }
    }

    /// Arbitrary garbage bytes never panic either trace-side decoder.
    #[test]
    fn garbage_never_panics_trace_decoders(
        junk in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let _ = Request::decode(&junk);
        let _ = Response::decode(&junk);
    }
}

/// A span push bigger than one frame is refused on the send side, like
/// oversized scan replies and repair batches — a runaway driver ring can never
/// desynchronize the manager connection.
#[test]
fn oversized_trace_push_is_rejected_at_the_frame() {
    let fat = WireSpan {
        seq: 0,
        job: 0,
        span: 0,
        parent: 0,
        op: "x".repeat(MAX_FRAME / 4),
        peer: String::new(),
        start_ns: 0,
        end_ns: 0,
        bytes: 0,
        outcome: "ok".into(),
    };
    let push = Request::TracePush {
        node: "driver".into(),
        spans: vec![fat.clone(), fat.clone(), fat.clone(), fat],
    };
    let mut buf = Vec::new();
    match write_frame_corr(&mut buf, 1, &push.encode()) {
        Err(PangeaError::InvalidUsage(_)) => {}
        other => panic!("oversized trace push must be refused, got {other:?}"),
    }
    assert!(buf.is_empty(), "nothing may reach the wire");
}
