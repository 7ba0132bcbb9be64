//! The crate's one field codec, and the wire forms of control-plane
//! state: partitioning schemes, repair filters, catalog entries, cluster
//! membership and observability records.
//!
//! The in-process catalog (`pangea-cluster`'s `Manager`) stores a
//! `PartitionScheme` whose key extractor is an arbitrary closure — a UDF
//! in the paper's terms. UDFs do not cross the wire; what does is a
//! *declarative* [`KeySpec`] (whole record, or a delimited field), which
//! every peer can re-materialize into the same extractor. Schemes built
//! from opaque closures therefore cannot be registered in a wire-served
//! catalog; `pangea-cluster` offers `hash_field`/`hash_whole`
//! constructors that carry their spec.
//!
//! Every wire type travels through `Wire`: each field is a
//! length-prefixed record in a `ByteWriter` stream, and integers travel
//! as `u64` records (narrower ones are range-checked on read). A struct
//! lists its field order in `wire_struct!`. Every tagged type — the
//! `Request`/`Response` messages, the enums here and the task algebra's —
//! is declared in a `wire_table!` table, which writes each variant's tag
//! and fields once and generates both directions; a tag no variant
//! claims decodes to [`PangeaError::Corruption`].

use pangea_common::{fx_hash64, ByteReader, ByteWriter, PangeaError, Result};
use pangea_obs::TraceCtx;

/// How one value travels inside a wire message: written as records into
/// a [`ByteWriter`] and read back from a [`ByteReader`]. Every field of
/// every `Request`/`Response` goes through this one codec, so a
/// narrowing, an optional or a list is encoded the same way everywhere.
pub(crate) trait Wire: Sized {
    /// Appends this value's records.
    fn put(&self, w: &mut ByteWriter);

    /// Reads one value; malformed or out-of-range input is
    /// [`PangeaError::Corruption`].
    fn get(r: &mut ByteReader<'_>) -> Result<Self>;

    /// How a `Vec<Self>` travels: a `u64` count, then each item. `u8`
    /// overrides it, so a byte string is one length-prefixed record.
    fn put_vec(items: &[Self], w: &mut ByteWriter) {
        (items.len() as u64).put(w);
        for item in items {
            item.put(w);
        }
    }

    /// Reads what [`Wire::put_vec`] wrote. The count comes off the wire,
    /// so it bounds the preallocation, never the loop.
    fn get_vec(r: &mut ByteReader<'_>) -> Result<Vec<Self>> {
        let n = u64::get(r)?;
        let mut out = Vec::with_capacity(n.min(1 << 20) as usize);
        for _ in 0..n {
            out.push(Self::get(r)?);
        }
        Ok(out)
    }
}

/// [`Wire`] for a type that is one codec record.
macro_rules! wire_record {
    ($($T:ty),*) => {$(
        impl Wire for $T {
            fn put(&self, w: &mut ByteWriter) {
                w.write_record(self);
            }

            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                r.read_record()
            }
        }
    )*};
}

wire_record!(u64, i64, String);

/// Reads a `u64` record into a narrower integer, rejecting values the
/// target cannot hold instead of truncating them.
fn get_narrow<T: TryFrom<u64>>(r: &mut ByteReader<'_>) -> Result<T> {
    let v = u64::get(r)?;
    T::try_from(v).map_err(|_| {
        PangeaError::Corruption(format!(
            "wire integer {v} out of range for {}",
            std::any::type_name::<T>()
        ))
    })
}

impl Wire for u32 {
    fn put(&self, w: &mut ByteWriter) {
        u64::from(*self).put(w);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        get_narrow(r)
    }
}

impl Wire for u8 {
    fn put(&self, w: &mut ByteWriter) {
        u64::from(*self).put(w);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        get_narrow(r)
    }

    fn put_vec(items: &[Self], w: &mut ByteWriter) {
        w.write_bytes(items);
    }

    fn get_vec(r: &mut ByteReader<'_>) -> Result<Vec<Self>> {
        Ok(r.read_bytes()?.to_vec())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        T::put_vec(self, w);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        T::get_vec(r)
    }
}

/// A `u64` presence flag (0 or 1), then the value when present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        u64::from(self.is_some()).put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        match u64::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            other => Err(PangeaError::Corruption(format!(
                "presence flag {other} is neither 0 nor 1"
            ))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// [`Wire`] for a struct whose fields travel in the listed order. An
/// entry ending in `=> check` names the type's one validation method
/// (`fn check(&self) -> Result<()>`), which every decode runs last.
macro_rules! wire_struct {
    ($($T:ident { $($field:ident),* } $(=> $check:ident)?)*) => {$(
        impl Wire for $T {
            fn put(&self, w: &mut ByteWriter) {
                $(self.$field.put(w);)*
            }

            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                let v = Self { $($field: Wire::get(r)?),* };
                $(v.$check()?;)?
                Ok(v)
            }
        }
    )*};
}

/// Declares tagged wire types from one table: each enum's docs, and
/// each variant's docs, fields and tag. A value travels as its `u64`
/// tag, then its fields in declaration order, each through [`Wire`]; a
/// variant carries named fields or one unnamed one. A tag no variant
/// claims is [`PangeaError::Corruption`]. Tags are stable over the
/// protocol's life: add, never renumber.
///
/// An enum gets `impl Wire`; one followed by `=> check` runs that
/// validation method last in every decode, as in [`wire_struct!`]. A
/// message family (`pub enum Request: message`) gets instead its
/// `OPCODES`, `name()` and whole-payload `encode_with`/`decode_with`,
/// which put a caller-chosen header between the opcode and the fields
/// and reject trailing bytes.
macro_rules! wire_table {
    // Names a tuple variant's field: `$T` drives the repetition.
    (@bind $inner:ident $T:ty) => { $inner };
    (@family $Enum:ident message [$($Variant:ident = $tag:literal)*]) => {
        impl $Enum {
            /// Every `(opcode, name)` pair of this family, in declaration
            /// order.
            pub const OPCODES: &'static [(u64, &'static str)] =
                &[$(($tag, stringify!($Variant))),*];

            /// This message's opcode name — the per-opcode label the
            /// metrics registry and span records key on
            /// (`rpc.count.TaskRun`, ...).
            pub fn name(&self) -> &'static str {
                match self {
                    $(Self::$Variant { .. } => stringify!($Variant),)*
                }
            }

            /// Encodes `opcode · head · fields` as one payload.
            fn encode_with(&self, head: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
                let mut w = ByteWriter::new();
                self.put_with(&mut w, head);
                w.into_bytes()
            }

            /// Decodes what [`Self::encode_with`] wrote, `head` reading
            /// the header. Every byte must be consumed.
            fn decode_with<H>(
                bytes: &[u8],
                head: impl FnOnce(&mut ByteReader<'_>) -> Result<H>,
            ) -> Result<(Self, H)> {
                let mut r = ByteReader::new(bytes);
                let decoded = Self::get_with(&mut r, head)?;
                if !r.is_exhausted() {
                    return Err(PangeaError::Corruption(format!(
                        "{} B trailing a {} message",
                        bytes.len() - r.position(),
                        decoded.0.name()
                    )));
                }
                Ok(decoded)
            }
        }
    };
    (@family $Enum:ident [$($Variant:ident = $tag:literal)*] $($check:ident)?) => {
        impl Wire for $Enum {
            fn put(&self, w: &mut ByteWriter) {
                self.put_with(w, |_| {});
            }

            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                let (v, ()) = Self::get_with(r, |_| Ok(()))?;
                $(v.$check()?;)?
                Ok(v)
            }
        }
    };
    ($(
        $(#[$meta:meta])*
        pub enum $Enum:ident $(: $family:ident)? {
            $(
                $(#[$vmeta:meta])*
                $Variant:ident
                $(($T:ty))?
                $({ $($(#[$fmeta:meta])* $field:ident: $ty:ty,)* })?
                = $tag:literal,
            )*
        }
        $(=> $check:ident)?
    )*) => {$(
        $(#[$meta])*
        pub enum $Enum {
            $(
                $(#[$vmeta])*
                $Variant $(($T))? $({ $($(#[$fmeta])* $field: $ty,)* })?,
            )*
        }

        impl $Enum {
            /// Writes `tag · head · fields`.
            fn put_with(&self, w: &mut ByteWriter, head: impl FnOnce(&mut ByteWriter)) {
                match self {
                    $(Self::$Variant
                        $((wire_table!(@bind inner $T)))?
                        $({ $($field,)* })? => {
                        ($tag as u64).put(w);
                        head(w);
                        $(<$T as Wire>::put(inner, w);)?
                        $($($field.put(w);)*)?
                    })*
                }
            }

            /// Reads what `put_with` wrote, `head` reading the header.
            fn get_with<H>(
                r: &mut ByteReader<'_>,
                head: impl FnOnce(&mut ByteReader<'_>) -> Result<H>,
            ) -> Result<(Self, H)> {
                Ok(match u64::get(r)? {
                    $($tag => {
                        let h = head(r)?;
                        let v = Self::$Variant
                            $((<$T as Wire>::get(r)?))?
                            $({ $($field: Wire::get(r)?,)* })?;
                        (v, h)
                    })*
                    other => {
                        return Err(PangeaError::Corruption(format!(
                            "unknown {} tag {other}",
                            stringify!($Enum)
                        )))
                    }
                })
            }
        }

        wire_table!(@family $Enum $($family)? [$($Variant = $tag)*] $($check)?);
    )*};
}

pub(crate) use {wire_struct, wire_table};

wire_struct! {
    TraceCtx { job, span }
    RepairPushReport { scanned, pushed, pushed_bytes, appended, appended_bytes }
    WireCatalogEntry { name, scheme, group, objects, bytes }
    WireWorker { node, addr, epoch, state }
    WireSpan { seq, job, span, parent, op, peer, start_ns, end_ns, bytes, outcome }
}

wire_table! {
    /// A declarative, wire-safe key extractor.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum KeySpec {
        /// The whole record is the key.
        WholeRecord = 1,
        /// Field `index` (0-based) after splitting the record on `delim`;
        /// records with fewer fields key on the empty string.
        Field {
            /// The single-byte field delimiter (e.g. `b'|'`).
            delim: u8,
            /// 0-based field index.
            index: u32,
        } = 2,
    }

    /// A partitioning scheme in wire form (the serializable subset of
    /// `pangea-cluster`'s `PartitionScheme`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum SchemeSpec {
        /// `hash(key) % partitions`, keyed by a declarative [`KeySpec`].
        Hash {
            /// The key the scheme organizes by (`l_orderkey`, …).
            key_name: String,
            /// Number of partitions.
            partitions: u32,
            /// How the key is extracted.
            key: KeySpec,
        } = 1,
        /// Records round-robin over partitions.
        RoundRobin {
            /// Number of partitions.
            partitions: u32,
        } = 2,
    } => check_partitions

    /// How a survivor selects which of its local records to ship during a
    /// worker→worker repair push (`Request::RecoverPush`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum RepairFilter {
        /// Ship only records whose placement under `scheme` across `nodes`
        /// slots is the `failed` slot — the lost share of a hash-partitioned
        /// replica, recomputable on any peer from the declarative scheme.
        Lost {
            /// The recovery target's partitioning scheme (must be `Hash`:
            /// round-robin placement is ordinal-based and cannot be
            /// recomputed per record).
            scheme: SchemeSpec,
            /// The failed node slot (raw `NodeId`).
            failed: u32,
            /// Fleet width the scheme stripes over.
            nodes: u32,
        } = 1,
        /// Ship every record; the replacement's repair session filters out
        /// what the surviving share already holds (round-robin targets,
        /// whose lost share is defined by absence, not by placement).
        All = 2,
        /// Ship only records *absent* from the replacement's repair-session
        /// ledger: before scanning, the survivor pulls the session's seeded
        /// present-hash ledger from the replacement (paginated like
        /// `HashList`, via `Request::RepairLedger`) and filters at the
        /// source. Same correctness as [`RepairFilter::All`] — the session
        /// still dedups every append — but the surviving share's bytes never
        /// cross the wire, so a round-robin repair ships ~the lost share
        /// instead of every survivor's whole share.
        Absent = 3,
    }

    /// A worker's liveness state at the manager.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WorkerState {
        /// Registered and heartbeating within the liveness timeout.
        Alive = 1,
        /// Missed enough heartbeats to be declared dead (feeds recovery).
        Dead = 2,
        /// Deregistered on clean shutdown.
        Left = 3,
    }

    /// One named metric in a `MetricsDump` reply.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum WireMetric {
        /// A monotonic counter.
        Counter {
            /// Registry name (e.g. `rpc.count.TaskRun`).
            name: String,
            /// Value at dump time.
            value: u64,
        } = 1,
        /// A last-write-wins gauge.
        Gauge {
            /// Registry name (e.g. `mgr.heartbeat_staleness_ms`).
            name: String,
            /// Value at dump time.
            value: u64,
        } = 2,
        /// A fixed log2-bucket histogram (see `pangea_obs::Histogram`).
        Histogram {
            /// Registry name (e.g. `rpc.latency_ns.TaskRun`).
            name: String,
            /// Observation count.
            count: u64,
            /// Sum of all observations.
            sum: u64,
            /// Per-bucket observation counts.
            buckets: Vec<u64>,
        } = 3,
    }
}

impl KeySpec {
    /// Extracts this spec's key from a record's bytes.
    pub fn key_of(&self, record: &[u8]) -> Vec<u8> {
        self.key_slice(record).to_vec()
    }

    /// Borrowing variant of [`KeySpec::key_of`]: both variants name a
    /// subslice of the record, so routing and filtering hot paths can
    /// hash or compare the key without allocating.
    pub fn key_slice<'a>(&self, record: &'a [u8]) -> &'a [u8] {
        match *self {
            Self::WholeRecord => record,
            Self::Field { delim, index } => record
                .split(|&b| b == delim)
                .nth(index as usize)
                .unwrap_or_default(),
        }
    }
}

impl SchemeSpec {
    /// The wire decode's check: the driver-side `PartitionScheme` clamps
    /// `partitions` to ≥ 1 at construction, so a zero can only reach the
    /// wire from a hand-crafted or corrupted frame, and silently clamping
    /// it here would let the two sides disagree about the routing rule.
    fn check_partitions(&self) -> Result<()> {
        match self {
            Self::Hash { partitions: 0, .. } | Self::RoundRobin { partitions: 0 } => Err(
                PangeaError::Corruption("partition scheme with zero partitions".into()),
            ),
            _ => Ok(()),
        }
    }

    /// The scheme's partition count.
    pub fn partitions(&self) -> u32 {
        match self {
            Self::Hash { partitions, .. } | Self::RoundRobin { partitions } => (*partitions).max(1),
        }
    }

    /// The partition a record belongs to. Mirrors the in-process
    /// `PartitionScheme::partition_of` exactly (`hash(key) % partitions`;
    /// round-robin uses the caller-maintained `ordinal`), so a mapper's
    /// remote routing decision matches the driver-side dispatcher's.
    pub fn partition_of(&self, record: &[u8], ordinal: u64) -> u32 {
        match self {
            Self::Hash { key, .. } => {
                (fx_hash64(key.key_slice(record)) % self.partitions() as u64) as u32
            }
            Self::RoundRobin { .. } => (ordinal % self.partitions() as u64) as u32,
        }
    }

    /// The node a record lands on in an `nodes`-slot fleet (partitions
    /// stripe over nodes, mirroring `PartitionScheme::node_of`).
    pub fn node_of(&self, record: &[u8], ordinal: u64, nodes: u32) -> u32 {
        self.partition_of(record, ordinal) % nodes.max(1)
    }
}

/// A compiled per-record filter: `true` keeps the record.
pub type RecordPredicate = Box<dyn Fn(&[u8]) -> bool + Send + Sync>;

impl RepairFilter {
    /// Compiles the filter into a per-record predicate: `true` means the
    /// record must be shipped. Mirrors `PartitionScheme::node_of` exactly
    /// (`hash(key) % partitions`, partitions striping over nodes), so a
    /// survivor's local decision matches the placement the dispatcher
    /// used. Fails on a `Lost` filter over a round-robin scheme, and on
    /// `Absent`, whose predicate is not self-contained — the survivor
    /// resolves it against the target's session ledger (see
    /// `Pangead::recover_push`).
    pub fn compile(&self) -> Result<RecordPredicate> {
        match self {
            Self::All => Ok(Box::new(|_| true)),
            Self::Absent => Err(PangeaError::usage(
                "an Absent repair filter is resolved at the survivor against \
                 the replacement's session ledger, not compiled standalone",
            )),
            Self::Lost {
                scheme,
                failed,
                nodes,
            } => match scheme {
                SchemeSpec::RoundRobin { .. } => Err(PangeaError::usage(
                    "round-robin placement is ordinal-based and cannot back a \
                     Lost repair filter; use RepairFilter::All",
                )),
                SchemeSpec::Hash {
                    partitions, key, ..
                } => {
                    let key = *key;
                    let partitions = (*partitions).max(1) as u64;
                    let (failed, nodes) = (*failed, (*nodes).max(1));
                    Ok(Box::new(move |rec: &[u8]| {
                        let p = (fx_hash64(key.key_slice(rec)) % partitions) as u32;
                        p % nodes == failed
                    }))
                }
            },
        }
    }
}

/// Outcome of one survivor→replacement repair push, as acknowledged over
/// the wire (`Response::Pushed`) and aggregated by the recovery engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairPushReport {
    /// Records the survivor scanned in its local source share.
    pub scanned: u64,
    /// Records that passed the filter and were shipped to the target.
    pub pushed: u64,
    /// Payload bytes shipped worker→worker.
    pub pushed_bytes: u64,
    /// Records the target actually appended (post-dedup).
    pub appended: u64,
    /// Payload bytes the target actually appended.
    pub appended_bytes: u64,
}

impl RepairPushReport {
    /// Component-wise sum with another report.
    pub fn merge(&mut self, other: &RepairPushReport) {
        self.scanned += other.scanned;
        self.pushed += other.pushed;
        self.pushed_bytes += other.pushed_bytes;
        self.appended += other.appended;
        self.appended_bytes += other.appended_bytes;
    }
}

/// Bits of an [`ingest_tag`] that carry the ordinal; the source slot
/// sits above them.
const TAG_ORDINAL_BITS: u32 = 48;

/// The provenance tag an ingest session dedups on: the mapper's slot in
/// the top 16 bits and the record's ordinal in the low 48, packed
/// losslessly, so a receiver can read each record's source back. The
/// ordinal is an emission's sequence number, or a reduce partial's
/// position in the mapper's sorted output. A retried task re-scans the
/// same local share in the same storage order, so its tags are
/// identical and every re-pushed record dedups away — while two
/// *legitimately identical* output records (different source or
/// ordinal) keep distinct tags and are both appended. `record` is not
/// read: a tag is provenance, not content. (Contrast repair sessions,
/// which dedup on record content: a restored set holds each lost record
/// once, but a shuffle output may contain honest duplicates.)
///
/// The packing is injective for sources up to `u16::MAX` (a task
/// refuses a wider slot) and ordinals below 2^48; an ordinal past that
/// keeps only its low 48 bits, so it can never overwrite the source.
pub fn ingest_tag(source: u32, ordinal: u64, _record: &[u8]) -> u64 {
    (u64::from(source) << TAG_ORDINAL_BITS) | (ordinal & ((1 << TAG_ORDINAL_BITS) - 1))
}

/// The source slot an [`ingest_tag`] carries.
pub(crate) fn tag_source(tag: u64) -> u16 {
    (tag >> TAG_ORDINAL_BITS) as u16
}

/// One catalog entry as served by `pangea-mgr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCatalogEntry {
    /// The set's cluster-wide name.
    pub name: String,
    /// Its partitioning scheme.
    pub scheme: SchemeSpec,
    /// The replica group it belongs to (raw `ReplicaGroupId`), if any.
    pub group: Option<u64>,
    /// Objects dispatched into the set.
    pub objects: u64,
    /// Payload bytes dispatched into the set.
    pub bytes: u64,
}

/// One worker's membership record as served by `pangea-mgr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireWorker {
    /// The node slot (raw `NodeId`).
    pub node: u32,
    /// The address the worker's `pangead` advertised at registration.
    pub addr: String,
    /// The slot's current registration epoch (raw `Epoch`).
    pub epoch: u64,
    /// Current liveness state.
    pub state: WorkerState,
}

impl WireMetric {
    /// This metric's registry name.
    pub fn name(&self) -> &str {
        match self {
            Self::Counter { name, .. }
            | Self::Gauge { name, .. }
            | Self::Histogram { name, .. } => name,
        }
    }
}

/// One retained span record in a `MetricsDump` reply (the wire form of
/// `pangea_obs::SpanRecord`, plus its ring sequence number for cursor
/// resumption).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    /// Ring sequence number (strictly increasing per process).
    pub seq: u64,
    /// Job id this span belongs to.
    pub job: u64,
    /// This span's id.
    pub span: u64,
    /// The caller's span id, or 0 at the root.
    pub parent: u64,
    /// Operation name (request opcode or local label).
    pub op: String,
    /// The remote peer involved, when known.
    pub peer: String,
    /// Monotonic start, ns since the recording process's obs epoch.
    pub start_ns: u64,
    /// Monotonic end, ns since the recording process's obs epoch.
    pub end_ns: u64,
    /// Request payload bytes handled under this span.
    pub bytes: u64,
    /// `"ok"` or a short error description.
    pub outcome: String,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{CmpOp, EmitSpec, FilterSpec, ReduceSpec};

    /// Encodes `v` and decodes it back: equal, and every byte consumed.
    pub(crate) fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = ByteWriter::new();
        v.put(&mut w);
        let mut r = ByteReader::new(w.as_bytes());
        assert_eq!(&T::get(&mut r).unwrap(), v);
        assert!(r.is_exhausted());
    }

    #[test]
    fn schemes_roundtrip() {
        roundtrip(&SchemeSpec::RoundRobin { partitions: 8 });
        roundtrip(&SchemeSpec::Hash {
            key_name: "l_orderkey".into(),
            partitions: 12,
            key: KeySpec::Field {
                delim: b'|',
                index: 3,
            },
        });
        roundtrip(&SchemeSpec::Hash {
            key_name: "word".into(),
            partitions: 1,
            key: KeySpec::WholeRecord,
        });
    }

    #[test]
    fn catalog_entries_roundtrip_with_and_without_group() {
        for group in [None, Some(7u64)] {
            let e = WireCatalogEntry {
                name: "lineitem".into(),
                scheme: SchemeSpec::RoundRobin { partitions: 4 },
                group,
                objects: 123,
                bytes: 45678,
            };
            let mut w = ByteWriter::new();
            e.put(&mut w);
            let mut r = ByteReader::new(w.as_bytes());
            assert_eq!(WireCatalogEntry::get(&mut r).unwrap(), e);
        }
    }

    #[test]
    fn workers_roundtrip_every_state() {
        for state in [WorkerState::Alive, WorkerState::Dead, WorkerState::Left] {
            let wk = WireWorker {
                node: 3,
                addr: "10.0.0.3:7781".into(),
                epoch: 9,
                state,
            };
            let mut w = ByteWriter::new();
            wk.put(&mut w);
            let mut r = ByteReader::new(w.as_bytes());
            assert_eq!(WireWorker::get(&mut r).unwrap(), wk);
        }
    }

    #[test]
    fn key_specs_extract() {
        assert_eq!(KeySpec::WholeRecord.key_of(b"abc"), b"abc");
        let f = KeySpec::Field {
            delim: b'|',
            index: 1,
        };
        assert_eq!(f.key_of(b"a|bb|c"), b"bb");
        assert_eq!(f.key_of(b"a"), b"");
    }

    /// Every tagged type's decode refuses a tag no variant claims, in
    /// the table's one unknown-tag arm.
    #[test]
    fn unknown_tags_are_corruption() {
        fn decode<T: Wire>(bytes: &[u8]) -> Result<()> {
            T::get(&mut ByteReader::new(bytes)).map(drop)
        }
        let mut w = ByteWriter::new();
        w.write_record(&99u64);
        w.write_record(&"bogus".to_string());
        type Decode = fn(&[u8]) -> Result<()>;
        let decoders: [(&str, Decode); 9] = [
            ("KeySpec", decode::<KeySpec>),
            ("SchemeSpec", decode::<SchemeSpec>),
            ("RepairFilter", decode::<RepairFilter>),
            ("CmpOp", decode::<CmpOp>),
            ("FilterSpec", decode::<FilterSpec>),
            ("EmitSpec", decode::<EmitSpec>),
            // The op is a reduce spec's first field.
            ("ReduceOp", decode::<ReduceSpec>),
            ("WorkerState", decode::<WorkerState>),
            ("WireMetric", decode::<WireMetric>),
        ];
        for (name, decode) in decoders {
            match decode(w.as_bytes()) {
                Err(PangeaError::Corruption(m)) => {
                    assert_eq!(m, format!("unknown {name} tag 99"));
                }
                other => panic!("{name} decoded tag 99: {other:?}"),
            }
        }
    }

    #[test]
    fn repair_filters_roundtrip() {
        roundtrip(&RepairFilter::All);
        roundtrip(&RepairFilter::Lost {
            scheme: SchemeSpec::Hash {
                key_name: "uid".into(),
                partitions: 6,
                key: KeySpec::Field {
                    delim: b'|',
                    index: 0,
                },
            },
            failed: 1,
            nodes: 3,
        });
    }

    #[test]
    fn lost_filter_matches_hash_placement() {
        // `compile` must agree with the dispatcher's placement rule:
        // partition = hash(key) % partitions, node = partition % nodes.
        let key = KeySpec::Field {
            delim: b'|',
            index: 0,
        };
        let (partitions, nodes, failed) = (6u32, 3u32, 1u32);
        let keep = RepairFilter::Lost {
            scheme: SchemeSpec::Hash {
                key_name: "uid".into(),
                partitions,
                key,
            },
            failed,
            nodes,
        }
        .compile()
        .unwrap();
        let mut kept = 0;
        for i in 0..200u32 {
            let rec = format!("{i}|payload-{i}");
            let p = (fx_hash64(&key.key_of(rec.as_bytes())) % partitions as u64) as u32;
            assert_eq!(keep(rec.as_bytes()), p % nodes == failed, "record {rec}");
            kept += keep(rec.as_bytes()) as u32;
        }
        assert!(kept > 0, "some records must place on the failed slot");
    }

    #[test]
    fn scheme_spec_routing_matches_placement_rule() {
        let scheme = SchemeSpec::Hash {
            key_name: "k".into(),
            partitions: 6,
            key: KeySpec::Field {
                delim: b'|',
                index: 0,
            },
        };
        for i in 0..100u32 {
            let rec = format!("{i}|payload");
            let p = (fx_hash64(rec.split('|').next().unwrap().as_bytes()) % 6) as u32;
            assert_eq!(scheme.partition_of(rec.as_bytes(), i as u64), p);
            assert_eq!(scheme.node_of(rec.as_bytes(), 0, 4), p % 4);
        }
        let rr = SchemeSpec::RoundRobin { partitions: 3 };
        assert_eq!(rr.partition_of(b"x", 0), 0);
        assert_eq!(rr.partition_of(b"x", 4), 1);
        assert_eq!(rr.node_of(b"x", 5, 2), 0);
    }

    #[test]
    fn ingest_tags_separate_provenance_not_content() {
        // Identical bytes from different sources/ordinals keep distinct
        // tags (honest duplicates survive); identical provenance dedups,
        // whatever the bytes.
        let a = ingest_tag(0, 7, b"the");
        assert_eq!(a, ingest_tag(0, 7, b"the"), "retries produce equal tags");
        assert_eq!(a, ingest_tag(0, 7, b"fox"), "a tag is provenance only");
        assert_ne!(a, ingest_tag(1, 7, b"the"));
        assert_ne!(a, ingest_tag(0, 8, b"the"));
        // Injective over (u16 source, 48-bit ordinal), at the edges of
        // both fields, and the source reads back from the top bits.
        let sources = [0u32, 1, 2, 0x7fff, 0x8000, u16::MAX as u32];
        let ordinals = [0u64, 1, 2, 1 << 47, (1 << 48) - 2, (1 << 48) - 1];
        let mut seen = std::collections::HashSet::new();
        for &source in &sources {
            for &ordinal in &ordinals {
                let tag = ingest_tag(source, ordinal, b"");
                assert!(seen.insert(tag), "({source}, {ordinal}) collides");
                assert_eq!(tag >> 48, u64::from(source));
                assert_eq!(u32::from(tag_source(tag)), source);
                assert_eq!(tag & ((1 << 48) - 1), ordinal);
            }
        }
    }

    #[test]
    fn all_filter_keeps_everything_and_rr_lost_is_rejected() {
        let keep = RepairFilter::All.compile().unwrap();
        assert!(keep(b"") && keep(b"anything"));
        assert!(RepairFilter::Lost {
            scheme: SchemeSpec::RoundRobin { partitions: 4 },
            failed: 0,
            nodes: 4,
        }
        .compile()
        .is_err());
    }

    #[test]
    fn absent_filter_roundtrips_and_refuses_standalone_compile() {
        roundtrip(&RepairFilter::Absent);
        // The predicate needs the replacement's ledger; compiling it
        // without one is API misuse, not a silent keep-all.
        assert!(RepairFilter::Absent.compile().is_err());
    }

    #[test]
    fn zero_partition_schemes_are_rejected_at_decode() {
        for spec in [
            SchemeSpec::RoundRobin { partitions: 0 },
            SchemeSpec::Hash {
                key_name: "k".into(),
                partitions: 0,
                key: KeySpec::WholeRecord,
            },
        ] {
            let mut w = ByteWriter::new();
            spec.put(&mut w);
            match SchemeSpec::get(&mut ByteReader::new(w.as_bytes())) {
                Err(PangeaError::Corruption(m)) => assert!(m.contains("zero"), "{m}"),
                other => panic!("zero partitions must not decode: {other:?}"),
            }
        }
    }

    #[test]
    fn wire_metrics_roundtrip() {
        let metrics = [
            WireMetric::Counter {
                name: "rpc.count.Scan".into(),
                value: u64::MAX,
            },
            WireMetric::Gauge {
                name: "mgr.heartbeat_staleness_ms".into(),
                value: 17,
            },
            WireMetric::Histogram {
                name: "rpc.latency_ns.Scan".into(),
                count: 2,
                sum: 3000,
                buckets: vec![0; 64],
            },
        ];
        for m in &metrics {
            roundtrip(m);
        }
    }

    #[test]
    fn wire_spans_roundtrip() {
        let span = WireSpan {
            seq: 3,
            job: (1 << 32) | 9,
            span: 5,
            parent: 4,
            op: "IngestAppend".into(),
            peer: "127.0.0.1:7782".into(),
            start_ns: 1_000,
            end_ns: 2_500,
            bytes: 4096,
            outcome: "node3 is unavailable".into(),
        };
        let mut w = ByteWriter::new();
        span.put(&mut w);
        let mut r = ByteReader::new(w.as_bytes());
        assert_eq!(WireSpan::get(&mut r).unwrap(), span);
        assert!(r.is_exhausted());
        // Truncation anywhere inside is a hard error, never a panic.
        let enc = w.into_bytes();
        for cut in 0..enc.len() {
            assert!(WireSpan::get(&mut ByteReader::new(&enc[..cut])).is_err());
        }
    }
}
