//! Wire representations of control-plane state: partitioning schemes,
//! catalog entries, and cluster membership.
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
//! Every type here travels through `Wire`, the crate's one field
//! codec: each field is a length-prefixed record in a `ByteWriter`
//! stream, integers travel as `u64` records (narrower ones are
//! range-checked on read), and unknown discriminants decode to
//! [`PangeaError::Corruption`].

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

/// [`Wire`] for a struct whose fields travel in the listed order.
macro_rules! wire_struct {
    ($($T:ident { $($field:ident),* })*) => {$(
        impl Wire for $T {
            fn put(&self, w: &mut ByteWriter) {
                $(self.$field.put(w);)*
            }

            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                Ok(Self { $($field: Wire::get(r)?),* })
            }
        }
    )*};
}

wire_struct! {
    TraceCtx { job, span }
    MapSpec { filter, emit }
    Job { input, output, map, reduce, scheme, nodes }
    TaskSpec { job, source, dests }
    WireCatalogEntry { name, scheme, group, objects, bytes }
    WireWorker { node, addr, epoch, state }
    WireSpan { seq, job, span, parent, op, peer, start_ns, end_ns, bytes, outcome }
}

/// A declarative, wire-safe key extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySpec {
    /// The whole record is the key.
    WholeRecord,
    /// Field `index` (0-based) after splitting the record on `delim`;
    /// records with fewer fields key on the empty string.
    Field {
        /// The single-byte field delimiter (e.g. `b'|'`).
        delim: u8,
        /// 0-based field index.
        index: u32,
    },
}

const KEY_WHOLE: u64 = 1;
const KEY_FIELD: u64 = 2;

impl Wire for KeySpec {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::WholeRecord => KEY_WHOLE.put(w),
            Self::Field { delim, index } => {
                KEY_FIELD.put(w);
                delim.put(w);
                index.put(w);
            }
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match u64::get(r)? {
            KEY_WHOLE => Self::WholeRecord,
            KEY_FIELD => Self::Field {
                delim: Wire::get(r)?,
                index: Wire::get(r)?,
            },
            other => return Err(unknown_tag("key-spec", other)),
        })
    }
}

/// The error for a discriminant no variant claims.
fn unknown_tag(kind: &str, tag: u64) -> PangeaError {
    PangeaError::Corruption(format!("unknown {kind} tag {tag}"))
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
    },
    /// Records round-robin over partitions.
    RoundRobin {
        /// Number of partitions.
        partitions: u32,
    },
}

const SCHEME_HASH: u64 = 1;
const SCHEME_RR: u64 = 2;

impl Wire for SchemeSpec {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::Hash {
                key_name,
                partitions,
                key,
            } => {
                SCHEME_HASH.put(w);
                key_name.put(w);
                partitions.put(w);
                key.put(w);
            }
            Self::RoundRobin { partitions } => {
                SCHEME_RR.put(w);
                partitions.put(w);
            }
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let spec = match u64::get(r)? {
            SCHEME_HASH => Self::Hash {
                key_name: Wire::get(r)?,
                partitions: Wire::get(r)?,
                key: Wire::get(r)?,
            },
            SCHEME_RR => Self::RoundRobin {
                partitions: Wire::get(r)?,
            },
            other => return Err(unknown_tag("scheme", other)),
        };
        // The driver-side `PartitionScheme` clamps `partitions` to ≥ 1 at
        // construction; a zero can therefore only reach the wire from a
        // hand-crafted or corrupted frame, and silently clamping it here
        // would let the two sides disagree about the routing rule.
        if spec.raw_partitions() == 0 {
            return Err(PangeaError::Corruption(
                "partition scheme with zero partitions".into(),
            ));
        }
        Ok(spec)
    }
}

impl SchemeSpec {
    fn raw_partitions(&self) -> u32 {
        match self {
            Self::Hash { partitions, .. } | Self::RoundRobin { partitions } => *partitions,
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
    },
    /// Ship every record; the replacement's repair session filters out
    /// what the surviving share already holds (round-robin targets,
    /// whose lost share is defined by absence, not by placement).
    All,
    /// Ship only records *absent* from the replacement's repair-session
    /// ledger: before scanning, the survivor pulls the session's seeded
    /// present-hash ledger from the replacement (paginated like
    /// `HashList`, via `Request::RepairLedger`) and filters at the
    /// source. Same correctness as [`RepairFilter::All`] — the session
    /// still dedups every append — but the surviving share's bytes never
    /// cross the wire, so a round-robin repair ships ~the lost share
    /// instead of every survivor's whole share.
    Absent,
}

const FILTER_LOST: u64 = 1;
const FILTER_ALL: u64 = 2;
const FILTER_ABSENT: u64 = 3;

impl Wire for RepairFilter {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::Lost {
                scheme,
                failed,
                nodes,
            } => {
                FILTER_LOST.put(w);
                scheme.put(w);
                failed.put(w);
                nodes.put(w);
            }
            Self::All => FILTER_ALL.put(w),
            Self::Absent => FILTER_ABSENT.put(w),
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match u64::get(r)? {
            FILTER_LOST => Self::Lost {
                scheme: Wire::get(r)?,
                failed: Wire::get(r)?,
                nodes: Wire::get(r)?,
            },
            FILTER_ALL => Self::All,
            FILTER_ABSENT => Self::Absent,
            other => return Err(unknown_tag("repair-filter", other)),
        })
    }
}

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

/// A declarative, wire-safe record filter — the predicate half of a
/// [`MapSpec`]. Filters evaluate over delimited record bytes, so every
/// worker re-materializes the same predicate from the wire form (UDF
/// closures never cross the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterSpec {
    /// Keep records whose key (per `key`) equals `value` byte-for-byte.
    KeyEquals {
        /// How the compared key is extracted.
        key: KeySpec,
        /// The bytes the key must equal.
        value: Vec<u8>,
    },
    /// Keep records whose key (per `key`) is *not* empty — e.g. drop
    /// rows missing the projected field.
    KeyPresent {
        /// How the checked key is extracted.
        key: KeySpec,
    },
    /// Keep records whose key (per `key`), parsed as a decimal signed
    /// integer, compares against `value` under `cmp`. Records whose key
    /// does not parse fail the predicate (dropped), mirroring SQL's
    /// NULL-comparison semantics.
    KeyCompare {
        /// How the compared key is extracted.
        key: KeySpec,
        /// The comparison to apply (`key <cmp> value`).
        cmp: CmpOp,
        /// The right-hand side of the comparison.
        value: i64,
    },
}

/// A numeric comparison operator for [`FilterSpec::KeyCompare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `key < value`
    Lt,
    /// `key <= value`
    Le,
    /// `key > value`
    Gt,
    /// `key >= value`
    Ge,
    /// `key == value`
    Eq,
    /// `key != value`
    Ne,
}

const CMP_LT: u64 = 1;
const CMP_LE: u64 = 2;
const CMP_GT: u64 = 3;
const CMP_GE: u64 = 4;
const CMP_EQ: u64 = 5;
const CMP_NE: u64 = 6;

impl Wire for CmpOp {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::Lt => CMP_LT,
            Self::Le => CMP_LE,
            Self::Gt => CMP_GT,
            Self::Ge => CMP_GE,
            Self::Eq => CMP_EQ,
            Self::Ne => CMP_NE,
        }
        .put(w);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match u64::get(r)? {
            CMP_LT => Self::Lt,
            CMP_LE => Self::Le,
            CMP_GT => Self::Gt,
            CMP_GE => Self::Ge,
            CMP_EQ => Self::Eq,
            CMP_NE => Self::Ne,
            other => return Err(unknown_tag("comparison-op", other)),
        })
    }
}

impl CmpOp {
    /// Evaluates `lhs <op> rhs`.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Self::Lt => lhs < rhs,
            Self::Le => lhs <= rhs,
            Self::Gt => lhs > rhs,
            Self::Ge => lhs >= rhs,
            Self::Eq => lhs == rhs,
            Self::Ne => lhs != rhs,
        }
    }
}

/// Parses a byte slice as a decimal `i64` with `str::parse` semantics
/// (an optional leading sign, no surrounding whitespace). Shared by the
/// numeric filter predicate and the reduce value extraction, so "is a
/// number" means one thing across the task algebra.
pub(crate) fn parse_i64(bytes: &[u8]) -> Option<i64> {
    std::str::from_utf8(bytes).ok()?.parse().ok()
}

const FILTER_KEY_EQUALS: u64 = 1;
const FILTER_KEY_PRESENT: u64 = 2;
const FILTER_KEY_COMPARE: u64 = 3;

impl Wire for FilterSpec {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::KeyEquals { key, value } => {
                FILTER_KEY_EQUALS.put(w);
                key.put(w);
                value.put(w);
            }
            Self::KeyPresent { key } => {
                FILTER_KEY_PRESENT.put(w);
                key.put(w);
            }
            Self::KeyCompare { key, cmp, value } => {
                FILTER_KEY_COMPARE.put(w);
                key.put(w);
                cmp.put(w);
                value.put(w);
            }
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match u64::get(r)? {
            FILTER_KEY_EQUALS => Self::KeyEquals {
                key: Wire::get(r)?,
                value: Wire::get(r)?,
            },
            FILTER_KEY_PRESENT => Self::KeyPresent { key: Wire::get(r)? },
            FILTER_KEY_COMPARE => Self::KeyCompare {
                key: Wire::get(r)?,
                cmp: Wire::get(r)?,
                value: Wire::get(r)?,
            },
            other => return Err(unknown_tag("filter-spec", other)),
        })
    }
}

impl FilterSpec {
    /// True when `record` passes the filter (allocation-free).
    pub fn keeps(&self, record: &[u8]) -> bool {
        match self {
            Self::KeyEquals { key, value } => key.key_slice(record) == &value[..],
            Self::KeyPresent { key } => !key.key_slice(record).is_empty(),
            Self::KeyCompare { key, cmp, value } => match parse_i64(key.key_slice(record)) {
                Some(lhs) => cmp.eval(lhs, *value),
                None => false,
            },
        }
    }
}

/// What a [`MapSpec`] emits for each surviving record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitSpec {
    /// The record unchanged.
    Record,
    /// The record's key per the spec (key-extract).
    Key(KeySpec),
    /// Selected delimited fields, re-joined with `delim` (projection).
    /// Missing fields project as empty.
    Fields {
        /// The single-byte field delimiter.
        delim: u8,
        /// 0-based field indices, emitted in the given order.
        indices: Vec<u32>,
    },
    /// Flat-map tokenization: split the record on `delim` and emit each
    /// *non-empty* token as its own output record — one input record
    /// emits zero or more outputs (e.g. whitespace-tokenize a raw text
    /// line, so a wordcount needs no pre-split input).
    Tokens {
        /// The single-byte token delimiter (e.g. `b' '`).
        delim: u8,
    },
}

const EMIT_RECORD: u64 = 1;
const EMIT_KEY: u64 = 2;
const EMIT_FIELDS: u64 = 3;
const EMIT_TOKENS: u64 = 4;

impl Wire for EmitSpec {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::Record => EMIT_RECORD.put(w),
            Self::Key(key) => {
                EMIT_KEY.put(w);
                key.put(w);
            }
            Self::Fields { delim, indices } => {
                EMIT_FIELDS.put(w);
                delim.put(w);
                indices.put(w);
            }
            Self::Tokens { delim } => {
                EMIT_TOKENS.put(w);
                delim.put(w);
            }
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match u64::get(r)? {
            EMIT_RECORD => Self::Record,
            EMIT_KEY => Self::Key(Wire::get(r)?),
            EMIT_FIELDS => Self::Fields {
                delim: Wire::get(r)?,
                indices: Wire::get(r)?,
            },
            EMIT_TOKENS => Self::Tokens {
                delim: Wire::get(r)?,
            },
            other => return Err(unknown_tag("emit-spec", other)),
        })
    }
}

impl EmitSpec {
    /// Runs `f` over every output this spec emits for `record`, in
    /// order. The single-emit variants call `f` exactly once;
    /// [`EmitSpec::Tokens`] calls it once per non-empty token (possibly
    /// never). The first error aborts the emission.
    #[inline]
    pub fn emit_each(&self, record: &[u8], f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        match self {
            Self::Record => f(record),
            Self::Key(key) => f(key.key_slice(record)),
            Self::Fields { delim, indices } => {
                let fields: Vec<&[u8]> = record.split(|&b| b == *delim).collect();
                let mut out = Vec::new();
                for (i, idx) in indices.iter().enumerate() {
                    if i > 0 {
                        out.push(*delim);
                    }
                    if let Some(field) = fields.get(*idx as usize) {
                        out.extend_from_slice(field);
                    }
                }
                f(&out)
            }
            Self::Tokens { delim } => {
                for token in record.split(|&b| b == *delim) {
                    if !token.is_empty() {
                        f(token)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// The bytes this spec emits for `record`, for the single-emit
    /// variants. [`EmitSpec::Tokens`] is multi-emit — use
    /// [`EmitSpec::emit_each`]; here it returns the first token (or
    /// empty), as a convenience for diagnostics only.
    pub fn emit(&self, record: &[u8]) -> Vec<u8> {
        let mut first: Option<Vec<u8>> = None;
        let _ = self.emit_each(record, &mut |out| {
            if first.is_none() {
                first = Some(out.to_vec());
            }
            Ok(())
        });
        first.unwrap_or_default()
    }
}

/// A declarative, wire-codable record map: an optional [`FilterSpec`]
/// followed by an [`EmitSpec`] — projection, filter, and key-extraction
/// over delimited fields, in the spirit of [`KeySpec`]/[`SchemeSpec`].
/// Arbitrary UDF closures stay in-process (`SimCluster`); a `MapSpec`
/// is what the driver can ship *to* the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapSpec {
    /// Records failing the filter are dropped before emission.
    pub filter: Option<FilterSpec>,
    /// What each surviving record maps to.
    pub emit: EmitSpec,
}

impl MapSpec {
    /// The identity map: every record emitted unchanged.
    pub fn identity() -> Self {
        Self {
            filter: None,
            emit: EmitSpec::Record,
        }
    }

    /// Emit each record's key per `key` (key-extraction).
    pub fn extract(key: KeySpec) -> Self {
        Self {
            filter: None,
            emit: EmitSpec::Key(key),
        }
    }

    /// Project delimited fields, re-joined with `delim`.
    pub fn project(delim: u8, indices: Vec<u32>) -> Self {
        Self {
            filter: None,
            emit: EmitSpec::Fields { delim, indices },
        }
    }

    /// Flat-map tokenize: emit every non-empty `delim`-separated token
    /// of each record as its own output record.
    pub fn tokenize(delim: u8) -> Self {
        Self {
            filter: None,
            emit: EmitSpec::Tokens { delim },
        }
    }

    /// Adds a filter in front of the emission.
    pub fn with_filter(mut self, filter: FilterSpec) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Runs `f` over every output the map emits for one record — zero
    /// outputs when the record is filtered out, several when the emit
    /// spec is multi-emit ([`EmitSpec::Tokens`]). This is the canonical
    /// application; mapper hot paths use it so flat-map specs work
    /// everywhere. Inlined, with [`EmitSpec::emit_each`], into each
    /// mapper loop: left to codegen-unit placement, the tokenizing map
    /// ran about 30 % slower in some builds of this crate than others.
    #[inline]
    pub fn for_each_emit(
        &self,
        record: &[u8],
        f: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        if let Some(filter) = &self.filter {
            if !filter.keeps(record) {
                return Ok(());
            }
        }
        self.emit.emit_each(record, f)
    }

    /// Applies the map to one record: `None` means the record was
    /// filtered out. Single-emit convenience over
    /// [`MapSpec::for_each_emit`]; for a multi-emit spec this returns
    /// only the first emission.
    pub fn apply(&self, record: &[u8]) -> Option<Vec<u8>> {
        if let Some(f) = &self.filter {
            if !f.keeps(record) {
                return None;
            }
        }
        Some(self.emit.emit(record))
    }
}

/// The fold applied by a [`ReduceSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Number of records per key.
    Count,
    /// Sum of the numeric value field per key.
    Sum,
    /// Minimum of the numeric value field per key.
    Min,
    /// Maximum of the numeric value field per key.
    Max,
}

const REDUCE_COUNT: u64 = 1;
const REDUCE_SUM: u64 = 2;
const REDUCE_MIN: u64 = 3;
const REDUCE_MAX: u64 = 4;

/// A declarative, wire-codable keyed reduction over the map's output:
/// count / sum / min / max of a delimited numeric field, grouped by the
/// record key. A reduce makes the map-shuffle a full distributed
/// map-combine-reduce: mappers pre-aggregate per key before shipping
/// (source-side combine — measurably fewer shuffle bytes) and ship the
/// partials sorted by key, and each destination merges the sources'
/// sorted runs of partials at `IngestEnd`.
///
/// # Record forms
///
/// The reduce sees *mapped* records: `key` extracts the group key from
/// each, and (for `Sum`/`Min`/`Max`) `value_index` names the
/// `delim`-separated field parsed as a decimal `i64` — records whose
/// value does not parse are dropped from the fold. Partial aggregates
/// travel (and the final output materializes) as
/// `key ++ [delim] ++ decimal(value)` records, so the reduced output is
/// a normal delimited set: its key is field 0, its value the last
/// field. Because every fold here (`Sum`-merge for `Count`, else the op
/// itself, over wrapping `i64`) is associative and commutative, the
/// distributed combine-then-merge equals the serial single-fold
/// reference record-for-record.
///
/// The delimiter must not be a byte a rendered decimal value can
/// contain (`-` or a digit) — the partial encoding splits at the *last*
/// delimiter and such a byte would make the split ambiguous. Rejected
/// at wire decode ([`PangeaError::Corruption`]) and at job validation;
/// see [`ReduceSpec::delim_ok`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceSpec {
    /// How the group key is extracted from a *mapped* record.
    pub key: KeySpec,
    /// The fold to apply per key.
    pub op: ReduceOp,
    /// Single-byte delimiter: separates `value_index` fields in mapped
    /// records, and separates key from value in partial/output records.
    pub delim: u8,
    /// For `Sum`/`Min`/`Max`: 0-based index of the numeric field in the
    /// mapped record. Ignored by `Count`.
    pub value_index: u32,
}

impl ReduceSpec {
    /// Count records per key (wordcount's fold).
    pub fn count(key: KeySpec, delim: u8) -> Self {
        Self {
            key,
            op: ReduceOp::Count,
            delim,
            value_index: 0,
        }
    }

    /// Sum field `value_index` per key.
    pub fn sum(key: KeySpec, delim: u8, value_index: u32) -> Self {
        Self {
            key,
            op: ReduceOp::Sum,
            delim,
            value_index,
        }
    }

    /// Minimum of field `value_index` per key.
    pub fn min(key: KeySpec, delim: u8, value_index: u32) -> Self {
        Self {
            key,
            op: ReduceOp::Min,
            delim,
            value_index,
        }
    }

    /// Maximum of field `value_index` per key.
    pub fn max(key: KeySpec, delim: u8, value_index: u32) -> Self {
        Self {
            key,
            op: ReduceOp::Max,
            delim,
            value_index,
        }
    }

    /// True when `delim` can delimit reduce partials: a rendered
    /// decimal `i64` contains only digits and `-`, so any other byte
    /// splits `key ++ [delim] ++ decimal(value)` unambiguously at its
    /// last occurrence. A digit or `-` delimiter would let the value's
    /// own bytes masquerade as the delimiter (`k--17` splitting into
    /// `k-` / `17`), silently corrupting the fold.
    pub fn delim_ok(delim: u8) -> bool {
        delim != b'-' && !delim.is_ascii_digit()
    }

    /// Extracts `(group key, initial accumulator value)` from one
    /// *mapped* record; `None` drops the record from the fold (missing
    /// or non-numeric value field).
    pub fn accumulate(&self, mapped: &[u8]) -> Option<(Vec<u8>, i64)> {
        let key = self.key.key_of(mapped);
        let value = match self.op {
            ReduceOp::Count => 1,
            ReduceOp::Sum | ReduceOp::Min | ReduceOp::Max => parse_i64(
                KeySpec::Field {
                    delim: self.delim,
                    index: self.value_index,
                }
                .key_slice(mapped),
            )?,
        };
        Some((key, value))
    }

    /// Merges two accumulator values. `Count` partials merge by
    /// addition (a count of counts is a sum); addition wraps so the
    /// merge stays associative and commutative — the property the
    /// combine-then-merge parity contract rests on.
    pub fn merge(&self, a: i64, b: i64) -> i64 {
        match self.op {
            ReduceOp::Count | ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// The op's merge as a plain function pointer, the shape the
    /// spillable `ReduceBuffer` accumulator stores (same semantics as
    /// [`ReduceSpec::merge`], expressed in-place).
    pub fn merge_fn(&self) -> fn(&mut i64, i64) {
        match self.op {
            ReduceOp::Count | ReduceOp::Sum => |a, b| *a = a.wrapping_add(b),
            ReduceOp::Min => |a, b| *a = (*a).min(b),
            ReduceOp::Max => |a, b| *a = (*a).max(b),
        }
    }

    /// Folds one `(key, value)` into a keyed accumulator, merging with
    /// the key's existing slot or inserting on first sight. The single
    /// definition of the fold — source-side combine, destination merge,
    /// and the serial reference all go through it, so their semantics
    /// cannot drift apart.
    pub fn fold_into(
        &self,
        acc: &mut std::collections::BTreeMap<Vec<u8>, i64>,
        key: &[u8],
        value: i64,
    ) {
        match acc.get_mut(key) {
            Some(a) => *a = self.merge(*a, value),
            None => {
                acc.insert(key.to_vec(), value);
            }
        }
    }

    /// Encodes one `(key, value)` accumulator entry as a partial/output
    /// record: `key ++ [delim] ++ decimal(value)`.
    pub fn encode_record(&self, key: &[u8], value: i64) -> Vec<u8> {
        let digits = value.to_string();
        let mut out = Vec::with_capacity(key.len() + 1 + digits.len());
        out.extend_from_slice(key);
        out.push(self.delim);
        out.extend_from_slice(digits.as_bytes());
        out
    }

    /// Decodes a partial/output record back into `(key, value)`: the
    /// value is everything after the *last* delimiter (the rendered
    /// value never contains one), so keys may themselves contain the
    /// delimiter.
    pub fn decode_record<'a>(&self, record: &'a [u8]) -> Result<(&'a [u8], i64)> {
        let split = record
            .iter()
            .rposition(|&b| b == self.delim)
            .ok_or_else(|| {
                PangeaError::Corruption(format!(
                    "reduce partial without a '{}' delimiter: {record:?}",
                    self.delim as char
                ))
            })?;
        let value = parse_i64(&record[split + 1..]).ok_or_else(|| {
            PangeaError::Corruption(format!(
                "reduce partial with a non-numeric value: {record:?}"
            ))
        })?;
        Ok((&record[..split], value))
    }
}

impl Wire for ReduceSpec {
    fn put(&self, w: &mut ByteWriter) {
        match self.op {
            ReduceOp::Count => REDUCE_COUNT,
            ReduceOp::Sum => REDUCE_SUM,
            ReduceOp::Min => REDUCE_MIN,
            ReduceOp::Max => REDUCE_MAX,
        }
        .put(w);
        self.key.put(w);
        self.delim.put(w);
        self.value_index.put(w);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let op = match u64::get(r)? {
            REDUCE_COUNT => ReduceOp::Count,
            REDUCE_SUM => ReduceOp::Sum,
            REDUCE_MIN => ReduceOp::Min,
            REDUCE_MAX => ReduceOp::Max,
            other => return Err(unknown_tag("reduce-op", other)),
        };
        let key = Wire::get(r)?;
        let delim = Wire::get(r)?;
        if !Self::delim_ok(delim) {
            return Err(PangeaError::Corruption(format!(
                "reduce delimiter {delim:#04x} can appear inside a rendered \
                 decimal value; pick a non-digit, non-'-' byte"
            )));
        }
        Ok(Self {
            key,
            op,
            delim,
            value_index: Wire::get(r)?,
        })
    }
}

/// One map job, as the driver plans it once and ships it to every
/// worker: scan each worker's local share of `input`, apply `map`
/// (combining per key first when `reduce` is given), route each output
/// record by `scheme` striping over `nodes`, and stream batches
/// straight to the destination workers' ingest sessions for `output`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// The worker-local input set to scan.
    pub input: String,
    /// The destination set (ingest sessions must be open on every
    /// destination before the task runs).
    pub output: String,
    /// The per-record transform.
    pub map: MapSpec,
    /// When present, the mapper pre-aggregates its mapped output per
    /// key (source-side combine) and ships encoded partials instead of
    /// raw records, sorted by key; destinations merge each source's run
    /// of partials in their reducing ingest sessions. Must pair with a
    /// hash `scheme` keyed by field 0 under the reduce's delimiter, so
    /// placement is key-determined.
    pub reduce: Option<ReduceSpec>,
    /// Output partitioning (declarative — it crosses the wire).
    pub scheme: SchemeSpec,
    /// Fleet width the output partitions stripe over.
    pub nodes: u32,
}

/// One map task as shipped to a worker (`Request::TaskRun`): the
/// [`Job`] plus what only the backend knows — which worker runs it and
/// where every destination lives. The driver only plans and collects
/// the [`TaskReport`] — no record payload ever touches its connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// The job every worker runs against its own share.
    pub job: Job,
    /// The executing worker's slot, for provenance tags
    /// ([`ingest_tag`]) — stable across task retries, and at most
    /// `u16::MAX`, the widest slot a tag carries. Contract: this
    /// names the daemon the task runs on, so records routing to the
    /// `source` slot are appended into the daemon's *own* ingest
    /// session directly (no loopback RPC).
    pub source: u32,
    /// Destination daemons: `(slot, advertised addr)` for every alive
    /// worker.
    pub dests: Vec<(u32, String)>,
}

/// Outcome of one shipped map task, as acknowledged over the wire
/// (`Response::TaskDone`) and aggregated by the map-shuffle engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskReport {
    /// Records the worker scanned in its local input share.
    pub scanned: u64,
    /// Records that survived the map and were shipped.
    pub emitted: u64,
    /// Payload bytes shipped worker→worker.
    pub emitted_bytes: u64,
    /// Records the destinations actually appended (post-dedup).
    pub appended: u64,
    /// Payload bytes the destinations actually appended.
    pub appended_bytes: u64,
}

impl TaskReport {
    /// Component-wise sum with another report.
    pub fn merge(&mut self, other: &TaskReport) {
        self.scanned += other.scanned;
        self.emitted += other.emitted;
        self.emitted_bytes += other.emitted_bytes;
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

/// A worker's liveness state at the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Registered and heartbeating within the liveness timeout.
    Alive,
    /// Missed enough heartbeats to be declared dead (feeds recovery).
    Dead,
    /// Deregistered on clean shutdown.
    Left,
}

const STATE_ALIVE: u64 = 1;
const STATE_DEAD: u64 = 2;
const STATE_LEFT: u64 = 3;

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

impl Wire for WorkerState {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::Alive => STATE_ALIVE,
            Self::Dead => STATE_DEAD,
            Self::Left => STATE_LEFT,
        }
        .put(w);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match u64::get(r)? {
            STATE_ALIVE => Self::Alive,
            STATE_DEAD => Self::Dead,
            STATE_LEFT => Self::Left,
            other => return Err(unknown_tag("worker-state", other)),
        })
    }
}

const METRIC_COUNTER: u64 = 1;
const METRIC_GAUGE: u64 = 2;
const METRIC_HISTOGRAM: u64 = 3;

/// One named metric in a `MetricsDump` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMetric {
    /// A monotonic counter.
    Counter {
        /// Registry name (e.g. `rpc.count.TaskRun`).
        name: String,
        /// Value at dump time.
        value: u64,
    },
    /// A last-write-wins gauge.
    Gauge {
        /// Registry name (e.g. `mgr.heartbeat_staleness_ms`).
        name: String,
        /// Value at dump time.
        value: u64,
    },
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
    },
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

impl Wire for WireMetric {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::Counter { name, value } => {
                METRIC_COUNTER.put(w);
                name.put(w);
                value.put(w);
            }
            Self::Gauge { name, value } => {
                METRIC_GAUGE.put(w);
                name.put(w);
                value.put(w);
            }
            Self::Histogram {
                name,
                count,
                sum,
                buckets,
            } => {
                METRIC_HISTOGRAM.put(w);
                name.put(w);
                count.put(w);
                sum.put(w);
                buckets.put(w);
            }
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match u64::get(r)? {
            METRIC_COUNTER => Self::Counter {
                name: Wire::get(r)?,
                value: Wire::get(r)?,
            },
            METRIC_GAUGE => Self::Gauge {
                name: Wire::get(r)?,
                value: Wire::get(r)?,
            },
            METRIC_HISTOGRAM => Self::Histogram {
                name: Wire::get(r)?,
                count: Wire::get(r)?,
                sum: Wire::get(r)?,
                buckets: Wire::get(r)?,
            },
            other => return Err(unknown_tag("wire-metric", other)),
        })
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
mod tests {
    use super::*;

    fn roundtrip_scheme(s: SchemeSpec) {
        let mut w = ByteWriter::new();
        s.put(&mut w);
        let mut r = ByteReader::new(w.as_bytes());
        assert_eq!(SchemeSpec::get(&mut r).unwrap(), s);
    }

    #[test]
    fn schemes_roundtrip() {
        roundtrip_scheme(SchemeSpec::RoundRobin { partitions: 8 });
        roundtrip_scheme(SchemeSpec::Hash {
            key_name: "l_orderkey".into(),
            partitions: 12,
            key: KeySpec::Field {
                delim: b'|',
                index: 3,
            },
        });
        roundtrip_scheme(SchemeSpec::Hash {
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

    #[test]
    fn unknown_tags_are_corruption() {
        let mut w = ByteWriter::new();
        w.write_record(&99u64);
        let bytes = w.as_bytes().to_vec();
        assert!(SchemeSpec::get(&mut ByteReader::new(&bytes)).is_err());
        assert!(KeySpec::get(&mut ByteReader::new(&bytes)).is_err());
        assert!(RepairFilter::get(&mut ByteReader::new(&bytes)).is_err());
    }

    fn roundtrip_filter(f: RepairFilter) {
        let mut w = ByteWriter::new();
        f.put(&mut w);
        let mut r = ByteReader::new(w.as_bytes());
        assert_eq!(RepairFilter::get(&mut r).unwrap(), f);
    }

    #[test]
    fn repair_filters_roundtrip() {
        roundtrip_filter(RepairFilter::All);
        roundtrip_filter(RepairFilter::Lost {
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

    fn roundtrip_map(m: MapSpec) {
        let mut w = ByteWriter::new();
        m.put(&mut w);
        let mut r = ByteReader::new(w.as_bytes());
        assert_eq!(MapSpec::get(&mut r).unwrap(), m);
    }

    #[test]
    fn map_specs_roundtrip_and_apply() {
        roundtrip_map(MapSpec::identity());
        roundtrip_map(MapSpec::extract(KeySpec::Field {
            delim: b'|',
            index: 2,
        }));
        roundtrip_map(
            MapSpec::project(b'|', vec![1, 0, 3]).with_filter(FilterSpec::KeyEquals {
                key: KeySpec::Field {
                    delim: b'|',
                    index: 0,
                },
                value: b"7".to_vec(),
            }),
        );
        roundtrip_map(MapSpec::identity().with_filter(FilterSpec::KeyPresent {
            key: KeySpec::Field {
                delim: b'|',
                index: 1,
            },
        }));

        assert_eq!(MapSpec::identity().apply(b"a|b"), Some(b"a|b".to_vec()));
        let extract = MapSpec::extract(KeySpec::Field {
            delim: b'|',
            index: 1,
        });
        assert_eq!(extract.apply(b"a|bb|c"), Some(b"bb".to_vec()));
        let project = MapSpec::project(b'|', vec![2, 0]);
        assert_eq!(project.apply(b"a|bb|ccc"), Some(b"ccc|a".to_vec()));
        assert_eq!(project.apply(b"a"), Some(b"|a".to_vec()), "missing = empty");
        let filtered = MapSpec::identity().with_filter(FilterSpec::KeyEquals {
            key: KeySpec::Field {
                delim: b'|',
                index: 0,
            },
            value: b"keep".to_vec(),
        });
        assert_eq!(filtered.apply(b"keep|x"), Some(b"keep|x".to_vec()));
        assert_eq!(filtered.apply(b"drop|x"), None);
        let present = MapSpec::identity().with_filter(FilterSpec::KeyPresent {
            key: KeySpec::Field {
                delim: b'|',
                index: 1,
            },
        });
        assert_eq!(present.apply(b"a|b"), Some(b"a|b".to_vec()));
        assert_eq!(present.apply(b"a"), None);
    }

    #[test]
    fn task_specs_roundtrip() {
        let spec = TaskSpec {
            job: Job {
                input: "lines".into(),
                output: "words".into(),
                map: MapSpec::extract(KeySpec::Field {
                    delim: b'|',
                    index: 1,
                }),
                reduce: Some(ReduceSpec::count(KeySpec::WholeRecord, b'|')),
                scheme: SchemeSpec::Hash {
                    key_name: "word".into(),
                    partitions: 8,
                    key: KeySpec::WholeRecord,
                },
                nodes: 4,
            },
            source: 2,
            dests: vec![
                (0, "127.0.0.1:7781".into()),
                (1, "127.0.0.1:7782".into()),
                (3, "127.0.0.1:7784".into()),
            ],
        };
        let mut w = ByteWriter::new();
        spec.put(&mut w);
        let mut r = ByteReader::new(w.as_bytes());
        assert_eq!(TaskSpec::get(&mut r).unwrap(), spec);
        // The job's fields travel flat, in order, before `source` and
        // `dests`: nesting them in `Job` left the wire bytes unchanged.
        let mut flat = ByteWriter::new();
        let job = &spec.job;
        job.input.put(&mut flat);
        job.output.put(&mut flat);
        job.map.put(&mut flat);
        job.reduce.put(&mut flat);
        job.scheme.put(&mut flat);
        job.nodes.put(&mut flat);
        spec.source.put(&mut flat);
        spec.dests.put(&mut flat);
        assert_eq!(w.as_bytes(), flat.as_bytes());
        // Unknown filter/emit tags decode to corruption, like every spec.
        let mut w = ByteWriter::new();
        w.write_record(&99u64);
        let bytes = w.as_bytes().to_vec();
        assert!(FilterSpec::get(&mut ByteReader::new(&bytes)).is_err());
        assert!(EmitSpec::get(&mut ByteReader::new(&bytes)).is_err());
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
        roundtrip_filter(RepairFilter::Absent);
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
    fn tokens_flat_map_emits_every_nonempty_token() {
        let map = MapSpec::tokenize(b' ');
        let mut out = Vec::new();
        map.for_each_emit(b"the  quick fox ", &mut |t| {
            out.push(t.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(
            out,
            vec![b"the".to_vec(), b"quick".to_vec(), b"fox".to_vec()]
        );
        // Filter composes in front of the tokenization.
        let filtered = MapSpec::tokenize(b' ').with_filter(FilterSpec::KeyPresent {
            key: KeySpec::WholeRecord,
        });
        let mut n = 0;
        filtered
            .for_each_emit(b"", &mut |_| {
                n += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 0, "an empty record is filtered before tokenizing");
        // The wire form survives the trip like every emit spec.
        roundtrip_map(MapSpec::tokenize(b','));
    }

    #[test]
    fn numeric_filters_compare_and_drop_unparsable_keys() {
        let key = KeySpec::Field {
            delim: b'|',
            index: 1,
        };
        let over = FilterSpec::KeyCompare {
            key,
            cmp: CmpOp::Gt,
            value: 10,
        };
        assert!(over.keeps(b"a|11"));
        assert!(!over.keeps(b"a|10"));
        assert!(!over.keeps(b"a|not-a-number"), "unparsable drops");
        assert!(!over.keeps(b"a"), "missing field drops");
        let negative = FilterSpec::KeyCompare {
            key,
            cmp: CmpOp::Le,
            value: -3,
        };
        assert!(negative.keeps(b"x|-4"));
        assert!(!negative.keeps(b"x|-2"));
        for cmp in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            roundtrip_map(MapSpec::identity().with_filter(FilterSpec::KeyCompare {
                key,
                cmp,
                value: -42,
            }));
        }
    }

    #[test]
    fn reduce_specs_roundtrip_fold_and_encode() {
        let count = ReduceSpec::count(KeySpec::WholeRecord, b'|');
        for spec in [
            count.clone(),
            ReduceSpec::sum(
                KeySpec::Field {
                    delim: b'|',
                    index: 0,
                },
                b'|',
                1,
            ),
            ReduceSpec::min(KeySpec::WholeRecord, b',', 2),
            ReduceSpec::max(KeySpec::WholeRecord, b'\t', 3),
        ] {
            let mut w = ByteWriter::new();
            spec.put(&mut w);
            let mut r = ByteReader::new(w.as_bytes());
            assert_eq!(ReduceSpec::get(&mut r).unwrap(), spec);
        }

        // Count: every mapped record is worth 1; merge is addition.
        assert_eq!(count.accumulate(b"the"), Some((b"the".to_vec(), 1)));
        assert_eq!(count.merge(2, 3), 5);
        // Sum/min/max parse the value field; unparsable drops.
        let sum = ReduceSpec::sum(
            KeySpec::Field {
                delim: b'|',
                index: 0,
            },
            b'|',
            1,
        );
        assert_eq!(sum.accumulate(b"k|7"), Some((b"k".to_vec(), 7)));
        assert_eq!(sum.accumulate(b"k|x"), None);
        assert_eq!(sum.accumulate(b"k"), None);
        let min = ReduceSpec::min(KeySpec::WholeRecord, b'|', 1);
        assert_eq!(min.merge(4, -2), -2);
        let max = ReduceSpec::max(KeySpec::WholeRecord, b'|', 1);
        assert_eq!(max.merge(4, -2), 4);

        // Partials encode as key|value and decode at the *last* delim,
        // so a key containing the delimiter survives the trip.
        let enc = count.encode_record(b"a|b", -17);
        assert_eq!(enc, b"a|b|-17".to_vec());
        assert_eq!(count.decode_record(&enc).unwrap(), (&b"a|b"[..], -17));
        assert!(count.decode_record(b"no-delim").is_err());
        assert!(count.decode_record(b"k|nan").is_err());
    }

    #[test]
    fn wire_metrics_roundtrip_and_reject_unknown_tags() {
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
            let mut w = ByteWriter::new();
            m.put(&mut w);
            let mut r = ByteReader::new(w.as_bytes());
            assert_eq!(&WireMetric::get(&mut r).unwrap(), m);
            assert!(r.is_exhausted());
        }
        let mut w = ByteWriter::new();
        w.write_record(&99u64);
        w.write_record(&"bogus".to_string());
        assert!(matches!(
            WireMetric::get(&mut ByteReader::new(w.as_bytes())),
            Err(PangeaError::Corruption(_))
        ));
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
