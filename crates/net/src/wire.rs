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
//! Encoding follows the [`crate::proto`] conventions: every field is a
//! length-prefixed record in a `ByteWriter` stream, integers travel as
//! `u64`, and unknown discriminants decode to [`PangeaError::Corruption`].

use pangea_common::{fx_hash64, ByteReader, ByteWriter, PangeaError, Result};

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

impl KeySpec {
    pub(crate) fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::WholeRecord => w.write_record(&KEY_WHOLE),
            Self::Field { delim, index } => {
                w.write_record(&KEY_FIELD);
                w.write_record(&(*delim as u64));
                w.write_record(&(*index as u64));
            }
        }
    }

    pub(crate) fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let tag: u64 = r.read_record()?;
        Ok(match tag {
            KEY_WHOLE => Self::WholeRecord,
            KEY_FIELD => Self::Field {
                delim: r.read_record::<u64>()? as u8,
                index: r.read_record::<u64>()? as u32,
            },
            other => {
                return Err(PangeaError::Corruption(format!(
                    "unknown key-spec tag {other}"
                )))
            }
        })
    }

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

impl SchemeSpec {
    pub(crate) fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::Hash {
                key_name,
                partitions,
                key,
            } => {
                w.write_record(&SCHEME_HASH);
                w.write_record(key_name);
                w.write_record(&(*partitions as u64));
                key.put(w);
            }
            Self::RoundRobin { partitions } => {
                w.write_record(&SCHEME_RR);
                w.write_record(&(*partitions as u64));
            }
        }
    }

    pub(crate) fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let tag: u64 = r.read_record()?;
        let spec = match tag {
            SCHEME_HASH => Self::Hash {
                key_name: r.read_record()?,
                partitions: r.read_record::<u64>()? as u32,
                key: KeySpec::get(r)?,
            },
            SCHEME_RR => Self::RoundRobin {
                partitions: r.read_record::<u64>()? as u32,
            },
            other => {
                return Err(PangeaError::Corruption(format!(
                    "unknown scheme tag {other}"
                )))
            }
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

impl RepairFilter {
    pub(crate) fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::Lost {
                scheme,
                failed,
                nodes,
            } => {
                w.write_record(&FILTER_LOST);
                scheme.put(w);
                w.write_record(&(*failed as u64));
                w.write_record(&(*nodes as u64));
            }
            Self::All => w.write_record(&FILTER_ALL),
            Self::Absent => w.write_record(&FILTER_ABSENT),
        }
    }

    pub(crate) fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let tag: u64 = r.read_record()?;
        Ok(match tag {
            FILTER_LOST => Self::Lost {
                scheme: SchemeSpec::get(r)?,
                failed: r.read_record::<u64>()? as u32,
                nodes: r.read_record::<u64>()? as u32,
            },
            FILTER_ALL => Self::All,
            FILTER_ABSENT => Self::Absent,
            other => {
                return Err(PangeaError::Corruption(format!(
                    "unknown repair-filter tag {other}"
                )))
            }
        })
    }

    /// Compiles the filter into a per-record predicate: `true` means the
    /// record must be shipped. Mirrors `PartitionScheme::node_of` exactly
    /// (`hash(key) % partitions`, partitions striping over nodes), so a
    /// survivor's local decision matches the placement the dispatcher
    /// used. Fails on a `Lost` filter over a round-robin scheme, and on
    /// `Absent`, whose predicate is not self-contained — the survivor
    /// resolves it against the target's session ledger (see
    /// `Pangead::recover_push`).
    pub fn compile(&self) -> Result<Box<dyn Fn(&[u8]) -> bool + Send + Sync>> {
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

impl CmpOp {
    fn wire_tag(self) -> u64 {
        match self {
            Self::Lt => CMP_LT,
            Self::Le => CMP_LE,
            Self::Gt => CMP_GT,
            Self::Ge => CMP_GE,
            Self::Eq => CMP_EQ,
            Self::Ne => CMP_NE,
        }
    }

    fn from_wire(tag: u64) -> Result<Self> {
        Ok(match tag {
            CMP_LT => Self::Lt,
            CMP_LE => Self::Le,
            CMP_GT => Self::Gt,
            CMP_GE => Self::Ge,
            CMP_EQ => Self::Eq,
            CMP_NE => Self::Ne,
            other => {
                return Err(PangeaError::Corruption(format!(
                    "unknown comparison-op tag {other}"
                )))
            }
        })
    }

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

impl FilterSpec {
    pub(crate) fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::KeyEquals { key, value } => {
                w.write_record(&FILTER_KEY_EQUALS);
                key.put(w);
                w.write_bytes(value);
            }
            Self::KeyPresent { key } => {
                w.write_record(&FILTER_KEY_PRESENT);
                key.put(w);
            }
            Self::KeyCompare { key, cmp, value } => {
                w.write_record(&FILTER_KEY_COMPARE);
                key.put(w);
                w.write_record(&cmp.wire_tag());
                w.write_record(&(*value as u64));
            }
        }
    }

    pub(crate) fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let tag: u64 = r.read_record()?;
        Ok(match tag {
            FILTER_KEY_EQUALS => Self::KeyEquals {
                key: KeySpec::get(r)?,
                value: r.read_bytes()?.to_vec(),
            },
            FILTER_KEY_PRESENT => Self::KeyPresent {
                key: KeySpec::get(r)?,
            },
            FILTER_KEY_COMPARE => Self::KeyCompare {
                key: KeySpec::get(r)?,
                cmp: CmpOp::from_wire(r.read_record()?)?,
                value: r.read_record::<u64>()? as i64,
            },
            other => {
                return Err(PangeaError::Corruption(format!(
                    "unknown filter-spec tag {other}"
                )))
            }
        })
    }

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

impl EmitSpec {
    pub(crate) fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::Record => w.write_record(&EMIT_RECORD),
            Self::Key(key) => {
                w.write_record(&EMIT_KEY);
                key.put(w);
            }
            Self::Fields { delim, indices } => {
                w.write_record(&EMIT_FIELDS);
                w.write_record(&(*delim as u64));
                w.write_record(&(indices.len() as u64));
                for i in indices {
                    w.write_record(&(*i as u64));
                }
            }
            Self::Tokens { delim } => {
                w.write_record(&EMIT_TOKENS);
                w.write_record(&(*delim as u64));
            }
        }
    }

    pub(crate) fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let tag: u64 = r.read_record()?;
        Ok(match tag {
            EMIT_RECORD => Self::Record,
            EMIT_KEY => Self::Key(KeySpec::get(r)?),
            EMIT_FIELDS => {
                let delim = r.read_record::<u64>()? as u8;
                let n: u64 = r.read_record()?;
                let mut indices = Vec::with_capacity(n.min(1 << 16) as usize);
                for _ in 0..n {
                    indices.push(r.read_record::<u64>()? as u32);
                }
                Self::Fields { delim, indices }
            }
            EMIT_TOKENS => Self::Tokens {
                delim: r.read_record::<u64>()? as u8,
            },
            other => {
                return Err(PangeaError::Corruption(format!(
                    "unknown emit-spec tag {other}"
                )))
            }
        })
    }

    /// Runs `f` over every output this spec emits for `record`, in
    /// order. The single-emit variants call `f` exactly once;
    /// [`EmitSpec::Tokens`] calls it once per non-empty token (possibly
    /// never). The first error aborts the emission.
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
    /// everywhere.
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

    pub(crate) fn put(&self, w: &mut ByteWriter) {
        w.write_record(&(self.filter.is_some() as u64));
        if let Some(f) = &self.filter {
            f.put(w);
        }
        self.emit.put(w);
    }

    pub(crate) fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let has_filter: u64 = r.read_record()?;
        let filter = if has_filter != 0 {
            Some(FilterSpec::get(r)?)
        } else {
            None
        };
        Ok(Self {
            filter,
            emit: EmitSpec::get(r)?,
        })
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
/// (source-side combine — measurably fewer shuffle bytes), and each
/// destination folds the incoming partials into one accumulator,
/// materialized at `IngestEnd`.
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

    pub(crate) fn put(&self, w: &mut ByteWriter) {
        w.write_record(&match self.op {
            ReduceOp::Count => REDUCE_COUNT,
            ReduceOp::Sum => REDUCE_SUM,
            ReduceOp::Min => REDUCE_MIN,
            ReduceOp::Max => REDUCE_MAX,
        });
        self.key.put(w);
        w.write_record(&(self.delim as u64));
        w.write_record(&(self.value_index as u64));
    }

    pub(crate) fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let op = match r.read_record::<u64>()? {
            REDUCE_COUNT => ReduceOp::Count,
            REDUCE_SUM => ReduceOp::Sum,
            REDUCE_MIN => ReduceOp::Min,
            REDUCE_MAX => ReduceOp::Max,
            other => {
                return Err(PangeaError::Corruption(format!(
                    "unknown reduce-op tag {other}"
                )))
            }
        };
        let key = KeySpec::get(r)?;
        let delim = r.read_record::<u64>()? as u8;
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
            value_index: r.read_record::<u64>()? as u32,
        })
    }

    pub(crate) fn put_opt(spec: &Option<ReduceSpec>, w: &mut ByteWriter) {
        w.write_record(&(spec.is_some() as u64));
        if let Some(spec) = spec {
            spec.put(w);
        }
    }

    pub(crate) fn get_opt(r: &mut ByteReader<'_>) -> Result<Option<Self>> {
        let present: u64 = r.read_record()?;
        Ok(if present != 0 {
            Some(Self::get(r)?)
        } else {
            None
        })
    }
}

/// One map task as shipped to a worker (`Request::TaskRun`): scan the
/// local share of `input`, apply `map`, route each output record by
/// `scheme` striping over `nodes`, and stream batches straight to the
/// destination worker's ingest session for `output`. The driver only
/// plans and collects the [`TaskReport`] — no record payload ever
/// touches its connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// The worker-local input set to scan.
    pub input: String,
    /// The destination set (ingest sessions must be open on every
    /// destination before the task runs).
    pub output: String,
    /// The per-record transform.
    pub map: MapSpec,
    /// When present, the mapper pre-aggregates its mapped output per
    /// key (source-side combine) and ships encoded partials instead of
    /// raw records; destinations fold the partials in their reducing
    /// ingest sessions. Must pair with a hash `scheme` keyed by field 0
    /// under the reduce's delimiter, so placement is key-determined.
    pub reduce: Option<ReduceSpec>,
    /// Output partitioning (declarative — it crossed the wire).
    pub scheme: SchemeSpec,
    /// Fleet width the output partitions stripe over.
    pub nodes: u32,
    /// The executing worker's slot, for provenance tags
    /// ([`ingest_tag`]) — stable across task retries. Contract: this
    /// names the daemon the task runs on, so records routing to the
    /// `source` slot are appended into the daemon's *own* ingest
    /// session directly (no loopback RPC).
    pub source: u32,
    /// Destination daemons: `(slot, advertised addr)` for every alive
    /// worker.
    pub dests: Vec<(u32, String)>,
}

impl TaskSpec {
    pub(crate) fn put(&self, w: &mut ByteWriter) {
        w.write_record(&self.input);
        w.write_record(&self.output);
        self.map.put(w);
        ReduceSpec::put_opt(&self.reduce, w);
        self.scheme.put(w);
        w.write_record(&(self.nodes as u64));
        w.write_record(&(self.source as u64));
        w.write_record(&(self.dests.len() as u64));
        for (node, addr) in &self.dests {
            w.write_record(&(*node as u64));
            w.write_record(addr);
        }
    }

    pub(crate) fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let input = r.read_record()?;
        let output = r.read_record()?;
        let map = MapSpec::get(r)?;
        let reduce = ReduceSpec::get_opt(r)?;
        let scheme = SchemeSpec::get(r)?;
        let nodes = r.read_record::<u64>()? as u32;
        let source = r.read_record::<u64>()? as u32;
        let n: u64 = r.read_record()?;
        let mut dests = Vec::with_capacity(n.min(1 << 20) as usize);
        for _ in 0..n {
            dests.push((r.read_record::<u64>()? as u32, r.read_record()?));
        }
        Ok(Self {
            input,
            output,
            map,
            reduce,
            scheme,
            nodes,
            source,
            dests,
        })
    }
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

/// The provenance tag an ingest session dedups on: a hash of the
/// mapper's slot, the input record's scan ordinal, and the emitted
/// bytes. A retried task re-scans the same local share in the same
/// storage order, so its tags are identical and every re-pushed record
/// dedups away — while two *legitimately identical* output records
/// (different source or ordinal) keep distinct tags and are both
/// appended. (Contrast repair sessions, which dedup on record content:
/// a restored set holds each lost record once, but a shuffle output may
/// contain honest duplicates.)
pub fn ingest_tag(source: u32, ordinal: u64, record: &[u8]) -> u64 {
    // Stack buffer of (source, ordinal, hash(record)) — no per-record
    // heap allocation or payload copy on the mapper hot path.
    let mut buf = [0u8; 20];
    buf[..4].copy_from_slice(&source.to_le_bytes());
    buf[4..12].copy_from_slice(&ordinal.to_le_bytes());
    buf[12..].copy_from_slice(&fx_hash64(record).to_le_bytes());
    fx_hash64(&buf)
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

impl WireCatalogEntry {
    pub(crate) fn put(&self, w: &mut ByteWriter) {
        w.write_record(&self.name);
        self.scheme.put(w);
        // 0 marks "no group"; real group ids start at 1.
        w.write_record(&self.group.unwrap_or(0));
        w.write_record(&self.objects);
        w.write_record(&self.bytes);
    }

    pub(crate) fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let name = r.read_record()?;
        let scheme = SchemeSpec::get(r)?;
        let group: u64 = r.read_record()?;
        Ok(Self {
            name,
            scheme,
            group: (group != 0).then_some(group),
            objects: r.read_record()?,
            bytes: r.read_record()?,
        })
    }
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

impl WireWorker {
    pub(crate) fn put(&self, w: &mut ByteWriter) {
        w.write_record(&(self.node as u64));
        w.write_record(&self.addr);
        w.write_record(&self.epoch);
        w.write_record(&match self.state {
            WorkerState::Alive => STATE_ALIVE,
            WorkerState::Dead => STATE_DEAD,
            WorkerState::Left => STATE_LEFT,
        });
    }

    pub(crate) fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let node = r.read_record::<u64>()? as u32;
        let addr = r.read_record()?;
        let epoch = r.read_record()?;
        let state = match r.read_record::<u64>()? {
            STATE_ALIVE => WorkerState::Alive,
            STATE_DEAD => WorkerState::Dead,
            STATE_LEFT => WorkerState::Left,
            other => {
                return Err(PangeaError::Corruption(format!(
                    "unknown worker state {other}"
                )))
            }
        };
        Ok(Self {
            node,
            addr,
            epoch,
            state,
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

    pub(crate) fn put(&self, w: &mut ByteWriter) {
        match self {
            Self::Counter { name, value } => {
                w.write_record(&METRIC_COUNTER);
                w.write_record(name);
                w.write_record(value);
            }
            Self::Gauge { name, value } => {
                w.write_record(&METRIC_GAUGE);
                w.write_record(name);
                w.write_record(value);
            }
            Self::Histogram {
                name,
                count,
                sum,
                buckets,
            } => {
                w.write_record(&METRIC_HISTOGRAM);
                w.write_record(name);
                w.write_record(count);
                w.write_record(sum);
                w.write_record(&(buckets.len() as u64));
                for b in buckets {
                    w.write_record(b);
                }
            }
        }
    }

    pub(crate) fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let tag: u64 = r.read_record()?;
        Ok(match tag {
            METRIC_COUNTER => Self::Counter {
                name: r.read_record()?,
                value: r.read_record()?,
            },
            METRIC_GAUGE => Self::Gauge {
                name: r.read_record()?,
                value: r.read_record()?,
            },
            METRIC_HISTOGRAM => {
                let name = r.read_record()?;
                let count = r.read_record()?;
                let sum = r.read_record()?;
                let n: u64 = r.read_record()?;
                let mut buckets = Vec::with_capacity(n.min(1 << 10) as usize);
                for _ in 0..n {
                    buckets.push(r.read_record()?);
                }
                Self::Histogram {
                    name,
                    count,
                    sum,
                    buckets,
                }
            }
            other => {
                return Err(PangeaError::Corruption(format!(
                    "unknown wire-metric tag {other}"
                )))
            }
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

impl WireSpan {
    pub(crate) fn put(&self, w: &mut ByteWriter) {
        w.write_record(&self.seq);
        w.write_record(&self.job);
        w.write_record(&self.span);
        w.write_record(&self.parent);
        w.write_record(&self.op);
        w.write_record(&self.peer);
        w.write_record(&self.start_ns);
        w.write_record(&self.end_ns);
        w.write_record(&self.bytes);
        w.write_record(&self.outcome);
    }

    pub(crate) fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Self {
            seq: r.read_record()?,
            job: r.read_record()?,
            span: r.read_record()?,
            parent: r.read_record()?,
            op: r.read_record()?,
            peer: r.read_record()?,
            start_ns: r.read_record()?,
            end_ns: r.read_record()?,
            bytes: r.read_record()?,
            outcome: r.read_record()?,
        })
    }
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
        // tags (honest duplicates survive); identical provenance dedups.
        let a = ingest_tag(0, 7, b"the");
        assert_eq!(a, ingest_tag(0, 7, b"the"), "retries produce equal tags");
        assert_ne!(a, ingest_tag(1, 7, b"the"));
        assert_ne!(a, ingest_tag(0, 8, b"the"));
        assert_ne!(a, ingest_tag(0, 7, b"fox"));
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
