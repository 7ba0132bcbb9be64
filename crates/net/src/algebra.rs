//! The task algebra: the declarative pieces a shipped map job is made
//! of. A [`MapSpec`] is an optional [`FilterSpec`] (comparisons by
//! [`CmpOp`]) in front of an [`EmitSpec`]; a [`ReduceSpec`] folds the
//! mapped records per key by a [`ReduceOp`]; a [`Job`] names the input,
//! output, map, reduce and output scheme, and a [`TaskSpec`] ships it to
//! one worker, which answers with a [`TaskReport`]. UDF closures never
//! cross the wire: every worker re-materializes the same map from these
//! specs.
//!
//! The tagged types are declared in `wire_table!` tables and the structs
//! listed in `wire_struct!` (both in `crate::wire`), so each travels
//! through the crate's one field codec.

use crate::wire::{wire_struct, wire_table, KeySpec, SchemeSpec, Wire};
use pangea_common::{ByteReader, ByteWriter, PangeaError, Result};
use std::collections::BTreeMap;

wire_struct! {
    MapSpec { filter, emit }
    ReduceSpec { op, key, delim, value_index } => check_delim
    Job { input, output, map, reduce, scheme, nodes }
    TaskSpec { job, source, dests }
    TaskReport { scanned, emitted, emitted_bytes, appended, appended_bytes }
}

wire_table! {
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
        } = 1,
        /// Keep records whose key (per `key`) is *not* empty — e.g. drop
        /// rows missing the projected field.
        KeyPresent {
            /// How the checked key is extracted.
            key: KeySpec,
        } = 2,
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
        } = 3,
    }

    /// A numeric comparison operator for [`FilterSpec::KeyCompare`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum CmpOp {
        /// `key < value`
        Lt = 1,
        /// `key <= value`
        Le = 2,
        /// `key > value`
        Gt = 3,
        /// `key >= value`
        Ge = 4,
        /// `key == value`
        Eq = 5,
        /// `key != value`
        Ne = 6,
    }

    /// What a [`MapSpec`] emits for each surviving record.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum EmitSpec {
        /// The record unchanged.
        Record = 1,
        /// The record's key per the spec (key-extract).
        Key(KeySpec) = 2,
        /// Selected delimited fields, re-joined with `delim` (projection).
        /// Missing fields project as empty.
        Fields {
            /// The single-byte field delimiter.
            delim: u8,
            /// 0-based field indices, emitted in the given order.
            indices: Vec<u32>,
        } = 3,
        /// Flat-map tokenization: split the record on `delim` and emit each
        /// *non-empty* token as its own output record — one input record
        /// emits zero or more outputs (e.g. whitespace-tokenize a raw text
        /// line, so a wordcount needs no pre-split input).
        Tokens {
            /// The single-byte token delimiter (e.g. `b' '`).
            delim: u8,
        } = 4,
    }

    /// The fold applied by a [`ReduceSpec`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ReduceOp {
        /// Number of records per key.
        Count = 1,
        /// Sum of the numeric value field per key.
        Sum = 2,
        /// Minimum of the numeric value field per key.
        Min = 3,
        /// Maximum of the numeric value field per key.
        Max = 4,
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
}

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

    /// The wire decode's check: a delimiter [`ReduceSpec::delim_ok`]
    /// refuses is corruption.
    fn check_delim(&self) -> Result<()> {
        if Self::delim_ok(self.delim) {
            return Ok(());
        }
        Err(PangeaError::Corruption(format!(
            "reduce delimiter {:#04x} can appear inside a rendered \
             decimal value; pick a non-digit, non-'-' byte",
            self.delim
        )))
    }

    /// Extracts `(group key, initial accumulator value)` from one
    /// *mapped* record; `None` drops the record from the fold (missing
    /// or non-numeric value field). The key is a subslice of `mapped`,
    /// so the combine folds each token without allocating.
    pub fn key_value<'a>(&self, mapped: &'a [u8]) -> Option<(&'a [u8], i64)> {
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
        Some((self.key.key_slice(mapped), value))
    }

    /// [`ReduceSpec::key_value`] with the key copied out of the record.
    pub fn accumulate(&self, mapped: &[u8]) -> Option<(Vec<u8>, i64)> {
        self.key_value(mapped)
            .map(|(key, value)| (key.to_vec(), value))
    }

    /// The op's merge, in place: the one definition of the fold, which
    /// the source-side combine, the destination's run merge and the
    /// serial reference ([`ReduceSpec::fold_into`]) all apply, so their
    /// semantics cannot drift apart. `Count` partials merge by addition
    /// (a count of counts is a sum); addition wraps so the merge stays
    /// associative and commutative — the property the combine-then-merge
    /// parity contract rests on. A plain function pointer is the shape
    /// the spillable `ReduceBuffer` accumulator stores.
    pub fn merge_fn(&self) -> fn(&mut i64, i64) {
        match self.op {
            ReduceOp::Count | ReduceOp::Sum => |a, b| *a = a.wrapping_add(b),
            ReduceOp::Min => |a, b| *a = (*a).min(b),
            ReduceOp::Max => |a, b| *a = (*a).max(b),
        }
    }

    /// Folds one `(key, value)` into a keyed accumulator, merging with
    /// the key's existing slot by [`ReduceSpec::merge_fn`] or inserting
    /// on first sight.
    pub fn fold_into(&self, acc: &mut BTreeMap<Vec<u8>, i64>, key: &[u8], value: i64) {
        match acc.get_mut(key) {
            Some(a) => (self.merge_fn())(a, value),
            None => {
                acc.insert(key.to_vec(), value);
            }
        }
    }

    /// Encodes one `(key, value)` accumulator entry as a partial/output
    /// record: `key ++ [delim] ++ decimal(value)`, rendered straight into
    /// the one allocation it returns.
    pub fn encode_record(&self, key: &[u8], value: i64) -> Vec<u8> {
        // `i64::MIN` is the longest rendering: a sign and 19 digits.
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = value.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if value < 0 {
            at -= 1;
            digits[at] = b'-';
        }
        let mut out = Vec::with_capacity(key.len() + 1 + digits.len() - at);
        out.extend_from_slice(key);
        out.push(self.delim);
        out.extend_from_slice(&digits[at..]);
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
    /// ([`ingest_tag`](crate::ingest_tag)) — stable across task retries, and at most
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::roundtrip;

    /// Everything `map` emits for `record`, in order.
    fn emitted(map: &MapSpec, record: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        map.for_each_emit(record, &mut |o| {
            out.push(o.to_vec());
            Ok(())
        })
        .unwrap();
        out
    }

    /// `a` merged with `b` by `spec`'s fold.
    fn merged(spec: &ReduceSpec, mut a: i64, b: i64) -> i64 {
        (spec.merge_fn())(&mut a, b);
        a
    }

    #[test]
    fn map_specs_roundtrip_and_emit() {
        roundtrip(&MapSpec::identity());
        roundtrip(&MapSpec::extract(KeySpec::Field {
            delim: b'|',
            index: 2,
        }));
        roundtrip(
            &MapSpec::project(b'|', vec![1, 0, 3]).with_filter(FilterSpec::KeyEquals {
                key: KeySpec::Field {
                    delim: b'|',
                    index: 0,
                },
                value: b"7".to_vec(),
            }),
        );
        roundtrip(&MapSpec::identity().with_filter(FilterSpec::KeyPresent {
            key: KeySpec::Field {
                delim: b'|',
                index: 1,
            },
        }));

        assert_eq!(emitted(&MapSpec::identity(), b"a|b"), [b"a|b".to_vec()]);
        let extract = MapSpec::extract(KeySpec::Field {
            delim: b'|',
            index: 1,
        });
        assert_eq!(emitted(&extract, b"a|bb|c"), [b"bb".to_vec()]);
        let project = MapSpec::project(b'|', vec![2, 0]);
        assert_eq!(emitted(&project, b"a|bb|ccc"), [b"ccc|a".to_vec()]);
        assert_eq!(emitted(&project, b"a"), [b"|a".to_vec()], "missing = empty");
        let filtered = MapSpec::identity().with_filter(FilterSpec::KeyEquals {
            key: KeySpec::Field {
                delim: b'|',
                index: 0,
            },
            value: b"keep".to_vec(),
        });
        assert_eq!(emitted(&filtered, b"keep|x"), [b"keep|x".to_vec()]);
        assert_eq!(emitted(&filtered, b"drop|x"), Vec::<Vec<u8>>::new());
        let present = MapSpec::identity().with_filter(FilterSpec::KeyPresent {
            key: KeySpec::Field {
                delim: b'|',
                index: 1,
            },
        });
        assert_eq!(emitted(&present, b"a|b"), [b"a|b".to_vec()]);
        assert_eq!(emitted(&present, b"a"), Vec::<Vec<u8>>::new());
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
        roundtrip(&MapSpec::tokenize(b','));
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
            roundtrip(&MapSpec::identity().with_filter(FilterSpec::KeyCompare {
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
            roundtrip(&spec);
        }

        // Count: every mapped record is worth 1; merge is addition.
        assert_eq!(count.accumulate(b"the"), Some((b"the".to_vec(), 1)));
        assert_eq!(count.key_value(b"the"), Some((&b"the"[..], 1)));
        assert_eq!(merged(&count, 2, 3), 5);
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
        assert_eq!(sum.key_value(b"k|7"), Some((&b"k"[..], 7)));
        assert_eq!(sum.accumulate(b"k|x"), None);
        assert_eq!(sum.accumulate(b"k"), None);
        let min = ReduceSpec::min(KeySpec::WholeRecord, b'|', 1);
        assert_eq!(merged(&min, 4, -2), -2);
        let max = ReduceSpec::max(KeySpec::WholeRecord, b'|', 1);
        assert_eq!(merged(&max, 4, -2), 4);

        // Partials encode as key|value and decode at the *last* delim,
        // so a key containing the delimiter survives the trip.
        let enc = count.encode_record(b"a|b", -17);
        assert_eq!(enc, b"a|b|-17".to_vec());
        assert_eq!(count.decode_record(&enc).unwrap(), (&b"a|b"[..], -17));
        assert!(count.decode_record(b"no-delim").is_err());
        assert!(count.decode_record(b"k|nan").is_err());
    }

    /// The partial's decimal renders exactly as `i64`'s `Display`, the
    /// rendering every stored partial and output row was written with.
    #[test]
    fn encode_record_renders_like_display() {
        let count = ReduceSpec::count(KeySpec::WholeRecord, b'|');
        for value in [
            0,
            1,
            -1,
            9,
            -10,
            1_000_000,
            -987_654_321,
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
        ] {
            let enc = count.encode_record(b"key", value);
            assert_eq!(enc, format!("key|{value}").into_bytes(), "{value}");
            assert_eq!(enc.capacity(), enc.len(), "{value}: allocated to size");
            assert_eq!(count.decode_record(&enc).unwrap(), (&b"key"[..], value));
        }
    }
}
