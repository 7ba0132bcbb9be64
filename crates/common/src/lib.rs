//! # pangea-common
//!
//! Shared foundations for the Pangea reproduction: identifiers, the error
//! type, a fast non-cryptographic hasher, the logical access clock used by
//! the paging cost model, byte-rate throttles that stand in for real disk
//! and network bandwidth limits, I/O statistics counters, and the record
//! codec that models (de)serialization work at layer boundaries.
//!
//! Every other crate in the workspace depends on this one; it has no
//! dependencies on the rest of the workspace.

pub mod clock;
pub mod codec;
pub mod error;
pub mod hash;
pub mod ids;
pub mod iostats;
pub mod throttle;
pub mod units;

pub use clock::{AccessClock, Tick};
pub use codec::{decode_record, encode_record, ByteReader, ByteWriter, Record};
pub use error::{PangeaError, Result};
pub use hash::{fx_hash64, mix64, record_key, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{Epoch, NodeId, PageId, PageNum, PartitionId, ReplicaGroupId, SetId};
pub use iostats::{IoStats, IoStatsSnapshot, WriteCause};
pub use throttle::Throttle;
pub use units::{GB, KB, MB};
