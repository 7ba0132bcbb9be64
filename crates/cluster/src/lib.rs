//! # pangea-cluster
//!
//! The distributed half of the Pangea reproduction (paper §3.3, §7): a
//! simulated cluster of full per-node storage engines behind one
//! light-weight manager, with partitioned dispatch, heterogeneous
//! replication (replicas = different physical organizations of the same
//! objects), colliding-object tracking, failure injection, and recovery.
//!
//! The distributed logic lives in one generic [`engine`]
//! ([`ClusterCore`] over the [`WorkerBackend`]/[`Catalog`] seams);
//! [`SimCluster`] is its in-process frontend, and `pangea-coord`'s
//! `RemoteCluster` drives the same engine against remote `pangead`
//! processes and a wire-served catalog.
//!
//! See DESIGN.md §2 for the cluster-to-simulation substitution argument.

pub mod cluster;
pub mod engine;
pub mod manager;
pub mod network;
pub mod partition;
pub mod replication;

pub use cluster::{ClusterConfig, Dispatcher, DistSet, SimCluster, SimWorkers};
pub use engine::{
    Catalog, ClusterCore, DispatchConfig, EngineDispatcher, EngineSet, MapShuffleReport,
    PeerRepair, RecordSink, RecoveryReport, ReplicaReport, TaskExec, WorkerBackend,
};
pub use manager::{CatalogEntry, Manager, SetStats};
pub use network::SimNetwork;
// The declarative specs map-shuffle jobs are written in.
pub use pangea_net::{
    CmpOp, EmitSpec, FilterSpec, KeySpec, MapSpec, ReduceOp, ReduceSpec, TaskReport,
};
pub use partition::{KeyFn, PartitionKind, PartitionScheme};
pub use replication::{colliding_set_name, expected_colliding_ratio};
