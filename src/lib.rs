//! # Pangea
//!
//! A Rust reproduction of **"Pangea: Monolithic Distributed Storage for
//! Data Analytics"** (Zou, Iyengar, Jermaine — VLDB 2019,
//! arXiv:1808.06094).
//!
//! Pangea manages *all* analytics data — user data, job data, shuffle
//! data, and hash data — in one monolithic storage system: a unified
//! buffer pool per node, locality sets tagged with semantic attributes,
//! a data-aware paging policy, heterogeneous replication that doubles as
//! failure recovery, and in-storage services (sequential read/write,
//! shuffle, hash aggregation, join/broadcast maps).
//!
//! ## Crate map
//!
//! | module | crate | paper section |
//! |---|---|---|
//! | [`core`] | `pangea-core` | §3–§6, §8 — locality sets, node engine, services |
//! | [`storage`] | `pangea-storage` | §4–§5 — buffer pool, disks, paged files |
//! | [`paging`] | `pangea-paging` | §6 — data-aware policy + LRU/MRU/DBMIN baselines |
//! | [`cluster`] | `pangea-cluster` | §3.3, §7 — manager, dispatch, replication, recovery |
//! | [`coord`] | `pangea-coord` | §3.3, §8 — control plane: `pangea-mgr`, membership, `RemoteCluster` |
//! | [`net`] | `pangea-net` | wire layer — TCP framing + protocol, `pangead`, client |
//! | [`obs`] | `pangea-obs` | observability — metrics registry, trace rings, retained time-series, span trees |
//! | [`layered`] | `pangea-layered` | §9 baselines — HDFS/Alluxio/Ignite/Spark/OS/Redis |
//! | [`query`] | `pangea-query` | §9.1.2 — TPC-H on Pangea and on Spark |
//! | [`kmeans`] | `pangea-kmeans` | §9.1.1 — the Fig. 1 workload |
//! | [`common`] | `pangea-common` | ids, errors, clock, throttles, codec |
//! | [`alloc`] | `pangea-alloc` | §5 — TLSF and slab pool allocators |
//!
//! ## Quickstart
//!
//! ```
//! use pangea::prelude::*;
//!
//! let dir = std::env::temp_dir().join(format!("pangea-doc-{}", std::process::id()));
//! let node = StorageNode::new(
//!     NodeConfig::new(&dir).with_pool_capacity(pangea::common::MB),
//! ).unwrap();
//!
//! // A transient (write-back) locality set, written sequentially…
//! let set = node.create_set("events", SetOptions::write_back()).unwrap();
//! let mut writer = set.writer();
//! for i in 0..1000u64 {
//!     writer.add_object(format!("event-{i}").as_bytes()).unwrap();
//! }
//! writer.finish().unwrap();
//!
//! // …and scanned through the sequential read service.
//! let mut count = 0;
//! for num in set.page_numbers() {
//!     let pin = set.pin_page(num).unwrap();
//!     ObjectIter::new(&pin).for_each(|_| count += 1);
//! }
//! assert_eq!(count, 1000);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

pub use pangea_alloc as alloc;
pub use pangea_cluster as cluster;
pub use pangea_common as common;
pub use pangea_coord as coord;
pub use pangea_core as core;
pub use pangea_kmeans as kmeans;
pub use pangea_layered as layered;
pub use pangea_net as net;
pub use pangea_obs as obs;
pub use pangea_paging as paging;
pub use pangea_query as query;
pub use pangea_storage as storage;

/// The names most applications need.
pub mod prelude {
    pub use pangea_cluster::{ClusterConfig, DispatchConfig, DistSet, PartitionScheme, SimCluster};
    pub use pangea_common::{NodeId, PageId, PangeaError, Result, SetId};
    pub use pangea_coord::{MgrServer, RemoteCluster, WorkerAgent};
    pub use pangea_core::{
        broadcast_map, counting_hash_buffer, HashConfig, JoinMap, JoinMapBuilder, LocalitySet,
        NodeConfig, ObjectIter, SeqWriter, SetOptions, ShuffleConfig, ShuffleService, StorageNode,
        VirtualHashBuffer, VirtualShuffleBuffer,
    };
    pub use pangea_net::{PangeaClient, PangeadServer};
    pub use pangea_paging::{CurrentOp, Durability, ReadPattern, WritePattern};
}
