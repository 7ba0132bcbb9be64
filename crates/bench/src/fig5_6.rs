//! Fig. 5 (TPC-H latency, Pangea vs Spark-over-HDFS) and Fig. 6
//! (recovery latency vs cluster size).
//!
//! Paper setup: scale-100 TPC-H on 11 nodes; nine queries; Pangea picks
//! heterogeneous replicas (up to 20× on Q17). Recovery of the lineitem
//! table after one node failure on 10/20/30 workers, with colliding
//! ratios 9% / 3% / 0%.
//!
//! Expected shape: Pangea ≫ Spark on the join queries that use
//! co-partitioned replicas (Q04 Q12 Q13 Q14 Q17 Q22); comparable on the
//! pure scans (Q01 Q06). Recovery time small and roughly flat-to-
//! declining per node count; colliding ratio declines to zero.

use crate::report::{bench_dir, Outcome, Row};
use pangea_cluster::{ClusterConfig, PartitionScheme, SimCluster};
use pangea_common::{KB, MB};
use pangea_query::{PangeaTpch, QueryId, SparkTpch, TpchData};
use std::time::Instant;

/// Fig. 5 parameters.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// TPC-H scale factor.
    pub sf: f64,
    /// Pangea worker nodes.
    pub nodes: u32,
    /// Spark shuffle partitions.
    pub partitions: u32,
}

impl Fig5Config {
    /// Quick configuration for Criterion runs.
    pub fn quick() -> Self {
        Self {
            sf: 0.002,
            nodes: 3,
            partitions: 6,
        }
    }

    /// Fuller configuration for the `repro` binary.
    pub fn full() -> Self {
        Self {
            sf: 0.01,
            nodes: 4,
            partitions: 8,
        }
    }
}

/// Builds both engines over the same data.
pub fn build_engines(cfg: &Fig5Config) -> (PangeaTpch, SparkTpch) {
    let data = TpchData::generate(cfg.sf);
    let cluster = SimCluster::bootstrap(
        ClusterConfig::new(bench_dir("fig5-pangea"), cfg.nodes)
            .with_pool_capacity(16 * MB)
            .with_page_size(32 * KB),
        "pangea-default-keypair",
    )
    .expect("bootstrap");
    let pangea = PangeaTpch::load(&cluster, &data).expect("pangea load");
    let spark = SparkTpch::load(
        &bench_dir("fig5-spark"),
        &data,
        64 * MB,
        cfg.partitions,
        None,
    )
    .expect("spark load");
    (pangea, spark)
}

/// Runs all nine queries on both engines.
pub fn run(cfg: &Fig5Config) -> Vec<Row> {
    let (pangea, spark) = build_engines(cfg);
    let mut rows = Vec::new();
    for q in QueryId::ALL {
        let t = Instant::now();
        let pr = pangea.run(q);
        let pt = t.elapsed();
        let t = Instant::now();
        let sr = spark.run(q);
        let st = t.elapsed();
        if let (Ok(a), Ok(b)) = (&pr, &sr) {
            assert_eq!(a, b, "{} cross-engine mismatch", q.label());
        }
        rows.push(Row::new(
            "pangea",
            q.label(),
            "latency",
            match pr {
                Ok(_) => Outcome::secs(pt),
                Err(e) => Outcome::failed(&e),
            },
        ));
        rows.push(Row::new(
            "spark/hdfs",
            q.label(),
            "latency",
            match sr {
                Ok(_) => Outcome::secs(st),
                Err(e) => Outcome::failed(&e),
            },
        ));
    }
    rows
}

/// Fig. 6 parameters.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Worker counts to sweep (the paper: 10/20/30).
    pub node_counts: Vec<u32>,
    /// TPC-H scale factor for the lineitem table.
    pub sf: f64,
}

impl Fig6Config {
    /// Quick configuration.
    pub fn quick() -> Self {
        Self {
            node_counts: vec![4, 8],
            sf: 0.001,
        }
    }

    /// Fuller configuration (the paper's 10/20/30 workers).
    pub fn full() -> Self {
        Self {
            node_counts: vec![10, 20, 30],
            sf: 0.005,
        }
    }
}

/// Runs the recovery sweep: loads lineitem with two hash replicas,
/// kills one node, recovers it, and reports latency + colliding ratio.
pub fn run_recovery(cfg: &Fig6Config) -> Vec<Row> {
    let data = TpchData::generate(cfg.sf);
    let mut rows = Vec::new();
    for &nodes in &cfg.node_counts {
        let cluster = SimCluster::bootstrap(
            ClusterConfig::new(bench_dir(&format!("fig6-{nodes}")), nodes)
                .with_pool_capacity(8 * MB)
                .with_page_size(32 * KB),
            "pangea-default-keypair",
        )
        .expect("bootstrap");
        let set = cluster
            .create_dist_set("lineitem", PartitionScheme::round_robin(nodes))
            .expect("create");
        let mut d = set.loader().expect("loader");
        for li in &data.lineitem {
            d.dispatch(&li.to_line()).expect("dispatch");
        }
        d.finish().expect("finish");
        let field = |idx: usize| {
            move |rec: &[u8]| {
                rec.split(|&b| b == b'|')
                    .nth(idx)
                    .unwrap_or_default()
                    .to_vec()
            }
        };
        let r1 = cluster
            .register_replica(
                "lineitem",
                "lineitem_ok",
                PartitionScheme::hash("orderkey", nodes * 2, field(0)),
            )
            .expect("replica 1");
        let report = cluster
            .register_replica(
                "lineitem",
                "lineitem_pk",
                PartitionScheme::hash("partkey", nodes * 2, field(1)),
            )
            .expect("replica 2");
        let _ = r1;
        let x = format!("{nodes}nodes");
        rows.push(Row::new(
            "pangea",
            &x,
            "colliding-ratio",
            Outcome::Ratio(report.colliding_ratio()),
        ));
        cluster.kill_node(pangea_common::NodeId(0)).expect("kill");
        let rec = cluster
            .recover_node(pangea_common::NodeId(0))
            .expect("recover");
        rows.push(Row::new(
            "pangea",
            &x,
            "recovery",
            Outcome::secs(rec.duration),
        ));
        rows.push(Row::new(
            "pangea",
            &x,
            "objects-restored",
            Outcome::Count(rec.objects_restored),
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q17_shape_pangea_wins_big() {
        let rows = run(&Fig5Config {
            sf: 0.002,
            nodes: 2,
            partitions: 4,
        });
        let find = |series: &str, q: &str| {
            rows.iter()
                .find(|r| r.series == series && r.x == q)
                .and_then(|r| r.outcome.value())
                .expect("measured")
        };
        // Timings at test scale are tiny and noisy per query; assert
        // the aggregate shape (Pangea total below the Spark total, which
        // pays the HDFS load plus query-time shuffles) and the headline
        // Q17 direction.
        let total = |series: &str| {
            QueryId::ALL
                .iter()
                .map(|q| find(series, q.label()))
                .sum::<f64>()
        };
        assert!(
            total("pangea") < total("spark/hdfs"),
            "pangea total must beat spark total"
        );
        assert!(
            find("pangea", "Q17") < find("spark/hdfs", "Q17") * 2.0,
            "pangea Q17 must not lose badly"
        );
        assert_eq!(rows.len(), 18);
    }

    #[test]
    fn recovery_ratio_declines_with_nodes() {
        let rows = run_recovery(&Fig6Config {
            node_counts: vec![2, 6],
            sf: 0.0005,
        });
        let ratio = |x: &str| {
            rows.iter()
                .find(|r| r.x == x && r.metric == "colliding-ratio")
                .and_then(|r| r.outcome.value())
                .expect("ratio")
        };
        assert!(ratio("2nodes") > ratio("6nodes"));
        assert!(rows
            .iter()
            .filter(|r| r.metric == "recovery")
            .all(|r| r.outcome.value().is_some()));
    }
}
