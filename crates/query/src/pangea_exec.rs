//! The Pangea-based relational query processor (paper §9.1.2, Table 2).
//!
//! Tables live as distributed locality sets with **heterogeneous
//! replicas** (paper §7): `lineitem` has replicas partitioned by
//! orderkey and partkey, `orders` by orderkey and custkey, and `part`
//! by partkey. Before each join the scheduler consults the manager's
//! statistics database ([`pangea_cluster::Manager::best_replica`]) and,
//! when a co-partitioned replica pair exists, pipelines the join locally
//! on every node — no query-time repartitioning, which is where the
//! Fig. 5 speedups over Spark come from.
//!
//! Joins use the core join-map service; query-time repartitioning (only
//! needed for `customer` in Q13/Q22) uses the cluster dispatcher.

use crate::dbgen::TpchData;
use crate::exec::{canonical, params::*, QueryId, QueryResult};
use crate::schema::*;
use pangea_cluster::{PartitionScheme, SimCluster};
use pangea_common::{FxHashMap, FxHashSet, NodeId, PangeaError, Result};
use pangea_core::{JoinMap, JoinMapBuilder, LocalitySet, ObjectIter};

/// Extracts pipe-delimited field `idx` as the partitioning key.
fn key_field(idx: usize) -> impl Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static {
    move |rec: &[u8]| field(rec, idx).to_vec()
}

/// Scans one node-local locality set, streaming records to `f`.
fn scan_local(set: &LocalitySet, mut f: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
    for num in set.page_numbers() {
        let pin = set.pin_page(num)?;
        let mut it = ObjectIter::new(&pin);
        while let Some(rec) = it.next() {
            f(rec)?;
        }
    }
    Ok(())
}

/// Builds a node-local join map from a local set partition, keyed by
/// field `key_idx` (the paper's "build partitioned hash map" component).
fn local_join_map(
    set: &LocalitySet,
    map_name: &str,
    key_idx: usize,
    mut filter: impl FnMut(&[u8]) -> bool,
) -> Result<JoinMap> {
    let mut builder = JoinMapBuilder::new(set.node(), map_name)?;
    scan_local(set, |rec| {
        if filter(rec) {
            builder.insert(field(rec, key_idx), rec)?;
        }
        Ok(())
    })?;
    builder.build()
}

/// TPC-H running on Pangea.
#[derive(Debug, Clone)]
pub struct PangeaTpch {
    cluster: SimCluster,
    partitions: u32,
}

impl PangeaTpch {
    /// Loads the generated database into the cluster: base tables are
    /// randomly dispatched; the paper's replicas are registered
    /// (`lineitem` × {orderkey, partkey}, `orders` × {orderkey, custkey},
    /// `part` × {partkey}).
    pub fn load(cluster: &SimCluster, data: &TpchData) -> Result<Self> {
        let partitions = cluster.num_nodes() * 2;
        let engine = Self {
            cluster: cluster.clone(),
            partitions,
        };
        engine.load_table("lineitem", data.lineitem.iter().map(|r| r.to_line()))?;
        engine.load_table("orders", data.orders.iter().map(|r| r.to_line()))?;
        engine.load_table("customer", data.customer.iter().map(|r| r.to_line()))?;
        engine.load_table("part", data.part.iter().map(|r| r.to_line()))?;
        engine.load_table("supplier", data.supplier.iter().map(|r| r.to_line()))?;
        engine.load_table("partsupp", data.partsupp.iter().map(|r| r.to_line()))?;
        engine.load_table("nation", data.nation.iter().map(|r| r.to_line()))?;
        engine.load_table("region", data.region.iter().map(|r| r.to_line()))?;
        // Heterogeneous replicas (paper §9.1.2).
        let p = partitions;
        cluster.register_replica(
            "lineitem",
            "lineitem_ok",
            PartitionScheme::hash("orderkey", p, key_field(0)),
        )?;
        cluster.register_replica(
            "lineitem",
            "lineitem_pk",
            PartitionScheme::hash("partkey", p, key_field(1)),
        )?;
        cluster.register_replica(
            "orders",
            "orders_ok",
            PartitionScheme::hash("orderkey", p, key_field(0)),
        )?;
        cluster.register_replica(
            "orders",
            "orders_ck",
            PartitionScheme::hash("custkey", p, key_field(1)),
        )?;
        cluster.register_replica(
            "part",
            "part_pk",
            PartitionScheme::hash("partkey", p, key_field(0)),
        )?;
        // The remaining tables get one keyed replica each: recoverable
        // after node failure (paper §7) and, for `customer`, co-
        // partitioned with `orders_ck` so Q13/Q22 need no query-time
        // repartitioning at all.
        cluster.register_replica(
            "customer",
            "customer_ck",
            PartitionScheme::hash("custkey", p, key_field(0)),
        )?;
        cluster.register_replica(
            "supplier",
            "supplier_sk",
            PartitionScheme::hash("suppkey", p, key_field(0)),
        )?;
        cluster.register_replica(
            "partsupp",
            "partsupp_pk",
            PartitionScheme::hash("partkey", p, key_field(0)),
        )?;
        cluster.register_replica(
            "nation",
            "nation_nk",
            PartitionScheme::hash("nationkey", p, key_field(0)),
        )?;
        cluster.register_replica(
            "region",
            "region_rk",
            PartitionScheme::hash("regionkey", p, key_field(0)),
        )?;
        Ok(engine)
    }

    fn load_table(&self, name: &str, rows: impl Iterator<Item = Vec<u8>>) -> Result<()> {
        let set = self
            .cluster
            .create_dist_set(name, PartitionScheme::round_robin(self.partitions))?;
        let mut d = set.loader()?;
        for row in rows {
            d.dispatch(&row)?;
        }
        d.finish()
    }

    /// The owning cluster.
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// The query scheduler's replica choice: the group member organized
    /// by `key`, or the base table when none exists (paper §9.1.2: "the
    /// query scheduler recognizes this by comparing the available
    /// partition schemes [...] through the statistics service").
    pub fn replica_for(&self, table: &str, key: &str) -> String {
        self.cluster
            .manager()
            .best_replica(table, key)
            .unwrap_or_else(|| table.to_string())
    }

    fn local(&self, set_name: &str, node: NodeId) -> Result<LocalitySet> {
        self.cluster
            .get_dist_set(set_name)
            .ok_or_else(|| PangeaError::usage(format!("unknown set '{set_name}'")))?
            .local(node)
    }

    /// Runs one query by id.
    pub fn run(&self, q: QueryId) -> Result<QueryResult> {
        match q {
            QueryId::Q01 => self.q01(),
            QueryId::Q02 => self.q02(),
            QueryId::Q04 => self.q04(),
            QueryId::Q06 => self.q06(),
            QueryId::Q12 => self.q12(),
            QueryId::Q13 => self.q13(),
            QueryId::Q14 => self.q14(),
            QueryId::Q17 => self.q17(),
            QueryId::Q22 => self.q22(),
        }
    }

    /// Q01 — pricing summary: scan `lineitem`, aggregate by
    /// (returnflag, linestatus).
    pub fn q01(&self) -> Result<QueryResult> {
        let mut groups: FxHashMap<(u8, u8), (i64, i64, i64, u64)> = FxHashMap::default();
        for node in self.cluster.alive_nodes() {
            let set = self.local("lineitem", node)?;
            scan_local(&set, |rec| {
                let li = LineItem::from_line(rec)?;
                if li.l_shipdate <= Q01_SHIPDATE_MAX {
                    let g = groups
                        .entry((li.l_returnflag, li.l_linestatus))
                        .or_default();
                    g.0 += li.l_quantity;
                    g.1 += li.l_extendedprice;
                    g.2 += li.l_extendedprice * (10_000 - li.l_discount);
                    g.3 += 1;
                }
                Ok(())
            })?;
        }
        Ok(canonical(
            groups
                .into_iter()
                .map(|((f, s), (qty, base, disc, cnt))| {
                    vec![
                        RETURN_FLAGS[f as usize].to_string(),
                        LINE_STATUS[s as usize].to_string(),
                        qty.to_string(),
                        base.to_string(),
                        disc.to_string(),
                        cnt.to_string(),
                    ]
                })
                .collect(),
        ))
    }

    /// Q02 — minimum-cost supplier over the dimension tables.
    pub fn q02(&self) -> Result<QueryResult> {
        // Nations in the target region.
        let mut nations: FxHashSet<i64> = FxHashSet::default();
        self.cluster
            .get_dist_set("nation")
            .expect("loaded")
            .try_for_each_record(|_, rec| {
                let n = Nation::from_line(rec)?;
                if n.n_regionkey == Q02_REGION {
                    nations.insert(n.n_nationkey);
                }
                Ok(())
            })?;
        // Suppliers in those nations.
        let mut suppliers: FxHashMap<i64, i64> = FxHashMap::default(); // suppkey → acctbal
        self.cluster
            .get_dist_set("supplier")
            .expect("loaded")
            .try_for_each_record(|_, rec| {
                let s = Supplier::from_line(rec)?;
                if nations.contains(&s.s_nationkey) {
                    suppliers.insert(s.s_suppkey, s.s_acctbal);
                }
                Ok(())
            })?;
        // Target parts.
        let mut parts: FxHashSet<i64> = FxHashSet::default();
        self.cluster
            .get_dist_set("part")
            .expect("loaded")
            .try_for_each_record(|_, rec| {
                let p = Part::from_line(rec)?;
                if p.p_size == Q02_SIZE && p.p_type % Q02_TYPE_MOD == 0 {
                    parts.insert(p.p_partkey);
                }
                Ok(())
            })?;
        // Min supply cost per part among qualifying suppliers.
        let mut best: FxHashMap<i64, (i64, i64)> = FxHashMap::default(); // part → (cost, supp)
        self.cluster
            .get_dist_set("partsupp")
            .expect("loaded")
            .try_for_each_record(|_, rec| {
                let ps = PartSupp::from_line(rec)?;
                if parts.contains(&ps.ps_partkey) && suppliers.contains_key(&ps.ps_suppkey) {
                    let e = best
                        .entry(ps.ps_partkey)
                        .or_insert((ps.ps_supplycost, ps.ps_suppkey));
                    if (ps.ps_supplycost, ps.ps_suppkey) < *e {
                        *e = (ps.ps_supplycost, ps.ps_suppkey);
                    }
                }
                Ok(())
            })?;
        Ok(canonical(
            best.into_iter()
                .map(|(part, (cost, supp))| {
                    vec![
                        part.to_string(),
                        supp.to_string(),
                        suppliers[&supp].to_string(),
                        cost.to_string(),
                    ]
                })
                .collect(),
        ))
    }

    /// Q04 — order priority checking: semi-join `orders ⋉ lineitem` on
    /// the co-partitioned orderkey replicas, pipelined per node.
    pub fn q04(&self) -> Result<QueryResult> {
        let li_name = self.replica_for("lineitem", "orderkey");
        let ord_name = self.replica_for("orders", "orderkey");
        let mut counts: FxHashMap<u8, u64> = FxHashMap::default();
        for node in self.cluster.alive_nodes() {
            let li = self.local(&li_name, node)?;
            let map = local_join_map(&li, &format!("q04.map.{node}"), 0, |rec| {
                // exists lineitem with l_commitdate < l_receiptdate
                matches!(
                    (int_field(rec, 10), int_field(rec, 11)),
                    (Ok(commit), Ok(receipt)) if commit < receipt
                )
            })?;
            let orders = self.local(&ord_name, node)?;
            scan_local(&orders, |rec| {
                let o = Order::from_line(rec)?;
                if o.o_orderdate >= Q04_DATE_LO
                    && o.o_orderdate < Q04_DATE_HI
                    && map.contains(field(rec, 0))
                {
                    *counts.entry(o.o_orderpriority).or_default() += 1;
                }
                Ok(())
            })?;
            map.release()?;
        }
        Ok(canonical(
            counts
                .into_iter()
                .map(|(p, c)| vec![ORDER_PRIORITIES[p as usize].to_string(), c.to_string()])
                .collect(),
        ))
    }

    /// Q06 — revenue forecast: scan + filter + sum.
    pub fn q06(&self) -> Result<QueryResult> {
        let mut revenue = 0i64;
        for node in self.cluster.alive_nodes() {
            let set = self.local("lineitem", node)?;
            scan_local(&set, |rec| {
                let li = LineItem::from_line(rec)?;
                if li.l_shipdate >= Q06_DATE_LO
                    && li.l_shipdate < Q06_DATE_HI
                    && li.l_discount >= Q06_DISC_LO
                    && li.l_discount <= Q06_DISC_HI
                    && li.l_quantity < Q06_QTY_MAX
                {
                    revenue += li.l_extendedprice * li.l_discount;
                }
                Ok(())
            })?;
        }
        Ok(vec![vec![revenue.to_string()]])
    }

    /// Q12 — shipping modes vs. priority: join on the orderkey replicas.
    pub fn q12(&self) -> Result<QueryResult> {
        let li_name = self.replica_for("lineitem", "orderkey");
        let ord_name = self.replica_for("orders", "orderkey");
        let mut counts: FxHashMap<u8, (u64, u64)> = FxHashMap::default();
        for node in self.cluster.alive_nodes() {
            let orders = self.local(&ord_name, node)?;
            let map = local_join_map(&orders, &format!("q12.map.{node}"), 0, |_| true)?;
            let li = self.local(&li_name, node)?;
            scan_local(&li, |rec| {
                let l = LineItem::from_line(rec)?;
                if Q12_MODES.contains(&l.l_shipmode)
                    && l.l_commitdate < l.l_receiptdate
                    && l.l_shipdate < l.l_commitdate
                    && l.l_receiptdate >= Q12_DATE_LO
                    && l.l_receiptdate < Q12_DATE_HI
                {
                    map.probe(field(rec, 0), |order_rec| {
                        if let Ok(o) = Order::from_line(order_rec) {
                            let e = counts.entry(l.l_shipmode).or_default();
                            if o.o_orderpriority <= 1 {
                                e.0 += 1; // 1-URGENT / 2-HIGH
                            } else {
                                e.1 += 1;
                            }
                        }
                    });
                }
                Ok(())
            })?;
            map.release()?;
        }
        Ok(canonical(
            counts
                .into_iter()
                .map(|(m, (hi, lo))| {
                    vec![
                        SHIP_MODES[m as usize].to_string(),
                        hi.to_string(),
                        lo.to_string(),
                    ]
                })
                .collect(),
        ))
    }

    /// Q13 — order-count distribution: `orders` read from its custkey
    /// replica; `customer` (40× smaller) repartitioned at query time
    /// through the dispatcher.
    pub fn q13(&self) -> Result<QueryResult> {
        let ord_name = self.replica_for("orders", "custkey");
        let (cust_name, tmp) = self.customers_by_custkey("q13.customer")?;
        let mut distribution: FxHashMap<u64, u64> = FxHashMap::default();
        for node in self.cluster.alive_nodes() {
            // Local per-custkey order counts.
            let mut per_cust: FxHashMap<i64, u64> = FxHashMap::default();
            let orders = self.local(&ord_name, node)?;
            scan_local(&orders, |rec| {
                *per_cust.entry(int_field(rec, 1)?).or_default() += 1;
                Ok(())
            })?;
            let cust = self.local(&cust_name, node)?;
            scan_local(&cust, |rec| {
                let c = Customer::from_line(rec)?;
                let n = per_cust.get(&c.c_custkey).copied().unwrap_or(0);
                *distribution.entry(n).or_default() += 1;
                Ok(())
            })?;
        }
        if let Some(tmp) = tmp {
            self.cluster.drop_dist_set(&tmp)?;
        }
        Ok(canonical(
            distribution
                .into_iter()
                .map(|(orders, custs)| vec![orders.to_string(), custs.to_string()])
                .collect(),
        ))
    }

    /// Q14 — promotion effect: join on the partkey replicas.
    pub fn q14(&self) -> Result<QueryResult> {
        let li_name = self.replica_for("lineitem", "partkey");
        let part_name = self.replica_for("part", "partkey");
        let (mut promo, mut total) = (0i64, 0i64);
        for node in self.cluster.alive_nodes() {
            let parts = self.local(&part_name, node)?;
            let map = local_join_map(&parts, &format!("q14.map.{node}"), 0, |_| true)?;
            let li = self.local(&li_name, node)?;
            scan_local(&li, |rec| {
                let l = LineItem::from_line(rec)?;
                if l.l_shipdate >= Q14_DATE_LO && l.l_shipdate < Q14_DATE_HI {
                    map.probe(field(rec, 1), |part_rec| {
                        if let Ok(p) = Part::from_line(part_rec) {
                            let v = l.l_extendedprice * (10_000 - l.l_discount);
                            total += v;
                            if p.p_type < Q14_PROMO_TYPE_MAX {
                                promo += v;
                            }
                        }
                    });
                }
                Ok(())
            })?;
            map.release()?;
        }
        Ok(vec![vec![promo.to_string(), total.to_string()]])
    }

    /// Q17 — small-quantity-order revenue: both passes are node-local
    /// thanks to the partkey co-partitioning (the paper's 20× query).
    pub fn q17(&self) -> Result<QueryResult> {
        let li_name = self.replica_for("lineitem", "partkey");
        let part_name = self.replica_for("part", "partkey");
        let mut total = 0i64;
        for node in self.cluster.alive_nodes() {
            // Target parts of this node.
            let mut targets: FxHashSet<i64> = FxHashSet::default();
            let parts = self.local(&part_name, node)?;
            scan_local(&parts, |rec| {
                let p = Part::from_line(rec)?;
                if p.p_brand <= Q17_BRAND_MAX && p.p_container == Q17_CONTAINER {
                    targets.insert(p.p_partkey);
                }
                Ok(())
            })?;
            // Pass 1: per-part quantity statistics (local: every line of
            // a part lives on this node).
            let mut stats: FxHashMap<i64, (i64, i64)> = FxHashMap::default();
            let li = self.local(&li_name, node)?;
            scan_local(&li, |rec| {
                let partkey = int_field(rec, 1)?;
                if targets.contains(&partkey) {
                    let qty = int_field(rec, 3)?;
                    let e = stats.entry(partkey).or_default();
                    e.0 += qty;
                    e.1 += 1;
                }
                Ok(())
            })?;
            // Pass 2: sum prices of small-quantity lines
            // (l_quantity < 0.2 × avg ⟺ qty·5·cnt < sum).
            scan_local(&li, |rec| {
                let partkey = int_field(rec, 1)?;
                if let Some(&(sum_qty, cnt)) = stats.get(&partkey) {
                    let qty = int_field(rec, 3)?;
                    if qty * 5 * cnt < sum_qty {
                        total += int_field(rec, 4)?;
                    }
                }
                Ok(())
            })?;
        }
        Ok(vec![vec![total.to_string()]])
    }

    /// Q22 — global sales opportunity: anti-join against the custkey
    /// replica of `orders`.
    pub fn q22(&self) -> Result<QueryResult> {
        // Global average of positive balances among the target codes.
        let (mut sum, mut cnt) = (0i64, 0i64);
        self.cluster
            .get_dist_set("customer")
            .expect("loaded")
            .try_for_each_record(|_, rec| {
                let c = Customer::from_line(rec)?;
                if c.c_acctbal > 0 && Q22_CODES.contains(&c.c_phone_cc) {
                    sum += c.c_acctbal;
                    cnt += 1;
                }
                Ok(())
            })?;
        let ord_name = self.replica_for("orders", "custkey");
        let (cust_name, tmp) = self.customers_by_custkey("q22.customer")?;
        let mut groups: FxHashMap<u8, (u64, i64)> = FxHashMap::default();
        for node in self.cluster.alive_nodes() {
            let mut has_orders: FxHashSet<i64> = FxHashSet::default();
            let orders = self.local(&ord_name, node)?;
            scan_local(&orders, |rec| {
                has_orders.insert(int_field(rec, 1)?);
                Ok(())
            })?;
            let cust = self.local(&cust_name, node)?;
            scan_local(&cust, |rec| {
                let c = Customer::from_line(rec)?;
                if Q22_CODES.contains(&c.c_phone_cc)
                    && c.c_acctbal * cnt > sum
                    && !has_orders.contains(&c.c_custkey)
                {
                    let e = groups.entry(c.c_phone_cc).or_default();
                    e.0 += 1;
                    e.1 += c.c_acctbal;
                }
                Ok(())
            })?;
        }
        if let Some(tmp) = tmp {
            self.cluster.drop_dist_set(&tmp)?;
        }
        Ok(canonical(
            groups
                .into_iter()
                .map(|(cc, (n, bal))| vec![cc.to_string(), n.to_string(), bal.to_string()])
                .collect(),
        ))
    }

    /// Customers organized by custkey: the `customer_ck` replica when
    /// the statistics database has one (no data movement), otherwise a
    /// temporary query-time repartition aligned with `orders_ck`.
    /// Returns `(set name, temporary set to drop afterwards)`.
    fn customers_by_custkey(&self, tmp_name: &str) -> Result<(String, Option<String>)> {
        let chosen = self.replica_for("customer", "custkey");
        if chosen != "customer" {
            return Ok((chosen, None));
        }
        let tmp = self.align_customers(tmp_name)?;
        Ok((tmp.clone(), Some(tmp)))
    }

    /// Repartitions `customer` by custkey into a temporary set aligned
    /// with the `orders_ck` replica (same scheme ⇒ same nodes).
    fn align_customers(&self, tmp_name: &str) -> Result<String> {
        if self.cluster.get_dist_set(tmp_name).is_some() {
            self.cluster.drop_dist_set(tmp_name)?;
        }
        let tmp = self.cluster.create_dist_set(
            tmp_name,
            PartitionScheme::hash("custkey", self.partitions, key_field(0)),
        )?;
        let customer = self.cluster.get_dist_set("customer").expect("loaded");
        let mut dispatchers: FxHashMap<NodeId, pangea_cluster::EngineDispatcher> =
            FxHashMap::default();
        customer.try_for_each_record(|from, rec| {
            let d = match dispatchers.entry(from) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => e.insert(tmp.dispatcher(from)?),
            };
            d.dispatch(rec)?;
            Ok(())
        })?;
        for (_, d) in dispatchers {
            d.finish()?;
        }
        Ok(tmp_name.to_string())
    }
}
