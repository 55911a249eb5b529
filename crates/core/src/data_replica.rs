//! NUMA-aware data replicas: per-locality-group copies and shards of the
//! immutable data (Section 3.4, Appendix A).
//!
//! The paper's engine gives each locality group (≈ NUMA node) its own region
//! of the data matrix: a *shard* under the Sharding strategy, a *full copy*
//! under FullReplication, placed in the node's DRAM by the NUMA-aware
//! collocation protocol of Appendix A.  [`DataReplicaSet`] reproduces that
//! structure for the simulator: it is built once per session from the plan,
//! the machine topology, and a [`dw_numa::DataPlacement`], and the executors
//! read every item through it.
//!
//! Three replica shapes exist, the shard axis derived from the plan's
//! access method (Section 3.4: "we implement Sharding by randomly
//! partitioning the rows (resp. columns) of a data matrix for the row-wise
//! (resp. column-wise) access method"):
//!
//! * **Row shards** — for row-wise Sharding on SGD-family tasks (SVM / LR /
//!   LS), group `g` owns the contiguous row range `bounds[g]..bounds[g+1]`
//!   of a balanced partition and holds it as a **zero-copy**
//!   [`TaskData::row_range`] shard: a [`dw_matrix::RowRangeView`] window
//!   into the shared row layout, so a shard duplicates no element bytes
//!   ([`DataReplicaSet::total_bytes`] for a sharded set is ~0).  Workers
//!   resolve a global row id to the owning shard and a local index through
//!   the cached owner map (the partition bounds); a worker whose locality
//!   group does not own the row reads the owning group's shard — the
//!   cross-node read a real NUMA machine would perform, which the locality
//!   accounting surfaces.  Row values, labels, and the column ids the
//!   update writes are identical to the unsharded matrix, so execution is
//!   bit-for-bit unchanged.
//! * **Column shards** — for columnar Sharding (ColumnWise / ColumnToRow,
//!   the SCD family), group `g` owns the contiguous column range
//!   `bounds[g]..bounds[g+1]` as a zero-copy [`TaskData::col_range`] shard:
//!   a [`dw_matrix::ColRangeView`] window into the shared CSC.  Columnar
//!   items are model coordinates — global by nature — so the shard keeps
//!   global ids ([`DataReplicaSet::resolve`] passes the item through
//!   unchanged; the shard translates its column reads internally) and reads
//!   the rows `S(j)` expands into through the shared base, which keeps
//!   sharded columnar execution bit-for-bit identical too.
//! * **Full references** — for FullReplication, and for graph-family row
//!   access (whose per-edge updates read global vertex degrees, which a row
//!   shard cannot serve): every group holds the complete task data.  On
//!   this single-socket host the "copies" share one allocation; for
//!   FullReplication the per-replica byte accounting still reports the
//!   bytes a real per-node copy would occupy, while a Sharding plan that
//!   falls back to full references reports each group's *share* of the one
//!   shared allocation — the region a real machine would place per node.
//!
//! The contiguous partition is what the locality-first scheduler of
//! [`crate::plan`] deals against: [`DataReplicaSet::owner_of`] is the shared
//! ownership oracle, so the scheduler and the storage layer can never
//! disagree about which node owns an item, on either axis.

use crate::plan::{EpochAssignment, ExecutionPlan};
use crate::replication::DataReplication;
use crate::task::AnalyticsTask;
use dw_matrix::Axis;
use dw_numa::{DataPlacement, MachineTopology, NodeBinder, PlacementPolicy};
use dw_optim::TaskData;
use std::sync::Arc;

/// What the physical page binder did while a replica set was built — the
/// record that makes "locality is physical now" observable without a perf
/// counter in sight.
///
/// With the `numa` feature on a multi-node Linux host, every shard's
/// page-aligned extents are handed to `mbind(2)` so the pages physically
/// migrate to the shard's node.  Everywhere else (feature off, non-Linux,
/// single-node host) the binder is inert and every bind is a *recorded
/// no-op*: `ranges` still counts the extents that would have been bound,
/// `bytes` stays 0, and execution is bit-identical — binding only moves
/// pages, never data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BindReport {
    /// Whether a real multi-node binder issued the `mbind(2)` calls.
    pub active: bool,
    /// Shard extents submitted to the binder (counted even when inert).
    pub ranges: usize,
    /// Bytes physically bound to their shard's node (0 when inert).
    pub bytes: u64,
}

/// One locality group's view of the immutable data.
#[derive(Debug, Clone)]
pub struct DataReplica {
    /// Locality group (= model replica) this data region serves.
    pub group: usize,
    /// NUMA node whose DRAM holds the region (from the placement).
    pub node: usize,
    /// Bytes a dedicated copy of this region occupies on its node.
    pub bytes: u64,
    /// The data: a row shard or a reference to the full task data.
    data: Arc<TaskData>,
}

impl DataReplica {
    /// The task data this replica serves.
    pub fn data(&self) -> &Arc<TaskData> {
        &self.data
    }
}

/// Contiguous balanced partition of `items` rows or columns:
/// `bounds[g]..bounds[g+1]` is group `g`'s range; the first
/// `items % groups` groups get one extra item.
pub fn shard_bounds(items: usize, groups: usize) -> Vec<usize> {
    let groups = groups.max(1);
    let base = items / groups;
    let extra = items % groups;
    let mut bounds = Vec::with_capacity(groups + 1);
    bounds.push(0);
    let mut acc = 0;
    for g in 0..groups {
        acc += base + usize::from(g < extra);
        bounds.push(acc);
    }
    bounds
}

/// Cached item-ownership map for sharded replicas: the partition bounds
/// along the shard axis, computed once at build time (O(groups) memory,
/// O(log groups) lookups).
#[derive(Debug)]
struct OwnerMap {
    /// `bounds[g]..bounds[g+1]` is the row/column range group `g` owns.
    bounds: Vec<usize>,
}

impl OwnerMap {
    #[inline]
    fn owner_of(&self, item: usize) -> usize {
        debug_assert!(item < *self.bounds.last().expect("non-empty bounds"));
        self.bounds.partition_point(|&b| b <= item) - 1
    }
}

#[derive(Debug)]
struct Inner {
    replicas: Vec<DataReplica>,
    owners: Option<OwnerMap>,
    /// The axis the shards cut (meaningful only when `owners` is set).
    axis: Axis,
    placement: DataPlacement,
    bind: BindReport,
}

/// The session-level set of per-group data replicas.
///
/// Cheap to clone (`Arc` handle); threaded executors hand clones to their
/// worker jobs.
#[derive(Debug, Clone)]
pub struct DataReplicaSet {
    inner: Arc<Inner>,
}

impl DataReplicaSet {
    /// Build the replica set for one session.
    ///
    /// Shard assignment is driven by the `dw-numa` placement machinery:
    /// `policy` decides which node holds each group's region (the NUMA-aware
    /// protocol collocates group `g` with node `g mod nodes`; the OS-default
    /// protocol piles everything onto node 0).
    pub fn build(
        plan: &ExecutionPlan,
        machine: &MachineTopology,
        policy: PlacementPolicy,
        task: &AnalyticsTask,
    ) -> DataReplicaSet {
        Self::build_with_binding(plan, machine, policy, task, true)
    }

    /// [`DataReplicaSet::build`] with the physical page binder switched
    /// explicitly.  `bind: false` skips the `mbind(2)` pass entirely (the
    /// control arm of a bind-on/off comparison); `bind: true` binds each shard's page-aligned
    /// extents to its placed node when a real multi-node binder is available,
    /// and records a no-op otherwise.  Either way the shards, owners and
    /// placement are identical — binding moves pages, never data.
    pub fn build_with_binding(
        plan: &ExecutionPlan,
        machine: &MachineTopology,
        policy: PlacementPolicy,
        task: &AnalyticsTask,
        bind: bool,
    ) -> DataReplicaSet {
        let groups = plan.locality_groups(machine).max(1);
        let stats = task.data.matrix.stats().clone();
        let full_bytes = stats.sparse_bytes as u64;

        let axis = Self::shard_axis_for(plan);
        let shardable = Self::would_shard(plan, machine, task);

        let (shards, owners): (Vec<Arc<TaskData>>, Option<OwnerMap>) = if shardable {
            // The shards are zero-copy windows into the shared compressed
            // backend; make sure one exists so no shard read pays a lazy
            // conversion mid-epoch.  (For rows this is a no-op under the
            // Dense layout arm, whose row store the session already
            // materialized.)
            let bounds = match axis {
                Axis::Rows => {
                    task.data.matrix.materialize_row_access();
                    shard_bounds(task.data.examples(), groups)
                }
                Axis::Cols => {
                    task.data.matrix.materialize_cols();
                    shard_bounds(task.data.dim(), groups)
                }
            };
            let shards = (0..groups)
                .map(|g| {
                    let (start, end) = (bounds[g], bounds[g + 1]);
                    Arc::new(match axis {
                        Axis::Rows => task.data.row_range(start, end),
                        Axis::Cols => task.data.col_range(start, end),
                    })
                })
                .collect();
            (shards, Some(OwnerMap { bounds }))
        } else {
            ((0..groups).map(|_| Arc::clone(&task.data)).collect(), None)
        };

        // The placement models each group's *region* (the slice of the
        // shared layout a real machine would first-touch onto the node),
        // even though a zero-copy shard duplicates none of it.  A Sharding
        // plan that fell back to full references still *intends* a
        // partition, and its groups share one allocation — so each region
        // is a groups-th of the whole, keeping the summed residency
        // truthful (the seed charged a dedicated full copy per node here).
        let bytes_per_group = match plan.data_replication {
            DataReplication::Sharding => (full_bytes / groups as u64).max(1),
            DataReplication::FullReplication | DataReplication::Importance { .. } => full_bytes,
        };
        let placement = DataPlacement::place(
            machine,
            policy,
            plan.workers.max(1),
            groups,
            bytes_per_group,
        );
        let bind = if bind {
            match &owners {
                Some(map) => Self::bind_shards(task, axis, &map.bounds, &placement),
                None => BindReport::default(),
            }
        } else {
            BindReport::default()
        };
        let replicas = shards
            .into_iter()
            .enumerate()
            .map(|(g, data)| {
                // Sharded replicas report what their shard actually holds —
                // ~0 for a zero-copy row-range view; full references report
                // the bytes a dedicated per-node copy would occupy on a
                // real machine.
                let bytes = if owners.is_some() {
                    data.matrix.resident_bytes() as u64
                } else {
                    bytes_per_group
                };
                DataReplica {
                    group: g,
                    node: placement.data_regions[g].node,
                    bytes,
                    data,
                }
            })
            .collect();
        DataReplicaSet {
            inner: Arc::new(Inner {
                replicas,
                owners,
                axis,
                placement,
                bind,
            }),
        }
    }

    /// Bind each shard's page-aligned byte extents to its placed host node.
    ///
    /// The extents come straight from the already-materialized shared layout
    /// ([`dw_matrix::DataMatrix::row_range_extents`] /
    /// [`col_range_extents`](dw_matrix::DataMatrix::col_range_extents)), so
    /// binding touches only pages the shard actually reads and copies
    /// nothing.  Placed *logical* nodes fold onto the host's real node count
    /// — on a host with fewer nodes than the simulated machine, shards wrap
    /// round-robin exactly like the planner's worker→node rule.
    fn bind_shards(
        task: &AnalyticsTask,
        axis: Axis,
        bounds: &[usize],
        placement: &DataPlacement,
    ) -> BindReport {
        let binder = NodeBinder::detect();
        let mut report = BindReport {
            active: binder.is_active(),
            ..BindReport::default()
        };
        let host_nodes = binder.host_nodes().max(1);
        for g in 0..bounds.len().saturating_sub(1) {
            let (start, end) = (bounds[g], bounds[g + 1]);
            let extents = match axis {
                Axis::Rows => task.data.matrix.row_range_extents(start, end),
                Axis::Cols => task.data.matrix.col_range_extents(start, end),
            };
            let node = placement.data_regions[g].node % host_nodes;
            for extent in extents {
                report.ranges += 1;
                report.bytes += binder.bind_range(extent.addr, extent.len, node);
            }
        }
        report
    }

    /// The axis [`DataReplicaSet::build`] shards along for `plan`'s access
    /// method (Section 3.4): row-wise plans partition rows, columnar plans
    /// partition columns.
    pub fn shard_axis_for(plan: &ExecutionPlan) -> Axis {
        if plan.access.is_columnar() {
            Axis::Cols
        } else {
            Axis::Rows
        }
    }

    /// Whether [`DataReplicaSet::build`] would cut real shards for this
    /// plan/machine/task — the single shardability rule shared with the
    /// steal-budget tuning ([`crate::plan::auto_steal_scheduler`]), so the
    /// two can never disagree.
    ///
    /// Shards are a per-*node* construct (Appendix A places one data region
    /// per NUMA node): a PerCore plan has one locality group per worker, and
    /// cutting a shard per worker would tax session setup for regions that
    /// share a node's DRAM anyway — so shards only exist when the groups map
    /// onto nodes.  Row shards additionally require an SGD-family task:
    /// graph models read global vertex degrees from their row updates, which
    /// a row shard cannot serve.  Column shards carry no such restriction —
    /// they keep global ids and read `S(j)`'s rows through the shared base,
    /// so every columnar update is served exactly.
    pub fn would_shard(
        plan: &ExecutionPlan,
        machine: &MachineTopology,
        task: &AnalyticsTask,
    ) -> bool {
        let groups = plan.locality_groups(machine).max(1);
        let node_mapped = plan.data_replication == DataReplication::Sharding
            && groups > 1
            && groups <= machine.nodes;
        match Self::shard_axis_for(plan) {
            Axis::Rows => node_mapped && task.kind.is_sgd_family() && task.data.examples() > 0,
            Axis::Cols => node_mapped && task.data.dim() > 0,
        }
    }

    /// Number of replicas (= locality groups).
    pub fn len(&self) -> usize {
        self.inner.replicas.len()
    }

    /// Whether the set holds no replicas (never true for a built set).
    pub fn is_empty(&self) -> bool {
        self.inner.replicas.is_empty()
    }

    /// Whether the groups hold real shards (vs full references).
    pub fn is_sharded(&self) -> bool {
        self.inner.owners.is_some()
    }

    /// The axis the shards cut, when the set holds real shards (`None` for
    /// full-reference sets).
    pub fn shard_axis(&self) -> Option<Axis> {
        self.inner.owners.as_ref().map(|_| self.inner.axis)
    }

    /// The replica serving locality group `group`.
    pub fn replica(&self, group: usize) -> &DataReplica {
        &self.inner.replicas[group]
    }

    /// The placement that assigned each replica to its node.
    pub fn placement(&self) -> &DataPlacement {
        &self.inner.placement
    }

    /// The locality group that owns global item `item` (a row id for row
    /// shards, a column id for column shards), when the set holds real
    /// shards (`None` for full-reference sets, where every group owns
    /// everything).  This is the cached owner map the locality-first
    /// scheduler deals against.
    #[inline]
    pub fn owner_of(&self, item: usize) -> Option<usize> {
        self.inner.owners.as_ref().map(|o| o.owner_of(item))
    }

    /// Resolve a worker's item to the data it reads: `(data, item_for_data,
    /// local)` where `local` says whether the read stays in the worker's own
    /// locality group.
    ///
    /// For row-sharded sets the item (a global row id) maps to the owning
    /// group's shard and the row's local index there (the shard's labels
    /// are sliced to match).  For column-sharded sets the item is a **model
    /// coordinate** — global by nature, since the update function addresses
    /// the model, the costs, and `S(j)`'s rows by global ids — so it passes
    /// through unchanged and the owning shard translates its column reads
    /// internally.  Full references read the worker's own group's copy
    /// under the identity mapping.
    #[inline]
    pub fn resolve(&self, group: usize, item: usize) -> (&TaskData, usize, bool) {
        match &self.inner.owners {
            Some(owners) => {
                let owner = owners.owner_of(item);
                let local = match self.inner.axis {
                    Axis::Rows => item - owners.bounds[owner],
                    Axis::Cols => item,
                };
                (
                    self.inner.replicas[owner].data.as_ref(),
                    local,
                    owner == group,
                )
            }
            None => (self.inner.replicas[group].data.as_ref(), item, true),
        }
    }

    /// Fraction of the epoch's item reads that stay in the reading worker's
    /// own locality group under this replica set (1.0 for unsharded sets).
    ///
    /// Ownership comes from the owner map cached at build time; the cost per
    /// call is one pass over the assignment's items.  Stolen items are
    /// credited to the *thief's* group: the locality-first scheduler deals
    /// every item to its owner first, so an item sitting in a foreign
    /// worker's list got there by stealing, and the optimizer's
    /// `expected_data_locality` model (1.0 for locality-first schedules)
    /// already counts it that way.  The steal's cost is not hidden — it
    /// surfaces as measured remote-read time in
    /// [`crate::executor::EpochTiming`], not as a phantom locality loss.
    pub fn local_read_fraction(&self, assignment: &EpochAssignment) -> f64 {
        let Some(owners) = &self.inner.owners else {
            return 1.0;
        };
        let mut total = 0usize;
        let mut local = 0usize;
        for worker in &assignment.workers {
            for &item in &worker.items {
                total += 1;
                if owners.owner_of(item) == worker.replica {
                    local += 1;
                }
            }
        }
        let local = (local + assignment.steals()).min(total);
        if total == 0 {
            1.0
        } else {
            local as f64 / total as f64
        }
    }

    /// What the physical page binder did at build time (a recorded no-op —
    /// `active: false`, `bytes: 0` — for inert binders and unsharded sets).
    pub fn bind_report(&self) -> BindReport {
        self.inner.bind
    }

    /// Total bytes the replicas would occupy as dedicated per-node copies.
    pub fn total_bytes(&self) -> u64 {
        self.inner.replicas.iter().map(|r| r.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMethod;
    use crate::plan::build_epoch_assignment;
    use crate::replication::ModelReplication;
    use crate::task::ModelKind;
    use dw_data::{Dataset, PaperDataset};

    fn machine() -> MachineTopology {
        MachineTopology::local2()
    }

    fn svm_task() -> AnalyticsTask {
        AnalyticsTask::from_dataset(&Dataset::generate(PaperDataset::Reuters, 3), ModelKind::Svm)
    }

    fn plan(access: AccessMethod, model: ModelReplication, data: DataReplication) -> ExecutionPlan {
        ExecutionPlan::new(&machine(), access, model, data).with_workers(4)
    }

    #[test]
    fn rowwise_sharding_builds_real_shards() {
        let task = svm_task();
        let p = plan(
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        );
        let set = DataReplicaSet::build(&p, &machine(), PlacementPolicy::NumaAware, &task);
        assert!(set.is_sharded());
        assert_eq!(set.len(), 2);
        // NUMA-aware placement: group g lives on node g.
        assert_eq!(set.replica(0).node, 0);
        assert_eq!(set.replica(1).node, 1);
        // Shards partition the rows.
        let shard_rows: usize = (0..set.len())
            .map(|g| set.replica(g).data().examples())
            .sum();
        assert_eq!(shard_rows, task.data.examples());
        // Shards are zero-copy windows over the shared row layout: servable
        // row-wise, no column layout, and no element bytes of their own.
        for g in 0..set.len() {
            let shard = set.replica(g).data();
            assert!(shard.matrix.csr_materialized());
            assert!(!shard.matrix.csc_materialized());
            assert!(shard.matrix.row_window().is_some());
            assert_eq!(shard.matrix.resident_bytes(), 0);
        }
        assert_eq!(set.total_bytes(), 0, "row shards are views, not copies");
    }

    #[test]
    fn resolved_rows_are_bit_identical_to_the_full_matrix() {
        // The determinism contract of the shard indirection: every resolved
        // row serves exactly the bytes the unsharded matrix serves.
        let task = svm_task();
        let p = plan(
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        );
        let set = DataReplicaSet::build(&p, &machine(), PlacementPolicy::NumaAware, &task);
        for i in 0..task.data.examples() {
            let (shard, local, _) = set.resolve(0, i);
            let shard_row = shard.row(local);
            let full_row = task.data.row(i);
            assert_eq!(shard_row.indices, full_row.indices, "row {i}");
            assert_eq!(
                shard_row
                    .values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                full_row
                    .values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "row {i}"
            );
            assert_eq!(shard.labels[local], task.data.labels[i], "label {i}");
        }
    }

    #[test]
    fn full_replication_shares_full_references() {
        let task = svm_task();
        let p = plan(
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::FullReplication,
        );
        let set = DataReplicaSet::build(&p, &machine(), PlacementPolicy::NumaAware, &task);
        assert!(!set.is_sharded());
        assert_eq!(set.shard_axis(), None);
        let (data, local, is_local) = set.resolve(1, 5);
        assert_eq!(local, 5);
        assert!(is_local);
        assert_eq!(data.examples(), task.data.examples());
    }

    #[test]
    fn columnar_sharding_builds_real_column_shards() {
        let task = svm_task();
        for access in [AccessMethod::ColumnWise, AccessMethod::ColumnToRow] {
            let p = plan(access, ModelReplication::PerNode, DataReplication::Sharding);
            let set = DataReplicaSet::build(&p, &machine(), PlacementPolicy::NumaAware, &task);
            assert!(set.is_sharded(), "{access}");
            assert_eq!(set.shard_axis(), Some(Axis::Cols), "{access}");
            assert_eq!(set.len(), 2);
            // NUMA-aware placement: group g lives on node g.
            assert_eq!(set.replica(0).node, 0);
            assert_eq!(set.replica(1).node, 1);
            // Shards partition the columns.
            let shard_cols: usize = (0..set.len())
                .map(|g| set.replica(g).data().matrix.cols())
                .sum();
            assert_eq!(shard_cols, task.data.dim());
            // Shards are zero-copy windows over the shared CSC: servable
            // column-wise, no owned layouts, no element bytes of their own.
            for g in 0..set.len() {
                let shard = set.replica(g).data();
                assert!(shard.matrix.csc_materialized());
                assert!(!shard.matrix.csr_materialized());
                assert!(shard.matrix.col_window().is_some());
                assert_eq!(shard.matrix.resident_bytes(), 0);
            }
            assert_eq!(set.total_bytes(), 0, "column shards are views, not copies");
        }
    }

    #[test]
    fn resolved_columns_are_bit_identical_to_the_full_matrix() {
        // The determinism contract of the columnar shard indirection: every
        // resolved column — and every row its S(j) expansion reads — serves
        // exactly the bytes the unsharded matrix serves, under global ids.
        let task = svm_task();
        let p = plan(
            AccessMethod::ColumnToRow,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        );
        let set = DataReplicaSet::build(&p, &machine(), PlacementPolicy::NumaAware, &task);
        for j in 0..task.data.dim() {
            let (shard, item, _) = set.resolve(0, j);
            assert_eq!(item, j, "columnar items keep their global coordinate");
            let shard_col = shard.col(j);
            let full_col = task.data.col(j);
            assert_eq!(shard_col.indices, full_col.indices, "col {j}");
            assert_eq!(
                shard_col
                    .values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                full_col
                    .values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "col {j}"
            );
            // The rows S(j) expands into are the base's full rows.
            for i in shard_col.rows().take(3) {
                assert_eq!(shard.row(i).indices, task.data.row(i).indices, "row {i}");
                assert_eq!(shard.labels[i], task.data.labels[i], "label {i}");
            }
        }
    }

    #[test]
    fn columnar_percore_plans_fall_back_to_full_references() {
        // Shards are a per-node construct on either axis: a PerCore plan's
        // groups outnumber the nodes, so columnar Sharding resolves to the
        // full data exactly as the row path does.
        let task = svm_task();
        let p = plan(
            AccessMethod::ColumnToRow,
            ModelReplication::PerCore,
            DataReplication::Sharding,
        );
        let set = DataReplicaSet::build(&p, &machine(), PlacementPolicy::NumaAware, &task);
        assert!(!set.is_sharded());
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn graph_tasks_never_shard_rows() {
        // QP/LP row updates read global vertex degrees; a row shard would
        // change them, so graph tasks must resolve to the full data.
        let task = AnalyticsTask::from_dataset(
            &Dataset::generate(PaperDataset::AmazonQp, 3),
            ModelKind::Qp,
        );
        let p = plan(
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        );
        let set = DataReplicaSet::build(&p, &machine(), PlacementPolicy::NumaAware, &task);
        assert!(!set.is_sharded());
    }

    #[test]
    fn locality_fraction_follows_the_scheduler() {
        let task = svm_task();
        let m = machine();
        // Round-robin dealing ignores ownership: about half the reads of a
        // 2-group machine are group-local.
        let rr = plan(
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_scheduler(crate::plan::ItemScheduler::RoundRobin);
        let set = DataReplicaSet::build(&rr, &m, PlacementPolicy::NumaAware, &task);
        let assignment = build_epoch_assignment(&rr, &m, &task.data, 0, 1, None, Some(&set));
        let fraction = set.local_read_fraction(&assignment);
        assert!((0.3..=0.7).contains(&fraction), "local fraction {fraction}");
        // Locality-first dealing with stealing disabled keeps every read in
        // the owner's group.
        let lf = plan(
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_steal_budget(0);
        let set = DataReplicaSet::build(&lf, &m, PlacementPolicy::NumaAware, &task);
        let assignment = build_epoch_assignment(&lf, &m, &task.data, 0, 1, None, Some(&set));
        assert_eq!(set.local_read_fraction(&assignment), 1.0);
        assert_eq!(assignment.steals(), 0);
        // Unsharded sets are fully local by definition.
        let full = DataReplicaSet::build(
            &plan(
                AccessMethod::RowWise,
                ModelReplication::PerNode,
                DataReplication::FullReplication,
            ),
            &m,
            PlacementPolicy::NumaAware,
            &task,
        );
        assert_eq!(full.local_read_fraction(&assignment), 1.0);
    }

    #[test]
    fn owner_map_is_a_contiguous_balanced_partition() {
        let task = svm_task();
        let p = plan(
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        );
        let m = machine();
        let set = DataReplicaSet::build(&p, &m, PlacementPolicy::NumaAware, &task);
        let rows = task.data.examples();
        let bounds = shard_bounds(rows, set.len());
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&rows));
        for i in 0..rows {
            let owner = set.owner_of(i).expect("sharded set has owners");
            assert!(bounds[owner] <= i && i < bounds[owner + 1], "row {i}");
            assert_eq!(
                set.replica(owner).data().examples(),
                bounds[owner + 1] - bounds[owner]
            );
        }
        // Full references have no owner map.
        let full = DataReplicaSet::build(
            &plan(
                AccessMethod::RowWise,
                ModelReplication::PerNode,
                DataReplication::FullReplication,
            ),
            &m,
            PlacementPolicy::NumaAware,
            &task,
        );
        assert_eq!(full.owner_of(0), None);
    }

    #[test]
    fn stealing_rebalances_load_and_is_charged_to_locality() {
        // 3 workers over 2 nodes: group 0 gets workers {0, 2}, group 1 gets
        // worker {1}.  Owner-directed dealing gives worker 1 twice the load;
        // a steal budget lets workers 0/2 take cross-group items, which the
        // locality accounting must charge.
        let task = svm_task();
        let m = machine();
        let base = plan(
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        );
        let no_steal = base.clone().with_workers(3).with_steal_budget(0);
        let set = DataReplicaSet::build(&no_steal, &m, PlacementPolicy::NumaAware, &task);
        let starved = build_epoch_assignment(&no_steal, &m, &task.data, 0, 1, None, Some(&set));
        assert_eq!(starved.steals(), 0);
        assert_eq!(set.local_read_fraction(&starved), 1.0);
        let spread = |a: &crate::plan::EpochAssignment| {
            let lens: Vec<usize> = a.workers.iter().map(|w| w.items.len()).collect();
            lens.iter().max().unwrap() - lens.iter().min().unwrap()
        };
        assert!(spread(&starved) > 1, "imbalance without stealing");

        let stealing = base.clone().with_workers(3).with_steal_budget(10_000);
        let set = DataReplicaSet::build(&stealing, &m, PlacementPolicy::NumaAware, &task);
        let balanced = build_epoch_assignment(&stealing, &m, &task.data, 0, 1, None, Some(&set));
        assert!(balanced.steals() > 0, "imbalance forces cross-group steals");
        assert!(spread(&balanced) <= 1, "stealing evens out the load");
        // Stolen items are credited to the thief's group, so measured
        // locality matches the optimizer's `expected_data_locality` (1.0 for
        // locality-first schedules) even under heavy stealing; the steal's
        // remote-read cost is reported by `EpochTiming`, not faked here.
        let fraction = set.local_read_fraction(&balanced);
        assert!(
            (fraction - 1.0).abs() < f64::EPSILON,
            "thief-credited locality stays 1.0 under stealing (fraction {fraction})"
        );
        // Every item is still processed exactly once.
        assert_eq!(balanced.total_items(), task.data.examples());
        // A tight budget bounds the number of moves.
        let capped = base.with_workers(3).with_steal_budget(5);
        let set = DataReplicaSet::build(&capped, &m, PlacementPolicy::NumaAware, &task);
        let capped_assignment =
            build_epoch_assignment(&capped, &m, &task.data, 0, 1, None, Some(&set));
        assert!(capped_assignment.steals() <= 5);
    }

    #[test]
    fn byte_accounting_scales_with_strategy() {
        let task = svm_task();
        let m = machine();
        let sharded = DataReplicaSet::build(
            &plan(
                AccessMethod::RowWise,
                ModelReplication::PerNode,
                DataReplication::Sharding,
            ),
            &m,
            PlacementPolicy::NumaAware,
            &task,
        );
        let full = DataReplicaSet::build(
            &plan(
                AccessMethod::RowWise,
                ModelReplication::PerNode,
                DataReplication::FullReplication,
            ),
            &m,
            PlacementPolicy::NumaAware,
            &task,
        );
        // FullReplication costs ~groups× the sharded footprint.
        assert!(full.total_bytes() >= sharded.total_bytes() * 3 / 2);
        assert!(!full.is_empty());
    }

    #[test]
    fn sharding_without_shards_reports_the_shared_allocation_once() {
        // Regression for the byte-accounting fix: a Sharding plan that falls
        // back to full references (graph row access reads global degrees)
        // holds ONE shared allocation — the summed replica residency must be
        // ~the full bytes split across groups, not a dedicated full copy
        // per node as FullReplication models.
        let task = AnalyticsTask::from_dataset(
            &Dataset::generate(PaperDataset::AmazonQp, 3),
            ModelKind::Qp,
        );
        let m = machine();
        let full_bytes = task.data.matrix.stats().sparse_bytes as u64;
        let sharding = DataReplicaSet::build(
            &plan(
                AccessMethod::RowWise,
                ModelReplication::PerNode,
                DataReplication::Sharding,
            ),
            &m,
            PlacementPolicy::NumaAware,
            &task,
        );
        assert!(!sharding.is_sharded(), "graph tasks never shard rows");
        let total = sharding.total_bytes();
        assert!(
            total <= full_bytes && total >= full_bytes - 2,
            "residency {total} should be the one shared allocation ({full_bytes}), not a copy per node"
        );
        let replication = DataReplicaSet::build(
            &plan(
                AccessMethod::RowWise,
                ModelReplication::PerNode,
                DataReplication::FullReplication,
            ),
            &m,
            PlacementPolicy::NumaAware,
            &task,
        );
        assert_eq!(replication.total_bytes(), 2 * full_bytes);
    }

    #[test]
    fn columnar_locality_and_stealing_follow_the_scheduler() {
        // The column mirror of the row locality/stealing contracts: owner-
        // directed dealing keeps every column read group-local, round-robin
        // dealing leaves ~1/groups local, and a steal budget moves columns
        // cross-group only on imbalance.
        let task = svm_task();
        let m = machine();
        let base = plan(
            AccessMethod::ColumnToRow,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        );
        let rr = base
            .clone()
            .with_scheduler(crate::plan::ItemScheduler::RoundRobin);
        let set = DataReplicaSet::build(&rr, &m, PlacementPolicy::NumaAware, &task);
        let assignment = build_epoch_assignment(&rr, &m, &task.data, 0, 1, None, Some(&set));
        let fraction = set.local_read_fraction(&assignment);
        assert!((0.3..=0.7).contains(&fraction), "local fraction {fraction}");

        let lf = base.clone().with_steal_budget(0);
        let set = DataReplicaSet::build(&lf, &m, PlacementPolicy::NumaAware, &task);
        let assignment = build_epoch_assignment(&lf, &m, &task.data, 0, 1, None, Some(&set));
        assert_eq!(set.local_read_fraction(&assignment), 1.0);
        assert_eq!(assignment.steals(), 0);
        // Every column is dealt exactly once.
        assert_eq!(assignment.total_items(), task.data.dim());

        // 3 workers over 2 nodes: imbalance forces cross-group steals of
        // columns, which the locality accounting charges.
        let stealing = base.with_workers(3).with_steal_budget(10_000);
        let set = DataReplicaSet::build(&stealing, &m, PlacementPolicy::NumaAware, &task);
        let balanced = build_epoch_assignment(&stealing, &m, &task.data, 0, 1, None, Some(&set));
        assert!(balanced.steals() > 0);
        // Thief-credited: stolen columns count for the thief's group, so the
        // locality-first schedule keeps its modelled locality of 1.0.
        assert!((set.local_read_fraction(&balanced) - 1.0).abs() < f64::EPSILON);
        let lens: Vec<usize> = balanced.workers.iter().map(|w| w.items.len()).collect();
        assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }

    #[test]
    fn os_default_placement_piles_data_on_node_zero() {
        let task = svm_task();
        let p = plan(
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        );
        let set = DataReplicaSet::build(&p, &machine(), PlacementPolicy::OsDefault, &task);
        for g in 0..set.len() {
            assert_eq!(set.replica(g).node, 0);
        }
    }

    #[test]
    fn bind_report_records_extents_and_binding_never_reshapes_the_set() {
        let task = svm_task();
        let p = plan(
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        );
        let bound = DataReplicaSet::build(&p, &machine(), PlacementPolicy::NumaAware, &task);
        let report = bound.bind_report();
        // A sharded build enumerates every shard's page extents; an inert
        // binder (feature off, non-Linux, or single-node host) records them
        // as a no-op and binds zero bytes.
        assert!(report.ranges > 0, "sharded build enumerates bind extents");
        if !report.active {
            assert_eq!(report.bytes, 0, "inert binder binds nothing");
        }

        // The control arm skips the mbind pass entirely...
        let unbound = DataReplicaSet::build_with_binding(
            &p,
            &machine(),
            PlacementPolicy::NumaAware,
            &task,
            false,
        );
        assert_eq!(unbound.bind_report(), BindReport::default());
        // ...and binding never moves data: shards, owners and placement are
        // identical either way.
        assert_eq!(bound.len(), unbound.len());
        assert_eq!(bound.shard_axis(), unbound.shard_axis());
        assert_eq!(bound.total_bytes(), unbound.total_bytes());
        for item in [0, task.data.examples() / 2, task.data.examples() - 1] {
            assert_eq!(bound.owner_of(item), unbound.owner_of(item));
        }

        // Unsharded sets have nothing to bind.
        let full = plan(
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::FullReplication,
        );
        let set = DataReplicaSet::build(&full, &machine(), PlacementPolicy::NumaAware, &task);
        assert_eq!(set.bind_report(), BindReport::default());
    }
}
