//! Pluggable epoch executors.
//!
//! The DimmWitted thesis is that execution *policy* (which tradeoff-space
//! point to run) must be navigable at runtime; this module decouples policy
//! from *mechanism* by putting the thing that actually runs one epoch behind
//! the [`Executor`] trait.  Three mechanisms are provided; they differ in
//! *who* runs a worker's item list and when, and share the one loop that
//! walks it (`run_items`: step item *k* with item *k+1*'s slices already
//! hinted into cache):
//!
//! * [`InterleavedExecutor`] — deterministic round-robin interleaving of
//!   virtual workers in a single thread.  Reproducible, and preserves the
//!   information structure of each model-replication strategy.
//! * [`ThreadedExecutor`] — real lock-free threads from a **persistent**
//!   [`WorkerPool`] reused across epochs.  The asynchronous PerNode model
//!   averaging of Section 3.3 runs on the dispatching thread between
//!   completion acknowledgements, so the protocol terminates exactly when
//!   the epoch's workers do.
//! * [`SpawnPerEpochExecutor`] — the legacy mechanism (one fresh OS thread
//!   per worker per epoch), kept as a benchmark baseline for the pool and as
//!   the reference for the deadlock fix: its averaging thread now watches a
//!   completion counter updated *inside* the thread scope, where the
//!   original implementation flipped its flag only after the scope joined —
//!   which the averaging thread itself was blocking.

use crate::data_replica::DataReplicaSet;
use crate::plan::{EpochAssignment, ExecutionPlan};
use crate::pool::{paced_interval, WorkerPool};
use crate::replication::ModelReplication;
use crate::report::RunConfig;
use crate::task::AnalyticsTask;
use dw_matrix::kernels::prefetch_read;
use dw_matrix::VecView;
use dw_numa::MachineTopology;
use dw_optim::{average_models_into, AtomicModel, Objective, TaskData};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the asynchronous PerNode averaging protocol wakes up
/// ("as frequently as possible", Section 3.3) while a round costs under a
/// ninth of it; a costlier round stretches the wait that follows it
/// ([`crate::pool::paced_interval`]) so the actor stays under a tenth of a
/// core.
const AVERAGING_INTERVAL: Duration = Duration::from_micros(200);

/// Everything an executor needs to run one epoch.
pub struct EpochContext<'a> {
    /// The task being minimized.
    pub task: &'a AnalyticsTask,
    /// The plan being executed.
    pub plan: &'a ExecutionPlan,
    /// Run parameters (rounds per epoch, synchronization cadence, ...).
    pub config: &'a RunConfig,
    /// The machine the plan targets.
    pub machine: &'a MachineTopology,
    /// Per-worker item lists for this epoch.
    pub assignment: &'a EpochAssignment,
    /// Model replicas, one per locality group.
    pub replicas: &'a [Arc<AtomicModel>],
    /// Per-group data replicas / shards; every item read goes through it.
    pub data: &'a DataReplicaSet,
    /// Step size for this epoch.
    pub step: f64,
}

/// Wall-clock measurements of one executed epoch, in nanoseconds.
///
/// The threaded mechanisms clock each worker's epoch in two pieces — the
/// owned prefix of its item list, then the stolen tail the rebalancing pass
/// appended ([`crate::plan::WorkerAssignment::stolen_tail`]) — so the cost
/// of the stolen (usually cross-node) reads is measured directly, with no
/// perf counters.  The deterministic [`InterleavedExecutor`] measures
/// nothing and returns the all-zero default, which downstream consumers
/// (the steal-budget tuner) treat as "no timing: use counts".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochTiming {
    /// Summed nanoseconds workers spent processing their stolen tails.
    pub steal_ns: u64,
    /// The longest single worker's busy nanoseconds (the critical path).
    pub busy_max_ns: u64,
    /// Summed busy nanoseconds across all workers.
    pub busy_total_ns: u64,
    /// Workers measured (0 for untimed mechanisms).
    pub workers: usize,
}

impl EpochTiming {
    /// Convert to the tuner's feedback, attaching the epoch's steal count.
    pub fn feedback(&self, steals: usize) -> crate::plan::StealFeedback {
        let ns = 1e-9;
        crate::plan::StealFeedback {
            steals,
            steal_seconds: self.steal_ns as f64 * ns,
            busy_max_seconds: self.busy_max_ns as f64 * ns,
            busy_mean_seconds: if self.workers > 0 {
                self.busy_total_ns as f64 * ns / self.workers as f64
            } else {
                0.0
            },
        }
    }
}

/// A mechanism that executes one epoch of first-order updates.
///
/// Executors are stateful (`&mut self`) so that an implementation can hold
/// resources across epochs — the persistent thread pool and the cached item
/// buffers of [`ThreadedExecutor`] are exactly such state.
pub trait Executor: Send {
    /// Mechanism name used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Run every worker's updates for one epoch, returning the measured
    /// timing (the all-zero default for mechanisms that do not measure).
    fn run_epoch(&mut self, ctx: &EpochContext<'_>) -> EpochTiming;
}

/// Average a slice of reference-counted replicas into a plain vector.
pub(crate) fn average_replicas(replicas: &[Arc<AtomicModel>]) -> Vec<f64> {
    let mut averaged = Vec::new();
    average_models_into(replicas, &mut averaged);
    averaged
}

/// One averaging round: every replica is overwritten with the mean of all
/// of them.  `sum` is the round's scratch, kept by the caller so an epoch
/// of rounds allocates once.
fn store_average(replicas: &[Arc<AtomicModel>], sum: &mut Vec<f64>) {
    average_models_into(replicas, sum);
    for replica in replicas {
        replica.store_vec(sum);
    }
}

/// The one item loop every mechanism runs: step `items` in list order, and
/// before stepping item *k* resolve item *k+1* and hand it to `lookahead`.
/// The last item has no successor and issues none.
#[inline]
fn run_items<T: Copy>(
    items: &[usize],
    resolve: impl Fn(usize) -> T,
    lookahead: impl Fn(T),
    mut step: impl FnMut(T),
) {
    let mut upcoming = items.iter().map(|&item| resolve(item));
    let Some(mut current) = upcoming.next() else {
        return;
    };
    for next in upcoming {
        lookahead(next);
        step(current);
        current = next;
    }
    step(current);
}

/// What one worker's updates read and write, fixed for the epoch.
struct WorkerEpoch<'a> {
    objective: &'a dyn Objective,
    data: &'a DataReplicaSet,
    /// The worker's locality group: which shard or copy its reads resolve
    /// through, and which model replica it updates.
    group: usize,
    replica: &'a AtomicModel,
    columnar: bool,
    step: f64,
}

impl<'a> WorkerEpoch<'a> {
    /// The updates of a worker in locality group `group`, borrowing
    /// everything from the epoch's context.
    fn of(ctx: &'a EpochContext<'_>, group: usize) -> Self {
        WorkerEpoch {
            objective: ctx.task.objective.as_ref(),
            data: ctx.data,
            group,
            replica: ctx.replicas[group].as_ref(),
            columnar: ctx.plan.access.is_columnar(),
            step: ctx.step,
        }
    }

    /// Run the worker's updates over `items`.
    ///
    /// Each item is read through the worker's locality group: a node-local
    /// shard row, another group's shard (a remote read on a real machine),
    /// or the shared full copy.  A shuffled deal makes every item a run of
    /// cold lines nothing else looks ahead of, so the next item's row
    /// (column, under columnar access) slices are hinted into cache while
    /// the current one is stepped — a hint only, the step re-reads them.
    fn run(&self, items: &[usize]) {
        let (objective, replica, step) = (self.objective, self.replica, self.step);
        let resolve = |item| {
            let (shard, local, _) = self.data.resolve(self.group, item);
            (shard, local)
        };
        let hint = |view: VecView<'_>| {
            prefetch_read(view.indices);
            prefetch_read(view.values);
        };
        // The access method is decided once per call, not once per item.
        if self.columnar {
            run_items(
                items,
                resolve,
                |(shard, j): (&TaskData, usize)| hint(shard.col(j)),
                |(shard, j)| objective.col_step(shard, j, replica, step),
            );
        } else {
            run_items(
                items,
                resolve,
                |(shard, i): (&TaskData, usize)| hint(shard.row(i)),
                |(shard, i)| objective.row_step(shard, i, replica, step),
            );
        }
    }

    /// Run a threaded worker's whole list — the owned prefix, then the
    /// `stolen_tail` items the rebalancing pass appended — clocking the two
    /// pieces separately.  Returns `(busy_ns, steal_ns)`.
    fn run_clocked(&self, items: &[usize], stolen_tail: usize) -> (u64, u64) {
        let owned = items.len() - stolen_tail.min(items.len());
        let clock = Instant::now();
        self.run(&items[..owned]);
        let owned_elapsed = clock.elapsed();
        self.run(&items[owned..]);
        let total = clock.elapsed();
        (
            total.as_nanos() as u64,
            (total - owned_elapsed).as_nanos() as u64,
        )
    }
}

/// Deterministic round-robin execution of virtual workers in one thread.
#[derive(Debug, Clone, Default)]
pub struct InterleavedExecutor;

impl InterleavedExecutor {
    /// Create the interleaved executor.
    pub fn new() -> Self {
        InterleavedExecutor
    }
}

impl Executor for InterleavedExecutor {
    fn name(&self) -> &'static str {
        "interleaved"
    }

    fn run_epoch(&mut self, ctx: &EpochContext<'_>) -> EpochTiming {
        let rounds = ctx.config.rounds_per_epoch.max(1);
        let mut sum = Vec::new();
        for round in 0..rounds {
            for worker in &ctx.assignment.workers {
                let items = &worker.items;
                if items.is_empty() {
                    continue;
                }
                let chunk = items.len().div_ceil(rounds);
                let start = round * chunk;
                if start >= items.len() {
                    continue;
                }
                let end = (start + chunk).min(items.len());
                WorkerEpoch::of(ctx, worker.replica).run(&items[start..end]);
            }
            // Asynchronous PerNode averaging, approximated at round
            // granularity ("as frequently as possible", Section 3.3).
            let should_sync = ctx.plan.model_replication == ModelReplication::PerNode
                && ctx.replicas.len() > 1
                && ctx.config.sync_every_rounds > 0
                && (round + 1) % ctx.config.sync_every_rounds == 0;
            if should_sync {
                store_average(ctx.replicas, &mut sum);
            }
        }
        // Deterministic single-thread interleaving: wall-clock feedback
        // would make the budget adaptation nondeterministic, so none is
        // measured — the tuner falls back to counts.
        EpochTiming::default()
    }
}

/// Real lock-free threads from a persistent pool, reused across epochs.
///
/// Per-worker item buffers are cached between epochs as well: jobs borrow
/// them through an `Arc` that returns to a reference count of one when the
/// epoch's jobs finish, so the next epoch refills the same allocations.
///
/// The pool is either **owned** (the default: created lazily to match the
/// plan's worker count, resized on a worker-count change) or **shared**
/// ([`ThreadedExecutor::with_pool`]): a server admitting many sessions hands
/// every executor one `Arc<WorkerPool>` so concurrent sessions time-share
/// the same OS threads instead of double-subscribing cores.  A shared pool
/// is never resized — plans with more workers than pool threads round-robin
/// onto the existing threads.
#[derive(Debug, Default)]
pub struct ThreadedExecutor {
    pool: Option<Arc<WorkerPool>>,
    /// A shared pool is caller-owned: never recreated to match worker counts.
    shared: bool,
    items: Vec<Arc<Vec<usize>>>,
}

impl ThreadedExecutor {
    /// Create a threaded executor; the pool is sized lazily on first epoch.
    pub fn new() -> Self {
        ThreadedExecutor {
            pool: None,
            shared: false,
            items: Vec::new(),
        }
    }

    /// Create a threaded executor running on a shared worker pool.
    ///
    /// Every session built over the same `Arc` dispatches its epochs onto
    /// the same persistent threads; per-epoch [`crate::pool::JobBatch`]es
    /// keep concurrent sessions' completion acknowledgements isolated.
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        ThreadedExecutor {
            pool: Some(pool),
            shared: true,
            items: Vec::new(),
        }
    }

    /// The pool, (re)created to match `workers` when owned; a shared pool is
    /// returned as-is whatever its size.
    fn pool_for(&mut self, workers: usize) -> &Arc<WorkerPool> {
        let recreate = !self.shared
            && self
                .pool
                .as_ref()
                .is_none_or(|pool| pool.workers() != workers);
        if recreate {
            self.pool = Some(Arc::new(WorkerPool::new(workers)));
        }
        self.pool.as_ref().expect("pool was just created")
    }

    /// Copy `source` into the cached buffer for `worker`, reusing its
    /// allocation when the previous epoch's job has released it.
    fn fill_items(&mut self, worker: usize, source: &[usize]) -> Arc<Vec<usize>> {
        if self.items.len() <= worker {
            self.items.resize_with(worker + 1, || Arc::new(Vec::new()));
        }
        if Arc::get_mut(&mut self.items[worker]).is_none() {
            self.items[worker] = Arc::new(Vec::new());
        }
        let buffer = Arc::get_mut(&mut self.items[worker]).expect("buffer is uniquely owned");
        buffer.clear();
        buffer.extend_from_slice(source);
        Arc::clone(&self.items[worker])
    }
}

impl Executor for ThreadedExecutor {
    fn name(&self) -> &'static str {
        "threaded-pool"
    }

    fn run_epoch(&mut self, ctx: &EpochContext<'_>) -> EpochTiming {
        let workers = ctx.assignment.workers.len();
        let columnar = ctx.plan.access.is_columnar();
        let step = ctx.step;

        // Stage the per-worker item buffers first (needs &mut self), then
        // dispatch the jobs (needs &pool).
        let staged: Vec<Arc<Vec<usize>>> = ctx
            .assignment
            .workers
            .iter()
            .enumerate()
            .map(|(w, worker)| self.fill_items(w, &worker.items))
            .collect();

        // Per-worker clocks: each job times its owned prefix and its stolen
        // tail separately, so the epoch's steal cost is measured, not
        // modelled.
        let steal_ns = Arc::new(AtomicU64::new(0));
        let busy_ns: Arc<Vec<AtomicU64>> =
            Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());

        // One epoch = one batch: the private completion scope is what lets
        // many sessions share a pool without consuming each other's acks.
        let pool = self.pool_for(workers);
        let mut batch = pool.batch();
        for (w, worker) in ctx.assignment.workers.iter().enumerate() {
            let data = ctx.data.clone();
            let group = worker.replica;
            let objective = Arc::clone(&ctx.task.objective);
            let replica = Arc::clone(&ctx.replicas[worker.replica]);
            let items = Arc::clone(&staged[w]);
            let stolen_tail = worker.stolen_tail;
            let steal_ns = Arc::clone(&steal_ns);
            let busy_ns = Arc::clone(&busy_ns);
            batch.dispatch(
                w,
                Box::new(move || {
                    let (busy, steal) = WorkerEpoch {
                        objective: objective.as_ref(),
                        data: &data,
                        group,
                        replica: &replica,
                        columnar,
                        step,
                    }
                    .run_clocked(&items, stolen_tail);
                    busy_ns[w].store(busy, Ordering::Relaxed);
                    steal_ns.fetch_add(steal, Ordering::Relaxed);
                }),
            );
        }

        // The asynchronous PerNode averaging (a separate actor batching many
        // cross-socket writes into one, Section 3.3) runs on this thread
        // between completion acknowledgements; it cannot outlive the epoch's
        // workers, which is the deadlock the spawn-per-epoch path had.
        if ctx.plan.model_replication == ModelReplication::PerNode && ctx.replicas.len() > 1 {
            let replicas = ctx.replicas;
            let mut sum = Vec::new();
            batch.wait_with(AVERAGING_INTERVAL, || store_average(replicas, &mut sum));
        } else {
            batch.wait();
        }
        collect_timing(&steal_ns, &busy_ns)
    }
}

/// Assemble an [`EpochTiming`] from the per-worker clocks after the epoch's
/// jobs have all acknowledged.
fn collect_timing(steal_ns: &AtomicU64, busy_ns: &[AtomicU64]) -> EpochTiming {
    let busy: Vec<u64> = busy_ns.iter().map(|b| b.load(Ordering::Relaxed)).collect();
    EpochTiming {
        steal_ns: steal_ns.load(Ordering::Relaxed),
        busy_max_ns: busy.iter().copied().max().unwrap_or(0),
        busy_total_ns: busy.iter().sum(),
        workers: busy.len(),
    }
}

/// The legacy mechanism: spawn one fresh OS thread per worker per epoch.
///
/// Kept as the benchmark baseline the persistent pool is measured against,
/// and as the corrected form of the original `run_epoch_threaded`: the
/// PerNode averaging thread exits when the worker-completion counter —
/// updated *inside* the scope — reaches the worker count, instead of
/// waiting on a flag that was only set after the scope joined (which
/// deadlocked, since the scope join waited on the averaging thread).
#[derive(Debug, Clone, Default)]
pub struct SpawnPerEpochExecutor;

impl SpawnPerEpochExecutor {
    /// Create the spawn-per-epoch executor.
    pub fn new() -> Self {
        SpawnPerEpochExecutor
    }
}

impl Executor for SpawnPerEpochExecutor {
    fn name(&self) -> &'static str {
        "threaded-spawn"
    }

    fn run_epoch(&mut self, ctx: &EpochContext<'_>) -> EpochTiming {
        let total = ctx.assignment.workers.len();
        let completed = AtomicUsize::new(0);
        let steal_ns = AtomicU64::new(0);
        let busy_ns: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            if ctx.plan.model_replication == ModelReplication::PerNode && ctx.replicas.len() > 1 {
                let replicas = ctx.replicas;
                let completed = &completed;
                scope.spawn(move || {
                    let mut sum = Vec::new();
                    while completed.load(Ordering::Acquire) < total {
                        let clock = Instant::now();
                        store_average(replicas, &mut sum);
                        std::thread::sleep(paced_interval(AVERAGING_INTERVAL, clock.elapsed()));
                    }
                });
            }
            for (w, worker) in ctx.assignment.workers.iter().enumerate() {
                let epoch = WorkerEpoch::of(ctx, worker.replica);
                let completed = &completed;
                let steal_ns = &steal_ns;
                let busy = &busy_ns[w];
                scope.spawn(move || {
                    let (busy_total, steal) = epoch.run_clocked(&worker.items, worker.stolen_tail);
                    busy.store(busy_total, Ordering::Relaxed);
                    steal_ns.fetch_add(steal, Ordering::Relaxed);
                    completed.fetch_add(1, Ordering::Release);
                });
            }
        });
        collect_timing(&steal_ns, &busy_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMethod;
    use crate::plan::build_epoch_assignment;
    use crate::replication::DataReplication;
    use crate::task::ModelKind;
    use dw_data::{Dataset, PaperDataset};

    fn context_parts() -> (AnalyticsTask, MachineTopology) {
        let dataset = Dataset::generate(PaperDataset::Reuters, 4);
        (
            AnalyticsTask::from_dataset(&dataset, ModelKind::Svm),
            MachineTopology::local2(),
        )
    }

    fn run_with(executor: &mut dyn Executor, model: ModelReplication, epochs: usize) -> f64 {
        let (task, machine) = context_parts();
        let plan = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            model,
            DataReplication::Sharding,
        )
        .with_workers(4);
        let config = RunConfig::quick(epochs);
        let replicas: Vec<Arc<AtomicModel>> = (0..plan.locality_groups(&machine))
            .map(|_| Arc::new(AtomicModel::zeros(task.dim())))
            .collect();
        let data = crate::data_replica::DataReplicaSet::build(
            &plan,
            &machine,
            dw_numa::PlacementPolicy::NumaAware,
            &task,
        );
        let step = task.objective.default_step();
        for epoch in 0..epochs {
            let assignment = build_epoch_assignment(
                &plan,
                &machine,
                &task.data,
                epoch,
                config.seed,
                None,
                Some(&data),
            );
            let ctx = EpochContext {
                task: &task,
                plan: &plan,
                config: &config,
                machine: &machine,
                assignment: &assignment,
                replicas: &replicas,
                data: &data,
                step,
            };
            executor.run_epoch(&ctx);
        }
        let averaged = average_replicas(&replicas);
        task.objective.full_loss(&task.data, &averaged)
    }

    #[test]
    fn all_executors_reduce_the_loss() {
        let (task, _) = context_parts();
        let initial = task.initial_loss();
        let mut interleaved = InterleavedExecutor::new();
        let mut pooled = ThreadedExecutor::new();
        let mut spawned = SpawnPerEpochExecutor::new();
        assert!(run_with(&mut interleaved, ModelReplication::PerMachine, 2) < initial);
        assert!(run_with(&mut pooled, ModelReplication::PerMachine, 2) < initial);
        assert!(run_with(&mut spawned, ModelReplication::PerMachine, 2) < initial);
    }

    #[test]
    fn pernode_averaging_terminates_for_both_threaded_mechanisms() {
        // Regression for the seed deadlock: PerNode + threaded execution must
        // finish (the averaging actor must observe worker completion).
        let (task, _) = context_parts();
        let initial = task.initial_loss();
        let mut pooled = ThreadedExecutor::new();
        let mut spawned = SpawnPerEpochExecutor::new();
        assert!(run_with(&mut pooled, ModelReplication::PerNode, 2) <= initial);
        assert!(run_with(&mut spawned, ModelReplication::PerNode, 2) <= initial);
    }

    #[test]
    fn threaded_executor_reuses_its_pool_across_epochs() {
        // The persistent-pool property: every epoch runs on the same OS
        // threads.  Observe the thread ids from inside the jobs.
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;

        let mut executor = ThreadedExecutor::new();
        let seen: Arc<Mutex<Vec<HashSet<ThreadId>>>> = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..3 {
            let epoch_ids: Arc<Mutex<HashSet<ThreadId>>> = Arc::new(Mutex::new(HashSet::new()));
            let pool = executor.pool_for(4);
            for w in 0..4 {
                let ids = Arc::clone(&epoch_ids);
                pool.dispatch(
                    w,
                    Box::new(move || {
                        ids.lock().unwrap().insert(std::thread::current().id());
                    }),
                );
            }
            pool.wait(4);
            seen.lock()
                .unwrap()
                .push(Arc::try_unwrap(epoch_ids).unwrap().into_inner().unwrap());
        }
        let epochs = seen.lock().unwrap();
        assert_eq!(epochs[0].len(), 4, "four distinct worker threads");
        assert_eq!(epochs[0], epochs[1], "epoch 2 reuses the same threads");
        assert_eq!(epochs[1], epochs[2], "epoch 3 reuses the same threads");
    }

    #[test]
    fn shared_pool_serves_two_executors_on_the_same_threads() {
        // Two sessions' executors over one Arc'd pool: every epoch of both
        // runs on the same persistent OS threads, and the pool keeps its
        // size (no double-subscription of cores).
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;

        let pool = Arc::new(WorkerPool::new(4));
        let mut first = ThreadedExecutor::with_pool(Arc::clone(&pool));
        let mut second = ThreadedExecutor::with_pool(Arc::clone(&pool));
        let ids: Arc<Mutex<HashSet<ThreadId>>> = Arc::new(Mutex::new(HashSet::new()));
        for executor in [&mut first, &mut second] {
            let pool = executor.pool_for(6); // plan asks for more than the pool has
            assert_eq!(pool.workers(), 4, "a shared pool is never resized");
            let mut batch = pool.batch();
            for w in 0..6 {
                let ids = Arc::clone(&ids);
                batch.dispatch(
                    w,
                    Box::new(move || {
                        ids.lock().unwrap().insert(std::thread::current().id());
                    }),
                );
            }
            batch.wait();
        }
        assert_eq!(
            ids.lock().unwrap().len(),
            4,
            "both executors ran on the pool's own four threads"
        );
        let initial = task_loss_after_shared_pool_runs(&mut first, &mut second);
        assert!(initial.0 < initial.1, "training still reduces the loss");
    }

    /// Run real epochs through both shared-pool executors; returns
    /// (final loss of the first, initial loss) for a convergence sanity check.
    fn task_loss_after_shared_pool_runs(
        first: &mut ThreadedExecutor,
        second: &mut ThreadedExecutor,
    ) -> (f64, f64) {
        let (task, _) = context_parts();
        let initial = task.initial_loss();
        let a = run_with(first, ModelReplication::PerMachine, 2);
        let b = run_with(second, ModelReplication::PerNode, 2);
        (a.max(b), initial)
    }

    #[test]
    fn threaded_executor_caches_item_buffers() {
        let mut executor = ThreadedExecutor::new();
        let _ = run_with(&mut executor, ModelReplication::PerMachine, 3);
        assert_eq!(executor.items.len(), 4);
        for buffer in &executor.items {
            assert_eq!(Arc::strong_count(buffer), 1, "jobs released their buffers");
            assert!(!buffer.is_empty(), "buffers hold the last epoch's items");
        }
    }

    /// One epoch of a steal-heavy 3-workers-over-2-groups plan through
    /// `executor`, returning the measured timing.
    fn timed_epoch_with(executor: &mut dyn Executor) -> EpochTiming {
        let (task, machine) = context_parts();
        let plan = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_workers(3)
        .with_steal_budget(10_000);
        let config = RunConfig::quick(1);
        let replicas: Vec<Arc<AtomicModel>> = (0..plan.locality_groups(&machine))
            .map(|_| Arc::new(AtomicModel::zeros(task.dim())))
            .collect();
        let data = crate::data_replica::DataReplicaSet::build(
            &plan,
            &machine,
            dw_numa::PlacementPolicy::NumaAware,
            &task,
        );
        let assignment =
            build_epoch_assignment(&plan, &machine, &task.data, 0, 1, None, Some(&data));
        assert!(
            assignment.workers.iter().any(|w| w.stolen_tail > 0),
            "the imbalance forces stolen tails"
        );
        let ctx = EpochContext {
            task: &task,
            plan: &plan,
            config: &config,
            machine: &machine,
            assignment: &assignment,
            replicas: &replicas,
            data: &data,
            step: task.objective.default_step(),
        };
        executor.run_epoch(&ctx)
    }

    #[test]
    fn run_items_looks_one_item_ahead_and_never_past_the_end() {
        use std::cell::RefCell;
        // Resolve maps item -> item * 10 so the events show that lookahead
        // and step both receive the *resolved* value.
        let events = RefCell::new(Vec::new());
        let record = |items: &[usize]| {
            events.borrow_mut().clear();
            run_items(
                items,
                |item| item * 10,
                |next| events.borrow_mut().push(("ahead", next)),
                |current| events.borrow_mut().push(("step", current)),
            );
            events.borrow().clone()
        };
        assert_eq!(
            record(&[3, 1, 2]),
            vec![
                ("ahead", 10),
                ("step", 30),
                ("ahead", 20),
                ("step", 10),
                ("step", 20), // the last item issues no lookahead
            ]
        );
        assert_eq!(record(&[7]), vec![("step", 70)]);
        assert!(record(&[]).is_empty());
    }

    /// An objective that only records which rows it was asked to step.
    struct RecordingObjective(std::sync::Mutex<Vec<usize>>);

    impl Objective for RecordingObjective {
        fn name(&self) -> &'static str {
            "recording"
        }
        fn full_loss(&self, _: &TaskData, _: &[f64]) -> f64 {
            0.0
        }
        fn row_step(&self, _: &TaskData, i: usize, _: &AtomicModel, _: f64) {
            self.0.lock().unwrap().push(i);
        }
        fn col_step(&self, _: &TaskData, j: usize, _: &AtomicModel, _: f64) {
            self.0.lock().unwrap().push(j);
        }
    }

    #[test]
    fn clocked_run_visits_owned_prefix_then_stolen_tail_in_list_order() {
        let (task, machine) = context_parts();
        // Full references: every item resolves to itself, so the recorded
        // rows are the item ids.
        let plan = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::FullReplication,
        );
        let data = crate::data_replica::DataReplicaSet::build(
            &plan,
            &machine,
            dw_numa::PlacementPolicy::NumaAware,
            &task,
        );
        let objective = RecordingObjective(Default::default());
        let replica = AtomicModel::zeros(task.dim());
        let items = [5usize, 0, 9, 2, 7, 1];
        for (columnar, stolen_tail) in [(false, 2), (false, 0), (true, 6), (false, 99)] {
            objective.0.lock().unwrap().clear();
            let (busy, steal) = WorkerEpoch {
                objective: &objective,
                data: &data,
                group: 1,
                replica: &replica,
                columnar,
                step: 0.1,
            }
            .run_clocked(&items, stolen_tail);
            assert_eq!(*objective.0.lock().unwrap(), items, "tail {stolen_tail}");
            assert!(steal <= busy, "steal time is part of busy time");
        }
    }

    #[test]
    fn threaded_mechanisms_measure_steal_and_busy_time() {
        for executor in [
            &mut ThreadedExecutor::new() as &mut dyn Executor,
            &mut SpawnPerEpochExecutor::new(),
        ] {
            let timing = timed_epoch_with(executor);
            assert_eq!(timing.workers, 3, "{}", executor.name());
            assert!(timing.busy_max_ns > 0, "{}", executor.name());
            assert!(
                timing.busy_total_ns >= timing.busy_max_ns,
                "{}: the sum covers the max",
                executor.name()
            );
            assert!(
                timing.steal_ns > 0,
                "{}: stolen tails were clocked",
                executor.name()
            );
            assert!(
                timing.steal_ns <= timing.busy_total_ns,
                "{}: steal time is part of busy time",
                executor.name()
            );
            let feedback = timing.feedback(7);
            assert!(feedback.has_timing());
            assert_eq!(feedback.steals, 7);
            assert!(feedback.busy_mean_seconds <= feedback.busy_max_seconds + 1e-12);
        }
    }

    #[test]
    fn interleaved_mechanism_reports_no_timing() {
        // Determinism contract: the interleaved executor never measures, so
        // the budget tuner's wall-clock loop can never perturb its traces.
        let timing = timed_epoch_with(&mut InterleavedExecutor::new());
        assert_eq!(timing, EpochTiming::default());
        assert!(!timing.feedback(3).has_timing());
    }
}
