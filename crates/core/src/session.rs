//! The session API: streaming, cancellable, observable engine runs.
//!
//! [`Engine::run`](crate::Engine::run) executes a fixed number of epochs and
//! returns one opaque report — adequate for regenerating the paper's
//! figures, but a dead end for everything on the roadmap: adaptive plan
//! switching, early stopping, and serving-style workloads all need to *see*
//! the run while it happens.  A [`Session`] exposes the run as an
//! [`EpochStream`] — an iterator of [`EpochEvent`]s — with:
//!
//! * a fluent [`SessionBuilder`] entered through [`DimmWitted::on`]:
//!   `DimmWitted::on(machine).task(task).plan_auto().epochs(20).build()`,
//! * early stopping via [`SessionBuilder::until_loss`] and
//!   [`SessionBuilder::until_converged`],
//! * cooperative cancellation via a shared [`CancelToken`],
//! * observer callbacks via [`SessionBuilder::on_epoch`],
//! * a pluggable [`Executor`] mechanism (interleaved, persistent-pool
//!   threaded, or spawn-per-epoch threaded).
//!
//! The stream owns the executor for its whole life, so the
//! [`ThreadedExecutor`]'s worker pool and cached item buffers persist across
//! every epoch of the session.

use crate::data_replica::DataReplicaSet;
use crate::executor::{
    average_replicas, EpochContext, Executor, InterleavedExecutor, ThreadedExecutor,
};
use crate::optimizer::Optimizer;
use crate::plan::{
    EpochAssignment, ExecutionPlan, ItemScheduler, LayoutDecision, ResidencyDecision,
};
use crate::replication::DataReplication;
use crate::report::{ExecutionMode, RunConfig, RunReport};
use crate::sim_exec::{simulate_epoch, EpochSimulation};
use crate::task::AnalyticsTask;
use dw_numa::{MachineTopology, PerfCounters, PlacementPolicy};
use dw_optim::{AtomicModel, ConvergenceTrace, TaskData};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable handle that requests cooperative cancellation of a session.
///
/// Clone the token, hand one clone to the session via
/// [`SessionBuilder::cancel_token`], and call [`CancelToken::cancel`] from
/// anywhere (another thread, an observer, a signal handler).  The stream
/// checks the token at every epoch boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// What one epoch of a session produced.
#[derive(Debug, Clone)]
pub struct EpochEvent {
    /// 1-based epoch index.
    pub epoch: usize,
    /// Full-dataset loss after the epoch.
    pub loss: f64,
    /// Cumulative simulated seconds on the target machine.
    pub sim_seconds: f64,
    /// Monotonic wall-clock time since the stream started (first epoch
    /// dispatched).  Unlike `sim_seconds` — modelled time on the *target*
    /// machine — this is measured time on the *host*, which is what snapshot
    /// staleness, fairness accounting, and `epochs/s` serving stats need.
    pub elapsed: Duration,
    /// Modelled PMU counters for this epoch.
    pub counters: PerfCounters,
    /// Fraction of this epoch's data reads served by the reading worker's
    /// own locality-group replica (1.0 when every group holds a full copy;
    /// ~1.0 under locality-first sharded dealing, ~1/groups under
    /// round-robin dealing).
    pub data_locality: f64,
    /// Items this epoch that the bounded work-stealing moved to a worker
    /// outside the owning locality group (0 with stealing disabled).
    pub steals: usize,
    /// **Measured** wall-clock seconds this epoch's workers spent processing
    /// received (stolen) item batches — the remote-read/steal-time estimate
    /// the latency-feedback steal tuning closes on.  0.0 under the
    /// deterministic interleaved executor, which measures nothing so its
    /// traces stay bit-reproducible.
    pub steal_seconds: f64,
    /// **Measured** idle fraction of the epoch's workers: `1 − busy_mean /
    /// busy_max` over the per-worker busy times (0.0 when perfectly
    /// balanced or unmeasured).  High idle with an exhausted steal budget is
    /// the regrow signal of the latency-feedback tuning.
    pub worker_idle: f64,
    /// Measured statistical efficiency of the epoch: the relative loss
    /// reduction `(previous − loss) / |previous|`.  Comparing this between
    /// the locality-first and round-robin schedulers measures the
    /// statistical-efficiency cost of the reduced cross-shard shuffle.
    pub stat_efficiency: f64,
    /// Page faults of the out-of-core source charged to this epoch (0 for
    /// fully resident matrices; the first epoch carries the faults of
    /// eagerly materializing the plan's layouts from the pages).
    pub pages_faulted: u64,
    /// Bytes read from disk for those faults.
    pub io_bytes: u64,
    /// Resident bytes of the task matrix after the epoch: source (COO or
    /// cached pages) plus every materialized layout — the locality story
    /// extended one level down the hierarchy.
    pub resident_bytes: usize,
    /// Simulated seconds of this epoch a worker spent blocked on disk IO
    /// the prefetcher could not hide (0 for resident plans; shrinks as the
    /// plan's `prefetch_depth` grows).
    pub io_wait: f64,
    /// Page pins this epoch that were served from a prefetched slot —
    /// faults the prefetcher turned into hits (0 with prefetch disabled).
    pub prefetch_hits: u64,
    /// Delta pages a live ingest source sealed and appended since the last
    /// epoch (0 for static sources).
    pub delta_appends: u64,
    /// Live-source compaction passes run since the last epoch.
    pub compactions: u64,
}

/// Why a stream stopped producing epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The configured epoch budget was exhausted.
    EpochBudget,
    /// The [`SessionBuilder::until_loss`] target was reached.
    LossTarget,
    /// Successive losses changed by less than the
    /// [`SessionBuilder::until_converged`] tolerance.
    Converged,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

type Observer = Box<dyn FnMut(&EpochEvent) + Send>;

/// An observer that additionally receives the epoch-boundary averaged model
/// (see [`SessionBuilder::on_epoch_model`]).
type ModelObserver = Box<dyn FnMut(&EpochEvent, &[f64]) + Send>;

/// Entry point of the fluent API.
///
/// ```
/// use dimmwitted::{AnalyticsTask, DimmWitted, ModelKind};
/// use dw_data::{Dataset, PaperDataset};
/// use dw_numa::MachineTopology;
///
/// let dataset = Dataset::generate(PaperDataset::Reuters, 42);
/// let task = AnalyticsTask::from_dataset(&dataset, ModelKind::Svm);
/// let report = DimmWitted::on(MachineTopology::local2())
///     .task(task)
///     .plan_auto()
///     .epochs(3)
///     .build()
///     .run();
/// assert_eq!(report.trace.epochs(), 3);
/// ```
pub struct DimmWitted;

impl DimmWitted {
    /// Start building a session targeting `machine`.
    pub fn on(machine: MachineTopology) -> SessionBuilder {
        SessionBuilder {
            machine,
            task: None,
            plan: None,
            config: RunConfig::default(),
            until_loss: None,
            until_converged: None,
            cancel: CancelToken::new(),
            observers: Vec::new(),
            model_observers: Vec::new(),
            executor: None,
            compact: false,
            memory_budget: None,
            spill_dir: None,
            layout_file: None,
            auto_steal: false,
            bind_memory: true,
        }
    }
}

/// Fluent configuration of a [`Session`].
pub struct SessionBuilder {
    machine: MachineTopology,
    task: Option<AnalyticsTask>,
    plan: Option<ExecutionPlan>,
    config: RunConfig,
    until_loss: Option<f64>,
    until_converged: Option<f64>,
    cancel: CancelToken,
    observers: Vec<Observer>,
    model_observers: Vec<ModelObserver>,
    executor: Option<Box<dyn Executor>>,
    compact: bool,
    memory_budget: Option<usize>,
    spill_dir: Option<PathBuf>,
    layout_file: Option<PathBuf>,
    auto_steal: bool,
    bind_memory: bool,
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("machine", &self.machine.name)
            .field("task", &self.task.as_ref().map(|t| &t.name))
            .field("plan", &self.plan)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SessionBuilder {
    /// The task to minimize (required).
    pub fn task(mut self, task: AnalyticsTask) -> Self {
        self.task = Some(task);
        self
    }

    /// Execute an explicit plan.
    pub fn plan(mut self, plan: ExecutionPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Let the cost-based optimizer choose the plan (the default).
    pub fn plan_auto(mut self) -> Self {
        self.plan = None;
        self
    }

    /// Replace the whole run configuration.
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Maximum number of epochs (the stream may stop earlier).
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.config.epochs = epochs;
        self
    }

    /// RNG seed for shuffles and sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Override the objective's default initial step size.
    pub fn step(mut self, step: f64) -> Self {
        self.config.step_override = Some(step);
        self
    }

    /// Worker execution mode (selects the default executor).
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Stop as soon as the epoch loss is at or below `loss`.
    pub fn until_loss(mut self, loss: f64) -> Self {
        self.until_loss = Some(loss);
        self
    }

    /// Stop when the relative loss change between successive epochs drops
    /// to `tolerance` or below.
    pub fn until_converged(mut self, tolerance: f64) -> Self {
        self.until_converged = Some(tolerance);
        self
    }

    /// Attach a shared cancellation token.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attach an observer invoked after every epoch.
    pub fn on_epoch(mut self, observer: impl FnMut(&EpochEvent) + Send + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Attach an observer that also receives the epoch-boundary **averaged
    /// model** — the publish hook of the serving subsystem.
    ///
    /// The slice is the same synchronized model the event's `loss` was
    /// evaluated against, handed over *after* the epoch's workers have
    /// quiesced, so a copy taken here can never observe a torn or mid-epoch
    /// state.  A server clones it into a versioned immutable snapshot
    /// (`dw-serve`'s `ModelSnapshot`) while training continues on the
    /// replicas.  Runs after the plain [`SessionBuilder::on_epoch`]
    /// observers.
    pub fn on_epoch_model(
        mut self,
        observer: impl FnMut(&EpochEvent, &[f64]) + Send + 'static,
    ) -> Self {
        self.model_observers.push(Box::new(observer));
        self
    }

    /// Replace the execution mechanism (overrides [`SessionBuilder::mode`]).
    pub fn executor(mut self, executor: Box<dyn Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Run threaded epochs on a **shared** worker pool instead of an owned
    /// one (shorthand for `.executor(ThreadedExecutor::with_pool(pool))`).
    ///
    /// Sessions are built per-task, but worker threads subscribe cores: two
    /// sessions that each own a pool double-subscribe every core they
    /// share.  A server therefore owns one `Arc<WorkerPool>` and every
    /// admitted session leases it; per-epoch [`crate::pool::JobBatch`]es
    /// keep concurrent epochs' completion acknowledgements isolated.
    pub fn with_pool(mut self, pool: Arc<crate::pool::WorkerPool>) -> Self {
        self.executor = Some(Box::new(ThreadedExecutor::with_pool(pool)));
        self
    }

    /// Drop the task matrix's canonical COO triplets once the plan's
    /// compressed layouts are materialized, reclaiming 16 bytes per stored
    /// non-zero.  Off by default: compaction affects every holder of the
    /// shared storage handle (including the dataset the task came from).
    pub fn compact_source(mut self) -> Self {
        self.compact = true;
        self
    }

    /// Bound resident source + page-cache bytes to `bytes`.
    ///
    /// When the plan's estimated layout footprint exceeds the budget, the
    /// plan takes the out-of-core arm
    /// ([`crate::plan::ResidencyDecision::Paged`]): the session spills a
    /// resident COO source to a delete-on-drop page file (under
    /// [`SessionBuilder::spill_dir`], default the system temp dir) and
    /// materializes the plan's layouts by streaming pages through a cache
    /// bounded to the budget — the convergence trace is bit-identical to
    /// the fully resident run, only the residency changes.  Applies to both
    /// optimizer-chosen and explicit plans.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Directory for spill files under the out-of-core arm (default: the
    /// system temp dir).  Files are delete-on-drop, so nothing outlives the
    /// storage handle.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Persist materialized layouts to `path` (the page-aligned `.dwlt`
    /// format) and re-open them from there on later sessions.
    ///
    /// At stream start (and after every replan) the session first adopts
    /// whatever layouts the file already holds — served in place from the
    /// file image, zero-copy under the `mmap` feature — so a restarted
    /// session (or a restarted `dw-serve`) skips the COO stream entirely;
    /// any layout the plan materializes beyond what the file covers is
    /// written back afterwards.  Best-effort: a missing, stale, or
    /// unwritable file never fails the session.
    pub fn layout_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.layout_file = Some(path.into());
        self
    }

    /// Auto-tune the locality-first steal budget instead of using the
    /// plan's fixed per-epoch constant (the steal-budget auto-tuning item
    /// of the roadmap).
    ///
    /// At stream start (and after every replan) the budget is derived from
    /// the plan's group imbalance and the machine's remote-read premium
    /// ([`crate::plan::auto_steal_scheduler`]); after each epoch it adapts
    /// to the measured [`EpochEvent::steals`] *within that derived cap*: an
    /// under-used budget tightens to what the epoch actually moved, an
    /// exhausted one recovers to the full cap (never past it — beyond the
    /// cap a stolen item costs its thief more than the overloaded worker
    /// saves).  Applies only to locality-first plans over real shards; off
    /// by default so explicitly configured budgets stay fixed.
    pub fn auto_steal_budget(mut self) -> Self {
        self.auto_steal = true;
        self
    }

    /// Whether replica-set builds physically bind each shard's pages to its
    /// placed NUMA node via `mbind(2)` (default `true`).
    ///
    /// Binding is only *real* with the `numa` feature on a multi-node Linux
    /// host; everywhere else the binder is an inert recorded no-op either
    /// way.  `false` skips the bind pass entirely — the control arm of a
    /// bind-on/off comparison.  Binding never changes what executes:
    /// shards, schedules and convergence traces are bit-identical with it
    /// on or off.
    pub fn bind_memory(mut self, bind: bool) -> Self {
        self.bind_memory = bind;
        self
    }

    /// Resolve the plan and executor and produce a runnable [`Session`].
    ///
    /// # Panics
    /// Panics if no task was supplied.
    pub fn build(self) -> Session {
        let task = self
            .task
            .expect("a session needs a task — call .task(...) before .build()");
        let plan = match self.plan {
            Some(mut plan) => {
                // Widen an explicit plan with the out-of-core arm by the
                // same rule the optimizer applies.
                if let Some(budget) = self.memory_budget {
                    if plan.residency == ResidencyDecision::Resident
                        && plan.layout.estimated_bytes(task.data.matrix.stats()) > budget
                    {
                        plan.residency = ResidencyDecision::Paged {
                            budget_bytes: budget,
                            prefetch_depth: crate::optimizer::choose_prefetch_depth(&self.machine),
                        };
                    }
                }
                plan
            }
            None => Optimizer::new(self.machine.clone())
                .with_memory_budget(self.memory_budget)
                .choose_plan(&task),
        };
        let executor: Box<dyn Executor> = match self.executor {
            Some(executor) => executor,
            None => match self.config.mode {
                ExecutionMode::Interleaved => Box::new(InterleavedExecutor::new()),
                ExecutionMode::Threaded => Box::new(ThreadedExecutor::new()),
            },
        };
        Session {
            machine: self.machine,
            task,
            plan,
            config: self.config,
            until_loss: self.until_loss,
            until_converged: self.until_converged,
            cancel: self.cancel,
            observers: self.observers,
            model_observers: self.model_observers,
            executor,
            compact: self.compact,
            memory_budget: self.memory_budget,
            spill_dir: self.spill_dir,
            layout_file: self.layout_file,
            auto_steal: self.auto_steal,
            bind_memory: self.bind_memory,
        }
    }
}

/// Materialize exactly what session execution under `plan` reads: the plan's
/// layout decision, plus the row layout (every session evaluates the loss
/// row-wise) and the column views graph-family row updates read degrees
/// through.  The Dense arm materializes the dense row store *instead of*
/// CSR — its row views are bit-identical for the fully dense matrices the
/// arm is chosen for.  Every call after the first is free — the layouts are
/// cached on the shared storage handle, which is what makes a replan cheap.
fn materialize_layouts(task: &AnalyticsTask, plan: &ExecutionPlan) {
    if plan.layout == LayoutDecision::Dense {
        task.data.matrix.materialize_dense_rows();
    } else {
        task.data.matrix.materialize_rows();
    }
    let needs_cols = plan.layout.includes_cols()
        || (plan.access == crate::access::AccessMethod::RowWise && !task.kind.is_sgd_family());
    if needs_cols {
        task.data.matrix.materialize_cols();
    }
}

/// [`materialize_layouts`] with the overlapped out-of-core paths wired in:
/// adopt layouts already persisted at `layout_file` (every adopted kind
/// skips its COO stream entirely), keep a manifest-order prefetcher running
/// `prefetch_depth` pages ahead of whatever the materialization pass still
/// streams, and write any newly materialized layout back to the file.
///
/// Both persistence directions are best-effort: a missing, stale, or
/// unwritable layout file only means the layouts build from the source the
/// classic way — it never fails the session.
fn materialize_layouts_overlapped(
    task: &AnalyticsTask,
    plan: &ExecutionPlan,
    layout_file: &Option<PathBuf>,
) {
    if let Some(path) = layout_file {
        if path.exists() {
            let _ = task.data.matrix.load_persisted_layouts(path);
        }
    }
    let prefetcher = task
        .data
        .matrix
        .start_prefetch(plan.residency.prefetch_depth());
    materialize_layouts(task, plan);
    // Stop the prefetch thread before steady state: every page it staged
    // for the materialization scan is consumed by now.
    drop(prefetcher);
    if let Some(path) = layout_file {
        let _ = task.data.matrix.sync_persisted_layouts(path);
    }
}

/// Publish the plan's kernel decision to the task's shared selector (every
/// shard reads the same [`dw_matrix::KernelSelector`], so one store switches
/// all readers) and, when the plan chose the block-compressed encoding,
/// build the encoded index sidecars up front — mid-run replans switch
/// kernels without re-materializing any layout, and no epoch pays a lazy
/// encode.
fn apply_kernel_decision(task: &AnalyticsTask, plan: &ExecutionPlan) {
    task.data
        .kernel
        .set(plan.kernel.variant, plan.kernel.encoding);
    if plan.kernel.encoding == dw_matrix::IndexEncoding::DeltaU16 {
        task.data.matrix.materialize_encoded_indices();
    }
}

/// Resolve the plan's residency arm against the task's **actual** storage,
/// so the simulator's disk charge always matches where the bytes are:
///
/// * widen a resident plan whose layout estimate exceeds the memory budget
///   (the same rule the optimizer and the builder apply — re-applied here
///   so replans cannot silently drop the arm),
/// * spill a resident COO source when the arm is paged (budget-sized
///   pages, delete-on-drop file under `spill_dir`),
/// * demote a paged arm that has nothing to page (a layout-backed matrix
///   runs resident, whatever the plan hoped), and
/// * keep the arm paged when the source already lives on disk.
fn resolve_residency(
    plan: &mut ExecutionPlan,
    task: &AnalyticsTask,
    machine: &MachineTopology,
    memory_budget: Option<usize>,
    spill_dir: &Option<PathBuf>,
) {
    let matrix = &task.data.matrix;
    if let Some(budget) = memory_budget {
        if plan.residency == ResidencyDecision::Resident
            && plan.layout.estimated_bytes(matrix.stats()) > budget
        {
            plan.residency = ResidencyDecision::Paged {
                budget_bytes: budget,
                prefetch_depth: crate::optimizer::choose_prefetch_depth(machine),
            };
        }
    }
    match plan.residency {
        ResidencyDecision::Paged { budget_bytes, .. } => {
            if matrix.has_coo_source() {
                let dir = spill_dir.clone().unwrap_or_else(std::env::temp_dir);
                // Size pages so several fit inside the cache budget (the
                // budget is a hard bound; a page larger than it could not
                // be cached without overshooting).
                let page_bytes = dw_matrix::ooc::DEFAULT_PAGE_BYTES
                    .min((budget_bytes / 4).max(dw_matrix::ooc::ENTRY_BYTES));
                matrix
                    .spill_source_to(&dir, page_bytes, budget_bytes)
                    .expect("spilling the canonical source to disk failed");
            }
            if !matrix.is_paged() {
                plan.residency = ResidencyDecision::Resident;
            }
        }
        ResidencyDecision::Resident => {
            if matrix.is_paged() {
                plan.residency = ResidencyDecision::Paged {
                    budget_bytes: matrix.ooc_cache_budget().unwrap_or(usize::MAX),
                    prefetch_depth: crate::optimizer::choose_prefetch_depth(machine),
                };
            }
        }
    }
}

/// Re-derive the locality-first steal budget from the plan's group
/// imbalance and the machine's remote-read premium (auto-steal mode; a
/// no-op for non-locality-first schedulers, and zero for plan/task shapes
/// that build no shards).  Runs at stream start and after every replan, so
/// the derived budget always matches the plan actually executing — the
/// derivation itself is [`crate::plan::auto_steal_scheduler`], shared with
/// the optimizer.
fn retune_steal_budget(plan: &mut ExecutionPlan, machine: &MachineTopology, task: &AnalyticsTask) {
    if !matches!(plan.scheduler, ItemScheduler::LocalityFirst { .. }) {
        return;
    }
    plan.scheduler = crate::plan::auto_steal_scheduler(plan, machine, task);
}

/// Leverage-score weights are only needed for row-wise importance sampling
/// (they weight rows; columnar plans sample columns uniformly).  The scores
/// read through the matrix's `RowAccess` backend, so a Dense-arm plan feeds
/// them from the dense row store instead of materializing CSR beside it.
fn importance_weights_for(task: &AnalyticsTask, plan: &ExecutionPlan) -> Option<Vec<f64>> {
    match plan.data_replication {
        DataReplication::Importance { .. } if !plan.access.is_columnar() => {
            Some(crate::importance::leverage_scores(&task.data.matrix, 1e-6))
        }
        _ => None,
    }
}

/// The initial step size for `plan` (before per-epoch decay).
fn base_step(task: &AnalyticsTask, plan: &ExecutionPlan, config: &RunConfig) -> f64 {
    config.step_override.unwrap_or_else(|| {
        if plan.access.is_columnar() {
            task.objective.default_col_step()
        } else {
            task.objective.default_step_for(&task.data)
        }
    })
}

/// A fully resolved run, ready to stream epochs.
pub struct Session {
    machine: MachineTopology,
    task: AnalyticsTask,
    plan: ExecutionPlan,
    config: RunConfig,
    until_loss: Option<f64>,
    until_converged: Option<f64>,
    cancel: CancelToken,
    observers: Vec<Observer>,
    model_observers: Vec<ModelObserver>,
    executor: Box<dyn Executor>,
    compact: bool,
    memory_budget: Option<usize>,
    spill_dir: Option<PathBuf>,
    layout_file: Option<PathBuf>,
    auto_steal: bool,
    bind_memory: bool,
}

impl Session {
    /// The plan this session will execute.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The machine this session models.
    pub fn machine(&self) -> &MachineTopology {
        &self.machine
    }

    /// Switch the session to a different plan (access method, replication
    /// strategies, scheduler, worker count) before streaming.
    ///
    /// Layouts already materialized on the shared [`dw_matrix::DataMatrix`]
    /// are reused as-is — switching between plans over the same task never
    /// rebuilds a layout that exists, only the replica set and assignment
    /// buffers (see [`EpochStream::replan`] for the mid-run variant, which
    /// additionally carries the model across the switch).
    pub fn replan(&mut self, plan: ExecutionPlan) {
        self.plan = plan;
    }

    /// Turn the session into a lazy stream of epochs.
    pub fn stream(mut self) -> EpochStream {
        // The out-of-core arm first: spill a resident COO source to a
        // delete-on-drop page file *before* anything materializes (the
        // layouts below then stream through the bounded cache, and the
        // full triplet set is never resident alongside them), and resolve
        // the arm against the matrix's actual storage so the simulator's
        // disk charge matches reality.
        resolve_residency(
            &mut self.plan,
            &self.task,
            &self.machine,
            self.memory_budget,
            &self.spill_dir,
        );
        if self.auto_steal {
            retune_steal_budget(&mut self.plan, &self.machine, &self.task);
        }
        let auto_steal_cap = match self.plan.scheduler {
            ItemScheduler::LocalityFirst { steal_budget } if self.auto_steal => steal_budget,
            _ => 0,
        };
        // Statistics come from the canonical storage form — nothing is
        // materialized yet when the simulator and the weights are set up.
        let stats = self.task.data.stats();
        let sim = simulate_epoch(
            &stats,
            self.task.objective.row_update_density(),
            &self.plan,
            &self.machine,
        );
        // Materialize the layouts the plan decided on, up front, plus what
        // session execution reads beyond the access method — the per-epoch
        // loss walks rows for every objective, and graph-family row updates
        // read vertex degrees through column views — so no epoch pays a
        // lazy conversion even under a hand-built plan.  (Optimizer-chosen
        // plans already record the widened decision.)  Anything else stays
        // unmaterialized — the footprint tests assert it stays that way.
        materialize_layouts_overlapped(&self.task, &self.plan, &self.layout_file);
        apply_kernel_decision(&self.task, &self.plan);
        if self.compact {
            let _ = self.task.data.matrix.compact_source();
        }
        // Per-node data replicas / shards, placed by the NUMA-aware
        // collocation protocol of Appendix A and (when a real binder is
        // available) physically bound to their placed nodes page by page.
        let data_replicas = DataReplicaSet::build_with_binding(
            &self.plan,
            &self.machine,
            PlacementPolicy::NumaAware,
            &self.task,
            self.bind_memory,
        );
        // Steady state holds the layouts alone: drop the cached pages the
        // materialization streamed through (the peak is still recorded).
        self.task.data.matrix.release_pages();
        let weights = importance_weights_for(&self.task, &self.plan);
        let replicas: Vec<Arc<AtomicModel>> = (0..self.plan.locality_groups(&self.machine))
            .map(|_| Arc::new(AtomicModel::zeros(self.task.dim())))
            .collect();
        let trace = ConvergenceTrace::new(self.task.initial_loss());
        let step = base_step(&self.task, &self.plan, &self.config);
        let assignment = EpochAssignment::for_plan(&self.plan, &self.machine);
        EpochStream {
            machine: self.machine,
            task: self.task,
            plan: self.plan,
            config: self.config,
            until_loss: self.until_loss,
            until_converged: self.until_converged,
            cancel: self.cancel,
            observers: self.observers,
            model_observers: self.model_observers,
            executor: self.executor,
            replicas,
            data_replicas,
            weights,
            assignment,
            sim,
            sim_elapsed: 0.0,
            started: Instant::now(),
            trace,
            step,
            epoch: 0,
            stopped: None,
            ooc_faults_seen: 0,
            ooc_io_seen: 0,
            ooc_prefetch_hits_seen: 0,
            ooc_appends_seen: 0,
            ooc_compactions_seen: 0,
            memory_budget: self.memory_budget,
            spill_dir: self.spill_dir,
            layout_file: self.layout_file,
            auto_steal: self.auto_steal,
            auto_steal_cap,
            bind_memory: self.bind_memory,
        }
    }

    /// Run to completion and return the report (convenience for
    /// `self.stream().run_to_end()`).
    pub fn run(self) -> RunReport {
        self.stream().run_to_end()
    }
}

impl IntoIterator for Session {
    type Item = EpochEvent;
    type IntoIter = EpochStream;

    fn into_iter(self) -> EpochStream {
        self.stream()
    }
}

/// A lazy iterator of epochs; the engine state lives here while it runs.
pub struct EpochStream {
    machine: MachineTopology,
    task: AnalyticsTask,
    plan: ExecutionPlan,
    config: RunConfig,
    until_loss: Option<f64>,
    until_converged: Option<f64>,
    cancel: CancelToken,
    observers: Vec<Observer>,
    model_observers: Vec<ModelObserver>,
    executor: Box<dyn Executor>,
    replicas: Vec<Arc<AtomicModel>>,
    data_replicas: DataReplicaSet,
    weights: Option<Vec<f64>>,
    assignment: EpochAssignment,
    sim: EpochSimulation,
    sim_elapsed: f64,
    /// Wall-clock anchor of [`EpochEvent::elapsed`], taken at stream start.
    started: Instant,
    trace: ConvergenceTrace,
    step: f64,
    epoch: usize,
    stopped: Option<StopReason>,
    /// Cumulative out-of-core counters already attributed to past epochs
    /// (epoch events report the delta; epoch 1 therefore carries the
    /// faults of the eager layout materialization).
    ooc_faults_seen: u64,
    ooc_io_seen: u64,
    ooc_prefetch_hits_seen: u64,
    /// Watermarks over the *monotone* shared ingest counters (they ride
    /// across adopted snapshots, unlike the per-cache counters above, so
    /// these only ever move forward).
    ooc_appends_seen: u64,
    ooc_compactions_seen: u64,
    /// Carried so replans re-resolve the residency arm by the same rules
    /// as stream start (a replan must not silently drop the budget).
    memory_budget: Option<usize>,
    spill_dir: Option<PathBuf>,
    /// Carried so replans adopt/persist layouts by the same rules as
    /// stream start.
    layout_file: Option<PathBuf>,
    /// Whether the locality-first steal budget is auto-tuned: derived at
    /// stream start / replan, then adapted each epoch from the measured
    /// steals.
    auto_steal: bool,
    /// The derived budget the adaptation moves within (auto-steal mode):
    /// the economic cap from `auto_steal_scheduler`, refreshed on replan.
    auto_steal_cap: usize,
    /// Carried so replans rebuild the replica set with the same physical
    /// binding decision as stream start.
    bind_memory: bool,
}

impl EpochStream {
    /// The plan being executed.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The convergence trace recorded so far.
    pub fn trace(&self) -> &ConvergenceTrace {
        &self.trace
    }

    /// Why the stream stopped, once it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stopped
    }

    /// The execution mechanism driving this stream.
    pub fn executor_name(&self) -> &'static str {
        self.executor.name()
    }

    /// The per-node data replicas / shards this stream reads through.
    pub fn data_replicas(&self) -> &DataReplicaSet {
        &self.data_replicas
    }

    /// The current epoch-boundary model (replica average).
    ///
    /// Safe to call between [`Iterator::next`] calls — no epoch is in
    /// flight then, so this is the exact model the last event's loss was
    /// evaluated against (see [`SessionBuilder::on_epoch_model`] for the
    /// push-style equivalent a server publishes snapshots from).
    pub fn model(&self) -> Vec<f64> {
        average_replicas(&self.replicas)
    }

    /// Switch the running stream to a different plan **without losing the
    /// model**: the replicas are averaged, the replica set and assignment
    /// buffers are rebuilt for the new plan, and already-materialized
    /// [`dw_matrix::DataMatrix`] layouts are reused as-is.
    ///
    /// This is the cheap half of a plan switch the unified storage layer
    /// bought: a cold session on a fresh task must re-materialize its
    /// layouts from the canonical triplets, while a replan only
    /// re-derives the replica set, the worker mapping (in place, reusing
    /// the item and shuffle buffers), the simulator constants, and the
    /// step-size schedule.  The convergence trace and epoch budget
    /// continue across the switch.
    pub fn replan(&mut self, plan: ExecutionPlan) {
        let averaged = average_replicas(&self.replicas);
        self.plan = plan;
        // Re-resolve the residency arm: the new plan must not silently
        // drop the memory budget (or claim a paged source is resident).
        resolve_residency(
            &mut self.plan,
            &self.task,
            &self.machine,
            self.memory_budget,
            &self.spill_dir,
        );
        if self.auto_steal {
            retune_steal_budget(&mut self.plan, &self.machine, &self.task);
            self.auto_steal_cap = match self.plan.scheduler {
                ItemScheduler::LocalityFirst { steal_budget } => steal_budget,
                _ => 0,
            };
        }
        materialize_layouts_overlapped(&self.task, &self.plan, &self.layout_file);
        apply_kernel_decision(&self.task, &self.plan);
        self.data_replicas = DataReplicaSet::build_with_binding(
            &self.plan,
            &self.machine,
            PlacementPolicy::NumaAware,
            &self.task,
            self.bind_memory,
        );
        self.weights = importance_weights_for(&self.task, &self.plan);
        let groups = self.plan.locality_groups(&self.machine);
        if self.replicas.len() != groups {
            self.replicas = (0..groups)
                .map(|_| Arc::new(AtomicModel::zeros(self.task.dim())))
                .collect();
        }
        for replica in &self.replicas {
            replica.store_vec(&averaged);
        }
        self.assignment.remap(&self.plan, &self.machine);
        self.sim = simulate_epoch(
            &self.task.data.stats(),
            self.task.objective.row_update_density(),
            &self.plan,
            &self.machine,
        );
        // Restart the step schedule for the new plan at the current epoch's
        // decay, so a same-plan replan continues the exact schedule.
        let decay = self.task.objective.step_decay();
        self.step = base_step(&self.task, &self.plan, &self.config) * decay.powi(self.epoch as i32);
    }

    /// The task being executed (current data snapshot included) — what an
    /// online replan controller prices candidate plans against.
    pub fn task(&self) -> &AnalyticsTask {
        &self.task
    }

    /// Adopt a fresh data snapshot mid-run — the streaming-ingest half of a
    /// plan switch — **without losing the model**.
    ///
    /// The snapshot must keep the model dimension (labels/costs grow with
    /// the rows; `d` is fixed).  The replica average carries over; then
    /// everything data-dependent re-derives by pushing the current plan
    /// back through [`replan`](Self::replan): residency re-resolves for the
    /// snapshot's paged source, its layouts materialize (prefetcher
    /// overlapped), the replica set / dealing / simulator constants / step
    /// schedule rebuild.  Epochs only ever pick up fresh rows at this
    /// boundary, so convergence traces stay deterministic given an arrival
    /// schedule.
    pub fn adopt_data(&mut self, data: TaskData) {
        assert_eq!(
            data.dim(),
            self.task.dim(),
            "adopted data snapshot must keep the model dimension"
        );
        self.task.data = Arc::new(data);
        let plan = self.plan.clone();
        self.replan(plan);
        // Steady state holds the layouts alone, as at stream start.
        self.task.data.matrix.release_pages();
        // The snapshot owns a fresh page cache: restart the per-epoch
        // fault/IO delta accounting so the next event charges the
        // adoption's materialization IO (exactly like epoch 1 after a cold
        // start).  The shared ingest counters are monotone across
        // snapshots, so their watermarks stand.
        self.ooc_faults_seen = 0;
        self.ooc_io_seen = 0;
        self.ooc_prefetch_hits_seen = 0;
    }

    /// Drain the remaining epochs and produce the final report.
    pub fn run_to_end(mut self) -> RunReport {
        for _event in self.by_ref() {}
        self.into_report()
    }

    /// Produce the report for the epochs executed so far.
    pub fn into_report(self) -> RunReport {
        let final_model = average_replicas(&self.replicas);
        RunReport {
            plan: self.plan,
            trace: self.trace,
            seconds_per_epoch: self.sim.seconds,
            io_wait_per_epoch: self.sim.io_wait_seconds,
            counters_per_epoch: self.sim.counters,
            final_model,
        }
    }

    /// Apply the early-stopping policies to the epoch that just finished.
    fn check_stop(&mut self, loss: f64) {
        if let Some(target) = self.until_loss {
            if loss <= target {
                self.stopped = Some(StopReason::LossTarget);
                return;
            }
        }
        if let Some(tolerance) = self.until_converged {
            let points = &self.trace.points;
            if points.len() >= 2 {
                let previous = points[points.len() - 2].loss;
                let relative = (previous - loss).abs() / previous.abs().max(1e-12);
                if relative <= tolerance {
                    self.stopped = Some(StopReason::Converged);
                }
            }
        }
    }
}

impl Iterator for EpochStream {
    type Item = EpochEvent;

    fn next(&mut self) -> Option<EpochEvent> {
        if self.stopped.is_some() {
            return None;
        }
        if self.epoch >= self.config.epochs {
            self.stopped = Some(StopReason::EpochBudget);
            return None;
        }
        if self.cancel.is_cancelled() {
            self.stopped = Some(StopReason::Cancelled);
            return None;
        }

        self.assignment.fill(
            &self.plan,
            &self.task.data,
            self.epoch,
            self.config.seed,
            self.weights.as_deref(),
            Some(&self.data_replicas),
        );
        let ctx = EpochContext {
            task: &self.task,
            plan: &self.plan,
            config: &self.config,
            machine: &self.machine,
            assignment: &self.assignment,
            replicas: &self.replicas,
            data: &self.data_replicas,
            step: self.step,
        };
        let timing = self.executor.run_epoch(&ctx);

        // Epoch-boundary synchronization: all strategies communicate at
        // least once per epoch (Bismarck-style averaging for PerCore, the
        // tail of the asynchronous protocol for PerNode).
        let averaged = average_replicas(&self.replicas);
        if self.replicas.len() > 1 {
            for replica in &self.replicas {
                replica.store_vec(&averaged);
            }
        }
        let loss = self.task.objective.full_loss(&self.task.data, &averaged);
        let previous = self
            .trace
            .points
            .last()
            .map_or(self.trace.initial_loss, |p| p.loss);
        self.epoch += 1;
        self.sim_elapsed += self.sim.seconds;
        let sim_seconds = self.sim_elapsed;
        self.trace.record(loss, sim_seconds);
        self.step *= self.task.objective.step_decay();

        let ooc = self.task.data.matrix.ooc_stats().unwrap_or_default();
        let pages_faulted = ooc.faults - self.ooc_faults_seen;
        let io_bytes = ooc.io_bytes - self.ooc_io_seen;
        let prefetch_hits = ooc.prefetch_hits - self.ooc_prefetch_hits_seen;
        self.ooc_faults_seen = ooc.faults;
        self.ooc_io_seen = ooc.io_bytes;
        self.ooc_prefetch_hits_seen = ooc.prefetch_hits;
        // Ingest counters are shared and monotone across adopted snapshots;
        // saturate anyway so a snapshot without counters reads as zero.
        let delta_appends = ooc.delta_appends.saturating_sub(self.ooc_appends_seen);
        let compactions = ooc.compactions.saturating_sub(self.ooc_compactions_seen);
        self.ooc_appends_seen = self.ooc_appends_seen.max(ooc.delta_appends);
        self.ooc_compactions_seen = self.ooc_compactions_seen.max(ooc.compactions);
        let feedback = timing.feedback(self.assignment.steals());
        let event = EpochEvent {
            epoch: self.epoch,
            loss,
            sim_seconds,
            elapsed: self.started.elapsed(),
            counters: self.sim.counters,
            data_locality: self.data_replicas.local_read_fraction(&self.assignment),
            steals: self.assignment.steals(),
            steal_seconds: feedback.steal_seconds,
            worker_idle: feedback.idle_fraction(),
            stat_efficiency: (previous - loss) / previous.abs().max(1e-12),
            pages_faulted,
            io_bytes,
            resident_bytes: self.task.data.matrix.resident_bytes(),
            io_wait: self.sim.io_wait_seconds,
            prefetch_hits,
            delta_appends,
            compactions,
        };
        for observer in &mut self.observers {
            observer(&event);
        }
        for observer in &mut self.model_observers {
            observer(&event, &averaged);
        }
        // Steal-budget adaptation (auto-steal mode): the derived budget is
        // the economic *cap* (past it a stolen item costs the thief more
        // than the overloaded worker saves), and adaptation moves within it,
        // closed on measured epoch **latency**: shrink when the timed stolen
        // batches dominate the critical path, regrow toward the cap when
        // workers sit idle.  The deterministic interleaved executor measures
        // nothing, so its epochs take the count-based fallback inside
        // `retune_steal_budget_feedback` — bit-identical to the historical
        // adaptation, which keeps its traces reproducible.
        if self.auto_steal {
            if let ItemScheduler::LocalityFirst { steal_budget } = self.plan.scheduler {
                let next = crate::plan::retune_steal_budget_feedback(
                    steal_budget,
                    self.auto_steal_cap,
                    &feedback,
                );
                if next != steal_budget {
                    self.plan.scheduler = ItemScheduler::LocalityFirst { steal_budget: next };
                }
            }
        }
        self.check_stop(loss);
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.stopped.is_some() {
            (0, Some(0))
        } else {
            (0, Some(self.config.epochs - self.epoch))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMethod;
    use crate::executor::SpawnPerEpochExecutor;
    use crate::replication::ModelReplication;
    use crate::task::ModelKind;
    use dw_data::{Dataset, PaperDataset};
    use std::sync::atomic::AtomicUsize;

    fn reuters_svm() -> AnalyticsTask {
        let dataset = Dataset::generate(PaperDataset::Reuters, 11);
        AnalyticsTask::from_dataset(&dataset, ModelKind::Svm)
    }

    fn builder() -> SessionBuilder {
        DimmWitted::on(MachineTopology::local2()).task(reuters_svm())
    }

    #[test]
    fn stream_yields_one_event_per_epoch() {
        let events: Vec<EpochEvent> = builder().epochs(4).build().stream().collect();
        assert_eq!(events.len(), 4);
        for (index, event) in events.iter().enumerate() {
            assert_eq!(event.epoch, index + 1);
            assert!(event.loss.is_finite());
            assert!(event.sim_seconds > 0.0);
        }
        // Simulated time accumulates linearly.
        let ratio = events[3].sim_seconds / events[0].sim_seconds;
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn until_loss_stops_early() {
        let initial = reuters_svm().initial_loss();
        let mut stream = builder()
            .epochs(50)
            .until_loss(initial * 0.5)
            .build()
            .stream();
        let mut count = 0;
        for event in stream.by_ref() {
            count += 1;
            if event.loss <= initial * 0.5 {
                break;
            }
        }
        assert_eq!(stream.stop_reason(), Some(StopReason::LossTarget));
        assert!(count < 50, "should stop well before the epoch budget");
        let report = stream.into_report();
        assert_eq!(report.trace.epochs(), count);
    }

    #[test]
    fn until_converged_stops_on_plateau() {
        let report_stream = builder().epochs(200).until_converged(1e-3).build().stream();
        let mut stream = report_stream;
        for _ in stream.by_ref() {}
        assert_eq!(stream.stop_reason(), Some(StopReason::Converged));
        assert!(stream.trace().epochs() < 200);
    }

    #[test]
    fn cancellation_is_cooperative_and_observable() {
        let token = CancelToken::new();
        let seen = Arc::new(AtomicUsize::new(0));
        let observer_seen = Arc::clone(&seen);
        let observer_token = token.clone();
        let mut stream = builder()
            .epochs(50)
            .cancel_token(token.clone())
            .on_epoch(move |event| {
                observer_seen.fetch_add(1, Ordering::Relaxed);
                if event.epoch == 2 {
                    observer_token.cancel();
                }
            })
            .build()
            .stream();
        for _ in stream.by_ref() {}
        assert_eq!(stream.stop_reason(), Some(StopReason::Cancelled));
        assert_eq!(
            stream.trace().epochs(),
            2,
            "cancelled at the epoch boundary"
        );
        assert_eq!(seen.load(Ordering::Relaxed), 2);
        assert!(token.is_cancelled());
    }

    #[test]
    fn epoch_budget_is_the_default_stop() {
        let mut stream = builder().epochs(3).build().stream();
        for _ in stream.by_ref() {}
        assert_eq!(stream.stop_reason(), Some(StopReason::EpochBudget));
    }

    #[test]
    fn plan_auto_matches_the_optimizer() {
        let task = reuters_svm();
        let machine = MachineTopology::local2();
        let expected = Optimizer::new(machine.clone()).choose_plan(&task);
        let session = DimmWitted::on(machine).task(task).plan_auto().build();
        assert_eq!(session.plan(), &expected);
    }

    #[test]
    fn explicit_plan_and_executor_are_respected() {
        let machine = MachineTopology::local2();
        let plan = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_workers(4);
        let stream = builder()
            .plan(plan.clone())
            .executor(Box::new(SpawnPerEpochExecutor::new()))
            .epochs(2)
            .build()
            .stream();
        assert_eq!(stream.plan(), &plan);
        assert_eq!(stream.executor_name(), "threaded-spawn");
        let report = stream.run_to_end();
        assert_eq!(report.trace.epochs(), 2);
        assert!(report.final_loss() <= report.trace.initial_loss);
    }

    #[test]
    #[should_panic(expected = "a session needs a task")]
    fn building_without_a_task_panics() {
        let _ = DimmWitted::on(MachineTopology::local2()).build();
    }

    #[test]
    fn replan_mid_stream_keeps_the_model_and_the_trace() {
        let machine = MachineTopology::local2();
        let sharded = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_workers(4);
        let mut stream = builder().plan(sharded.clone()).epochs(6).build().stream();
        let mut first_half = Vec::new();
        for _ in 0..3 {
            first_half.push(stream.next().expect("epoch"));
        }
        let loss_before = first_half.last().unwrap().loss;

        // Switch replication strategy mid-run; the model must carry over.
        let full = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::FullReplication,
        )
        .with_workers(4);
        stream.replan(full.clone());
        assert_eq!(stream.plan(), &full);
        let after = stream.next().expect("epoch after replan");
        assert_eq!(after.epoch, 4, "the epoch budget continues");
        assert!(
            after.loss < loss_before * 1.05,
            "the model survived the switch: {} -> {}",
            loss_before,
            after.loss
        );
        for _ in stream.by_ref() {}
        assert_eq!(stream.stop_reason(), Some(StopReason::EpochBudget));
        assert_eq!(stream.trace().epochs(), 6);
    }

    #[test]
    fn replan_changes_group_count_without_losing_the_model() {
        let machine = MachineTopology::local2();
        let per_node = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_workers(4);
        let mut stream = builder().plan(per_node).epochs(4).build().stream();
        let before = stream.next().expect("first epoch").loss;
        let per_machine = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerMachine,
            DataReplication::Sharding,
        )
        .with_workers(4);
        stream.replan(per_machine);
        let after = stream.next().expect("epoch after replan").loss;
        assert!(after < before, "training continued: {before} -> {after}");
    }

    #[test]
    fn replan_reuses_already_materialized_layouts() {
        let task = reuters_svm();
        let matrix = task.data.matrix.clone();
        let machine = MachineTopology::local2();
        let row_plan = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_workers(4);
        let mut stream = DimmWitted::on(machine.clone())
            .task(task)
            .plan(row_plan)
            .epochs(4)
            .build()
            .stream();
        let _ = stream.next();
        assert!(matrix.csr_materialized());
        assert!(!matrix.csc_materialized());
        // Switching to a columnar plan materializes only what is missing.
        let col_plan = ExecutionPlan::graphlab(&machine).with_workers(4);
        stream.replan(col_plan);
        assert!(matrix.csc_materialized(), "the new layout was built");
        assert!(matrix.csr_materialized(), "the old layout was reused");
        let event = stream.next().expect("columnar epoch");
        assert!(event.loss.is_finite());
    }

    #[test]
    fn session_replan_swaps_the_plan_before_streaming() {
        let machine = MachineTopology::local2();
        let mut session = builder().epochs(2).build();
        let hogwild = ExecutionPlan::hogwild(&machine).with_workers(4);
        session.replan(hogwild.clone());
        assert_eq!(session.plan(), &hogwild);
        let report = session.run();
        assert_eq!(report.plan, hogwild);
    }

    #[test]
    fn events_report_locality_steals_and_stat_efficiency() {
        let machine = MachineTopology::local2();
        let plan = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_workers(4);
        let events: Vec<EpochEvent> = builder().plan(plan).epochs(3).build().stream().collect();
        for event in &events {
            // Locality-first dealing with stealing disabled: every sharded
            // read is group-local and nothing is stolen.
            assert_eq!(event.data_locality, 1.0);
            assert_eq!(event.steals, 0);
            assert!(event.stat_efficiency.is_finite());
        }
        assert!(
            events[0].stat_efficiency > 0.0,
            "the first epoch reduces the loss"
        );
    }

    #[test]
    fn compact_source_option_drops_the_coo_triplets() {
        let task = reuters_svm();
        let matrix = task.data.matrix.clone();
        assert!(matrix.has_coo_source());
        let report = DimmWitted::on(MachineTopology::local2())
            .task(task)
            .plan_auto()
            .epochs(2)
            .compact_source()
            .build()
            .run();
        assert_eq!(report.trace.epochs(), 2);
        assert!(
            !matrix.has_coo_source(),
            "the canonical triplets were reclaimed"
        );
    }

    #[test]
    fn memory_budget_takes_the_out_of_core_arm_and_reports_faults() {
        let task = reuters_svm();
        let matrix = task.data.matrix.clone();
        let layout_bytes = LayoutDecision::Csr.estimated_bytes(matrix.stats());
        let budget = layout_bytes / 4;
        let spill_dir = dw_matrix::TempSpillDir::new("dw-session-test").unwrap();
        let machine = MachineTopology::local2();
        let plan = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_workers(4);
        let mut stream = DimmWitted::on(machine)
            .task(task)
            .plan(plan)
            .memory_budget(budget)
            .spill_dir(spill_dir.path())
            .epochs(3)
            .build()
            .stream();
        assert_eq!(
            stream.plan().residency.budget_bytes(),
            Some(budget),
            "the explicit plan was widened with the out-of-core arm"
        );
        assert!(
            stream.plan().residency.prefetch_depth() >= 1,
            "the widened arm carries an optimizer-chosen prefetch depth"
        );
        assert!(matrix.is_paged(), "the COO source was spilled to disk");
        assert!(!matrix.has_coo_source());
        let events: Vec<EpochEvent> = stream.by_ref().collect();
        assert_eq!(events.len(), 3);
        assert!(
            events[0].pages_faulted > 0,
            "epoch 1 carries the materialization faults"
        );
        assert!(events[0].io_bytes > 0);
        assert!(events[0].resident_bytes > 0);
        let ooc = matrix.ooc_stats().unwrap();
        assert!(
            ooc.peak_resident_bytes <= budget,
            "peak cached pages {} within the budget {}",
            ooc.peak_resident_bytes,
            budget
        );
        assert_eq!(
            ooc.resident_bytes, 0,
            "pages were released once layouts were resident"
        );
    }

    #[test]
    fn quarter_budget_prefetch_preserves_trace_bits() {
        // Prefetch only warms the cache and the budget only bounds it: ¼-
        // and ½-budget runs at every prefetch depth must produce
        // bit-identical per-epoch losses to the ¼-budget run with blocking
        // faults — and prefetching runs actually convert faults into hits.
        let machine = MachineTopology::local2();
        let run = |divisor: usize, prefetch_depth: usize| -> (Vec<u64>, u64) {
            let task = reuters_svm();
            let budget = LayoutDecision::Csr.estimated_bytes(task.data.matrix.stats()) / divisor;
            let spill_dir = dw_matrix::TempSpillDir::new("dw-session-pf").unwrap();
            let plan = ExecutionPlan::new(
                &machine,
                AccessMethod::RowWise,
                ModelReplication::PerNode,
                DataReplication::Sharding,
            )
            .with_workers(4)
            .with_residency(ResidencyDecision::Paged {
                budget_bytes: budget,
                prefetch_depth,
            });
            let events: Vec<EpochEvent> = DimmWitted::on(machine.clone())
                .task(task)
                .plan(plan)
                .spill_dir(spill_dir.path())
                .epochs(4)
                .build()
                .stream()
                .collect();
            let bits = events.iter().map(|e| e.loss.to_bits()).collect();
            let hits = events.iter().map(|e| e.prefetch_hits).sum();
            (bits, hits)
        };
        let mut blocking = None;
        for divisor in [4, 2] {
            for depth in [0, 2, 8] {
                let (bits, hits) = run(divisor, depth);
                assert_eq!(
                    &bits,
                    blocking.get_or_insert_with(|| bits.clone()),
                    "1/{divisor} budget at depth {depth} moved a loss bit"
                );
                if depth == 0 {
                    assert_eq!(hits, 0, "depth 0 never stages a page");
                } else {
                    assert!(
                        hits > 0,
                        "1/{divisor} budget at depth {depth}: the prefetcher staged \
                         pages the materialization consumed"
                    );
                }
            }
        }
    }

    #[test]
    fn layout_file_round_trips_layouts_across_sessions() {
        let dir = dw_matrix::TempSpillDir::new("dw-session-layouts").unwrap();
        let path = dir.file("reuters.dwlt");
        let machine = MachineTopology::local2();
        let first: Vec<EpochEvent> = DimmWitted::on(machine.clone())
            .task(reuters_svm())
            .layout_file(path.clone())
            .epochs(3)
            .build()
            .stream()
            .collect();
        assert!(path.exists(), "materialized layouts were persisted");
        // A second session over the regenerated task adopts the persisted
        // layouts instead of re-streaming the COO source.
        let task = reuters_svm();
        let matrix = task.data.matrix.clone();
        let second: Vec<EpochEvent> = DimmWitted::on(machine)
            .task(task)
            .layout_file(path.clone())
            .epochs(3)
            .build()
            .stream()
            .collect();
        assert!(matrix.csr_materialized());
        if cfg!(target_endian = "little") {
            assert!(
                matrix.csr().is_mapped(),
                "the row layout was adopted from the file image, not rebuilt"
            );
        }
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "adopted layouts serve identical bytes"
            );
        }
    }

    #[test]
    fn paged_arm_demotes_to_resident_when_nothing_can_page() {
        // A layout-backed matrix has no COO source to spill: the paged arm
        // must fall back to Resident so the simulator never charges disk
        // for a fully resident run.
        let dataset = Dataset::generate(PaperDataset::Reuters, 12);
        let csr = dataset.matrix.csr().clone();
        let labels = dataset.labels.clone();
        let task = AnalyticsTask::new(
            "SVM(reuters-csr)",
            dw_optim::TaskData::supervised(csr, labels),
            ModelKind::Svm,
        );
        let stream = builder_with(task)
            .memory_budget(1)
            .epochs(1)
            .build()
            .stream();
        assert_eq!(
            stream.plan().residency,
            ResidencyDecision::Resident,
            "nothing to page — the plan must say so"
        );
    }

    #[test]
    fn replan_keeps_the_memory_budget_arm() {
        let task = reuters_svm();
        let matrix = task.data.matrix.clone();
        let budget = LayoutDecision::Csr.estimated_bytes(matrix.stats()) / 4;
        let spill_dir = dw_matrix::TempSpillDir::new("dw-session-replan").unwrap();
        let machine = MachineTopology::local2();
        let sharded = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_workers(4);
        let mut stream = DimmWitted::on(machine.clone())
            .task(task)
            .plan(sharded)
            .memory_budget(budget)
            .spill_dir(spill_dir.path())
            .epochs(4)
            .build()
            .stream();
        let _ = stream.next();
        assert!(matrix.is_paged());
        // A replan onto a fresh plan (residency defaults to Resident) must
        // re-resolve: the source still lives on disk.
        let full = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::FullReplication,
        )
        .with_workers(4);
        stream.replan(full);
        assert!(
            matches!(stream.plan().residency, ResidencyDecision::Paged { .. }),
            "the replan must not silently drop the out-of-core arm"
        );
        let event = stream.next().expect("epoch after replan");
        assert!(event.loss.is_finite());
    }

    #[test]
    fn roomy_memory_budget_keeps_the_plan_resident() {
        let task = reuters_svm();
        let matrix = task.data.matrix.clone();
        let session = builder_with(task)
            .memory_budget(usize::MAX)
            .epochs(1)
            .build();
        assert_eq!(session.plan().residency, ResidencyDecision::Resident);
        let _ = session.run();
        assert!(!matrix.is_paged(), "nothing was spilled");
        assert!(matrix.has_coo_source());
    }

    fn builder_with(task: AnalyticsTask) -> SessionBuilder {
        DimmWitted::on(MachineTopology::local2()).task(task)
    }

    #[test]
    fn auto_steal_budget_derives_and_adapts_across_epochs() {
        // 3 workers over 2 locality groups: the under-staffed group's worker
        // carries ~2x the load, so auto-steal derives a non-zero budget from
        // the imbalance x remote premium, spends it, and keeps adapting it
        // to the measured steals.
        let machine = MachineTopology::local2();
        let plan = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_workers(3);
        let expected = crate::plan::tuned_steal_budget(&plan, &machine, reuters_svm().examples());
        assert!(expected > 0);
        let mut stream = builder()
            .plan(plan)
            .epochs(4)
            .auto_steal_budget()
            .build()
            .stream();
        assert_eq!(
            stream.plan().scheduler,
            crate::plan::ItemScheduler::LocalityFirst {
                steal_budget: expected
            },
            "the derived budget replaces the fixed constant"
        );
        let events: Vec<EpochEvent> = stream.by_ref().collect();
        assert!(events.iter().all(|e| e.steals > 0), "the budget is spent");
        // Stolen items are credited to the thief's group, so measured
        // locality matches the optimizer's expected_data_locality of 1.0 for
        // locality-first schedules even while the budget is being spent; the
        // steal cost surfaces as measured `steal_seconds` instead (0.0 here:
        // the interleaved executor measures nothing).
        for event in &events {
            assert_eq!(
                event.data_locality, 1.0,
                "thief-credited locality (epoch {})",
                event.epoch
            );
            assert_eq!(event.steal_seconds, 0.0);
            assert_eq!(event.worker_idle, 0.0);
        }
        // The budget tracked the measured steals within the derived cap:
        // after each epoch it is either the epoch's measured demand (under-
        // used) or the restored cap (exhausted) — never beyond the cap,
        // which is the economic bound of the derivation.
        let last = events.last().unwrap().steals;
        let final_budget = match stream.plan().scheduler {
            crate::plan::ItemScheduler::LocalityFirst { steal_budget } => steal_budget,
            _ => unreachable!(),
        };
        assert!(
            final_budget == last || final_budget == expected,
            "budget {final_budget} adapted from measured {last} within cap {expected}"
        );
        assert!(final_budget <= expected, "adaptation never exceeds the cap");
        for event in &events {
            assert!(event.steals <= expected, "per-epoch steals stay capped");
        }
    }

    #[test]
    fn auto_steal_budget_is_inert_for_balanced_staffing() {
        // 4 workers over 2 groups staff evenly: owner-directed dealing is
        // already balanced, the derivation returns 0, and nothing is stolen
        // — bit-identical to the fixed-zero-budget default.
        let machine = MachineTopology::local2();
        let plan = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_workers(4);
        let auto = builder()
            .plan(plan.clone())
            .epochs(2)
            .auto_steal_budget()
            .build()
            .run();
        let fixed = builder().plan(plan).epochs(2).build().run();
        assert_eq!(auto.trace, fixed.trace);
    }

    #[test]
    fn auto_steal_budget_applies_to_columnar_shards_too() {
        let machine = MachineTopology::local2();
        let plan = ExecutionPlan::new(
            &machine,
            AccessMethod::ColumnToRow,
            ModelReplication::PerNode,
            DataReplication::Sharding,
        )
        .with_workers(3);
        let mut stream = builder()
            .plan(plan)
            .epochs(2)
            .auto_steal_budget()
            .build()
            .stream();
        let budget = match stream.plan().scheduler {
            crate::plan::ItemScheduler::LocalityFirst { steal_budget } => steal_budget,
            _ => unreachable!(),
        };
        assert!(budget > 0, "columnar imbalance derives a budget");
        let event = stream.next().expect("first epoch");
        assert!(event.steals > 0);
        assert!(event.loss.is_finite());
    }

    #[test]
    fn two_sessions_lease_one_shared_pool() {
        // The pre-req of the serving subsystem: sessions built with
        // `.with_pool` run all their threaded epochs on one Arc'd pool
        // instead of spawning a pool each (which would double-subscribe
        // every core), and the pool outlives both sessions unchanged.
        let pool = Arc::new(crate::pool::WorkerPool::new(4));
        let machine = MachineTopology::local2();
        let plan = ExecutionPlan::new(
            &machine,
            AccessMethod::RowWise,
            crate::replication::ModelReplication::PerCore,
            crate::replication::DataReplication::Sharding,
        )
        .with_workers(4);
        for seed in [1u64, 2] {
            let report = builder()
                .plan(plan.clone())
                .seed(seed)
                .epochs(2)
                .with_pool(Arc::clone(&pool))
                .build()
                .run();
            assert_eq!(report.trace.epochs(), 2);
            assert!(report.final_loss().is_finite());
        }
        assert_eq!(pool.workers(), 4, "the shared pool was never resized");
        assert_eq!(
            Arc::strong_count(&pool),
            1,
            "both sessions released their lease"
        );
    }

    #[test]
    fn events_carry_a_monotonic_elapsed_timestamp() {
        let events: Vec<EpochEvent> = builder().epochs(3).build().stream().collect();
        assert!(events[0].elapsed > Duration::ZERO, "epoch 1 took time");
        for pair in events.windows(2) {
            assert!(
                pair[1].elapsed >= pair[0].elapsed,
                "elapsed never goes backwards: {:?} then {:?}",
                pair[0].elapsed,
                pair[1].elapsed
            );
        }
    }

    #[test]
    fn on_epoch_model_publishes_the_synchronized_model() {
        // The serving publish hook: the observer's slice is the same
        // epoch-boundary average the event's loss was computed from, so
        // re-evaluating the loss against a copy reproduces it exactly.
        let task = reuters_svm();
        let objective = Arc::clone(&task.objective);
        let data = Arc::clone(&task.data);
        let published = Arc::new(std::sync::Mutex::new(Vec::<(usize, Vec<f64>)>::new()));
        let sink = Arc::clone(&published);
        let report = builder_with(task)
            .epochs(3)
            .on_epoch_model(move |event, model| {
                sink.lock().unwrap().push((event.epoch, model.to_vec()));
                assert_eq!(
                    objective.full_loss(&data, model),
                    event.loss,
                    "the published model is the one the loss was measured on"
                );
            })
            .build()
            .run();
        let published = published.lock().unwrap();
        assert_eq!(published.len(), 3, "one publication per epoch");
        assert_eq!(
            published.last().unwrap().1,
            report.final_model,
            "the last publication is the final model"
        );
    }

    #[test]
    fn stream_model_matches_the_last_event() {
        let mut stream = builder().epochs(2).build().stream();
        let first = stream.next().expect("first epoch");
        let model = stream.model();
        let loss = stream.task.objective.full_loss(&stream.task.data, &model);
        assert_eq!(loss, first.loss);
    }

    #[test]
    fn session_into_iterator_streams() {
        let mut epochs = 0;
        for event in builder().epochs(2).build() {
            epochs += 1;
            assert!(event.loss.is_finite());
        }
        assert_eq!(epochs, 2);
    }
}
