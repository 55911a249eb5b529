//! The hand-driven session: `Session::build` + `Session::stream` +
//! `EpochStream::next` re-assembled from the same public layer functions
//! the session calls, each call wrapped in a span.
//!
//! This is what the per-layer numbers are measured on, so it must *be* the
//! product's epoch: the loop-fidelity test below runs it beside `Session`
//! on every training workload and requires bit-identical per-epoch losses.
//! If `EpochStream::next` later grows a step this loop lacks, that test is
//! what fails.

use crate::spans::Tracer;
use dimmwitted::executor::EpochTiming;
use dimmwitted::importance::leverage_scores;
use dimmwitted::plan::EpochAssignment;
use dimmwitted::sim_exec::{simulate_epoch, EpochSimulation};
use dimmwitted::{
    choose_prefetch_depth, AccessMethod, AnalyticsTask, DataReplicaSet, DataReplication,
    EpochContext, ExecutionPlan, Executor, LayoutDecision, Optimizer, ResidencyDecision, RunConfig,
};
use dw_matrix::IndexEncoding;
use dw_numa::{MachineTopology, PlacementPolicy};
use dw_optim::{average_models, AtomicModel};
use std::path::PathBuf;
use std::sync::Arc;

/// The `SessionBuilder` settings the benchmark's workloads use.
#[derive(Clone, Default)]
pub struct SessionOptions {
    /// `None` = `plan_auto()`.
    pub plan: Option<ExecutionPlan>,
    pub memory_budget: Option<usize>,
    pub layout_file: Option<PathBuf>,
}

pub struct HandSession {
    machine: MachineTopology,
    pub task: AnalyticsTask,
    pub plan: ExecutionPlan,
    config: RunConfig,
    executor: Box<dyn Executor>,
    replicas: Vec<Arc<AtomicModel>>,
    pub data_replicas: DataReplicaSet,
    assignment: EpochAssignment,
    weights: Option<Vec<f64>>,
    step: f64,
    epoch: usize,
    pub sim: EpochSimulation,
}

/// The residency rule of `SessionBuilder::build` and `resolve_residency`,
/// for the storage forms the benchmark uses: a resident COO source never
/// runs under a memory budget here, so the spill step has no caller.
fn resolve_residency(
    plan: &mut ExecutionPlan,
    task: &AnalyticsTask,
    machine: &MachineTopology,
    memory_budget: Option<usize>,
) {
    let matrix = &task.data.matrix;
    if let Some(budget) = memory_budget {
        if plan.residency == ResidencyDecision::Resident
            && plan.layout.estimated_bytes(matrix.stats()) > budget
        {
            plan.residency = ResidencyDecision::Paged {
                budget_bytes: budget,
                prefetch_depth: choose_prefetch_depth(machine),
            };
        }
    }
    match plan.residency {
        ResidencyDecision::Paged { .. } => {
            assert!(
                !matrix.has_coo_source(),
                "the hand-driven loop has no spill step: budgeted workloads start from a page file"
            );
            if !matrix.is_paged() {
                plan.residency = ResidencyDecision::Resident;
            }
        }
        ResidencyDecision::Resident => {
            if matrix.is_paged() {
                plan.residency = ResidencyDecision::Paged {
                    budget_bytes: matrix.ooc_cache_budget().unwrap_or(usize::MAX),
                    prefetch_depth: choose_prefetch_depth(machine),
                };
            }
        }
    }
}

impl HandSession {
    /// `SessionBuilder::build()` followed by `Session::stream()`.
    pub fn start(
        machine: &MachineTopology,
        task: AnalyticsTask,
        options: &SessionOptions,
        config: RunConfig,
        executor: Box<dyn Executor>,
        tracer: &mut Tracer,
    ) -> HandSession {
        // --- build(): resolve the plan.
        let span = tracer.begin("optimizer.choose_plan");
        let mut plan = match &options.plan {
            Some(plan) => plan.clone(),
            None => Optimizer::new(machine.clone())
                .with_memory_budget(options.memory_budget)
                .choose_plan(&task),
        };
        tracer.end(span);

        // --- stream(): residency, simulator constants, layouts, replicas.
        resolve_residency(&mut plan, &task, machine, options.memory_budget);
        let sim = tracer.time("sim_exec.simulate_epoch", || {
            simulate_epoch(
                &task.data.stats(),
                task.objective.row_update_density(),
                &plan,
                machine,
            )
        });
        let matrix = &task.data.matrix;
        if let Some(path) = options.layout_file.as_ref().filter(|path| path.exists()) {
            tracer.time("persist.open", || {
                let _ = matrix.load_persisted_layouts(path);
            });
        }
        let prefetcher = matrix.start_prefetch(plan.residency.prefetch_depth());
        tracer.time("matrix.materialize_rows", || {
            if plan.layout == LayoutDecision::Dense {
                matrix.materialize_dense_rows();
            } else {
                matrix.materialize_rows();
            }
        });
        let needs_cols = plan.layout.includes_cols()
            || (plan.access == AccessMethod::RowWise && !task.kind.is_sgd_family());
        if needs_cols {
            tracer.time("matrix.materialize_cols", || matrix.materialize_cols());
        }
        drop(prefetcher);
        if let Some(path) = &options.layout_file {
            tracer.time("persist.write", || {
                let _ = matrix.sync_persisted_layouts(path);
            });
        }
        task.data
            .kernel
            .set(plan.kernel.variant, plan.kernel.encoding);
        if plan.kernel.encoding == IndexEncoding::DeltaU16 {
            tracer.time("matrix.encode_indices", || {
                matrix.materialize_encoded_indices()
            });
        }
        let data_replicas = tracer.time("data_replica.build", || {
            DataReplicaSet::build_with_binding(
                &plan,
                machine,
                PlacementPolicy::NumaAware,
                &task,
                true,
            )
        });
        matrix.release_pages();
        let weights = match plan.data_replication {
            DataReplication::Importance { .. } if !plan.access.is_columnar() => {
                Some(tracer.time("importance.leverage_scores", || {
                    leverage_scores(&task.data.matrix, 1e-6)
                }))
            }
            _ => None,
        };
        let replicas = (0..plan.locality_groups(machine))
            .map(|_| Arc::new(AtomicModel::zeros(task.dim())))
            .collect();
        // `stream()` evaluates the zero model's loss to seed its trace.
        let _ = tracer.time("optim.full_loss", || task.initial_loss());
        let step = config.step_override.unwrap_or_else(|| {
            if plan.access.is_columnar() {
                task.objective.default_col_step()
            } else {
                task.objective.default_step_for(&task.data)
            }
        });
        let assignment = EpochAssignment::for_plan(&plan, machine);
        HandSession {
            machine: machine.clone(),
            task,
            plan,
            config,
            executor,
            replicas,
            data_replicas,
            assignment,
            weights,
            step,
            epoch: 0,
            sim,
        }
    }

    /// `EpochStream::next()`: deal, execute, synchronise, evaluate.
    pub fn next_epoch(&mut self, tracer: &mut Tracer) -> (f64, EpochTiming) {
        tracer.set_epoch(self.epoch as u32);
        let epoch_span = tracer.begin("session.epoch");
        tracer.time("plan.fill", || {
            self.assignment.fill(
                &self.plan,
                &self.task.data,
                self.epoch,
                self.config.seed,
                self.weights.as_deref(),
                Some(&self.data_replicas),
            )
        });
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
        let timing = tracer.time("executor.run_epoch", || self.executor.run_epoch(&ctx));
        let averaged = tracer.time("optim.average_models", || {
            let refs: Vec<&AtomicModel> = self.replicas.iter().map(Arc::as_ref).collect();
            let averaged = average_models(&refs);
            if self.replicas.len() > 1 {
                for replica in &self.replicas {
                    replica.store_vec(&averaged);
                }
            }
            averaged
        });
        let loss = tracer.time("optim.full_loss", || {
            self.task.objective.full_loss(&self.task.data, &averaged)
        });
        let locality = tracer.time("data_replica.local_read_fraction", || {
            self.data_replicas.local_read_fraction(&self.assignment)
        });
        tracer.end(epoch_span);

        tracer.count("data_replica.local_read_fraction", locality);
        tracer.count("plan.steals", self.assignment.steals() as f64);
        tracer.count("plan.items", self.assignment.total_items() as f64);
        let feedback = timing.feedback(self.assignment.steals());
        tracer.count("executor.busy_max_s", feedback.busy_max_seconds);
        tracer.count("executor.busy_mean_s", feedback.busy_mean_seconds);
        tracer.count("executor.steal_s", feedback.steal_seconds);
        tracer.count("executor.worker_idle", feedback.idle_fraction());

        self.epoch += 1;
        self.step *= self.task.objective.step_decay();
        (loss, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::Case;
    use crate::workloads::{machine, TRAINING};
    use dimmwitted::{ExecutionMode, InterleavedExecutor};
    use dw_matrix::TempSpillDir;

    /// Loop fidelity: on every training workload (reduced size), the
    /// hand-driven loop under the deterministic executor produces per-epoch
    /// loss *bits* identical to `Session` on the same plan, seed and step.
    #[test]
    fn hand_loop_matches_session_bit_for_bit() {
        const EPOCHS: usize = 5;
        for workers in [2, 4] {
            for spec in TRAINING {
                let dir = TempSpillDir::new("dw-benchmark-fidelity").expect("temp dir");
                let machine = machine(workers);
                let source = spec.generate(11, true, dir.path(), &machine);
                let case = Case::new(spec, &machine, workers, 11, &source, dir.path());

                let (mut stream, _) = case.open(ExecutionMode::Interleaved);
                let session_plan = stream.plan().describe();
                let session: Vec<u64> = stream
                    .by_ref()
                    .take(EPOCHS)
                    .map(|event| event.loss.to_bits())
                    .collect();
                drop(stream);
                // A cold hand-driven run must not adopt the product run's layouts.
                case.remove_layout_file();

                let mut tracer = Tracer::new();
                let mut hand = HandSession::start(
                    &machine,
                    case.task(case.source.prepare().into_task_data()),
                    &case.options(),
                    case.run_config(ExecutionMode::Interleaved),
                    Box::new(InterleavedExecutor::new()),
                    &mut tracer,
                );
                let by_hand: Vec<u64> = (0..EPOCHS)
                    .map(|_| hand.next_epoch(&mut tracer).0.to_bits())
                    .collect();

                assert_eq!(session_plan, hand.plan.describe(), "{}", spec.name);
                assert_eq!(session, by_hand, "{} (W = {workers})", spec.name);
                assert!(tracer.epoch_samples("executor.run_epoch", 0).len() == EPOCHS);
            }
        }
    }
}
