//! Drift-driven online replanning: the Figure-14 decision made while the
//! data is still arriving.
//!
//! The paper's optimizer decides access method / replication /
//! materialization once, from static [`MatrixStats`].  Under streaming
//! ingest the stats drift — a supervised task that starts underdetermined
//! (`N ≪ d`, row-wise territory in Figure 7(b)) can cross the cost-ratio
//! boundary as rows arrive, or wide rows can blow up the `Σᵢnᵢ²`
//! column-read term.  [`DriftController`] watches each epoch and calls the
//! session's cheap [`EpochStream::replan`] when the drifted stats actually
//! move the optimizer's choice:
//!
//! * **Decision drift** — the controller re-runs
//!   [`Optimizer::choose_plan`] against the *current* snapshot's stats and
//!   compares the decision axes (access, model/data replication, layout,
//!   kernel) with the running plan.  No drift, no replan.
//! * **Hysteresis** — a moved decision must also be *worth* switching to:
//!   the candidate's simulated epoch seconds must beat the current plan's
//!   by the hysteresis factor, **or** the measured
//!   [`EpochEvent::stat_efficiency`] must have stalled (the simulated
//!   ranking says "switch" and the incremental progress says "nothing to
//!   lose").  A cooldown bounds replan churn.
//!
//! [`run_online`] is the reference driving loop: it applies an arrival
//! schedule to a [`LiveSource`] at epoch boundaries (seal → optional
//! compaction → snapshot → [`EpochStream::adopt_data`]), reviews each
//! epoch event, and records every plan switch — fully deterministic given
//! the schedule, which is what lets integration tests pin the switch and
//! compare replan-on against replan-off traces.
//!
//! [`MatrixStats`]: dw_matrix::MatrixStats
//! [`LiveSource`]: dw_matrix::LiveSource

use crate::optimizer::Optimizer;
use crate::plan::ExecutionPlan;
use crate::session::{EpochEvent, EpochStream};
use crate::sim_exec::simulate_epoch;
use crate::task::AnalyticsTask;
use dw_matrix::LiveSource;
use dw_numa::MachineTopology;
use dw_optim::TaskData;
use std::io;

/// One plan switch the controller decided on.
#[derive(Debug, Clone)]
pub struct ReplanDecision {
    /// 1-based epoch whose event triggered the switch (the new plan runs
    /// from the next epoch on).
    pub epoch: usize,
    /// The plan that was running.
    pub from: ExecutionPlan,
    /// The plan switched to.
    pub to: ExecutionPlan,
    /// Simulated seconds per epoch of the running plan on the drifted
    /// stats.
    pub current_seconds: f64,
    /// Simulated seconds per epoch of the candidate.
    pub candidate_seconds: f64,
    /// Whether the stalled-progress escape hatch (rather than the
    /// simulated win alone) admitted the switch.
    pub stalled: bool,
}

/// An adaptive replan policy over a running [`EpochStream`]; see the
/// module docs for the decision rule.
#[derive(Debug)]
pub struct DriftController {
    machine: MachineTopology,
    optimizer: Optimizer,
    hysteresis: f64,
    stall_efficiency: f64,
    cooldown: usize,
    last_replan: Option<usize>,
    decisions: Vec<ReplanDecision>,
}

impl DriftController {
    /// A controller re-planning with the default cost model of `machine`:
    /// 5% hysteresis, a 2-epoch cooldown, and a `1e-4` relative-progress
    /// stall floor.
    pub fn new(machine: MachineTopology) -> Self {
        let optimizer = Optimizer::new(machine.clone());
        DriftController {
            machine,
            optimizer,
            hysteresis: 0.95,
            stall_efficiency: 1e-4,
            cooldown: 2,
            last_replan: None,
            decisions: Vec::new(),
        }
    }

    /// Override the write-cost factor α of the optimizer's cost model.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.optimizer = Optimizer::new(self.machine.clone()).with_alpha(alpha);
        self
    }

    /// Required simulated speedup before a moved decision is adopted: the
    /// candidate must satisfy `candidate ≤ hysteresis × current` (or the
    /// stall escape).  `1.0` disables the margin.
    pub fn with_hysteresis(mut self, hysteresis: f64) -> Self {
        self.hysteresis = hysteresis;
        self
    }

    /// Minimum epochs between replans.
    pub fn with_cooldown(mut self, epochs: usize) -> Self {
        self.cooldown = epochs;
        self
    }

    /// Relative per-epoch loss reduction below which progress counts as
    /// stalled (admitting a moved decision regardless of the hysteresis
    /// margin).
    pub fn with_stall_efficiency(mut self, floor: f64) -> Self {
        self.stall_efficiency = floor;
        self
    }

    /// Every switch decided so far.
    pub fn decisions(&self) -> &[ReplanDecision] {
        &self.decisions
    }

    /// Review one finished epoch: re-run the optimizer against the current
    /// snapshot's stats and return the plan to switch to, if the decision
    /// moved and the switch clears the hysteresis (or stall) gate.
    pub fn review(
        &mut self,
        task: &AnalyticsTask,
        current: &ExecutionPlan,
        event: &EpochEvent,
    ) -> Option<ExecutionPlan> {
        if let Some(last) = self.last_replan {
            if event.epoch < last + self.cooldown {
                return None;
            }
        }
        let candidate = self.optimizer.choose_plan(task);
        if !decision_moved(&candidate, current) {
            return None;
        }
        let stats = task.data.stats();
        let density = task.objective.row_update_density();
        let current_seconds = simulate_epoch(&stats, density, current, &self.machine).seconds;
        let candidate_seconds = simulate_epoch(&stats, density, &candidate, &self.machine).seconds;
        let stalled = event.stat_efficiency.abs() < self.stall_efficiency;
        if candidate_seconds <= self.hysteresis * current_seconds || stalled {
            self.last_replan = Some(event.epoch);
            self.decisions.push(ReplanDecision {
                epoch: event.epoch,
                from: current.clone(),
                to: candidate.clone(),
                current_seconds,
                candidate_seconds,
                stalled,
            });
            Some(candidate)
        } else {
            None
        }
    }
}

/// Whether the optimizer's *decision* differs between two plans on the
/// axes a replan can change cheaply.  Residency, scheduler tuning, and
/// worker count are derived arms — they re-resolve on every replan anyway
/// and must not by themselves trigger one.
fn decision_moved(candidate: &ExecutionPlan, current: &ExecutionPlan) -> bool {
    candidate.access != current.access
        || candidate.model_replication != current.model_replication
        || candidate.data_replication != current.data_replication
        || candidate.layout != current.layout
        || candidate.kernel != current.kernel
}

/// One epoch boundary's arrivals: whole rows (each a sparse `(col, value)`
/// list) plus their labels.
#[derive(Debug, Clone, Default)]
pub struct LiveBatch {
    /// Arriving rows, appended in order after the currently sealed rows.
    pub rows: Vec<Vec<(usize, f64)>>,
    /// One label per arriving row.
    pub labels: Vec<f64>,
}

/// Knobs of [`run_online`].
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Page-cache budget of each adopted snapshot.
    pub cache_budget: usize,
    /// Compact the live source when its sealed page count exceeds this
    /// (LSM-style read-amplification bound); `None` never compacts.
    pub compact_above_pages: Option<usize>,
}

/// What an online run produced: the epoch events and every plan switch.
#[derive(Debug)]
pub struct OnlineOutcome {
    /// All epoch events, in order.
    pub events: Vec<EpochEvent>,
    /// Every replan the controller decided (empty with the policy off).
    pub replans: Vec<ReplanDecision>,
}

/// Drive a session against a live arrival schedule, deterministically.
///
/// Before each epoch `e` (0-based), `arrivals(e)` may deliver a
/// [`LiveBatch`]; its rows are pushed and sealed, the source optionally
/// compacts, and the stream adopts a fresh snapshot (with `labels` grown to
/// match) — so epochs pick up new rows exactly at epoch boundaries.  After
/// each epoch, the controller (replan policy **on**) reviews the event and
/// may switch plans; pass `None` for the replan-off baseline.  The loop
/// ends when the stream does (epoch budget or early stop).
pub fn run_online(
    stream: &mut EpochStream,
    live: &LiveSource,
    labels: &mut Vec<f64>,
    mut arrivals: impl FnMut(usize) -> Option<LiveBatch>,
    mut controller: Option<&mut DriftController>,
    config: &OnlineConfig,
) -> io::Result<OnlineOutcome> {
    let mut events = Vec::new();
    let mut upcoming = 0usize;
    loop {
        if let Some(batch) = arrivals(upcoming) {
            if !batch.rows.is_empty() {
                assert_eq!(
                    batch.rows.len(),
                    batch.labels.len(),
                    "one label per arriving row"
                );
                for (row, cols) in (live.rows()..).zip(batch.rows.iter()) {
                    for &(col, value) in cols {
                        live.push(row, col, value)?;
                    }
                }
                live.seal()?;
                if let Some(bound) = config.compact_above_pages {
                    if live.page_count() > bound {
                        live.compact()?;
                    }
                }
                labels.extend_from_slice(&batch.labels);
                let matrix = live.snapshot_matrix(config.cache_budget);
                stream.adopt_data(TaskData::supervised(matrix, labels.clone()));
            }
        }
        let Some(event) = stream.next() else { break };
        if let Some(ctrl) = controller.as_deref_mut() {
            if let Some(plan) = ctrl.review(stream.task(), &stream.plan().clone(), &event) {
                stream.replan(plan);
            }
        }
        events.push(event);
        upcoming += 1;
    }
    let replans = controller
        .map(|c| c.decisions().to_vec())
        .unwrap_or_default();
    Ok(OnlineOutcome { events, replans })
}
