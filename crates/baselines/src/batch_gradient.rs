//! Minibatch / batch gradient descent (the MLlib execution strategy).
//!
//! MLlib "implements a minibatch-based approach in which parallel workers
//! calculate the gradient based on examples, and then gradients are
//! aggregated by a single thread to update the final model" (Section 3.3).
//! With the 100% batch size the paper finds best for MLlib, that is plain
//! batch gradient descent: the gradient of every example is evaluated at the
//! *same* model and applied once per epoch — which is why MLlib needs ~60×
//! more epochs than per-example SGD on Forest (Section 4.2).
//!
//! The emulation computes each example's update at the frozen epoch-start
//! model by applying the objective's `row_step` to a scratch replica and
//! measuring the coordinates it touched, then averages all updates and
//! applies them in one step.

use dimmwitted::AnalyticsTask;
use dw_optim::{AtomicModel, ConvergenceTrace};

/// Run `epochs` of batch gradient descent on `task`; returns the per-epoch
/// loss trace (time is filled in by the caller from the hardware model).
pub fn run_batch_gradient(
    task: &AnalyticsTask,
    epochs: usize,
    batch_fraction: f64,
    step: f64,
    seconds_per_epoch: f64,
) -> ConvergenceTrace {
    assert!(
        batch_fraction > 0.0 && batch_fraction <= 1.0,
        "batch fraction must be in (0, 1]"
    );
    let dim = task.dim();
    let n = task.examples();
    let batch = ((n as f64 * batch_fraction).round() as usize).clamp(1, n);
    let mut model = vec![0.0; dim];
    let mut trace = ConvergenceTrace::new(task.initial_loss());
    let scratch = AtomicModel::zeros(dim);
    for epoch in 0..epochs {
        // Evaluate every example's update at the frozen model.
        scratch.store_vec(&model);
        let mut accumulated = vec![0.0; dim];
        let start = (epoch * batch) % n;
        for offset in 0..batch {
            let i = (start + offset) % n;
            // Record the touched coordinates, apply one step on the scratch
            // replica, harvest the deltas, then restore the scratch replica
            // so every example sees the same frozen model.
            let touched: Vec<usize> = task.data.row(i).iter().map(|(j, _)| j).collect();
            let before: Vec<f64> = touched.iter().map(|&j| scratch.read(j)).collect();
            task.objective.row_step(&task.data, i, &scratch, step);
            for (&j, &b) in touched.iter().zip(&before) {
                accumulated[j] += scratch.read(j) - b;
                scratch.write(j, b);
            }
        }
        // One aggregated update per epoch.
        let scale = 1.0 / batch as f64;
        for (m, delta) in model.iter_mut().zip(&accumulated) {
            *m += delta * scale * n as f64 / batch as f64;
        }
        let loss = task.objective.full_loss(&task.data, &model);
        trace.record(loss, (epoch + 1) as f64 * seconds_per_epoch);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmwitted::{ModelKind, RunConfig, Runner};
    use dw_data::{Dataset, PaperDataset};
    use dw_numa::MachineTopology;

    fn forest_task() -> AnalyticsTask {
        let dataset = Dataset::generate(PaperDataset::Forest, 9);
        AnalyticsTask::from_dataset(&dataset, ModelKind::Svm)
    }

    #[test]
    fn batch_gradient_reduces_loss() {
        let task = forest_task();
        let trace = run_batch_gradient(&task, 10, 1.0, 0.05, 0.1);
        assert_eq!(trace.epochs(), 10);
        assert!(trace.best_loss() < trace.initial_loss);
        // Times accumulate at the supplied per-epoch cost.
        assert!((trace.total_seconds() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn batch_gradient_needs_more_epochs_than_sgd() {
        // The Section 4.2 observation behind the Forest 60x epoch gap:
        // per-example SGD reaches a given loss in far fewer epochs than
        // batch gradient descent.
        let task = forest_task();
        let machine = MachineTopology::local2();
        let runner = Runner::new(machine);
        let epochs = 8;
        let sgd = runner.run_auto(&task, &RunConfig::quick(epochs));
        let batch = run_batch_gradient(&task, epochs, 1.0, 0.05, sgd.seconds_per_epoch);
        assert!(
            sgd.final_loss() < batch.best_loss(),
            "SGD {} should beat batch GD {} at equal epochs",
            sgd.final_loss(),
            batch.best_loss()
        );
    }

    #[test]
    fn smaller_minibatch_updates_more_often_with_less_data() {
        let task = forest_task();
        let trace = run_batch_gradient(&task, 5, 0.1, 0.05, 0.01);
        assert_eq!(trace.epochs(), 5);
        assert!(trace.best_loss() <= trace.initial_loss);
    }

    #[test]
    #[should_panic(expected = "batch fraction")]
    fn invalid_batch_fraction_rejected() {
        let task = forest_task();
        let _ = run_batch_gradient(&task, 1, 0.0, 0.1, 0.1);
    }
}
