//! First-order statistical methods for the DimmWitted engine.
//!
//! The paper studies tasks "that can be solved by first-order methods — a
//! class of iterative algorithms that use gradient information".  This crate
//! implements the five statistical models of the evaluation (SVM, logistic
//! regression, least squares, LP, QP) as [`Objective`]s with both a row-wise
//! (`f_row`, SGD-style) and a column-to-row (`f_col`/`f_ctr`, SCD-style)
//! update, together with:
//!
//! * [`AtomicModel`] — the mutable model, one concrete type for every
//!   replication strategy.  It is the Hogwild! memory model: individual
//!   components are updated atomically (cacheline atomicity) but the vector
//!   as a whole is not locked, so concurrent workers may interleave and
//!   overwrite freely — exactly the incoherent execution of Section 2.1.
//! * [`TaskData`] — the immutable `(A, labels, costs)` bundle.
//! * [`epoch`] — sequential row-wise and column-wise epoch runners.
//! * [`reference`] — long-run reference solver used to estimate the optimal
//!   loss (the paper obtains it by "running all systems for one hour and
//!   choosing the lowest").
//! * [`convergence`] — bookkeeping for "epochs to reach x% of the optimal
//!   loss", the paper's statistical-efficiency metric.

pub mod convergence;
pub mod epoch;
pub mod model;
pub mod objectives;
pub mod reference;
pub mod task;

pub use convergence::{epochs_to_reach, ConvergenceTrace, LossPoint};
pub use epoch::{run_col_epoch, run_row_epoch, shuffled_indices};
pub use model::{average_models, average_models_into, AtomicModel};
pub use objectives::{
    GraphLp, GraphQp, LeastSquares, Logistic, Objective, SvmHinge, UpdateDensity,
};
pub use reference::reference_optimum;
pub use task::TaskData;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_api_smoke() {
        let model = AtomicModel::zeros(4);
        model.add(1, 2.5);
        assert_eq!(model.read(1), 2.5);
        assert_eq!(model.snapshot(), vec![0.0, 2.5, 0.0, 0.0]);
    }
}
