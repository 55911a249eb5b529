//! Sequential epoch runners.
//!
//! An *epoch* is one complete pass over the data (Section 1).  The engine
//! composes these per-worker loops into parallel execution plans; they are
//! also used stand-alone by the reference solver and the baselines.

use crate::model::AtomicModel;
use crate::objectives::Objective;
use crate::task::TaskData;
use rand::prelude::*;
use rand::rngs::StdRng;

/// A shuffled permutation of `0..n` ("typically some randomness in the
/// ordering is desired", Section 2.1).
pub fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    indices
}

/// Run one row-wise epoch over the listed examples.
pub fn run_row_epoch(
    objective: &dyn Objective,
    data: &TaskData,
    model: &AtomicModel,
    step: f64,
    order: &[usize],
) {
    for &i in order {
        objective.row_step(data, i, model, step);
    }
}

/// Run one column-wise epoch over the listed coordinates.
pub fn run_col_epoch(
    objective: &dyn Objective,
    data: &TaskData,
    model: &AtomicModel,
    step: f64,
    order: &[usize],
) {
    for &j in order {
        objective.col_step(data, j, model, step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AtomicModel;
    use crate::objectives::{test_support, LeastSquares, SvmHinge};

    #[test]
    fn shuffle_is_a_permutation_and_seeded() {
        let a = shuffled_indices(100, 7);
        let b = shuffled_indices(100, 7);
        let c = shuffled_indices(100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn row_epoch_reduces_loss() {
        let data = test_support::tiny_classification();
        let obj = SvmHinge::default();
        let model = AtomicModel::zeros(data.dim());
        let order = shuffled_indices(data.examples(), 1);
        let start = obj.full_loss(&data, &model.snapshot());
        for _ in 0..20 {
            run_row_epoch(&obj, &data, &model, 0.1, &order);
        }
        assert!(obj.full_loss(&data, &model.snapshot()) < start);
    }

    #[test]
    fn col_epoch_reduces_loss() {
        let data = test_support::tiny_regression();
        let obj = LeastSquares::new(0.0);
        let model = AtomicModel::zeros(data.dim());
        let order: Vec<usize> = (0..data.dim()).collect();
        let start = obj.full_loss(&data, &model.snapshot());
        for _ in 0..10 {
            run_col_epoch(&obj, &data, &model, 1.0, &order);
        }
        assert!(obj.full_loss(&data, &model.snapshot()) < 0.1 * start);
    }

    #[test]
    fn partial_order_visits_only_listed_rows() {
        let data = test_support::tiny_classification();
        let obj = SvmHinge::default();
        let model = AtomicModel::zeros(data.dim());
        // Row 1 touches coordinates 0 and 2; nothing else should change.
        run_row_epoch(&obj, &data, &model, 0.1, &[1]);
        assert_ne!(model.read(0), 0.0);
        assert_eq!(model.read(1), 0.0);
    }
}
