//! Least-squares regression (squared loss with L2 regularization).

use super::{row_margin, row_margin_slice, Objective, UpdateDensity};
use crate::model::AtomicModel;
use crate::task::TaskData;

/// `F(x) = (1/2N) Σᵢ (aᵢ·x - yᵢ)² + (reg/2)‖x‖²`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LeastSquares {
    /// L2 regularization strength.
    pub reg: f64,
}

impl Default for LeastSquares {
    fn default() -> Self {
        LeastSquares { reg: 1e-6 }
    }
}

impl LeastSquares {
    /// Create a least-squares objective.
    pub fn new(reg: f64) -> Self {
        LeastSquares { reg }
    }
}

impl Objective for LeastSquares {
    fn name(&self) -> &'static str {
        "ls"
    }

    fn full_loss(&self, data: &TaskData, model: &[f64]) -> f64 {
        let n = data.examples().max(1) as f64;
        let mut loss = 0.0;
        for i in 0..data.examples() {
            let residual = row_margin_slice(data, i, model) - data.labels[i];
            loss += residual * residual;
        }
        let reg_term: f64 = model.iter().map(|w| w * w).sum::<f64>() * self.reg / 2.0;
        loss / (2.0 * n) + reg_term
    }

    fn row_step(&self, data: &TaskData, i: usize, model: &AtomicModel, step: f64) {
        let residual = row_margin(data, i, model) - data.labels[i];
        for (j, v) in data.row(i).iter() {
            let w = model.read(j);
            model.add(j, -step * (residual * v + self.reg * w));
        }
    }

    fn col_step(&self, data: &TaskData, j: usize, model: &AtomicModel, step: f64) {
        // Column-to-row coordinate step with a per-coordinate Lipschitz
        // normalization (Σᵢ a_ij²), which is the standard SCD step for
        // quadratic losses and gives near-exact coordinate minimization when
        // `step` is 1.
        let col = data.col(j);
        if col.nnz() == 0 {
            return;
        }
        let mut grad = 0.0;
        let mut curvature = 0.0;
        for (i, a_ij) in col.iter() {
            let residual = row_margin(data, i, model) - data.labels[i];
            grad += residual * a_ij;
            curvature += a_ij * a_ij;
        }
        let n = data.examples() as f64;
        grad = grad / n + self.reg * model.read(j);
        let denominator = curvature / n + self.reg;
        if denominator > 0.0 {
            model.add(j, -step * grad / denominator);
        }
    }

    fn row_update_density(&self) -> UpdateDensity {
        UpdateDensity::Sparse
    }

    fn default_step(&self) -> f64 {
        0.05
    }

    fn default_step_for(&self, data: &TaskData) -> f64 {
        // Per-example SGD on squared loss is stable only for step < 2/‖aᵢ‖²,
        // and the paper's LS datasets (Music, Forest) are dense with 54–91
        // unit-variance features, putting the threshold near 0.02.  Cap the
        // default at half the mean-row-norm stability bound.
        let rows = data.examples();
        if rows == 0 {
            return self.default_step();
        }
        let mean_sq_norm: f64 = (0..rows)
            .map(|i| data.row(i).values.iter().map(|v| v * v).sum::<f64>())
            .sum::<f64>()
            / rows as f64;
        if mean_sq_norm <= 0.0 {
            return self.default_step();
        }
        self.default_step().min(1.0 / mean_sq_norm)
    }

    fn default_col_step(&self) -> f64 {
        // The coordinate step is Σᵢa_ij²-normalized (near-exact coordinate
        // minimization), so the natural step is 1.
        1.0
    }

    fn step_decay(&self) -> f64 {
        0.9
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;
    use crate::model::AtomicModel;

    #[test]
    fn loss_of_exact_solution_is_zero() {
        let data = tiny_regression();
        let obj = LeastSquares::new(0.0);
        let loss = obj.full_loss(&data, &[1.0, 2.0]);
        assert!(loss < 1e-12);
    }

    #[test]
    fn row_steps_approach_exact_solution() {
        let data = tiny_regression();
        let obj = LeastSquares::new(0.0);
        let model = AtomicModel::zeros(2);
        let mut step = 0.2;
        for _ in 0..200 {
            for i in 0..data.examples() {
                obj.row_step(&data, i, &model, step);
            }
            step *= 0.99;
        }
        let snapshot = model.snapshot();
        assert!((snapshot[0] - 1.0).abs() < 0.1, "x0 = {}", snapshot[0]);
        assert!((snapshot[1] - 2.0).abs() < 0.1, "x1 = {}", snapshot[1]);
    }

    #[test]
    fn col_steps_converge_fast_on_quadratic() {
        // Near-exact coordinate minimization needs only a handful of epochs.
        let data = tiny_regression();
        let obj = LeastSquares::new(0.0);
        let model = AtomicModel::zeros(2);
        for _ in 0..20 {
            for j in 0..data.dim() {
                obj.col_step(&data, j, &model, 1.0);
            }
        }
        let loss = obj.full_loss(&data, &model.snapshot());
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn row_and_col_helpers_reduce_loss() {
        let data = tiny_regression();
        let obj = LeastSquares::default();
        let start = obj.full_loss(&data, &vec![0.0; data.dim()]);
        assert!(run_row_epochs(&obj, &data, 50) < 0.2 * start);
        assert!(run_col_epochs(&obj, &data, 50) < 0.2 * start);
    }

    #[test]
    fn empty_column_is_ignored() {
        // Column 2 exists in a 3-wide matrix but has no entries.
        let rows = vec![dw_matrix::SparseVector::from_parts(vec![0], vec![1.0])];
        let matrix = dw_matrix::CsrMatrix::from_sparse_rows(3, &rows).unwrap();
        let data = TaskData::supervised(matrix, vec![1.0]);
        let obj = LeastSquares::default();
        let model = AtomicModel::zeros(3);
        obj.col_step(&data, 2, &model, 1.0);
        assert_eq!(model.read(2), 0.0);
    }
}
