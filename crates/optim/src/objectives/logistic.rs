//! Logistic regression (log loss with L2 regularization).

use super::{row_margin, row_margin_slice, Objective, UpdateDensity};
use crate::model::AtomicModel;
use crate::task::TaskData;

/// `F(x) = (1/N) Σᵢ log(1 + exp(-yᵢ·(aᵢ·x))) + (reg/2)‖x‖²`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Logistic {
    /// L2 regularization strength.
    pub reg: f64,
}

impl Default for Logistic {
    fn default() -> Self {
        Logistic { reg: 1e-4 }
    }
}

impl Logistic {
    /// Create a logistic-regression objective.
    pub fn new(reg: f64) -> Self {
        Logistic { reg }
    }
}

/// Numerically-stable `log(1 + exp(z))`.
fn log1p_exp(z: f64) -> f64 {
    if z > 30.0 {
        z
    } else if z < -30.0 {
        0.0
    } else {
        z.exp().ln_1p()
    }
}

/// Numerically-stable logistic sigmoid.
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Objective for Logistic {
    fn name(&self) -> &'static str {
        "lr"
    }

    fn full_loss(&self, data: &TaskData, model: &[f64]) -> f64 {
        let n = data.examples().max(1) as f64;
        let mut loss = 0.0;
        for i in 0..data.examples() {
            let margin = data.labels[i] * row_margin_slice(data, i, model);
            loss += log1p_exp(-margin);
        }
        let reg_term: f64 = model.iter().map(|w| w * w).sum::<f64>() * self.reg / 2.0;
        loss / n + reg_term
    }

    fn row_step(&self, data: &TaskData, i: usize, model: &AtomicModel, step: f64) {
        let y = data.labels[i];
        let margin = y * row_margin(data, i, model);
        // dL/d(margin) = -sigmoid(-margin); gradient wrt x_j is -y·a_ij·σ(-m).
        let coefficient = y * sigmoid(-margin);
        for (j, v) in data.row(i).iter() {
            let w = model.read(j);
            model.add(j, step * (coefficient * v - self.reg * w));
        }
    }

    fn col_step(&self, data: &TaskData, j: usize, model: &AtomicModel, step: f64) {
        let col = data.col(j);
        if col.nnz() == 0 {
            return;
        }
        let n = data.examples() as f64;
        let mut grad = 0.0;
        for (i, a_ij) in col.iter() {
            let y = data.labels[i];
            let margin = y * row_margin(data, i, model);
            grad += -y * a_ij * sigmoid(-margin);
        }
        grad = grad / n + self.reg * model.read(j);
        model.add(j, -step * grad * (n / col.nnz() as f64).max(1.0));
    }

    fn row_update_density(&self) -> UpdateDensity {
        UpdateDensity::Sparse
    }

    fn default_step(&self) -> f64 {
        0.25
    }

    /// Probability of the positive class: `σ(input · model)` instead of the
    /// raw margin, so serving scores are calibrated in `(0, 1)`.
    fn score(&self, input: &dw_matrix::SparseVector, model: &[f64]) -> f64 {
        sigmoid(dw_matrix::dot_sparse_dense(input, model))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;

    #[test]
    fn loss_at_zero_model_is_log2() {
        let data = tiny_classification();
        let obj = Logistic::default();
        let loss = obj.full_loss(&data, &vec![0.0; data.dim()]);
        assert!((loss - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0 && sigmoid(1000.0) > 0.999);
        assert!(sigmoid(-1000.0) >= 0.0 && sigmoid(-1000.0) < 1e-6);
        assert!(log1p_exp(1000.0).is_finite());
        assert_eq!(log1p_exp(-1000.0), 0.0);
    }

    #[test]
    fn row_and_col_steps_reduce_loss() {
        let data = tiny_classification();
        let obj = Logistic::default();
        let start = obj.full_loss(&data, &vec![0.0; data.dim()]);
        assert!(run_row_epochs(&obj, &data, 40) < 0.6 * start);
        assert!(run_col_epochs(&obj, &data, 40) < 0.6 * start);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let data = tiny_classification();
        let _reg_free = Logistic::new(0.0);
        // Check the row-step direction against a numerical gradient of the
        // single-example loss at a non-trivial model point.
        let base = vec![0.3, -0.2, 0.1];
        let i = 0;
        let eps = 1e-6;
        let single_loss = |m: &[f64]| {
            let margin = data.labels[i] * row_margin_slice(&data, i, m);
            super::log1p_exp(-margin)
        };
        for j in 0..data.dim() {
            let mut plus = base.clone();
            plus[j] += eps;
            let mut minus = base.clone();
            minus[j] -= eps;
            let numerical = (single_loss(&plus) - single_loss(&minus)) / (2.0 * eps);
            // The analytic gradient applied by row_step is -(coefficient * a_ij).
            let margin = data.labels[i] * row_margin_slice(&data, i, &base);
            let coefficient = data.labels[i] * super::sigmoid(-margin);
            let analytic = -coefficient * data.csr().get(i, j);
            assert!(
                (numerical - analytic).abs() < 1e-5,
                "coordinate {j}: numerical {numerical} analytic {analytic}"
            );
        }
    }
}
