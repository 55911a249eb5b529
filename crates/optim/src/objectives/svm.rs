//! Support vector machine (hinge loss with L2 regularization).

use super::{row_margin, row_margin_slice, Objective, UpdateDensity};
use crate::model::AtomicModel;
use crate::task::TaskData;

/// `F(x) = (1/N) Σᵢ max(0, 1 - yᵢ·(aᵢ·x)) + (reg/2)‖x‖²`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SvmHinge {
    /// L2 regularization strength.
    pub reg: f64,
}

impl Default for SvmHinge {
    fn default() -> Self {
        SvmHinge { reg: 1e-4 }
    }
}

impl SvmHinge {
    /// Create an SVM objective with the given regularization strength.
    pub fn new(reg: f64) -> Self {
        SvmHinge { reg }
    }
}

impl Objective for SvmHinge {
    fn name(&self) -> &'static str {
        "svm"
    }

    fn full_loss(&self, data: &TaskData, model: &[f64]) -> f64 {
        let n = data.examples().max(1) as f64;
        let mut hinge = 0.0;
        for i in 0..data.examples() {
            let margin = data.labels[i] * row_margin_slice(data, i, model);
            hinge += (1.0 - margin).max(0.0);
        }
        let reg_term: f64 = model.iter().map(|w| w * w).sum::<f64>() * self.reg / 2.0;
        hinge / n + reg_term
    }

    fn row_step(&self, data: &TaskData, i: usize, model: &AtomicModel, step: f64) {
        let y = data.labels[i];
        let margin = y * row_margin(data, i, model);
        let row = data.row(i);
        if margin < 1.0 {
            // Sub-gradient of the hinge plus the regularizer restricted to the
            // example's support — the "sparse update" of Section 3.2.
            for (j, v) in row.iter() {
                let w = model.read(j);
                model.add(j, step * (y * v - self.reg * w));
            }
        } else {
            // Only shrink the touched coordinates (lazily-applied regularizer).
            for (j, _) in row.iter() {
                let w = model.read(j);
                model.add(j, -step * self.reg * w);
            }
        }
    }

    fn col_step(&self, data: &TaskData, j: usize, model: &AtomicModel, step: f64) {
        // Column-to-row access: read every example in S(j), accumulate the
        // coordinate sub-gradient, and write only x_j.
        let col = data.col(j);
        if col.nnz() == 0 {
            return;
        }
        let n = data.examples() as f64;
        let mut grad = 0.0;
        for (i, a_ij) in col.iter() {
            let y = data.labels[i];
            let margin = y * row_margin(data, i, model);
            if margin < 1.0 {
                grad += -y * a_ij;
            }
        }
        grad = grad / n + self.reg * model.read(j);
        // Coordinate steps see the full coordinate gradient once per epoch, so
        // scale the step up by N relative to the per-example SGD step to keep
        // the two access methods statistically comparable (Figure 7(a)).
        model.add(j, -step * grad * (n / col.nnz() as f64).max(1.0));
    }

    fn row_update_density(&self) -> UpdateDensity {
        UpdateDensity::Sparse
    }

    fn default_step(&self) -> f64 {
        0.1
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;
    use crate::model::AtomicModel;

    #[test]
    fn loss_at_zero_model_is_one() {
        let data = tiny_classification();
        let obj = SvmHinge::default();
        let loss = obj.full_loss(&data, &vec![0.0; data.dim()]);
        assert!((loss - 1.0).abs() < 1e-12);
    }

    #[test]
    fn row_steps_reduce_loss() {
        let data = tiny_classification();
        let obj = SvmHinge::default();
        let start = obj.full_loss(&data, &vec![0.0; data.dim()]);
        let end = run_row_epochs(&obj, &data, 30);
        assert!(
            end < 0.5 * start,
            "loss {end} should drop well below {start}"
        );
    }

    #[test]
    fn col_steps_reduce_loss() {
        let data = tiny_classification();
        let obj = SvmHinge::default();
        let start = obj.full_loss(&data, &vec![0.0; data.dim()]);
        let end = run_col_epochs(&obj, &data, 30);
        assert!(
            end < 0.5 * start,
            "loss {end} should drop well below {start}"
        );
    }

    #[test]
    fn row_update_is_sparse() {
        let data = tiny_classification();
        let obj = SvmHinge::default();
        let model = AtomicModel::zeros(data.dim());
        // Row 0 touches coordinates 0 and 1 only.
        obj.row_step(&data, 0, &model, 0.1);
        assert_ne!(model.read(0), 0.0);
        assert_ne!(model.read(1), 0.0);
        assert_eq!(model.read(2), 0.0);
        assert_eq!(obj.row_update_density(), UpdateDensity::Sparse);
    }

    #[test]
    fn col_step_touches_single_coordinate() {
        let data = tiny_classification();
        let obj = SvmHinge::default();
        let model = AtomicModel::zeros(data.dim());
        obj.col_step(&data, 1, &model, 0.1);
        assert_eq!(model.read(0), 0.0);
        assert_ne!(model.read(1), 0.0);
        assert_eq!(model.read(2), 0.0);
    }

    #[test]
    fn correctly_classified_example_only_regularizes() {
        let data = tiny_classification();
        let obj = SvmHinge::new(0.0);
        // A model that classifies row 0 with a large margin.
        let model = AtomicModel::from_vec(&[5.0, 5.0, 0.0]);
        let before = model.snapshot();
        obj.row_step(&data, 0, &model, 0.1);
        assert_eq!(
            model.snapshot(),
            before,
            "no update when margin >= 1 and reg = 0"
        );
    }

    #[test]
    fn regularization_increases_loss_of_nonzero_model() {
        let data = tiny_classification();
        let weak = SvmHinge::new(0.0);
        let strong = SvmHinge::new(1.0);
        let model = vec![1.0, -1.0, 0.5];
        assert!(strong.full_loss(&data, &model) > weak.full_loss(&data, &model));
    }
}
