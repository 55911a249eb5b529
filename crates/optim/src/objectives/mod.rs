//! The five statistical models of the paper's evaluation.
//!
//! Each model implements [`Objective`], which packages the paper's *model
//! specification*: a row-wise update `f_row` (used by SGD-style execution)
//! and a column-to-row update `f_col`/`f_ctr` (used by SCD-style execution),
//! both mutating a model replica — a concrete [`AtomicModel`], whatever the
//! replication strategy, so the per-nonzero `read`/`add` inline into the
//! update loops — plus the full loss used to measure distance to the
//! optimum.
//!
//! | Model | Objective | Row update | Column update |
//! |-------|-----------|------------|----------------|
//! | SVM   | hinge + L2 | per-example subgradient (sparse) | per-coordinate subgradient |
//! | LR    | logistic + L2 | per-example gradient (sparse) | per-coordinate gradient |
//! | LS    | squared loss + L2 | per-example gradient (sparse) | per-coordinate exact-ish step |
//! | LP    | vertex-cover relaxation penalty | per-edge subgradient | per-vertex subgradient |
//! | QP    | graph Laplacian + anchors | per-edge gradient | per-vertex exact minimization |

mod graph_lp;
mod graph_qp;
mod least_squares;
mod logistic;
mod svm;

pub use graph_lp::GraphLp;
pub use graph_qp::GraphQp;
pub use least_squares::LeastSquares;
pub use logistic::Logistic;
pub use svm::SvmHinge;

use crate::model::AtomicModel;
use crate::task::TaskData;
use dw_matrix::{dot_sparse_dense, SparseVector};

/// Whether a row-wise gradient step writes only the coordinates where the
/// example is non-zero (sparse update) or the whole model (dense update).
///
/// Section 3.2: "for models such as SVM, each gradient step in row-wise
/// access only updates the coordinates where the input vector contains
/// non-zero elements.  We call this scenario a sparse update."  The
/// cost-based optimizer charges `Σᵢ nᵢ` writes for sparse updates and `d·N`
/// for dense ones (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum UpdateDensity {
    /// Row steps touch only the example's non-zero coordinates.
    Sparse,
    /// Row steps touch every model coordinate.
    Dense,
}

/// A statistical model expressed as first-order update functions.
pub trait Objective: Send + Sync {
    /// Short name used in reports ("svm", "lr", ...).
    fn name(&self) -> &'static str;

    /// Objective value of `model` on the full dataset (the paper's "loss").
    fn full_loss(&self, data: &TaskData, model: &[f64]) -> f64;

    /// `f_row`: process example `i`, updating the model in place.
    fn row_step(&self, data: &TaskData, i: usize, model: &AtomicModel, step: f64);

    /// `f_col` / `f_ctr`: process coordinate `j`, updating `model[j]` only.
    ///
    /// Implementations read the rows in `S(j)` (column-to-row access) and
    /// write a single coordinate, matching the access-pattern contract of
    /// Section 3.1.
    fn col_step(&self, data: &TaskData, j: usize, model: &AtomicModel, step: f64);

    /// Density of the row-wise update (drives the Figure 6 write cost).
    fn row_update_density(&self) -> UpdateDensity {
        UpdateDensity::Sparse
    }

    /// Reasonable default step size for this objective.
    fn default_step(&self) -> f64 {
        0.1
    }

    /// Default step size calibrated to `data`.
    ///
    /// Most objectives just use [`Objective::default_step`]; objectives
    /// whose stability threshold depends on the data scale (least squares:
    /// step < 2/‖aᵢ‖²) override this, and the engine and reference solver
    /// call it whenever no explicit step is configured.
    fn default_step_for(&self, data: &TaskData) -> f64 {
        let _ = data;
        self.default_step()
    }

    /// Default step size for the column-to-row (SCD) update.
    ///
    /// Coordinate steps are usually Lipschitz-normalized (see the quadratic
    /// objectives), so their natural step is 1.0-ish even when the SGD step
    /// must be small; objectives where the two differ override this.
    fn default_col_step(&self) -> f64 {
        self.default_step()
    }

    /// Per-epoch multiplicative step-size decay.
    fn step_decay(&self) -> f64 {
        0.95
    }

    /// Score one input against an immutable model snapshot — the read-only
    /// serving entry point.
    ///
    /// Unlike every other method here, this neither reads [`TaskData`] nor
    /// mutates a model: a `Predictor` holds a published snapshot (a plain
    /// slice) and evaluates fresh inputs against it while training
    /// continues elsewhere.  The default is the raw prediction margin
    /// `input · model`; objectives with a natural probabilistic output
    /// (logistic regression) override it with their link function.
    fn score(&self, input: &SparseVector, model: &[f64]) -> f64 {
        dot_sparse_dense(input, model)
    }
}

/// Compute the prediction margin `a_i · x` of one CSR row against a live
/// model replica: one accumulator, strictly in index order (the association
/// every interleaved trace hash pins).
#[inline]
pub(crate) fn row_margin(data: &TaskData, i: usize, model: &AtomicModel) -> f64 {
    let mut margin = 0.0;
    for (j, v) in data.row(i).iter() {
        margin += v * model.read(j);
    }
    margin
}

/// Compute the prediction margin against a plain slice snapshot, routed
/// through the task's kernel selector so the plan's accumulator width and
/// index encoding apply on this hot path.
pub(crate) fn row_margin_slice(data: &TaskData, i: usize, model: &[f64]) -> f64 {
    data.row_dot(i, model)
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::model::AtomicModel;
    use crate::task::TaskData;
    use dw_matrix::{CsrMatrix, SparseVector};

    /// A tiny linearly-separable binary classification problem.
    pub fn tiny_classification() -> TaskData {
        let rows = vec![
            SparseVector::from_parts(vec![0, 1], vec![1.0, 0.5]),
            SparseVector::from_parts(vec![0, 2], vec![0.8, 1.0]),
            SparseVector::from_parts(vec![1, 2], vec![-1.0, -0.6]),
            SparseVector::from_parts(vec![0, 1, 2], vec![-0.9, -0.4, -1.0]),
        ];
        let matrix = CsrMatrix::from_sparse_rows(3, &rows).unwrap();
        TaskData::supervised(matrix, vec![1.0, 1.0, -1.0, -1.0])
    }

    /// A tiny regression problem with an exact solution.
    pub fn tiny_regression() -> TaskData {
        let rows = vec![
            SparseVector::from_parts(vec![0], vec![1.0]),
            SparseVector::from_parts(vec![1], vec![2.0]),
            SparseVector::from_parts(vec![0, 1], vec![1.0, 1.0]),
        ];
        let matrix = CsrMatrix::from_sparse_rows(2, &rows).unwrap();
        // Consistent with x = [1, 2]: labels 1, 4, 3.
        TaskData::supervised(matrix, vec![1.0, 4.0, 3.0])
    }

    /// A 4-vertex path graph for LP / QP tests.
    pub fn tiny_graph() -> TaskData {
        let rows = vec![
            SparseVector::from_parts(vec![0, 1], vec![1.0, 1.0]),
            SparseVector::from_parts(vec![1, 2], vec![1.0, 1.0]),
            SparseVector::from_parts(vec![2, 3], vec![1.0, 1.0]),
        ];
        let matrix = CsrMatrix::from_sparse_rows(4, &rows).unwrap();
        TaskData::graph(matrix, vec![1.0, 0.5, 0.5, 1.0])
    }

    /// Run `epochs` sequential row-wise epochs and return the final loss.
    pub fn run_row_epochs(obj: &dyn Objective, data: &TaskData, epochs: usize) -> f64 {
        let model = AtomicModel::zeros(data.dim());
        let mut step = obj.default_step();
        for _ in 0..epochs {
            for i in 0..data.examples() {
                obj.row_step(data, i, &model, step);
            }
            step *= obj.step_decay();
        }
        obj.full_loss(data, &model.snapshot())
    }

    /// Run `epochs` sequential column-wise epochs and return the final loss.
    pub fn run_col_epochs(obj: &dyn Objective, data: &TaskData, epochs: usize) -> f64 {
        let model = AtomicModel::zeros(data.dim());
        let mut step = obj.default_col_step();
        for _ in 0..epochs {
            for j in 0..data.dim() {
                obj.col_step(data, j, &model, step);
            }
            step *= obj.step_decay();
        }
        obj.full_loss(data, &model.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use crate::model::AtomicModel;

    #[test]
    fn margins_agree_between_access_paths() {
        let data = tiny_classification();
        let model = AtomicModel::from_vec(&[0.5, -1.0, 2.0]);
        let snapshot = model.snapshot();
        for i in 0..data.examples() {
            let a = row_margin(&data, i, &model);
            let b = row_margin_slice(&data, i, &snapshot);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn score_defaults_to_the_margin_and_logistic_calibrates_it() {
        let model = vec![0.5, -1.0, 2.0];
        let input = SparseVector::from_parts(vec![0, 2], vec![2.0, 1.0]);
        let margin = 2.0 * 0.5 + 1.0 * 2.0;
        assert_eq!(SvmHinge::default().score(&input, &model), margin);
        assert_eq!(LeastSquares::default().score(&input, &model), margin);
        // Logistic maps the same margin through the sigmoid link.
        let p = Logistic::default().score(&input, &model);
        assert!(p > 0.5 && p < 1.0, "positive margin scores above 0.5: {p}");
        let zero = Logistic::default().score(&input, &[0.0; 3]);
        assert_eq!(zero, 0.5);
    }

    #[test]
    fn all_objectives_report_names_and_densities() {
        let objs: Vec<Box<dyn Objective>> = vec![
            Box::new(SvmHinge::default()),
            Box::new(Logistic::default()),
            Box::new(LeastSquares::default()),
            Box::new(GraphLp::default()),
            Box::new(GraphQp::default()),
        ];
        let names: Vec<&str> = objs.iter().map(|o| o.name()).collect();
        assert_eq!(names, vec!["svm", "lr", "ls", "lp", "qp"]);
        for o in &objs {
            assert!(o.default_step() > 0.0);
            assert!(o.step_decay() > 0.0 && o.step_decay() <= 1.0);
        }
    }
}
