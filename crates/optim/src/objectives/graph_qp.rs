//! Quadratic program on a graph (Laplacian smoothing / label propagation).
//!
//! The paper's QP workload is network analysis on the Amazon and Google
//! graphs.  We use the canonical graph QP: anchor every vertex to a prior
//! score `c_j` and smooth along edges,
//!
//! `F(x) = (1/2) Σ_{(u,v)∈E} (x_u - x_v)² + (μ/2) Σ_j (x_j - c_j)²`
//!
//! which is strongly convex with a unique minimizer.  The column-to-row
//! update performs exact coordinate minimization
//! `x_j ← (μ·c_j + Σ_{k∈N(j)} x_k) / (μ + deg_j)`, which is why the
//! column-wise plan needs roughly an order of magnitude fewer epochs than
//! per-edge SGD — the behaviour behind Figure 12's LP/QP panels.

use super::{Objective, UpdateDensity};
use crate::model::AtomicModel;
use crate::task::TaskData;

/// Graph-Laplacian QP with per-vertex anchors.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GraphQp {
    /// Anchor strength μ.
    pub anchor: f64,
}

impl Default for GraphQp {
    fn default() -> Self {
        GraphQp { anchor: 0.5 }
    }
}

impl GraphQp {
    /// Create a QP objective with the given anchor strength.
    pub fn new(anchor: f64) -> Self {
        GraphQp { anchor }
    }

    /// The other endpoint of edge `i` relative to vertex `j`, with its value.
    fn other_endpoint(data: &TaskData, i: usize, j: usize) -> Option<usize> {
        data.row(i).iter().map(|(k, _)| k).find(|&k| k != j)
    }
}

impl Objective for GraphQp {
    fn name(&self) -> &'static str {
        "qp"
    }

    fn full_loss(&self, data: &TaskData, model: &[f64]) -> f64 {
        let n = data.examples().max(1) as f64;
        let mut smoothness = 0.0;
        for i in 0..data.examples() {
            let endpoints: Vec<usize> = data.row(i).iter().map(|(j, _)| j).collect();
            if endpoints.len() == 2 {
                let diff = model[endpoints[0]] - model[endpoints[1]];
                smoothness += diff * diff;
            }
        }
        let mut anchor_term = 0.0;
        for (j, &c) in data.costs.iter().enumerate() {
            let diff = model[j] - c;
            anchor_term += diff * diff;
        }
        (0.5 * smoothness + 0.5 * self.anchor * anchor_term) / n
    }

    fn row_step(&self, data: &TaskData, i: usize, model: &AtomicModel, step: f64) {
        let endpoints: Vec<usize> = data.row(i).iter().map(|(j, _)| j).collect();
        if endpoints.len() != 2 {
            return;
        }
        let (u, v) = (endpoints[0], endpoints[1]);
        let xu = model.read(u);
        let xv = model.read(v);
        let diff = xu - xv;
        // Per-edge share of the anchor gradient: μ(x_j - c_j)/deg_j.
        let degree_u = data.col_nnz(u).max(1) as f64;
        let degree_v = data.col_nnz(v).max(1) as f64;
        model.add(
            u,
            -step * (diff + self.anchor * (xu - data.costs[u]) / degree_u),
        );
        model.add(
            v,
            -step * (-diff + self.anchor * (xv - data.costs[v]) / degree_v),
        );
    }

    fn col_step(&self, data: &TaskData, j: usize, model: &AtomicModel, step: f64) {
        // Exact coordinate minimization (damped by `step`, exact at step=1).
        let col = data.col(j);
        let degree = col.nnz() as f64;
        let mut neighbor_sum = 0.0;
        for (i, _) in col.iter() {
            if let Some(k) = Self::other_endpoint(data, i, j) {
                neighbor_sum += model.read(k);
            }
        }
        let target = (self.anchor * data.costs[j] + neighbor_sum) / (self.anchor + degree);
        let current = model.read(j);
        model.write(j, current + step * (target - current));
    }

    fn row_update_density(&self) -> UpdateDensity {
        UpdateDensity::Sparse
    }

    fn default_step(&self) -> f64 {
        0.2
    }

    fn step_decay(&self) -> f64 {
        0.95
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;
    use crate::model::AtomicModel;

    #[test]
    fn loss_at_anchor_free_minimum() {
        let data = tiny_graph();
        let obj = GraphQp::new(0.5);
        // Constant vectors have zero smoothness; anchors pull toward costs.
        let constant = vec![0.75; 4];
        let loss = obj.full_loss(&data, &constant);
        assert!(loss > 0.0);
        // The anchor vector itself has zero anchor penalty but non-zero
        // smoothness on the path graph (costs are 1, 0.5, 0.5, 1).
        let anchors = data.costs.clone();
        let anchor_loss = obj.full_loss(&data, &anchors);
        assert!(anchor_loss > 0.0);
    }

    #[test]
    fn col_steps_reach_near_optimum_quickly() {
        let data = tiny_graph();
        let obj = GraphQp::default();
        let model = AtomicModel::zeros(4);
        for _ in 0..50 {
            for j in 0..data.dim() {
                obj.col_step(&data, j, &model, 1.0);
            }
        }
        let fast = obj.full_loss(&data, &model.snapshot());
        // Row SGD from zero with the same epoch budget should not be better.
        let slow = run_row_epochs(&obj, &data, 50);
        assert!(fast <= slow + 1e-9, "col {fast} vs row {slow}");
    }

    #[test]
    fn row_and_col_steps_reduce_loss() {
        let data = tiny_graph();
        let obj = GraphQp::default();
        let start = obj.full_loss(&data, &[0.0; 4]);
        assert!(run_row_epochs(&obj, &data, 80) < 0.8 * start);
        assert!(run_col_epochs(&obj, &data, 80) < 0.8 * start);
    }

    #[test]
    fn exact_coordinate_step_is_fixed_point_at_optimum() {
        // Solve the tiny QP by long coordinate descent; a further exact
        // coordinate step must not move the solution.
        let data = tiny_graph();
        let obj = GraphQp::default();
        let model = AtomicModel::zeros(4);
        for _ in 0..500 {
            for j in 0..data.dim() {
                obj.col_step(&data, j, &model, 1.0);
            }
        }
        let before = model.snapshot();
        for j in 0..data.dim() {
            obj.col_step(&data, j, &model, 1.0);
        }
        let after = model.snapshot();
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn row_step_ignores_degenerate_rows() {
        // A row with a single endpoint (self-loop-like) is skipped.
        let rows = vec![dw_matrix::SparseVector::from_parts(vec![0], vec![1.0])];
        let matrix = dw_matrix::CsrMatrix::from_sparse_rows(2, &rows).unwrap();
        let data = TaskData::graph(matrix, vec![1.0, 1.0]);
        let obj = GraphQp::default();
        let model = AtomicModel::zeros(2);
        obj.row_step(&data, 0, &model, 0.5);
        assert_eq!(model.snapshot(), vec![0.0, 0.0]);
    }
}
