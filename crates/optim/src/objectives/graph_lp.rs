//! Linear-programming relaxation on a graph (vertex-cover style).
//!
//! The paper's LP workload is the approximate LP solver of Sridhar et al.
//! applied to network analysis on the Amazon and Google graphs.  We use the
//! canonical instance of that family: the vertex-cover LP relaxation
//!
//! `min Σ_j c_j x_j  s.t.  x_u + x_v ≥ 1 ∀(u,v) ∈ E,  x ∈ [0,1]^d`
//!
//! solved through the penalty objective
//!
//! `F(x) = Σ_j c_j x_j + λ Σ_{(u,v)∈E} max(0, 1 - x_u - x_v)`
//!
//! with the box constraint enforced by clamping after every update.  The
//! data matrix is the edge-incidence matrix (one row per edge, two non-zeros
//! per row), which is why the cost-based optimizer picks column-wise access
//! for this model (Figure 14).

use super::{Objective, UpdateDensity};
use crate::model::AtomicModel;
use crate::task::TaskData;

/// Penalty formulation of the vertex-cover LP relaxation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GraphLp {
    /// Weight of the constraint-violation penalty.
    pub penalty: f64,
}

impl Default for GraphLp {
    fn default() -> Self {
        GraphLp { penalty: 4.0 }
    }
}

impl GraphLp {
    /// Create an LP objective with the given penalty weight.
    pub fn new(penalty: f64) -> Self {
        GraphLp { penalty }
    }

    fn clamp01(value: f64) -> f64 {
        value.clamp(0.0, 1.0)
    }
}

impl Objective for GraphLp {
    fn name(&self) -> &'static str {
        "lp"
    }

    fn full_loss(&self, data: &TaskData, model: &[f64]) -> f64 {
        let n = data.examples().max(1) as f64;
        let mut cost = 0.0;
        for (j, &c) in data.costs.iter().enumerate() {
            cost += c * model[j].clamp(0.0, 1.0);
        }
        let mut violation = 0.0;
        for i in 0..data.examples() {
            let sum: f64 = data
                .row(i)
                .iter()
                .map(|(j, _)| model[j].clamp(0.0, 1.0))
                .sum();
            violation += (1.0 - sum).max(0.0);
        }
        (cost + self.penalty * violation) / n
    }

    fn row_step(&self, data: &TaskData, i: usize, model: &AtomicModel, step: f64) {
        // Sub-gradient of the per-edge penalty plus this edge's share of the
        // vertex-cost term (c_j / deg_j so that one epoch applies the full
        // cost gradient).
        let row = data.row(i);
        let sum: f64 = row.iter().map(|(j, _)| model.read(j)).sum();
        let violated = sum < 1.0;
        for (j, _) in row.iter() {
            let degree = data.col_nnz(j).max(1) as f64;
            let mut gradient = data.costs[j] / degree;
            if violated {
                gradient -= self.penalty;
            }
            let updated = Self::clamp01(model.read(j) - step * gradient);
            model.write(j, updated);
        }
    }

    fn col_step(&self, data: &TaskData, j: usize, model: &AtomicModel, step: f64) {
        // Column-to-row access: read the incident edges (rows of S(j)) and
        // their other endpoints, then update only x_j.
        let col = data.col(j);
        let mut gradient = data.costs[j];
        for (i, _) in col.iter() {
            let sum: f64 = data.row(i).iter().map(|(k, _)| model.read(k)).sum();
            if sum < 1.0 {
                gradient -= self.penalty;
            }
        }
        let updated = Self::clamp01(model.read(j) - step * gradient);
        model.write(j, updated);
    }

    fn row_update_density(&self) -> UpdateDensity {
        UpdateDensity::Sparse
    }

    fn default_step(&self) -> f64 {
        0.05
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
    fn loss_at_zero_is_full_violation() {
        let data = tiny_graph();
        let obj = GraphLp::new(4.0);
        // 3 edges all violated, no cost: 3 * 4 / 3 edges = 4.
        let loss = obj.full_loss(&data, &[0.0; 4]);
        assert!((loss - 4.0).abs() < 1e-12);
    }

    #[test]
    fn feasible_cover_has_cost_only() {
        let data = tiny_graph();
        let obj = GraphLp::new(4.0);
        // x = 1 on vertices 1 and 2 covers all path edges.
        let loss = obj.full_loss(&data, &[0.0, 1.0, 1.0, 0.0]);
        assert!((loss - (0.5 + 0.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn row_steps_find_near_feasible_solution() {
        let data = tiny_graph();
        let obj = GraphLp::default();
        let end = run_row_epochs(&obj, &data, 100);
        let start = obj.full_loss(&data, &[0.0; 4]);
        assert!(end < 0.4 * start, "loss {end} vs start {start}");
    }

    #[test]
    fn col_steps_find_near_feasible_solution() {
        let data = tiny_graph();
        let obj = GraphLp::default();
        let end = run_col_epochs(&obj, &data, 100);
        let start = obj.full_loss(&data, &[0.0; 4]);
        assert!(end < 0.4 * start, "loss {end} vs start {start}");
    }

    #[test]
    fn iterates_stay_in_box() {
        let data = tiny_graph();
        let obj = GraphLp::default();
        let model = AtomicModel::zeros(4);
        for epoch in 0..20 {
            for i in 0..data.examples() {
                obj.row_step(&data, i, &model, 0.5);
            }
            for j in 0..data.dim() {
                obj.col_step(&data, j, &model, 0.5);
            }
            for j in 0..data.dim() {
                let x = model.read(j);
                assert!((0.0..=1.0).contains(&x), "epoch {epoch} coord {j}: {x}");
            }
        }
    }

    #[test]
    fn col_step_writes_single_coordinate() {
        let data = tiny_graph();
        let obj = GraphLp::default();
        let model = AtomicModel::zeros(4);
        obj.col_step(&data, 1, &model, 0.1);
        assert_eq!(model.read(0), 0.0);
        assert!(model.read(1) > 0.0);
        assert_eq!(model.read(2), 0.0);
        assert_eq!(model.read(3), 0.0);
    }
}
