//! Workload definitions: frozen constants and seeded input generation.
//!
//! Steps, target margins and loss ceilings are constants of the workload
//! definition, not engine defaults.  They were picked once on the parent
//! commit (seeds 1-5, 7, 11) from `paper_step_grid()`; see README.md for the
//! probes behind them.

use dimmwitted::{AnalyticsTask, ModelKind, Optimizer};
use dw_data::generators::{
    dense_regression, graph_edges, sparse_classification, sparse_classification_into,
};
use dw_data::TripletSink;
use dw_matrix::{CooMatrix, DataMatrix, FileBackedSource, SpillWriter};
use dw_numa::MachineTopology;
use dw_optim::TaskData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// LLC of the modelled machine, MiB.  Frozen (not probed) so `plan_auto`
/// chooses the same plan on every host with the same worker count.
const MODEL_LLC_MB: usize = 4;

/// The machine every workload plans against: two locality groups of
/// `workers / 2` cores, so `plan_auto` yields exactly `workers` workers.  (On
/// the `local2` preset it would ask for 12 — six-fold oversubscription on a
/// 2-core host.)
pub fn machine(workers: usize) -> MachineTopology {
    if workers < 2 {
        MachineTopology::custom("bench", 1, 1, MODEL_LLC_MB)
    } else {
        MachineTopology::custom("bench", 2, workers / 2, MODEL_LLC_MB)
    }
}

/// A training workload's frozen definition.
pub struct TrainSpec {
    pub name: &'static str,
    pub model: ModelKind,
    /// Initial step size, from `paper_step_grid()`.
    pub step: f64,
    /// The loss target is the loss the deterministic interleaved run reaches
    /// after [`REFERENCE_EPOCHS`] epochs, times `1 + target_margin`.
    pub target_margin: f64,
    /// Output check: final loss ≤ `loss_ceiling` × initial loss.
    pub loss_ceiling: f64,
    /// Explicit Hogwild! plan instead of `plan_auto()`.
    pub hogwild: bool,
    /// Input lives in a page file and the session runs under a memory
    /// budget with a layout file.
    pub coldstart: bool,
    shape: Shape,
}

/// Epochs of the deterministic reference run (trace hash + loss target).
/// Five, not fewer: the threaded run trails the interleaved one by a
/// seed-dependent fraction of an epoch and a stream's first epochs are its
/// noisiest, so a three-epoch `time_to_loss_s` spread 11 % between seeds.
pub const REFERENCE_EPOCHS: usize = 5;

#[derive(Clone, Copy)]
enum Shape {
    /// `sparse_classification(rows, cols, nnz_per_row, 0.05, seed)`
    Sparse(usize, usize, usize),
    /// `dense_regression(rows, cols, 0.1, false, seed)`
    Dense(usize, usize),
    /// `graph_edges(vertices, edges, seed)`
    Graph(usize, usize),
}

const RCV1_SHAPE: Shape = Shape::Sparse(120_000, 47_000, 77);

/// A graph input is this many independent preferential-attachment
/// communities side by side.  One `graph_edges` instance has a few hubs
/// whose size swings with the seed, and with them the epoch time (±10 %
/// between seeds against ±3.5 % between runs of one seed); eight of them
/// average that out, so a seed is a perturbation rather than a new workload.
///
/// The graph has 24 000 vertices, not the 300 000 first sized.  `col_step`
/// gathers the model at random, so the epoch time follows where the model
/// and cost vectors live: 0.10 s at 24 000 vertices (2 × 0.19 MB, a tenth of
/// the reference host's 2 MiB per-core L2), 0.12 s or 0.16 s at 100 000
/// (2 × 0.8 MB: whole sessions flip between the two with their page
/// placement, and ten runs of the same code spread 45 % on the checking
/// host), 0.17-0.26 s at 400 000 (in the L3 the host shares with its
/// neighbours: 16 % spread).  Inside the private L2 it is steady (3 %).
const GRAPH_COMMUNITIES: usize = 8;

pub const TRAINING: &[TrainSpec] = &[
    TrainSpec {
        name: "svm_sparse_auto",
        model: ModelKind::Svm,
        step: 0.001,
        target_margin: 0.0,
        loss_ceiling: 0.5,
        hogwild: false,
        coldstart: false,
        shape: RCV1_SHAPE,
    },
    TrainSpec {
        name: "svm_sparse_hogwild",
        model: ModelKind::Svm,
        step: 0.001,
        target_margin: 0.0,
        loss_ceiling: 0.5,
        hogwild: true,
        coldstart: false,
        shape: RCV1_SHAPE,
    },
    TrainSpec {
        name: "ls_dense_auto",
        model: ModelKind::Ls,
        step: 0.01,
        // Dense least squares reaches its noise floor inside the first
        // pass and then only shrinks its noise ball with the step decay
        // (1e-4 per epoch against ±2e-4 between threaded runs), so a target
        // at the reference loss would be crossed at a random epoch.  Twice
        // the reference loss is crossed in epoch 1, every time.
        target_margin: 1.0,
        loss_ceiling: 0.01,
        hogwild: false,
        coldstart: false,
        shape: Shape::Dense(150_000, 91),
    },
    TrainSpec {
        name: "qp_graph_col",
        model: ModelKind::Qp,
        step: 1.0,
        target_margin: 0.0,
        loss_ceiling: 0.9,
        hogwild: false,
        coldstart: false,
        shape: Shape::Graph(24_000, 1_500_000),
    },
    TrainSpec {
        name: "svm_sparse_coldstart",
        model: ModelKind::Svm,
        step: 0.001,
        target_margin: 0.0,
        loss_ceiling: 0.5,
        hogwild: false,
        coldstart: true,
        shape: RCV1_SHAPE,
    },
];

/// `serve_cotrain`'s frozen sizes.
pub struct ServeSpec {
    pub rows: usize,
    pub cols: usize,
    pub nnz_per_row: usize,
    pub requests: usize,
    /// Epochs of the serving tenant before its snapshot freezes.
    pub serving_epochs: usize,
    /// Minimum one-in-flight latency probes.
    pub probes: usize,
}

pub const SERVE: ServeSpec = ServeSpec {
    rows: 30_000,
    cols: 20_000,
    nnz_per_row: 40,
    requests: 60_000,
    serving_epochs: 3,
    probes: 3_000,
};

/// Where a training workload's matrix comes from.
pub enum Source {
    /// Resident COO triplets.
    Coo {
        matrix: CooMatrix,
        labels: Vec<f64>,
        costs: Vec<f64>,
    },
    /// A page file on disk, never resident as COO, opened under `budget`
    /// bytes of page cache.
    PageFile {
        path: PathBuf,
        labels: Vec<f64>,
        budget: usize,
    },
}

/// One repetition's private input, ready to be turned into a task inside
/// the timed set-up.
pub enum Prepared {
    Coo(CooMatrix, Vec<f64>, Vec<f64>),
    PageFile(PathBuf, Vec<f64>, usize),
}

impl Source {
    /// Untimed: copy what one repetition consumes.  Layouts cache on the
    /// shared `DataMatrix` handle, so a repeated set-up over a *clone of the
    /// task* would measure a cache hit (0.017 s against 0.64 s); every
    /// repetition therefore builds its `TaskData` from a fresh copy of the
    /// triplets (or re-opens the page file).
    pub fn prepare(&self) -> Prepared {
        match self {
            Source::Coo {
                matrix,
                labels,
                costs,
            } => Prepared::Coo(matrix.clone(), labels.clone(), costs.clone()),
            Source::PageFile {
                path,
                labels,
                budget,
            } => Prepared::PageFile(path.clone(), labels.clone(), *budget),
        }
    }

    pub fn memory_budget(&self) -> Option<usize> {
        match self {
            Source::Coo { .. } => None,
            Source::PageFile { budget, .. } => Some(*budget),
        }
    }

    /// Bytes of the input as handed to the engine.
    pub fn bytes(&self) -> u64 {
        match self {
            Source::Coo { matrix, .. } => (matrix.nnz() * dw_matrix::ENTRY_BYTES) as u64,
            Source::PageFile { path, .. } => std::fs::metadata(path).map_or(0, |m| m.len()),
        }
    }
}

impl Prepared {
    /// Timed (part of set-up): wrap the input as the engine's `TaskData`;
    /// for a page file this opens it and reads its manifest.
    pub fn into_task_data(self) -> TaskData {
        match self {
            Prepared::Coo(matrix, labels, costs) => TaskData::new(matrix, labels, costs),
            Prepared::PageFile(path, labels, budget) => {
                let source = FileBackedSource::open(&path).expect("re-open the input page file");
                TaskData::supervised(DataMatrix::from_source(Arc::new(source), budget), labels)
            }
        }
    }
}

impl TrainSpec {
    pub fn by_name(name: &str) -> Option<&'static TrainSpec> {
        TRAINING.iter().find(|spec| spec.name == name)
    }

    /// Generate the workload's input from `seed`.  `reduced` shrinks it
    /// ~50× for the loop-fidelity test; `dir` receives the page file of a
    /// coldstart workload, whose memory budget is half the layout estimate
    /// of the plan `machine` gets.
    pub fn generate(
        &self,
        seed: u64,
        reduced: bool,
        dir: &Path,
        machine: &MachineTopology,
    ) -> Source {
        let shape = match (self.shape, reduced) {
            (shape, false) => shape,
            (Shape::Sparse(..), true) => Shape::Sparse(3_000, 2_000, 20),
            (Shape::Dense(..), true) => Shape::Dense(2_000, 20),
            (Shape::Graph(..), true) => Shape::Graph(2_000, 8_000),
        };
        match shape {
            Shape::Sparse(rows, cols, nnz_per_row) if self.coldstart => {
                let path = dir.join("input.dwpg");
                let mut writer =
                    SpillWriter::create(&path, rows, cols).expect("create the input page file");
                let (labels, _) =
                    sparse_classification_into(rows, cols, nnz_per_row, 0.05, seed, &mut writer);
                let source = writer.finish().expect("finish the input page file");
                // The plan needs the matrix statistics: one streaming pass,
                // through a small cache so it leaves no heap behind for the
                // sessions to inherit.
                let probe = AnalyticsTask::new(
                    self.name,
                    TaskData::supervised(
                        DataMatrix::from_source(Arc::new(source), 8 << 20),
                        labels.clone(),
                    ),
                    self.model,
                );
                let layout = Optimizer::new(machine.clone()).choose_plan(&probe).layout;
                Source::PageFile {
                    path,
                    labels,
                    budget: layout.estimated_bytes(probe.data.matrix.stats()) / 2,
                }
            }
            Shape::Sparse(rows, cols, nnz_per_row) => {
                let data = sparse_classification(rows, cols, nnz_per_row, 0.05, seed);
                Source::Coo {
                    matrix: data.matrix,
                    labels: data.labels,
                    costs: Vec::new(),
                }
            }
            Shape::Dense(rows, cols) => {
                let data = dense_regression(rows, cols, 0.1, false, seed);
                Source::Coo {
                    matrix: data.matrix,
                    labels: data.labels,
                    costs: Vec::new(),
                }
            }
            Shape::Graph(vertices, edges) => {
                let mut matrix = CooMatrix::new(edges, vertices);
                let mut costs = Vec::with_capacity(vertices);
                let (block_vertices, block_edges) =
                    (vertices / GRAPH_COMMUNITIES, edges / GRAPH_COMMUNITIES);
                for community in 0..GRAPH_COMMUNITIES {
                    let part = graph_edges(
                        block_vertices,
                        block_edges,
                        seed.wrapping_mul(GRAPH_COMMUNITIES as u64)
                            .wrapping_add(community as u64),
                    );
                    for entry in part.incidence.entries() {
                        matrix.push_entry(
                            community * block_edges + entry.row as usize,
                            community * block_vertices + entry.col as usize,
                            entry.value,
                        );
                    }
                    costs.extend(part.vertex_costs);
                }
                Source::Coo {
                    matrix,
                    labels: Vec::new(),
                    costs,
                }
            }
        }
    }
}
