//! The lock-free model vector every replica is stored in.
//!
//! Section 2.1 of the paper distinguishes coherent execution (the model is
//! read and written inside a critical section) from the Hogwild! memory
//! model, which "relies on the fact that writes of individual components are
//! atomic, but does not require that the entire vector be updated
//! atomically".  [`AtomicModel`] implements exactly that contract: every
//! component is an `AtomicU64` holding an `f64` bit pattern, reads and
//! writes use relaxed ordering, and there is no lock anywhere.  Concurrent
//! workers may interleave and overwrite each other's updates — that is the
//! point; Niu et al. prove SGD still converges under this model.
//!
//! One concrete type serves every replication strategy: a PerCore replica
//! is an `AtomicModel` touched by one worker, a PerNode replica is shared by
//! the workers of one node, and the PerMachine (Hogwild!) replica is shared
//! by every worker in the machine.  The update functions take `&AtomicModel`
//! directly — there is no trait in between — so `read`/`add`/`write` inline
//! into the per-nonzero loops of `row_step`/`col_step`.  A second, plain
//! `&mut [f64]` representation for private replicas was measured and buys
//! nothing: relaxed atomic loads and stores of a `u64` compile to the same
//! plain `mov`s (EXPERIMENTS.md, "Where the epoch's wall-clock goes").

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};

/// A lock-free model vector in the Hogwild! memory model.
///
/// Every accessor takes `&self`: the cells are interior-mutable so that many
/// workers can update the same replica without locking.
#[derive(Debug)]
pub struct AtomicModel {
    cells: Vec<AtomicU64>,
}

impl AtomicModel {
    /// A zero-initialized model of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        AtomicModel {
            cells: (0..dim).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
        }
    }

    /// A model initialized from an existing vector.
    pub fn from_vec(values: &[f64]) -> Self {
        AtomicModel {
            cells: values.iter().map(|v| AtomicU64::new(v.to_bits())).collect(),
        }
    }

    /// Model dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.cells.len()
    }

    /// Read component `j`.
    #[inline]
    pub fn read(&self, j: usize) -> f64 {
        f64::from_bits(self.cells[j].load(Ordering::Relaxed))
    }

    /// Add `delta` to component `j`.
    #[inline]
    pub fn add(&self, j: usize, delta: f64) {
        // A read-modify-write without compare-and-swap: under Hogwild!
        // semantics lost updates are acceptable, and the paper's PerMachine
        // strategy explicitly allows "different writers to overwrite each
        // other".  fetch_update would serialize writers and change the
        // memory behaviour being modelled, so we deliberately use a plain
        // load + store of the component.
        let cell = &self.cells[j];
        let current = f64::from_bits(cell.load(Ordering::Relaxed));
        cell.store((current + delta).to_bits(), Ordering::Relaxed);
    }

    /// Overwrite component `j`.
    #[inline]
    pub fn write(&self, j: usize, value: f64) {
        self.cells[j].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Copy the current model into a plain vector (not atomic as a whole —
    /// concurrent writers may be mid-update, which is fine for averaging).
    pub fn snapshot(&self) -> Vec<f64> {
        self.cells
            .iter()
            .map(|cell| f64::from_bits(cell.load(Ordering::Relaxed)))
            .collect()
    }

    /// Overwrite the whole model from a vector.
    ///
    /// Component writes are individually atomic; the vector as a whole is
    /// not, matching the incoherent memory model.
    pub fn store_vec(&self, values: &[f64]) {
        assert_eq!(values.len(), self.cells.len(), "model dimension mismatch");
        for (cell, v) in self.cells.iter().zip(values) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Set every component to zero.
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.store(0f64.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Average a set of model replicas into a single vector.
///
/// This is the model-synchronization primitive of Section 3.3: "one thread
/// periodically reads models on all other cores, averages their results, and
/// updates each replica".
pub fn average_models(replicas: &[&AtomicModel]) -> Vec<f64> {
    let mut sum = Vec::new();
    average_models_into(replicas, &mut sum);
    sum
}

/// [`average_models`] into a caller-owned buffer, so an actor that averages
/// many times per epoch allocates once.  `sum` is overwritten (and resized
/// to the model dimension); the arithmetic — replicas summed in slice order
/// from zero, then scaled — is that of [`average_models`] bit for bit.
pub fn average_models_into<M: Borrow<AtomicModel>>(replicas: &[M], sum: &mut Vec<f64>) {
    assert!(!replicas.is_empty(), "cannot average zero replicas");
    let dim = replicas[0].borrow().dim();
    sum.clear();
    sum.resize(dim, 0.0);
    for replica in replicas {
        let replica = replica.borrow();
        assert_eq!(replica.dim(), dim, "replica dimension mismatch");
        for (s, cell) in sum.iter_mut().zip(&replica.cells) {
            *s += f64::from_bits(cell.load(Ordering::Relaxed));
        }
    }
    let scale = 1.0 / replicas.len() as f64;
    for s in sum.iter_mut() {
        *s *= scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn zeros_and_reads() {
        let m = AtomicModel::zeros(3);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.snapshot(), vec![0.0; 3]);
        m.add(0, 1.5);
        m.add(0, 2.0);
        m.write(2, -1.0);
        assert_eq!(m.read(0), 3.5);
        assert_eq!(m.read(2), -1.0);
    }

    #[test]
    fn from_vec_and_store() {
        let m = AtomicModel::from_vec(&[1.0, 2.0]);
        assert_eq!(m.snapshot(), vec![1.0, 2.0]);
        m.store_vec(&[3.0, 4.0]);
        assert_eq!(m.snapshot(), vec![3.0, 4.0]);
        m.reset();
        assert_eq!(m.snapshot(), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn store_vec_dimension_checked() {
        AtomicModel::zeros(2).store_vec(&[1.0]);
    }

    #[test]
    fn averaging() {
        let a = AtomicModel::from_vec(&[1.0, 3.0]);
        let b = AtomicModel::from_vec(&[3.0, 5.0]);
        assert_eq!(average_models(&[&a, &b]), vec![2.0, 4.0]);
        assert_eq!(average_models(&[&a]), vec![1.0, 3.0]);
    }

    #[test]
    fn averaging_into_reuses_and_overwrites_the_buffer() {
        let a = Arc::new(AtomicModel::from_vec(&[1.0, 3.0]));
        let b = Arc::new(AtomicModel::from_vec(&[3.0, 5.0]));
        // A stale, wrongly sized buffer is overwritten, not accumulated into.
        let mut sum = vec![9.0; 5];
        average_models_into(&[Arc::clone(&a), Arc::clone(&b)], &mut sum);
        assert_eq!(sum, vec![2.0, 4.0]);
        let buffer = sum.as_ptr();
        a.write(0, 5.0);
        average_models_into(&[a, b], &mut sum);
        assert_eq!(sum, vec![4.0, 4.0]);
        assert_eq!(sum.as_ptr(), buffer, "same allocation on the second round");
    }

    #[test]
    #[should_panic(expected = "zero replicas")]
    fn averaging_requires_replicas() {
        let _ = average_models(&[]);
    }

    #[test]
    fn concurrent_updates_land() {
        // With disjoint components there are no lost updates even under the
        // relaxed Hogwild! protocol.
        let model = Arc::new(AtomicModel::zeros(8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let m = Arc::clone(&model);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.add(t * 2, 1.0);
                        m.add(t * 2 + 1, -1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for t in 0..4 {
            assert_eq!(model.read(t * 2), 1000.0);
            assert_eq!(model.read(t * 2 + 1), -1000.0);
        }
    }

    #[test]
    fn concurrent_contended_updates_make_progress() {
        // On a contended component Hogwild! may lose updates but must make
        // forward progress and never produce garbage bit patterns.
        let model = Arc::new(AtomicModel::zeros(1));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&model);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.add(0, 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let value = model.read(0);
        assert!(value > 0.0, "some updates must land");
        assert!(value <= 40_000.0, "cannot exceed the total update count");
        assert!(value.fract() == 0.0, "updates are whole increments");
    }

    proptest! {
        #[test]
        fn prop_average_of_identical_replicas_is_identity(v in proptest::collection::vec(-100.0f64..100.0, 1..32)) {
            let a = AtomicModel::from_vec(&v);
            let b = AtomicModel::from_vec(&v);
            let avg = average_models(&[&a, &b]);
            for (x, y) in avg.iter().zip(&v) {
                prop_assert!((x - y).abs() < 1e-12);
            }
        }

        #[test]
        fn prop_add_accumulates(deltas in proptest::collection::vec(-10.0f64..10.0, 1..64)) {
            let m = AtomicModel::zeros(1);
            let mut expected = 0.0;
            for &d in &deltas {
                m.add(0, d);
                expected += d;
            }
            prop_assert!((m.read(0) - expected).abs() < 1e-9);
        }
    }
}
