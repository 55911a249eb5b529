//! Figure and table regeneration for the DimmWitted reproduction.
//!
//! Every table and figure of the paper's evaluation (Section 4, Section 5,
//! and Appendices C–D) has a regenerating function in [`figures`] and a
//! matching binary in `src/bin/` (e.g. `cargo run -p dw-bench --release
//! --bin fig11`).  The functions return [`table::Table`]s so that the
//! integration tests can assert on the numbers and the binaries can print
//! the same rows the paper reports.
//!
//! The figures measure *statistical efficiency* (epochs to a loss target)
//! by actually running the first-order methods, and *hardware efficiency*
//! (time per epoch, PMU-style counters) through the NUMA cost model of
//! `dw-numa`, so they reproduce the paper's multi-socket phenomena on any
//! host, whatever its core and node count.  Host wall-clock is measured by
//! the stand-alone harness in `benchmark/`.

pub mod figures;
pub mod table;

pub use table::Table;

/// Experiment scale: the full runs used by the binaries vs. the reduced runs
/// used by integration tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Epochs per engine run.
    pub epochs: usize,
    /// Epochs used to estimate the reference optimum.
    pub reference_epochs: usize,
    /// Random seed shared by all generators.
    pub seed: u64,
}

impl Scale {
    /// Full scale, used by the `figXX` binaries.
    pub fn full() -> Self {
        Scale {
            epochs: 30,
            reference_epochs: 12,
            seed: 42,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        Scale {
            epochs: 6,
            reference_epochs: 4,
            seed: 42,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales() {
        assert!(Scale::full().epochs > Scale::quick().epochs);
        assert_eq!(Scale::full().seed, Scale::quick().seed);
    }
}
