//! Convergence bookkeeping.
//!
//! The paper's statistical-efficiency metric is "the number of epochs needed
//! to converge to within x% of the optimal loss" and its end-to-end metric
//! is "the wall-clock time to reach a loss within 1% / 10% / 50% / 100% of
//! the optimal loss" (Section 4.1).  [`ConvergenceTrace`] records the loss
//! after each epoch together with the (real or simulated) time spent, and
//! answers both questions.

/// Loss and cumulative time after one epoch.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LossPoint {
    /// Epoch index (1-based: the loss after the first epoch has `epoch` 1).
    pub epoch: usize,
    /// Objective value at the end of the epoch.
    pub loss: f64,
    /// Cumulative execution time in seconds (real or simulated).
    pub seconds: f64,
}

/// The per-epoch loss curve of one execution.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ConvergenceTrace {
    /// Loss of the initial (all-zero) model, before any epoch.
    pub initial_loss: f64,
    /// Per-epoch records in execution order.
    pub points: Vec<LossPoint>,
}

impl ConvergenceTrace {
    /// Start a trace from an initial loss.
    pub fn new(initial_loss: f64) -> Self {
        ConvergenceTrace {
            initial_loss,
            points: Vec::new(),
        }
    }

    /// Record the end of an epoch.
    pub fn record(&mut self, loss: f64, cumulative_seconds: f64) {
        self.points.push(LossPoint {
            epoch: self.points.len() + 1,
            loss,
            seconds: cumulative_seconds,
        });
    }

    /// Lowest loss observed so far (including the initial model).
    pub fn best_loss(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.loss)
            .fold(self.initial_loss, f64::min)
    }

    /// Total number of epochs recorded.
    pub fn epochs(&self) -> usize {
        self.points.len()
    }

    /// Total time of the run.
    pub fn total_seconds(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.seconds)
    }

    /// Number of epochs to reach a loss within `tolerance` (e.g. 0.01 for
    /// "within 1%") of `optimal`, or `None` if never reached.
    pub fn epochs_to_tolerance(&self, optimal: f64, tolerance: f64) -> Option<usize> {
        let threshold = loss_threshold(optimal, tolerance);
        self.points
            .iter()
            .find(|p| p.loss <= threshold)
            .map(|p| p.epoch)
    }

    /// Time (seconds) to reach a loss within `tolerance` of `optimal`.
    pub fn seconds_to_tolerance(&self, optimal: f64, tolerance: f64) -> Option<f64> {
        let threshold = loss_threshold(optimal, tolerance);
        self.points
            .iter()
            .find(|p| p.loss <= threshold)
            .map(|p| p.seconds)
    }

    /// FNV-1a fingerprint of the loss curve: the little-endian bytes of the
    /// initial loss's bits, then of each epoch's loss bits, in order.  Times
    /// are not hashed, so two runs with bit-identical losses share a
    /// fingerprint whatever their clocks said.  `benchmark/`'s `trace_hash`
    /// hashes the per-epoch losses only (no initial loss), so its values
    /// differ from these.
    pub fn fnv(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        std::iter::once(self.initial_loss)
            .chain(self.points.iter().map(|p| p.loss))
            .flat_map(|loss| loss.to_bits().to_le_bytes())
            .fold(OFFSET, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(PRIME)
            })
    }
}

/// The loss threshold meaning "within `tolerance` of the optimal loss".
///
/// The paper measures distance multiplicatively: a run is within 1% when its
/// loss is at most `optimal * 1.01` (with an additive epsilon so that an
/// exactly-zero optimum is still reachable).
pub fn loss_threshold(optimal: f64, tolerance: f64) -> f64 {
    optimal * (1.0 + tolerance) + 1e-9
}

/// Epochs to reach each tolerance, over a slice of tolerances.
pub fn epochs_to_reach(
    trace: &ConvergenceTrace,
    optimal: f64,
    tolerances: &[f64],
) -> Vec<Option<usize>> {
    tolerances
        .iter()
        .map(|&t| trace.epochs_to_tolerance(optimal, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> ConvergenceTrace {
        let mut t = ConvergenceTrace::new(10.0);
        t.record(5.0, 1.0);
        t.record(2.0, 2.0);
        t.record(1.1, 3.0);
        t.record(1.01, 4.0);
        t.record(1.001, 5.0);
        t
    }

    #[test]
    fn epochs_and_seconds_to_tolerance() {
        let t = trace();
        let optimal = 1.0;
        assert_eq!(t.epochs_to_tolerance(optimal, 1.0), Some(2)); // within 100%
        assert_eq!(t.epochs_to_tolerance(optimal, 0.1), Some(3)); // within 10%
        assert_eq!(t.epochs_to_tolerance(optimal, 0.01), Some(4)); // within 1%
        assert_eq!(t.epochs_to_tolerance(optimal, 0.001), Some(5)); // within 0.1%
        assert_eq!(t.seconds_to_tolerance(optimal, 0.1), Some(3.0));
        assert_eq!(t.epochs_to_tolerance(0.5, 0.01), None);
        assert_eq!(t.seconds_to_tolerance(0.5, 0.01), None);
    }

    #[test]
    fn best_loss_and_totals() {
        let t = trace();
        assert_eq!(t.best_loss(), 1.001);
        assert_eq!(t.epochs(), 5);
        assert_eq!(t.total_seconds(), 5.0);
        let empty = ConvergenceTrace::new(3.0);
        assert_eq!(empty.best_loss(), 3.0);
        assert_eq!(empty.total_seconds(), 0.0);
    }

    #[test]
    fn threshold_handles_zero_optimum() {
        assert!(loss_threshold(0.0, 0.01) > 0.0);
        let mut t = ConvergenceTrace::new(1.0);
        t.record(0.0, 1.0);
        assert_eq!(t.epochs_to_tolerance(0.0, 0.01), Some(1));
    }

    /// FNV-1a over the little-endian bits of 10, 5, 2, 1.1, 1.01, 1.001,
    /// computed outside this crate.
    const FNV_OF_TRACE: u64 = 0x9e13_f34d_030d_f902;

    #[test]
    fn fnv_pins_every_loss_bit_and_ignores_times() {
        let t = trace();
        assert_eq!(t.fnv(), FNV_OF_TRACE);
        let mut flipped = t.clone();
        flipped.points[2].loss = f64::from_bits(flipped.points[2].loss.to_bits() ^ 1);
        assert_ne!(flipped.fnv(), FNV_OF_TRACE);
        let mut initial = t.clone();
        initial.initial_loss = f64::from_bits(initial.initial_loss.to_bits() ^ 1);
        assert_ne!(initial.fnv(), FNV_OF_TRACE);
        let mut retimed = t;
        retimed.points[0].seconds = 99.0;
        assert_eq!(retimed.fnv(), FNV_OF_TRACE);
    }

    #[test]
    fn epochs_to_reach_vector() {
        let t = trace();
        let result = epochs_to_reach(&t, 1.0, &[1.0, 0.5, 0.1, 0.01]);
        assert_eq!(result, vec![Some(2), Some(3), Some(3), Some(4)]);
    }
}
