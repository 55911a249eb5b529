//! Shared blocked kernels for sparse slice arithmetic.
//!
//! Before the unified storage layer, `CsrMatrix::row(..).dot(..)` and
//! `CscMatrix::col(..).dot(..)` each carried their own copy of the same
//! gather-multiply-accumulate loop.  Every access method in the engine
//! bottoms out in these few operations, so they live here once and are
//! shared by both orientations through [`crate::views::VecView`].
//!
//! Two kernel families live here, selected per plan by
//! [`KernelVariant`]:
//!
//! * **Reference** — blocked (manually unrolled in chunks of four) but with
//!   a **single accumulator** applied strictly in index order.  Multi-
//!   accumulator reductions reassociate the floating-point sum, and the
//!   engine's determinism contract requires that storage- and kernel-layer
//!   changes leave every convergence trace bit-identical; the single
//!   accumulator reproduces the exact rounding sequence of the original
//!   per-layout loops.  This is the trace-parity anchor and the default.
//! * **Wide** — 4 or 8 *independent* accumulator lanes with a sequential
//!   lane reduction at the end.  The independent chains break the serial
//!   add-latency dependency (and give the auto-vectorizer straight-line
//!   blocks), trading bit-parity with Reference for throughput.  The loop
//!   is still fully deterministic: the same plan over the same data
//!   produces the same trace, pinned by hash in the benches.
//!
//! The index stream feeding a kernel may be raw `u32`s or the
//! block-compressed encoding of [`crate::encoding::BlockedIndices`]; the
//! `*_encoded` entry points consume the compressed stream directly so
//! decode never materializes an index array.

use crate::encoding::EncodedChunk;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which accumulate-loop family a plan executes.
///
/// `Reference` is the single-accumulator, strictly-in-index-order loop —
/// the trace-parity anchor every bit-identity test is pinned against.
/// `Wide` runs `lanes` independent accumulator chains (4 or 8; other
/// values are normalized to the nearest supported width) and is
/// deterministic per plan: the lane count fixes the association, so the
/// same plan always reproduces the same rounding sequence.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize, Hash,
)]
pub enum KernelVariant {
    /// Single accumulator, bit-identical to a scalar in-order loop.
    #[default]
    Reference,
    /// `lanes` independent accumulator chains, reduced sequentially.
    Wide {
        /// Number of independent accumulators (normalized to 4 or 8).
        lanes: u8,
    },
}

impl KernelVariant {
    /// The supported lane count this variant executes with: 1 for
    /// `Reference`; 8 for `Wide` with 8 or more requested lanes, else 4.
    #[inline]
    pub fn lanes(self) -> usize {
        match self {
            KernelVariant::Reference => 1,
            KernelVariant::Wide { lanes } => {
                if lanes >= 8 {
                    8
                } else {
                    4
                }
            }
        }
    }

    /// Stable lowercase label (used in plan descriptions and bench names).
    pub fn name(self) -> &'static str {
        match self.lanes() {
            8 => "wide8",
            4 => "wide4",
            _ => "reference",
        }
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a sparse layout's index stream is stored and fed to the kernels.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize, Hash,
)]
pub enum IndexEncoding {
    /// Raw `u32` index arrays (4 bytes per stored element).
    #[default]
    U32,
    /// Block-compressed frame-of-reference encoding: per-block `u32` base
    /// plus `u16` offsets (~2 bytes per stored element), with a raw-`u32`
    /// fallback block wherever an offset overflows `u16`
    /// ([`crate::encoding::BlockedIndices`]).
    DeltaU16,
}

impl IndexEncoding {
    /// Stable lowercase label (used in plan descriptions and bench names).
    pub fn name(self) -> &'static str {
        match self {
            IndexEncoding::U32 => "u32",
            IndexEncoding::DeltaU16 => "delta16",
        }
    }
}

impl std::fmt::Display for IndexEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A lock-free cell holding the kernel decision a plan is executing with.
///
/// Shared (`Arc`) between a task and every shard cut from it, so a
/// `Session::replan` flips the variant/encoding for all workers at an epoch
/// boundary without touching the shards or re-materializing a layout.
/// Epoch execution is quiescent when the session writes it, so `Relaxed`
/// ordering suffices — the cell is a plan register, not a synchronization
/// point.
#[derive(Debug, Default)]
pub struct KernelSelector {
    variant: AtomicU8,
    encoding: AtomicU8,
}

impl KernelSelector {
    /// A selector starting at the defaults (`Reference`, `U32`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a new kernel decision.
    pub fn set(&self, variant: KernelVariant, encoding: IndexEncoding) {
        let v = match variant {
            KernelVariant::Reference => 0,
            KernelVariant::Wide { .. } => variant.lanes() as u8,
        };
        self.variant.store(v, Ordering::Relaxed);
        self.encoding.store(
            matches!(encoding, IndexEncoding::DeltaU16) as u8,
            Ordering::Relaxed,
        );
    }

    /// The variant currently selected.
    pub fn variant(&self) -> KernelVariant {
        match self.variant.load(Ordering::Relaxed) {
            0 => KernelVariant::Reference,
            lanes => KernelVariant::Wide { lanes },
        }
    }

    /// The index encoding currently selected.
    pub fn encoding(&self) -> IndexEncoding {
        if self.encoding.load(Ordering::Relaxed) == 0 {
            IndexEncoding::U32
        } else {
            IndexEncoding::DeltaU16
        }
    }
}

#[cold]
#[inline(never)]
fn misaligned(indices: usize, values: usize) -> ! {
    panic!("index/value arrays must be aligned: {indices} indices vs {values} values");
}

#[inline]
fn check_aligned(indices: &[u32], values: &[f64]) {
    if indices.len() != values.len() {
        misaligned(indices.len(), values.len());
    }
}

/// Gathered dot product: `Σ_k values[k] * dense[indices[k]]`.
///
/// This is the **reference** sparse·dense dot implementation in the
/// workspace — single accumulator, strictly in index order, bit-identical
/// to a scalar loop; row views, column views and the epoch kernels all call
/// it unless a plan selects a wide variant.
///
/// # Panics
/// Panics (in every build profile, via slice indexing) if any index is out
/// of bounds for `dense`, or if `indices` and `values` differ in length
/// (the message reports both lengths).
#[inline]
pub fn dot_indexed(indices: &[u32], values: &[f64], dense: &[f64]) -> f64 {
    check_aligned(indices, values);
    let mut acc = 0.0;
    let chunks = indices.len() / 4;
    for c in 0..chunks {
        let base = c * 4;
        // Single accumulator, strictly in index order: bit-identical to the
        // scalar loop (see module docs).
        acc += values[base] * dense[indices[base] as usize];
        acc += values[base + 1] * dense[indices[base + 1] as usize];
        acc += values[base + 2] * dense[indices[base + 2] as usize];
        acc += values[base + 3] * dense[indices[base + 3] as usize];
    }
    for k in chunks * 4..indices.len() {
        acc += values[k] * dense[indices[k] as usize];
    }
    acc
}

/// The multi-accumulator gather loop behind [`dot_indexed_wide`],
/// monomorphized per lane count so the blocks are straight-line code.
/// Alignment is the caller's responsibility (both public entry points
/// check it once).
#[inline]
fn dot_indexed_lanes<const LANES: usize>(indices: &[u32], values: &[f64], dense: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    // `chunks_exact` fixes both slice lengths at LANES, so the only
    // bounds check left in the block is the `dense` gather itself — that
    // is what makes this loop faster than the reference even on short
    // slices, on top of the independent accumulator chains.
    let index_blocks = indices.chunks_exact(LANES);
    let value_blocks = values.chunks_exact(LANES);
    let index_tail = index_blocks.remainder();
    let value_tail = value_blocks.remainder();
    for (ib, vb) in index_blocks.zip(value_blocks) {
        for k in 0..LANES {
            acc[k] += vb[k] * dense[ib[k] as usize];
        }
    }
    // Sequential lane reduction: the association is fixed by LANES, which
    // is what makes the wide variant deterministic per plan.
    let mut total = 0.0;
    for lane in acc {
        total += lane;
    }
    for (&i, &v) in index_tail.iter().zip(value_tail.iter()) {
        total += v * dense[i as usize];
    }
    total
}

/// Gathered dot product with `lanes` (4 or 8) independent accumulator
/// chains — the throughput variant of [`dot_indexed`].  Deterministic for a
/// fixed lane count, but **not** bit-identical to the reference kernel: the
/// lanes reassociate the sum.
///
/// # Panics
/// Panics if any index is out of bounds for `dense`, or if `indices` and
/// `values` differ in length (the message reports both lengths).
#[inline]
pub fn dot_indexed_wide(indices: &[u32], values: &[f64], dense: &[f64], lanes: u8) -> f64 {
    check_aligned(indices, values);
    if lanes >= 8 {
        dot_indexed_lanes::<8>(indices, values, dense)
    } else {
        dot_indexed_lanes::<4>(indices, values, dense)
    }
}

/// Gathered dot product through a plan's [`KernelVariant`].
#[inline]
pub fn dot_indexed_with(
    variant: KernelVariant,
    indices: &[u32],
    values: &[f64],
    dense: &[f64],
) -> f64 {
    match variant {
        KernelVariant::Reference => dot_indexed(indices, values, dense),
        KernelVariant::Wide { lanes } => dot_indexed_wide(indices, values, dense, lanes),
    }
}

/// Gathered axpy: `y[indices[k]] += alpha * values[k]` for every stored
/// component.
///
/// # Aligned-length contract
/// `indices` and `values` must have the same length — the arrays are the
/// two halves of one sparse slice.  The contract is asserted in every
/// build profile and the message reports both lengths.
///
/// # Panics
/// Panics if any index is out of bounds for `y`, or if `indices` and
/// `values` differ in length.
#[inline]
pub fn axpy_indexed(alpha: f64, indices: &[u32], values: &[f64], y: &mut [f64]) {
    check_aligned(indices, values);
    for (&i, &v) in indices.iter().zip(values.iter()) {
        y[i as usize] += alpha * v;
    }
}

/// Explicitly unrolled gathered axpy — the wide sibling of
/// [`axpy_indexed`].  The scattered writes have no cross-iteration
/// accumulation, and the unrolled blocks apply updates in source order, so
/// this is **bit-identical** to the reference loop (duplicate indices
/// included) while exposing independent address streams to the scheduler.
///
/// # Panics
/// Panics if any index is out of bounds for `y`, or if `indices` and
/// `values` differ in length (the message reports both lengths).
#[inline]
pub fn axpy_indexed_wide(alpha: f64, indices: &[u32], values: &[f64], y: &mut [f64], lanes: u8) {
    check_aligned(indices, values);
    let width = if lanes >= 8 { 8 } else { 4 };
    let index_blocks = indices.chunks_exact(width);
    let value_blocks = values.chunks_exact(width);
    let index_tail = index_blocks.remainder();
    let value_tail = value_blocks.remainder();
    for (ib, vb) in index_blocks.zip(value_blocks) {
        for k in 0..width {
            y[ib[k] as usize] += alpha * vb[k];
        }
    }
    for (&i, &v) in index_tail.iter().zip(value_tail.iter()) {
        y[i as usize] += alpha * v;
    }
}

/// Gathered axpy through a plan's [`KernelVariant`].
#[inline]
pub fn axpy_indexed_with(
    variant: KernelVariant,
    alpha: f64,
    indices: &[u32],
    values: &[f64],
    y: &mut [f64],
) {
    match variant {
        KernelVariant::Reference => axpy_indexed(alpha, indices, values, y),
        KernelVariant::Wide { lanes } => axpy_indexed_wide(alpha, indices, values, y, lanes),
    }
}

/// Dense dot product of two equal-length slices: the one multi-accumulator
/// dense loop in the workspace (4 independent lanes, sequential lane
/// reduction, sequential tail), shared by [`crate::vector::dot_dense`] and
/// the dense row store.
///
/// Alignment is the caller's responsibility — `vector::dot_dense` asserts
/// equal lengths with its historical message before delegating here.
#[inline]
pub fn dot_dense_unrolled(a: &[f64], b: &[f64]) -> f64 {
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let base = i * 4;
        acc0 += a[base] * b[base];
        acc1 += a[base + 1] * b[base + 1];
        acc2 += a[base + 2] * b[base + 2];
        acc3 += a[base + 3] * b[base + 3];
    }
    let mut acc = acc0 + acc1 + acc2 + acc3;
    for i in chunks * 4..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// Sum of squares of a value slice (used by SCD step normalization).
#[inline]
pub fn sum_of_squares(values: &[f64]) -> f64 {
    let mut acc = 0.0;
    let chunks = values.len() / 4;
    for c in 0..chunks {
        let base = c * 4;
        acc += values[base] * values[base];
        acc += values[base + 1] * values[base + 1];
        acc += values[base + 2] * values[base + 2];
        acc += values[base + 3] * values[base + 3];
    }
    for v in &values[chunks * 4..] {
        acc += v * v;
    }
    acc
}

/// Cache lines [`prefetch_read`] hints per slice: 1 KiB, i.e. 256 `u32`
/// indices or 128 `f64` values.  A core keeps about a dozen line fills in
/// flight, so hinting further into a long row only evicts the hints that
/// would have landed; the hardware streamer takes over from there.
#[cfg(target_arch = "x86_64")]
const PREFETCH_LINE_CAP: usize = 16;

/// Hint the cache that `slice` is about to be read: one read prefetch per
/// 64-byte line, the first 16 lines (1 KiB) of it.
///
/// The epoch item loop calls this on the *next* item's index and value
/// slices while it steps the current one, so a shuffled deal's serial run
/// of cold row lines overlaps the arithmetic instead of following it.  It
/// is a hint and nothing else: no byte is loaded, no page is faulted or
/// pinned, no layout is built, and on targets without a prefetch
/// instruction it compiles to nothing — so it can never move a trace.
#[inline]
pub fn prefetch_read<T>(slice: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let start = slice.as_ptr().cast::<i8>();
        let lines = std::mem::size_of_val(slice)
            .div_ceil(LINE)
            .min(PREFETCH_LINE_CAP);
        for line in 0..lines {
            // SAFETY: `prefetcht0` never faults and never loads
            // architecturally — an unmapped or non-resident address is
            // dropped by the hardware — and every hinted address lies
            // inside the borrowed `slice` (line * 64 < its byte length);
            // the intrinsic is `unsafe` only for taking a raw pointer.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(start.wrapping_add(line * LINE)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = slice;
}

/// Reference gathered dot over a block-compressed index stream: single
/// accumulator, strictly in stream order — **bit-identical** to
/// [`dot_indexed`] over the decoded indices, so switching a plan's
/// encoding never perturbs a Reference-path convergence trace.
///
/// `values` runs in lockstep with the concatenated chunks.
///
/// # Panics
/// Panics if the chunks decode to more elements than `values` holds, or if
/// any decoded index is out of bounds for `dense`.
pub fn dot_encoded<'a>(
    chunks: impl Iterator<Item = EncodedChunk<'a>>,
    values: &[f64],
    dense: &[f64],
) -> f64 {
    let mut acc = 0.0;
    let mut at = 0;
    for chunk in chunks {
        match chunk {
            EncodedChunk::Delta { base, offsets } => {
                let vals = &values[at..at + offsets.len()];
                for (o, v) in offsets.iter().zip(vals) {
                    acc += v * dense[base as usize + *o as usize];
                }
                at += offsets.len();
            }
            EncodedChunk::Raw(indices) => {
                let vals = &values[at..at + indices.len()];
                for (i, v) in indices.iter().zip(vals) {
                    acc += v * dense[*i as usize];
                }
                at += indices.len();
            }
        }
    }
    acc
}

/// The wide accumulate loop over one delta block.
#[inline]
fn dot_delta_lanes<const LANES: usize>(
    base: u32,
    offsets: &[u16],
    values: &[f64],
    dense: &[f64],
) -> f64 {
    let mut acc = [0.0f64; LANES];
    // Same shape as `dot_indexed_lanes`: `chunks_exact` leaves the `dense`
    // gather as the only bounds check inside the block.
    let offset_blocks = offsets.chunks_exact(LANES);
    let value_blocks = values.chunks_exact(LANES);
    let offset_tail = offset_blocks.remainder();
    let value_tail = value_blocks.remainder();
    for (ob, vb) in offset_blocks.zip(value_blocks) {
        for k in 0..LANES {
            acc[k] += vb[k] * dense[base as usize + ob[k] as usize];
        }
    }
    let mut total = 0.0;
    for lane in acc {
        total += lane;
    }
    for (&o, &v) in offset_tail.iter().zip(value_tail.iter()) {
        total += v * dense[base as usize + o as usize];
    }
    total
}

/// Wide gathered dot over a block-compressed index stream: each chunk runs
/// the multi-accumulator loop and contributes its own partial sum, in
/// stream order.  Deterministic for a fixed lane count and encoding (the
/// block geometry fixes the association), but not bit-identical to the
/// raw-index wide kernel.
pub fn dot_encoded_wide<'a>(
    chunks: impl Iterator<Item = EncodedChunk<'a>>,
    values: &[f64],
    dense: &[f64],
    lanes: u8,
) -> f64 {
    let mut acc = 0.0;
    let mut at = 0;
    for chunk in chunks {
        match chunk {
            EncodedChunk::Delta { base, offsets } => {
                let vals = &values[at..at + offsets.len()];
                acc += if lanes >= 8 {
                    dot_delta_lanes::<8>(base, offsets, vals, dense)
                } else {
                    dot_delta_lanes::<4>(base, offsets, vals, dense)
                };
                at += offsets.len();
            }
            EncodedChunk::Raw(indices) => {
                let vals = &values[at..at + indices.len()];
                acc += if lanes >= 8 {
                    dot_indexed_lanes::<8>(indices, vals, dense)
                } else {
                    dot_indexed_lanes::<4>(indices, vals, dense)
                };
                at += indices.len();
            }
        }
    }
    acc
}

/// Gathered dot over a block-compressed index stream through a plan's
/// [`KernelVariant`].
pub fn dot_encoded_with<'a>(
    variant: KernelVariant,
    chunks: impl Iterator<Item = EncodedChunk<'a>>,
    values: &[f64],
    dense: &[f64],
) -> f64 {
    match variant {
        KernelVariant::Reference => dot_encoded(chunks, values, dense),
        KernelVariant::Wide { lanes } => dot_encoded_wide(chunks, values, dense, lanes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::BlockedIndices;
    use proptest::prelude::*;

    #[test]
    fn prefetch_read_accepts_any_slice_and_changes_nothing() {
        // Empty (dangling pointer, zero lines), one element, and a slice
        // far past the line cap spanning several pages.
        prefetch_read::<f64>(&[]);
        prefetch_read::<u32>(&[]);
        prefetch_read(&[1.5f64]);
        let long: Vec<u32> = (0..5 * 4096 / 4).collect();
        let before = long.clone();
        prefetch_read(&long);
        prefetch_read(&long[long.len() - 1..]); // last line of the last page
        assert_eq!(long, before);
    }

    #[test]
    fn prefetch_read_faults_no_page_of_a_paged_matrix() {
        use crate::{CooMatrix, DataMatrix, InMemorySource, RowAccess};
        let mut coo = CooMatrix::new(64, 32);
        for i in 0..64 {
            for j in 0..8 {
                coo.push(i, (i + 3 * j) % 32, 1.0 + j as f64).unwrap();
            }
        }
        let m = DataMatrix::from_source(
            std::sync::Arc::new(InMemorySource::from_coo(&coo, 256)),
            1024,
        );
        m.materialize_rows();
        m.release_pages();
        let before = m.ooc_stats().expect("paged matrix has cache stats");
        assert_eq!(before.resident_bytes, 0, "nothing resident in the cache");
        for i in 0..64 {
            let row = m.row(i);
            prefetch_read(row.indices);
            prefetch_read(row.values);
        }
        let after = m.ooc_stats().unwrap();
        assert_eq!(after.faults, before.faults, "a hint must not fault pages");
        assert_eq!(after.io_bytes, before.io_bytes);
        assert_eq!(after.resident_bytes, 0);
    }

    #[test]
    fn dot_indexed_matches_naive() {
        let indices: Vec<u32> = vec![0, 3, 4, 7, 9, 11, 12];
        let values: Vec<f64> = (0..7).map(|i| i as f64 * 0.7 - 2.0).collect();
        let dense: Vec<f64> = (0..16).map(|i| (i as f64).sin()).collect();
        let naive: f64 = indices
            .iter()
            .zip(&values)
            .map(|(&i, &v)| v * dense[i as usize])
            .sum();
        assert_eq!(dot_indexed(&indices, &values, &dense), naive);
    }

    #[test]
    fn dot_indexed_is_bitwise_sequential() {
        // The kernel must reproduce the exact rounding sequence of a scalar
        // in-order loop — the engine's trace-parity contract depends on it.
        let indices: Vec<u32> = (0..37).map(|i| i * 3).collect();
        let values: Vec<f64> = (0..37).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let dense: Vec<f64> = (0..128).map(|i| (i as f64 * 0.37).cos()).collect();
        let mut sequential = 0.0;
        for (&i, &v) in indices.iter().zip(&values) {
            sequential += v * dense[i as usize];
        }
        assert_eq!(
            dot_indexed(&indices, &values, &dense).to_bits(),
            sequential.to_bits()
        );
    }

    #[test]
    fn axpy_indexed_updates_targets() {
        let mut y = vec![1.0; 5];
        axpy_indexed(2.0, &[1, 4], &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![1.0, 7.0, 1.0, 1.0, -1.0]);
    }

    #[test]
    fn axpy_wide_is_bitwise_identical_to_reference() {
        // Scattered writes in source order: the unrolled variant must be
        // exactly the reference loop, duplicate-free or not.
        let indices: Vec<u32> = (0..23).map(|i| (i * 5) % 17).collect();
        let values: Vec<f64> = (0..23).map(|i| (i as f64 * 0.3).sin()).collect();
        for lanes in [4u8, 8] {
            let mut a = vec![0.25; 17];
            let mut b = a.clone();
            axpy_indexed(1.7, &indices, &values, &mut a);
            axpy_indexed_wide(1.7, &indices, &values, &mut b, lanes);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn sum_of_squares_matches_naive() {
        let values: Vec<f64> = (0..11).map(|i| i as f64 - 4.5).collect();
        let naive: f64 = values.iter().map(|v| v * v).sum();
        assert_eq!(sum_of_squares(&values), naive);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn mismatched_arrays_rejected() {
        let _ = dot_indexed(&[0, 1], &[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "2 indices vs 1 values")]
    fn mismatched_arrays_report_both_lengths() {
        let _ = dot_indexed(&[0, 1], &[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn axpy_mismatched_arrays_rejected() {
        axpy_indexed(1.0, &[0, 1], &[1.0], &mut [1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn wide_mismatched_arrays_rejected() {
        let _ = dot_indexed_wide(&[0, 1], &[1.0], &[1.0, 2.0], 4);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_index_panics() {
        let _ = dot_indexed(&[5], &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn variant_normalizes_lanes() {
        assert_eq!(KernelVariant::Reference.lanes(), 1);
        assert_eq!(KernelVariant::Wide { lanes: 0 }.lanes(), 4);
        assert_eq!(KernelVariant::Wide { lanes: 4 }.lanes(), 4);
        assert_eq!(KernelVariant::Wide { lanes: 6 }.lanes(), 4);
        assert_eq!(KernelVariant::Wide { lanes: 8 }.lanes(), 8);
        assert_eq!(KernelVariant::Wide { lanes: 255 }.lanes(), 8);
        assert_eq!(KernelVariant::Wide { lanes: 8 }.name(), "wide8");
        assert_eq!(KernelVariant::default().name(), "reference");
    }

    #[test]
    fn selector_round_trips_decisions() {
        let cell = KernelSelector::new();
        assert_eq!(cell.variant(), KernelVariant::Reference);
        assert_eq!(cell.encoding(), IndexEncoding::U32);
        cell.set(KernelVariant::Wide { lanes: 8 }, IndexEncoding::DeltaU16);
        assert_eq!(cell.variant(), KernelVariant::Wide { lanes: 8 });
        assert_eq!(cell.encoding(), IndexEncoding::DeltaU16);
        cell.set(KernelVariant::Reference, IndexEncoding::U32);
        assert_eq!(cell.variant(), KernelVariant::Reference);
        assert_eq!(cell.encoding(), IndexEncoding::U32);
    }

    #[test]
    fn encoded_reference_is_bitwise_identical_to_raw() {
        let indices: Vec<u32> = (0..300).map(|i| i * 7 % 1000).collect();
        let values: Vec<f64> = (0..300).map(|i| (i as f64 * 0.11).cos()).collect();
        let dense: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.03).sin()).collect();
        let encoded = BlockedIndices::encode(&indices);
        let raw = dot_indexed(&indices, &values, &dense);
        let enc = dot_encoded(encoded.chunks_in_range(0, indices.len()), &values, &dense);
        assert_eq!(raw.to_bits(), enc.to_bits());
    }

    proptest! {
        #[test]
        fn prop_dot_indexed_matches_sequential(
            pairs in proptest::collection::btree_map(0u32..64, -10.0f64..10.0, 0..48),
        ) {
            let indices: Vec<u32> = pairs.keys().copied().collect();
            let values: Vec<f64> = pairs.values().copied().collect();
            let dense: Vec<f64> = (0..64).map(|i| (i as f64) * 0.31 - 7.0).collect();
            let mut sequential = 0.0;
            for (&i, &v) in indices.iter().zip(&values) {
                sequential += v * dense[i as usize];
            }
            prop_assert_eq!(
                dot_indexed(&indices, &values, &dense).to_bits(),
                sequential.to_bits()
            );
        }

        #[test]
        fn prop_wide_matches_reference_within_tolerance(
            pairs in proptest::collection::btree_map(0u32..256, -10.0f64..10.0, 0..160),
            // Any requested width normalizes to a supported lane count.
            lanes in 1u8..12,
        ) {
            let indices: Vec<u32> = pairs.keys().copied().collect();
            let values: Vec<f64> = pairs.values().copied().collect();
            let dense: Vec<f64> = (0..256).map(|i| (i as f64) * 0.17 - 11.0).collect();
            let reference = dot_indexed(&indices, &values, &dense);
            let wide = dot_indexed_wide(&indices, &values, &dense, lanes);
            let scale: f64 = indices
                .iter()
                .zip(&values)
                .map(|(&i, &v)| (v * dense[i as usize]).abs())
                .sum::<f64>()
                .max(1.0);
            prop_assert!((reference - wide).abs() <= 1e-12 * scale);
        }

        #[test]
        fn prop_wide_is_deterministic(
            pairs in proptest::collection::btree_map(0u32..256, -10.0f64..10.0, 0..160),
            // Any requested width normalizes to a supported lane count.
            lanes in 1u8..12,
        ) {
            let indices: Vec<u32> = pairs.keys().copied().collect();
            let values: Vec<f64> = pairs.values().copied().collect();
            let dense: Vec<f64> = (0..256).map(|i| (i as f64) * 0.23 - 3.0).collect();
            let first = dot_indexed_wide(&indices, &values, &dense, lanes);
            let second = dot_indexed_wide(&indices, &values, &dense, lanes);
            prop_assert_eq!(first.to_bits(), second.to_bits());
            let encoded = BlockedIndices::encode(&indices);
            let enc_first =
                dot_encoded_wide(encoded.chunks_in_range(0, indices.len()), &values, &dense, lanes);
            let enc_second =
                dot_encoded_wide(encoded.chunks_in_range(0, indices.len()), &values, &dense, lanes);
            prop_assert_eq!(enc_first.to_bits(), enc_second.to_bits());
        }

        #[test]
        fn prop_encoded_reference_bitwise_matches_raw(
            pairs in proptest::collection::btree_map(0u32..100_000, -10.0f64..10.0, 0..300),
        ) {
            let indices: Vec<u32> = pairs.keys().copied().collect();
            let values: Vec<f64> = pairs.values().copied().collect();
            let dense: Vec<f64> = (0..100_000).map(|i| ((i % 97) as f64) * 0.21 - 9.0).collect();
            let encoded = BlockedIndices::encode(&indices);
            let raw = dot_indexed(&indices, &values, &dense);
            let enc = dot_encoded(encoded.chunks_in_range(0, indices.len()), &values, &dense);
            prop_assert_eq!(raw.to_bits(), enc.to_bits());
        }
    }
}
