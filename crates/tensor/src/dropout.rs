//! Counter-based dropout.
//!
//! GPU dropout kernels (and the paper's fused Triton kernels) use a
//! counter-based RNG (Philox): the keep/drop decision for logical element
//! `i` is a pure function of `(seed, i)`. This module reproduces that
//! contract with [`crate::SplitMix64`]: whether dropout runs as a standalone
//! kernel (Torch LoRA), fused into the down-projection (FusedLoRA), or per
//! tile with per-adapter seeds (FusedMultiLoRA), the realized mask is
//! identical — which is what makes the fusion strategies *lossless*.

use crate::error::TensorError;
use crate::pool;
use crate::rng::SplitMix64;
use crate::tensor::Matrix;
use crate::Result;

/// Parameters of a dropout application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropoutSpec {
    /// Drop probability in `[0, 1)`.
    pub prob: f32,
    /// RNG seed. Elements are indexed by `row_offset * cols + col`.
    pub seed: u64,
    /// Logical row offset of this matrix within the full batch.
    ///
    /// The multi-LoRA executor processes token *segments*; offsetting the
    /// counter by the segment start keeps the segment's mask identical to
    /// the one a whole-batch kernel would have produced.
    pub row_offset: usize,
}

impl DropoutSpec {
    /// Creates a spec with zero row offset.
    pub fn new(prob: f32, seed: u64) -> Self {
        Self {
            prob,
            seed,
            row_offset: 0,
        }
    }

    /// Returns a copy of this spec shifted to start at `row_offset`.
    pub fn with_row_offset(self, row_offset: usize) -> Self {
        Self { row_offset, ..self }
    }

    /// Validates the drop probability.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..1.0).contains(&self.prob) || !self.prob.is_finite() {
            return Err(TensorError::InvalidParameter {
                name: "prob",
                reason: "dropout probability must lie in [0, 1)",
            });
        }
        Ok(())
    }

    /// Keep decision for the element at logical `(row, col)` given `cols`
    /// columns per row: `SplitMix64::uniform_at(seed, counter) >= prob`,
    /// evaluated as the equivalent integer test of [`Self::keep_threshold`].
    #[inline]
    pub fn keep(&self, row: usize, col: usize, cols: usize) -> bool {
        if self.prob == 0.0 {
            return true;
        }
        let counter = ((self.row_offset + row) * cols + col) as u64;
        keep_word(
            SplitMix64::counter_word(self.seed, counter),
            self.keep_threshold(),
        )
    }

    /// Integer form of the keep test. `uniform_at` is `W * 2^-53` for the
    /// 53-bit integer `W = word >> 11`; both that product and
    /// `prob * 2^53` are exact in `f64`, so `W * 2^-53 >= prob` holds
    /// exactly when `W >= ceil(prob * 2^53)`. The test then needs no
    /// int-to-float conversion per element. A NaN probability keeps
    /// nothing, as the float comparison would.
    #[inline]
    pub fn keep_threshold(&self) -> u64 {
        let p = self.prob as f64;
        if p.is_nan() {
            u64::MAX
        } else {
            // Saturating: negative probabilities keep everything.
            (p * (1u64 << 53) as f64).ceil() as u64
        }
    }

    /// Inverse keep-probability scale applied to surviving elements.
    #[inline]
    pub fn scale(&self) -> f32 {
        1.0 / (1.0 - self.prob)
    }

    /// True when this spec is the identity transform (`prob == 0.0`):
    /// every element is kept with scale `1.0`, so executors can skip mask
    /// creation and application entirely.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.prob == 0.0
    }

    /// Mask value for the element at logical `(row, col)`: [`Self::scale`]
    /// when kept, `0.0` when dropped. Multiplying by this value applies
    /// (inverted) dropout; it is exactly what [`dropout_mask`] stores, so
    /// fused paths that evaluate it inline (pack-prologues, GEMM
    /// store-epilogues) are bitwise-identical to mask materialization.
    #[inline]
    pub fn mask_value(&self, row: usize, col: usize, cols: usize) -> f32 {
        if self.keep(row, col, cols) {
            self.scale()
        } else {
            0.0
        }
    }

    /// This spec with its scale and keep threshold computed once, for the
    /// fused sites that evaluate it element by element (the GEMM pack
    /// prologue and the `AddMasked` store epilogue).
    #[inline]
    pub fn mask(&self) -> Mask {
        Mask {
            seed: self.seed,
            row_offset: self.row_offset,
            scale: self.scale(),
            threshold: self.keep_threshold(),
        }
    }
}

/// A [`DropoutSpec`] with its scale and keep threshold hoisted out of the
/// element loop; [`Mask::value`] equals [`DropoutSpec::mask_value`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mask {
    seed: u64,
    row_offset: usize,
    scale: f32,
    threshold: u64,
}

impl Mask {
    /// Mask value of the element at logical `(row, col)` given `cols`
    /// columns per row: the spec's scale when kept, `0.0` when dropped.
    #[inline]
    pub fn value(&self, row: usize, col: usize, cols: usize) -> f32 {
        let counter = ((self.row_offset + row) * cols + col) as u64;
        if keep_word(SplitMix64::counter_word(self.seed, counter), self.threshold) {
            self.scale
        } else {
            0.0
        }
    }
}

/// The keep decision for a hashed counter word against
/// [`DropoutSpec::keep_threshold`]: its top 53 bits are the uniform draw.
#[inline]
fn keep_word(word: u64, threshold: u64) -> bool {
    (word >> 11) >= threshold
}

/// Computes the dropout mask as a matrix of `0.0` / `scale` values.
///
/// Multiplying elementwise by this mask applies (inverted) dropout; the same
/// mask is reused in the backward pass to route `dX̂` into `dX`.
///
/// Every element is a pure function of `(seed, row, col)`, so the mask can
/// be filled by disjoint row chunks on the worker pool without affecting a
/// single bit of the result.
pub fn dropout_mask(rows: usize, cols: usize, spec: &DropoutSpec) -> Result<Matrix> {
    spec.validate()?;
    let mut mask = Matrix::zeros(rows, cols);
    if rows == 0 || cols == 0 {
        return Ok(mask);
    }
    if spec.is_identity() {
        // No RNG evaluation needed: the identity mask is all ones.
        mask.as_mut_slice().fill(1.0);
        return Ok(mask);
    }
    let current = pool::current();
    let rows_per_chunk = rows.div_ceil(current.threads());
    pool::parallel_chunks_mut(
        current,
        mask.as_mut_slice(),
        rows_per_chunk * cols,
        |t, chunk| {
            let row0 = t * rows_per_chunk;
            let mask = spec.mask();
            for (r, row) in chunk.chunks_mut(cols).enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = mask.value(row0 + r, c, cols);
                }
            }
        },
    );
    Ok(mask)
}

/// Applies dropout to `x`, returning `(x̂, mask)`.
pub fn dropout_forward(x: &Matrix, spec: &DropoutSpec) -> Result<(Matrix, Matrix)> {
    let mask = dropout_mask(x.rows(), x.cols(), spec)?;
    let out = crate::ops::hadamard(x, &mask)?;
    Ok((out, mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_is_identity() {
        let x = Matrix::full(4, 4, 2.0);
        let (out, mask) = dropout_forward(&x, &DropoutSpec::new(0.0, 1)).unwrap();
        assert_eq!(out, x);
        assert_eq!(mask, Matrix::full(4, 4, 1.0));
    }

    #[test]
    fn invalid_probability_is_rejected() {
        assert!(dropout_mask(2, 2, &DropoutSpec::new(1.0, 1)).is_err());
        assert!(dropout_mask(2, 2, &DropoutSpec::new(-0.1, 1)).is_err());
    }

    #[test]
    fn drop_rate_approximates_probability() {
        let spec = DropoutSpec::new(0.3, 42);
        let mask = dropout_mask(200, 200, &spec).unwrap();
        let dropped = mask.as_slice().iter().filter(|&&v| v == 0.0).count();
        let rate = dropped as f64 / mask.len() as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn surviving_elements_are_scaled() {
        let spec = DropoutSpec::new(0.5, 7);
        let x = Matrix::full(16, 16, 1.0);
        let (out, _) = dropout_forward(&x, &spec).unwrap();
        for &v in out.as_slice() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn segment_masks_match_whole_batch_mask() {
        // The key losslessness property: computing dropout on row segments
        // with the appropriate offsets reproduces the whole-batch mask.
        let spec = DropoutSpec::new(0.25, 99);
        let full = dropout_mask(10, 8, &spec).unwrap();
        let top = dropout_mask(4, 8, &spec).unwrap();
        let bottom = dropout_mask(6, 8, &spec.with_row_offset(4)).unwrap();
        assert_eq!(full.slice_rows(0, 4).unwrap(), top);
        assert_eq!(full.slice_rows(4, 10).unwrap(), bottom);
    }

    /// The integer keep test must agree with the float comparison it
    /// replaces, `uniform_at(seed, counter) >= prob`, at edge
    /// probabilities: zero, the smallest subnormal, values whose
    /// `prob * 2^53` is and is not an integer, one half, and the largest
    /// `f32` below one.
    #[test]
    fn integer_keep_test_matches_float_comparison() {
        let probs = [
            0.0f32,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            1e-9,
            0.1,
            1.0 / 3.0,
            0.5,
            0.9,
            1.0 - f32::EPSILON / 2.0,
        ];
        for (i, &prob) in probs.iter().enumerate() {
            let spec = DropoutSpec::new(prob, 0xC0FFEE + i as u64);
            let threshold = spec.keep_threshold();
            // Words on both sides of the threshold, where a rounding slip
            // in the float form would show.
            for w in [threshold.saturating_sub(1), threshold, threshold + 1] {
                let w = w.min((1u64 << 53) - 1);
                let word = (w << 11) | 0x7FF;
                let float = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64) >= prob as f64;
                assert_eq!(keep_word(word, threshold), float, "p={prob} W={w}");
            }
            // A contiguous range of 10^6 counters, through both spellings.
            let cols = 1000;
            let mask = spec.mask();
            for r in 0..1000 {
                for c in 0..cols {
                    let counter = (r * cols + c) as u64;
                    let float = SplitMix64::uniform_at(spec.seed, counter) >= prob as f64;
                    assert_eq!(spec.keep(r, c, cols), float, "p={prob} counter={counter}");
                    let want = if float { spec.scale() } else { 0.0 };
                    assert_eq!(mask.value(r, c, cols), want, "p={prob} counter={counter}");
                }
            }
        }
    }

    #[test]
    fn mask_is_seed_dependent() {
        let a = dropout_mask(16, 16, &DropoutSpec::new(0.5, 1)).unwrap();
        let b = dropout_mask(16, 16, &DropoutSpec::new(0.5, 2)).unwrap();
        assert_ne!(a, b);
    }
}
