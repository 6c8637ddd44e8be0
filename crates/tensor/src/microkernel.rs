//! Register-tiled GEMM engine: shape-chosen operand feeds, an `MR x NR`
//! microkernel, fused pack-prologue / store-epilogue hooks, and 2D
//! macro-tile parallelism.
//!
//! Every GEMM layout (`NN`, `NT`, `TN`) lowers onto one compute path:
//!
//! 1. **Operand feeds.** The microkernel streams a `k`-major window of `MR`
//!    rows of `A` and `NR` columns of `B` (a [`Panel`]). Where a window
//!    comes from is a pure function of the call's shape and fusion hooks:
//!    * `A` is **packed whole, once, before the grid runs** when `n`
//!      spans several [`NC`] column blocks, because every `A` strip is then
//!      read by several macro-tiles (the square base GEMMs of wide layers).
//!      Packing runs in parallel, one strip range per pool task.
//!    * Otherwise (`n <= NC`: the rank-`r` down-projections `m x k x r`,
//!      the `TN` weight gradients, and every GEMM of a narrow layer) each
//!      `A` element is read by exactly one macro-tile, so a whole-matrix
//!      pack would only add a write and a re-read of a scratch copy of
//!      `A`. The task instead reads full `MR`-row strips **in place**, at
//!      their source strides (`(k, 1)` row-major, `(1, m)` transposed),
//!      and packs only a ragged edge strip, per [`KC`] block, into a
//!      task-local arena buffer. A dropout prologue with an emit buffer
//!      first writes the task's rows of `X̂` into that buffer (row-major
//!      layouts) and the kernels then read `X̂` in place from it, so `X`
//!      is read once and `X̂` written once. When `alpha != 1`, a
//!      softmax-grad transform, or a transform without a row-major emit
//!      buffer is requested, the in-place read cannot apply it, and `A`
//!      takes the whole-matrix pack above.
//!    * `B` is read in place when it is row-major (`NN`/`TN`) and either
//!      one row block reads each strip (`m <= MC`, the `r x tokens x n`
//!      weight gradients, where `B` is the big operand) or it is one
//!      `NR`-wide strip already laid out like a packed panel. Otherwise
//!      `B` — small in every LoRA shape — is packed whole, once.
//!
//!    On a 2-vCPU Xeon guest (one thread, best of 15, two runs), the
//!    rank-16 down-projection `3000 x 256 x 16` with dropout and `X̂`
//!    emission went from 6.07 ms to 1.13–1.34 ms this way, and from 2.43
//!    to 0.54 ms without dropout; the six rank-16 GEMMs of one LoRA
//!    training step at that shape went from 15.1 to 5.3–7.3 ms, against a
//!    2.4 ms FMA floor (147 MFLOP at ~62 GFLOP/s). The
//!    counter-based dropout keep test, evaluated once per element of `X`
//!    and once per element of `dX`, is what the fused down-projection
//!    still spends beyond its floor. A
//!    [`Prologue`] transforms `A` as it is staged: counter-based dropout
//!    is applied per element (the keep/drop decision is a pure function of
//!    `(seed, row, col)`, so *where* it is evaluated cannot change the
//!    result), and the post-dropout operand can be emitted to a second
//!    destination — this is how the fused LoRA forward produces `X̂` for
//!    the backward pass without a separate mask + hadamard sweep.
//! 2. **Microkernel.** An `MR x NR` accumulator tile is accumulated in
//!    registers in strictly ascending `kk` order, one [`KC`]-length block
//!    of the reduction per invocation. When `k` fits one block the tile is
//!    stored straight from the kernel's result; otherwise it parks in an
//!    exact `f32` task-local buffer between blocks (see [`KC`] for why this
//!    cannot change a bit). The kernel has four spellings selected by
//!    [`SimdPath`]: explicit AVX-512 and AVX2+FMA kernels (confined to
//!    `crate::simd`), a scalar `mul_add` twin that matches them bit for
//!    bit, and the historical auto-vectorized mul-then-add kernel for
//!    non-FMA hosts. The AVX-512 kernel accumulates a *tile group* — the
//!    2 x 2 block of adjacent tiles two `A` strips and two `B` strips span,
//!    12 x 32 outputs in 24 `zmm` registers — in one call; at the grid's
//!    far edges the group shrinks to 12 x 16, 6 x 32 or 6 x 16, and a grid
//!    one column strip wide (the `n = 16` rank-`r` outputs) runs 6 x 16. Every other spelling runs one tile per
//!    call. Grouping changes which register holds an element, never its
//!    chain, so the packing layouts, `MR`/`NR`/[`MC`]/[`NC`], the operand
//!    feeds and every output bit are the same on every path. All spellings
//!    read packed panels and in-place ones through the same strides. One
//!    invocation owns its output tiles exclusively. When a tile is
//!    complete it is stored exactly once, through an [`Epilogue`] applied
//!    while the values are still in registers, each row's tiles in
//!    ascending column order:
//!    overwrite, accumulate, scale-by-alpha, or
//!    accumulate-through-a-dropout-mask. This is what lets the LoRA
//!    executors drop their standalone `scale` / `hadamard` / `add`
//!    full-tensor passes.
//! 3. **2D macro-tiles.** Parallelism is over an `(i-block, j-block)` grid
//!    of [`MC`]` x `[`NC`] output tiles rather than row ranges, so skinny
//!    LoRA shapes (`m x k x r` and `r x k x n` with rank `r` in 16..=64,
//!    and 16-row `TN` weight-gradient GEMMs) still expose enough tasks to
//!    occupy the pool: a shape with one usable row block still has
//!    `ceil(n / NC)` independent column blocks, and vice versa.
//!
//! # Determinism
//!
//! Results are bitwise-identical at every thread count by construction:
//!
//! * every output element is owned by exactly one macro-tile task and,
//!   inside it, by exactly one microkernel invocation;
//! * the reduction order per element is a single ascending-`kk` chain over
//!   the full `k` extent — a pure function of the shape, never of the
//!   thread count or of which thread ran the tile. The chain is *executed*
//!   in [`KC`]-length blocks with the accumulator tile parked in an exact
//!   `f32` buffer between blocks, which reorders nothing and rounds
//!   nothing — the engine stays bitwise-equal to a naive ascending-`k`
//!   loop at *every* `k`, which the fuzz suite asserts;
//! * packing only copies values, multiplies by `alpha`, or multiplies by
//!   the deterministic dropout mask value, so it cannot perturb a bit; an
//!   in-place read sees the very values a pack would have copied (the feed
//!   is only chosen in place when `alpha == 1`); and zero padding in edge
//!   strips is written explicitly but only ever multiplies into padded
//!   accumulator lanes that are never stored;
//! * epilogues are applied per element exactly once, in the same
//!   expression shape as the multi-pass composition they replace
//!   (`c + alpha * p`, `c + p * mask`), so the fused result is
//!   bitwise-equal to the unfused one.
//!
//! `Epilogue::Overwrite` writes the tile with `=` instead of `+=`, which
//! removes the separate zeroing sweep over `C` — one full write pass saved
//! per call.

use std::ops::Range;

use crate::arena::Scratch;
use crate::dropout::{DropoutSpec, Mask};
use crate::pool::{self, Pool};
use crate::simd::{self, SimdPath, TileGroup};

/// Microkernel tile rows: rows of `C` accumulated per invocation.
///
/// `MR x NR = 6 x 16` is the FMA-bound register shape for AVX2: 12
/// accumulator vectors (6 rows x two 8-lane columns) plus two `B` vectors
/// and one broadcast fill 15 of the 16 ymm registers, and each `kk` step
/// issues 12 fused multiply-adds against only 8 load-port uops (6
/// broadcasts + 2 `B` loads) — the FMA ports saturate before the load
/// ports do. The earlier 8x8 shape was the opposite (9 load uops per 8
/// FMAs, load-port-bound at ~89% of FMA peak); 8x16 and 12x8 spill
/// registers and collapse entirely. The AVX-512 kernel keeps this tile
/// and computes a 2 x 2 group of them per call (24 zmm accumulators, 24
/// FMAs per 14 loads; see `crate::simd`).
pub const MR: usize = 6;
/// Microkernel tile columns: the vector lane dimension — two 8-lane AVX2
/// vectors per row (and two auto-vectorized lanes-of-8 in the scalar
/// spellings).
pub const NR: usize = 16;
/// Cache-blocking length of the `k` loop inside a macro-tile: the panels
/// the microkernel streams per invocation are `KC x MR` / `KC x NR`
/// windows (12 KiB / 32 KiB — together under a 48 KiB L1d), so one
/// `i`/`j` sweep's working set — the `A` block, the `B` block, and the
/// macro-tile's accumulator buffer — stays L2-resident instead of
/// streaming full-`k` strips per tile. `KC` is
/// *not* part of the numeric contract: the accumulator tile round-trips
/// through an `f32` buffer between blocks, and an `f32` store/load is
/// exact, so the per-element reduction is still one ascending-`k` chain
/// regardless of `k` — bitwise-equal to the unblocked loop at every `k`,
/// which the fuzz suite asserts.
///
/// The AVX-512 tile group streams two windows of each operand (24 KiB /
/// 64 KiB), more than the L1d. Its rates at `KC` 128, 256 and 512 on a
/// 2-vCPU Sapphire Rapids guest stayed within run-to-run noise of each
/// other, so every path shares this `KC`.
pub const KC: usize = 512;
/// Macro-tile rows (`i`-block). Must be a multiple of [`MR`] so packed row
/// strips never straddle two macro-tiles.
pub const MC: usize = 120;
/// Macro-tile columns (`j`-block). Must be a multiple of [`NR`].
pub const NC: usize = 256;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

/// Transpose layout of a GEMM call; selects the packing gathers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `C = A @ B` — `A` is `m x k`, `B` is `k x n`.
    Nn,
    /// `C = A @ Bᵀ` — `A` is `m x k`, `B` is `n x k`.
    Nt,
    /// `C = Aᵀ @ B` — `A` is `k x m`, `B` is `k x n`.
    Tn,
}

impl Layout {
    /// Lower-case tag used by benches and result files.
    pub fn tag(self) -> &'static str {
        match self {
            Layout::Nn => "nn",
            Layout::Nt => "nt",
            Layout::Tn => "tn",
        }
    }
}

/// Store-epilogue applied to each completed accumulator tile, while it is
/// still in registers. `P` below is the packed-alpha product
/// `(alpha * A') @ B'`.
///
/// Each variant is the register-resident equivalent of a multi-pass
/// composition, with the identical per-element expression shape, so fused
/// and unfused results are bitwise-equal:
///
/// | variant            | computes              | replaces                              |
/// |--------------------|-----------------------|---------------------------------------|
/// | `Overwrite`        | `C = P`               | `matmul(...)`                         |
/// | `Add`              | `C += P`              | `add(C, matmul(...))`                 |
/// | `Scaled(s)`        | `C = s * P`           | `scale(s, matmul(...))`               |
/// | `AddScaled(s)`     | `C += s * P`          | `add(C, scale(s, matmul(...)))`       |
/// | `AddMasked(spec)`  | `C += P * mask(i, j)` | `add(C, hadamard(matmul(...), mask))` |
///
/// `AddMasked` regenerates the counter-based dropout mask value analytically
/// from `(seed, row, col)` — the mask matrix itself is never materialized.
/// The multiply by `0.0` for dropped elements is kept (rather than a skip)
/// so non-finite values propagate exactly as `hadamard` would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Epilogue {
    /// `C = P`.
    Overwrite,
    /// `C += P`.
    Add,
    /// `C = s * P`.
    Scaled(f32),
    /// `C += s * P`.
    AddScaled(f32),
    /// `C += P * mask(i, j)` with the mask value from `spec` at the
    /// output's logical coordinates (`spec.row_offset` shifts rows, so a
    /// row-window GEMM reproduces the whole-batch mask).
    AddMasked(DropoutSpec),
}

/// Softmax-gradient pack transform: replaces each logical-`A` element
/// `v` at `(row, col)` with
/// `scale * (exp(v - lse[row]) - onehot(col == targets[row]))` while the
/// panel is gathered (see [`crate::loss::softmax_grad`]).
///
/// This is the dlogits producer of the chunked fused linear+cross-entropy:
/// the backward GEMM packs the *logits* chunk through this transform, so
/// the `[chunk x vocab]` gradient matrix is never materialized. The
/// transform is a pure function of `(v, row, col)` and the per-row `lse`
/// / `targets` tables, so *where* it is evaluated (which strip, which
/// thread, row-major or transposed gather) cannot change a bit.
#[derive(Clone, Copy)]
pub struct SoftmaxGradSpec<'a> {
    /// Per-logical-row log-sum-exp of the `A` operand; length `m`.
    pub lse: &'a [f32],
    /// Per-logical-row target class index; length `m`, each `< k`.
    pub targets: &'a [u32],
    /// Loss scale folded into the gradient (for mean reduction,
    /// `1 / total_tokens`).
    pub scale: f32,
}

impl SoftmaxGradSpec<'_> {
    /// Transform of one logical-`A` element at `(row, col)`.
    #[inline]
    fn apply(&self, v: f32, row: usize, col: usize) -> f32 {
        crate::loss::softmax_grad(
            v,
            self.lse[row],
            self.targets[row] as usize == col,
            self.scale,
        )
    }
}

/// Pack-prologue applied to the `A` operand while its panels are gathered.
///
/// * `dropout` multiplies each element by its counter-based mask value
///   (`spec.scale()` or `0.0`) in the *source* matrix's coordinates, so the
///   packed operand is bitwise-identical to `hadamard(A, mask)` without a
///   mask matrix or an extra pass.
/// * `softmax_grad` rewrites each element through
///   [`crate::loss::softmax_grad`] in *logical* `A` coordinates (row of
///   the `m x k` operand, column along `k`), turning a logits operand
///   into its cross-entropy gradient in-flight. Mutually exclusive with
///   `dropout` (enforced by `matmul::check_fusion`).
/// * `emit` additionally writes the post-transform (pre-`alpha`) operand
///   to a buffer with the same layout and length as the `A` source. This
///   is how the fused LoRA forward saves `X̂` for the backward pass during
///   the K1 pack. Strips write disjoint regions, so parallel packing stays
///   safe and deterministic.
#[derive(Default)]
pub struct Prologue<'a> {
    /// Counter-based dropout applied to `A` during packing.
    pub dropout: Option<DropoutSpec>,
    /// Softmax-gradient transform applied to `A` during packing.
    pub softmax_grad: Option<SoftmaxGradSpec<'a>>,
    /// Second destination receiving the post-transform `A` operand; must
    /// have exactly the length of the `A` source slice.
    pub emit: Option<&'a mut [f32]>,
}

impl<'a> Prologue<'a> {
    /// The empty prologue: pack `A` unchanged.
    pub fn none() -> Self {
        Self::default()
    }

    /// Dropout-only prologue.
    pub fn dropout(spec: DropoutSpec) -> Self {
        Self {
            dropout: Some(spec),
            softmax_grad: None,
            emit: None,
        }
    }

    /// Softmax-gradient-only prologue.
    pub fn softmax_grad(spec: SoftmaxGradSpec<'a>) -> Self {
        Self {
            dropout: None,
            softmax_grad: Some(spec),
            emit: None,
        }
    }
}

/// Raw base pointer for handing disjoint tile regions to pool tasks.
struct SendPtr(*mut f32);
// SAFETY: tasks write only the `MR x NR`-aligned tile regions assigned by
// the row-band partition, and the output allocation outlives the scope.
unsafe impl Send for SendPtr {}
// SAFETY: shared references only hand out the raw pointer; tile regions
// handed to different tasks are disjoint, so no data race is possible.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than a public field) so closures capture the whole
    /// `Sync` wrapper instead of disjointly capturing the raw pointer.
    fn get(&self) -> *mut f32 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Panels and packing
//
// Packed `A`: strip `s` holds logical rows `s*MR .. s*MR+MR`, element
// `(kk, r)` at `kk*MR + r` within the strip. Packed `B`: strip `t` holds
// logical columns `t*NR .. t*NR+NR`, element `(kk, c)` at `kk*NR + c`.
// Whole-matrix packs put strip `s` at offset `s*k*MR` (`t*k*NR`); block
// packs hold one `KC`-long window of a strip. Rows/columns beyond the edge
// are explicit zeros (scratch buffers are reused, so stale bytes must never
// survive packing).
// ---------------------------------------------------------------------------

/// A `kc`-step window of one operand as the microkernel streams it: lane
/// `l` of step `kk` is `data[kk * k_stride + l * lane_stride]`.
///
/// Packed panels are `(lane_stride, k_stride) = (1, MR)` for `A` and
/// `(1, NR)` for `B`. Operands read in place keep their source strides:
/// a row-major `A` is `(k, 1)`, a transposed (`TN`) `A` is `(1, m)` and a
/// row-major `B` is `(1, n)`. `B` lanes must be contiguous
/// (`lane_stride == 1`): the kernels load them as vectors.
#[derive(Clone, Copy)]
pub(crate) struct Panel<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) lane_stride: usize,
    pub(crate) k_stride: usize,
}

impl<'a> Panel<'a> {
    /// A panel holding no steps: the placeholder for the unused strips
    /// of a ragged tile group.
    const EMPTY: Panel<'static> = Panel {
        data: &[],
        lane_stride: 1,
        k_stride: 0,
    };

    fn packed_a(data: &'a [f32]) -> Self {
        Self {
            data,
            lane_stride: 1,
            k_stride: MR,
        }
    }

    fn packed_b(data: &'a [f32]) -> Self {
        Self {
            data,
            lane_stride: 1,
            k_stride: NR,
        }
    }

    /// Number of steps whose `lanes` lanes all lie inside `data`. The
    /// kernels clamp their step count to it, which makes them total: a
    /// panel shorter than its shape claims computes fewer steps instead of
    /// reading out of bounds.
    pub(crate) fn max_steps(&self, lanes: usize) -> usize {
        let span = lanes
            .saturating_sub(1)
            .saturating_mul(self.lane_stride)
            .saturating_add(1);
        match self.data.len().checked_sub(span) {
            None => 0,
            Some(_) if self.k_stride == 0 => usize::MAX,
            Some(rest) => rest / self.k_stride + 1,
        }
    }
}

/// Per-strip view of the prologue, capturable by `Sync` pack closures.
#[derive(Clone, Copy)]
struct PackFusion<'a> {
    dropout: Option<DropoutSpec>,
    softmax_grad: Option<SoftmaxGradSpec<'a>>,
    /// Base of the emit buffer (same layout and length as the `A` source).
    emit: Option<*mut f32>,
}

impl PackFusion<'_> {
    const NONE: PackFusion<'static> = PackFusion {
        dropout: None,
        softmax_grad: None,
        emit: None,
    };

    /// Applies the softmax-grad transform at *logical* `A` coordinates
    /// `(row, col)` — the coordinates of the `m x k` operand the GEMM
    /// multiplies, regardless of which gather packed it.
    #[inline]
    fn softmax(&self, x: f32, row: usize, col: usize) -> f32 {
        match self.softmax_grad {
            Some(sg) => sg.apply(x, row, col),
            None => x,
        }
    }
}

// SAFETY: `emit` points into a buffer the submitting `gemm` call borrows
// mutably for its whole duration; the regions written through it are
// pairwise disjoint per strip and per task.
unsafe impl Send for PackFusion<'_> {}
// SAFETY: same argument as `Send` above — shared references only read the
// configuration fields; all writes through `emit` target disjoint strips.
unsafe impl Sync for PackFusion<'_> {}

/// Multiplies `src` by its dropout mask values — row `row`, columns
/// `col0 ..` of a `cols`-wide source — into `dst`; copies when `mask` is
/// `None`. `src` and `dst` have equal lengths.
fn apply_dropout_row(
    mask: Option<Mask>,
    src: &[f32],
    dst: &mut [f32],
    row: usize,
    col0: usize,
    cols: usize,
) {
    let Some(mask) = mask else {
        dst.copy_from_slice(src);
        return;
    };
    for (c, (d, &v)) in dst.iter_mut().zip(src).enumerate() {
        *d = v * mask.value(row, col0 + c, cols);
    }
}

/// Packs the `ks` window of one `MR`-row strip of a row-major `m x k`
/// matrix, folding `alpha` and applying the pack fusion (dropout in source
/// coordinates, then the softmax-grad transform in logical coordinates,
/// then optional emission of the post-transform value at the source
/// element's offset). `out` holds `ks.len() * MR` elements.
#[allow(clippy::too_many_arguments)] // one argument per gather coordinate
fn pack_a_strip_rowmajor_fused(
    av: &[f32],
    m: usize,
    k: usize,
    alpha: f32,
    i0: usize,
    ks: Range<usize>,
    fusion: PackFusion<'_>,
    out: &mut [f32],
) {
    let mask = fusion.dropout.map(|spec| spec.mask());
    for r in 0..MR {
        let row = i0 + r;
        if row >= m {
            for kk in 0..ks.len() {
                out[kk * MR + r] = 0.0;
            }
            continue;
        }
        let src = &av[row * k + ks.start..row * k + ks.end];
        for (kk, &v) in src.iter().enumerate() {
            let col = ks.start + kk;
            let x = match mask {
                Some(mask) => v * mask.value(row, col, k),
                None => v,
            };
            let x = fusion.softmax(x, row, col);
            if let Some(e) = fusion.emit {
                // SAFETY: offset `row*k + col` is in-bounds of the emit
                // buffer (length == av.len() == m*k) and owned by this
                // strip alone.
                unsafe { *e.add(row * k + col) = x };
            }
            out[kk * MR + r] = alpha * x;
        }
    }
}

/// Packs the `ks` window of one `MR`-row strip of the *transpose* of a
/// row-major `k x m` matrix (the `TN` left operand), folding `alpha` and
/// the pack fusion. Dropout and emission use the source's own
/// `(kk, col)` coordinates; the softmax-grad transform uses the *logical*
/// (transposed) ones.
#[allow(clippy::too_many_arguments)] // one argument per gather coordinate
fn pack_a_strip_transposed_fused(
    av: &[f32],
    m: usize,
    alpha: f32,
    i0: usize,
    ks: Range<usize>,
    fusion: PackFusion<'_>,
    out: &mut [f32],
) {
    let avail = m.saturating_sub(i0).min(MR);
    let mask = fusion.dropout.map(|spec| spec.mask());
    for (kk, dst) in ks.zip(out.chunks_exact_mut(MR)) {
        // The gather reads `MR` floats per source row with an `m`-element
        // stride between rows; prefetching a few rows ahead hides the
        // stride the hardware prefetcher gives up on for large `m`.
        simd::prefetch_read(av.as_ptr().wrapping_add((kk + 4) * m + i0));
        let src = &av[kk * m + i0..kk * m + i0 + avail];
        for (r, &v) in src.iter().enumerate() {
            let x = match mask {
                Some(mask) => v * mask.value(kk, i0 + r, m),
                None => v,
            };
            let x = fusion.softmax(x, i0 + r, kk);
            if let Some(e) = fusion.emit {
                // SAFETY: offset `kk*m + i0 + r` is in-bounds of the emit
                // buffer (length == av.len() == k*m) and owned by this
                // strip's column range alone.
                unsafe { *e.add(kk * m + i0 + r) = x };
            }
            dst[r] = alpha * x;
        }
        dst[avail..].fill(0.0);
    }
}

/// Packs the `ks` window of one `NR`-column strip of a row-major `k x n`
/// matrix.
fn pack_b_strip_rowmajor(bv: &[f32], n: usize, j0: usize, ks: Range<usize>, out: &mut [f32]) {
    let avail = n.saturating_sub(j0).min(NR);
    for (kk, dst) in ks.zip(out.chunks_exact_mut(NR)) {
        dst[..avail].copy_from_slice(&bv[kk * n + j0..kk * n + j0 + avail]);
        dst[avail..].fill(0.0);
    }
}

/// `kk`-block length for the transposed gathers. A block keeps one
/// `PACK_KB x NR` destination window (`16 KiB`) plus `NR` source row
/// segments resident in L1 while the transpose walks them, instead of
/// streaming the whole `k x NR` strip through cache once per source row.
/// Purely a traversal choice: the values written are identical to the
/// unblocked gather, which the packing tests assert.
const PACK_KB: usize = 256;

/// Packs the `ks` window of one `NR`-column strip of the *transpose* of a
/// row-major `n x k` matrix (the `NT` right operand), `kk`-blocked with
/// the next source row segment prefetched while the current one is
/// gathered.
fn pack_b_strip_transposed(
    bv: &[f32],
    k: usize,
    n: usize,
    j0: usize,
    ks: Range<usize>,
    out: &mut [f32],
) {
    let avail = n.saturating_sub(j0).min(NR);
    let mut kb = ks.start;
    while kb < ks.end {
        let kend = (kb + PACK_KB).min(ks.end);
        for c in 0..avail {
            if c + 1 < avail {
                simd::prefetch_read(bv.as_ptr().wrapping_add((j0 + c + 1) * k + kb));
            }
            let src = &bv[(j0 + c) * k + kb..(j0 + c) * k + kend];
            for (kk, &v) in src.iter().enumerate() {
                out[(kb - ks.start + kk) * NR + c] = v;
            }
        }
        kb = kend;
    }
    if avail < NR {
        for dst in out.chunks_exact_mut(NR).take(ks.len()) {
            dst[avail..].fill(0.0);
        }
    }
}

/// Packs strips `first .. first + strips` of one operand in parallel into
/// consecutive `strip_len` slots of `out`. `strip_len` is `k*MR` (for `A`)
/// or `k*NR` (for `B`); strips are disjoint, so tasks write disjoint
/// regions of `out`. Content is a pure copy/transform per strip —
/// identical at any thread count. A 1-thread pool takes the serial path
/// without touching the allocator.
fn pack_parallel(
    pool: &Pool,
    out: &mut [f32],
    first: usize,
    strips: usize,
    strip_len: usize,
    pack_strip: &(dyn Fn(usize, &mut [f32]) + Sync),
) {
    count_panels(strips);
    if strip_len == 0 {
        return; // `k == 0`: empty strips, nothing to write.
    }
    if pool.threads() <= 1 || strips <= 1 {
        for (s, slot) in out.chunks_exact_mut(strip_len).take(strips).enumerate() {
            pack_strip(first + s, slot);
        }
        return;
    }
    let ranges = pool::split_evenly(strips, pool.threads());
    if ranges.len() <= 1 {
        for (s, slot) in out.chunks_exact_mut(strip_len).take(strips).enumerate() {
            pack_strip(first + s, slot);
        }
        return;
    }
    let base = SendPtr(out.as_mut_ptr());
    let base = &base;
    pool.run(ranges.len(), &|t| {
        for s in ranges[t].clone() {
            // SAFETY: strip regions are pairwise disjoint and in-bounds.
            let strip =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(s * strip_len), strip_len) };
            pack_strip(first + s, strip);
        }
    });
}

/// Bumps `gemm.panels_packed` by `strips` (whole-matrix strips or
/// per-block strip windows).
fn count_panels(strips: usize) {
    use std::sync::OnceLock;
    static PANELS: OnceLock<lorafusion_trace::metrics::Counter> = OnceLock::new();
    PANELS
        .get_or_init(|| lorafusion_trace::metrics::counter("gemm.panels_packed"))
        .add(strips as u64);
}

// ---------------------------------------------------------------------------
// Microkernel and macro-tile driver
// ---------------------------------------------------------------------------

/// Accumulates `kc` outer products into the register tile, in strictly
/// ascending `kk` order. The `NR` lane loop has constant bounds and
/// independent lanes, so the compiler vectorizes it. Total: the step count
/// is clamped to what both panels hold, and every read is a checked `get`.
#[inline]
fn microkernel(a: Panel<'_>, b: Panel<'_>, kc: usize, acc: &mut [[f32; NR]; MR]) {
    let kc = kc.min(a.max_steps(MR)).min(b.max_steps(NR));
    for kk in 0..kc {
        let (Some(arow), Some(brow)) =
            (a.data.get(kk * a.k_stride..), b.data.get(kk * b.k_stride..))
        else {
            return;
        };
        for (&ai, acc_row) in arow
            .iter()
            .step_by(a.lane_stride.max(1))
            .zip(acc.iter_mut())
        {
            for (c, &bv) in acc_row.iter_mut().zip(brow) {
                *c += ai * bv;
            }
        }
    }
}

/// Scalar twin of the AVX2 kernel ([`SimdPath::ScalarFma`]): the same
/// loop structure as [`microkernel`] but accumulating with
/// `f32::mul_add`, whose single correctly-rounded step matches the
/// vector kernel's `vfmaddps` bit for bit. This is what
/// `LORAFUSION_SIMD=0` executes on FMA hosts, keeping the env override
/// bitwise-neutral (see `crate::simd` for the purity rules).
#[inline]
fn microkernel_fma(a: Panel<'_>, b: Panel<'_>, kc: usize, acc: &mut [[f32; NR]; MR]) {
    let kc = kc.min(a.max_steps(MR)).min(b.max_steps(NR));
    for kk in 0..kc {
        let (Some(arow), Some(brow)) =
            (a.data.get(kk * a.k_stride..), b.data.get(kk * b.k_stride..))
        else {
            return;
        };
        for (&ai, acc_row) in arow
            .iter()
            .step_by(a.lane_stride.max(1))
            .zip(acc.iter_mut())
        {
            for (c, &bv) in acc_row.iter_mut().zip(brow) {
                *c = ai.mul_add(bv, *c);
            }
        }
    }
}

/// Accumulates the group of `a.len() x b.len()` tiles (at most the
/// path's [`SimdPath::tile_group`]) spanned by the row strips `a` and
/// the column strips `b`; tile `(r, c)` is slot `r * 2 + c` of `acc`. The
/// AVX-512 path computes the whole group in one register block, the
/// others one tile per kernel call (see [`crate::simd`] for how paths are
/// resolved) — the same bits either way, since every spelling shares the
/// ascending-`kk` per-element reduction order.
#[inline]
fn run_group(path: SimdPath, a: &[Panel<'_>], b: &[Panel<'_>], kc: usize, acc: &mut TileGroup) {
    let tile_kernel: fn(Panel<'_>, Panel<'_>, usize, &mut [[f32; NR]; MR]) = match path {
        SimdPath::Avx512Fma => return simd::microkernel_avx512(a, b, kc, acc),
        SimdPath::Avx2Fma => simd::microkernel_avx2,
        SimdPath::ScalarFma => microkernel_fma,
        SimdPath::Scalar => microkernel,
    };
    for (r, &ap) in a.iter().enumerate() {
        for (c, &bp) in b.iter().enumerate() {
            if let Some(tile) = acc.get_mut(r * 2 + c) {
                tile_kernel(ap, bp, kc, tile);
            }
        }
    }
}

/// Writes the live `rows x cols` corner of a completed accumulator tile
/// into `C` at `(i0, j0)` through `epilogue`. Runs exactly once per output
/// element per GEMM call.
///
/// When `rowmax_slot` is set, the maximum of each *stored* row segment is
/// folded into the per-row slot at `rowmax_slot + i0 + r` while the values
/// are still hot: the first `j`-tile of the macro-tile initializes the
/// slot, later tiles merge with [`f32::max`]. Column order within the
/// macro-tile is ascending `j0`, and `max` is an exact selection, so the
/// folded value equals a linear scan of the macro-tile's column range (the
/// chunk-merge contract in [`crate::loss`]).
///
/// # Safety
///
/// The caller must guarantee the `rows x cols` region at `(i0, j0)` of the
/// `.. x n` matrix at `cbase` is in-bounds and not concurrently accessed,
/// and that `rowmax_slot`, when set, points at storage where indices
/// `i0 .. i0 + rows` are in-bounds and owned by this macro-tile alone.
#[allow(clippy::too_many_arguments)]
unsafe fn store_tile(
    acc: &[[f32; NR]; MR],
    cbase: *mut f32,
    n: usize,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
    epilogue: Epilogue,
    rowmax_slot: Option<*mut f32>,
    first_jtile: bool,
) {
    let mask = match epilogue {
        Epilogue::AddMasked(spec) => spec.mask(),
        _ => DropoutSpec::new(0.0, 0).mask(),
    };
    for (r, acc_row) in acc.iter().enumerate().take(rows) {
        // SAFETY: per this function's contract the `rows x cols` region at
        // `(i0, j0)` is in-bounds and unaliased, so row `i0 + r` has `cols`
        // valid, exclusively-owned elements starting at column `j0`; and
        // the row-max slot at `i0 + r`, when requested, is in-bounds and
        // owned by this macro-tile.
        let (dst, mslot) = unsafe {
            (
                std::slice::from_raw_parts_mut(cbase.add((i0 + r) * n + j0), cols),
                rowmax_slot.map(|p| &mut *p.add(i0 + r)),
            )
        };
        match epilogue {
            Epilogue::Overwrite => dst.copy_from_slice(&acc_row[..cols]),
            Epilogue::Add => {
                for (d, v) in dst.iter_mut().zip(acc_row) {
                    *d += v;
                }
            }
            Epilogue::Scaled(s) => {
                for (d, v) in dst.iter_mut().zip(acc_row) {
                    *d = s * v;
                }
            }
            Epilogue::AddScaled(s) => {
                for (d, v) in dst.iter_mut().zip(acc_row) {
                    *d += s * v;
                }
            }
            Epilogue::AddMasked(_) => {
                for (c, (d, v)) in dst.iter_mut().zip(acc_row).enumerate() {
                    // Always multiply (never branch to skip) so non-finite
                    // products propagate exactly as `hadamard` would.
                    *d += v * mask.value(i0 + r, j0 + c, n);
                }
            }
        }
        if let Some(slot) = mslot {
            // Max over the values as *stored* (post-epilogue), folded in
            // ascending column order within the tile row.
            let tile_max = dst.iter().fold(f32::NEG_INFINITY, |a, &v| a.max(v));
            *slot = if first_jtile {
                tile_max
            } else {
                slot.max(tile_max)
            };
        }
    }
}

/// How the `A` operand reaches the microkernel in one GEMM call — a pure
/// function of the call's shape and fusion hooks (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AFeed {
    /// Several column blocks reuse every `A` strip, or the operand needs
    /// `alpha` folded or a transform the in-place read cannot apply: all
    /// strips are packed once, before the grid runs.
    Prepacked,
    /// One column block: full strips are read where they lie — in the
    /// source, or in the emit buffer the dropout prologue has just written
    /// for the task's rows — and only an edge strip is packed, per block.
    InPlace,
}

/// The operands and shape of one GEMM call, shared read-only by every
/// macro-tile task.
struct Grid<'a> {
    path: SimdPath,
    layout: Layout,
    av: &'a [f32],
    bv: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
    fusion: PackFusion<'a>,
    epilogue: Epilogue,
    afeed: AFeed,
    /// Whole-matrix packed `A` strips ([`AFeed::Prepacked`] only).
    apack: &'a [f32],
    /// `B` column strips `< b_in_place` are read in place from `bv`; the
    /// rest are packed whole-matrix into `bpack`, starting at slot 0.
    b_in_place: usize,
    bpack: &'a [f32],
}

impl Grid<'_> {
    /// The `kb .. kb + kc` window of `B` column strip `j0 / NR`.
    fn b_panel(&self, j0: usize, kb: usize, kc: usize) -> Panel<'_> {
        let t = j0 / NR;
        if t < self.b_in_place {
            // `get`: with `k == 0` the source is empty and the panel holds
            // no steps, whatever its column.
            Panel {
                data: self.bv.get(kb * self.n + j0..).unwrap_or(&[]),
                lane_stride: 1,
                k_stride: self.n,
            }
        } else {
            let slot = (t - self.b_in_place) * self.k * NR;
            Panel::packed_b(&self.bpack[slot + kb * NR..][..kc * NR])
        }
    }
}

/// The `kb .. kb + kc` window of the `t`-th `A` strip of the macro-tile
/// whose rows start at `i_lo`: strips `< full_strips` of an in-place feed
/// read their source (or the task's transformed `emit_rows`), the others
/// their packed panel.
#[allow(clippy::too_many_arguments)] // one argument per tile coordinate
fn a_panel<'s>(
    g: &'s Grid<'_>,
    emit_rows: Option<&'s [f32]>,
    abuf: Option<&'s [f32]>,
    i_lo: usize,
    t: usize,
    full_strips: usize,
    kb: usize,
    kc: usize,
) -> Panel<'s> {
    let (m, k) = (g.m, g.k);
    let i0 = i_lo + t * MR;
    let abuf = abuf.unwrap_or(&[]);
    match g.afeed {
        AFeed::Prepacked => Panel::packed_a(&g.apack[(i0 / MR) * k * MR + kb * MR..][..kc * MR]),
        AFeed::InPlace if t < full_strips => match (emit_rows, g.layout) {
            (Some(er), _) => Panel {
                data: &er[(i0 - i_lo) * k + kb..],
                lane_stride: k,
                k_stride: 1,
            },
            (None, Layout::Tn) => Panel {
                data: g.av.get(kb * m + i0..).unwrap_or(&[]),
                lane_stride: 1,
                k_stride: m,
            },
            (None, _) => Panel {
                data: &g.av[i0 * k + kb..],
                lane_stride: k,
                k_stride: 1,
            },
        },
        AFeed::InPlace => Panel::packed_a(&abuf[..kc * MR]),
    }
}

/// Computes one `MC x NC` macro-tile of `C`.
///
/// The `k` reduction is blocked by [`KC`]: for each `kb` block the loop
/// order is `j`-strip → `i`-strip, so the `KC x NR` `B` window (32 KiB)
/// stays L1-resident across the `i` loop and the whole block working set
/// (`A` window + `B` window + accumulator tiles, ≤ 512 KiB) stays
/// L2-resident. With a streamed `A` feed the block's `A` strips are staged
/// at the top of each block (dropout written into the task's emit rows,
/// edge or transformed strips packed into a task-local arena buffer) so
/// they too are cache-resident when the kernels read them.
///
/// When `k` fits one block, each tile is computed by one kernel call from a
/// zeroed register tile and stored at once. Otherwise each tile parks in a
/// task-local accumulator buffer between blocks; the round-trip is an
/// exact `f32` copy, so the per-element reduction order (one
/// ascending-`kk` chain) and therefore every output bit is identical to the
/// unblocked loop. Tiles are stored exactly once through the epilogue.
fn macro_tile(
    g: &Grid<'_>,
    cbase: *mut f32,
    i_range: Range<usize>,
    j_range: Range<usize>,
    rowmax_slot: Option<*mut f32>,
    mut emit_rows: Option<&mut [f32]>,
) {
    let (m, k, n) = (g.m, g.k, g.n);
    let i_lo = i_range.start;
    let strips_i = i_range.len().div_ceil(MR);
    let strips_j = j_range.len().div_ceil(NR);
    let full_strips = if g.afeed == AFeed::InPlace {
        i_range.len() / MR
    } else {
        0
    };
    let single_block = k <= KC;
    let mut abuf = (full_strips < strips_i && g.afeed == AFeed::InPlace)
        .then(|| Scratch::take_aligned(KC * MR));
    let mut accbuf = (!single_block).then(|| Scratch::take_aligned(strips_i * strips_j * MR * NR));
    let mut parked = accbuf.as_deref_mut().map(|buf| {
        let tiles = buf.as_chunks_mut::<NR>().0.as_chunks_mut::<MR>().0;
        tiles.fill([[0.0; NR]; MR]);
        tiles
    });
    let store = |acc: &[[f32; NR]; MR], i0: usize, j0: usize| {
        // SAFETY: this macro-tile exclusively owns the `i_range x j_range`
        // region of `C` and rows `i_range` of its row-max partial column,
        // and `(i0, j0)` plus the clipped tile stays inside it.
        unsafe {
            store_tile(
                acc,
                cbase,
                n,
                i0,
                j0,
                MR.min(i_range.end - i0),
                NR.min(j_range.end - j0),
                g.epilogue,
                rowmax_slot,
                j0 == j_range.start,
            )
        }
    };

    // A grid one column strip wide (the `n = 16` rank-`r` outputs) runs
    // one 6x16 tile per call: there the AVX-512 path's 12x16 group ran
    // the `tn` weight gradient ~20% slower than 6x16 tiles.
    let (gi, gj) = if strips_j == 1 {
        (1, 1)
    } else {
        g.path.tile_group()
    };
    let mut group: TileGroup = [[[0.0; NR]; MR]; 4];
    let mut kb = 0;
    loop {
        let kend = (kb + KC).min(k);
        let kc = kend - kb;
        // Stage this block's `A` strips.
        if g.afeed == AFeed::InPlace {
            if let Some(er) = emit_rows.as_deref_mut() {
                let mask = g.fusion.dropout.map(|spec| spec.mask());
                for row in i_range.clone() {
                    let src = &g.av[row * k + kb..row * k + kend];
                    let dst = &mut er[(row - i_lo) * k + kb..(row - i_lo) * k + kend];
                    apply_dropout_row(mask, src, dst, row, kb, k);
                }
            }
            if let Some(buf) = abuf.as_deref_mut() {
                // The edge strip, from the already-transformed rows.
                let i0 = i_lo + full_strips * MR;
                let out = &mut buf[..kc * MR];
                match (emit_rows.as_deref(), g.layout) {
                    (Some(er), _) => pack_a_strip_rowmajor_fused(
                        er,
                        i_range.len(),
                        k,
                        1.0,
                        i0 - i_lo,
                        kb..kend,
                        PackFusion::NONE,
                        out,
                    ),
                    (None, Layout::Tn) => pack_a_strip_transposed_fused(
                        g.av,
                        m,
                        1.0,
                        i0,
                        kb..kend,
                        PackFusion::NONE,
                        out,
                    ),
                    (None, _) => pack_a_strip_rowmajor_fused(
                        g.av,
                        m,
                        k,
                        1.0,
                        i0,
                        kb..kend,
                        PackFusion::NONE,
                        out,
                    ),
                }
                count_panels(1);
            }
        }

        let (er, ab) = (emit_rows.as_deref(), abuf.as_deref());
        let a_panel = |t: usize| a_panel(g, er, ab, i_lo, t, full_strips, kb, kc);
        // Tile groups: `gi x gj` adjacent strips per kernel call, ragged
        // at the grid's far edges. Within a group, and across the `tj`
        // loop, each row strip's tiles are stored in ascending column
        // order, as the row-max sink's `first_jtile` contract needs.
        for tj in (0..strips_j).step_by(gj) {
            let nj = gj.min(strips_j - tj);
            let j0 = j_range.start + tj * NR;
            let mut bpanels = [Panel::EMPTY; 2];
            for (c, p) in bpanels.iter_mut().enumerate().take(nj) {
                *p = g.b_panel(j0 + c * NR, kb, kc);
            }
            for ti in (0..strips_i).step_by(gi) {
                let ni = gi.min(strips_i - ti);
                let mut apanels = [Panel::EMPTY; 2];
                for (r, p) in apanels.iter_mut().enumerate().take(ni) {
                    *p = a_panel(ti + r);
                }
                // Slot `(r, c)` of the group is parked tile `(ti + r, tj + c)`.
                let slots = || (0..ni).flat_map(move |r| (0..nj).map(move |c| (r, c)));
                let parked_at = |r: usize, c: usize| (ti + r) * strips_j + tj + c;
                for (r, c) in slots() {
                    group[r * 2 + c] = match parked.as_deref() {
                        Some(parked) => parked[parked_at(r, c)],
                        None => [[0.0; NR]; MR],
                    };
                }
                run_group(g.path, &apanels[..ni], &bpanels[..nj], kc, &mut group);
                for (r, c) in slots() {
                    match parked.as_deref_mut() {
                        Some(parked) => parked[parked_at(r, c)] = group[r * 2 + c],
                        None => store(&group[r * 2 + c], i_lo + (ti + r) * MR, j0 + c * NR),
                    }
                }
            }
        }
        kb = kend;
        if kb >= k {
            break;
        }
    }
    if let Some(tiles) = parked {
        for tj in 0..strips_j {
            for ti in 0..strips_i {
                store(
                    &tiles[ti * strips_j + tj],
                    i_lo + ti * MR,
                    j_range.start + tj * NR,
                );
            }
        }
    }
}

/// Runs one GEMM: picks the operand feeds, packs what must be packed
/// before the grid runs, and runs the macro-tile grid on `pool`, storing
/// each tile through the epilogue.
///
/// `av`/`bv` are interpreted per `layout`; `cv` is the row-major `m x n`
/// output. `prologue.emit`, when present, must have exactly `av.len()`
/// elements (the shape check lives in `matmul`). `k == 0` is handled by
/// the normal path: empty panels leave every accumulator tile zero, and
/// the epilogue is still applied (`Overwrite` clears, `Add` is a no-op in
/// value but keeps the composition's `c + 0.0` semantics).
///
/// `rowmax`, when present, is a `[j_blocks x m]` partials buffer
/// (`j_blocks = n.div_ceil(NC)`): cell `bj * m + row` receives the max of
/// the *stored* values of output row `row` within column block `bj`,
/// computed in the store epilogue while the tile is register-hot. Each
/// cell is written by exactly one macro-tile task, and
/// `matmul::fold_rowmax_partials` merges the blocks in ascending order —
/// max is grouping-free, so the result equals a linear row scan at every
/// thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    pool: &Pool,
    path: SimdPath,
    layout: Layout,
    alpha: f32,
    av: &[f32],
    bv: &[f32],
    cv: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    prologue: Prologue<'_>,
    epilogue: Epilogue,
    rowmax: Option<&mut [f32]>,
) {
    if m == 0 || n == 0 {
        return;
    }
    debug_assert!(
        prologue.emit.as_ref().is_none_or(|e| e.len() == av.len()),
        "prologue emit buffer must match the A operand length"
    );
    debug_assert!(
        rowmax
            .as_ref()
            .is_none_or(|r| r.len() == n.div_ceil(NC) * m),
        "rowmax partials buffer must be j_blocks x m"
    );

    let i_blocks = m.div_ceil(MC);
    let j_blocks = n.div_ceil(NC);
    let a_strips = m.div_ceil(MR);
    let b_strips = n.div_ceil(NR);
    let emit_base = prologue.emit.map(|e| SendPtr(e.as_mut_ptr()));
    let fusion = PackFusion {
        dropout: prologue.dropout,
        softmax_grad: prologue.softmax_grad,
        emit: emit_base.as_ref().map(SendPtr::get),
    };
    let in_place_ok = alpha == 1.0
        && fusion.softmax_grad.is_none()
        && match fusion.emit {
            // In-place reads of a dropout-transformed operand come from
            // the task's own emit rows, which are contiguous only in the
            // row-major layouts.
            Some(_) => layout != Layout::Tn,
            None => fusion.dropout.is_none(),
        };
    let afeed = if j_blocks > 1 || !in_place_ok {
        AFeed::Prepacked
    } else {
        AFeed::InPlace
    };
    // `B` is read in place when it is row-major and either one row block
    // reads each strip (no reuse to amortize a pack over) or it is a
    // single `NR`-wide strip already laid out like a packed panel.
    let b_in_place = if layout != Layout::Nt && (i_blocks == 1 || n <= NR) {
        n / NR
    } else {
        0
    };

    let apack = (afeed == AFeed::Prepacked).then(|| {
        let mut apack = Scratch::take_aligned(a_strips * MR * k);
        match layout {
            Layout::Nn | Layout::Nt => {
                pack_parallel(pool, &mut apack, 0, a_strips, k * MR, &|s, out| {
                    pack_a_strip_rowmajor_fused(av, m, k, alpha, s * MR, 0..k, fusion, out);
                })
            }
            Layout::Tn => pack_parallel(pool, &mut apack, 0, a_strips, k * MR, &|s, out| {
                pack_a_strip_transposed_fused(av, m, alpha, s * MR, 0..k, fusion, out);
            }),
        }
        apack
    });
    let b_packed = b_strips - b_in_place;
    let bpack = (b_packed > 0).then(|| {
        let mut bpack = Scratch::take_aligned(b_packed * NR * k);
        match layout {
            Layout::Nn | Layout::Tn => {
                pack_parallel(pool, &mut bpack, b_in_place, b_packed, k * NR, &|t, out| {
                    pack_b_strip_rowmajor(bv, n, t * NR, 0..k, out);
                })
            }
            Layout::Nt => pack_parallel(pool, &mut bpack, 0, b_packed, k * NR, &|t, out| {
                pack_b_strip_transposed(bv, k, n, t * NR, 0..k, out);
            }),
        }
        bpack
    });

    let grid = Grid {
        path,
        layout,
        av,
        bv,
        m,
        k,
        n,
        fusion,
        epilogue,
        afeed,
        apack: apack.as_deref().unwrap_or(&[]),
        b_in_place,
        bpack: bpack.as_deref().unwrap_or(&[]),
    };
    let grid = &grid;
    let cbase = SendPtr(cv.as_mut_ptr());
    let cbase = &cbase;
    let rowmax_holder = rowmax.map(|r| SendPtr(r.as_mut_ptr()));
    let rowmax_holder = &rowmax_holder;
    let emit_base = &emit_base;
    pool.run(i_blocks * j_blocks, &|t| {
        let bi = t / j_blocks;
        let bj = t % j_blocks;
        let i_lo = bi * MC;
        let i_hi = (i_lo + MC).min(m);
        let j_lo = bj * NC;
        // Task-category span: macro-tile execution is where the real
        // FLOPs happen, so Perfetto occupancy comes from these.
        let _tile = lorafusion_trace::task_span!("gemm.macro_tile", bi = bi, bj = bj);
        // An in-place feed reads the dropout-transformed rows back from
        // the emit buffer; this task owns exactly rows `i_lo..i_hi` of it.
        let emit_rows = match (afeed, emit_base) {
            // SAFETY: with one column block, task `t` is the only task
            // touching rows `i_lo..i_hi` of the row-major emit buffer
            // (length `m*k`), and the buffer is mutably borrowed by this
            // call until `pool.run` returns.
            (AFeed::InPlace, Some(base)) => Some(unsafe {
                std::slice::from_raw_parts_mut(base.get().add(i_lo * k), (i_hi - i_lo) * k)
            }),
            _ => None,
        };
        macro_tile(
            grid,
            cbase.get(),
            i_lo..i_hi,
            j_lo..(j_lo + NC).min(n),
            // Partial column `bj` of the `[j_blocks x m]` buffer; this
            // task owns rows `i_lo..i_hi` of it exclusively.
            rowmax_holder.as_ref().map(|h| h.get().wrapping_add(bj * m)),
            emit_rows,
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;

    /// Whole-strip, prologue-free row-major `A` pack.
    fn pack_a_strip_rowmajor(
        av: &[f32],
        m: usize,
        k: usize,
        alpha: f32,
        i0: usize,
        out: &mut [f32],
    ) {
        pack_a_strip_rowmajor_fused(av, m, k, alpha, i0, 0..k, PackFusion::NONE, out);
    }

    /// Whole-strip, prologue-free transposed `A` pack.
    fn pack_a_strip_transposed(
        av: &[f32],
        m: usize,
        k: usize,
        alpha: f32,
        i0: usize,
        out: &mut [f32],
    ) {
        pack_a_strip_transposed_fused(av, m, alpha, i0, 0..k, PackFusion::NONE, out);
    }

    /// The packed strip of an edge row/column must zero its padding even
    /// when the scratch buffer held stale data.
    #[test]
    fn packing_zeroes_edge_padding() {
        let k = 3;
        let av: Vec<f32> = (0..k).map(|v| v as f32 + 1.0).collect(); // 1 x 3
        let mut out = vec![7.0f32; k * MR];
        pack_a_strip_rowmajor(&av, 1, k, 2.0, 0, &mut out);
        for kk in 0..k {
            assert_eq!(out[kk * MR], 2.0 * (kk as f32 + 1.0));
            for r in 1..MR {
                assert_eq!(out[kk * MR + r], 0.0, "pad row {r} kk {kk}");
            }
        }

        let bv: Vec<f32> = (0..k).map(|v| v as f32 + 1.0).collect(); // 3 x 1
        let mut out = vec![7.0f32; k * NR];
        pack_b_strip_rowmajor(&bv, 1, 0, 0..k, &mut out);
        for kk in 0..k {
            assert_eq!(out[kk * NR], kk as f32 + 1.0);
            for c in 1..NR {
                assert_eq!(out[kk * NR + c], 0.0, "pad col {c} kk {kk}");
            }
        }
    }

    /// Transposed packing must agree with row-major packing of the
    /// explicitly transposed operand.
    #[test]
    fn transposed_packing_matches_rowmajor_of_transpose() {
        let (m, k) = (MR + 3, 2 * KC + 5);
        let mut rng = crate::rng::Pcg32::seeded(42);
        let a = crate::tensor::Matrix::random_uniform(k, m, 1.0, &mut rng);
        let at = a.transpose(); // m x k
        let strips = m.div_ceil(MR);
        for s in 0..strips {
            let mut via_t = vec![0.0f32; k * MR];
            let mut direct = vec![1.0f32; k * MR];
            pack_a_strip_rowmajor(at.as_slice(), m, k, 1.5, s * MR, &mut via_t);
            pack_a_strip_transposed(a.as_slice(), m, k, 1.5, s * MR, &mut direct);
            assert_eq!(via_t, direct, "strip {s}");
        }

        let (n, k) = (NR + 1, KC + 3);
        let b = crate::tensor::Matrix::random_uniform(n, k, 1.0, &mut rng);
        let bt = b.transpose(); // k x n
        for t in 0..n.div_ceil(NR) {
            let mut via_t = vec![0.0f32; k * NR];
            let mut direct = vec![1.0f32; k * NR];
            pack_b_strip_rowmajor(bt.as_slice(), n, t * NR, 0..k, &mut via_t);
            pack_b_strip_transposed(b.as_slice(), k, n, t * NR, 0..k, &mut direct);
            assert_eq!(via_t, direct, "strip {t}");
        }
    }

    /// The dropout prologue must pack exactly `hadamard(A, mask)` and emit
    /// the post-dropout operand at source offsets, for both A gathers.
    #[test]
    fn fused_packing_applies_mask_and_emits() {
        let (m, k) = (MR + 2, 13);
        let mut rng = crate::rng::Pcg32::seeded(77);
        let a = crate::tensor::Matrix::random_uniform(m, k, 1.0, &mut rng);
        let spec = DropoutSpec::new(0.4, 99);
        let alpha = 1.25f32;

        // Expected packed strip: mask applied manually, then plain pack.
        let mut masked = a.clone();
        for i in 0..m {
            for j in 0..k {
                let v = masked.get(i, j).unwrap() * spec.mask_value(i, j, k);
                masked.set(i, j, v).unwrap();
            }
        }

        let mut emit = vec![f32::NAN; m * k];
        let fusion = PackFusion {
            dropout: Some(spec),
            softmax_grad: None,
            emit: Some(emit.as_mut_ptr()),
        };
        for s in 0..m.div_ceil(MR) {
            let mut want = vec![0.0f32; k * MR];
            let mut got = vec![1.0f32; k * MR];
            pack_a_strip_rowmajor(masked.as_slice(), m, k, alpha, s * MR, &mut want);
            pack_a_strip_rowmajor_fused(a.as_slice(), m, k, alpha, s * MR, 0..k, fusion, &mut got);
            assert_eq!(want, got, "rowmajor strip {s}");
        }
        assert_eq!(emit, masked.as_slice(), "rowmajor emit");

        // Transposed gather: source is (reduction `tk`) x (output rows
        // `tm`); dropout runs in the source's own coordinates.
        let (tm, tk) = (MR + 5, 9);
        let src = crate::tensor::Matrix::random_uniform(tk, tm, 1.0, &mut rng);
        let mut masked_t = src.clone();
        for i in 0..tk {
            for j in 0..tm {
                let v = masked_t.get(i, j).unwrap() * spec.mask_value(i, j, tm);
                masked_t.set(i, j, v).unwrap();
            }
        }
        let mut emit_t = vec![f32::NAN; tk * tm];
        let fusion_t = PackFusion {
            dropout: Some(spec),
            softmax_grad: None,
            emit: Some(emit_t.as_mut_ptr()),
        };
        for s in 0..tm.div_ceil(MR) {
            let mut want = vec![0.0f32; tk * MR];
            let mut got = vec![1.0f32; tk * MR];
            pack_a_strip_transposed(masked_t.as_slice(), tm, tk, alpha, s * MR, &mut want);
            pack_a_strip_transposed_fused(
                src.as_slice(),
                tm,
                alpha,
                s * MR,
                0..tk,
                fusion_t,
                &mut got,
            );
            assert_eq!(want, got, "transposed strip {s}");
        }
        assert_eq!(emit_t, masked_t.as_slice(), "transposed emit");
    }

    /// The AVX2 kernel and its scalar `mul_add` twin must agree bit for
    /// bit on the same packed panels — the heart of the dispatch-purity
    /// contract — and the historical mul-then-add kernel must stay close.
    #[test]
    fn microkernel_spellings_agree() {
        let k = 2 * KC + 3;
        let mut rng = crate::rng::Pcg32::seeded(41);
        let apanel: Vec<f32> = (0..k * MR).map(|_| rng.next_f32() - 0.5).collect();
        let bpanel: Vec<f32> = (0..k * NR).map(|_| rng.next_f32() - 0.5).collect();
        let base = {
            let mut acc = [[0.0f32; NR]; MR];
            for row in acc.iter_mut() {
                for v in row.iter_mut() {
                    *v = rng.next_f32();
                }
            }
            acc
        };

        let (a, b) = (Panel::packed_a(&apanel), Panel::packed_b(&bpanel));
        let mut fma = base;
        microkernel_fma(a, b, k, &mut fma);
        let mut plain = base;
        microkernel(a, b, k, &mut plain);
        for i in 0..MR {
            for j in 0..NR {
                let (x, y) = (fma[i][j], plain[i][j]);
                assert!(
                    (x - y).abs() <= 1e-3 * (1.0 + x.abs().max(y.abs())),
                    "fma vs plain at ({i},{j}): {x} vs {y}"
                );
            }
        }

        if simd::fma_semantics() {
            let mut vector = base;
            simd::microkernel_avx2(a, b, k, &mut vector);
            for i in 0..MR {
                for j in 0..NR {
                    assert_eq!(
                        vector[i][j].to_bits(),
                        fma[i][j].to_bits(),
                        "avx2 vs scalar-fma at ({i},{j})"
                    );
                }
            }
        }
        if simd::avx512_detected() {
            check_avx512_groups(k, &mut rng);
        } else {
            println!("microkernel_spellings_agree: no avx512f here, AVX-512 group check skipped");
        }
    }

    /// Every tile group shape of the AVX-512 kernel (2x2, 2x1, 1x2, 1x1)
    /// must reproduce the `ScalarFma` twin tile by tile, bit for bit, over
    /// a mix of packed panels and panels read in place at source strides
    /// (a group can pair a packed edge strip with an in-place one).
    fn check_avx512_groups(k: usize, rng: &mut crate::rng::Pcg32) {
        let mut draw =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.next_f32() - 0.5).collect() };
        let a_packed = draw(k * MR);
        let a_packed2 = draw(k * MR);
        let a_rows = draw(MR * k); // row-major MR x k, read in place
        let b_packed = draw(k * NR);
        let b_rows = draw(k * (NR + 3)); // row-major k x (NR + 3)
        let seed_tiles = draw(4 * MR * NR);
        let in_place = Panel {
            data: &a_rows,
            lane_stride: k,
            k_stride: 1,
        };
        let a_pairs = [
            [Panel::packed_a(&a_packed), in_place],
            [Panel::packed_a(&a_packed), Panel::packed_a(&a_packed2)],
        ];
        let b_panels = [
            Panel::packed_b(&b_packed),
            Panel {
                data: &b_rows,
                lane_stride: 1,
                k_stride: NR + 3,
            },
        ];
        let mut base: TileGroup = [[[0.0; NR]; MR]; 4];
        for (v, &x) in base.iter_mut().flatten().flatten().zip(&seed_tiles) {
            *v = x;
        }
        for a_panels in a_pairs {
            for (ni, nj) in [(2, 2), (2, 1), (1, 2), (1, 1)] {
                check_avx512_group(&a_panels[..ni], &b_panels[..nj], k, &base);
            }
        }
    }

    /// One group shape of [`check_avx512_groups`] at several step counts.
    fn check_avx512_group(
        a_panels: &[Panel<'_>],
        b_panels: &[Panel<'_>],
        k: usize,
        base: &TileGroup,
    ) {
        let (ni, nj) = (a_panels.len(), b_panels.len());
        let bits = |g: &TileGroup| -> Vec<u32> {
            g.iter().flatten().flatten().map(|v| v.to_bits()).collect()
        };
        for kc in [0, 1, 7, k] {
            let mut want = *base;
            for (r, &a) in a_panels.iter().enumerate() {
                for (c, &b) in b_panels.iter().enumerate() {
                    microkernel_fma(a, b, kc, &mut want[r * 2 + c]);
                }
            }
            let mut got = *base;
            run_group(SimdPath::Avx512Fma, a_panels, b_panels, kc, &mut got);
            assert_eq!(bits(&got), bits(&want), "avx512 {ni}x{nj} group, kc {kc}");
        }
    }

    /// Every spelling must compute the same bits from operands read in
    /// place at their source strides as from the packed panels, and must
    /// clamp to the steps a short panel holds instead of reading past it.
    #[test]
    fn in_place_panels_match_packed_panels() {
        let (m, k, n) = (MR + 1, 37, NR + 3);
        let mut rng = crate::rng::Pcg32::seeded(43);
        let a = crate::tensor::Matrix::random_uniform(m, k, 1.0, &mut rng);
        let at = a.transpose();
        let b = crate::tensor::Matrix::random_uniform(k, n, 1.0, &mut rng);
        let mut apack = vec![0.0f32; k * MR];
        pack_a_strip_rowmajor(a.as_slice(), m, k, 1.0, 0, &mut apack);
        let mut bpack = vec![0.0f32; k * NR];
        pack_b_strip_rowmajor(b.as_slice(), n, 0, 0..k, &mut bpack);
        let rows = Panel {
            data: a.as_slice(),
            lane_stride: k,
            k_stride: 1,
        };
        let cols = Panel {
            data: at.as_slice(),
            lane_stride: 1,
            k_stride: m,
        };
        let b_rows = Panel {
            data: b.as_slice(),
            lane_stride: 1,
            k_stride: n,
        };
        let mut paths = vec![SimdPath::Scalar, SimdPath::ScalarFma];
        if simd::fma_semantics() {
            paths.push(SimdPath::Avx2Fma);
        }
        if simd::avx512_detected() {
            paths.push(SimdPath::Avx512Fma);
        }
        // One tile through `run_group`, as every GEMM runs it.
        let tile = |path, a, b, kc| {
            let mut group: TileGroup = [[[0.0f32; NR]; MR]; 4];
            run_group(path, &[a], &[b], kc, &mut group);
            group[0]
        };
        for path in paths {
            let want = tile(path, Panel::packed_a(&apack), Panel::packed_b(&bpack), k);
            for (a_in, b_in) in [
                (rows, Panel::packed_b(&bpack)),
                (cols, b_rows),
                (Panel::packed_a(&apack), b_rows),
            ] {
                assert_eq!(tile(path, a_in, b_in, k), want, "{path:?}");
            }
            // A panel cut short by 3 steps stops after the steps it holds.
            let short = Panel::packed_a(&apack[..(k - 3) * MR]);
            let got = tile(path, short, Panel::packed_b(&bpack), k);
            let want_short = tile(
                path,
                Panel::packed_a(&apack),
                Panel::packed_b(&bpack),
                k - 3,
            );
            assert_eq!(got, want_short, "{path:?} short panel");
        }
    }

    /// A skinny LoRA shape (one row block) must still produce a multi-task
    /// grid via its column blocks.
    #[test]
    fn skinny_shapes_expose_column_parallelism() {
        let (m, n): (usize, usize) = (16, 8 * NC);
        assert_eq!(m.div_ceil(MC), 1);
        assert!(n.div_ceil(NC) >= 8, "j-blocks must carry the parallelism");
    }

    /// `k = 0` runs the normal path: overwrite clears, add leaves values.
    #[test]
    fn zero_k_overwrite_clears_output() {
        let pool = Pool::new(2);
        let mut c = vec![5.0f32; 6];
        gemm(
            &pool,
            simd::active_path(),
            Layout::Nn,
            1.0,
            &[],
            &[],
            &mut c,
            2,
            0,
            3,
            Prologue::none(),
            Epilogue::Overwrite,
            None,
        );
        assert!(c.iter().all(|&v| v == 0.0));
        let mut c = vec![5.0f32; 6];
        gemm(
            &pool,
            simd::active_path(),
            Layout::Nn,
            1.0,
            &[],
            &[],
            &mut c,
            2,
            0,
            3,
            Prologue::none(),
            Epilogue::Add,
            None,
        );
        assert!(c.iter().all(|&v| v == 5.0));
        // Operands read in place past their first strip (`n` over one `B`
        // strip, a transposed `A` over one row strip) hold no steps at
        // `k = 0` and must not index the empty sources.
        for layout in [Layout::Nn, Layout::Nt, Layout::Tn] {
            let (m, n) = (2 * MR + 1, 2 * NR + 8);
            let mut c = vec![5.0f32; m * n];
            gemm(
                &pool,
                simd::active_path(),
                layout,
                1.0,
                &[],
                &[],
                &mut c,
                m,
                0,
                n,
                Prologue::none(),
                Epilogue::Overwrite,
                None,
            );
            assert!(c.iter().all(|&v| v == 0.0), "{layout:?}");
        }
    }
}
