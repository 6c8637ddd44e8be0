//! The explicit-SIMD execution tier: runtime CPU-feature detection, the
//! `LORAFUSION_SIMD` override, the AVX-512 and AVX2 register microkernels,
//! and a register-only FMA probe per vector spelling.
//!
//! This is the **only** module in the workspace allowed to touch
//! `core::arch`, `is_x86_feature_detected!`, or `#[target_feature]` — the
//! `simd-confinement` rule of `lorafusion-lint` enforces that, mirroring
//! how `thread-count-dependence` confines pool sizing to `tensor::pool`.
//! Everything architecture-specific funnels through the safe wrappers
//! here; the rest of the engine dispatches on the portable [`SimdPath`]
//! enum and never names an ISA.
//!
//! # Dispatch purity
//!
//! Two separate things are pure functions of two separate inputs:
//!
//! * **Numeric semantics** are a pure function of the *detected CPU
//!   features only*. On a host with AVX2+FMA every path — the explicit
//!   AVX-512 and AVX2 kernels and the scalar fallback alike — accumulates
//!   with a fused multiply-add (`f32::mul_add` in the scalar twin,
//!   `vfmaddps` on `zmm` or `ymm` registers in the vector kernels; all are
//!   correctly rounded, hence bitwise-equal). On a host without FMA every
//!   path uses the historical mul-then-add kernel. The env override can
//!   therefore never change a result bit: it moves execution between
//!   spellings of the *same* rounding behaviour.
//! * **Execution path** is a pure function of `(detected features,
//!   LORAFUSION_SIMD)`. `LORAFUSION_SIMD=0` forces the scalar spelling;
//!   anything else (or unset) takes the widest vector kernel the host
//!   has: [`SimdPath::Avx512Fma`] with `avx512f`, else
//!   [`SimdPath::Avx2Fma`]. Both inputs are read once per process and
//!   cached, so the path cannot flip mid-run.
//!
//! The bitwise-vs-fallback contract — every spelling in [`spellings`]
//! produces identical bits on any given host — is asserted by the fuzz
//! matrix in `crates/tensor/tests/gemm_fuzz.rs`, by the in-process digest
//! comparison of `bench_gemm`, and by the env-var digest diff in
//! `scripts/ci.sh`.
//!
//! # Register budget
//!
//! Both vector kernels accumulate `MR x NR = 6 x 16` tiles, the engine's
//! packing unit. The AVX2 kernel holds one tile: 12 `ymm` accumulators, two
//! `B` vectors and one broadcast in the 16 `ymm` registers. The AVX-512
//! kernel holds a 2 x 2 group of tiles, a `12 x 32` block: 24 `zmm`
//! accumulators (12 rows x two 16-lane columns), two `B` vectors and one
//! broadcast in the 32 `zmm` registers. Each `kk` step issues 24 FMAs
//! against 14 loads (two `B` loads, 12 broadcasts), so the two FMA ports
//! saturate before the three load ports do. A single 6x16 tile would be
//! one `zmm` per row — 6 FMAs per 7 loads, load-bound — which is why the
//! wider kernel groups tiles instead of widening `NR`: the packing layouts
//! and every blocking constant stay exactly as the AVX2 path uses them.

use std::sync::OnceLock;

use crate::microkernel::{Panel, MR, NR};

/// Which microkernel spelling a GEMM call executes. See the module docs
/// for the purity rules; obtain values via [`active_path`] / [`path_for`]
/// rather than constructing them ad hoc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// Explicit `core::arch` AVX-512 kernel over 2 x 2 groups of 6x16
    /// tiles. Requires [`avx512_detected`].
    Avx512Fma,
    /// Explicit `core::arch` AVX2+FMA 6x16 register kernel. Requires
    /// [`fma_semantics`] to be true.
    Avx2Fma,
    /// Scalar twin of the vector kernels: same fused multiply-add rounding
    /// via `f32::mul_add`, no `core::arch`. The forced-off spelling on
    /// FMA hosts.
    ScalarFma,
    /// The historical mul-then-add safe kernel — the only spelling on
    /// hosts without AVX2+FMA, so such hosts see no numeric change at all.
    Scalar,
}

impl SimdPath {
    /// Lower-case tag used by benches, result files, and trace counters.
    pub fn tag(self) -> &'static str {
        match self {
            SimdPath::Avx512Fma => "avx512+fma",
            SimdPath::Avx2Fma => "avx2+fma",
            SimdPath::ScalarFma => "scalar-fma",
            SimdPath::Scalar => "scalar",
        }
    }

    /// Whether this path can execute on the current host. The vector
    /// paths require detection; the scalar spellings always run.
    pub fn is_supported(self) -> bool {
        match self {
            SimdPath::Avx512Fma => avx512_detected(),
            SimdPath::Avx2Fma => fma_semantics(),
            SimdPath::ScalarFma | SimdPath::Scalar => true,
        }
    }

    /// `(row strips, column strips)` of the 6x16 tile group one kernel
    /// call accumulates: 2 x 2 for the AVX-512 kernel, one tile otherwise.
    pub(crate) fn tile_group(self) -> (usize, usize) {
        match self {
            SimdPath::Avx512Fma => (2, 2),
            SimdPath::Avx2Fma | SimdPath::ScalarFma | SimdPath::Scalar => (1, 1),
        }
    }
}

/// One-time runtime CPU-feature detection: does this host have AVX2+FMA?
///
/// This single cached bit decides the *numeric semantics* of every GEMM
/// in the process (fused multiply-add vs mul-then-add accumulation); the
/// env override below only selects between spellings of the semantics it
/// fixes.
pub fn fma_semantics() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(detect_avx2_fma)
}

/// One-time runtime detection of `avx512f` on a host with AVX2+FMA: whether
/// [`SimdPath::Avx512Fma`] can run. It selects a spelling, never the
/// numeric semantics, which [`fma_semantics`] alone fixes.
pub fn avx512_detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| fma_semantics() && detect_avx512f())
}

#[cfg(target_arch = "x86_64")]
fn detect_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(target_arch = "x86_64")]
fn detect_avx512f() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_avx2_fma() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_avx512f() -> bool {
    false
}

/// Human-readable summary of the detected features, recorded in bench
/// result rows so cross-machine trajectories stay comparable.
pub fn detected_features() -> &'static str {
    if avx512_detected() {
        "avx512f+avx2+fma"
    } else if fma_semantics() {
        "avx2+fma"
    } else {
        "none"
    }
}

/// The `LORAFUSION_SIMD` override, read once per process: `0`, `false`,
/// or `off` force the scalar spelling; anything else (or unset) enables
/// the vector kernel. `1` on a host without the features is a no-op, not
/// an error — the path degrades to the only semantics the host has.
fn env_enables_simd() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !std::env::var("LORAFUSION_SIMD")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                v == "0" || v == "false" || v == "off"
            })
            .unwrap_or(false)
    })
}

/// The execution path for a given env decision on *this* host — the pure
/// function `(detected features, enabled) -> path`. Tests use it to force
/// both spellings inside one process, where env vars are unreliable.
pub fn path_for(enabled: bool) -> SimdPath {
    if !fma_semantics() {
        SimdPath::Scalar
    } else if !enabled {
        SimdPath::ScalarFma
    } else if avx512_detected() {
        SimdPath::Avx512Fma
    } else {
        SimdPath::Avx2Fma
    }
}

/// The process-wide active path: `path_for` applied to the cached
/// `LORAFUSION_SIMD` decision.
pub fn active_path() -> SimdPath {
    path_for(env_enables_simd())
}

/// Every spelling of this host's numeric semantics that can run here —
/// the set the bitwise contract quantifies over. FMA hosts list the scalar
/// `mul_add` twin, the AVX2 kernel and, with `avx512f`, the AVX-512
/// kernel; other hosts list only the mul-then-add kernel.
pub fn spellings() -> &'static [SimdPath] {
    const FMA_AVX512: &[SimdPath] = &[SimdPath::ScalarFma, SimdPath::Avx2Fma, SimdPath::Avx512Fma];
    if avx512_detected() {
        FMA_AVX512
    } else if fma_semantics() {
        &FMA_AVX512[..2]
    } else {
        &[SimdPath::Scalar]
    }
}

/// Issues a best-effort read prefetch hint for `p`. No-op off x86-64.
///
/// Safe to call with any pointer, including one computed past the end of
/// an allocation with `wrapping_add`: a prefetch hint performs no memory
/// access in the abstract machine and the hardware instruction cannot
/// fault. The packed-panel gather loops in `microkernel` use this to hide
/// the strided reads of the transposed layouts.
#[inline(always)]
pub fn prefetch_read(p: *const f32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure hint — it performs no load or
    // store, cannot fault on any address, and `_MM_HINT_T0`/SSE are
    // baseline on x86-64.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Runs the explicit AVX2+FMA microkernel: accumulates `kc` steps of the
/// `a` (`MR` lanes) and `b` (`NR` lanes) panels into `acc`, in strictly
/// ascending `kk` order with one correctly-rounded fused multiply-add per
/// element — bitwise-equal to the `ScalarFma` twin in `microkernel`.
/// The panels may be packed or read in place at their source strides;
/// `kc` is clamped to the steps both slices hold.
///
/// Panics if the host lacks AVX2+FMA (callers dispatch on [`SimdPath`],
/// which [`path_for`] only sets to `Avx2Fma` after detection).
#[inline]
pub(crate) fn microkernel_avx2(a: Panel<'_>, b: Panel<'_>, kc: usize, acc: &mut [[f32; NR]; MR]) {
    assert!(
        fma_semantics(),
        "SimdPath::Avx2Fma dispatched on a host without AVX2+FMA"
    );
    let kc = kc.min(a.max_steps(MR)).min(b.max_steps(NR));
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2+FMA availability was just verified via the cached
    // runtime detection, and `kc` is clamped so that every lane of every
    // step lies inside both panel slices.
    unsafe {
        avx2::kernel(a, b, kc, acc);
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("fma_semantics() is false off x86-64");
}

/// Applies `$f(acc[i], $m, $c)` to every listed chain `i` of `$acc` —
/// straight-line code with constant indices, so the chains stay in
/// registers whatever the compiler's unrolling heuristics decide.
#[cfg(target_arch = "x86_64")]
macro_rules! fma_chains {
    ($acc:ident, $f:ident, $m:ident, $c:ident; $($i:literal)*) => {
        $( $acc[$i] = $f($acc[$i], $m, $c); )*
    };
    // Folding form: `$total = $f($total, $m, $src[i])` for every listed
    // chain `i`, in order (with `$m = 1` an exact running sum).
    (fold $total:ident, $f:ident, $m:ident, $src:ident; $($i:literal)*) => {
        $( $total = $f($total, $m, $src[$i]); )*
    };
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{probe_chains, Panel, SimdPath, MR, NR};
    use core::arch::x86_64::{
        __m256, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// The 6x16 AVX2+FMA register tile: 12 accumulator vectors (6 rows x
    /// two 8-lane columns), two `B`-panel vector loads and 6 broadcasts
    /// feeding 12 FMAs per `kk` step — an FMA-port-bound ratio (8 load
    /// uops per 12 FMAs), unlike the load-port-bound 8x8 predecessor. The
    /// loop is unrolled two steps deep so pointer updates and loop control
    /// stay off the critical ports, and issues no prefetches: under the
    /// `KC` cache blocking in `macro_tile` the panels are small
    /// cache-resident streams the hardware prefetcher tracks on its own.
    /// The broadcasts read `A` at its panel strides, so a packed strip and
    /// rows read in place run the same instruction stream. The per-element
    /// reduction is a single ascending-`kk` fused-multiply-add chain —
    /// exactly the scalar `mul_add` twin's order, so the two spellings are
    /// bitwise-equal (unrolling changes nothing: each element's chain
    /// lives in one register either way).
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2 and FMA are available on the executing
    /// CPU, and that `kc` steps of both panels lie inside their slices
    /// (`kc <= panel.max_steps(lanes)`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn kernel(a: Panel<'_>, b: Panel<'_>, kc: usize, acc: &mut [[f32; NR]; MR]) {
        let (a_ls, a_ks, b_ks) = (a.lane_stride, a.k_stride, b.k_stride);
        let mut ap = a.data.as_ptr();
        let mut bp = b.data.as_ptr();
        let mut c: [[__m256; 2]; MR] = [
            [
                _mm256_loadu_ps(acc[0].as_ptr()),
                _mm256_loadu_ps(acc[0].as_ptr().add(8)),
            ],
            [
                _mm256_loadu_ps(acc[1].as_ptr()),
                _mm256_loadu_ps(acc[1].as_ptr().add(8)),
            ],
            [
                _mm256_loadu_ps(acc[2].as_ptr()),
                _mm256_loadu_ps(acc[2].as_ptr().add(8)),
            ],
            [
                _mm256_loadu_ps(acc[3].as_ptr()),
                _mm256_loadu_ps(acc[3].as_ptr().add(8)),
            ],
            [
                _mm256_loadu_ps(acc[4].as_ptr()),
                _mm256_loadu_ps(acc[4].as_ptr().add(8)),
            ],
            [
                _mm256_loadu_ps(acc[5].as_ptr()),
                _mm256_loadu_ps(acc[5].as_ptr().add(8)),
            ],
        ];
        // One `kk` step: two B-strip vector loads plus 6 broadcast-FMA
        // pairs, fully unrolled by the constant row bound so every
        // accumulator stays pinned to its own ymm register across the
        // whole reduction. The pointer bumps wrap rather than offset: the
        // bump after the last step may leave the slice (it is never
        // dereferenced).
        macro_rules! step {
            () => {
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (i, ci) in c.iter_mut().enumerate() {
                    let ai = _mm256_set1_ps(*ap.add(i * a_ls));
                    ci[0] = _mm256_fmadd_ps(ai, b0, ci[0]);
                    ci[1] = _mm256_fmadd_ps(ai, b1, ci[1]);
                }
                ap = ap.wrapping_add(a_ks);
                bp = bp.wrapping_add(b_ks);
            };
        }
        let mut kk = 0;
        while kk + 4 <= kc {
            step!();
            step!();
            step!();
            step!();
            kk += 4;
        }
        while kk < kc {
            step!();
            kk += 1;
        }
        // The trailing step's pointer bumps are intentionally unused.
        let _ = (ap, bp);
        for (row, ci) in acc.iter_mut().zip(&c) {
            _mm256_storeu_ps(row.as_mut_ptr(), ci[0]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), ci[1]);
        }
    }

    /// The ymm body of [`super::fma_probe`].
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2 and FMA are available on the executing
    /// CPU.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn probe(rounds: usize, m: f32, c: f32) -> f32 {
        let (mv, cv) = (_mm256_set1_ps(m), _mm256_set1_ps(c));
        let mut acc = [_mm256_setzero_ps(); probe_chains(SimdPath::Avx2Fma)];
        for _ in 0..rounds {
            fma_chains!(acc, _mm256_fmadd_ps, mv, cv; 0 1 2 3 4 5 6 7 8 9 10 11);
        }
        let one = _mm256_set1_ps(1.0);
        let mut total = acc[0];
        fma_chains!(fold total, _mm256_fmadd_ps, one, acc; 1 2 3 4 5 6 7 8 9 10 11);
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), total);
        lanes.iter().sum()
    }
}

/// Independent accumulator chains of the register-only FMA probe on
/// `path`: as many vector registers as the path's kernel keeps
/// accumulators in (24 `zmm`, 12 `ymm`), which is more than the FMA
/// latency times the two FMA ports.
const fn probe_chains(path: SimdPath) -> usize {
    match path {
        SimdPath::Avx512Fma => 24,
        SimdPath::Avx2Fma | SimdPath::ScalarFma | SimdPath::Scalar => 12,
    }
}

/// Register-only FMA probe for `path`: `rounds` rounds of
/// `probe_chains(path)` independent multiply-add chains, one vector
/// register each, that never touch memory, so its rate is the core's
/// arithmetic ceiling for that spelling — the roofline the benches quote
/// GEMM rates against. Returns the FLOPs performed (one fused
/// multiply-add, 2 FLOPs, per lane per chain per round) and a value that
/// depends on every chain, so the work cannot be elided. Each chain
/// converges to 1.0, so no value overflows or turns subnormal.
///
/// The scalar spellings have no probe and return `None`: their GEMM rate
/// depends on how the compiler lowers the `mul_add` loops, which no fixed
/// register loop reproduces (a scalar probe read below the scalar GEMM's
/// own rate).
///
/// Panics if `path` is not supported on this host.
pub fn fma_probe(path: SimdPath, rounds: usize) -> Option<(f64, f32)> {
    assert!(path.is_supported(), "{path:?} is not supported here");
    let (m, c) = (0.999_999_f32, 1.0e-6_f32);
    let (lanes, value) = match path {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `is_supported` verified AVX-512F for this path.
        SimdPath::Avx512Fma => (16, unsafe { avx512::probe(rounds, m, c) }),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `is_supported` verified AVX2+FMA for this path.
        SimdPath::Avx2Fma => (8, unsafe { avx2::probe(rounds, m, c) }),
        _ => return None,
    };
    Some(((2 * lanes * probe_chains(path) * rounds) as f64, value))
}

/// A 2 x 2 group of 6x16 accumulator tiles; tile `(r, c)` of a group is
/// slot `r * 2 + c`.
pub(crate) type TileGroup = [[[f32; NR]; MR]; 4];

/// Runs the explicit AVX-512 microkernel over the group of
/// `a.len() x b.len()` tiles (each 1 or 2) that `a`'s row strips and
/// `b`'s column strips span: `kc` steps accumulated into `acc` in strictly
/// ascending `kk` order with one correctly-rounded fused multiply-add per
/// element — bitwise-equal to the AVX2 kernel and the `ScalarFma` twin
/// tile by tile. Every panel keeps its own strides, so a packed edge strip
/// and a strip read in place can share a group. `kc` is clamped to the
/// steps every panel holds; other group shapes compute nothing.
///
/// Panics if the host lacks `avx512f` (callers dispatch on [`SimdPath`],
/// which [`path_for`] only sets to `Avx512Fma` after detection).
#[inline]
pub(crate) fn microkernel_avx512(a: &[Panel<'_>], b: &[Panel<'_>], kc: usize, acc: &mut TileGroup) {
    assert!(
        avx512_detected(),
        "SimdPath::Avx512Fma dispatched on a host without AVX-512F"
    );
    let kc = a
        .iter()
        .map(|p| p.max_steps(MR))
        .chain(b.iter().map(|p| p.max_steps(NR)))
        .fold(kc, usize::min);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX-512F availability was just verified via the cached
    // runtime detection, and `kc` is clamped so that every lane of every
    // step lies inside every panel slice.
    unsafe {
        match (a, b) {
            (&[a0, a1], &[b0, b1]) => avx512::kernel::<2, 2>([a0, a1], [b0, b1], kc, acc),
            (&[a0, a1], &[b0]) => avx512::kernel::<2, 1>([a0, a1], [b0], kc, acc),
            (&[a0], &[b0, b1]) => avx512::kernel::<1, 2>([a0], [b0, b1], kc, acc),
            (&[a0], &[b0]) => avx512::kernel::<1, 1>([a0], [b0], kc, acc),
            _ => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("avx512_detected() is false off x86-64");
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{probe_chains, Panel, SimdPath, TileGroup, MR};
    use core::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };

    /// The `6*RS x 16*CS` AVX-512 register block: `RS` row strips of `A`
    /// times `CS` column strips of `B` (each 1 or 2), one 16-lane `zmm`
    /// accumulator per row per column strip. At `RS = CS = 2` that is 24
    /// accumulators, and each `kk` step issues `CS` `B` loads and `6*RS`
    /// broadcasts feeding `6*RS*CS` FMAs. The smaller shapes serve the
    /// edges of the tile grid and the rank-16 strips. The body is written
    /// out with constant indices (and `RS`/`CS` tests that fold away), so
    /// the accumulators stay in registers without relying on loop
    /// unrolling. The loop is unrolled two steps deep and issues no
    /// prefetches, like the AVX2 kernel. The per-element reduction is a
    /// single ascending-`kk` fused-multiply-add chain held in one
    /// register, so the result is bitwise-equal to the AVX2 kernel and the
    /// scalar `mul_add` twin.
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX-512F is available on the executing CPU,
    /// that `RS` and `CS` are 1 or 2, and that `kc` steps of every panel
    /// lie inside its slice (`kc <= panel.max_steps(lanes)`).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn kernel<const RS: usize, const CS: usize>(
        a: [Panel<'_>; RS],
        b: [Panel<'_>; CS],
        kc: usize,
        acc: &mut TileGroup,
    ) {
        // Row strip `RS - 1` and column strip `CS - 1` name the second
        // strip when there is one; when there is not, every use sits
        // behind a constant-false `RS == 2` / `CS == 2` test.
        let (r1, c1) = (RS - 1, CS - 1);
        let mut ap = [a[0].data.as_ptr(), a[r1].data.as_ptr()];
        let a_ls = [a[0].lane_stride, a[r1].lane_stride];
        let a_ks = [a[0].k_stride, a[r1].k_stride];
        let mut bp = [b[0].data.as_ptr(), b[c1].data.as_ptr()];
        let b_ks = [b[0].k_stride, b[c1].k_stride];
        let mut c = [[[_mm512_setzero_ps(); 2]; MR]; 2];
        macro_rules! tiles {
            ($body:ident) => {
                $body!(0, 0);
                if CS == 2 {
                    $body!(0, 1);
                }
                if RS == 2 {
                    $body!(1, 0);
                    if CS == 2 {
                        $body!(1, 1);
                    }
                }
            };
        }
        macro_rules! load {
            ($r:literal, $j:literal) => {
                for (i, v) in c[$r].iter_mut().enumerate() {
                    v[$j] = _mm512_loadu_ps(acc[$r * 2 + $j][i].as_ptr());
                }
            };
        }
        macro_rules! store {
            ($r:literal, $j:literal) => {
                for (i, v) in c[$r].iter().enumerate() {
                    _mm512_storeu_ps(acc[$r * 2 + $j][i].as_mut_ptr(), v[$j]);
                }
            };
        }
        tiles!(load);
        // One row of one strip: a broadcast of `A` feeding one FMA per
        // column strip.
        macro_rules! row {
            ($r:literal, $i:literal, $b0:ident, $b1:ident) => {
                let ai = _mm512_set1_ps(*ap[$r].add($i * a_ls[$r]));
                c[$r][$i][0] = _mm512_fmadd_ps(ai, $b0, c[$r][$i][0]);
                if CS == 2 {
                    c[$r][$i][1] = _mm512_fmadd_ps(ai, $b1, c[$r][$i][1]);
                }
            };
        }
        macro_rules! strip {
            ($r:literal, $b0:ident, $b1:ident) => {
                row!($r, 0, $b0, $b1);
                row!($r, 1, $b0, $b1);
                row!($r, 2, $b0, $b1);
                row!($r, 3, $b0, $b1);
                row!($r, 4, $b0, $b1);
                row!($r, 5, $b0, $b1);
            };
        }
        // One `kk` step. The pointer bumps wrap rather than offset: the
        // bump after the last step may leave the slice (it is never
        // dereferenced).
        macro_rules! step {
            () => {
                let b0 = _mm512_loadu_ps(bp[0]);
                let b1 = if CS == 2 { _mm512_loadu_ps(bp[1]) } else { b0 };
                strip!(0, b0, b1);
                if RS == 2 {
                    strip!(1, b0, b1);
                }
                ap[0] = ap[0].wrapping_add(a_ks[0]);
                ap[1] = ap[1].wrapping_add(a_ks[1]);
                bp[0] = bp[0].wrapping_add(b_ks[0]);
                bp[1] = bp[1].wrapping_add(b_ks[1]);
            };
        }
        let mut kk = 0;
        while kk + 2 <= kc {
            step!();
            step!();
            kk += 2;
        }
        if kk < kc {
            step!();
        }
        // The trailing step's pointer bumps are intentionally unused.
        let _ = (ap, bp);
        tiles!(store);
    }

    /// The zmm body of [`super::fma_probe`].
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX-512F is available on the executing CPU.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn probe(rounds: usize, m: f32, c: f32) -> f32 {
        let (mv, cv) = (_mm512_set1_ps(m), _mm512_set1_ps(c));
        let mut acc = [_mm512_setzero_ps(); probe_chains(SimdPath::Avx512Fma)];
        for _ in 0..rounds {
            fma_chains!(acc, _mm512_fmadd_ps, mv, cv;
                0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23);
        }
        // Fold the chains with constant indices: iterating the array by
        // value would pin it to memory for the whole probe loop.
        let one = _mm512_set1_ps(1.0);
        let mut total = acc[0];
        fma_chains!(fold total, _mm512_fmadd_ps, one, acc;
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23);
        let mut lanes = [0.0f32; 16];
        _mm512_storeu_ps(lanes.as_mut_ptr(), total);
        lanes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_resolution_is_pure_in_env_decision() {
        // Whatever the host, the two env decisions must map to supported
        // paths with identical numeric semantics.
        let on = path_for(true);
        let off = path_for(false);
        assert!(on.is_supported());
        assert!(off.is_supported());
        if avx512_detected() {
            assert_eq!(on, SimdPath::Avx512Fma);
            assert_eq!(off, SimdPath::ScalarFma);
        } else if fma_semantics() {
            assert_eq!(on, SimdPath::Avx2Fma);
            assert_eq!(off, SimdPath::ScalarFma);
        } else {
            assert_eq!(on, SimdPath::Scalar);
            assert_eq!(off, SimdPath::Scalar);
        }
        // Both env decisions land on a spelling of the host's semantics.
        assert!(spellings().contains(&on) && spellings().contains(&off));
        assert!(spellings().iter().all(|p| p.is_supported()));
        // Cached: repeated resolution cannot flip.
        assert_eq!(active_path(), active_path());
    }

    #[test]
    fn detected_features_tag_is_consistent() {
        let tag = detected_features();
        assert_eq!(fma_semantics(), tag.contains("avx2+fma"));
        assert_eq!(avx512_detected(), tag.contains("avx512f"));
        assert!(active_path().is_supported());
    }

    #[test]
    fn prefetch_accepts_arbitrary_addresses() {
        let v = [1.0f32; 4];
        prefetch_read(v.as_ptr());
        prefetch_read(v.as_ptr().wrapping_add(1 << 20));
        prefetch_read(std::ptr::null());
    }
}
