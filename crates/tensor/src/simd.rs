//! The explicit-SIMD execution tier: runtime CPU-feature detection, the
//! `LORAFUSION_SIMD` override, and the AVX2+FMA register microkernel.
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
//!   AVX2 kernel and the scalar fallback alike — accumulates with a fused
//!   multiply-add (`f32::mul_add` in the scalar twin, `vfmaddps` in the
//!   vector kernel; both are correctly rounded, hence bitwise-equal). On a
//!   host without FMA every path uses the historical mul-then-add kernel.
//!   The env override can therefore never change a result bit: it moves
//!   execution between two spellings of the *same* rounding behaviour.
//! * **Execution path** is a pure function of `(detected features,
//!   LORAFUSION_SIMD)`. `LORAFUSION_SIMD=0` forces the scalar spelling,
//!   anything else (or unset) takes the vector kernel when the features
//!   are present. Both inputs are read once per process and cached, so
//!   the path cannot flip mid-run.
//!
//! The bitwise-vs-fallback contract — `LORAFUSION_SIMD=0` and the default
//! produce identical bits on any given host — is asserted by the fuzz
//! matrix in `crates/tensor/tests/gemm_fuzz.rs` and by the dual-path
//! digest gate in `scripts/ci.sh`.

use std::sync::OnceLock;

use crate::microkernel::{Panel, MR, NR};

/// Which microkernel spelling a GEMM call executes. See the module docs
/// for the purity rules; obtain values via [`active_path`] / [`path_for`]
/// rather than constructing them ad hoc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// Explicit `core::arch` AVX2+FMA 6x16 register kernel. Requires
    /// [`fma_semantics`] to be true.
    Avx2Fma,
    /// Scalar twin of the vector kernel: same fused multiply-add rounding
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
            SimdPath::Avx2Fma => "avx2+fma",
            SimdPath::ScalarFma => "scalar-fma",
            SimdPath::Scalar => "scalar",
        }
    }

    /// Whether this path can execute on the current host. `Avx2Fma`
    /// requires detection; the scalar spellings always run.
    pub fn is_supported(self) -> bool {
        match self {
            SimdPath::Avx2Fma => fma_semantics(),
            SimdPath::ScalarFma | SimdPath::Scalar => true,
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

#[cfg(target_arch = "x86_64")]
fn detect_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_avx2_fma() -> bool {
    false
}

/// Human-readable summary of the detected features, recorded in bench
/// result rows so cross-machine trajectories stay comparable.
pub fn detected_features() -> &'static str {
    if fma_semantics() {
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
    } else if enabled {
        SimdPath::Avx2Fma
    } else {
        SimdPath::ScalarFma
    }
}

/// The process-wide active path: `path_for` applied to the cached
/// `LORAFUSION_SIMD` decision.
pub fn active_path() -> SimdPath {
    path_for(env_enables_simd())
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

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Panel, MR, NR};
    use core::arch::x86_64::{
        __m256, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_storeu_ps,
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
        if fma_semantics() {
            assert_eq!(on, SimdPath::Avx2Fma);
            assert_eq!(off, SimdPath::ScalarFma);
        } else {
            assert_eq!(on, SimdPath::Scalar);
            assert_eq!(off, SimdPath::Scalar);
        }
        // Cached: repeated resolution cannot flip.
        assert_eq!(active_path(), active_path());
    }

    #[test]
    fn detected_features_tag_is_consistent() {
        assert_eq!(fma_semantics(), detected_features() == "avx2+fma");
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
