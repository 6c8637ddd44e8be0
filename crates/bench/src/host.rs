//! Host provenance facts recorded in every `BENCH_*.json` row.
//!
//! The four `bench_*` gates each stamp their rows with the machine's
//! core count, the detected SIMD feature set, and the dispatch path
//! actually taken, so a committed results file documents the hardware
//! it was measured on. This helper is the single source of those
//! fields — the regression gate (`lorafusion_trace::regress`) treats
//! them as provenance and never compares them, but they must stay
//! consistently named across binaries for that skip list to hold.

use std::time::Instant;

use lorafusion_tensor::{pool, simd, SimdPath};

/// One row's worth of host provenance.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// `pool::host_parallelism()` — available cores, not configured
    /// threads.
    pub host_cores: usize,
    /// CPUID-detected feature summary (e.g. `avx2+fma`, `scalar`).
    pub detected_features: String,
    /// The SIMD dispatch path actually active for this process.
    pub simd_path: String,
}

/// Sample the host facts once per run.
pub fn host_info() -> HostInfo {
    HostInfo {
        host_cores: pool::host_parallelism(),
        detected_features: simd::detected_features().to_string(),
        simd_path: simd::active_path().tag().to_string(),
    }
}

/// Rounds of one timed [`simd::fma_probe`] run: ~150 MFLOP on the
/// AVX-512 spelling, about a millisecond at this core's ceiling.
const PROBE_ROUNDS: usize = 200_000;
/// Timed probe runs; the fastest is the one least disturbed by other
/// load on the core.
const PROBE_REPS: usize = 15;

/// One core's arithmetic ceiling for `path` in GFLOP/s: the fastest of
/// [`PROBE_REPS`] timed runs of the register-only FMA probe in
/// `tensor::simd`. This is the roofline the GEMM benches quote their
/// rates against (`peak_gflops`, `pct_of_peak`). `None` for the scalar
/// spellings, which have no probe.
///
/// Panics if `path` is not supported on this host.
pub fn peak_gflops(path: SimdPath) -> Option<f64> {
    let mut flops = 0.0;
    let mut best = f64::INFINITY;
    for _ in 0..PROBE_REPS {
        let start = Instant::now();
        let (done, value) = simd::fma_probe(path, std::hint::black_box(PROBE_ROUNDS))?;
        std::hint::black_box(value);
        best = best.min(start.elapsed().as_secs_f64());
        flops = done;
    }
    Some(flops / best / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_info_is_populated_and_stable() {
        let a = host_info();
        let b = host_info();
        assert!(a.host_cores >= 1);
        assert!(!a.detected_features.is_empty());
        assert!(!a.simd_path.is_empty());
        assert_eq!(a.host_cores, b.host_cores);
        assert_eq!(a.detected_features, b.detected_features);
        assert_eq!(a.simd_path, b.simd_path);
    }

    #[test]
    fn peak_probe_reads_a_positive_rate_on_vector_spellings_only() {
        for &path in simd::spellings() {
            match (path, peak_gflops(path)) {
                (SimdPath::ScalarFma | SimdPath::Scalar, peak) => assert_eq!(peak, None),
                (_, Some(gflops)) => assert!(gflops.is_finite() && gflops > 0.0, "{path:?}"),
                (_, None) => panic!("{path:?} has no probe"),
            }
        }
    }
}
