//! End-to-end benchmark of the LoRAFusion reproduction.
//!
//! Drives only the public API a user calls — the Fig. 8 workflow
//! (`FinetuneJob` → `Planner::plan` → `MultiAdapterTrainer`) and
//! `OnlineScheduler::apply` for job churn — and times every layer from
//! outside, around the calls into its public functions.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload mix4 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `mix4`, `solo` (fine-tuning) and `churn` (online
//! re-packing); see `e2ebench/NOTES.md`. The last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod churn;
mod report;
mod train;

use std::process::ExitCode;

use report::Report;

/// Size of the global worker pool. One thread: on a shared two-vCPU host
/// the second vCPU's speed swings with its neighbours' load, which made
/// two-thread step times far less repeatable (see `NOTES.md`).
const THREADS: &str = "1";

/// End-to-end metrics (`--trace 0`) with their units; `BENCHMARK.json`
/// lists the same names.
const END_TO_END: &[(&str, &str)] = &[
    ("train_tokens_per_s", "tokens/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("event_us_p50", "us"),
    ("event_us_p99", "us"),
    ("bins_over_cold", "ratio"),
];

/// Per-layer metrics (`--trace 1`) with their units. A workload reports
/// 0 for a layer it never calls.
const PER_LAYER: &[(&str, &str)] = &[
    ("planner.plan_s", "s"),
    ("planner.candidates", "count"),
    ("sched.schedule_s", "s"),
    ("sched.milp_selected_share", "ratio"),
    ("solver.bb_nodes", "count"),
    ("dist.pipeline_sim_s", "s"),
    ("dist.layer_cost_hit_ratio", "ratio"),
    ("runtime.init_s", "s"),
    ("setup.unaccounted_share", "ratio"),
    ("runtime.step_ms_p50", "ms"),
    ("runtime.step_ms_p90", "ms"),
    ("runtime.step_gflops", "GFLOP/s"),
    ("kernels.multi_fwd_s", "s/mb"),
    ("kernels.multi_bwd_s", "s/mb"),
    ("tensor.gemm_calls", "count/mb"),
    ("tensor.gemm_m_p50", "rows"),
    ("tensor.arena_growths", "count"),
    ("tensor.pool_tasks", "count/mb"),
    ("sched.microbatches", "count"),
    ("sched.segments_per_mb", "count"),
    ("sched.tokens_per_mb_cv", "ratio"),
    ("sched.padded_over_real", "ratio"),
    ("runtime.sample_input_share", "ratio"),
    ("optimizer.apply_share", "ratio"),
    ("loop.unaccounted_share", "ratio"),
    ("runtime.loss_gap_vs_reference", "ratio"),
    ("trace.overhead_tokens_per_s", "tokens/s"),
    ("trace.overhead_share", "ratio"),
    ("self_s.build_jobs", "s"),
    ("self_s.plan", "s"),
    ("self_s.scheduler.schedule", "s"),
    ("self_s.pipeline.simulate", "s"),
    ("self_s.init", "s"),
    ("self_ms.sample_input", "ms/mb"),
    ("self_ms.step_microbatch", "ms/mb"),
    ("self_ms.multi.forward", "ms/mb"),
    ("self_ms.multi.backward", "ms/mb"),
    ("self_ms.apply_adapter_step", "ms/mb"),
    ("online.apply_us_p50.arrive", "us"),
    ("online.apply_us_p50.finish", "us"),
    ("online.apply_us_p50.cancel", "us"),
    ("online.local_repairs", "count"),
    ("online.warm_solves", "count"),
    ("online.cold_solves", "count"),
    ("online.bins_over_lb", "ratio"),
    ("online.events", "count"),
    ("self_s.generate_events", "s"),
    ("self_s.load", "s"),
    ("self_us.apply", "us"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload mix4|solo|churn --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Set before the first pool or trace call reads them.
    std::env::set_var("LORAFUSION_THREADS", THREADS);
    std::env::remove_var("LORAFUSION_TRACE");

    let mut report = Report::default();
    let host = lorafusion_bench::host::host_info();
    report.note("workload", &args.workload);
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", args.trace);
    report.note("host_cores", host.host_cores);
    report.note("detected_features", &host.detected_features);
    report.note("simd_path", &host.simd_path);
    report.note("threads", THREADS);

    let trace_path = format!(".bench_out/trace-{}-{}.json", args.workload, args.seed);
    if args.trace {
        lorafusion_trace::enable_to_path(std::path::Path::new(&trace_path));
    }
    match args.workload.as_str() {
        "mix4" => train::run(&train::MIX4, &args, &mut report),
        "solo" => train::run(&train::SOLO, &args, &mut report),
        "churn" => churn::run(&args, &mut report),
        other => {
            eprintln!("e2ebench: unknown workload {other:?} (mix4, solo, churn)");
            return ExitCode::from(2);
        }
    }
    if args.trace {
        lorafusion_trace::disable();
        let written = lorafusion_trace::flush();
        report.check(written.is_ok(), || {
            format!("writing {trace_path}: {written:?}")
        });
        report.note("trace_file", &trace_path);
    }
    let rss = report::peak_rss_mib();
    report.check(rss.is_some(), || "no VmHWM in /proc/self/status".into());
    if args.trace {
        report.finish(PER_LAYER, true);
    } else {
        report.metric("peak_rss_mib", rss.unwrap_or(0.0));
        report.finish(END_TO_END, false);
    }
    ExitCode::SUCCESS
}
