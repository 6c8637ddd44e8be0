//! The fine-tuning workloads (`mix4`, `solo`): the Fig. 8 workflow from
//! job description through planning to the multi-adapter step loop.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lorafusion::prelude::*;
use lorafusion::PlannerError;
use lorafusion_data::Sample;
use lorafusion_sched::{cold_solve, verify_bubble_lemma, Job, Microbatch, Schedule};
use lorafusion_trace::hist::quantile_from_buckets;

use crate::report::{self, median, quantile, weighted_quantile, Report};
use crate::Args;

/// One fine-tuning workload.
pub struct TrainSpec {
    /// Dataset of each tenant, one adapter per entry.
    pub tenants: &'static [DatasetPreset],
    /// Hidden size `k = n` of the layer the trainer executes.
    pub hidden: usize,
}

/// Four tenants with heterogeneous, heavy-tailed lengths: mixed-adapter
/// ~16k-token microbatches, so packing, routing and skinny GEMMs matter.
pub const MIX4: TrainSpec = TrainSpec {
    tenants: &[
        DatasetPreset::XSum,
        DatasetPreset::CnnDailyMail,
        DatasetPreset::WikiSum,
        DatasetPreset::Mixed,
    ],
    hidden: 256,
};

/// One short-sequence tenant: single-adapter microbatches where the
/// square base GEMM dominates.
pub const SOLO: TrainSpec = TrainSpec {
    tenants: &[DatasetPreset::XSum],
    hidden: 1024,
};

/// Samples per tenant.
const SAMPLES: usize = 48;
/// Samples per optimizer step.
const GLOBAL_BATCH: usize = 8;
/// Set-ups of the same jobs per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Every adapter uses the paper's rank-16 default.
const RANK: usize = 16;
/// Padding multiple of the schedule (the scheduler's default).
const PADDING: usize = 64;
/// Pipeline stages of the planning target (`ClusterSpec::h100(4)`).
const STAGES: usize = 4;
const LEARNING_RATE: f32 = 1e-4;
const PROBE_TOKENS: usize = 256;
/// Seeded draw the stratified lengths are taken from.
const STRATA_POOL: usize = 4096;
/// Program counters the set-up layers move.
const SETUP_COUNTERS: [&str; 5] = [
    "scheduler.packings",
    "scheduler.milp_selected",
    "solver.bb.nodes",
    "layer_cost.cache_hits",
    "layer_cost.cache_misses",
];
/// Program counters the step loop moves.
const LOOP_COUNTERS: [&str; 3] = ["gemm.calls", "arena.growths", "pool.tasks"];

/// The jobs, their plan and a trainer ready to execute it.
struct Setup {
    jobs: Vec<FinetuneJob>,
    plan: Plan,
    steps: Vec<Step>,
    config: TrainerConfig,
    trainer: MultiAdapterTrainer,
    /// Per microbatch, its iteration times in untraced (`[0]`) and traced
    /// (`[1]`) epochs.
    step_s: [Vec<Vec<f64>>; 2],
}

impl Setup {
    fn tokens(&self) -> usize {
        self.plan.schedule.total_tokens()
    }
}

/// Wall time of the set-up phases, one entry per set-up.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    plan: Vec<f64>,
    init: Vec<f64>,
    unaccounted: Vec<f64>,
}

/// Wall time and work of the step loop.
#[derive(Default)]
struct LoopTimes {
    sample: f64,
    step: f64,
    apply: f64,
    flops: f64,
    traced_steps: usize,
}

/// One microbatch of the step loop.
struct Step {
    tokens: usize,
    /// `(adapter, tokens)` runs in schedule order.
    segments: Vec<(usize, usize)>,
    /// Adapters whose global batch ends with this microbatch.
    applies: Vec<usize>,
}

/// Draws `n` sample lengths of `preset` stratified over its distribution,
/// in a seeded order: a large seeded draw is sorted, the length at the
/// midpoint of each of `n` equal strata is kept, and the result shuffled.
/// Every seed trains the same length profile in a different order, so
/// the figures do not hinge on how heavy one small draw's tail came out.
fn stratified(preset: DatasetPreset, n: usize, seed: u64) -> Dataset {
    let mut lens = Dataset::from_preset(preset, STRATA_POOL, seed).lengths();
    lens.sort_unstable();
    let mut picked: Vec<usize> = (0..n)
        .map(|i| lens[(2 * i + 1) * STRATA_POOL / (2 * n)])
        .collect();
    // Fisher-Yates with a SplitMix64 stream.
    let mut state = seed;
    for i in (1..picked.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        picked.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    Dataset {
        name: preset.name().to_string(),
        samples: picked
            .into_iter()
            .enumerate()
            .map(|(id, len)| Sample { id: id as u64, len })
            .collect(),
    }
}

/// The workload's jobs: one rank-16 adapter (dropout 0.1) per tenant, the
/// same defaults as `FinetuneJob::synthetic`, over stratified data.
fn build_jobs(spec: &TrainSpec, seed: u64) -> Vec<FinetuneJob> {
    spec.tenants
        .iter()
        .enumerate()
        .map(|(i, &preset)| {
            let job_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1);
            FinetuneJob::new(
                format!("{}-{i}", preset.name()),
                LoraConfig {
                    seed: job_seed,
                    ..LoraConfig::with_rank(RANK)
                },
                stratified(preset, SAMPLES, job_seed),
                GLOBAL_BATCH,
            )
        })
        .collect()
}

fn trainer_config(jobs: &[FinetuneJob], spec: &TrainSpec, seed: u64) -> TrainerConfig {
    TrainerConfig {
        k: spec.hidden,
        n: spec.hidden,
        adapters: jobs.iter().map(|j| j.lora).collect(),
        learning_rate: LEARNING_RATE,
        seed,
        executor: ExecutorKind::FusedMulti,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// FNV-1a over the schedule's `(adapter, global batch, sample id, len)`
/// entries and microbatch boundaries.
fn schedule_digest(microbatches: &[Microbatch]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for mb in microbatches {
        mix(u64::MAX - mb.entries.len() as u64);
        for e in &mb.entries {
            mix(e.adapter as u64);
            mix(e.global_batch as u64);
            mix(e.sample.id);
            mix(e.sample.len as u64);
        }
    }
    h
}

/// Output checks on a plan: every sample is scheduled exactly once and the
/// bubble lemma holds for the target pipeline.
fn check_schedule(report: &mut Report, jobs: &[FinetuneJob], schedule: &Schedule) {
    let mut seen: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    for e in schedule.microbatches.iter().flat_map(|m| &m.entries) {
        *seen.entry((e.adapter, e.sample.id)).or_insert(0) += 1;
    }
    let expected: usize = jobs.iter().map(|j| j.dataset.len()).sum();
    let covered = jobs.iter().enumerate().all(|(a, j)| {
        j.dataset
            .samples
            .iter()
            .all(|s| seen.get(&(a, s.id)) == Some(&1))
    });
    report.check(covered && seen.len() == expected, || {
        format!(
            "schedule covers {} distinct samples of {expected}, not each exactly once",
            seen.len()
        )
    });
    let violations = verify_bubble_lemma(&schedule.microbatches, STAGES);
    report.check(violations.is_empty(), || {
        format!(
            "bubble lemma: {} violations, first {:?}",
            violations.len(),
            violations.first()
        )
    });
}

/// The step loop's microbatches, with the optimizer step of each adapter
/// placed after the last microbatch of each of its global batches.
fn steps(schedule: &Schedule) -> Vec<Step> {
    let real: Vec<&Microbatch> = schedule.microbatches.iter().filter(|m| !m.noop).collect();
    let mut last: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (i, mb) in real.iter().enumerate() {
        for e in &mb.entries {
            last.insert((e.adapter, e.global_batch), i);
        }
    }
    let mut out: Vec<Step> = real
        .iter()
        .map(|mb| {
            let mut segments: Vec<(usize, usize)> = Vec::new();
            for e in &mb.entries {
                match segments.last_mut() {
                    Some((a, len)) if *a == e.adapter => *len += e.sample.len,
                    _ => segments.push((e.adapter, e.sample.len)),
                }
            }
            Step {
                tokens: mb.real_tokens(),
                segments,
                applies: Vec::new(),
            }
        })
        .collect();
    for (&(adapter, _), &i) in &last {
        if !out[i].applies.contains(&adapter) {
            out[i].applies.push(adapter);
        }
    }
    out
}

/// Analytic GEMM FLOPs of one microbatch step: the target GEMM, the base
/// forward and input-gradient GEMMs, two LoRA forward and four LoRA
/// backward skinny GEMMs.
fn step_flops(tokens: usize, hidden: usize) -> f64 {
    let (m, h, r) = (tokens as f64, hidden as f64, RANK as f64);
    m * (6.0 * h * h + 12.0 * h * r)
}

/// Per-adapter probe losses (fixed probe batch).
fn probe(trainer: &MultiAdapterTrainer, adapters: usize, seed: u64) -> Vec<f64> {
    (0..adapters)
        .map(|a| {
            let _s = lorafusion_trace::span!("bench.probe_loss");
            trainer.probe_loss(a, PROBE_TOKENS, seed)
        })
        .collect()
}

/// Describes the jobs, plans them and builds the trainer, timing each
/// phase from outside.
fn set_up(
    spec: &TrainSpec,
    planner: &Planner,
    seed: u64,
    times: &mut SetupTimes,
) -> Result<Setup, PlannerError> {
    let t0 = Instant::now();
    let jobs = {
        let _s = lorafusion_trace::span!("bench.build_jobs");
        build_jobs(spec, seed)
    };
    let t1 = Instant::now();
    let plan = {
        let _s = lorafusion_trace::span!("bench.plan");
        planner.plan(&jobs)?
    };
    let t2 = Instant::now();
    let config = trainer_config(&jobs, spec, seed);
    let trainer = {
        let _s = lorafusion_trace::span!("bench.init");
        MultiAdapterTrainer::new(&config)
    };
    let t3 = Instant::now();
    let total = secs(t3 - t0);
    times.total.push(total);
    times.plan.push(secs(t2 - t1));
    times.init.push(secs(t3 - t2));
    times
        .unaccounted
        .push((total - secs(t1 - t0) - secs(t2 - t1) - secs(t3 - t2)) / total);
    let steps = steps(&plan.schedule);
    let step_s = [vec![Vec::new(); steps.len()], vec![Vec::new(); steps.len()]];
    Ok(Setup {
        jobs,
        plan,
        steps,
        config,
        trainer,
        step_s,
    })
}

/// One epoch of `setup`'s schedule through its trainer.
fn epoch(
    setup: &mut Setup,
    spec: &TrainSpec,
    traced: bool,
    times: &mut LoopTimes,
    report: &mut Report,
) {
    let trainer = &mut setup.trainer;
    for (i, step) in setup.steps.iter().enumerate() {
        let t0 = Instant::now();
        let x = {
            let _s = lorafusion_trace::span!("bench.sample_input");
            trainer.sample_input(step.tokens)
        };
        let t1 = Instant::now();
        let losses = {
            let _s = lorafusion_trace::span!("bench.step_microbatch");
            trainer.step_microbatch(&x, &step.segments)
        };
        let t2 = Instant::now();
        for &a in &step.applies {
            let _s = lorafusion_trace::span!("bench.apply_adapter_step");
            trainer.apply_adapter_step(a);
        }
        let t3 = Instant::now();
        match losses {
            Ok(l) if l.values().all(|v| v.is_finite()) => report.ok_ops(1),
            other => report.check(false, || format!("step_microbatch: {other:?}")),
        }
        times.sample += secs(t1 - t0);
        times.step += secs(t2 - t1);
        times.apply += secs(t3 - t2);
        times.flops += step_flops(step.tokens, spec.hidden);
        times.traced_steps += usize::from(traced);
        setup.step_s[usize::from(traced)][i].push(secs(t3 - t0));
    }
}

/// Iteration time of each microbatch across the epochs of one kind
/// (traced or not): the fastest. Contention from other tenants of the host
/// only ever slows an iteration down, and it comes in slow stretches
/// longer than an epoch, so any other statistic reads which stretch the
/// run fell into more than it reads the program.
fn fastest_step_s(setup: &Setup, traced: bool) -> Vec<f64> {
    setup.step_s[usize::from(traced)]
        .iter()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// Tokens per second of the step loop: the epoch's tokens over the sum of
/// the microbatches' fastest iteration times.
fn tokens_per_s(setup: &Setup, traced: bool) -> f64 {
    setup.tokens() as f64 / fastest_step_s(setup, traced).iter().sum::<f64>()
}

/// Quantile `q` of the per-token latency in microseconds, weighting each
/// microbatch's fastest per-token time by its tokens.
fn per_token_us(setup: &Setup, q: f64) -> f64 {
    let pairs: Vec<(f64, usize)> = fastest_step_s(setup, false)
        .iter()
        .zip(&setup.steps)
        .map(|(t, step)| (t * 1e6 / step.tokens as f64, step.tokens))
        .collect();
    weighted_quantile(&pairs, q)
}

/// Runs the workload and records its metrics into `report`.
pub fn run(spec: &TrainSpec, args: &Args, report: &mut Report) {
    let planner = Planner::new(ModelPreset::Llama8b, ClusterSpec::h100(STAGES));

    // ---- Set-up, several times: job description -> plan -> ready trainer.
    let setup_before = report::counters(SETUP_COUNTERS);
    let mut setup_times = SetupTimes::default();
    let mut digests = Vec::new();
    let mut padded = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        match set_up(spec, &planner, args.seed, &mut setup_times) {
            Ok(setup) => {
                report.ok_ops(1);
                check_schedule(report, &setup.jobs, &setup.plan.schedule);
                let schedule = &setup.plan.schedule;
                digests.push(format!("{:016x}", schedule_digest(&schedule.microbatches)));
                padded.push(
                    schedule
                        .microbatches
                        .iter()
                        .map(|m| m.padded_tokens(PADDING))
                        .sum::<usize>(),
                );
                ready = Some(setup);
            }
            Err(e) => {
                report.check(false, || format!("Planner::plan failed: {e}"));
                return;
            }
        }
    }
    let [packings, milp_selected, bb_nodes, cost_hits, cost_misses] =
        report::counters_since(SETUP_COUNTERS, setup_before);
    let mut setup = ready.expect("at least one set-up");
    report.note("capacity", setup.plan.capacity);
    report.note("schedule_digests", digests.join(","));
    report.note("padded_tokens", format!("{padded:?}"));
    report.note("microbatches", setup.steps.len());
    report.note("real_tokens", setup.tokens());
    report.note("setup_s", format!("{:?}", setup_times.total));

    // ---- Step loop: whole epochs until time is up.
    let adapters = setup.jobs.len();
    let probe_seed = args.seed ^ 0x5E_ED0F_90BE;
    let before = probe(&setup.trainer, adapters, probe_seed);
    let gemm_m_before = report::histogram_buckets("gemm.m.tokens");
    let loop_before = report::counters(LOOP_COUNTERS);
    let mut times = LoopTimes::default();
    let mut epochs = 0usize;
    let loop_start = Instant::now();
    loop {
        // The traced run alternates untraced and traced epochs so the
        // tracing overhead is measured under the same conditions.
        let traced = args.trace && epochs % 2 == 1;
        if args.trace {
            if traced {
                lorafusion_trace::enable_capture();
            } else {
                lorafusion_trace::disable();
            }
        }
        epoch(&mut setup, spec, traced, &mut times, report);
        epochs += 1;
        if secs(loop_start.elapsed()) >= args.seconds && (!args.trace || epochs >= 2) {
            break;
        }
    }
    let loop_wall = secs(loop_start.elapsed());
    if args.trace {
        lorafusion_trace::disable();
    }
    let [gemm_calls, arena_growths, pool_tasks] =
        report::counters_since(LOOP_COUNTERS, loop_before);
    let gemm_m = report::bucket_delta(&gemm_m_before, &report::histogram_buckets("gemm.m.tokens"));
    let after = probe(&setup.trainer, adapters, probe_seed);
    for (a, (b, f)) in before.iter().zip(&after).enumerate() {
        report.check(f < b, || {
            format!("adapter {a}: probe loss did not fall ({b} -> {f})")
        });
    }
    report.note("probe_loss_before", format!("{before:?}"));
    report.note("probe_loss_after", format!("{after:?}"));
    report.note("epochs", epochs);
    let loop_unaccounted = (loop_wall - times.sample - times.step - times.apply) / loop_wall;
    let setup_unaccounted = median(&setup_times.unaccounted);
    for (phase, share) in [("setup", setup_unaccounted), ("loop", loop_unaccounted)] {
        report.check(share <= 0.05, || {
            format!(
                "{phase}: {:.1}% of wall time is outside the timed calls",
                share * 100.0
            )
        });
    }
    let schedule = &setup.plan.schedule;
    let microbatches = setup.steps.len();

    if !args.trace {
        let cold_bins = cold_solve(&all_jobs(&setup.jobs), setup.plan.capacity, PADDING).len();
        report.metric("train_tokens_per_s", tokens_per_s(&setup, false));
        report.metric("setup_s", median(&setup_times.total));
        report.metric("event_us_p50", per_token_us(&setup, 0.5));
        report.metric("event_us_p99", per_token_us(&setup, 0.99));
        report.metric(
            "bins_over_cold",
            microbatches as f64 / cold_bins.max(1) as f64,
        );
        return;
    }

    // ---- Traced run: per-layer metrics.
    let n_steps = (epochs * microbatches).max(1) as f64;
    let per_setup = SETUPS as f64;
    let spans = report::span_times(&[
        "bench.build_jobs",
        "bench.plan",
        "bench.init",
        "scheduler.schedule",
        "pipeline.simulate",
        "bench.sample_input",
        "bench.step_microbatch",
        "bench.apply_adapter_step",
        "multi.forward",
        "multi.backward",
    ]);
    let span = |name: &str| spans.get(name).copied().unwrap_or((0.0, 0.0));
    report.metric("planner.plan_s", median(&setup_times.plan));
    report.metric("planner.candidates", setup.plan.candidates.len() as f64);
    report.metric("sched.schedule_s", span("scheduler.schedule").0 / per_setup);
    report.metric(
        "sched.milp_selected_share",
        milp_selected as f64 / packings.max(1) as f64,
    );
    report.metric("solver.bb_nodes", bb_nodes as f64 / per_setup);
    report.metric(
        "dist.pipeline_sim_s",
        span("pipeline.simulate").0 / per_setup,
    );
    report.metric(
        "dist.layer_cost_hit_ratio",
        cost_hits as f64 / (cost_hits + cost_misses).max(1) as f64,
    );
    report.metric("runtime.init_s", median(&setup_times.init));
    report.metric("setup.unaccounted_share", setup_unaccounted);

    let step_ms: Vec<f64> = setup
        .step_s
        .iter()
        .flatten()
        .flatten()
        .map(|s| s * 1e3)
        .collect();
    report.metric("runtime.step_ms_p50", quantile(&step_ms, 0.5));
    report.metric("runtime.step_ms_p90", quantile(&step_ms, 0.9));
    report.metric("runtime.step_gflops", times.flops / times.step / 1e9);
    let traced_steps = times.traced_steps.max(1) as f64;
    report.metric(
        "kernels.multi_fwd_s",
        span("multi.forward").0 / traced_steps,
    );
    report.metric(
        "kernels.multi_bwd_s",
        span("multi.backward").0 / traced_steps,
    );
    report.metric("tensor.gemm_calls", gemm_calls as f64 / n_steps);
    report.metric(
        "tensor.gemm_m_p50",
        quantile_from_buckets(&gemm_m, 0.5) as f64,
    );
    report.metric("tensor.arena_growths", arena_growths as f64);
    report.metric("tensor.pool_tasks", pool_tasks as f64 / n_steps);
    let mb_tokens: Vec<f64> = setup.steps.iter().map(|s| s.tokens as f64).collect();
    report.metric("sched.microbatches", microbatches as f64);
    report.metric(
        "sched.segments_per_mb",
        setup.steps.iter().map(|s| s.segments.len()).sum::<usize>() as f64
            / microbatches.max(1) as f64,
    );
    report.metric("sched.tokens_per_mb_cv", report::cv(&mb_tokens));
    let padded: usize = schedule
        .microbatches
        .iter()
        .map(|m| m.padded_tokens(PADDING))
        .sum();
    report.metric(
        "sched.padded_over_real",
        padded as f64 / setup.tokens().max(1) as f64,
    );
    report.metric("runtime.sample_input_share", times.sample / loop_wall);
    report.metric("optimizer.apply_share", times.apply / loop_wall);
    report.metric("loop.unaccounted_share", loop_unaccounted);
    let untraced = tokens_per_s(&setup, false);
    let traced = tokens_per_s(&setup, true);
    report.metric("trace.overhead_tokens_per_s", traced - untraced);
    report.metric("trace.overhead_share", (traced - untraced) / untraced);
    let gap = loss_gap_vs_reference(&setup, probe_seed, report);
    report.metric("runtime.loss_gap_vs_reference", gap);

    report.metric("self_s.build_jobs", span("bench.build_jobs").1 / per_setup);
    report.metric("self_s.plan", span("bench.plan").1 / per_setup);
    report.metric(
        "self_s.scheduler.schedule",
        span("scheduler.schedule").1 / per_setup,
    );
    report.metric(
        "self_s.pipeline.simulate",
        span("pipeline.simulate").1 / per_setup,
    );
    report.metric("self_s.init", span("bench.init").1 / per_setup);
    for (metric, name) in [
        ("self_ms.sample_input", "bench.sample_input"),
        ("self_ms.step_microbatch", "bench.step_microbatch"),
        ("self_ms.multi.forward", "multi.forward"),
        ("self_ms.multi.backward", "multi.backward"),
        ("self_ms.apply_adapter_step", "bench.apply_adapter_step"),
    ] {
        report.metric(metric, span(name).1 * 1e3 / traced_steps);
    }
}

/// Every sample of every job as an online-scheduler job, for the cold
/// best-fit-decreasing bin count.
fn all_jobs(jobs: &[FinetuneJob]) -> Vec<Job> {
    jobs.iter()
        .enumerate()
        .flat_map(|(a, j)| {
            j.dataset.samples.iter().map(move |s| Job {
                id: ((a as u64) << 32) | s.id,
                adapter: a,
                len: s.len,
            })
        })
        .collect()
}

/// Replays one epoch of the schedule from identical initial state with the
/// fused multi-adapter executor and with the unfused reference, and returns
/// the largest relative gap between their final per-adapter probe losses.
fn loss_gap_vs_reference(setup: &Setup, probe_seed: u64, report: &mut Report) -> f64 {
    let adapters = setup.jobs.len();
    let mut finals = Vec::new();
    for executor in [ExecutorKind::FusedMulti, ExecutorKind::Reference] {
        let mut trainer = MultiAdapterTrainer::new(&TrainerConfig {
            executor,
            ..setup.config.clone()
        });
        for step in &setup.steps {
            let x = trainer.sample_input(step.tokens);
            let res = trainer.step_microbatch(&x, &step.segments);
            report.check(res.is_ok(), || format!("{executor:?} replay: {res:?}"));
            for &a in &step.applies {
                trainer.apply_adapter_step(a);
            }
        }
        finals.push(probe(&trainer, adapters, probe_seed));
    }
    report.note("probe_loss_fused_multi", format!("{:?}", finals[0]));
    report.note("probe_loss_reference", format!("{:?}", finals[1]));
    (0..adapters)
        .map(|a| (finals[0][a] - finals[1][a]).abs() / finals[1][a])
        .fold(0.0, f64::max)
}
