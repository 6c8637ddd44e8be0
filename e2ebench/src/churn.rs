//! The `churn` workload: the online scheduler replays a seeded,
//! cancel-heavy arrival/finish/cancel stream at ~10k live jobs.

use std::collections::HashMap;
use std::time::Instant;

use lorafusion_data::{generate_events, DatasetPreset, EventStreamConfig, JobEvent};
use lorafusion_sched::{cold_solve, Job, OnlineConfig, OnlineScheduler};

use crate::report::{self, median, quantile, LatencyHist, Report};
use crate::Args;

/// Live jobs the stream hovers around.
const TARGET_LIVE: usize = 10_000;
/// Events applied while loading the scheduler (part of set-up); the live
/// count reaches ~95% of the target by then.
const WARMUP_EVENTS: usize = 50_000;
/// Events timed per round.
const MEASURED_EVENTS: usize = 400_000;
/// Departures that are cancels rather than finishes, per mille.
const CANCEL_PER_MILLE: u32 = 600;
const ADAPTERS: usize = 16;
/// Repair-ladder counters of the online scheduler: local repairs, warm
/// solves, cold solves.
const REPACK_COUNTERS: [&str; 3] = [
    "scheduler.repack.local_repair",
    "scheduler.repack.warm_solves",
    "scheduler.repack.cold_solves",
];
/// Spans recorded per traced round (bounded to keep the trace small).
const TRACED_EVENTS: usize = 50_000;

fn stream_config(config: &OnlineConfig) -> EventStreamConfig {
    EventStreamConfig {
        num_events: WARMUP_EVENTS + MEASURED_EVENTS,
        num_adapters: ADAPTERS,
        lengths: DatasetPreset::Mixed.distribution(),
        max_len: config.capacity,
        cancel_per_mille: CANCEL_PER_MILLE,
        target_live: TARGET_LIVE,
    }
}

#[derive(Clone, Copy)]
enum Class {
    Arrive,
    Finish,
    Cancel,
}

fn class(e: &JobEvent) -> Class {
    match e {
        JobEvent::Arrive { .. } => Class::Arrive,
        JobEvent::Finish { .. } => Class::Finish,
        JobEvent::Cancel { .. } => Class::Cancel,
    }
}

/// The live jobs after `events`.
fn live_jobs(events: &[JobEvent]) -> Vec<Job> {
    let mut live: HashMap<u64, Job> = HashMap::new();
    for e in events {
        match *e {
            JobEvent::Arrive { id, adapter, len } => {
                live.insert(id, Job { id, adapter, len });
            }
            JobEvent::Finish { id } | JobEvent::Cancel { id } => {
                live.remove(&id);
            }
        }
    }
    let mut jobs: Vec<Job> = live.into_values().collect();
    jobs.sort_unstable_by_key(|j| j.id);
    jobs
}

/// Runs the workload and records its metrics into `report`.
pub fn run(args: &Args, report: &mut Report) {
    let config = OnlineConfig::default();
    let mut setup_s = Vec::new();
    let mut hists = [LatencyHist::new(), LatencyHist::new(), LatencyHist::new()];
    // Per untraced round: placed tokens per second, p50 and p99 in µs.
    let mut rounds: Vec<[f64; 3]> = Vec::new();
    let mut traced_tps = 0.0;
    let mut first: Option<(u64, Vec<JobEvent>)> = None;
    let mut repairs = [0u64; 3];
    let mut bins = (0usize, 0usize, 0usize);
    let start = Instant::now();
    // At least two rounds, so the replay digest can be compared.
    while secs(start) < args.seconds || setup_s.len() < 2 {
        let round = setup_s.len();
        // ---- Set-up: describe the stream and load the scheduler.
        let t0 = Instant::now();
        let events = {
            let _s = lorafusion_trace::span!("bench.generate_events");
            generate_events(&stream_config(&config), args.seed)
        };
        let mut sched = match OnlineScheduler::new(config.clone()) {
            Ok(s) => s,
            Err(e) => {
                report.check(false, || format!("OnlineScheduler::new: {e}"));
                return;
            }
        };
        let mut load_ok = true;
        {
            let _s = lorafusion_trace::span!("bench.load");
            for e in &events[..WARMUP_EVENTS] {
                load_ok &= sched.apply(e).is_ok();
            }
        }
        setup_s.push(secs(t0));
        report.check(load_ok, || "an apply failed while loading".into());

        // ---- Timed replay, one `apply` at a time.
        let repack_before = report::counters(REPACK_COUNTERS);
        let mut all = LatencyHist::new();
        let mut tokens = [0.0f64; 2];
        let mut elapsed = [0.0f64; 2];
        let mut failed = 0u64;
        for (i, e) in events[WARMUP_EVENTS..].iter().enumerate() {
            // Round 0 of the traced run records spans for its first events.
            let traced = args.trace && round == 0 && i < TRACED_EVENTS;
            if args.trace && round == 0 && i == TRACED_EVENTS {
                lorafusion_trace::disable();
            }
            let t = Instant::now();
            let res = {
                let _s = lorafusion_trace::span!("bench.apply");
                sched.apply(e)
            };
            let ns = t.elapsed().as_nanos() as u64;
            failed += u64::from(res.is_err());
            hists[class(e) as usize].record(ns);
            all.record(ns);
            if let JobEvent::Arrive { len, .. } = e {
                tokens[usize::from(traced)] += *len as f64;
            }
            elapsed[usize::from(traced)] += ns as f64 / 1e9;
        }
        report.ok_ops(MEASURED_EVENTS as u64 - failed);
        for _ in 0..failed {
            report.check(false, || "OnlineScheduler::apply failed".into());
        }
        let us = |q: f64| all.quantile_ns(q) as f64 / 1e3;
        rounds.push([tokens[0] / elapsed[0], us(0.5), us(0.99)]);
        if elapsed[1] > 0.0 {
            traced_tps = tokens[1] / elapsed[1];
        }

        // ---- Output checks.
        let valid = sched.validate();
        report.check(valid.is_ok(), || format!("validate: {valid:?}"));
        let digest = sched.digest();
        match &first {
            None => {
                repairs = report::counters_since(REPACK_COUNTERS, repack_before);
                let live = live_jobs(&events);
                report.check(live.len() == sched.num_jobs(), || {
                    format!(
                        "{} live jobs, scheduler holds {}",
                        live.len(),
                        sched.num_jobs()
                    )
                });
                let cold = cold_solve(&live, config.capacity, config.padding_multiple).len();
                // The documented quality envelope of the online packing.
                let bound = (1.25 * cold as f64).ceil() as usize + 1;
                report.check(sched.num_bins() <= bound, || {
                    format!(
                        "{} online bins exceed {bound} (cold {cold})",
                        sched.num_bins()
                    )
                });
                bins = (sched.num_bins(), cold, sched.lower_bound_bins());
                report.note("live_jobs", live.len());
                report.note("online_bins", sched.num_bins());
                report.note("cold_bins", cold);
                report.note("lower_bound_bins", sched.lower_bound_bins());
                report.note("digest", format!("{digest:016x}"));
                first = Some((digest, events));
            }
            Some((d, first_events)) => {
                report.check(*d == digest && *first_events == events, || {
                    format!("replay digest {digest:016x} differs from {d:016x}")
                });
            }
        }
    }
    if args.trace {
        lorafusion_trace::disable();
    }
    report.note("rounds", setup_s.len());
    report.note("setup_s", format!("{setup_s:?}"));
    // A typical round: each figure at its better quartile over rounds.
    // Contention from other tenants of the host only slows a round down;
    // the best round itself is too rare an event to repeat, above all for
    // the p99.
    let typical = |i: usize, q: f64| quantile(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>(), q);
    let us = |h: &LatencyHist, q: f64| h.quantile_ns(q) as f64 / 1e3;

    if !args.trace {
        report.metric("train_tokens_per_s", typical(0, 0.75));
        report.metric("setup_s", median(&setup_s));
        report.metric("event_us_p50", typical(1, 0.25));
        report.metric("event_us_p99", typical(2, 0.25));
        report.metric("bins_over_cold", bins.0 as f64 / bins.1.max(1) as f64);
        return;
    }
    report.metric(
        "online.apply_us_p50.arrive",
        us(&hists[Class::Arrive as usize], 0.5),
    );
    report.metric(
        "online.apply_us_p50.finish",
        us(&hists[Class::Finish as usize], 0.5),
    );
    report.metric(
        "online.apply_us_p50.cancel",
        us(&hists[Class::Cancel as usize], 0.5),
    );
    report.metric("online.local_repairs", repairs[0] as f64);
    report.metric("online.warm_solves", repairs[1] as f64);
    report.metric("online.cold_solves", repairs[2] as f64);
    report.metric("online.bins_over_lb", bins.0 as f64 / bins.2.max(1) as f64);
    report.metric("online.events", MEASURED_EVENTS as f64);
    let (untraced, traced) = (typical(0, 0.75), traced_tps);
    report.metric("trace.overhead_tokens_per_s", traced - untraced);
    report.metric("trace.overhead_share", (traced - untraced) / untraced);
    let spans = report::span_times(&["bench.generate_events", "bench.load", "bench.apply"]);
    let span = |name: &str| spans.get(name).copied().unwrap_or((0.0, 0.0));
    report.metric("self_s.generate_events", span("bench.generate_events").1);
    report.metric("self_s.load", span("bench.load").1);
    report.metric(
        "self_us.apply",
        span("bench.apply").1 * 1e6 / TRACED_EVENTS as f64,
    );
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
