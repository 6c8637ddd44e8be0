//! Result line, output checks and the small statistics the workloads share.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use lorafusion_trace::metrics::{metrics_snapshot, Kind};
use lorafusion_trace::span::{all_thread_events, Cat};

/// Accumulates one run's operations, checks and metrics, and prints the
/// final result line.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    provenance: Vec<(String, String)>,
}

impl Report {
    /// Counts one operation or output check; a failing one is also
    /// described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn ok_ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a metric. A non-finite value is a failed check and is
    /// reported as 0 so the result line stays valid JSON.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.check(value.is_finite(), || format!("metric {name} is {value}"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a provenance field (printed before the result line).
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Prints the provenance line and then the result line (last line of
    /// stdout) with the metrics of `spec`, in its order and with its units.
    /// A metric of `spec` the workload did not record is a failed check
    /// unless `zero_missing`, which reports a layer the workload never
    /// calls as 0.
    pub fn finish(mut self, spec: &[(&str, &'static str)], zero_missing: bool) {
        for name in self.metrics.keys() {
            if !spec.iter().any(|(n, _)| n == name) {
                self.attempted += 1;
                self.failed += 1;
                eprintln!("check failed: metric {name} is not in the benchmark's metric list");
            }
        }
        let mut values = Vec::with_capacity(spec.len());
        for &(name, unit) in spec {
            let value = self.metrics.get(name).copied();
            if value.is_none() && !zero_missing {
                self.check(false, || format!("metric {name} was not measured"));
            }
            values.push((name, value.unwrap_or(0.0), unit));
        }
        // Failed operations and checks over attempted ones.
        self.note(
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        let mut prov = String::from("{\"provenance\": {");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(prov, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
        }
        prov.push_str("}}");
        println!("{prov}");

        let correct = self.failed == 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                escape(name)
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of `values`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Quantile of `(value, weight)` pairs: the smallest value whose
/// cumulative weight reaches `q` of the total.
pub fn weighted_quantile(pairs: &[(f64, usize)], q: f64) -> f64 {
    let mut v = pairs.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: usize = v.iter().map(|p| p.1).sum();
    let target = (q * total as f64).ceil().max(1.0);
    let mut cum = 0usize;
    for (value, weight) in &v {
        cum += weight;
        if cum as f64 >= target {
            return *value;
        }
    }
    v.last().map_or(0.0, |p| p.0)
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    if mean == 0.0 {
        0.0
    } else {
        var.sqrt() / mean
    }
}

/// Exact latency histogram: one bucket per nanosecond below
/// [`LatencyHist::DIRECT_NS`], exact values above it.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    overflow: Vec<u64>,
    total: u64,
}

impl LatencyHist {
    const DIRECT_NS: usize = 1 << 16;

    pub fn new() -> Self {
        Self {
            counts: vec![0; Self::DIRECT_NS],
            overflow: Vec::new(),
            total: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.overflow.push(ns),
        }
        self.total += 1;
    }

    /// Nearest-rank quantile in nanoseconds; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return ns as u64;
            }
        }
        let mut over = self.overflow.clone();
        over.sort_unstable();
        over[(rank - cum - 1) as usize]
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Current values of registered counters (0 for one never registered).
pub fn counters<const N: usize>(names: [&str; N]) -> [u64; N] {
    let snapshot = metrics_snapshot();
    names.map(|name| {
        snapshot
            .iter()
            .find(|m| m.name == name && m.kind == Kind::Counter)
            .map_or(0, |m| m.value as u64)
    })
}

/// How far each counter moved since `before` was read.
pub fn counters_since<const N: usize>(names: [&str; N], before: [u64; N]) -> [u64; N] {
    let now = counters(names);
    std::array::from_fn(|i| now[i] - before[i])
}

/// Current buckets of a registered histogram (empty if never registered).
pub fn histogram_buckets(name: &str) -> Vec<(u64, u64)> {
    metrics_snapshot()
        .into_iter()
        .find(|m| m.name == name && m.kind == Kind::Histogram)
        .map(|m| m.buckets)
        .unwrap_or_default()
}

/// Bucket-wise `after - before` of two snapshots of one histogram.
pub fn bucket_delta(before: &[(u64, u64)], after: &[(u64, u64)]) -> Vec<(u64, u64)> {
    after
        .iter()
        .enumerate()
        .map(|(i, &(bound, c))| (bound, c - before.get(i).map_or(0, |b| b.1)))
        .collect()
}

/// Total and self wall time, in seconds, of every captured span named in
/// `names`. A span's self time is its duration minus the union of the
/// intervals of its nearest descendants that are also in `names`, so
/// children running in parallel on pool workers are not subtracted twice.
pub fn span_times(names: &[&str]) -> BTreeMap<String, (f64, f64)> {
    let threads = all_thread_events();
    // Parent links of every work span and pool task, so the nearest
    // measured ancestor can be found across pool hand-offs. GEMM tiles are
    // leaves and are skipped to keep the map small.
    let mut parent: HashMap<u64, u64> = HashMap::new();
    let mut measured: HashMap<u64, (&'static str, u64, u64)> = HashMap::new();
    for t in &threads {
        for e in &t.events {
            if e.cat == Cat::Task && e.name != "pool.task" {
                continue;
            }
            parent.insert(e.id, e.parent);
            if names.contains(&e.name) {
                measured.insert(e.id, (e.name, e.start_ns, e.start_ns + e.dur_ns));
            }
        }
    }
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for (&id, &(_, start, end)) in &measured {
        let mut p = parent.get(&id).copied().unwrap_or(0);
        while p != 0 && !measured.contains_key(&p) {
            p = parent.get(&p).copied().unwrap_or(0);
        }
        if p != 0 {
            children.entry(p).or_default().push((start, end));
        }
    }
    let mut out: BTreeMap<String, (f64, f64)> =
        names.iter().map(|n| (n.to_string(), (0.0, 0.0))).collect();
    for (id, &(name, start, end)) in &measured {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(start), e.min(end));
                if s >= e {
                    continue;
                }
                cur = match cur {
                    Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        covered += ce - cs;
                        Some((s, e))
                    }
                    None => Some((s, e)),
                };
            }
            if let Some((cs, ce)) = cur {
                covered += ce - cs;
            }
        }
        let entry = out.get_mut(name).expect("name is measured");
        entry.0 += (end - start) as f64 / 1e9;
        entry.1 += (end - start - covered) as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.9), 4.0);
    }

    #[test]
    fn latency_hist_is_exact() {
        let mut h = LatencyHist::new();
        for ns in [5, 7, 7, 100_000, 9] {
            h.record(ns);
        }
        assert_eq!(h.quantile_ns(0.5), 7);
        assert_eq!(h.quantile_ns(1.0), 100_000);
        assert_eq!(h.quantile_ns(0.2), 5);
    }
}
