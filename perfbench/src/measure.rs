//! One benchmark run: an untimed warm-up on trace 0 (the library's runner
//! and one traced replay per system, which gives the per-layer numbers),
//! then timed untraced replays of both systems for the requested wall time,
//! then the correctness gate.
//!
//! End-to-end numbers come only from the untraced replays. Host-time
//! figures are medians over repetitions; simulated figures are
//! deterministic per seed and identical across repetitions (checked).

use crate::replay::{Host, Instruments, Replay};
use crate::workload::Workload;
use agile_metrics::MetricsSnapshot;
use agile_trace::stats::{bucket_index, bucket_upper_bound};
use agile_trace::{LatencyHistogram, Trace};
use agile_workloads::experiments::testbed::experiment_gpu;
use agile_workloads::experiments::{run_trace_replay, ReplaySystem};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Both systems, in replay order.
const SYSTEMS: [ReplaySystem; 2] = [ReplaySystem::Agile, ReplaySystem::Bam];

/// Fewest timed repetitions a run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Set-ups (trace generation plus both hosts) measured per timed round.
const SETUPS_PER_ROUND: usize = 20;

/// One named number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (repetitions for medians, requests for
    /// percentiles); `None` for single readings.
    pub samples: Option<u64>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: Option<u64>) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// Everything one run produced.
pub struct Outcome {
    /// Failed correctness checks (empty when the run is correct).
    pub failures: Vec<String>,
    /// Ops the untraced replays attempted, both systems and all rounds.
    pub attempted: u64,
    /// Attempted ops that did not complete.
    pub failed: u64,
    /// Timed repetitions of both systems.
    pub rounds: usize,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
}

/// Short metric prefix of a system.
fn prefix(system: ReplaySystem) -> &'static str {
    match system {
        ReplaySystem::Agile => "agile",
        ReplaySystem::Bam => "bam",
    }
}

/// Median of `xs` (mean of the middle pair for even lengths; 0 when empty).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quantile `q` of `h`, linearly interpolated inside the histogram bucket
/// that holds it. `LatencyHistogram::quantile` reports the bucket's upper
/// edge, so nearby distributions read identically; interpolating keeps the
/// figure continuous while staying within the same ≤ 3 %-wide bucket.
pub fn interpolated_quantile(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    let Some(edge) = h.quantile(q) else {
        return 0.0;
    };
    let (min, max) = (h.min().unwrap_or(0), h.max().unwrap_or(0));
    let bucket = bucket_index(edge);
    // Bucket of the sample at 1-based rank `t` (rank → quantile rounds back
    // to exactly `t` because `(t - 0.5) / n * n` has ceiling `t`).
    let bucket_of_rank =
        |t: u64| bucket_index(h.quantile((t as f64 - 0.5) / n as f64).unwrap_or(0));
    // Largest rank whose bucket is at most `limit`, by binary search.
    let last_rank_within = |limit: usize| {
        let (mut lo, mut hi) = (0u64, n);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if bucket_of_rank(mid) <= limit {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    };
    let below = if bucket == 0 {
        0
    } else {
        last_rank_within(bucket - 1)
    };
    let through = last_rank_within(bucket);
    let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
    let lower = if bucket == 0 {
        0
    } else {
        bucket_upper_bound(bucket - 1) + 1
    };
    let (lower, upper) = (
        lower.max(min) as f64,
        bucket_upper_bound(bucket).min(max) as f64,
    );
    let fraction = (target - below) as f64 / (through - below).max(1) as f64;
    lower + fraction * (upper - lower)
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-system accumulators over the timed repetitions.
#[derive(Default)]
struct Series {
    build_ms: Vec<f64>,
    /// `run_kernel` times of each of the workload's traces.
    run_kernel_s: Vec<Vec<f64>>,
    /// First replay of each of the workload's traces.
    first: Vec<Option<Replay>>,
}

/// Run `workload` from `seed` for `seconds` of timed rounds, each trace
/// replaying `ops` ops. Round `r` replays trace `r mod traces`, and every
/// trace is replayed at least once, trace 0 at least twice. Before the timed
/// rounds, trace 0 warms the process up, untimed: once through
/// `run_trace_replay` and once traced per system.
pub fn run(workload: &Workload, seed: u64, seconds: f64, ops: u64) -> Outcome {
    let cfg = workload.config();
    let specs: Vec<_> = (0..workload.traces)
        .map(|i| workload.spec(seed, i, ops))
        .collect();
    let mut traces: Vec<Option<Arc<Trace>>> = vec![None; specs.len()];
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    let mut series: [Series; 2] = Default::default();
    for s in &mut series {
        s.first.resize_with(specs.len(), || None);
        s.run_kernel_s.resize_with(specs.len(), Vec::new);
    }
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let trace = Arc::new(specs[0].generate());
    traces[0] = Some(Arc::clone(&trace));
    let warm_up: Vec<_> = SYSTEMS
        .into_iter()
        .map(|system| {
            let library = run_trace_replay(&trace, system, &cfg);
            let inst = Instruments::new();
            let traced = Host::build(system, &trace, &cfg, Some(&inst)).replay(&trace, &cfg, true);
            (library, inst, traced)
        })
        .collect();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS.max(specs.len() + 1) || start.elapsed().as_secs_f64() < seconds {
        let i = rounds % specs.len();
        // Set up several times per round (set-up is milliseconds, replay is
        // seconds) and replay on the last pair of hosts built.
        let mut hosts = Vec::new();
        for _ in 0..SETUPS_PER_ROUND {
            let t = Instant::now();
            let generated = specs[i].generate();
            let generate = t.elapsed();
            let trace = match &traces[i] {
                Some(first) => {
                    check(
                        **first == generated,
                        "trace generation is not deterministic".into(),
                    );
                    Arc::clone(first)
                }
                None => traces[i].insert(Arc::new(generated)).clone(),
            };
            let mut setup = generate;
            hosts.clear();
            for (system, s) in SYSTEMS.into_iter().zip(&mut series) {
                let t = Instant::now();
                hosts.push(Host::build(system, &trace, &cfg, None));
                let build = t.elapsed();
                setup += build;
                s.build_ms.push(ms(build));
            }
            generate_ms.push(ms(generate));
            setup_s.push(setup.as_secs_f64());
        }
        let trace = Arc::clone(traces[i].as_ref().expect("set up at least once"));
        for (host, s) in hosts.drain(..).zip(&mut series) {
            let replay = host.replay(&trace, &cfg, false);
            let report = &replay.report;
            let name = report.system;
            let total = trace.ops.len() as u64;
            attempted += total;
            failed += total.saturating_sub(report.ops);
            check(
                report.ops == total,
                format!("{name}: completed {} of {total} ops", report.ops),
            );
            check(
                report.reads == trace.reads() && report.writes == trace.writes(),
                format!(
                    "{name}: completed {}r/{}w, trace has {}r/{}w",
                    report.reads,
                    report.writes,
                    trace.reads(),
                    trace.writes()
                ),
            );
            check(!report.deadlocked, format!("{name}: replay deadlocked"));
            s.run_kernel_s[i].push(replay.run_kernel.as_secs_f64());
            match &s.first[i] {
                Some(first) => check(
                    first.report.summary() == report.summary(),
                    format!(
                        "{name}: summary differs between repetitions:\n  {}\n  {}",
                        first.report.summary(),
                        report.summary()
                    ),
                ),
                None => s.first[i] = Some(replay),
            }
        }
        rounds += 1;
    }

    let gpu = experiment_gpu();
    let cycles_per_us = gpu.clock_ghz * 1_000.0;
    let mut end_to_end = vec![metric(
        "setup_s",
        median(&setup_s),
        "s",
        Some(setup_s.len() as u64),
    )];
    let mut per_layer = vec![metric(
        "trace.generate_ms",
        median(&generate_ms),
        "ms",
        Some(generate_ms.len() as u64),
    )];
    for ((system, s), (library, inst, traced)) in SYSTEMS.into_iter().zip(&series).zip(&warm_up) {
        let p = prefix(system);
        let firsts: Vec<&Replay> = s.first.iter().flatten().collect();
        let summary = firsts[0].report.summary();
        // The composed runner must be the library's runner, byte for byte.
        check(
            library.summary() == summary,
            format!(
                "{p}: composed runner differs from run_trace_replay:\n  {summary}\n  {}",
                library.summary()
            ),
        );
        // Observation must not perturb the simulation.
        check(
            traced.report.summary() == summary,
            format!(
                "{p}: traced replay differs from untraced:\n  {summary}\n  {}",
                traced.report.summary()
            ),
        );
        let unmatched = inst.stitcher.stats().unmatched;
        check(
            unmatched == 0,
            format!("{p}: {unmatched} completions matched no submitted command"),
        );

        // Simulated figures over every request of every trace: the traces
        // run back to back, so throughput is total ops over total time.
        let mut latency = LatencyHistogram::new();
        for r in &firsts {
            latency.merge(&r.latency);
        }
        let sim_secs: f64 = firsts
            .iter()
            .map(|r| r.report.elapsed_cycles as f64 / (gpu.clock_ghz * 1e9))
            .sum();
        // Host time likewise: each trace's median `run_kernel` time, summed
        // over the traces, so every run weighs the same set of traces alike.
        let run_kernel_s: Vec<f64> = s.run_kernel_s.iter().map(|t| median(t)).collect();
        let n = Some(s.run_kernel_s.iter().map(Vec::len).sum::<usize>() as u64);
        let requests = Some(latency.count());
        end_to_end.extend([
            metric(
                format!("{p}.host_ops_per_s"),
                (ops * workload.traces) as f64 / run_kernel_s.iter().sum::<f64>(),
                "ops/s",
                n,
            ),
            metric(
                format!("{p}.sim_iops"),
                latency.count() as f64 / sim_secs,
                "1/s",
                requests,
            ),
            metric(
                format!("{p}.sim_p50_us"),
                interpolated_quantile(&latency, 0.50) / cycles_per_us,
                "us",
                requests,
            ),
            metric(
                format!("{p}.sim_p99_us"),
                interpolated_quantile(&latency, 0.99) / cycles_per_us,
                "us",
                requests,
            ),
        ]);
        per_layer.extend(layer_metrics(
            system,
            traced,
            inst,
            median(&s.build_ms),
            // Trace 0's untraced host time, the baseline of the traced run.
            run_kernel_s[0],
            cycles_per_us,
        ));
    }
    match peak_rss_mb() {
        Ok(mb) => end_to_end.push(metric("peak_rss_mb", mb, "MB", None)),
        Err(e) => check(false, e),
    }
    Outcome {
        failures,
        attempted,
        failed,
        rounds,
        end_to_end,
        per_layer,
    }
}

/// Sum of every sample of the counter family `name`.
fn family_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.family(name).map(|s| s.value.as_u64()).sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of one system's traced replay.
fn layer_metrics(
    system: ReplaySystem,
    traced: &Replay,
    inst: &Instruments,
    build_ms: f64,
    untraced_run_kernel_s: f64,
    cycles_per_us: f64,
) -> Vec<Metric> {
    let p = prefix(system);
    let m = |name: &str, value: f64, unit: &'static str, samples: Option<u64>| {
        metric(format!("{p}.{name}"), value, unit, samples)
    };
    let snap = inst.registry.snapshot();
    let sum = |name: &str| family_sum(&snap, name);
    let count = |name: &str, value: u64| m(name, value as f64, "count", None);
    let io = inst.stitcher.stats();
    let us = |name: &str, h: &LatencyHistogram, q: f64| {
        let value = interpolated_quantile(h, q) / cycles_per_us;
        m(name, value, "us", Some(h.count()))
    };
    let rounds = traced.exec.rounds;
    let run_kernel = traced.run_kernel;
    let hits = sum("agile_cache_hits_total");
    let misses = sum("agile_cache_misses_total");
    let busy_hits = sum("agile_cache_busy_hits_total");
    let no_line = sum("agile_cache_no_line_total");
    let mut out = vec![
        m("host.build_ms", build_ms, "ms", None),
        count("engine.rounds", rounds),
        count("engine.warp_steps", sum("agile_engine_warp_steps_total")),
        m(
            "engine.host_ns_per_round",
            run_kernel.as_nanos() as f64 / rounds.max(1) as f64,
            "ns",
            None,
        ),
        m(
            "engine.rest_host_ms",
            ms(run_kernel.saturating_sub(traced.steps)),
            "ms",
            None,
        ),
        m("kernel.step_host_ms", ms(traced.steps), "ms", None),
        count("submit.admissions", sum("agile_submit_admissions_total")),
        count(
            "submit.sq_full_retries",
            sum("agile_submit_sq_full_retries_total"),
        ),
        m(
            "submit.lock_wait_us",
            sum("agile_submit_lock_wait_cycles_total") as f64 / cycles_per_us,
            "us",
            None,
        ),
        m(
            "submit.cmds_per_doorbell",
            ratio(io.submits, io.doorbells),
            "ratio",
            Some(io.doorbells),
        ),
        count("service.completions", io.completions),
        us("io.reap_us.p50", &io.reap, 0.50),
        us("io.reap_us.p99", &io.reap, 0.99),
        count(
            "nvme.commands",
            sum("agile_device_reads_completed_total") + sum("agile_device_writes_completed_total"),
        ),
        m(
            "nvme.bytes",
            (sum("agile_device_bytes_read_total") + sum("agile_device_bytes_written_total")) as f64,
            "bytes",
            None,
        ),
        count("nvme.cq_stalls", sum("agile_device_cq_stalls_total")),
        count("nvme.errors", sum("agile_device_errors_total")),
        us("io.queue_us.p50", &io.queue, 0.50),
        us("io.queue_us.p99", &io.queue, 0.99),
        us("io.device_us.p50", &io.device, 0.50),
        us("io.device_us.p99", &io.device, 0.99),
        count("cache.hits", hits),
        count("cache.misses", misses),
        count("cache.busy_hits", busy_hits),
        count("cache.no_line", no_line),
        count("cache.evictions", sum("agile_cache_evictions_total")),
        count("cache.writebacks", sum("agile_cache_writebacks_total")),
        m("cache.hit_ratio", ratio(hits, hits + misses), "ratio", None),
        m(
            "cache.lookups_per_op",
            ratio(hits + misses + busy_hits + no_line, hits + misses),
            "ratio",
            None,
        ),
        m(
            "trace.overhead_pct",
            (run_kernel.as_secs_f64() / untraced_run_kernel_s - 1.0) * 100.0,
            "%",
            None,
        ),
    ];
    if system == ReplaySystem::Agile {
        let busy = sum("agile_service_busy_rounds_total");
        let idle = sum("agile_service_idle_rounds_total");
        out.push(m(
            "service.busy_ratio",
            ratio(busy, busy + idle),
            "ratio",
            Some(busy + idle),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_stays_inside_the_reported_bucket() {
        let mut h = LatencyHistogram::new();
        for v in [10, 20, 1_000, 1_010, 1_020, 1_030, 5_000] {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.6, 0.99] {
            let edge = h.quantile(q).unwrap();
            let x = interpolated_quantile(&h, q);
            assert!(x <= edge as f64, "q={q}: {x} above the bucket edge {edge}");
            assert_eq!(bucket_index(x.round() as u64), bucket_index(edge), "q={q}");
        }
        // Below 32 cycles buckets are exact.
        assert_eq!(interpolated_quantile(&h, 0.1), 10.0);
        assert_eq!(interpolated_quantile(&LatencyHistogram::new(), 0.5), 0.0);
    }

    #[test]
    fn interpolation_moves_with_the_rank_inside_a_bucket() {
        // 1 024..1 055 share one 32-wide bucket: the library reports its
        // upper edge for every quantile, interpolation does not.
        let mut h = LatencyHistogram::new();
        for v in 1_024..1_056 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.25), h.quantile(0.75));
        assert!(interpolated_quantile(&h, 0.25) < interpolated_quantile(&h, 0.75));
    }

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
