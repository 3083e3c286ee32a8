//! The benchmark's composed replay runner: `HostBuilder` → replay kernel →
//! `GpuStorageHost::run_kernel`, built only from the library's public API so
//! each stage can be timed on its own. [`Host::replay`] reproduces
//! `run_trace_replay` for the configurations the benchmark uses, and the
//! benchmark checks on every run that both give a byte-identical
//! `ReplayReport::summary()`.
//!
//! The traced variant installs a [`StageStitcher`] and a metrics registry at
//! build time and wraps the replay kernel factory in [`TimedFactory`], which
//! accumulates host time spent inside replay-warp steps.

use crate::stitch::StageStitcher;
use agile_core::{AgileConfig, AgileHost, GpuStorageHost};
use agile_metrics::MetricsRegistry;
use agile_sim::units::SSD_PAGE_SIZE;
use agile_trace::{LatencyHistogram, Trace, TraceSink};
use agile_workloads::experiments::testbed::experiment_gpu;
use agile_workloads::experiments::trace_replay::TenantLatency;
use agile_workloads::experiments::{ReplayConfig, ReplayPath, ReplayReport, ReplaySystem};
use agile_workloads::trace_replay::{
    AgileTraceReplayKernel, BamTraceReplayKernel, ReplayCollector, TraceReplayParams,
};
use bam_baseline::{BamConfig, BamHost, HostBuilder, HostSystem};
use gpu_sim::{ExecutionReport, KernelFactory, LaunchConfig, WarpCtx, WarpKernel, WarpStep};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Observers installed on a traced replay.
pub struct Instruments {
    /// I/O stage stitcher, installed as the stack's trace sink.
    pub stitcher: Arc<StageStitcher>,
    /// Metrics registry wired through the whole host.
    pub registry: Arc<MetricsRegistry>,
}

impl Instruments {
    /// A fresh stitcher and registry.
    pub fn new() -> Self {
        Instruments {
            stitcher: Arc::new(StageStitcher::default()),
            registry: MetricsRegistry::new(),
        }
    }
}

/// A built, started host of either system.
pub enum Host {
    /// The asynchronous AGILE stack.
    Agile(AgileHost),
    /// The synchronous BaM baseline.
    Bam(BamHost),
}

/// Outcome of one replay through [`Host::replay`].
pub struct Replay {
    /// The report `run_trace_replay` would have produced.
    pub report: ReplayReport,
    /// Exact request-latency histogram behind the report's percentiles.
    pub latency: LatencyHistogram,
    /// The engine's execution report.
    pub exec: ExecutionReport,
    /// Host time inside `run_kernel`.
    pub run_kernel: Duration,
    /// Host time inside replay-warp steps (zero unless steps were timed).
    pub steps: Duration,
}

/// Settings every builder gets, whichever system it builds.
fn common<S: HostSystem>(
    mut builder: HostBuilder<S>,
    trace: &Trace,
    cfg: &ReplayConfig,
    instruments: Option<&Instruments>,
) -> HostBuilder<S> {
    builder = builder
        .gpu(experiment_gpu())
        .devices(
            trace.meta.devices.max(1) as usize,
            trace.meta.lba_space.max(1),
        )
        .engine_sched(cfg.engine_sched)
        .placement(cfg.placement)
        .qos(cfg.qos.policy());
    if cfg.shards > 0 {
        builder = builder.shards(cfg.shards);
    }
    if let Some(inst) = instruments {
        builder = builder
            .trace_sink(Arc::clone(&inst.stitcher) as Arc<dyn TraceSink>)
            .metrics(Arc::clone(&inst.registry));
    }
    builder
}

impl Host {
    /// Build and start a host of `system` sized for `trace`, configured as
    /// `run_trace_replay` configures it for `cfg`.
    pub fn build(
        system: ReplaySystem,
        trace: &Trace,
        cfg: &ReplayConfig,
        instruments: Option<&Instruments>,
    ) -> Host {
        match system {
            ReplaySystem::Agile => {
                let mut config = AgileConfig::small_test()
                    .with_queue_pairs(cfg.queue_pairs)
                    .with_queue_depth(cfg.queue_depth)
                    .with_cache_shards(cfg.cache_shards)
                    .with_cache_port_hold(cfg.cache_port_hold);
                if let Some(bytes) = cfg.cache_bytes {
                    config = config.with_cache_bytes(bytes);
                }
                let builder = HostBuilder::agile(config)
                    .service_shards(cfg.service_shards)
                    .cache_policy(cfg.cache_policy)
                    .cache_shares(cfg.cache_shares.clone());
                Host::Agile(common(builder, trace, cfg, instruments).build())
            }
            ReplaySystem::Bam => {
                let mut config = BamConfig::small_test()
                    .with_queue_pairs(cfg.queue_pairs)
                    .with_queue_depth(cfg.queue_depth)
                    .with_cache_shards(cfg.cache_shards)
                    .with_cache_port_hold(cfg.cache_port_hold);
                if let Some(bytes) = cfg.cache_bytes {
                    config = config.with_cache_bytes(bytes);
                }
                Host::Bam(common(HostBuilder::bam(config), trace, cfg, instruments).build())
            }
        }
    }

    /// Replay `trace` on this host to completion, consuming it. With
    /// `time_steps`, the replay kernel factory is wrapped in a
    /// [`TimedFactory`] and [`Replay::steps`] is filled in.
    pub fn replay(self, trace: &Arc<Trace>, cfg: &ReplayConfig, time_steps: bool) -> Replay {
        let params = TraceReplayParams {
            total_warps: cfg.total_warps,
            window: cfg.window,
            path: cfg.path,
            stripe: cfg.stripe,
            tenant_warps: cfg.tenant_warps,
            prefetch_depth: cfg.prefetch_depth,
        };
        let blocks = cfg.total_warps.div_ceil(8).max(1) as u32;
        let collector = Arc::new(ReplayCollector::new());
        let step_ns = Arc::new(AtomicU64::new(0));
        let timed = |factory: Box<dyn KernelFactory>| -> Box<dyn KernelFactory> {
            if time_steps {
                Box::new(TimedFactory {
                    inner: factory,
                    step_ns: Arc::clone(&step_ns),
                })
            } else {
                factory
            }
        };
        let (system, exec, run_kernel, extra) = match self {
            Host::Agile(mut host) => {
                let ctrl = host.ctrl();
                ctrl.set_prefetch_depth(params.prefetch_depth);
                let launch = LaunchConfig::new(blocks, 256).with_registers(40);
                let factory = timed(Box::new(AgileTraceReplayKernel::new(
                    Arc::clone(&ctrl),
                    Arc::clone(trace),
                    Arc::clone(&collector),
                    params,
                )));
                let (exec, run_kernel) = run(&mut host, launch, factory);
                let extra = SystemExtras {
                    service_stats: host.service_set().partition_stats(),
                    qos_deferrals: ctrl.stats().qos_deferrals,
                    cache_port_wait: ctrl.cache().port_wait_by_shard().iter().sum(),
                    lock_wait: host.topology().lock_wait_cycles(),
                };
                (ReplaySystem::Agile, exec, run_kernel, extra)
            }
            Host::Bam(mut host) => {
                let ctrl = host.ctrl();
                let launch = LaunchConfig::new(blocks, 256).with_registers(56);
                let factory = timed(Box::new(BamTraceReplayKernel::new(
                    Arc::clone(&ctrl),
                    Arc::clone(trace),
                    Arc::clone(&collector),
                    params,
                )));
                let (exec, run_kernel) = run(&mut host, launch, factory);
                let extra = SystemExtras {
                    service_stats: Vec::new(),
                    qos_deferrals: ctrl.stats().qos_deferrals,
                    cache_port_wait: ctrl.cache().port_wait_by_shard().iter().sum(),
                    lock_wait: host.topology().lock_wait_cycles(),
                };
                (ReplaySystem::Bam, exec, run_kernel, extra)
            }
        };
        let latency = collector.latency();
        let report = compose_report(system, trace, cfg, &collector, &latency, &exec, extra);
        Replay {
            report,
            latency,
            exec,
            run_kernel,
            steps: Duration::from_nanos(step_ns.load(Ordering::Relaxed)),
        }
    }
}

/// Launch `factory`, run it to completion and stop the host's background
/// service, timing only the `run_kernel` call.
fn run<H: GpuStorageHost>(
    host: &mut H,
    launch: LaunchConfig,
    factory: Box<dyn KernelFactory>,
) -> (ExecutionReport, Duration) {
    let start = Instant::now();
    let exec = host.run_kernel(launch, factory);
    let elapsed = start.elapsed();
    host.stop();
    (exec, elapsed)
}

/// Report fields read from the host after the run.
struct SystemExtras {
    service_stats: Vec<agile_core::ServiceStats>,
    qos_deferrals: u64,
    cache_port_wait: u64,
    lock_wait: u64,
}

/// Assemble the [`ReplayReport`] `run_trace_replay` returns for this run.
fn compose_report(
    system: ReplaySystem,
    trace: &Trace,
    cfg: &ReplayConfig,
    collector: &ReplayCollector,
    latency: &LatencyHistogram,
    exec: &ExecutionReport,
    extra: SystemExtras,
) -> ReplayReport {
    let gpu = experiment_gpu();
    let cycles_per_us = gpu.clock_ghz * 1_000.0;
    let to_us = |c: u64| c as f64 / cycles_per_us;
    let ops = latency.count();
    let elapsed_cycles = exec.elapsed.raw();
    let elapsed_secs = elapsed_cycles as f64 / (gpu.clock_ghz * 1e9);
    let per_sec = |x: f64| {
        if elapsed_secs > 0.0 {
            x / elapsed_secs
        } else {
            0.0
        }
    };
    let tenants = collector
        .tenant_latencies()
        .into_iter()
        .map(|(tenant, h)| TenantLatency {
            tenant,
            ops: h.count(),
            p50_us: to_us(h.p50().unwrap_or(0)),
            p95_us: to_us(h.p95().unwrap_or(0)),
            p99_us: to_us(h.p99().unwrap_or(0)),
        })
        .collect();
    ReplayReport {
        system: system.name(),
        trace_name: trace.meta.name.clone(),
        shards: cfg.shards,
        ops,
        reads: collector.reads(),
        writes: collector.writes(),
        elapsed_cycles,
        p50_us: to_us(latency.p50().unwrap_or(0)),
        p95_us: to_us(latency.p95().unwrap_or(0)),
        p99_us: to_us(latency.p99().unwrap_or(0)),
        mean_us: latency.mean() / cycles_per_us,
        iops: per_sec(ops as f64),
        gbps: per_sec((ops * SSD_PAGE_SIZE) as f64) / 1e9,
        deadlocked: exec.deadlocked,
        qos: cfg.qos.name(),
        tenants,
        cache_policy: cfg.cache_policy_name(),
        prefetch_depth: if system == ReplaySystem::Agile && cfg.path == ReplayPath::Cached {
            cfg.prefetch_depth
        } else {
            1
        },
        tenant_cache: Vec::new(),
        service_shards: cfg.service_shards,
        service_stats: extra.service_stats,
        engine_rounds: exec.rounds,
        engine_threads: cfg.engine_threads,
        qos_deferrals: extra.qos_deferrals,
        lock_wait_cycles: extra.lock_wait,
        cache_shards: cfg.cache_shards.max(1),
        cache_port_wait_cycles: extra.cache_port_wait,
        metrics: None,
        control: None,
    }
}

/// Wraps a kernel factory so every warp it creates adds the host time of
/// its steps to a shared counter. Forwards the threaded engine's
/// plan/commit hooks so wrapping never changes how a warp is scheduled.
pub struct TimedFactory {
    inner: Box<dyn KernelFactory>,
    step_ns: Arc<AtomicU64>,
}

struct TimedWarp {
    inner: Box<dyn WarpKernel>,
    step_ns: Arc<AtomicU64>,
}

impl TimedWarp {
    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn WarpKernel) -> T) -> T {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        self.step_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl WarpKernel for TimedWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        self.timed(|w| w.step(ctx))
    }
    fn parallel_capable(&self) -> bool {
        self.inner.parallel_capable()
    }
    fn plan_step(&mut self, ctx: &WarpCtx) -> bool {
        self.timed(|w| w.plan_step(ctx))
    }
    fn commit_step(&mut self, ctx: &WarpCtx, epoch_clean: bool) -> WarpStep {
        self.timed(|w| w.commit_step(ctx, epoch_clean))
    }
}

impl KernelFactory for TimedFactory {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        Box::new(TimedWarp {
            inner: self.inner.create_warp(block, warp),
            step_ns: Arc::clone(&self.step_ns),
        })
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}
