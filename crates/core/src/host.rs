//! Host-side setup, execution and teardown — the Listing 1 flow.
//!
//! A host is described once, as plain data ([`HostSpec`]), and built in one
//! call that returns it started: [`AgileHost::build`] here,
//! `bam_baseline::BamHost::build` for the baseline. Both run the same
//! [`assemble`] function, so the two systems are wired identically.
//! `bam_baseline::HostBuilder` fills a spec through setters; this table maps
//! each Listing 1 call to its builder method:
//!
//! | Listing 1 call | `HostBuilder` method |
//! |---|---|
//! | `AGILE_HOST host(...)` | `HostBuilder::agile(config)` / `.gpu(...)` |
//! | `host.setGPUCache(...)` / `setShareTable(...)` | fields of [`crate::config::AgileConfig`] |
//! | `host.addNvmeDev(...)` | `.devices(count, pages)` / `.backing(pages, backing)` |
//! | `host.initNvme()` + `host.initializeAgile(...)` + `host.startAgile()` | `.build()` |
//! | `host.configKernelParallelism(...)` / `queryOccupancy(...)` | [`AgileHost::query_occupancy`] |
//! | `host.runKernel(kernel, args...)` | [`AgileHost::run_kernel`] |
//! | `host.stopAgile()` | [`AgileHost::stop_agile`] |
//! | `host.closeNvme()` | dropping the host |
//!
//! The common surface both hosts expose afterwards is the [`GpuStorageHost`]
//! trait, so AGILE-vs-BaM harness code is written once.
//!
//! The assembly also owns the co-simulation plumbing: it builds the
//! [`ShardedArray`] topology, bridges each of its devices into the GPU
//! engine as a [`DeviceSsdBridge`], and — on AGILE — launches the
//! persistent service kernels before user kernels run.

use crate::config::AgileConfig;
use crate::control::knob_set;
use crate::ctrl::AgileCtrl;
use crate::qos::QosPolicy;
use crate::service::{auto_service_warps, AgileServiceKernel, ServicePartition, ServiceSet};
use crate::telemetry::{
    CacheCollector, CacheStatsProvider, MetricsBridge, ServiceCollector, TopologyCollector,
};
use agile_control::{ControlBridge, ControlPolicy, Controller, KnobSet, SloSpec};
use agile_metrics::{MetricsRegistry, WindowedSampler};
use agile_sim::costs::SsdCosts;
use agile_sim::trace::{BufferedSink, TraceSink};
use agile_sim::Cycles;
use gpu_sim::registers::agile_footprints;
use gpu_sim::{
    occupancy, Engine, EngineMetrics, EngineSched, ExecutionReport, ExternalDevice, GpuConfig,
    KernelFactory, LaunchConfig,
};
use nvme_sim::{MemBacking, PageBacking, Placement, QueuePair, ShardedArray, SsdConfig};
use std::sync::Arc;

/// The common host surface shared by the AGILE host and the BaM baseline
/// host: controller access, kernel execution and storage introspection.
/// Harness code (benchmarks, experiments, replay) written against this
/// trait runs unchanged on either system.
pub trait GpuStorageHost {
    /// The system's controller type (`AgileCtrl` / `BamCtrl`).
    type Ctrl;

    /// The controller warp kernels hold an `Arc` to.
    fn ctrl(&self) -> Arc<Self::Ctrl>;

    /// The storage topology (striping map, device statistics, lock model).
    fn topology(&self) -> Arc<ShardedArray>;

    /// The page backing of device `dev` (for pre-populating datasets).
    fn backing(&self, dev: usize) -> Arc<dyn PageBacking> {
        self.topology().backing(dev)
    }

    /// Maximum resident blocks per SM for a launch (`queryOccupancy`).
    fn query_occupancy(&self, launch: &LaunchConfig) -> u32;

    /// Launch a user kernel and run the co-simulation until it completes.
    fn run_kernel(
        &mut self,
        launch: LaunchConfig,
        factory: Box<dyn KernelFactory>,
    ) -> ExecutionReport;

    /// Current simulated time.
    fn now(&self) -> Cycles;

    /// Stop any background service the system runs (no-op for BaM).
    fn stop(&mut self);
}

/// Bridges a single *storage device* of the topology into the engine — the
/// device-affine partition grain. One `DeviceSsdBridge` per device,
/// registered in [`ShardedArray::device_advance_order`] (shard-major) order
/// so sequential schedulers advance devices in the golden-gated order,
/// while [`EngineSched::ParallelShards`] partitions work at device rather
/// than lock-shard granularity — a `shards = 1` fleet does not collapse
/// onto one worker. Lock-shard state is only ever touched from the
/// coordinator's submit path, so it stays single-writer.
pub struct DeviceSsdBridge {
    topology: Arc<ShardedArray>,
    dev: usize,
}

impl DeviceSsdBridge {
    /// Wrap one device of a shared topology.
    pub fn new(topology: Arc<ShardedArray>, dev: usize) -> Self {
        DeviceSsdBridge { topology, dev }
    }
}

impl ExternalDevice for DeviceSsdBridge {
    fn advance_to(&mut self, now: Cycles) {
        self.topology.advance_device_to(self.dev, now);
    }
    fn next_event_time(&mut self) -> Option<Cycles> {
        self.topology.device_next_event_time(self.dev)
    }
    fn quiescent(&self) -> bool {
        self.topology.device_quiescent(self.dev)
    }
}

// ---------------------------------------------------------------------------
// HostSpec and the shared assembly
// ---------------------------------------------------------------------------

/// One SSD to create at build time.
#[derive(Clone)]
pub struct DeviceSpec {
    /// Namespace capacity in 4 KiB pages.
    pub pages: u64,
    /// Page backing; `None` gives the device a fresh in-memory backing.
    pub backing: Option<Arc<dyn PageBacking>>,
}

/// Everything a host is built from apart from the system's own
/// configuration (`AgileConfig` / `BamConfig`), as plain data. Consumed
/// once by [`AgileHost::build`] / `BamHost::build`; usually filled through
/// `bam_baseline::HostBuilder`'s setters.
pub struct HostSpec {
    /// Simulated GPU (default: the paper's RTX 5000 Ada).
    pub gpu: GpuConfig,
    /// SSDs in device-index order; at least one.
    pub devices: Vec<DeviceSpec>,
    /// Lock shards of the storage topology (≥ 1; 1 is the paper's
    /// single-lock array).
    pub shards: usize,
    /// Placement seed of the striping layer.
    pub placement: Placement,
    /// Shard-affine AGILE service partitions (≥ 1; 1 is the paper's single
    /// service). The BaM baseline has no service and ignores it.
    pub service_shards: usize,
    /// Scheduling loop of the engine.
    pub engine_sched: EngineSched,
    /// Trace sink installed across the whole stack before the first kernel.
    pub trace_sink: Option<Arc<dyn TraceSink>>,
    /// QoS policy arbitrating tenant-attributed SQ admission (`None` =
    /// FIFO).
    pub qos: Option<Arc<dyn QosPolicy>>,
    /// Metrics registry instrumenting the whole stack.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Windowed sampler, bridged into the engine as a passive device.
    pub sampler: Option<Arc<WindowedSampler>>,
    /// Closed-loop control policy. Implies metrics: a missing registry or
    /// sampler is created at build time (window [`DEFAULT_CONTROL_WINDOW`]).
    pub control: Option<ControlPolicy>,
    /// Per-tenant SLOs the control plane enforces.
    pub slos: Vec<SloSpec>,
}

impl Default for HostSpec {
    fn default() -> Self {
        HostSpec {
            gpu: GpuConfig::rtx_5000_ada(),
            devices: Vec::new(),
            shards: 1,
            placement: Placement::default(),
            service_shards: 1,
            engine_sched: EngineSched::default(),
            trace_sink: None,
            qos: None,
            metrics: None,
            sampler: None,
            control: None,
            slos: Vec::new(),
        }
    }
}

/// Sampler window (cycles) created when a spec requests the control plane
/// without a sampler — matches the replay harness's default metrics window.
pub const DEFAULT_CONTROL_WINDOW: u64 = 500_000;

/// The system-specific half of host assembly: how a controller is built
/// over the topology's queues and wired into the stack. Implemented by
/// [`AgileCtrl`] and `bam_baseline::BamCtrl`.
pub trait HostCtrl: CacheStatsProvider + Sized + 'static {
    /// The system's configuration type.
    type Config;

    /// The SSD timing model, queue pairs per SSD and queue depth.
    fn storage(config: &Self::Config) -> (&SsdCosts, usize, u32);

    /// Build the controller over every device's registered queue pairs.
    fn with_topology(
        config: Self::Config,
        queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Arc<ShardedArray>,
    ) -> Self;

    /// Install the trace sink on the submit, completion and cache paths.
    fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) -> bool;

    /// Install the QoS policy on the tenant-attributed submission path.
    fn set_qos_policy(&self, policy: Arc<dyn QosPolicy>) -> bool;

    /// Bind the submit-path instruments.
    fn bind_metrics(&self, registry: &Arc<MetricsRegistry>) -> bool;

    /// The knobs the control plane may actuate on this system.
    fn knob_set(ctrl: &Arc<Self>) -> KnobSet;
}

impl HostCtrl for AgileCtrl {
    type Config = AgileConfig;

    fn storage(config: &AgileConfig) -> (&SsdCosts, usize, u32) {
        (
            &config.costs.ssd,
            config.queue_pairs_per_ssd,
            config.queue_depth,
        )
    }
    fn with_topology(
        config: AgileConfig,
        queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Arc<ShardedArray>,
    ) -> Self {
        AgileCtrl::with_topology(config, queues, topology)
    }
    fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) -> bool {
        AgileCtrl::set_trace_sink(self, sink)
    }
    fn set_qos_policy(&self, policy: Arc<dyn QosPolicy>) -> bool {
        AgileCtrl::set_qos_policy(self, policy)
    }
    fn bind_metrics(&self, registry: &Arc<MetricsRegistry>) -> bool {
        AgileCtrl::bind_metrics(self, registry)
    }
    fn knob_set(ctrl: &Arc<Self>) -> KnobSet {
        knob_set(ctrl)
    }
}

/// A storage stack and a ready engine, assembled from a [`HostSpec`] — the
/// part both hosts share. The engine has every device bridge, trace
/// mailbox and passive device registered but no kernel launched yet.
pub struct Assembly<C> {
    /// The storage topology.
    pub topology: Arc<ShardedArray>,
    /// The system's controller.
    pub ctrl: Arc<C>,
    /// The GPU engine.
    pub engine: Engine,
    /// The metrics registry, when instrumented.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// The live control plane, when requested.
    pub controller: Option<Arc<Controller>>,
}

/// Build a host's storage stack and engine from `spec`, in the one valid
/// order: topology → queues → controller → trace sink, QoS policy and
/// metrics collectors → engine with per-device bridges, trace mailboxes,
/// sampler and control-plane devices.
///
/// Panics on invalid input: no devices, or zero lock shards.
pub fn assemble<C: HostCtrl>(spec: HostSpec, config: C::Config) -> Assembly<C> {
    assert!(
        !spec.devices.is_empty(),
        "a host needs at least one device — call .devices(n, pages)"
    );
    assert!(
        spec.shards >= 1,
        "the topology needs at least one lock shard"
    );
    let (ssd_costs, queue_pairs, queue_depth) = C::storage(&config);
    let parts = spec
        .devices
        .into_iter()
        .enumerate()
        .map(|(id, dev)| {
            let id = id as u32;
            let cfg = SsdConfig {
                id,
                costs: ssd_costs.clone(),
                namespace_pages: dev.pages,
                clock_ghz: spec.gpu.clock_ghz,
            };
            let backing = dev
                .backing
                .unwrap_or_else(|| Arc::new(MemBacking::new(id)) as Arc<dyn PageBacking>);
            (cfg, backing)
        })
        .collect();
    let topology =
        Arc::new(ShardedArray::from_parts(parts, spec.shards).with_placement(spec.placement));
    let queues = topology.register_queues(queue_pairs, queue_depth);
    let ctrl = Arc::new(C::with_topology(config, queues, Arc::clone(&topology)));

    // Under a threaded engine each device's completion path records into a
    // private buffer drained into the sink in shard-major device order at
    // every epoch boundary, so the merged stream equals a sequential run's.
    let threaded = matches!(spec.engine_sched, EngineSched::ParallelShards(n) if n > 1);
    let mut mailboxes = Vec::new();
    if let Some(sink) = &spec.trace_sink {
        ctrl.set_trace_sink(Arc::clone(sink));
        if threaded {
            for dev in topology.device_advance_order() {
                let buffered = Arc::new(BufferedSink::new(Arc::clone(sink)));
                topology.set_device_trace_sink(dev, &(Arc::clone(&buffered) as Arc<dyn TraceSink>));
                mailboxes.push(buffered);
            }
        } else {
            topology.set_trace_sink(sink);
        }
    }
    if let Some(policy) = spec.qos {
        ctrl.set_qos_policy(policy);
    }
    let (metrics, sampler) = match spec.control {
        None => (spec.metrics, spec.sampler),
        Some(_) => {
            let registry = spec.metrics.unwrap_or_default();
            let sampler = spec.sampler.unwrap_or_else(|| {
                WindowedSampler::new(Arc::clone(&registry), DEFAULT_CONTROL_WINDOW)
            });
            (Some(registry), Some(sampler))
        }
    };
    if let Some(registry) = &metrics {
        ctrl.bind_metrics(registry);
        registry.register_collector(Box::new(CacheCollector::new(Arc::clone(&ctrl) as _)));
        registry.register_collector(Box::new(TopologyCollector::new(Arc::clone(&topology))));
    }

    let mut engine = Engine::new(spec.gpu);
    engine.set_scheduler(spec.engine_sched);
    for dev in topology.device_advance_order() {
        engine.add_shard_device(Box::new(DeviceSsdBridge::new(Arc::clone(&topology), dev)));
    }
    for buffered in mailboxes {
        engine.add_mailbox(buffered);
    }
    if let Some(registry) = &metrics {
        engine.set_metrics(EngineMetrics::bind(registry));
    }
    if let Some(sampler) = &sampler {
        engine.add_device(Box::new(MetricsBridge::new(Arc::clone(sampler))));
    }
    let controller = spec.control.zip(sampler).map(|(policy, sampler)| {
        let controller = Controller::new(
            policy,
            spec.slos,
            C::knob_set(&ctrl),
            sampler,
            engine.gpu().clock_ghz,
            metrics.as_ref(),
        );
        if let Some(sink) = spec.trace_sink {
            controller.set_trace_sink(sink);
        }
        engine.add_device(Box::new(ControlBridge::new(Arc::clone(&controller))));
        controller
    });
    Assembly {
        topology,
        ctrl,
        engine,
        metrics,
        controller,
    }
}

// ---------------------------------------------------------------------------
// AgileHost
// ---------------------------------------------------------------------------

/// The AGILE host: owns the GPU engine, the storage topology, the
/// controller and the running service.
pub struct AgileHost {
    stack: Assembly<AgileCtrl>,
    service: ServiceSet,
}

impl AgileHost {
    /// Build and start an AGILE host: [`assemble`] the stack, then launch
    /// one persistent service kernel per service shard. Each kernel uses
    /// the configured `service_blocks`/`service_warps` geometry (or the
    /// auto-sized one), so scaling the service out adds polling warps in
    /// proportion.
    ///
    /// Panics unless the queue depth is a power of two ≥ 32 (warp-window
    /// polling) and there is at least one service shard, and on the input
    /// [`assemble`] rejects.
    pub fn build(spec: HostSpec, config: AgileConfig) -> Self {
        assert!(
            config.queue_depth.is_power_of_two() && config.queue_depth >= 32,
            "queue depth must be a power of two ≥ 32 (warp-window polling)"
        );
        assert!(
            spec.service_shards >= 1,
            "the service needs at least one partition"
        );
        let service_shards = spec.service_shards;
        let mut stack = assemble::<AgileCtrl>(spec, config);
        let service = ServiceSet::new(&stack.ctrl, service_shards);
        if let Some(registry) = &stack.metrics {
            registry.register_collector(Box::new(ServiceCollector::new(
                service.partitions().to_vec(),
            )));
        }
        let config = stack.ctrl.config();
        let blocks = config.service_blocks.max(1);
        for partition in service.partitions() {
            // Fixed geometry by default (the paper's, bit-identical); with
            // auto-sizing on, each partition derives its warp count from the
            // CQs it owns, so scale-out does not multiply idle pollers.
            let total_warps = if config.auto_service_warps {
                auto_service_warps(partition.target_count())
            } else {
                config.service_warps.max(1)
            };
            let warps_per_block = total_warps.div_ceil(blocks);
            let launch = LaunchConfig::new(blocks, warps_per_block * stack.engine.gpu().warp_size)
                .with_registers(agile_footprints::SERVICE_KERNEL_REGISTERS)
                .persistent();
            stack.engine.launch(
                launch,
                Box::new(AgileServiceKernel::new(
                    Arc::clone(partition),
                    warps_per_block,
                    warps_per_block * blocks,
                )),
            );
        }
        AgileHost { stack, service }
    }

    /// The controller warp kernels hold an `Arc` to.
    pub fn ctrl(&self) -> Arc<AgileCtrl> {
        Arc::clone(&self.stack.ctrl)
    }

    /// The installed metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.stack.metrics.as_ref()
    }

    /// The live controller, when the host was built with a control plane.
    pub fn controller(&self) -> Option<&Arc<Controller>> {
        self.stack.controller.as_ref()
    }

    /// The AGILE service set.
    pub fn service_set(&self) -> &ServiceSet {
        &self.service
    }

    /// The first service partition — the whole service when
    /// `service_shards == 1`.
    pub fn service(&self) -> Arc<ServicePartition> {
        Arc::clone(&self.service.partitions()[0])
    }

    /// The shared storage topology (for workload setup and statistics).
    pub fn topology(&self) -> Arc<ShardedArray> {
        Arc::clone(&self.stack.topology)
    }

    /// The page backing of device `dev` (for pre-populating datasets).
    pub fn backing(&self, dev: usize) -> Arc<dyn PageBacking> {
        self.stack.topology.backing(dev)
    }

    /// `queryOccupancy`: maximum resident blocks per SM for a launch.
    pub fn query_occupancy(&self, launch: &LaunchConfig) -> u32 {
        occupancy(self.stack.engine.gpu(), launch)
    }

    /// Access the engine (advanced use: launching extra kernels directly).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.stack.engine
    }

    /// Launch a user kernel and run the co-simulation until it (and any other
    /// non-persistent kernel) completes — `runKernel()`. Returns the
    /// execution report, whose `elapsed` field is the measured end-to-end
    /// time of this run.
    pub fn run_kernel(
        &mut self,
        launch: LaunchConfig,
        factory: Box<dyn KernelFactory>,
    ) -> ExecutionReport {
        self.stack.engine.launch(launch, factory);
        self.stack.engine.run()
    }

    /// Ask the service kernels to stop — `stopAgile()`.
    pub fn stop_agile(&mut self) {
        self.stack.ctrl.request_service_stop();
    }

    /// Current simulated time of the engine.
    pub fn now(&self) -> Cycles {
        self.stack.engine.now()
    }
}

impl GpuStorageHost for AgileHost {
    type Ctrl = AgileCtrl;

    fn ctrl(&self) -> Arc<AgileCtrl> {
        AgileHost::ctrl(self)
    }
    fn topology(&self) -> Arc<ShardedArray> {
        AgileHost::topology(self)
    }
    fn query_occupancy(&self, launch: &LaunchConfig) -> u32 {
        AgileHost::query_occupancy(self, launch)
    }
    fn run_kernel(
        &mut self,
        launch: LaunchConfig,
        factory: Box<dyn KernelFactory>,
    ) -> ExecutionReport {
        AgileHost::run_kernel(self, launch, factory)
    }
    fn now(&self) -> Cycles {
        AgileHost::now(self)
    }
    fn stop(&mut self) {
        self.stop_agile();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::PrefetchComputeKernel;

    fn spec(gpu: GpuConfig, devices: usize, pages: u64) -> HostSpec {
        HostSpec {
            gpu,
            devices: vec![
                DeviceSpec {
                    pages,
                    backing: None
                };
                devices
            ],
            ..HostSpec::default()
        }
    }

    #[test]
    fn built_host_runs_a_kernel() {
        let mut host = AgileHost::build(
            spec(GpuConfig::tiny(4), 2, 1 << 16),
            AgileConfig::small_test(),
        );
        assert_eq!(host.ctrl().device_count(), 2);
        assert_eq!(host.topology().shard_count(), 1);
        let ctrl = host.ctrl();
        let launch = LaunchConfig::new(2, 64).with_registers(32);
        assert!(host.query_occupancy(&launch) >= 1);
        let report = host.run_kernel(
            launch,
            Box::new(PrefetchComputeKernel::new(ctrl.clone(), 4, 3_000)),
        );
        assert!(!report.deadlocked, "AGILE flow must not deadlock");
        assert!(report.elapsed.raw() > 0);
        // The user kernel really moved data: cache has content and the SSDs
        // processed reads.
        assert!(ctrl.stats().cache_misses > 0);
        assert!(host.topology().total_bytes_read() > 0);
        host.stop_agile();
    }

    #[test]
    fn sharded_host_runs_the_same_kernel() {
        let mut host = AgileHost::build(
            HostSpec {
                shards: 2,
                ..spec(GpuConfig::tiny(4), 2, 1 << 16)
            },
            AgileConfig::small_test(),
        );
        assert_eq!(host.topology().shard_count(), 2);
        let ctrl = host.ctrl();
        let report = host.run_kernel(
            LaunchConfig::new(2, 64).with_registers(32),
            Box::new(PrefetchComputeKernel::new(ctrl, 4, 3_000)),
        );
        assert!(!report.deadlocked);
        assert!(host.topology().total_bytes_read() > 0);
    }

    #[test]
    fn auto_sized_service_still_completes_fills() {
        let mut host = AgileHost::build(
            spec(GpuConfig::tiny(4), 1, 1 << 16),
            AgileConfig::small_test().with_auto_service_warps(),
        );
        let ctrl = host.ctrl();
        let report = host.run_kernel(
            LaunchConfig::new(2, 64).with_registers(32),
            Box::new(PrefetchComputeKernel::new(ctrl.clone(), 4, 3_000)),
        );
        assert!(!report.deadlocked);
        assert!(
            host.service().stats().completions > 0,
            "the auto-sized service must process completions"
        );
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn rejects_non_power_of_two_queue_depth() {
        let _ = AgileHost::build(
            spec(GpuConfig::tiny(1), 1, 1024),
            AgileConfig::small_test().with_queue_depth(48),
        );
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn rejects_a_spec_without_devices() {
        let _ = AgileHost::build(HostSpec::default(), AgileConfig::small_test());
    }

    #[test]
    #[should_panic(expected = "at least one lock shard")]
    fn rejects_zero_lock_shards() {
        let _ = AgileHost::build(
            HostSpec {
                shards: 0,
                ..spec(GpuConfig::tiny(1), 1, 1024)
            },
            AgileConfig::small_test(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn rejects_zero_service_shards() {
        let _ = AgileHost::build(
            HostSpec {
                service_shards: 0,
                ..spec(GpuConfig::tiny(1), 1, 1024)
            },
            AgileConfig::small_test(),
        );
    }

    #[test]
    fn occupancy_query_matches_gpu_sim() {
        let host = AgileHost::build(
            spec(GpuConfig::rtx_5000_ada(), 1, 1024),
            AgileConfig::small_test(),
        );
        let launch = LaunchConfig::new(1, 1024).with_registers(32);
        assert_eq!(host.query_occupancy(&launch), 1);
    }
}
