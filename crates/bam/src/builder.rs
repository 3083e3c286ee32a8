//! One builder for both hosts.
//!
//! [`HostBuilder`] fills an [`agile_core::host::HostSpec`] through setters
//! and hands it to the chosen system's one constructor
//! ([`AgileHost::build`] / [`BamHost::build`]), which returns a started
//! host. Nothing is order-sensitive: every setter only records data.
//!
//! ```
//! use bam_baseline::HostBuilder;
//! use agile_core::{AgileConfig, GpuStorageHost};
//! use gpu_sim::GpuConfig;
//!
//! let mut host = HostBuilder::agile(AgileConfig::small_test())
//!     .gpu(GpuConfig::tiny(4))
//!     .devices(2, 1 << 16)  // two SSDs of 2^16 pages
//!     .shards(2)            // two lock shards instead of one
//!     .build();
//! assert_eq!(host.topology().shard_count(), 2);
//! # let _ = &mut host;
//! ```
//!
//! `HostBuilder::bam(config)` builds the synchronous baseline the same way;
//! the result of either constructor implements
//! [`agile_core::host::GpuStorageHost`], so harness code compares the two
//! systems without duplicating setup.

use crate::ctrl::BamConfig;
use crate::host::BamHost;
use agile_control::{ControlPolicy, SloSpec};
use agile_core::config::AgileConfig;
use agile_core::host::{AgileHost, DeviceSpec, GpuStorageHost, HostSpec};
use agile_core::qos::QosPolicy;
use agile_metrics::{MetricsRegistry, WindowedSampler};
use agile_sim::trace::TraceSink;
use gpu_sim::{EngineSched, GpuConfig};
use nvme_sim::{PageBacking, Placement};
use std::sync::Arc;

/// Selects which system a [`HostBuilder`] constructs. Implemented by
/// [`AgileSystem`] and [`BamSystem`]; not meant to be implemented outside
/// this crate.
pub trait HostSystem {
    /// The system's configuration type.
    type Config;
    /// The host type `build()` returns.
    type Host: GpuStorageHost;
    /// The system's constructor.
    fn build(spec: HostSpec, config: Self::Config) -> Self::Host;
}

/// Marker for [`HostBuilder::agile`].
pub struct AgileSystem;
impl HostSystem for AgileSystem {
    type Config = AgileConfig;
    type Host = AgileHost;
    fn build(spec: HostSpec, config: AgileConfig) -> AgileHost {
        AgileHost::build(spec, config)
    }
}

/// Marker for [`HostBuilder::bam`].
pub struct BamSystem;
impl HostSystem for BamSystem {
    type Config = BamConfig;
    type Host = BamHost;
    fn build(spec: HostSpec, config: BamConfig) -> BamHost {
        BamHost::build(spec, config)
    }
}

/// Declarative construction of an AGILE or BaM host (see the module docs).
pub struct HostBuilder<S: HostSystem> {
    spec: HostSpec,
    config: S::Config,
}

impl HostBuilder<AgileSystem> {
    /// Build an AGILE host (background service, asynchronous I/O API).
    pub fn agile(config: AgileConfig) -> Self {
        HostBuilder {
            spec: HostSpec::default(),
            config,
        }
    }

    /// Scale the AGILE service out to `shards` shard-affine partitions —
    /// one persistent kernel per partition, each polling the CQs of the
    /// devices its storage shard owns ([`agile_core::service::ServiceSet`]).
    /// The default of 1 is the paper's single service, bit for bit.
    pub fn service_shards(mut self, shards: usize) -> Self {
        self.spec.service_shards = shards;
        self
    }

    /// Select the software cache's replacement policy
    /// ([`agile_core::config::CachePolicyKind`]). The default clock policy is
    /// the paper's, bit-identical to the pre-tenant-threading stack. Pair
    /// [`CachePolicyKind::TenantShare`](agile_core::config::CachePolicyKind::TenantShare)
    /// with [`HostBuilder::cache_shares`] for weighted per-tenant occupancy
    /// bounds. AGILE only — the BaM baseline hard-codes one policy, which is
    /// exactly the flexibility gap the paper calls out.
    pub fn cache_policy(mut self, policy: agile_core::config::CachePolicyKind) -> Self {
        self.config.cache_policy = policy;
        self
    }

    /// Per-tenant cache-occupancy weights, indexed by tenant id, consumed by
    /// the `TenantShare` eviction policy (tenants beyond the slice weigh 1;
    /// empty = equal shares).
    pub fn cache_shares(mut self, shares: Vec<u64>) -> Self {
        self.config.cache_shares = shares;
        self
    }
}

impl HostBuilder<BamSystem> {
    /// Build a BaM baseline host (no service, synchronous issue-then-poll).
    pub fn bam(config: BamConfig) -> Self {
        HostBuilder {
            spec: HostSpec::default(),
            config,
        }
    }
}

impl<S: HostSystem> HostBuilder<S> {
    /// Simulated GPU to run on (default: the paper's RTX 5000 Ada).
    pub fn gpu(mut self, gpu: GpuConfig) -> Self {
        self.spec.gpu = gpu;
        self
    }

    /// Add `count` SSDs of `pages` 4 KiB pages each with default in-memory
    /// backings. May be called repeatedly; devices accumulate.
    pub fn devices(mut self, count: usize, pages: u64) -> Self {
        let dev = DeviceSpec {
            pages,
            backing: None,
        };
        self.spec.devices.extend(std::iter::repeat_n(dev, count));
        self
    }

    /// Add one SSD of `pages` pages with a caller-supplied page backing
    /// (synthetic content, payload-carrying, …).
    pub fn backing(mut self, pages: u64, backing: Arc<dyn PageBacking>) -> Self {
        self.spec.devices.push(DeviceSpec {
            pages,
            backing: Some(backing),
        });
        self
    }

    /// Partition the storage into `shards` lock shards (≥ 1; default 1, the
    /// paper's single-lock array).
    pub fn shards(mut self, shards: usize) -> Self {
        self.spec.shards = shards;
        self
    }

    /// Select the striping layer's placement seed over
    /// [`nvme_sim::ShardedArray::map_page`]: the default
    /// [`Placement::Interleave`] is the paper's `g % devices` layout
    /// (golden-guarded), [`Placement::Hash`] rotates each page row by a
    /// hash for diagonal data-layout experiments.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.spec.placement = placement;
        self
    }

    /// Select the engine's scheduling loop ([`gpu_sim::EngineSched`]): the
    /// event-driven ready-queue (default), the legacy full scan, or
    /// [`EngineSched::ParallelShards`] worker threads. All execute
    /// bit-identically; they differ only in rounds visited and wall time.
    pub fn engine_sched(mut self, sched: EngineSched) -> Self {
        self.spec.engine_sched = sched;
        self
    }

    /// Install a trace sink across the whole stack before the first kernel
    /// runs, so capture covers every event from time zero.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.spec.trace_sink = Some(sink);
        self
    }

    /// Install a QoS policy ([`agile_core::qos::QosPolicy`]) arbitrating
    /// tenant-attributed SQ admission, before the first kernel runs. Without
    /// this call the stack schedules FIFO (pre-QoS behaviour, bit-for-bit).
    pub fn qos(mut self, policy: Arc<dyn QosPolicy>) -> Self {
        self.spec.qos = Some(policy);
        self
    }

    /// Instrument the whole stack with a metrics registry
    /// ([`agile_metrics::MetricsRegistry`]): submit-path and engine counters
    /// plus snapshot-time collectors over the cache, topology, devices and
    /// (on AGILE) service partitions. Without this call every metrics hook
    /// is a no-op and replay output is byte-identical to an uninstrumented
    /// build.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.spec.metrics = Some(registry);
        self
    }

    /// Attach a windowed sampler ([`agile_metrics::WindowedSampler`]) driven
    /// by the simulated clock; pair with [`HostBuilder::metrics`] over the
    /// same registry to get per-window time series out of a run.
    pub fn metrics_sampler(mut self, sampler: Arc<WindowedSampler>) -> Self {
        self.spec.sampler = Some(sampler);
        self
    }

    /// Enable the closed-loop control plane ([`agile_control::Controller`])
    /// under `policy`. Implies metrics: when no registry / sampler was
    /// supplied, a registry and a
    /// [`DEFAULT_CONTROL_WINDOW`](agile_core::host::DEFAULT_CONTROL_WINDOW)-cycle
    /// sampler are created at build time. Pair with [`HostBuilder::slos`] to
    /// enforce per-tenant objectives.
    pub fn control(mut self, policy: ControlPolicy) -> Self {
        self.spec.control = Some(policy);
        self
    }

    /// Declare per-tenant SLOs ([`agile_control::SloSpec`]) for the control
    /// plane's AIMD loop. Only meaningful with [`HostBuilder::control`].
    pub fn slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.spec.slos = slos;
        self
    }

    /// Construct and start the host: devices and queues built, controller
    /// created, sink, policy and instruments installed, engine ready and —
    /// on AGILE — the service launched.
    pub fn build(self) -> S::Host {
        S::build(self.spec, self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_core::kernels::PrefetchComputeKernel;
    use agile_core::qos::WeightedFair;
    use agile_metrics::Labels;
    use agile_sim::trace::{TraceEvent, TraceEventKind};
    use gpu_sim::LaunchConfig;
    use nvme_sim::ShardedArray;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct SubmitCounter(AtomicU64);
    impl TraceSink for SubmitCounter {
        fn record(&self, ev: TraceEvent) {
            if ev.kind == TraceEventKind::Submit {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn builds_a_started_agile_host() {
        let host = HostBuilder::agile(AgileConfig::small_test())
            .gpu(GpuConfig::tiny(2))
            .devices(2, 1 << 14)
            .build();
        assert_eq!(host.ctrl().device_count(), 2);
        assert_eq!(host.topology().shard_count(), 1);
        assert_eq!(host.service_set().partitions().len(), 1);
        assert!(host.metrics().is_none());
        assert!(host.controller().is_none());
        // The service is launched: the engine exists and reports time.
        assert_eq!(host.now().raw(), 0);
    }

    /// Sets every option both systems share to a non-default value, runs
    /// `$kernel` on the built host, and asserts each option took effect.
    macro_rules! assert_every_option_reaches_the_host {
        ($builder:expr, $kernel:expr) => {{
            let sink = Arc::new(SubmitCounter::default());
            let registry = MetricsRegistry::new();
            let sampler = WindowedSampler::new(Arc::clone(&registry), 10_000);
            let sched = EngineSched::ParallelShards(2);
            let mut host = $builder
                .gpu(GpuConfig::tiny(2))
                .devices(4, 1 << 12)
                .shards(2)
                .placement(Placement::Hash)
                .engine_sched(sched)
                .trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>)
                .qos(Arc::new(WeightedFair::from_weights(&[3, 1])))
                .metrics(Arc::clone(&registry))
                .metrics_sampler(Arc::clone(&sampler))
                .control(ControlPolicy::slo_only())
                .build();
            let topology = host.topology();
            assert_eq!(topology.shard_count(), 2);
            let hashed = ShardedArray::new(4, 2).with_placement(Placement::Hash);
            for g in 0..256 {
                assert_eq!(topology.map_page(g), hashed.map_page(g), "page {g}");
            }
            assert_eq!(host.engine_mut().scheduler(), sched);
            let ctrl = host.ctrl();
            assert_eq!(ctrl.qos_policy().expect("installed").name(), "wfq");
            assert!(Arc::ptr_eq(host.metrics().expect("installed"), &registry));
            let controller = Arc::clone(host.controller().expect("installed"));

            let report =
                host.run_kernel(LaunchConfig::new(1, 64).with_registers(56), $kernel(ctrl));
            assert!(!report.deadlocked);
            // Threaded sink capture drains through the per-device mailboxes.
            assert!(sink.0.load(Ordering::Relaxed) > 0, "sink was installed");
            let snapshot = registry.snapshot();
            for shard in 0..2 {
                assert!(
                    snapshot
                        .get("agile_submit_lock_acquires_total", Labels::shard(shard))
                        .is_some(),
                    "topology collector registered for shard {shard}"
                );
            }
            sampler.finish(host.now().raw());
            assert!(
                !sampler.windows().is_empty(),
                "sampler bridged into the engine"
            );
            assert!(
                controller.report().windows_seen > 0,
                "controller reads the given sampler"
            );
        }};
    }

    #[test]
    fn every_option_reaches_the_agile_host() {
        assert_every_option_reaches_the_host!(
            HostBuilder::agile(AgileConfig::small_test()),
            |ctrl| Box::new(PrefetchComputeKernel::new(ctrl, 4, 3_000))
        );
    }

    #[test]
    fn every_option_reaches_the_bam_host() {
        assert_every_option_reaches_the_host!(HostBuilder::bam(BamConfig::small_test()), |ctrl| {
            Box::new(crate::kernels::SyncReadComputeKernel::new(
                ctrl, 2, 1_000, 50_000,
            ))
        });
    }

    #[test]
    fn agile_only_options_reach_the_agile_host() {
        use agile_core::config::CachePolicyKind;
        let host = HostBuilder::agile(AgileConfig::small_test())
            .gpu(GpuConfig::tiny(2))
            .devices(4, 1 << 12)
            .shards(2)
            .service_shards(2)
            .cache_policy(CachePolicyKind::TenantShare)
            .cache_shares(vec![3, 1])
            .build();
        assert_eq!(host.service_set().partitions().len(), 2);
        let config = host.ctrl().config().clone();
        assert_eq!(config.cache_policy, CachePolicyKind::TenantShare);
        assert_eq!(config.cache_shares, vec![3, 1]);
    }

    #[test]
    fn control_without_instruments_creates_them() {
        let host = HostBuilder::bam(BamConfig::small_test())
            .gpu(GpuConfig::tiny(1))
            .devices(1, 1 << 12)
            .control(ControlPolicy::slo_only())
            .build();
        assert!(host.metrics().is_some());
        assert!(host.controller().is_some());
    }

    #[test]
    fn mixed_backings_accumulate_in_order() {
        use nvme_sim::{MemBacking, PageToken};
        let custom = Arc::new(MemBacking::new(7));
        custom.write(3, PageToken(0xC0FFEE));
        let host = HostBuilder::agile(AgileConfig::small_test())
            .gpu(GpuConfig::tiny(1))
            .devices(1, 1 << 12)
            .backing(1 << 12, custom)
            .build();
        assert_eq!(host.ctrl().device_count(), 2);
        assert_eq!(host.backing(1).read(3), PageToken(0xC0FFEE));
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn refuses_to_build_without_devices() {
        let _ = HostBuilder::agile(AgileConfig::small_test()).build();
    }

    #[test]
    #[should_panic(expected = "at least one lock shard")]
    fn refuses_zero_lock_shards() {
        let _ = HostBuilder::bam(BamConfig::small_test())
            .devices(1, 1 << 12)
            .shards(0)
            .build();
    }
}
