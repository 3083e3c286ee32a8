//! Host-side setup for the BaM baseline.
//!
//! Built by the same [`agile_core::host::assemble`] as
//! [`agile_core::host::AgileHost`], minus the AGILE service: BaM has no
//! background kernel, so the assembled engine is the whole host. Both hosts
//! implement [`agile_core::host::GpuStorageHost`], so the benchmark harness
//! swaps systems by switching which `crate::HostBuilder` constructor it
//! calls.

use crate::ctrl::{BamConfig, BamCtrl};
use agile_control::{Controller, KnobSet, TenantWeights};
use agile_core::control::QosWeights;
use agile_core::host::{assemble, Assembly, GpuStorageHost, HostCtrl, HostSpec};
use agile_core::qos::QosPolicy;
use agile_metrics::MetricsRegistry;
use agile_sim::costs::SsdCosts;
use agile_sim::trace::TraceSink;
use agile_sim::Cycles;
use gpu_sim::{occupancy, Engine, ExecutionReport, KernelFactory, LaunchConfig};
use nvme_sim::{PageBacking, QueuePair, ShardedArray};
use std::sync::Arc;

impl HostCtrl for BamCtrl {
    type Config = BamConfig;

    fn storage(config: &BamConfig) -> (&SsdCosts, usize, u32) {
        (
            &config.costs.ssd,
            config.queue_pairs_per_ssd,
            config.queue_depth,
        )
    }
    fn with_topology(
        config: BamConfig,
        queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Arc<ShardedArray>,
    ) -> Self {
        BamCtrl::with_topology(config, queues, topology)
    }
    fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) -> bool {
        BamCtrl::set_trace_sink(self, sink)
    }
    fn set_qos_policy(&self, policy: Arc<dyn QosPolicy>) -> bool {
        BamCtrl::set_qos_policy(self, policy)
    }
    fn bind_metrics(&self, registry: &Arc<MetricsRegistry>) -> bool {
        BamCtrl::bind_metrics(self, registry)
    }
    /// BaM has no prefetch pipeline, no AGILE service and a fixed clock
    /// cache, so only the WFQ weight knob is wired — the SLO loop runs, the
    /// others stay dormant.
    fn knob_set(ctrl: &Arc<Self>) -> KnobSet {
        KnobSet {
            wfq: ctrl
                .qos_policy()
                .map(|p| QosWeights::new(Arc::clone(p)) as Arc<dyn TenantWeights>),
            ..KnobSet::none()
        }
    }
}

/// Host-side owner of the BaM testbed.
pub struct BamHost {
    stack: Assembly<BamCtrl>,
}

impl BamHost {
    /// Build a ready BaM host: [`assemble`] the stack (there is no service
    /// to launch). Panics on the input [`assemble`] rejects.
    pub fn build(spec: HostSpec, config: BamConfig) -> Self {
        BamHost {
            stack: assemble(spec, config),
        }
    }

    /// The controller.
    pub fn ctrl(&self) -> Arc<BamCtrl> {
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

    /// The shared storage topology.
    pub fn topology(&self) -> Arc<ShardedArray> {
        Arc::clone(&self.stack.topology)
    }

    /// The backing of device `dev` (for dataset setup).
    pub fn backing(&self, dev: usize) -> Arc<dyn PageBacking> {
        self.stack.topology.backing(dev)
    }

    /// Launch a user kernel and run to completion.
    pub fn run_kernel(
        &mut self,
        launch: LaunchConfig,
        factory: Box<dyn KernelFactory>,
    ) -> ExecutionReport {
        self.stack.engine.launch(launch, factory);
        self.stack.engine.run()
    }

    /// Mutable engine access (deadlock-window tuning in tests).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.stack.engine
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.stack.engine.now()
    }
}

impl GpuStorageHost for BamHost {
    type Ctrl = BamCtrl;

    fn ctrl(&self) -> Arc<BamCtrl> {
        BamHost::ctrl(self)
    }
    fn topology(&self) -> Arc<ShardedArray> {
        BamHost::topology(self)
    }
    fn query_occupancy(&self, launch: &LaunchConfig) -> u32 {
        occupancy(self.stack.engine.gpu(), launch)
    }
    fn run_kernel(
        &mut self,
        launch: LaunchConfig,
        factory: Box<dyn KernelFactory>,
    ) -> ExecutionReport {
        BamHost::run_kernel(self, launch, factory)
    }
    fn now(&self) -> Cycles {
        BamHost::now(self)
    }
    fn stop(&mut self) {
        // BaM has no background service to stop.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::SyncReadComputeKernel;
    use agile_core::host::DeviceSpec;
    use gpu_sim::GpuConfig;

    #[test]
    fn bam_host_runs_a_sync_kernel() {
        let spec = HostSpec {
            gpu: GpuConfig::tiny(4),
            devices: vec![DeviceSpec {
                pages: 1 << 16,
                backing: None,
            }],
            ..HostSpec::default()
        };
        let mut host = BamHost::build(spec, BamConfig::small_test());
        let ctrl = host.ctrl();
        let report = host.run_kernel(
            LaunchConfig::new(2, 64).with_registers(56),
            Box::new(SyncReadComputeKernel::new(
                Arc::clone(&ctrl),
                3,
                2_000,
                50_000,
            )),
        );
        assert!(!report.deadlocked);
        let s = ctrl.stats();
        assert!(s.read_calls > 0);
        assert!(s.completions > 0, "user threads processed completions");
        assert!(host.topology().total_bytes_read() > 0);
    }
}
