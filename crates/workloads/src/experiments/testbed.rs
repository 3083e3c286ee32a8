//! Testbed construction helpers shared by the experiment runners.

use agile_core::{AgileConfig, AgileHost};
use bam_baseline::{BamConfig, BamHost, HostBuilder};
use gpu_sim::GpuConfig;

/// How aggressively the experiments are scaled relative to the paper's
/// hardware-scale runs. `full()` keeps the paper's structural parameters
/// (queue topology, batch size) but still shortens epoch counts; `quick()`
/// shrinks everything so integration tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestbedScale {
    /// DLRM inference epochs per run (paper: 10 000).
    pub dlrm_epochs: u32,
    /// Maximum random-I/O requests per SSD (paper sweeps to 262 144).
    pub max_requests_per_ssd: u64,
    /// NVMe reads per thread in the CTC micro-benchmark (paper: 64).
    pub microbench_requests: u32,
    /// Graph scale (log2 vertices) for the Kronecker generator.
    pub graph_scale: u32,
    /// Average degree / edge factor for the graph generators.
    pub graph_degree: usize,
}

impl TestbedScale {
    /// Bench-harness scale: structurally faithful, time-boxed.
    pub fn full() -> Self {
        TestbedScale {
            dlrm_epochs: 8,
            max_requests_per_ssd: 65_536,
            microbench_requests: 64,
            graph_scale: 14,
            graph_degree: 16,
        }
    }

    /// Integration-test scale: every experiment finishes in a few seconds.
    pub fn quick() -> Self {
        TestbedScale {
            dlrm_epochs: 4,
            max_requests_per_ssd: 2_048,
            microbench_requests: 16,
            graph_scale: 10,
            graph_degree: 8,
        }
    }
}

/// The GPU used by every experiment (the paper's RTX 5000 Ada).
pub fn experiment_gpu() -> GpuConfig {
    GpuConfig::rtx_5000_ada()
}

/// Build and start an AGILE testbed with `ssd_count` SSDs of
/// `pages_per_ssd` pages each (single-lock topology).
pub fn agile_testbed(config: AgileConfig, ssd_count: usize, pages_per_ssd: u64) -> AgileHost {
    HostBuilder::agile(config)
        .gpu(experiment_gpu())
        .devices(ssd_count, pages_per_ssd)
        .build()
}

/// Build and start a BaM testbed with `ssd_count` SSDs (single-lock topology).
pub fn bam_testbed(config: BamConfig, ssd_count: usize, pages_per_ssd: u64) -> BamHost {
    HostBuilder::bam(config)
        .gpu(experiment_gpu())
        .devices(ssd_count, pages_per_ssd)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let full = TestbedScale::full();
        let quick = TestbedScale::quick();
        assert!(quick.dlrm_epochs <= full.dlrm_epochs);
        assert!(quick.max_requests_per_ssd < full.max_requests_per_ssd);
        assert!(quick.graph_scale < full.graph_scale);
    }

    #[test]
    fn testbeds_come_up() {
        let host = agile_testbed(AgileConfig::small_test(), 2, 1 << 16);
        assert_eq!(host.ctrl().device_count(), 2);
        let bam = bam_testbed(BamConfig::small_test(), 1, 1 << 16);
        assert_eq!(bam.ctrl().device_count(), 1);
    }
}
