//! BaM-model kernels: the synchronous access pattern and the naive-async
//! deadlock demonstration.

use crate::ctrl::BamCtrl;
use agile_core::transaction::Barrier;
use agile_sim::Cycles;
use gpu_sim::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use nvme_sim::{DmaHandle, Lba};
use std::sync::Arc;

/// The canonical synchronous pattern: each warp iterates `iters` times; every
/// iteration it reads its pages through the cache (issuing and then polling
/// until the data arrives — no overlap) and only then computes.
pub struct SyncReadComputeKernel {
    ctrl: Arc<BamCtrl>,
    iters: u32,
    compute_cycles: u64,
    pages_per_dev: u64,
}

impl SyncReadComputeKernel {
    /// `iters` iterations per warp, each computing for `compute_cycles`, over
    /// a working set of `pages_per_dev` pages per device.
    pub fn new(ctrl: Arc<BamCtrl>, iters: u32, compute_cycles: u64, pages_per_dev: u64) -> Self {
        SyncReadComputeKernel {
            ctrl,
            iters,
            compute_cycles,
            pages_per_dev,
        }
    }
}

enum SyncPhase {
    Read,
    Poll,
    Compute,
}

struct SyncWarp {
    ctrl: Arc<BamCtrl>,
    iters: u32,
    compute_cycles: u64,
    pages_per_dev: u64,
    warp_flat: u64,
    iter: u32,
    phase: SyncPhase,
}

impl SyncWarp {
    fn pages(&self, lanes: u32) -> Vec<(u32, Lba)> {
        let ndev = self.ctrl.device_count() as u64;
        (0..lanes as u64)
            .map(|lane| {
                let idx = self.warp_flat * self.iters as u64 * lanes as u64
                    + self.iter as u64 * lanes as u64
                    + lane;
                ((idx % ndev) as u32, (idx / ndev) % self.pages_per_dev)
            })
            .collect()
    }
}

impl WarpKernel for SyncWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if self.iter >= self.iters {
            return WarpStep::Done;
        }
        match self.phase {
            SyncPhase::Read => {
                let reqs = self.pages(ctx.lanes);
                let (cost, ready) = self.ctrl.read_warp_sync(self.warp_flat, &reqs, ctx.now);
                if ready.is_some() {
                    self.phase = SyncPhase::Compute;
                } else {
                    self.phase = SyncPhase::Poll;
                }
                WarpStep::Busy(cost)
            }
            SyncPhase::Poll => {
                // Synchronous model: this warp burns issue slots polling the
                // CQs until the data is resident, then re-reads.
                let mut cost = Cycles(0);
                let mut processed = 0;
                for dev in 0..self.ctrl.device_count() {
                    let (c, p) = self.ctrl.poll_once(self.warp_flat, dev);
                    cost += c;
                    processed += p;
                }
                self.phase = SyncPhase::Read;
                if processed > 0 {
                    WarpStep::Busy(cost)
                } else {
                    WarpStep::Stall {
                        retry_after: cost.max(Cycles(1_500)),
                    }
                }
            }
            SyncPhase::Compute => {
                self.iter += 1;
                self.phase = SyncPhase::Read;
                WarpStep::Busy(Cycles(self.compute_cycles))
            }
        }
    }
}

impl KernelFactory for SyncReadComputeKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        Box::new(SyncWarp {
            ctrl: Arc::clone(&self.ctrl),
            iters: self.iters,
            compute_cycles: self.compute_cycles,
            pages_per_dev: self.pages_per_dev.max(1),
            warp_flat: block as u64 * 64 + warp as u64,
            iter: 0,
            phase: SyncPhase::Read,
        })
    }
    fn name(&self) -> &str {
        "bam-sync-read-compute"
    }
}

/// The Figure-1 deadlock: a "naive asynchronous" kernel built on the
/// synchronous protocol. Each warp enqueues `requests_per_warp` commands
/// *before* checking a single completion — and, crucially, nothing else in
/// the system processes completions either. Once the submission queues fill,
/// every warp spins waiting for an SQE that can only be freed by completion
/// processing that never happens; the engine's no-progress detector reports
/// the deadlock. The same workload under AGILE (whose service frees SQEs
/// independently of user threads) runs to completion — see the integration
/// tests.
pub struct NaiveAsyncKernel {
    ctrl: Arc<BamCtrl>,
    requests_per_warp: u32,
    /// When true, warps fall back to polling completions while stuck — which
    /// is exactly the fix BaM's synchronous model applies; the kernel then
    /// completes. Used to show the contrast in tests.
    poll_while_stuck: bool,
}

impl NaiveAsyncKernel {
    /// A deadlocking configuration (no polling while stuck).
    pub fn deadlocking(ctrl: Arc<BamCtrl>, requests_per_warp: u32) -> Self {
        NaiveAsyncKernel {
            ctrl,
            requests_per_warp,
            poll_while_stuck: false,
        }
    }

    /// A safe configuration that polls completions while waiting for SQ space.
    pub fn polling(ctrl: Arc<BamCtrl>, requests_per_warp: u32) -> Self {
        NaiveAsyncKernel {
            ctrl,
            requests_per_warp,
            poll_while_stuck: true,
        }
    }
}

struct NaiveWarp {
    ctrl: Arc<BamCtrl>,
    requests_per_warp: u32,
    poll_while_stuck: bool,
    warp_flat: u64,
    issued: u32,
    barriers: Vec<Barrier>,
}

impl WarpKernel for NaiveWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if self.issued < self.requests_per_warp {
            // Phase 1: enqueue everything before looking at any completion.
            let lba = self.warp_flat * self.requests_per_warp as u64 + self.issued as u64;
            let barrier = Barrier::new();
            let (cost, ok) = self.ctrl.raw_read(
                self.warp_flat,
                0,
                lba % 1_000_000,
                DmaHandle::new(),
                barrier.clone(),
                ctx.now,
            );
            if ok {
                self.barriers.push(barrier);
                self.issued += 1;
                return WarpStep::Busy(cost);
            }
            // SQ full. The naive-async kernel just spins for a free SQE …
            if !self.poll_while_stuck {
                return WarpStep::Stall {
                    retry_after: Cycles(2_000),
                };
            }
            // … the corrected kernel processes completions while it waits.
            let (poll_cost, _) = self.ctrl.poll_once(self.warp_flat, 0);
            return WarpStep::Busy(cost + poll_cost);
        }
        // Phase 2: wait for all own requests to complete.
        if self.barriers.iter().all(|b| b.is_complete()) {
            return WarpStep::Done;
        }
        if self.poll_while_stuck {
            let (cost, processed) = self.ctrl.poll_once(self.warp_flat, 0);
            if processed > 0 {
                return WarpStep::Busy(cost);
            }
        }
        WarpStep::Stall {
            retry_after: Cycles(2_000),
        }
    }
}

impl KernelFactory for NaiveAsyncKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        Box::new(NaiveWarp {
            ctrl: Arc::clone(&self.ctrl),
            requests_per_warp: self.requests_per_warp,
            poll_while_stuck: self.poll_while_stuck,
            warp_flat: block as u64 * 64 + warp as u64,
            issued: 0,
            barriers: Vec::new(),
        })
    }
    fn name(&self) -> &str {
        if self.poll_while_stuck {
            "naive-async-polling"
        } else {
            "naive-async-deadlock"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::BamConfig;
    use crate::host::BamHost;
    use agile_core::host::{DeviceSpec, HostSpec};
    use gpu_sim::{GpuConfig, LaunchConfig};

    /// One SSD behind a single 32-deep queue pair.
    fn one_queue_host() -> BamHost {
        let spec = HostSpec {
            gpu: GpuConfig::tiny(2),
            devices: vec![DeviceSpec {
                pages: 1 << 20,
                backing: None,
            }],
            ..HostSpec::default()
        };
        let config = BamConfig::small_test()
            .with_queue_pairs(1)
            .with_queue_depth(32);
        BamHost::build(spec, config)
    }

    /// Reproduces the §2.3.1 deadlock: tiny SQs, no completion processing
    /// while waiting ⇒ the engine's progress watchdog reports a deadlock.
    #[test]
    fn naive_async_deadlocks_on_full_queues() {
        let mut host = one_queue_host();
        host.engine_mut().set_deadlock_window(Cycles(2_000_000));
        let ctrl = host.ctrl();
        // 4 blocks × 2 warps × 64 requests = 512 requests onto one 32-deep SQ.
        let report = host.run_kernel(
            LaunchConfig::new(4, 64).with_registers(40),
            Box::new(NaiveAsyncKernel::deadlocking(ctrl, 64)),
        );
        assert!(
            report.deadlocked,
            "naive async issuing on the synchronous protocol must deadlock"
        );
    }

    /// The same workload with completion polling while stuck finishes.
    #[test]
    fn polling_variant_completes() {
        let mut host = one_queue_host();
        let ctrl = host.ctrl();
        let report = host.run_kernel(
            LaunchConfig::new(4, 64).with_registers(40),
            Box::new(NaiveAsyncKernel::polling(Arc::clone(&ctrl), 64)),
        );
        assert!(!report.deadlocked);
        assert_eq!(ctrl.stats().completions, 4 * 2 * 64);
    }
}
