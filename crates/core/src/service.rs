//! The AGILE service: warp-centric completion-queue polling (§3.2),
//! scaled out as shard-affine service partitions.
//!
//! A small persistent kernel runs in the background on the GPU. Its warps
//! rotate over the registered CQs in round-robin order; on each visit a warp
//! examines a 32-entry window of the CQ — one CQE per lane — exactly as
//! Algorithm 1 describes:
//!
//! 1. load the window offset, the expected phase and the 32-bit mask of
//!    already-seen completions;
//! 2. every lane whose mask bit is clear probes its CQE's phase tag and sets
//!    the bit if a new completion is present — and the service *processes*
//!    that completion: it maps the `(SQ, CID)` back to its transaction,
//!    releases the SQE lock (so the submission slot can be reused), completes
//!    cache fills, clears user barriers and marks Share-Table entries ready;
//! 3. when the whole window is processed the warp writes the CQ head doorbell
//!    (consuming the 32 entries) and resets the mask for the next window.
//!
//! Because the *service* — not the issuing thread — releases SQ entries, a
//! thread that finds every SQ full can simply retry later: the entries it is
//! waiting for will be freed regardless of what any user thread is doing,
//! which eliminates the deadlock of Figure 1.
//!
//! ## Scale-out: shard-affine partitions
//!
//! The paper's service is a single kernel whose warps sweep *every* CQ —
//! fine at 1–3 SSDs, the compute-side scalability ceiling at production
//! device counts. [`ServiceSet`] splits the CQ space into N
//! [`ServicePartition`]s along the storage topology's lock shards
//! ([`nvme_sim::ShardedArray::shard_of`]): one persistent kernel per
//! partition, each sweeping only its own shard's `(device, queue-pair)`
//! targets, so completion processing scales with the storage side instead of
//! funnelling through one kernel's rotation. With one shard (the default)
//! the set degenerates to exactly the paper's single service, bit for bit.

use crate::ctrl::AgileCtrl;
use crate::sq_protocol::AgileSq;
use crate::transaction::Transaction;
use agile_sim::Cycles;
use gpu_sim::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use nvme_sim::ShardedArray;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Partition the `(device, queue-pair)` CQ targets of a storage stack into
/// `shards` shard-affine groups.
///
/// When a topology with at least `shards` lock shards is attached, device
/// `d` belongs to service partition `shard_of(d) % shards`, so every service
/// keeps polling CQs whose submissions contend on the same storage shard —
/// the compute-side mirror of the lock partitioning. With fewer storage
/// shards than services (including the default single-shard array)
/// the grouping falls back to round-robin by device index, so no partition
/// is left without work. Targets within a partition keep the global
/// `(device asc, queue asc)` order; `shards == 1` therefore reproduces the
/// historical single-service target list exactly.
pub fn partition_targets(
    topology: Option<&Arc<ShardedArray>>,
    queues_per_device: &[usize],
    shards: usize,
) -> Vec<Vec<(usize, usize)>> {
    let n = shards.max(1);
    let mut parts: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (dev, &queues) in queues_per_device.iter().enumerate() {
        let part = match topology {
            Some(t) if n > 1 && t.shard_count() >= n => t.shard_of(dev) % n,
            _ => dev % n,
        };
        for q in 0..queues {
            parts[part].push((dev, q));
        }
    }
    parts
}

/// Auto-sized warp count for a service partition polling `targets` CQs
/// (the "Service geometry tuning" opener): one warp per 8 owned CQs keeps a
/// warp's round-robin visit period — the SQE-recycle latency ceiling the
/// scale-out work measured — bounded as the CQ space grows, while idle
/// partitions do not burn polling warps they cannot use. Clamped to
/// `[1, 32]`: at least one warp even for an empty partition (the kernel
/// must exist to observe the stop flag), and at most one thread block's
/// worth of warps so the launch geometry stays within one SM's occupancy.
///
/// Used when [`crate::config::AgileConfig::auto_service_warps`] is set; the
/// default remains the paper's fixed `service_warps` geometry.
pub fn auto_service_warps(targets: usize) -> u32 {
    (targets.div_ceil(8) as u32).clamp(1, 32)
}

/// Poll cursor of one CQ (owned by the service).
struct CqPollState {
    /// Ring index of the first entry of the current 32-entry window.
    window_start: u32,
    /// Expected phase tag for entries in the current pass of the ring.
    phase: bool,
    /// Bit `i` set ⇒ entry `window_start + i` has been observed and processed.
    mask: u32,
}

impl CqPollState {
    fn new() -> Self {
        CqPollState {
            window_start: 0,
            phase: true,
            mask: 0,
        }
    }
}

/// Statistics of the service kernel.
///
/// Note: the unified registry exports these as `agile_service_*` labelled
/// by partition; this struct stays for direct programmatic access.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Completions processed.
    pub completions: u64,
    /// CQ head-doorbell updates (windows consumed).
    pub cq_doorbells: u64,
    /// Poll rounds that found no new completion.
    pub idle_rounds: u64,
    /// Poll rounds that found at least one completion.
    pub busy_rounds: u64,
}

#[derive(Default)]
struct ServiceStatCells {
    completions: AtomicU64,
    cq_doorbells: AtomicU64,
    idle_rounds: AtomicU64,
    busy_rounds: AtomicU64,
}

/// One shard-affine slice of the AGILE service: a poll cursor per owned CQ
/// plus the completion-processing logic of Algorithm 1. The single-service
/// configuration is simply a set with one partition owning every CQ.
pub struct ServicePartition {
    ctrl: Arc<AgileCtrl>,
    /// Which service shard this partition is (index within its set).
    shard: usize,
    /// `(device, queue-pair)` flattened list of CQs this partition polls.
    targets: Vec<(usize, usize)>,
    cursors: Vec<Mutex<CqPollState>>,
    stats: ServiceStatCells,
    /// Cycles a poll round costs when it found completions.
    poll_round_cost: u64,
    /// Cycles a warp backs off when its round found nothing (keeps the
    /// simulation cheap without changing behaviour: an idle poll loop).
    /// Seeded from `costs.api.agile_service_idle_backoff`; the cell is
    /// shared with the controller so a control plane can retune it online —
    /// partitions load it once per idle round.
    idle_backoff: Arc<AtomicU64>,
}

/// The pre-scale-out name of [`ServicePartition`]; a single partition over
/// every CQ is exactly the old `AgileService`.
pub type AgileService = ServicePartition;

impl ServicePartition {
    /// Build a single partition over every CQ registered with the controller
    /// — the paper's one-kernel service.
    pub fn new(ctrl: Arc<AgileCtrl>) -> Arc<Self> {
        let mut targets = Vec::new();
        for dev in 0..ctrl.device_count() {
            for q in 0..ctrl.device_queues(dev).len() {
                targets.push((dev, q));
            }
        }
        ServicePartition::for_targets(ctrl, 0, targets)
    }

    /// Build partition `shard` over an explicit `(device, queue-pair)` target
    /// list (normally computed by [`partition_targets`] via [`ServiceSet`]).
    pub fn for_targets(
        ctrl: Arc<AgileCtrl>,
        shard: usize,
        targets: Vec<(usize, usize)>,
    ) -> Arc<Self> {
        let cursors = targets
            .iter()
            .map(|_| Mutex::new(CqPollState::new()))
            .collect();
        let api = &ctrl.config().costs.api;
        let poll_round_cost = api.agile_service_poll_round;
        let idle_backoff = ctrl.idle_backoff_cell();
        Arc::new(ServicePartition {
            ctrl,
            shard,
            targets,
            cursors,
            stats: ServiceStatCells::default(),
            poll_round_cost,
            idle_backoff,
        })
    }

    /// Which service shard this partition is.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The `(device, queue-pair)` CQs this partition polls.
    pub fn targets(&self) -> &[(usize, usize)] {
        &self.targets
    }

    /// Number of CQs the service is responsible for.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            completions: self.stats.completions.load(Ordering::Relaxed),
            cq_doorbells: self.stats.cq_doorbells.load(Ordering::Relaxed),
            idle_rounds: self.stats.idle_rounds.load(Ordering::Relaxed),
            busy_rounds: self.stats.busy_rounds.load(Ordering::Relaxed),
        }
    }

    /// Execute one warp-centric polling round on CQ `target_idx`
    /// (Algorithm 1) at sim time `now`. Returns the number of completions
    /// processed.
    pub fn poll_cq(&self, target_idx: usize, now: Cycles) -> u32 {
        let (dev, qidx) = self.targets[target_idx];
        let sq: &Arc<AgileSq> = &self.ctrl.device_queues(dev)[qidx];
        let cq = &sq.queue_pair().cq;
        let depth = cq.depth();
        let mut cursor = self.cursors[target_idx].lock();
        let mut processed = 0u32;

        // Each of the 32 "lanes" probes one entry of the window.
        let window = 32.min(depth);
        for lane in 0..window {
            let bit = 1u32 << lane;
            if cursor.mask & bit != 0 {
                continue;
            }
            let idx = (cursor.window_start + lane) % depth;
            if let Some(cqe) = cq.poll_slot(idx, cursor.phase) {
                self.process_completion(dev, cqe.sq_id as usize, cqe.cid, now);
                cursor.mask |= bit;
                processed += 1;
            }
        }

        // Window fully processed: ring the CQ head doorbell and move on.
        let full_mask = if window == 32 {
            u32::MAX
        } else {
            (1u32 << window) - 1
        };
        if cursor.mask == full_mask {
            cq.consume(window);
            self.stats.cq_doorbells.fetch_add(1, Ordering::Relaxed);
            cursor.mask = 0;
            let next = (cursor.window_start + window) % depth;
            if next <= cursor.window_start {
                cursor.phase = !cursor.phase;
            }
            cursor.window_start = next;
        }
        processed
    }

    /// Handle one completion: release the SQE and finish its transaction.
    fn process_completion(&self, dev: usize, qidx: usize, cid: u16, now: Cycles) {
        let sq = &self.ctrl.device_queues(dev)[qidx];
        let txn = sq
            .transactions()
            .take(cid)
            .expect("completion for a command with no transaction");
        sq.release(cid);
        self.stats.completions.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = self.ctrl.trace_sink() {
            sink.record(
                agile_sim::trace::TraceEvent::new(
                    agile_sim::trace::TraceEventKind::ServiceCompletion,
                    now.raw(),
                )
                .target(dev as u32, 0)
                .queue(qidx as u16, cid),
            );
        }
        match txn {
            Transaction::CacheFill { line } => {
                self.ctrl.cache().complete_fill(line);
                self.ctrl.cache().unpin(line);
            }
            Transaction::WriteBack => {}
            Transaction::UserRead { barrier, shared } => {
                barrier.complete();
                if let Some(s) = shared {
                    s.mark_ready();
                }
            }
            Transaction::UserWrite { barrier } => barrier.complete(),
            Transaction::Raw {
                barrier,
                qos_tenant,
                ..
            } => {
                barrier.complete();
                // Return the in-flight QoS credit so the scheduler can admit
                // the tenant's next submission.
                if let Some(tenant) = qos_tenant {
                    if let Some(qos) = self.ctrl.qos_policy() {
                        qos.on_complete(tenant);
                    }
                }
            }
        }
    }

    /// One scheduling step of a service warp at sim time `now`: poll the next
    /// CQ in this warp's rotation. Returns the cycle cost of the step.
    pub fn service_step(
        &self,
        rotation: &mut usize,
        stride: usize,
        offset: usize,
        now: Cycles,
    ) -> Cycles {
        if self.targets.is_empty() {
            return Cycles(self.idle_backoff.load(Ordering::Relaxed).max(1));
        }
        let idx = (offset + *rotation * stride) % self.targets.len();
        *rotation += 1;
        let processed = self.poll_cq(idx, now);
        if processed > 0 {
            self.stats.busy_rounds.fetch_add(1, Ordering::Relaxed);
            Cycles(self.poll_round_cost)
        } else {
            self.stats.idle_rounds.fetch_add(1, Ordering::Relaxed);
            let backoff = self.idle_backoff.load(Ordering::Relaxed).max(1);
            Cycles(self.poll_round_cost.max(backoff))
        }
    }

    /// The controller this service works for.
    pub fn ctrl(&self) -> &Arc<AgileCtrl> {
        &self.ctrl
    }
}

/// Kernel factory for one persistent AGILE service kernel (one per
/// [`ServicePartition`]).
pub struct AgileServiceKernel {
    service: Arc<ServicePartition>,
    warps_per_block: u32,
    total_warps: u32,
    name: String,
}

impl AgileServiceKernel {
    /// Create the factory; `warps_per_block`/`total_warps` must match the
    /// launch configuration used for the service kernel. Partition 0 keeps
    /// the historical kernel name `agile-service`; higher shards are
    /// suffixed (`agile-service-s1`, …) so per-kernel reports stay
    /// distinguishable.
    pub fn new(service: Arc<ServicePartition>, warps_per_block: u32, total_warps: u32) -> Self {
        let name = if service.shard() == 0 {
            "agile-service".to_string()
        } else {
            format!("agile-service-s{}", service.shard())
        };
        AgileServiceKernel {
            service,
            warps_per_block,
            total_warps: total_warps.max(1),
            name,
        }
    }
}

struct ServiceWarp {
    service: Arc<ServicePartition>,
    rotation: usize,
    stride: usize,
    offset: usize,
}

impl WarpKernel for ServiceWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if self.service.ctrl().service_stop_requested() {
            return WarpStep::Done;
        }
        let cost = self
            .service
            .service_step(&mut self.rotation, self.stride, self.offset, ctx.now);
        WarpStep::Busy(cost)
    }
}

impl KernelFactory for AgileServiceKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        let flat = block * self.warps_per_block + warp;
        Box::new(ServiceWarp {
            service: Arc::clone(&self.service),
            rotation: 0,
            stride: self.total_warps as usize,
            offset: flat as usize,
        })
    }
    fn name(&self) -> &str {
        &self.name
    }
}

// ---------------------------------------------------------------------------
// ServiceSet: N shard-affine partitions
// ---------------------------------------------------------------------------

/// The scale-out service: N shard-affine [`ServicePartition`]s over one
/// controller, one persistent kernel each (launched by
/// `AgileHost::build`). `shards == 1` is exactly the paper's single
/// service — same target order, same kernel geometry, bit-identical
/// behaviour (asserted by the golden-trace suite).
pub struct ServiceSet {
    partitions: Vec<Arc<ServicePartition>>,
}

impl ServiceSet {
    /// Partition the controller's CQs into `shards` shard-affine services
    /// (see [`partition_targets`] for the grouping rule).
    pub fn new(ctrl: &Arc<AgileCtrl>, shards: usize) -> Self {
        let queues_per_device: Vec<usize> = (0..ctrl.device_count())
            .map(|dev| ctrl.device_queues(dev).len())
            .collect();
        let parts = partition_targets(ctrl.topology(), &queues_per_device, shards);
        let partitions = parts
            .into_iter()
            .enumerate()
            .map(|(shard, targets)| ServicePartition::for_targets(Arc::clone(ctrl), shard, targets))
            .collect();
        ServiceSet { partitions }
    }

    /// The partitions, in shard order.
    pub fn partitions(&self) -> &[Arc<ServicePartition>] {
        &self.partitions
    }

    /// Number of service shards.
    pub fn shard_count(&self) -> usize {
        self.partitions.len()
    }

    /// Per-shard statistics snapshots, in shard order.
    pub fn partition_stats(&self) -> Vec<ServiceStats> {
        self.partitions.iter().map(|p| p.stats()).collect()
    }

    /// Aggregate statistics across every partition.
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for p in &self.partitions {
            let s = p.stats();
            total.completions += s.completions;
            total.cq_doorbells += s.cq_doorbells;
            total.idle_rounds += s.idle_rounds;
            total.busy_rounds += s.busy_rounds;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgileConfig;
    use crate::transaction::{AgileBuf, Barrier};
    use nvme_sim::{DmaHandle, MemBacking, PageToken, QueuePair, SsdConfig, SsdDevice};

    /// Build a ctrl + device pair wired through real queue pairs.
    fn rig(qps: usize, depth: u32) -> (Arc<AgileCtrl>, SsdDevice) {
        let cfg = AgileConfig::small_test()
            .with_queue_pairs(qps)
            .with_queue_depth(depth);
        let mut dev = SsdDevice::new(
            SsdConfig::new(0).with_capacity_pages(1 << 20),
            Arc::new(MemBacking::new(0)),
        );
        let queues: Vec<Arc<QueuePair>> = (0..qps)
            .map(|q| {
                let qp = QueuePair::new(q as u16, depth);
                dev.register_queue_pair(Arc::clone(&qp));
                qp
            })
            .collect();
        let ctrl = Arc::new(AgileCtrl::new(cfg, vec![queues]));
        (ctrl, dev)
    }

    /// Drive device + service from `start` until the predicate holds (or panic).
    fn drive_until_from(
        dev: &mut SsdDevice,
        service: &AgileService,
        start: Cycles,
        mut pred: impl FnMut() -> bool,
    ) -> Cycles {
        let mut now = start;
        let mut rotation = 0usize;
        for _ in 0..200_000 {
            now += Cycles(2_000);
            dev.advance_to(now);
            // One service warp sweeping all CQs.
            let _ = service.service_step(&mut rotation, 1, 0, now);
            if pred() {
                return now;
            }
        }
        panic!("condition never became true");
    }

    /// Drive device + service from time zero until the predicate holds.
    fn drive_until(
        dev: &mut SsdDevice,
        service: &AgileService,
        pred: impl FnMut() -> bool,
    ) -> Cycles {
        drive_until_from(dev, service, Cycles(0), pred)
    }

    #[test]
    fn service_completes_cache_fills_end_to_end() {
        let (ctrl, mut dev) = rig(2, 64);
        let service = AgileService::new(Arc::clone(&ctrl));
        assert_eq!(service.target_count(), 2);
        let (_, retry) = ctrl.prefetch_warp(0, &[(0, 11), (0, 12), (0, 13)], Cycles(0));
        assert!(retry.is_empty());
        let c = Arc::clone(&ctrl);
        drive_until(&mut dev, &service, move || {
            c.cache().peek(0, 11).is_some()
                && c.cache().peek(0, 12).is_some()
                && c.cache().peek(0, 13).is_some()
        });
        // Tokens are the device's pristine content.
        assert_eq!(ctrl.cache().peek(0, 11), Some(PageToken::pristine(0, 11)));
        assert_eq!(service.stats().completions, 3);
        // All SQ entries were recycled and no pins leaked.
        assert_eq!(ctrl.cache().total_pins(), 0);
        let free: u32 = ctrl.device_queues(0).iter().map(|q| q.free_slots()).sum();
        assert_eq!(free, 2 * 64);
    }

    #[test]
    fn service_clears_user_read_barriers() {
        let (ctrl, mut dev) = rig(1, 64);
        let service = AgileService::new(Arc::clone(&ctrl));
        let buf = AgileBuf::new();
        let (_, outcome) = ctrl.async_read(3, 0, 500, &buf, Cycles(0));
        assert_eq!(outcome, crate::ctrl::IssueOutcome::Issued);
        let b = buf.clone();
        drive_until(&mut dev, &service, move || b.is_ready());
        assert_eq!(buf.token(), PageToken::pristine(0, 500));
        // The Share Table entry is ready for other threads.
        let other = AgileBuf::new();
        let (_, o2) = ctrl.async_read(4, 0, 500, &other, Cycles(0));
        assert_eq!(o2, crate::ctrl::IssueOutcome::AlreadyAvailable);
    }

    #[test]
    fn service_recycles_sq_entries_under_pressure() {
        // SQ depth 4, one queue pair: issue 32 raw reads, which only works if
        // the service keeps freeing entries — the Figure 1 scenario resolved.
        let (ctrl, mut dev) = rig(1, 4);
        let service = AgileService::new(Arc::clone(&ctrl));
        let barriers: Vec<Barrier> = (0..32).map(|_| Barrier::new()).collect();
        let mut issued = 0usize;
        let mut now = Cycles(0);
        let mut rotation = 0usize;
        let mut guard = 0;
        while issued < 32 {
            guard += 1;
            assert!(guard < 100_000, "made no progress issuing under pressure");
            let (_, o) = ctrl.raw_read(
                0,
                0,
                1000 + issued as u64,
                DmaHandle::new(),
                barriers[issued].clone(),
                now,
            );
            if o == crate::ctrl::IssueOutcome::Issued {
                issued += 1;
            }
            now += Cycles(5_000);
            dev.advance_to(now);
            let _ = service.service_step(&mut rotation, 1, 0, now);
        }
        // Drain the rest.
        let done = barriers.clone();
        drive_until_from(&mut dev, &service, now, move || {
            done.iter().all(|b| b.is_complete())
        });
        assert_eq!(service.stats().completions, 32);
        assert!(
            ctrl.stats().sq_full_retries > 0,
            "pressure should have been observed"
        );
    }

    #[test]
    fn cq_windows_wrap_and_flip_phase() {
        // Depth 64 CQ: drive > 64 completions through one queue and make sure
        // polling keeps working across the wrap (phase flip).
        let (ctrl, mut dev) = rig(1, 64);
        let service = AgileService::new(Arc::clone(&ctrl));
        let barriers: Vec<Barrier> = (0..96).map(|_| Barrier::new()).collect();
        let mut now = Cycles(0);
        let mut rotation = 0usize;
        let mut issued = 0;
        let mut guard = 0;
        while issued < 96 {
            guard += 1;
            assert!(guard < 200_000);
            let (_, o) = ctrl.raw_read(
                0,
                0,
                issued as u64,
                DmaHandle::new(),
                barriers[issued].clone(),
                now,
            );
            if o == crate::ctrl::IssueOutcome::Issued {
                issued += 1;
            }
            now += Cycles(3_000);
            dev.advance_to(now);
            let _ = service.service_step(&mut rotation, 1, 0, now);
        }
        let done = barriers.clone();
        drive_until_from(&mut dev, &service, now, move || {
            done.iter().all(|b| b.is_complete())
        });
        assert_eq!(service.stats().completions, 96);
        assert!(
            service.stats().cq_doorbells >= 2,
            "at least two windows consumed"
        );
    }

    #[test]
    fn auto_service_warps_scale_with_the_cq_count() {
        // One warp per 8 CQs, clamped to [1, 32].
        assert_eq!(auto_service_warps(0), 1, "empty partitions keep one warp");
        assert_eq!(auto_service_warps(1), 1);
        assert_eq!(auto_service_warps(8), 1);
        assert_eq!(auto_service_warps(9), 2);
        assert_eq!(auto_service_warps(64), 8);
        assert_eq!(auto_service_warps(128), 16, "paper default: 128 QPs/SSD");
        assert_eq!(auto_service_warps(256), 32);
        assert_eq!(auto_service_warps(10_000), 32, "clamped to one block");
    }

    #[test]
    fn auto_service_warps_partition_math_composes_with_partition_targets() {
        // 8 devices × 4 QPs split across 4 shard-affine partitions: each
        // partition owns 8 CQs ⇒ 1 warp; the single-service fallback owns
        // all 32 ⇒ 4 warps.
        let topo = Arc::new(ShardedArray::new(8, 4));
        let parts = partition_targets(Some(&topo), &[4; 8], 4);
        for targets in &parts {
            assert_eq!(auto_service_warps(targets.len()), 1);
        }
        let single = partition_targets(Some(&topo), &[4; 8], 1);
        assert_eq!(auto_service_warps(single[0].len()), 4);
    }

    #[test]
    fn partition_targets_one_shard_is_the_historical_target_list() {
        // n = 1 must reproduce the single service's (dev asc, qp asc) sweep
        // exactly — this is the order the pre-scale-out AgileService polled.
        let parts = partition_targets(None, &[3, 3, 3], 1);
        assert_eq!(parts.len(), 1);
        let expected: Vec<(usize, usize)> =
            (0..3).flat_map(|d| (0..3).map(move |q| (d, q))).collect();
        assert_eq!(parts[0], expected);
    }

    #[test]
    fn partition_targets_follow_storage_shards() {
        let topo = Arc::new(ShardedArray::new(8, 4));
        let parts = partition_targets(Some(&topo), &[2; 8], 4);
        assert_eq!(parts.len(), 4);
        for (service, targets) in parts.iter().enumerate() {
            // Shard-affinity: every target's device maps to this service.
            assert!(!targets.is_empty());
            for &(dev, _) in targets {
                assert_eq!(topo.shard_of(dev) % 4, service);
            }
        }
        // Every CQ is owned exactly once.
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn partition_targets_fall_back_to_round_robin_on_one_shard() {
        // One storage shard, four services: shard-affinity would starve
        // three of them, so grouping falls back to device round-robin.
        let topo = Arc::new(ShardedArray::new(8, 1));
        let parts = partition_targets(Some(&topo), &[1; 8], 4);
        for (service, targets) in parts.iter().enumerate() {
            assert_eq!(targets.len(), 2, "service {service} must own work");
            for &(dev, _) in targets {
                assert_eq!(dev % 4, service);
            }
        }
    }

    #[test]
    fn service_set_partitions_cover_all_cqs_and_aggregate_stats() {
        let (ctrl, mut dev) = rig(4, 64);
        let set = ServiceSet::new(&ctrl, 2);
        assert_eq!(set.shard_count(), 2);
        let owned: usize = set.partitions().iter().map(|p| p.target_count()).sum();
        assert_eq!(owned, 4, "the partitions cover every CQ exactly once");
        // Drive completions through partition 0 only (the bare rig has one
        // device, so dev % 2 puts every CQ there) and check the aggregate.
        let (_, retry) = ctrl.prefetch_warp(0, &[(0, 5), (0, 6)], Cycles(0));
        assert!(retry.is_empty());
        let p0 = Arc::clone(&set.partitions()[0]);
        drive_until(&mut dev, &p0, {
            let c = Arc::clone(&ctrl);
            move || c.cache().peek(0, 5).is_some() && c.cache().peek(0, 6).is_some()
        });
        assert_eq!(set.stats().completions, 2);
        assert_eq!(set.partition_stats()[0].completions, 2);
        assert_eq!(set.partition_stats()[1].completions, 0);
    }

    #[test]
    fn service_kernel_factory_stops_on_request() {
        let (ctrl, _dev) = rig(1, 16);
        let service = AgileService::new(Arc::clone(&ctrl));
        let factory = AgileServiceKernel::new(Arc::clone(&service), 1, 2);
        let mut warp = factory.create_warp(0, 0);
        let ctx = WarpCtx {
            now: Cycles(0),
            warp: gpu_sim::WarpId {
                kernel: gpu_sim::KernelId(0),
                block: 0,
                warp: 0,
            },
            lanes: 32,
            clock_ghz: 2.5,
        };
        assert!(matches!(warp.step(&ctx), WarpStep::Busy(_)));
        ctrl.request_service_stop();
        assert!(matches!(warp.step(&ctx), WarpStep::Done));
        assert_eq!(factory.name(), "agile-service");
    }
}
