//! The BaM-style synchronous controller.
//!
//! `BamCtrl` exposes the synchronous access model: a warp asks for pages
//! through [`BamCtrl::read_warp_sync`]; misses are turned into NVMe commands
//! on the spot, and the warp must then drive [`BamCtrl::poll_once`] until its
//! data is resident — there is no background service, so user threads both
//! issue and complete every command. The cache and queue structures are the
//! same ones AGILE uses; what differs is who does the completion work and
//! what each call costs (the `bam_*` cost constants model BaM's lock-held
//! critical sections).

use agile_cache::{CacheConfig, CacheLookup, ClockPolicy, ShardedCache};
use agile_core::coalesce::coalesce_warp;
use agile_core::ctrl::CtrlMetrics;
use agile_core::qos::{QosDecision, QosPolicy};
use agile_core::sq_protocol::AgileSq;
use agile_core::transaction::{Barrier, Transaction};
use agile_metrics::MetricsRegistry;
use agile_sim::costs::CostModel;
use agile_sim::trace::{TraceEvent, TraceEventKind, TraceSink};
use agile_sim::Cycles;
use nvme_sim::{DmaHandle, Lba, NvmeCommand, Opcode, PageToken, QueuePair, ShardedArray};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// BaM system configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BamConfig {
    /// I/O queue pairs per SSD.
    pub queue_pairs_per_ssd: usize,
    /// Queue depth.
    pub queue_depth: u32,
    /// Software cache capacity in bytes (clock policy, fixed).
    pub cache_bytes: u64,
    /// Set-range shards of the software cache (≥ 1). Purely structural at
    /// the default `cache_port_hold` of 0 — any shard count replays
    /// bit-identically (same hash over the logical set space).
    pub cache_shards: usize,
    /// Modeled cycles one lookup holds its cache shard's access port
    /// ([`agile_cache::ShardedCache::port_acquire`]); 0 (default) disables
    /// the port model.
    pub cache_port_hold: u64,
    /// Shared cost model.
    pub costs: CostModel,
}

impl BamConfig {
    /// Match the paper's default evaluation setup (128 QPs × 256, 2 GiB cache).
    pub fn paper_default() -> Self {
        BamConfig {
            queue_pairs_per_ssd: 128,
            queue_depth: 256,
            cache_bytes: 2 * agile_sim::units::GIB,
            cache_shards: 1,
            cache_port_hold: 0,
            costs: CostModel::default(),
        }
    }

    /// A small test configuration.
    pub fn small_test() -> Self {
        BamConfig {
            queue_pairs_per_ssd: 4,
            queue_depth: 64,
            cache_bytes: 4 * agile_sim::units::MIB,
            cache_shards: 1,
            cache_port_hold: 0,
            costs: CostModel::default(),
        }
    }

    /// Override queue pair count.
    pub fn with_queue_pairs(mut self, qps: usize) -> Self {
        self.queue_pairs_per_ssd = qps;
        self
    }

    /// Override queue depth.
    pub fn with_queue_depth(mut self, depth: u32) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Override cache capacity.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Split the software cache into `shards` set-range shards (clamped to
    /// ≥ 1).
    pub fn with_cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards.max(1);
        self
    }

    /// Model cache-port contention: each lookup holds its shard's access
    /// port for `cycles` (0 disables the model).
    pub fn with_cache_port_hold(mut self, cycles: u64) -> Self {
        self.cache_port_hold = cycles;
        self
    }
}

/// Counters kept by the BaM controller.
///
/// Note: for cross-layer observability prefer the unified registry
/// (`HostBuilder::metrics` + `agile_metrics::MetricsRegistry::snapshot`),
/// which exports these under `agile_*` names with exporters and windowed
/// series; this struct stays for direct programmatic access.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BamStats {
    /// Synchronous warp reads.
    pub read_calls: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses that issued commands.
    pub cache_misses: u64,
    /// Requests coalesced onto in-flight fills.
    pub cache_coalesced: u64,
    /// CQ polling iterations executed by user threads.
    pub poll_iterations: u64,
    /// Completions processed by user threads.
    pub completions: u64,
    /// Times every targeted SQ was full.
    pub sq_full_retries: u64,
    /// Tenant submissions deferred by the QoS admission gate.
    pub qos_deferrals: u64,
    /// Cycles charged for cache work.
    pub cache_cycles: u64,
    /// Cycles charged for issue + polling work.
    pub io_cycles: u64,
}

#[derive(Default)]
struct StatCells {
    read_calls: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_coalesced: AtomicU64,
    poll_iterations: AtomicU64,
    completions: AtomicU64,
    sq_full_retries: AtomicU64,
    qos_deferrals: AtomicU64,
    cache_cycles: AtomicU64,
    io_cycles: AtomicU64,
}

struct CqCursor {
    window_start: u32,
    phase: bool,
}

/// The synchronous BaM controller.
pub struct BamCtrl {
    cfg: BamConfig,
    cache: ShardedCache,
    /// Per device, per queue pair.
    queues: Vec<Vec<Arc<AgileSq>>>,
    /// The storage topology behind the queues (striping map + modeled array
    /// lock). `None` in bare-queue unit rigs: submissions pay no lock cost.
    topology: Option<Arc<ShardedArray>>,
    cq_cursors: Vec<Vec<Mutex<CqCursor>>>,
    stats: StatCells,
    /// Optional trace recorder (same hook as the AGILE controller, so replay
    /// comparisons capture both systems identically).
    trace: OnceLock<Arc<dyn TraceSink>>,
    /// Optional QoS policy on the tenant-attributed submission path — the
    /// same hook as the AGILE controller, so AGILE-vs-BaM comparisons under a
    /// scheduler stay apples-to-apples. Absent ⇒ FIFO.
    qos: OnceLock<Arc<dyn QosPolicy>>,
    /// Optional submit-path instruments (`agile_submit_*`, shared naming
    /// with the AGILE controller so dashboards compare directly).
    metrics: OnceLock<CtrlMetrics>,
}

impl BamCtrl {
    /// Build the controller over the registered queue pairs with no attached
    /// topology (bare-queue unit rigs). Production construction goes through
    /// [`BamCtrl::with_topology`] (see [`crate::HostBuilder`]).
    pub fn new(cfg: BamConfig, device_queues: Vec<Vec<Arc<QueuePair>>>) -> Self {
        BamCtrl::build(cfg, device_queues, None)
    }

    /// Build a controller whose submissions are charged the topology's array
    /// lock and whose striped page space is resolvable through
    /// [`BamCtrl::resolve_page`].
    pub fn with_topology(
        cfg: BamConfig,
        device_queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Arc<ShardedArray>,
    ) -> Self {
        BamCtrl::build(cfg, device_queues, Some(topology))
    }

    fn build(
        cfg: BamConfig,
        device_queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Option<Arc<ShardedArray>>,
    ) -> Self {
        let cache = ShardedCache::new(
            CacheConfig::with_capacity(cfg.cache_bytes),
            cfg.cache_shards.max(1),
            cfg.cache_port_hold,
            || Box::new(ClockPolicy::new()),
        );
        let queues: Vec<Vec<Arc<AgileSq>>> = device_queues
            .into_iter()
            .map(|qps| {
                qps.into_iter()
                    .map(|qp| Arc::new(AgileSq::new(qp)))
                    .collect()
            })
            .collect();
        let cq_cursors = queues
            .iter()
            .map(|qs| {
                qs.iter()
                    .map(|_| {
                        Mutex::new(CqCursor {
                            window_start: 0,
                            phase: true,
                        })
                    })
                    .collect()
            })
            .collect();
        BamCtrl {
            cfg,
            cache,
            queues,
            topology,
            cq_cursors,
            stats: StatCells::default(),
            trace: OnceLock::new(),
            qos: OnceLock::new(),
            metrics: OnceLock::new(),
        }
    }

    /// Install submit-path instruments bound to `registry`. Returns `false`
    /// if instruments were already installed (the first binding wins).
    /// Mirrors [`agile_core::AgileCtrl::bind_metrics`].
    pub fn bind_metrics(&self, registry: &Arc<MetricsRegistry>) -> bool {
        self.metrics.set(CtrlMetrics::bind(registry)).is_ok()
    }

    /// Install a QoS policy on the tenant-attributed submission path (the
    /// `*_as` entry points), bound to the controller's total SQ-slot
    /// capacity. Returns `false` if one was already installed (the first one
    /// wins). Mirrors [`agile_core::AgileCtrl::set_qos_policy`].
    pub fn set_qos_policy(&self, policy: Arc<dyn QosPolicy>) -> bool {
        let total_slots: u64 = self
            .queues
            .iter()
            .flat_map(|qs| qs.iter())
            .map(|sq| sq.depth() as u64)
            .sum();
        policy.bind(total_slots);
        self.qos.set(policy).is_ok()
    }

    /// The installed QoS policy, if any.
    pub fn qos_policy(&self) -> Option<&Arc<dyn QosPolicy>> {
        self.qos.get()
    }

    /// Install a trace sink on the submit path, the user-thread completion
    /// path, and the software cache. Returns `false` if a sink was already
    /// installed (the first one wins).
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) -> bool {
        self.cache.set_trace_sink(Arc::clone(&sink));
        self.trace.set(sink).is_ok()
    }

    /// The installed trace sink, if any (shared with the control plane so
    /// its decisions land in the same capture).
    pub fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.trace.get()
    }

    /// The configuration.
    pub fn config(&self) -> &BamConfig {
        &self.cfg
    }

    /// The (clock-managed, possibly set-range-sharded) software cache.
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.queues.len()
    }

    /// The attached storage topology, if any.
    pub fn topology(&self) -> Option<&Arc<ShardedArray>> {
        self.topology.as_ref()
    }

    /// Resolve a page of the striped global page space to a concrete
    /// `(device, device-local LBA)` through the topology's striping layer.
    /// Panics when no topology is attached (bare-queue unit rigs).
    pub fn resolve_page(&self, global: u64) -> (u32, Lba) {
        let loc = self
            .topology
            .as_ref()
            .expect("resolve_page requires an attached topology")
            .map_page(global);
        (loc.device, loc.page)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> BamStats {
        let s = &self.stats;
        BamStats {
            read_calls: s.read_calls.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            cache_coalesced: s.cache_coalesced.load(Ordering::Relaxed),
            poll_iterations: s.poll_iterations.load(Ordering::Relaxed),
            completions: s.completions.load(Ordering::Relaxed),
            sq_full_retries: s.sq_full_retries.load(Ordering::Relaxed),
            qos_deferrals: s.qos_deferrals.load(Ordering::Relaxed),
            cache_cycles: s.cache_cycles.load(Ordering::Relaxed),
            io_cycles: s.io_cycles.load(Ordering::Relaxed),
        }
    }

    /// The queues of device `dev` (tests, deadlock demo).
    pub fn device_queues(&self, dev: usize) -> &[Arc<AgileSq>] {
        &self.queues[dev]
    }

    /// System-traffic issue path (cache fills and dirty-victim write-backs):
    /// bypasses the QoS gate for the same reason as
    /// [`agile_core::AgileCtrl::issue_to_device`] — deferring a write-back
    /// would force `abort_fill` and drop the dirty snapshot.
    fn issue(
        &self,
        dev: usize,
        warp: u64,
        build: impl Fn(u16) -> NvmeCommand,
        txn: Transaction,
        now: Cycles,
    ) -> (Cycles, bool) {
        self.issue_inner(dev, warp, warp as u32, build, txn, now)
    }

    /// Tenant-attributed issue path, arbitrated by the installed
    /// [`QosPolicy`] (when any). A deferral pays one probe and reports
    /// failure exactly like an SQ-full outcome; an admission that then finds
    /// every SQ full is refunded.
    fn issue_as(
        &self,
        dev: usize,
        warp: u64,
        tenant: u32,
        build: impl Fn(u16) -> NvmeCommand,
        txn: Transaction,
        now: Cycles,
    ) -> (Cycles, bool) {
        if let Some(qos) = self.qos.get() {
            let decision = agile_core::qos::gate_admission(
                qos.as_ref(),
                tenant,
                dev as u32,
                now,
                self.trace.get(),
            );
            if decision == QosDecision::Defer {
                let cost = Cycles(self.cfg.costs.gpu.poll_iteration);
                self.stats.qos_deferrals.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = self.metrics.get() {
                    m.qos_deferral(tenant);
                }
                self.stats
                    .io_cycles
                    .fetch_add(cost.raw(), Ordering::Relaxed);
                return (cost, false);
            }
            let (cost, ok) = self.issue_inner(dev, warp, tenant, build, txn, now);
            if !ok {
                qos.refund(tenant);
            }
            return (cost, ok);
        }
        self.issue_inner(dev, warp, tenant, build, txn, now)
    }

    fn issue_inner(
        &self,
        dev: usize,
        warp: u64,
        tenant: u32,
        build: impl Fn(u16) -> NvmeCommand,
        txn: Transaction,
        now: Cycles,
    ) -> (Cycles, bool) {
        let api = &self.cfg.costs.api;
        let gpu = &self.cfg.costs.gpu;
        let sqs = &self.queues[dev];
        let n = sqs.len();
        let start = (warp as usize) % n;
        let mut cost = Cycles(api.bam_issue);
        // The array lock guarding SQ-slot allocation + doorbell update (same
        // model as the AGILE controller, so topology comparisons are fair).
        if let Some(topology) = &self.topology {
            cost += topology.lock_acquire(dev, warp, now);
        }
        for attempt in 0..n {
            let sq = &sqs[(start + attempt) % n];
            match sq.try_issue(&build, txn.clone(), now) {
                Some(receipt) => {
                    if receipt.rang_doorbell {
                        cost += Cycles(gpu.doorbell_write);
                    }
                    cost +=
                        Cycles(gpu.poll_iteration) * (receipt.attempts.saturating_sub(1)) as u64;
                    self.stats
                        .io_cycles
                        .fetch_add(cost.raw(), Ordering::Relaxed);
                    if let Some(m) = self.metrics.get() {
                        m.admission();
                    }
                    if let Some(sink) = self.trace.get() {
                        let cmd = build(receipt.cid);
                        let qid = sq.queue_pair().id();
                        sink.record(
                            TraceEvent::new(TraceEventKind::Submit, now.raw())
                                .target(dev as u32, cmd.slba)
                                .queue(qid, receipt.cid)
                                .tenant(tenant)
                                .write(cmd.opcode == Opcode::Write),
                        );
                        if receipt.rang_doorbell {
                            sink.record(
                                TraceEvent::new(TraceEventKind::Doorbell, now.raw())
                                    .target(dev as u32, cmd.slba)
                                    .queue(qid, receipt.cid)
                                    .tenant(tenant),
                            );
                        }
                    }
                    return (cost, true);
                }
                None => cost += Cycles(gpu.poll_iteration),
            }
        }
        self.stats.sq_full_retries.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.sq_full_retry();
        }
        self.stats
            .io_cycles
            .fetch_add(cost.raw(), Ordering::Relaxed);
        (cost, false)
    }

    /// Synchronous warp read: on a full hit returns the tokens; otherwise
    /// issues the missing fills and reports `Pending` — the warp must then
    /// call [`BamCtrl::poll_once`] until the data lands and retry.
    /// Untenanted: cache accounting is skipped and trace events carry the
    /// `NO_TENANT` sentinel (`u32::MAX`); multi-tenant workloads use
    /// [`BamCtrl::read_warp_sync_as`].
    pub fn read_warp_sync(
        &self,
        warp: u64,
        requests: &[(u32, Lba)],
        now: Cycles,
    ) -> (Cycles, Option<Vec<PageToken>>) {
        self.read_warp_sync_as(warp, agile_cache::NO_TENANT, requests, now)
    }

    /// [`BamCtrl::read_warp_sync`] with an explicit tenant identity,
    /// mirroring [`agile_core::AgileCtrl::read_warp_as`]: cache accounting
    /// and line ownership are attributed to `tenant`; fills and dirty-victim
    /// write-backs stay QoS-exempt.
    pub fn read_warp_sync_as(
        &self,
        warp: u64,
        tenant: u32,
        requests: &[(u32, Lba)],
        now: Cycles,
    ) -> (Cycles, Option<Vec<PageToken>>) {
        self.stats.read_calls.fetch_add(1, Ordering::Relaxed);
        self.cache.set_time_hint(now.raw());
        let api = &self.cfg.costs.api;
        let gpu = &self.cfg.costs.gpu;
        let coalesced = coalesce_warp(requests);
        let mut cost = Cycles(gpu.warp_primitive);
        let mut tokens: Vec<Option<PageToken>> = vec![None; coalesced.unique.len()];
        let mut all_ready = true;

        for (uidx, &(dev, lba)) in coalesced.unique.iter().enumerate() {
            // Queueing on the line's cache-shard access port (0 when the
            // port model is off).
            cost += Cycles(self.cache.port_acquire(dev, lba, now.raw()));
            match self.cache.lookup_or_reserve_as(dev, lba, tenant) {
                CacheLookup::Hit { line, token } => {
                    cost += Cycles(api.bam_cache_hit);
                    self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    tokens[uidx] = Some(token);
                    self.cache.unpin(line);
                }
                CacheLookup::Busy { .. } => {
                    cost += Cycles(api.bam_cache_hit);
                    self.stats.cache_coalesced.fetch_add(1, Ordering::Relaxed);
                    all_ready = false;
                }
                CacheLookup::Miss {
                    line,
                    dma,
                    writeback,
                } => {
                    cost += Cycles(api.bam_cache_miss);
                    self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                    all_ready = false;
                    if let Some((wb_dev, wb_lba, wb_token)) = writeback {
                        let snapshot = DmaHandle::with_token(wb_token);
                        let (wb_cost, ok) = self.issue(
                            wb_dev as usize,
                            warp,
                            |cid| NvmeCommand::write(cid, wb_lba, snapshot.clone()),
                            Transaction::WriteBack,
                            now,
                        );
                        cost += wb_cost;
                        if !ok {
                            // The write-back snapshot is the only copy of
                            // the victim's modification: reinstate it.
                            self.cache.reinstate_victim(line, wb_dev, wb_lba, wb_token);
                            continue;
                        }
                    }
                    let (io_cost, ok) = self.issue(
                        dev as usize,
                        warp,
                        |cid| NvmeCommand::read(cid, lba, dma.clone()),
                        Transaction::CacheFill { line },
                        now,
                    );
                    cost += io_cost;
                    if !ok {
                        self.cache.abort_fill(line);
                    }
                }
                CacheLookup::NoLineAvailable => {
                    cost += Cycles(api.bam_cache_miss);
                    all_ready = false;
                }
            }
        }
        self.stats
            .cache_cycles
            .fetch_add(cost.raw(), Ordering::Relaxed);
        if all_ready {
            let per_lane = coalesced
                .lane_to_unique
                .iter()
                .map(|&u| tokens[u].expect("ready"))
                .collect();
            (cost, Some(per_lane))
        } else {
            (cost, None)
        }
    }

    /// One CQ polling pass executed by a *user* thread (there is no service in
    /// BaM). The thread polls the CQ paired with its home SQ and processes any
    /// completions it finds (releasing SQEs, finishing cache fills), then
    /// advances the shared cursor. Returns the cycles spent and the number of
    /// completions processed.
    ///
    /// Completion processing is recorded through the trace sink (when
    /// installed) with timestamp zero: BaM's user threads poll at whatever
    /// simulated time the caller happens to be at, so callers that need
    /// timed completion events should use [`BamCtrl::poll_once_at`].
    pub fn poll_once(&self, warp: u64, dev: usize) -> (Cycles, u32) {
        self.poll_once_at(warp, dev, Cycles(0))
    }

    /// [`BamCtrl::poll_once`] with an explicit sim time for trace records.
    /// Selects the CQ paired with the warp's home SQ (`warp mod queues`).
    pub fn poll_once_at(&self, warp: u64, dev: usize, now: Cycles) -> (Cycles, u32) {
        let qidx = (warp as usize) % self.queues[dev].len();
        self.poll_cq_at(warp, dev, qidx, now)
    }

    /// The shard-affine `(device, queue-pair)` partitioning the AGILE
    /// [`agile_core::service::ServiceSet`] polls, computed with the same
    /// rule ([`agile_core::service::partition_targets`]) over this
    /// controller's topology — so a BaM harness can sweep exactly the CQ
    /// set an AGILE service shard owns and scale-out comparisons stay
    /// apples-to-apples. BaM remains thread-centric: the caller drives
    /// [`BamCtrl::poll_cq_at`] over a partition itself; there is no
    /// background kernel.
    pub fn poll_targets(&self, shards: usize) -> Vec<Vec<(usize, usize)>> {
        let queues_per_device: Vec<usize> = self.queues.iter().map(|qs| qs.len()).collect();
        agile_core::service::partition_targets(self.topology.as_ref(), &queues_per_device, shards)
    }

    /// One CQ polling pass over a *specific* queue pair — the partitioned
    /// counterpart of [`BamCtrl::poll_once_at`], for callers iterating a
    /// [`BamCtrl::poll_targets`] partition. `warp` identifies the polling
    /// thread in trace capture only.
    pub fn poll_cq_at(&self, warp: u64, dev: usize, qidx: usize, now: Cycles) -> (Cycles, u32) {
        let api = &self.cfg.costs.api;
        let sq = &self.queues[dev][qidx];
        let cq = &sq.queue_pair().cq;
        let depth = cq.depth();
        let mut cursor = self.cq_cursors[dev][qidx].lock();
        self.stats.poll_iterations.fetch_add(1, Ordering::Relaxed);
        let mut processed = 0u32;
        // A synchronous thread scans forward from the cursor, consuming every
        // completion that has landed.
        loop {
            let idx = cursor.window_start % depth;
            let Some(cqe) = cq.poll_slot(idx, cursor.phase) else {
                break;
            };
            let txn = sq
                .transactions()
                .take(cqe.cid)
                .expect("completion without transaction");
            sq.release(cqe.cid);
            if let Some(sink) = self.trace.get() {
                sink.record(
                    TraceEvent::new(TraceEventKind::ServiceCompletion, now.raw())
                        .target(dev as u32, 0)
                        .queue(qidx as u16, cqe.cid)
                        .tenant(warp as u32),
                );
            }
            match txn {
                Transaction::CacheFill { line } => {
                    self.cache.complete_fill(line);
                    self.cache.unpin(line);
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
                    // Return the in-flight QoS credit to the scheduler.
                    if let Some(tenant) = qos_tenant {
                        if let Some(qos) = self.qos.get() {
                            qos.on_complete(tenant);
                        }
                    }
                }
            }
            cq.consume(1);
            processed += 1;
            cursor.window_start = (cursor.window_start + 1) % depth;
            if cursor.window_start == 0 {
                cursor.phase = !cursor.phase;
            }
        }
        self.stats
            .completions
            .fetch_add(processed as u64, Ordering::Relaxed);
        let cost = Cycles(api.bam_cq_poll) + Cycles(api.bam_cq_poll) * processed as u64;
        self.stats
            .io_cycles
            .fetch_add(cost.raw(), Ordering::Relaxed);
        (cost, processed)
    }

    /// Store one page through the software cache (write-allocate, marked
    /// dirty; the write-back happens on eviction), mirroring
    /// [`agile_core::AgileCtrl::write_warp`] at BaM's per-call costs.
    /// Returns the cost and whether the store landed (false = retry later).
    /// Untenanted: cache accounting is skipped and trace events carry the
    /// `NO_TENANT` sentinel (`u32::MAX`); multi-tenant workloads use
    /// [`BamCtrl::write_warp_sync_as`].
    pub fn write_warp_sync(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        token: PageToken,
        now: Cycles,
    ) -> (Cycles, bool) {
        self.write_warp_sync_as(warp, agile_cache::NO_TENANT, dev, lba, token, now)
    }

    /// [`BamCtrl::write_warp_sync`] with an explicit tenant identity (cache
    /// accounting and line ownership only).
    pub fn write_warp_sync_as(
        &self,
        warp: u64,
        tenant: u32,
        dev: u32,
        lba: Lba,
        token: PageToken,
        now: Cycles,
    ) -> (Cycles, bool) {
        self.cache.set_time_hint(now.raw());
        let api = &self.cfg.costs.api;
        let port = Cycles(self.cache.port_acquire(dev, lba, now.raw()));
        let (cost, ok) = match self.cache.lookup_or_reserve_as(dev, lba, tenant) {
            CacheLookup::Hit { line, .. } => {
                self.cache.store(line, token);
                self.cache.unpin(line);
                (Cycles(api.bam_cache_hit), true)
            }
            CacheLookup::Miss {
                line, writeback, ..
            } => {
                let mut cost = Cycles(api.bam_cache_miss);
                let mut ok = true;
                // The victim held dirty data: write it back before the line
                // is reused, or the modification is lost.
                if let Some((wb_dev, wb_lba, wb_token)) = writeback {
                    let snapshot = DmaHandle::with_token(wb_token);
                    let (wb_cost, issued) = self.issue(
                        wb_dev as usize,
                        warp,
                        |cid| NvmeCommand::write(cid, wb_lba, snapshot.clone()),
                        Transaction::WriteBack,
                        now,
                    );
                    cost += wb_cost;
                    ok = issued;
                }
                if ok {
                    self.cache.complete_fill(line);
                    self.cache.store(line, token);
                    self.cache.unpin(line);
                } else {
                    // Could not write the victim back: reinstate its dirty
                    // data (the snapshot is the only copy) and let the
                    // caller retry.
                    let (wb_dev, wb_lba, wb_token) =
                        writeback.expect("issue only fails on the write-back path here");
                    self.cache.reinstate_victim(line, wb_dev, wb_lba, wb_token);
                }
                (cost, ok)
            }
            CacheLookup::Busy { .. } | CacheLookup::NoLineAvailable => {
                (Cycles(api.bam_cache_miss), false)
            }
        };
        let cost = cost + port;
        self.stats
            .cache_cycles
            .fetch_add(cost.raw(), Ordering::Relaxed);
        (cost, ok)
    }

    /// Issue a raw (cache-bypassing) read; the caller polls until `barrier`
    /// completes. Used by micro-benchmarks comparing raw sync I/O. The warp's
    /// flat index doubles as the tenant id for QoS arbitration; multi-tenant
    /// workloads use [`BamCtrl::raw_read_as`].
    pub fn raw_read(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        dma: DmaHandle,
        barrier: Barrier,
        now: Cycles,
    ) -> (Cycles, bool) {
        self.raw_read_as(warp, warp as u32, dev, lba, dma, barrier, now)
    }

    /// [`BamCtrl::raw_read`] with an explicit tenant identity, arbitrated by
    /// the installed QoS policy and stamped with `tenant` in trace capture.
    #[allow(clippy::too_many_arguments)]
    pub fn raw_read_as(
        &self,
        warp: u64,
        tenant: u32,
        dev: u32,
        lba: Lba,
        dma: DmaHandle,
        barrier: Barrier,
        now: Cycles,
    ) -> (Cycles, bool) {
        let qos_tenant = self.qos.get().map(|_| tenant);
        self.issue_as(
            dev as usize,
            warp,
            tenant,
            |cid| NvmeCommand::read(cid, lba, dma.clone()),
            Transaction::Raw {
                barrier,
                lba,
                qos_tenant,
            },
            now,
        )
    }

    /// Issue a raw (cache-bypassing) write of `token`; the caller polls until
    /// `barrier` completes. Mirrors [`agile_core::AgileCtrl::raw_write`] so
    /// trace replay drives both systems with the same op stream. The warp's
    /// flat index doubles as the tenant id for QoS arbitration; multi-tenant
    /// workloads use [`BamCtrl::raw_write_as`].
    pub fn raw_write(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        token: PageToken,
        barrier: Barrier,
        now: Cycles,
    ) -> (Cycles, bool) {
        self.raw_write_as(warp, warp as u32, dev, lba, token, barrier, now)
    }

    /// [`BamCtrl::raw_write`] with an explicit tenant identity, arbitrated by
    /// the installed QoS policy and stamped with `tenant` in trace capture.
    #[allow(clippy::too_many_arguments)]
    pub fn raw_write_as(
        &self,
        warp: u64,
        tenant: u32,
        dev: u32,
        lba: Lba,
        token: PageToken,
        barrier: Barrier,
        now: Cycles,
    ) -> (Cycles, bool) {
        let dma = DmaHandle::with_token(token);
        let qos_tenant = self.qos.get().map(|_| tenant);
        self.issue_as(
            dev as usize,
            warp,
            tenant,
            |cid| NvmeCommand::write(cid, lba, dma.clone()),
            Transaction::Raw {
                barrier,
                lba,
                qos_tenant,
            },
            now,
        )
    }
}

impl agile_core::telemetry::CacheStatsProvider for BamCtrl {
    fn cache_stats(&self) -> agile_cache::CacheStats {
        self.cache().stats()
    }
    fn cache_tenant_stats(&self) -> Vec<agile_cache::TenantCacheStats> {
        self.cache().tenant_stats()
    }
    fn cache_shard_stats(&self) -> Vec<agile_cache::CacheStats> {
        self.cache().stats_by_shard()
    }
    fn cache_port_wait_by_shard(&self) -> Vec<u64> {
        self.cache().port_wait_by_shard()
    }
    fn cache_port_acquires_by_shard(&self) -> Vec<u64> {
        self.cache().port_acquires_by_shard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvme_sim::{MemBacking, SsdConfig, SsdDevice};

    fn rig(qps: usize, depth: u32) -> (BamCtrl, SsdDevice) {
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
        let ctrl = BamCtrl::new(
            BamConfig::small_test()
                .with_queue_pairs(qps)
                .with_queue_depth(depth),
            vec![queues],
        );
        (ctrl, dev)
    }

    #[test]
    fn sync_read_miss_then_poll_then_hit() {
        let (ctrl, mut dev) = rig(2, 64);
        let reqs = vec![(0u32, 5u64), (0, 6)];
        let (_, ready) = ctrl.read_warp_sync(0, &reqs, Cycles(0));
        assert!(ready.is_none(), "first access must miss");
        // The user thread itself drives the completion path.
        let mut now = Cycles(0);
        let mut done = false;
        for _ in 0..10_000 {
            now += Cycles(2_000);
            dev.advance_to(now);
            let _ = ctrl.poll_once(0, 0);
            let (_, ready) = ctrl.read_warp_sync(0, &reqs, now);
            if let Some(tokens) = ready {
                assert_eq!(tokens.len(), 2);
                assert_eq!(tokens[0], PageToken::pristine(0, 5));
                done = true;
                break;
            }
        }
        assert!(done, "data never arrived");
        let s = ctrl.stats();
        assert_eq!(s.cache_misses, 2);
        assert!(s.poll_iterations > 0);
        assert_eq!(s.completions, 2);
        assert_eq!(ctrl.cache().total_pins(), 0);
    }

    #[test]
    fn bam_costs_exceed_agile_costs_per_call() {
        // The per-call constants that drive Figure 11's API-overhead gap.
        let costs = CostModel::default();
        assert!(costs.api.bam_cache_hit > costs.api.agile_cache_hit);
        assert!(costs.api.bam_issue > costs.api.agile_issue);
    }

    #[test]
    fn poll_once_round_robins_by_warp_index() {
        let (ctrl, _dev) = rig(4, 64);
        // Different warps map to different queue pairs.
        let (c0, _) = ctrl.poll_once(0, 0);
        let (c1, _) = ctrl.poll_once(1, 0);
        assert_eq!(c0, c1, "empty polls cost the same regardless of queue");
        assert_eq!(ctrl.stats().poll_iterations, 2);
    }

    #[test]
    fn raw_read_completes_via_user_polling() {
        let (ctrl, mut dev) = rig(1, 32);
        let barrier = Barrier::new();
        let dma = DmaHandle::new();
        let (_, ok) = ctrl.raw_read(0, 0, 77, dma.clone(), barrier.clone(), Cycles(0));
        assert!(ok);
        let mut now = Cycles(0);
        while !barrier.is_complete() {
            now += Cycles(2_000);
            dev.advance_to(now);
            let _ = ctrl.poll_once(0, 0);
            assert!(now.raw() < 10_000_000, "raw read never completed");
        }
        assert_eq!(dma.load(), PageToken::pristine(0, 77));
    }
}
