//! The AGILE controller: the device-side API surface (§3.5).
//!
//! `AgileCtrl` is what warp kernels hold an `Arc` to — the analogue of the
//! `AGILE_CTRL *ctrl` pointer in Listing 1. It provides the paper's three
//! access methods:
//!
//! 1. **`prefetch`** ([`AgileCtrl::prefetch_warp`]) — asynchronously pull SSD
//!    pages into the software cache; the caller continues immediately and
//!    later reads the data through the cache.
//! 2. **`async_issue`** ([`AgileCtrl::async_read`] / [`AgileCtrl::async_write`])
//!    — asynchronous transfers between SSDs and user-registered buffers
//!    ([`crate::transaction::AgileBuf`]), returning a barrier the caller polls.
//! 3. **Array-like synchronous access** ([`AgileCtrl::read_warp`]) — the
//!    `ctrl->getArrayWrap<T>()[dev][idx]` view: a blocking-by-retry read that
//!    transparently checks the cache and issues fills on misses.
//!
//! Every method is **non-blocking**: it returns a cycle cost (charged to the
//! calling warp as busy time) plus an outcome that may ask the caller to
//! retry later. No method ever holds a lock across a wait, which is the heart
//! of the paper's deadlock-freedom argument.
//!
//! All NVMe I/O — fills, write-backs, user reads/writes and the raw-bandwidth
//! path — funnels through [`AgileCtrl::issue_to_device`], which implements the
//! "pick an SQ by thread index, move to the next SQ when full" placement of
//! §3.3.1 on top of [`crate::sq_protocol::AgileSq`].

use crate::coalesce::coalesce_warp;
use crate::config::{AgileConfig, CachePolicyKind};
use crate::lockchain::LockRegistry;
use crate::qos::{QosDecision, QosPolicy};
use crate::sq_protocol::AgileSq;
use crate::transaction::{AgileBuf, Barrier, Transaction};
use agile_cache::{
    CacheLookup, CachePolicy, ClockPolicy, FifoPolicy, LruPolicy, RandomPolicy, ShardedCache,
    ShareTable, TenantShare,
};
use agile_metrics::{Counter, CounterFamily, LabelDim, Labels, MetricsRegistry};
use agile_sim::trace::{TraceEvent, TraceEventKind, TraceSink};
use agile_sim::Cycles;
use nvme_sim::{DmaHandle, Lba, NvmeCommand, Opcode, PageToken, QueuePair, ShardedArray};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Outcome of an asynchronous issue (`asyncRead` / `asyncWrite` / raw I/O).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueOutcome {
    /// The command was handed to an SQ; completion will be signalled through
    /// the associated barrier.
    Issued,
    /// The data was already available (cache or Share Table); the barrier has
    /// already been completed and no NVMe command was needed.
    AlreadyAvailable,
    /// No SQ entry (or no shareable resource) was available; retry later.
    Retry,
}

/// Outcome of an array-like synchronous warp read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Every lane's datum was resident: per-lane tokens, in request order.
    Ready(Vec<PageToken>),
    /// At least one lane missed; fills were issued where possible. Retry the
    /// same call later (hits become cheap, the misses will have landed).
    Pending,
}

/// Per-category API statistics (used by tests and the Figure 11 breakdown).
///
/// Note: for cross-layer observability prefer the unified registry
/// (`agile_submit_*` and friends via `HostBuilder::metrics`); this struct
/// stays for direct programmatic access.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ApiStats {
    /// prefetch_warp invocations.
    pub prefetch_calls: u64,
    /// read_warp invocations.
    pub read_calls: u64,
    /// asyncRead/asyncWrite invocations.
    pub async_calls: u64,
    /// Raw (cache-bypassing) reads/writes issued.
    pub raw_calls: u64,
    /// Cache hits observed by API calls.
    pub cache_hits: u64,
    /// Cache misses that issued a fill.
    pub cache_misses: u64,
    /// Requests eliminated by warp-level coalescing.
    pub warp_coalesced: u64,
    /// Requests coalesced onto an in-flight fill (BUSY hit).
    pub cache_coalesced: u64,
    /// Times every targeted SQ was full and the caller had to retry.
    pub sq_full_retries: u64,
    /// Tenant submissions deferred by the QoS admission gate.
    pub qos_deferrals: u64,
    /// Write-backs of dirty evicted lines.
    pub writebacks: u64,
    /// Cycles charged for cache-management work.
    pub cache_cycles: u64,
    /// Cycles charged for NVMe issue / barrier work.
    pub io_cycles: u64,
}

#[derive(Default)]
struct ApiStatCells {
    prefetch_calls: AtomicU64,
    read_calls: AtomicU64,
    async_calls: AtomicU64,
    raw_calls: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    warp_coalesced: AtomicU64,
    cache_coalesced: AtomicU64,
    sq_full_retries: AtomicU64,
    qos_deferrals: AtomicU64,
    writebacks: AtomicU64,
    cache_cycles: AtomicU64,
    io_cycles: AtomicU64,
}

/// Submit-path instruments (the `agile_submit_*` metric family), installed
/// once via [`AgileCtrl::bind_metrics`]. When absent every hook costs one
/// atomic load (the `OnceLock` probe), preserving the uninstrumented path.
pub struct CtrlMetrics {
    admissions: Counter,
    sq_full_retries: Counter,
    qos_deferrals: CounterFamily,
}

impl CtrlMetrics {
    /// Register (or reuse) the submit-path instruments in `registry`.
    pub fn bind(registry: &Arc<MetricsRegistry>) -> Self {
        CtrlMetrics {
            admissions: registry.counter("agile_submit_admissions_total", Labels::NONE),
            sq_full_retries: registry.counter("agile_submit_sq_full_retries_total", Labels::NONE),
            qos_deferrals: registry
                .counter_family("agile_submit_qos_deferrals_total", LabelDim::Tenant),
        }
    }

    /// Count one successful SQ admission.
    #[inline]
    pub fn admission(&self) {
        self.admissions.inc();
    }

    /// Count one every-SQ-full retry.
    #[inline]
    pub fn sq_full_retry(&self) {
        self.sq_full_retries.inc();
    }

    /// Count one QoS deferral charged to `tenant`.
    #[inline]
    pub fn qos_deferral(&self, tenant: u32) {
        self.qos_deferrals.inc(tenant);
    }
}

/// The queues of one SSD.
pub struct DeviceQueues {
    /// AGILE-managed submission queues (one per I/O queue pair).
    pub sqs: Vec<Arc<AgileSq>>,
}

/// The AGILE controller shared by user kernels and the service kernel.
pub struct AgileCtrl {
    cfg: AgileConfig,
    cache: ShardedCache,
    share_table: Option<ShareTable>,
    devices: Vec<DeviceQueues>,
    /// The storage topology behind the queues: striping map plus the modeled
    /// array lock charged on every submission. `None` in bare-queue unit
    /// rigs, in which case submissions pay no lock cost.
    topology: Option<Arc<ShardedArray>>,
    lock_registry: Option<LockRegistry>,
    stop_service: AtomicBool,
    stats: ApiStatCells,
    /// Optional trace recorder for the submit/doorbell/completion paths.
    trace: OnceLock<Arc<dyn TraceSink>>,
    /// Optional QoS policy arbitrating tenant-attributed SQ admission.
    /// Absent ⇒ FIFO (pre-QoS behaviour, bit-for-bit).
    qos: OnceLock<Arc<dyn QosPolicy>>,
    /// Optional submit-path instruments (`agile_submit_*`).
    metrics: OnceLock<CtrlMetrics>,
    /// Live cached-path prefetch depth in batches of lookahead (1 = the
    /// historical one-batch pipeline). Warps read it per batch, the control
    /// plane retunes it online; one relaxed load on the consumer side.
    prefetch_depth: Arc<AtomicU32>,
    /// Live idle backoff of the AGILE service sweeps in cycles. Partitions
    /// clone the `Arc` at construction and read it per idle round, so an
    /// online exponential-backoff controller reaches every partition.
    idle_backoff: Arc<AtomicU64>,
}

fn build_policy(cfg: &AgileConfig) -> Box<dyn CachePolicy> {
    match cfg.cache_policy {
        CachePolicyKind::Clock => Box::new(ClockPolicy::new()),
        CachePolicyKind::Lru => Box::new(LruPolicy::new()),
        CachePolicyKind::Fifo => Box::new(FifoPolicy::new()),
        CachePolicyKind::Random => Box::new(RandomPolicy::new(0x5EED)),
        CachePolicyKind::TenantShare => Box::new(TenantShare::from_weights(&cfg.cache_shares)),
    }
}

impl AgileCtrl {
    /// Build a controller over the queue pairs of each device (outer index =
    /// device id, inner = queue pair) with no attached topology — bare-queue
    /// unit rigs. Production construction goes through
    /// [`AgileCtrl::with_topology`] (see `bam_baseline::HostBuilder`).
    pub fn new(cfg: AgileConfig, device_queues: Vec<Vec<Arc<QueuePair>>>) -> Self {
        AgileCtrl::build(cfg, device_queues, None)
    }

    /// Build a controller whose submissions are charged the topology's array
    /// lock and whose striped page space is resolvable through
    /// [`AgileCtrl::resolve_page`]. Normally constructed by
    /// [`crate::host::AgileHost::build`].
    pub fn with_topology(
        cfg: AgileConfig,
        device_queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Arc<ShardedArray>,
    ) -> Self {
        AgileCtrl::build(cfg, device_queues, Some(topology))
    }

    fn build(
        cfg: AgileConfig,
        device_queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Option<Arc<ShardedArray>>,
    ) -> Self {
        let cache = ShardedCache::new(
            cfg.cache.clone(),
            cfg.cache_shards.max(1),
            cfg.cache_port_hold,
            || build_policy(&cfg),
        );
        let share_table = cfg
            .share_table_enabled
            .then(|| ShareTable::with_capacity(cfg.share_table_capacity));
        let lock_registry = cfg.debug_lock_chain.then(LockRegistry::new);
        let devices = device_queues
            .into_iter()
            .map(|qps| DeviceQueues {
                sqs: qps
                    .into_iter()
                    .map(|qp| Arc::new(AgileSq::new(qp)))
                    .collect(),
            })
            .collect();
        let idle_backoff = cfg.costs.api.agile_service_idle_backoff.max(1);
        AgileCtrl {
            cfg,
            cache,
            share_table,
            devices,
            topology,
            lock_registry,
            stop_service: AtomicBool::new(false),
            stats: ApiStatCells::default(),
            trace: OnceLock::new(),
            qos: OnceLock::new(),
            metrics: OnceLock::new(),
            prefetch_depth: Arc::new(AtomicU32::new(1)),
            idle_backoff: Arc::new(AtomicU64::new(idle_backoff)),
        }
    }

    /// Install submit-path instruments bound to `registry`. Returns `false`
    /// if instruments were already installed (the first binding wins).
    pub fn bind_metrics(&self, registry: &Arc<MetricsRegistry>) -> bool {
        self.metrics.set(CtrlMetrics::bind(registry)).is_ok()
    }

    /// Install a QoS policy on the tenant-attributed submission path (the
    /// `*_as` entry points). The policy is bound to the controller's total
    /// SQ-slot capacity so occupancy-tracking schedulers can size their
    /// shares. Returns `false` if one was already installed (the first one
    /// wins). Without a policy — or with [`crate::qos::Fifo`] — admission
    /// behaves exactly as before this subsystem existed.
    pub fn set_qos_policy(&self, policy: Arc<dyn QosPolicy>) -> bool {
        let total_slots: u64 = self
            .devices
            .iter()
            .flat_map(|d| d.sqs.iter())
            .map(|sq| sq.depth() as u64)
            .sum();
        policy.bind(total_slots);
        self.qos.set(policy).is_ok()
    }

    /// The installed QoS policy, if any.
    pub fn qos_policy(&self) -> Option<&Arc<dyn QosPolicy>> {
        self.qos.get()
    }

    /// Install a trace sink on the controller's submit/doorbell path and the
    /// software cache's lookup path. Returns `false` if a sink was already
    /// installed (the first one wins). When no sink is installed the hooks
    /// cost a single atomic load.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) -> bool {
        self.cache.set_trace_sink(Arc::clone(&sink));
        self.trace.set(sink).is_ok()
    }

    /// The installed trace sink, if any (used by the AGILE service to record
    /// the completions it processes).
    pub fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.trace.get()
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &AgileConfig {
        &self.cfg
    }

    /// The software cache (exposed for preloading and statistics). One
    /// logical cache split across `cache_shards` set ranges; `cache_shards=1`
    /// is the historical single cache, bit-for-bit.
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// Current cached-path prefetch depth in batches of lookahead. Warps
    /// load this at every batch boundary, so online updates take effect on
    /// the very next batch a warp issues.
    pub fn prefetch_depth(&self) -> u32 {
        self.prefetch_depth.load(Ordering::Relaxed)
    }

    /// Set the cached-path prefetch depth (0 disables prefetching).
    pub fn set_prefetch_depth(&self, depth: u32) {
        self.prefetch_depth.store(depth, Ordering::Relaxed);
    }

    /// The shared prefetch-depth cell, for the control plane to actuate
    /// without holding a controller reference.
    pub fn prefetch_depth_cell(&self) -> Arc<AtomicU32> {
        Arc::clone(&self.prefetch_depth)
    }

    /// The shared idle-backoff cell read by every service partition at each
    /// idle round. Seeded from `agile_service_idle_backoff`; the control
    /// plane may scale it online (exponential backoff under idleness).
    pub fn idle_backoff_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.idle_backoff)
    }

    /// The Share Table, when enabled.
    pub fn share_table(&self) -> Option<&ShareTable> {
        self.share_table.as_ref()
    }

    /// The lock registry of the deadlock-debug option, when enabled.
    pub fn lock_registry(&self) -> Option<&LockRegistry> {
        self.lock_registry.as_ref()
    }

    /// Number of SSDs.
    pub fn device_count(&self) -> usize {
        self.devices.len()
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

    /// The AGILE-managed SQs of device `dev`.
    pub fn device_queues(&self, dev: usize) -> &[Arc<AgileSq>] {
        &self.devices[dev].sqs
    }

    /// Snapshot of the API statistics.
    pub fn stats(&self) -> ApiStats {
        let s = &self.stats;
        ApiStats {
            prefetch_calls: s.prefetch_calls.load(Ordering::Relaxed),
            read_calls: s.read_calls.load(Ordering::Relaxed),
            async_calls: s.async_calls.load(Ordering::Relaxed),
            raw_calls: s.raw_calls.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            warp_coalesced: s.warp_coalesced.load(Ordering::Relaxed),
            cache_coalesced: s.cache_coalesced.load(Ordering::Relaxed),
            sq_full_retries: s.sq_full_retries.load(Ordering::Relaxed),
            qos_deferrals: s.qos_deferrals.load(Ordering::Relaxed),
            writebacks: s.writebacks.load(Ordering::Relaxed),
            cache_cycles: s.cache_cycles.load(Ordering::Relaxed),
            io_cycles: s.io_cycles.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // NVMe issue plumbing
    // ------------------------------------------------------------------

    /// Issue `cmd` to device `dev`, starting from the SQ selected by the
    /// calling thread's index and falling over to the next SQ when one is
    /// full (§3.3.1). Returns the extra cycles spent and whether it succeeded.
    ///
    /// This entry point **bypasses the QoS admission gate**: it carries no
    /// tenant identity and is what the cache-internal paths (fills,
    /// dirty-victim write-backs) use — deferring a write-back would force
    /// `abort_fill` and drop the dirty snapshot, so system traffic must never
    /// wait behind tenant arbitration. Tenant-attributed submissions go
    /// through [`AgileCtrl::issue_to_device_as`].
    pub fn issue_to_device(
        &self,
        dev: usize,
        warp: u64,
        build: impl Fn(u16) -> NvmeCommand,
        txn: Transaction,
        now: Cycles,
    ) -> (Cycles, bool) {
        self.issue_inner(dev, warp, warp as u32, build, txn, now)
    }

    /// [`AgileCtrl::issue_to_device`] with an explicit tenant identity,
    /// arbitrated by the installed [`QosPolicy`] (when any): the policy is
    /// consulted **before** the SQ-slot claim; a deferred submission pays one
    /// probe and reports failure exactly like an SQ-full outcome, so callers
    /// retry through their existing back-off paths. An admission that then
    /// finds every SQ full is refunded to the policy.
    pub fn issue_to_device_as(
        &self,
        dev: usize,
        warp: u64,
        tenant: u32,
        build: impl Fn(u16) -> NvmeCommand,
        txn: Transaction,
        now: Cycles,
    ) -> (Cycles, bool) {
        if let Some(qos) = self.qos.get() {
            let decision =
                crate::qos::gate_admission(qos.as_ref(), tenant, dev as u32, now, self.trace.get());
            if decision == QosDecision::Defer {
                let cost = Cycles(self.cfg.costs.gpu.poll_iteration);
                self.stats.qos_deferrals.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = self.metrics.get() {
                    m.qos_deferrals.inc(tenant);
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
        let sqs = &self.devices[dev].sqs;
        let n = sqs.len();
        let start = (warp as usize) % n;
        let mut cost = Cycles(api.agile_issue);
        // The array lock guarding SQ-slot allocation + doorbell update: FIFO
        // wait behind earlier holders on this device's shard, then the hold.
        if let Some(topology) = &self.topology {
            cost += topology.lock_acquire(dev, warp, now);
        }
        for attempt in 0..n {
            let sq = &sqs[(start + attempt) % n];
            // `Transaction` is cheap to clone (an Arc flag and small ids);
            // the clone handed to a full queue is simply dropped.
            match sq.try_issue(&build, txn.clone(), now) {
                Some(receipt) => {
                    if receipt.rang_doorbell {
                        cost += Cycles(gpu.doorbell_write);
                    }
                    // Extra serialization attempts burn polling cycles.
                    cost +=
                        Cycles(gpu.poll_iteration) * (receipt.attempts.saturating_sub(1)) as u64;
                    self.stats
                        .io_cycles
                        .fetch_add(cost.raw(), Ordering::Relaxed);
                    if let Some(m) = self.metrics.get() {
                        m.admissions.inc();
                    }
                    if let Some(sink) = self.trace.get() {
                        // Rebuild the command for its lba/opcode; `build` is a
                        // cheap constructor and this path only runs when
                        // tracing is enabled.
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
                None => {
                    // This SQ is full: pay a probe and move to the next one
                    // ("simply increasing the index of the target SQ").
                    cost += Cycles(gpu.poll_iteration);
                }
            }
        }
        self.stats.sq_full_retries.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.sq_full_retries.inc();
        }
        self.stats
            .io_cycles
            .fetch_add(cost.raw(), Ordering::Relaxed);
        (cost, false)
    }

    // ------------------------------------------------------------------
    // Method 1: prefetch
    // ------------------------------------------------------------------

    /// Asynchronously prefetch the given `(device, LBA)` pages into the
    /// software cache on behalf of one warp.
    ///
    /// Returns the cycle cost of the call and the subset of requests that
    /// could not even be *started* (no cache line available or every SQ
    /// full); the caller retries those later. Requests that hit, are already
    /// in flight, or were issued successfully need no further action — the
    /// data will be readable through [`AgileCtrl::read_warp`] once the AGILE
    /// service processes the completions.
    ///
    /// Untenanted: cache accounting is skipped and trace events carry the
    /// `NO_TENANT` sentinel (`u32::MAX`); multi-tenant workloads use
    /// [`AgileCtrl::prefetch_warp_as`].
    pub fn prefetch_warp(
        &self,
        warp: u64,
        requests: &[(u32, Lba)],
        now: Cycles,
    ) -> (Cycles, Vec<(u32, Lba)>) {
        self.prefetch_warp_as(warp, agile_cache::NO_TENANT, requests, now)
    }

    /// [`AgileCtrl::prefetch_warp`] with an explicit tenant identity: cache
    /// hits/misses are attributed to `tenant`, filled lines become owned by
    /// it (the per-way view a tenant-aware eviction policy bounds), and
    /// cache trace events carry it. **Accounting only** — the fills and any
    /// dirty-victim write-backs still issue through the QoS-exempt
    /// [`AgileCtrl::issue_to_device`] path: system ops never wait behind
    /// tenant arbitration.
    pub fn prefetch_warp_as(
        &self,
        warp: u64,
        tenant: u32,
        requests: &[(u32, Lba)],
        now: Cycles,
    ) -> (Cycles, Vec<(u32, Lba)>) {
        self.stats.prefetch_calls.fetch_add(1, Ordering::Relaxed);
        self.cache.set_time_hint(now.raw());
        let api = &self.cfg.costs.api;
        let gpu = &self.cfg.costs.gpu;
        let coalesced = coalesce_warp(requests);
        self.stats
            .warp_coalesced
            .fetch_add(coalesced.eliminated as u64, Ordering::Relaxed);
        let mut cost = Cycles(gpu.warp_primitive);
        let mut retry = Vec::new();

        for &(dev, lba) in &coalesced.unique {
            // The shard's access port: FIFO queue wait + hold, exactly like
            // the submit path's array lock. Free when unmodeled (hold 0).
            cost += Cycles(self.cache.port_acquire(dev, lba, now.raw()));
            match self.cache.lookup_or_reserve_as(dev, lba, tenant) {
                CacheLookup::Hit { line, .. } => {
                    cost += Cycles(api.agile_cache_hit);
                    self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    self.cache.unpin(line);
                }
                CacheLookup::Busy { .. } => {
                    cost += Cycles(api.agile_cache_hit);
                    self.stats.cache_coalesced.fetch_add(1, Ordering::Relaxed);
                }
                CacheLookup::Miss {
                    line,
                    dma,
                    writeback,
                } => {
                    cost += Cycles(api.agile_cache_miss);
                    self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                    // Dirty victim: write it back first (from a snapshot, so
                    // there is no hazard against the incoming fill).
                    if let Some((wb_dev, wb_lba, wb_token)) = writeback {
                        self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                        let snapshot = DmaHandle::with_token(wb_token);
                        let (wb_cost, ok) = self.issue_to_device(
                            wb_dev as usize,
                            warp,
                            |cid| NvmeCommand::write(cid, wb_lba, snapshot.clone()),
                            Transaction::WriteBack,
                            now,
                        );
                        cost += wb_cost;
                        if !ok {
                            // Could not even write back: put the victim's
                            // dirty data back in the line (the snapshot is
                            // its only copy) and retry the prefetch later.
                            self.cache.reinstate_victim(line, wb_dev, wb_lba, wb_token);
                            retry.push((dev, lba));
                            continue;
                        }
                    }
                    let (io_cost, ok) = self.issue_to_device(
                        dev as usize,
                        warp,
                        |cid| NvmeCommand::read(cid, lba, dma.clone()),
                        Transaction::CacheFill { line },
                        now,
                    );
                    cost += io_cost;
                    if !ok {
                        self.cache.abort_fill(line);
                        retry.push((dev, lba));
                    }
                }
                CacheLookup::NoLineAvailable => {
                    cost += Cycles(api.agile_cache_miss);
                    retry.push((dev, lba));
                }
            }
        }
        self.stats
            .cache_cycles
            .fetch_add(cost.raw(), Ordering::Relaxed);
        (cost, retry)
    }

    // ------------------------------------------------------------------
    // Method 3: array-like synchronous access
    // ------------------------------------------------------------------

    /// Array-like synchronous read for one warp: returns the tokens for all
    /// lanes if everything is resident, otherwise issues the missing fills
    /// and asks the caller to retry. Untenanted: cache accounting is
    /// skipped and trace events carry the `NO_TENANT` sentinel (`u32::MAX`);
    /// multi-tenant workloads use [`AgileCtrl::read_warp_as`].
    pub fn read_warp(
        &self,
        warp: u64,
        requests: &[(u32, Lba)],
        now: Cycles,
    ) -> (Cycles, ReadOutcome) {
        self.read_warp_as(warp, agile_cache::NO_TENANT, requests, now)
    }

    /// [`AgileCtrl::read_warp`] with an explicit tenant identity, mirroring
    /// [`AgileCtrl::raw_read_as`]: cache accounting and line ownership are
    /// attributed to `tenant`; the fill/write-back I/O stays QoS-exempt.
    pub fn read_warp_as(
        &self,
        warp: u64,
        tenant: u32,
        requests: &[(u32, Lba)],
        now: Cycles,
    ) -> (Cycles, ReadOutcome) {
        self.stats.read_calls.fetch_add(1, Ordering::Relaxed);
        self.cache.set_time_hint(now.raw());
        let api = &self.cfg.costs.api;
        let gpu = &self.cfg.costs.gpu;
        let coalesced = coalesce_warp(requests);
        self.stats
            .warp_coalesced
            .fetch_add(coalesced.eliminated as u64, Ordering::Relaxed);
        let mut cost = Cycles(gpu.warp_primitive);
        let mut tokens: Vec<Option<PageToken>> = vec![None; coalesced.unique.len()];
        let mut all_ready = true;

        for (uidx, &(dev, lba)) in coalesced.unique.iter().enumerate() {
            cost += Cycles(self.cache.port_acquire(dev, lba, now.raw()));
            match self.cache.lookup_or_reserve_as(dev, lba, tenant) {
                CacheLookup::Hit { line, token } => {
                    cost += Cycles(api.agile_cache_hit);
                    self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    tokens[uidx] = Some(token);
                    self.cache.unpin(line);
                }
                CacheLookup::Busy { .. } => {
                    cost += Cycles(api.agile_cache_hit);
                    self.stats.cache_coalesced.fetch_add(1, Ordering::Relaxed);
                    all_ready = false;
                }
                CacheLookup::Miss {
                    line,
                    dma,
                    writeback,
                } => {
                    cost += Cycles(api.agile_cache_miss);
                    self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                    all_ready = false;
                    if let Some((wb_dev, wb_lba, wb_token)) = writeback {
                        self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                        let snapshot = DmaHandle::with_token(wb_token);
                        let (wb_cost, ok) = self.issue_to_device(
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
                    let (io_cost, ok) = self.issue_to_device(
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
                    cost += Cycles(api.agile_cache_miss);
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
                .map(|&u| tokens[u].expect("ready token"))
                .collect();
            (cost, ReadOutcome::Ready(per_lane))
        } else {
            (cost, ReadOutcome::Pending)
        }
    }

    /// Store one page through the software cache (array-like write): the
    /// line is updated (write-allocate) and marked dirty; the write-back to
    /// flash happens on eviction. Evicting a dirty victim issues its
    /// write-back NVMe command first, exactly like the read path. Returns
    /// the cost and whether the store landed (false = retry later).
    /// Untenanted: cache accounting is skipped and trace events carry the
    /// `NO_TENANT` sentinel (`u32::MAX`); multi-tenant workloads use
    /// [`AgileCtrl::write_warp_as`].
    pub fn write_warp(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        token: PageToken,
        now: Cycles,
    ) -> (Cycles, bool) {
        self.write_warp_as(warp, agile_cache::NO_TENANT, dev, lba, token, now)
    }

    /// [`AgileCtrl::write_warp`] with an explicit tenant identity (cache
    /// accounting and line ownership only; the eviction write-back stays
    /// QoS-exempt).
    pub fn write_warp_as(
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
        match self.cache.lookup_or_reserve_as(dev, lba, tenant) {
            CacheLookup::Hit { line, .. } => {
                self.cache.store(line, token);
                self.cache.unpin(line);
                self.bump_cache(port.raw() + api.agile_cache_hit);
                (port + Cycles(api.agile_cache_hit), true)
            }
            CacheLookup::Miss {
                line, writeback, ..
            } => {
                let mut cost = port + Cycles(api.agile_cache_miss);
                // The victim held dirty data: write it back (from a
                // snapshot) before the line is reused, or the modification
                // is lost.
                if let Some((wb_dev, wb_lba, wb_token)) = writeback {
                    self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                    let snapshot = DmaHandle::with_token(wb_token);
                    let (wb_cost, ok) = self.issue_to_device(
                        wb_dev as usize,
                        warp,
                        |cid| NvmeCommand::write(cid, wb_lba, snapshot.clone()),
                        Transaction::WriteBack,
                        now,
                    );
                    cost += wb_cost;
                    if !ok {
                        // The snapshot is the only copy of the victim's
                        // modification: reinstate it and ask for a retry.
                        self.cache.reinstate_victim(line, wb_dev, wb_lba, wb_token);
                        self.bump_cache(cost.raw());
                        return (cost, false);
                    }
                }
                // Write-allocate without fetching the old contents.
                self.cache.complete_fill(line);
                self.cache.store(line, token);
                self.cache.unpin(line);
                self.bump_cache(cost.raw());
                (cost, true)
            }
            CacheLookup::Busy { .. } | CacheLookup::NoLineAvailable => {
                self.bump_cache(port.raw() + api.agile_cache_miss);
                (port + Cycles(api.agile_cache_miss), false)
            }
        }
    }

    fn bump_cache(&self, c: u64) {
        self.stats.cache_cycles.fetch_add(c, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Method 2: async_issue(src, dst)
    // ------------------------------------------------------------------

    /// Asynchronously read `(dev, lba)` into the user buffer `buf`
    /// (`ctrl->asyncRead` in Listing 1). The buffer's barrier is re-armed and
    /// completed when the data is in place.
    pub fn async_read(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        buf: &AgileBuf,
        now: Cycles,
    ) -> (Cycles, IssueOutcome) {
        self.stats.async_calls.fetch_add(1, Ordering::Relaxed);
        self.cache.set_time_hint(now.raw());
        let api = &self.cfg.costs.api;
        buf.barrier.reset();
        let mut cost = Cycles(api.agile_barrier_probe);

        // 1. Share Table has the highest priority in the hierarchy (§3.4.1).
        if let Some(st) = &self.share_table {
            if let Some(shared) = st.acquire(dev, lba) {
                cost += Cycles(api.agile_cache_hit);
                if shared.is_ready() {
                    buf.store(shared.token());
                    buf.barrier.complete();
                    // We only needed a copy of the data; drop our reference.
                    let _ = st.release(dev, lba);
                    self.bump_cache(cost.raw());
                    return (cost, IssueOutcome::AlreadyAvailable);
                }
                // The owner's transfer is still in flight; retry later.
                let _ = st.release(dev, lba);
                self.bump_cache(cost.raw());
                return (cost, IssueOutcome::Retry);
            }
        }

        // 2. Software cache (pay the shard's access port when modeled).
        cost += Cycles(self.cache.port_acquire(dev, lba, now.raw()));
        if let Some(token) = self.cache.peek(dev, lba) {
            cost += Cycles(api.agile_cache_hit);
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            buf.store(token);
            buf.barrier.complete();
            self.bump_cache(cost.raw());
            return (cost, IssueOutcome::AlreadyAvailable);
        }

        // 3. Issue the NVMe read straight into the user buffer and register
        //    it with the Share Table so other threads can reuse it.
        let shared = self
            .share_table
            .as_ref()
            .and_then(|st| st.register(dev, lba, buf.dma.clone(), warp));
        let txn = Transaction::UserRead {
            barrier: buf.barrier.clone(),
            shared: shared.clone(),
        };
        let (io_cost, ok) = self.issue_to_device(
            dev as usize,
            warp,
            |cid| NvmeCommand::read(cid, lba, buf.dma.clone()),
            txn,
            now,
        );
        cost += io_cost;
        if ok {
            (cost, IssueOutcome::Issued)
        } else {
            if let Some(st) = &self.share_table {
                if shared.is_some() {
                    let _ = st.release(dev, lba);
                }
            }
            (cost, IssueOutcome::Retry)
        }
    }

    /// Asynchronously write the contents of `buf` to `(dev, lba)`
    /// (`ctrl->asyncWrite`). The data is snapshotted at issue time, so the
    /// buffer may be reused immediately; the software cache is updated so
    /// subsequent readers see the new data; the barrier completes when the
    /// SSD acknowledges the write.
    pub fn async_write(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        buf: &AgileBuf,
        now: Cycles,
    ) -> (Cycles, IssueOutcome) {
        self.stats.async_calls.fetch_add(1, Ordering::Relaxed);
        let api = &self.cfg.costs.api;
        let token = buf.token();
        buf.barrier.reset();
        let snapshot = DmaHandle::with_token(token);
        let mut cost = Cycles(api.agile_barrier_probe);

        let (io_cost, ok) = self.issue_to_device(
            dev as usize,
            warp,
            |cid| NvmeCommand::write(cid, lba, snapshot.clone()),
            Transaction::UserWrite {
                barrier: buf.barrier.clone(),
            },
            now,
        );
        cost += io_cost;
        if !ok {
            return (cost, IssueOutcome::Retry);
        }

        // Keep the cache coherent with the new data (write-allocate update).
        let (c_cost, _stored) = self.write_warp(warp, dev, lba, token, now);
        cost += c_cost;

        // If the Share Table tracks this source, record the modification so
        // the owner propagates it when the sharing drains.
        if let Some(st) = &self.share_table {
            let _ = st.mark_modified(dev, lba, token, warp);
        }
        (cost, IssueOutcome::Issued)
    }

    // ------------------------------------------------------------------
    // Raw path (bandwidth experiments) and barrier polling
    // ------------------------------------------------------------------

    /// Issue a raw 4 KiB read that bypasses the software cache (used by the
    /// Figure 5 scaling experiment). Completion is signalled via `barrier`.
    /// The issuing warp's flat index doubles as the tenant id for QoS
    /// arbitration; multi-tenant workloads use [`AgileCtrl::raw_read_as`].
    pub fn raw_read(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        dma: DmaHandle,
        barrier: Barrier,
        now: Cycles,
    ) -> (Cycles, IssueOutcome) {
        self.raw_read_as(warp, warp as u32, dev, lba, dma, barrier, now)
    }

    /// [`AgileCtrl::raw_read`] with an explicit tenant identity: the
    /// submission is arbitrated by the installed [`QosPolicy`] and stamped
    /// with `tenant` in trace capture.
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
    ) -> (Cycles, IssueOutcome) {
        self.stats.raw_calls.fetch_add(1, Ordering::Relaxed);
        let qos_tenant = self.qos.get().map(|_| tenant);
        let (cost, ok) = self.issue_to_device_as(
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
        );
        (
            cost,
            if ok {
                IssueOutcome::Issued
            } else {
                IssueOutcome::Retry
            },
        )
    }

    /// Issue a raw 4 KiB write that bypasses the software cache (Figure 6).
    /// The issuing warp's flat index doubles as the tenant id for QoS
    /// arbitration; multi-tenant workloads use [`AgileCtrl::raw_write_as`].
    pub fn raw_write(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        token: PageToken,
        barrier: Barrier,
        now: Cycles,
    ) -> (Cycles, IssueOutcome) {
        self.raw_write_as(warp, warp as u32, dev, lba, token, barrier, now)
    }

    /// [`AgileCtrl::raw_write`] with an explicit tenant identity: the
    /// submission is arbitrated by the installed [`QosPolicy`] and stamped
    /// with `tenant` in trace capture.
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
    ) -> (Cycles, IssueOutcome) {
        self.stats.raw_calls.fetch_add(1, Ordering::Relaxed);
        let dma = DmaHandle::with_token(token);
        let qos_tenant = self.qos.get().map(|_| tenant);
        let (cost, ok) = self.issue_to_device_as(
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
        );
        (
            cost,
            if ok {
                IssueOutcome::Issued
            } else {
                IssueOutcome::Retry
            },
        )
    }

    /// Poll a transaction barrier (`buf.wait()` single probe). Returns the
    /// probe cost and whether the transaction has completed.
    pub fn poll_barrier(&self, barrier: &Barrier) -> (Cycles, bool) {
        let api = &self.cfg.costs.api;
        self.stats
            .io_cycles
            .fetch_add(api.agile_barrier_probe, Ordering::Relaxed);
        (Cycles(api.agile_barrier_probe), barrier.is_complete())
    }

    // ------------------------------------------------------------------
    // Service control
    // ------------------------------------------------------------------

    /// Ask the service kernel to stop (host-side `stopAgile()`).
    pub fn request_service_stop(&self) {
        self.stop_service.store(true, Ordering::Release);
    }

    /// Re-arm the service (between host-side runs).
    pub fn reset_service_stop(&self) {
        self.stop_service.store(false, Ordering::Release);
    }

    /// True once the host asked the service to stop.
    pub fn service_stop_requested(&self) -> bool {
        self.stop_service.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl_with_queues(devs: usize, qps: usize, depth: u32) -> AgileCtrl {
        let cfg = AgileConfig::small_test()
            .with_queue_pairs(qps)
            .with_queue_depth(depth);
        let queues: Vec<Vec<Arc<QueuePair>>> = (0..devs)
            .map(|_| (0..qps).map(|q| QueuePair::new(q as u16, depth)).collect())
            .collect();
        AgileCtrl::new(cfg, queues)
    }

    #[test]
    fn prefetch_issues_fills_for_misses_and_coalesces() {
        let ctrl = ctrl_with_queues(1, 2, 64);
        // 32 lanes all asking for the same page → one unique request.
        let reqs = vec![(0u32, 7u64); 32];
        let (cost, retry) = ctrl.prefetch_warp(0, &reqs, Cycles(0));
        assert!(retry.is_empty());
        assert!(cost.raw() > 0);
        let s = ctrl.stats();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.warp_coalesced, 31);
        // The command reached an SQ ring.
        let total_inflight: usize = ctrl
            .device_queues(0)
            .iter()
            .map(|q| q.transactions().in_flight())
            .sum();
        assert_eq!(total_inflight, 1);
    }

    #[test]
    fn second_prefetch_of_same_page_is_coalesced_at_cache_level() {
        let ctrl = ctrl_with_queues(1, 2, 64);
        ctrl.prefetch_warp(0, &[(0, 9)], Cycles(0));
        ctrl.prefetch_warp(1, &[(0, 9)], Cycles(0));
        let s = ctrl.stats();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_coalesced, 1);
    }

    #[test]
    fn read_warp_becomes_ready_after_manual_fill() {
        let ctrl = ctrl_with_queues(1, 1, 64);
        let reqs = vec![(0u32, 3u64), (0, 4)];
        let (_, outcome) = ctrl.read_warp(0, &reqs, Cycles(0));
        assert_eq!(outcome, ReadOutcome::Pending);
        // Simulate the service completing the fills: find the reserved lines
        // via the transaction table and complete them.
        for sq in ctrl.device_queues(0) {
            for cid in 0..sq.depth() as u16 {
                if let Some(Transaction::CacheFill { line }) = sq.transactions().take(cid) {
                    ctrl.cache()
                        .way(line)
                        .data
                        .store(PageToken(100 + cid as u64));
                    ctrl.cache().complete_fill(line);
                    ctrl.cache().unpin(line);
                    sq.release(cid);
                }
            }
        }
        let (_, outcome) = ctrl.read_warp(0, &reqs, Cycles(0));
        match outcome {
            ReadOutcome::Ready(tokens) => assert_eq!(tokens.len(), 2),
            ReadOutcome::Pending => panic!("expected ready after fills completed"),
        }
    }

    #[test]
    fn async_read_hits_share_table_on_second_request() {
        let ctrl = ctrl_with_queues(1, 1, 64);
        let a = AgileBuf::new();
        let (_, o) = ctrl.async_read(1, 0, 42, &a, Cycles(0));
        assert_eq!(o, IssueOutcome::Issued);
        // Manually play the service: complete the user-read transaction.
        let sq = &ctrl.device_queues(0)[0];
        let txn = sq.transactions().take(0).expect("in flight");
        if let Transaction::UserRead { barrier, shared } = txn {
            a.dma.store(PageToken(0xAA));
            barrier.complete();
            if let Some(s) = shared {
                s.mark_ready();
            }
            sq.release(0);
        } else {
            panic!("expected a UserRead transaction");
        }
        assert!(a.is_ready());
        // A second thread asking for the same page gets it from the Share
        // Table without any NVMe traffic.
        let b = AgileBuf::new();
        let (_, o) = ctrl.async_read(2, 0, 42, &b, Cycles(0));
        assert_eq!(o, IssueOutcome::AlreadyAvailable);
        assert_eq!(b.token(), PageToken(0xAA));
        assert_eq!(ctrl.stats().raw_calls, 0);
    }

    #[test]
    fn async_write_updates_cache_and_issues() {
        let ctrl = ctrl_with_queues(1, 1, 64);
        let buf = AgileBuf::with_token(PageToken(0xBEEF));
        let (_, o) = ctrl.async_write(0, 0, 5, &buf, Cycles(0));
        assert_eq!(o, IssueOutcome::Issued);
        // Cache now serves the new data.
        assert_eq!(ctrl.cache().peek(0, 5), Some(PageToken(0xBEEF)));
        // Buffer is reusable immediately even though the barrier is pending.
        assert!(!buf.is_ready());
        buf.store(PageToken(1));
        // The in-flight command carries the snapshot, not the new value.
        let sq = &ctrl.device_queues(0)[0];
        assert_eq!(sq.transactions().in_flight(), 1);
    }

    #[test]
    fn issue_retries_and_reports_when_all_sqs_full() {
        let ctrl = ctrl_with_queues(1, 1, 2);
        // Fill both SQ slots with raw reads.
        for i in 0..2u64 {
            let (_, o) = ctrl.raw_read(0, 0, i, DmaHandle::new(), Barrier::new(), Cycles(0));
            assert_eq!(o, IssueOutcome::Issued);
        }
        let (_, o) = ctrl.raw_read(0, 0, 99, DmaHandle::new(), Barrier::new(), Cycles(0));
        assert_eq!(o, IssueOutcome::Retry);
        assert_eq!(ctrl.stats().sq_full_retries, 1);
        // Prefetch misses that cannot issue must not wedge the cache line.
        let (_, retry) = ctrl.prefetch_warp(0, &[(0, 123)], Cycles(0));
        assert_eq!(retry, vec![(0, 123)]);
        assert_eq!(ctrl.cache().total_pins(), 0, "aborted fill must unpin");
    }

    #[test]
    fn service_stop_flag_roundtrip() {
        let ctrl = ctrl_with_queues(1, 1, 4);
        assert!(!ctrl.service_stop_requested());
        ctrl.request_service_stop();
        assert!(ctrl.service_stop_requested());
        ctrl.reset_service_stop();
        assert!(!ctrl.service_stop_requested());
    }

    #[test]
    fn qos_gate_defers_a_tenant_at_its_slot_share() {
        use crate::qos::WeightedFair;
        let ctrl = ctrl_with_queues(1, 2, 32); // 64 slots total
        let policy = Arc::new(WeightedFair::new());
        assert!(ctrl.set_qos_policy(policy.clone()));
        assert!(ctrl.qos_policy().is_some());
        // Tenant 9 becomes active: equal weights split the 64 slots 32/32.
        let (_, o) = ctrl.raw_read_as(0, 9, 0, 1, DmaHandle::new(), Barrier::new(), Cycles(0));
        assert_eq!(o, IssueOutcome::Issued);
        let mut admitted = 0;
        let mut deferred = false;
        for i in 0..40u64 {
            let (_, o) = ctrl.raw_read_as(
                0,
                0,
                0,
                100 + i,
                DmaHandle::new(),
                Barrier::new(),
                Cycles(i),
            );
            match o {
                IssueOutcome::Issued => admitted += 1,
                _ => {
                    deferred = true;
                    break;
                }
            }
        }
        assert!(deferred, "tenant 0 must defer at its share");
        assert_eq!(admitted, 32, "equal weights ⇒ half the 64 slots");
        assert_eq!(ctrl.stats().qos_deferrals, 1);
        // A completion frees a credit and the tenant is admitted again.
        policy.on_complete(0);
        let (_, o) = ctrl.raw_read_as(0, 0, 0, 999, DmaHandle::new(), Barrier::new(), Cycles(50));
        assert_eq!(o, IssueOutcome::Issued);
    }

    #[test]
    fn qos_admission_is_refunded_when_every_sq_is_full() {
        use crate::qos::WeightedFair;
        let ctrl = ctrl_with_queues(1, 1, 2); // 2 slots total
        let policy = Arc::new(WeightedFair::new());
        assert!(ctrl.set_qos_policy(policy.clone()));
        // Fill both slots with untenanted system traffic (gate-exempt).
        for i in 0..2u64 {
            let (_, ok) = ctrl.issue_to_device(
                0,
                0,
                |cid| NvmeCommand::read(cid, i, DmaHandle::new()),
                Transaction::WriteBack,
                Cycles(0),
            );
            assert!(ok);
        }
        // The tenant is admitted by the policy but finds every SQ full: the
        // failed attempt must not count against its share.
        let (_, o) = ctrl.raw_read_as(0, 0, 0, 7, DmaHandle::new(), Barrier::new(), Cycles(1));
        assert_eq!(o, IssueOutcome::Retry);
        assert_eq!(ctrl.stats().sq_full_retries, 1);
        let stats = policy.tenant_stats();
        assert_eq!(stats[0].in_flight, 0, "refunded");
        assert_eq!(stats[0].admitted, 0, "refunded");
        assert_eq!(stats[0].deferred, 0, "an SQ-full failure is not a deferral");
    }

    #[test]
    fn second_qos_policy_is_rejected() {
        use crate::qos::{Fifo, WeightedFair};
        let ctrl = ctrl_with_queues(1, 1, 8);
        assert!(ctrl.set_qos_policy(Arc::new(Fifo)));
        assert!(!ctrl.set_qos_policy(Arc::new(WeightedFair::new())));
        assert_eq!(ctrl.qos_policy().unwrap().name(), "fifo");
    }

    #[test]
    fn write_warp_allocates_and_marks_dirty() {
        let ctrl = ctrl_with_queues(1, 1, 16);
        let (_, ok) = ctrl.write_warp(0, 0, 77, PageToken(55), Cycles(0));
        assert!(ok);
        assert_eq!(ctrl.cache().peek(0, 77), Some(PageToken(55)));
        let (_, outcome) = ctrl.read_warp(0, &[(0, 77)], Cycles(0));
        assert!(matches!(outcome, ReadOutcome::Ready(t) if t[0] == PageToken(55)));
    }
}
