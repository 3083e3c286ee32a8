//! Deterministic trace replay through AGILE and the BaM baseline.
//!
//! [`agile_trace::Trace`] is the interchange format: captured from a live run
//! or synthesized by [`agile_trace::TraceSpec`]. This module feeds a trace's
//! ops back through the raw (cache-bypassing) I/O path of either system and
//! measures **per-request latency** — submit to observed completion, in GPU
//! cycles — into an [`agile_trace::LatencyHistogram`], giving p50/p95/p99
//! percentiles alongside the usual throughput numbers.
//!
//! Replay semantics:
//!
//! * ops are partitioned round-robin across warps (`op i → warp i % W`), so
//!   the interleave is identical run to run — or, with
//!   [`TraceReplayParams::tenant_warps`], by tenant: each tenant owns a
//!   demand-proportional block of warps replaying only its ops (the
//!   per-tenant virtual queues a QoS policy arbitrates);
//! * each op's `gap` (think time) is charged to the issuing warp as busy
//!   cycles before the request is issued, so bursty traces reproduce their
//!   on/off structure in simulated time;
//! * the [`ReplayPath::Raw`] mode drives the cache-bypassing I/O path —
//!   under AGILE a warp keeps a window of asynchronous requests in flight
//!   and reaps completions opportunistically (the service kernel recycles
//!   SQEs); under BaM a warp is synchronous — it issues one request and
//!   polls the CQ itself until the data lands, exactly the §2.2 model;
//! * the [`ReplayPath::Cached`] mode drives the software-cache path
//!   (prefetch + array-like reads, write-allocate stores), where address
//!   skew matters: a zipfian hot set mostly hits HBM while uniform traffic
//!   streams from flash. The AGILE variant prefetches one batch ahead
//!   (Method 1 of §3.5) so fills overlap with consumption.
//!
//! Everything is deterministic: the same trace + configuration produces
//! bit-identical latency histograms and therefore byte-identical reports.

use agile_core::transaction::Barrier;
use agile_core::{AgileCtrl, IssueOutcome, ReadOutcome};
use agile_metrics::{CounterFamily, HistoFamily, LabelDim, MetricsRegistry};
use agile_sim::Cycles;
use agile_trace::{LatencyHistogram, Trace, TraceOp};
use bam_baseline::BamCtrl;
use gpu_sim::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use nvme_sim::{DmaHandle, PageToken};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Shared accumulator all replay warps record completions into: one
/// aggregate latency histogram plus one histogram per tenant, so the replay
/// reports per-tenant p50/p95/p99 next to the aggregate — the measurement a
/// QoS scheduler will be judged against.
#[derive(Default)]
pub struct ReplayCollector {
    latency: Mutex<LatencyHistogram>,
    tenants: Mutex<BTreeMap<u32, LatencyHistogram>>,
    reads: AtomicU64,
    writes: AtomicU64,
    /// Optional registry instruments mirroring the accumulators above
    /// (`agile_replay_*`), so the windowed sampler can slice replay
    /// completions into per-window per-tenant IOPS and percentiles.
    metrics: OnceLock<ReplayMetrics>,
}

struct ReplayMetrics {
    ops: CounterFamily,
    latency: HistoFamily,
    reads: agile_metrics::Counter,
    writes: agile_metrics::Counter,
}

impl ReplayCollector {
    /// New, empty collector.
    pub fn new() -> Self {
        ReplayCollector::default()
    }

    /// Mirror every recorded completion into `registry` as
    /// `agile_replay_ops_total{tenant}` / `agile_replay_latency_cycles{tenant}`
    /// plus aggregate read/write counters. Returns `false` if instruments
    /// were already installed (the first binding wins).
    pub fn bind_metrics(&self, registry: &Arc<MetricsRegistry>) -> bool {
        use agile_metrics::Labels;
        self.metrics
            .set(ReplayMetrics {
                ops: registry.counter_family("agile_replay_ops_total", LabelDim::Tenant),
                latency: registry.histo_family("agile_replay_latency_cycles", LabelDim::Tenant),
                reads: registry.counter("agile_replay_reads_total", Labels::NONE),
                writes: registry.counter("agile_replay_writes_total", Labels::NONE),
            })
            .is_ok()
    }

    /// Record one completed op of `tenant` observed `latency_cycles` after
    /// its submit.
    pub fn record(&self, tenant: u32, latency_cycles: u64, write: bool) {
        self.latency.lock().record(latency_cycles);
        self.tenants
            .lock()
            .entry(tenant)
            .or_default()
            .record(latency_cycles);
        if write {
            self.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(m) = self.metrics.get() {
            m.ops.inc(tenant);
            m.latency.record(tenant, latency_cycles);
            if write {
                m.writes.inc();
            } else {
                m.reads.inc();
            }
        }
    }

    /// Completed reads.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Completed writes.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Snapshot of the aggregate latency histogram.
    pub fn latency(&self) -> LatencyHistogram {
        self.latency.lock().clone()
    }

    /// Snapshot of the per-tenant latency histograms, ordered by tenant id.
    pub fn tenant_latencies(&self) -> Vec<(u32, LatencyHistogram)> {
        self.tenants
            .lock()
            .iter()
            .map(|(&t, h)| (t, h.clone()))
            .collect()
    }
}

/// Which I/O path the replay drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayPath {
    /// Raw, cache-bypassing reads/writes (bandwidth-style measurement;
    /// address-distribution-independent by construction).
    #[default]
    Raw,
    /// Through the HBM software cache (prefetch + array-like access), where
    /// hot-set skew and eviction pressure show up in the percentiles.
    Cached,
}

/// Replay tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TraceReplayParams {
    /// Warps the ops are partitioned across (must match the launch).
    pub total_warps: u64,
    /// Maximum asynchronous requests in flight per AGILE warp (raw path).
    pub window: usize,
    /// Which I/O path to drive.
    pub path: ReplayPath,
    /// Route every op through the topology's page-striping layer: the op's
    /// `(dev, lba)` is folded into one global page index and resolved back
    /// to a concrete device via `ShardedArray::map_page`. Requires the
    /// controller to carry a topology (hosts built via `HostBuilder` do).
    pub stripe: bool,
    /// Partition warps **by tenant** instead of round-robin over the whole
    /// trace: each tenant owns a contiguous block of warps sized
    /// proportionally to its op count (largest-remainder rounding, at least
    /// one warp per tenant with ops), and each warp replays only its
    /// tenant's ops, strided across that tenant's warps. This models each
    /// tenant as its own appropriately-sized kernel — the per-tenant virtual
    /// queues a QoS scheduler arbitrates — so a 9:1 op mix really is a 9:1
    /// pressure mix, and removes the head-of-line coupling where one warp's
    /// stream interleaves every tenant. With partitioning on, each warp's
    /// single tenant is also what its cached-path accesses are attributed to
    /// (`read_warp_as`/`write_warp_as`/`prefetch_warp_as`), so per-tenant
    /// cache hit-rates and occupancies are exact. Requires at least one warp
    /// per tenant with ops. Off by default (the historical interleave, where
    /// cached accesses stay untenanted — no per-tenant cache accounting).
    pub tenant_warps: bool,
    /// Cached path only: how many batches ahead the AGILE variant prefetches
    /// (Method 1 of §3.5). `1` is the historical one-batch lookahead
    /// (bit-identical default), `0` disables prefetch entirely — BaM's
    /// demand-fill behaviour on AGILE's async stack — and larger depths
    /// trade cache pressure for fill/consume overlap, which is exactly the
    /// knob the AGILE-vs-BaM cached-replay gap turns on. Ignored by the BaM
    /// variant (no prefetch) and by the raw path.
    pub prefetch_depth: u32,
}

impl Default for TraceReplayParams {
    fn default() -> Self {
        TraceReplayParams {
            total_warps: 64,
            window: 64,
            path: ReplayPath::Raw,
            stripe: false,
            tenant_warps: false,
            prefetch_depth: 1,
        }
    }
}

/// Which ops of the trace one warp replays, in which order.
enum OpCursor {
    /// Round-robin stride over the whole trace (`op i → warp i mod W`, the
    /// historical partitioning).
    Strided {
        /// Next op index this warp owns.
        next: u64,
        /// Stride between owned ops (= total warps).
        stride: u64,
        /// Total ops in the trace.
        len: u64,
    },
    /// An explicit list of op indices (tenant-partitioned warps).
    List {
        /// Owned op indices, in replay order.
        ops: Vec<u32>,
        /// Next position within `ops`.
        pos: usize,
    },
}

impl OpCursor {
    /// The op index `k` positions ahead of the cursor (`k = 0` ⇒ current).
    fn peek_ahead(&self, k: usize) -> Option<usize> {
        match self {
            OpCursor::Strided { next, stride, len } => {
                let idx = next + *stride * k as u64;
                (idx < *len).then_some(idx as usize)
            }
            OpCursor::List { ops, pos } => ops.get(pos + k).map(|&i| i as usize),
        }
    }

    /// The current op index, if any ops remain.
    fn peek(&self) -> Option<usize> {
        self.peek_ahead(0)
    }

    /// Move past the current op.
    fn advance(&mut self) {
        match self {
            OpCursor::Strided { next, stride, .. } => *next += *stride,
            OpCursor::List { pos, .. } => *pos += 1,
        }
    }
}

/// Op indices of each tenant, in trace order (`result[t]` = tenant `t`'s ops).
fn partition_by_tenant(trace: &Trace) -> Vec<Vec<u32>> {
    let tenants = (trace.meta.tenants as usize).max(1);
    let mut per = vec![Vec::new(); tenants];
    for (i, op) in trace.ops.iter().enumerate() {
        per[(op.tenant as usize).min(tenants - 1)].push(i as u32);
    }
    per
}

/// Warp-invariant tenant partitioning of a trace, computed once per kernel:
/// each tenant's op index list plus the warp allocation over them.
struct TenantPartition {
    per_tenant: Vec<Vec<u32>>,
    alloc: Vec<u64>,
}

impl TenantPartition {
    fn new(trace: &Trace, total_warps: u64) -> Self {
        let per_tenant = partition_by_tenant(trace);
        let alloc = allocate_warps(&per_tenant, total_warps);
        TenantPartition { per_tenant, alloc }
    }
}

/// Warps allocated to each tenant, proportional to its op count
/// (largest-remainder rounding; every tenant with ops gets at least one
/// warp; tenants without ops get none). Deterministic: remainder and
/// donation ties break toward the lower tenant id.
fn allocate_warps(per_tenant: &[Vec<u32>], total_warps: u64) -> Vec<u64> {
    let counts: Vec<u64> = per_tenant.iter().map(|v| v.len() as u64).collect();
    let total_ops: u64 = counts.iter().sum();
    let nonempty = counts.iter().filter(|&&c| c > 0).count() as u64;
    let mut alloc = vec![0u64; counts.len()];
    if total_ops == 0 {
        return alloc;
    }
    assert!(
        total_warps >= nonempty,
        "tenant_warps needs at least one warp per tenant with ops \
         ({total_warps} warps < {nonempty} tenants)"
    );
    let mut assigned = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        alloc[i] = total_warps * c / total_ops;
        assigned += alloc[i];
    }
    // Hand the rounding leftovers to the largest remainders.
    let mut by_remainder: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
    by_remainder.sort_by_key(|&i| (std::cmp::Reverse(total_warps * counts[i] % total_ops), i));
    for &i in by_remainder
        .iter()
        .cycle()
        .take((total_warps - assigned) as usize)
    {
        alloc[i] += 1;
    }
    // Every tenant with ops gets a warp, donated by the largest allocation.
    for i in 0..counts.len() {
        if counts[i] > 0 && alloc[i] == 0 {
            let donor = (0..counts.len())
                .max_by_key(|&j| (alloc[j], std::cmp::Reverse(j)))
                .expect("non-empty");
            alloc[donor] -= 1;
            alloc[i] += 1;
        }
    }
    alloc
}

/// Build the cursor of warp `warp_flat` under `params`, using `partition`
/// when tenant partitioning is on.
fn cursor_for(
    warp_flat: u64,
    params: &TraceReplayParams,
    trace: &Trace,
    partition: Option<&TenantPartition>,
) -> OpCursor {
    match partition {
        None => OpCursor::Strided {
            next: warp_flat,
            stride: params.total_warps,
            len: trace.ops.len() as u64,
        },
        Some(partition) => {
            // Tenants own contiguous warp blocks, in tenant-id order.
            let mut start = 0u64;
            for (tid, &owned) in partition.alloc.iter().enumerate() {
                if warp_flat < start + owned {
                    let instance = (warp_flat - start) as usize;
                    let ops = partition.per_tenant[tid]
                        .iter()
                        .skip(instance)
                        .step_by(owned as usize)
                        .copied()
                        .collect();
                    return OpCursor::List { ops, pos: 0 };
                }
                start += owned;
            }
            // Warps past the allocation (ops < warps) stay idle.
            OpCursor::List {
                ops: Vec::new(),
                pos: 0,
            }
        }
    }
}

/// Fold a trace op's `(dev, lba)` into the striped global page space.
fn global_page(op: &TraceOp, lba_space: u64) -> u64 {
    op.dev as u64 * lba_space + op.lba
}

/// One in-flight replayed request.
struct Inflight {
    barrier: Barrier,
    issued_at: u64,
    write: bool,
    dev: u32,
    tenant: u32,
}

// ---------------------------------------------------------------------------
// AGILE replay
// ---------------------------------------------------------------------------

/// Kernel factory replaying a trace through [`AgileCtrl`]'s asynchronous raw
/// path.
pub struct AgileTraceReplayKernel {
    ctrl: Arc<AgileCtrl>,
    trace: Arc<Trace>,
    collector: Arc<ReplayCollector>,
    params: TraceReplayParams,
    /// Tenant partitioning (op lists + warp allocation), present when
    /// `params.tenant_warps`.
    partition: Option<TenantPartition>,
}

impl AgileTraceReplayKernel {
    /// Build the factory; `collector` receives every completion.
    pub fn new(
        ctrl: Arc<AgileCtrl>,
        trace: Arc<Trace>,
        collector: Arc<ReplayCollector>,
        params: TraceReplayParams,
    ) -> Self {
        assert!(params.total_warps >= 1);
        let partition = params
            .tenant_warps
            .then(|| TenantPartition::new(&trace, params.total_warps));
        // Seed the controller's live prefetch-depth cell with the requested
        // static depth; cached warps read the cell at every batch boundary,
        // so a control plane (if one is bridged in) can retune it from here.
        ctrl.set_prefetch_depth(params.prefetch_depth);
        AgileTraceReplayKernel {
            ctrl,
            trace,
            collector,
            params,
            partition,
        }
    }
}

struct AgileReplayWarp {
    ctrl: Arc<AgileCtrl>,
    trace: Arc<Trace>,
    collector: Arc<ReplayCollector>,
    /// The ops this warp owns.
    cursor: OpCursor,
    warp_flat: u64,
    window: usize,
    stripe: bool,
    outstanding: Vec<Inflight>,
}

impl AgileReplayWarp {
    fn reap(&mut self, now: Cycles) {
        let collector = &self.collector;
        self.outstanding.retain(|inflight| {
            if inflight.barrier.is_complete() {
                collector.record(
                    inflight.tenant,
                    now.raw().saturating_sub(inflight.issued_at),
                    inflight.write,
                );
                false
            } else {
                true
            }
        });
    }

    /// Resolve the op's target, optionally through the striping layer.
    fn target(&self, op: &TraceOp) -> (u32, u64) {
        if self.stripe {
            self.ctrl
                .resolve_page(global_page(op, self.trace.meta.lba_space))
        } else {
            (op.dev, op.lba)
        }
    }
}

impl AgileReplayWarp {
    /// Everything `step` does after the completion reap: the drain path and
    /// the issue loop. Split out so the parallel-planning commit can run it
    /// after applying (or re-validating) a plan-time reap.
    fn issue_phase(&mut self, ctx: &WarpCtx) -> WarpStep {
        let ops = &self.trace.ops;
        if self.cursor.peek().is_none() {
            // Everything issued; drain the stragglers.
            if self.outstanding.is_empty() {
                return WarpStep::Done;
            }
            let (cost, _) = self.ctrl.poll_barrier(&self.outstanding[0].barrier);
            return if self.outstanding[0].barrier.is_complete() {
                WarpStep::Busy(cost)
            } else {
                WarpStep::Stall {
                    retry_after: Cycles(2_000),
                }
            };
        }

        if self.outstanding.len() >= self.window {
            return WarpStep::Stall {
                retry_after: Cycles(2_000),
            };
        }

        // Issue up to one warp-width of ops this step.
        let mut cost = Cycles(0);
        let mut issued_now = 0u32;
        for _ in 0..ctx.lanes {
            if self.outstanding.len() >= self.window {
                break;
            }
            let Some(idx) = self.cursor.peek() else {
                break;
            };
            let op: TraceOp = ops[idx];
            let (dev, lba) = self.target(&op);
            let barrier = Barrier::new();
            let (c, outcome) = if op.write {
                self.ctrl.raw_write_as(
                    self.warp_flat,
                    op.tenant,
                    dev,
                    lba,
                    PageToken(lba ^ (op.tenant as u64) << 48),
                    barrier.clone(),
                    ctx.now,
                )
            } else {
                self.ctrl.raw_read_as(
                    self.warp_flat,
                    op.tenant,
                    dev,
                    lba,
                    DmaHandle::new(),
                    barrier.clone(),
                    ctx.now,
                )
            };
            cost += c;
            match outcome {
                IssueOutcome::Issued | IssueOutcome::AlreadyAvailable => {
                    // Charge the op's think time exactly once, on acceptance
                    // (within one step the engine only sees the summed cost,
                    // so pre- vs post-issue ordering is equivalent — but
                    // charging on the attempt would re-bill every retry).
                    cost += Cycles(op.gap as u64);
                    self.outstanding.push(Inflight {
                        barrier,
                        issued_at: ctx.now.raw(),
                        write: op.write,
                        dev,
                        tenant: op.tenant,
                    });
                    self.cursor.advance();
                    issued_now += 1;
                }
                IssueOutcome::Retry => break,
            }
        }
        if issued_now == 0 {
            // Every SQ full (or the QoS gate deferred this tenant): the
            // AGILE service keeps recycling entries; retry later.
            WarpStep::Stall {
                retry_after: Cycles(3_000),
            }
        } else {
            WarpStep::Busy(cost.max(Cycles(1)))
        }
    }
}

impl WarpKernel for AgileReplayWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        self.reap(ctx.now);
        self.issue_phase(ctx)
    }

    fn parallel_capable(&self) -> bool {
        true
    }

    /// The plan is the completion reap: scan this warp's outstanding window
    /// (atomic barrier loads) and record finished requests into the
    /// commutative [`ReplayCollector`]. Everything touched is warp-local
    /// except the collector, whose aggregates are order-independent, and
    /// barrier completion is monotone — a request observed complete here is
    /// still complete at commit time.
    fn plan_step(&mut self, ctx: &WarpCtx) -> bool {
        self.reap(ctx.now);
        true
    }

    /// Commit = validate the plan, then the serial issue/drain phase. On a
    /// clean epoch the plan-time reap *is* the reap `step` would have done
    /// (only planned commits ran before this one in canonical order, and
    /// those never complete another warp's barriers). On a dirty epoch a
    /// serial-class step may have completed more of this warp's requests
    /// since the plan, so re-reap — the retained entries were untouched and
    /// the already-reaped ones stay valid by monotonicity.
    fn commit_step(&mut self, ctx: &WarpCtx, epoch_clean: bool) -> WarpStep {
        if !epoch_clean {
            self.reap(ctx.now);
        }
        self.issue_phase(ctx)
    }
}

/// A warp with no ops assigned (launch geometry rounds warps up to a
/// multiple of 8 per block; the excess warps must not replay anything).
struct IdleWarp;

impl WarpKernel for IdleWarp {
    fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
        WarpStep::Done
    }
}

/// The tenant a warp's cached accesses are attributed to: with tenant
/// partitioning, the single tenant whose ops the cursor holds; otherwise
/// `None` (the caller falls back to the untenanted path — no per-tenant
/// accounting, trace events keep the pre-threading tenant value).
fn cursor_tenant(cursor: &OpCursor, trace: &Trace, partitioned: bool) -> Option<u32> {
    if !partitioned {
        return None;
    }
    cursor.peek().map(|idx| trace.ops[idx].tenant)
}

impl KernelFactory for AgileTraceReplayKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        // Launches use 256-thread blocks (8 warps per block).
        let warp_flat = block as u64 * 8 + warp as u64;
        if warp_flat >= self.params.total_warps {
            // Rounded-up launch geometry: this warp owns no ops.
            return Box::new(IdleWarp);
        }
        let cursor = cursor_for(
            warp_flat,
            &self.params,
            &self.trace,
            self.partition.as_ref(),
        );
        let tenant = cursor_tenant(&cursor, &self.trace, self.partition.is_some());
        match self.params.path {
            ReplayPath::Raw => Box::new(AgileReplayWarp {
                ctrl: Arc::clone(&self.ctrl),
                trace: Arc::clone(&self.trace),
                collector: Arc::clone(&self.collector),
                cursor,
                warp_flat,
                window: self.params.window.max(1),
                stripe: self.params.stripe,
                outstanding: Vec::new(),
            }),
            ReplayPath::Cached => Box::new(AgileCachedReplayWarp {
                ctrl: Arc::clone(&self.ctrl),
                trace: Arc::clone(&self.trace),
                collector: Arc::clone(&self.collector),
                cursor,
                warp_flat,
                tenant,
                stripe: self.params.stripe,
                prefetch_depth: self.ctrl.prefetch_depth_cell(),
                batch_reads: Vec::new(),
                batch_writes: Vec::new(),
                batch_started: 0,
            }),
        }
    }
    fn name(&self) -> &str {
        "trace-replay-agile"
    }
}

/// AGILE cached-path replay: batches of up to one warp-width of ops go
/// through the software cache (write-allocate stores, array-like reads with
/// retry), with the *next* batch's reads prefetched ahead so fills overlap
/// with consumption — the asynchronous pipeline of §3.5.
struct AgileCachedReplayWarp {
    ctrl: Arc<AgileCtrl>,
    trace: Arc<Trace>,
    collector: Arc<ReplayCollector>,
    cursor: OpCursor,
    warp_flat: u64,
    /// Single tenant of this warp's ops under tenant partitioning; `None`
    /// on the historical interleave (warp-as-tenant attribution).
    tenant: Option<u32>,
    stripe: bool,
    /// Live prefetch depth in batches of lookahead (0 = none, 1 = the
    /// historical default). Loaded from the controller's shared cell at
    /// every batch boundary, so an online control plane retunes the
    /// pipeline mid-run; without one the cell simply never changes.
    prefetch_depth: Arc<AtomicU32>,
    /// Pending reads of the current batch: (device, lba, tenant).
    batch_reads: Vec<(u32, u64, u32)>,
    batch_writes: Vec<TraceOp>,
    batch_started: u64,
}

impl AgileCachedReplayWarp {
    /// Resolve the op's target, optionally through the striping layer.
    fn target(&self, op: &TraceOp) -> (u32, u64) {
        if self.stripe {
            self.ctrl
                .resolve_page(global_page(op, self.trace.meta.lba_space))
        } else {
            (op.dev, op.lba)
        }
    }

    /// The tenant this warp's cache accesses are attributed to: the warp's
    /// single tenant under tenant partitioning, otherwise untenanted (no
    /// per-tenant accounting — attribution by warp id would be noise).
    fn cache_tenant(&self) -> u32 {
        self.tenant.unwrap_or(agile_cache::NO_TENANT)
    }

    /// Read targets of the up-to-`lanes` ops ahead of the cursor (prefetch).
    fn lookahead_reads(&self, lanes: u32) -> Vec<(u32, u64)> {
        let ops = &self.trace.ops;
        let mut targets = Vec::new();
        for k in 0..lanes as usize {
            let Some(idx) = self.cursor.peek_ahead(k) else {
                break;
            };
            let op = ops[idx];
            if !op.write {
                targets.push(self.target(&op));
            }
        }
        targets
    }
}

impl WarpKernel for AgileCachedReplayWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        // Pull the next batch when the current one is fully retired.
        if self.batch_reads.is_empty() && self.batch_writes.is_empty() {
            if self.cursor.peek().is_none() {
                return WarpStep::Done;
            }
            let mut cost = Cycles(0);
            for _ in 0..ctx.lanes {
                let Some(idx) = self.cursor.peek() else {
                    break;
                };
                let op = self.trace.ops[idx];
                self.cursor.advance();
                cost += Cycles(op.gap as u64);
                if op.write {
                    self.batch_writes.push(op);
                } else {
                    let (dev, lba) = self.target(&op);
                    self.batch_reads.push((dev, lba, op.tenant));
                }
            }
            // Latency is measured from *eligibility* (after the batch's
            // think time has elapsed), matching the raw path's submit-time
            // stamp — otherwise bursty traces would fold their idle gaps
            // into the cached-path percentiles.
            self.batch_started = ctx.now.raw() + cost.raw();
            // Prefetch the following `prefetch_depth` batches so their fills
            // overlap this batch's consumption (depth 0 = demand fills only).
            let depth = self.prefetch_depth.load(Ordering::Relaxed);
            if depth > 0 {
                let lookahead = self.lookahead_reads(ctx.lanes * depth);
                if !lookahead.is_empty() {
                    let (c, _retry) = self.ctrl.prefetch_warp_as(
                        self.warp_flat,
                        self.cache_tenant(),
                        &lookahead,
                        ctx.now,
                    );
                    cost += c;
                }
            }
            return WarpStep::Busy(cost.max(Cycles(1)));
        }

        let mut cost = Cycles(0);
        let mut retired_any = false;
        // Retire writes: write-allocate stores, retried until a line frees.
        let mut still_pending = Vec::new();
        for op in std::mem::take(&mut self.batch_writes) {
            let (dev, lba) = self.target(&op);
            let token = PageToken(lba ^ (op.tenant as u64) << 48);
            let (c, ok) = self.ctrl.write_warp_as(
                self.warp_flat,
                self.cache_tenant(),
                dev,
                lba,
                token,
                ctx.now,
            );
            cost += c;
            if ok {
                self.collector.record(
                    op.tenant,
                    ctx.now.raw().saturating_sub(self.batch_started),
                    true,
                );
                retired_any = true;
            } else {
                still_pending.push(op);
            }
        }
        self.batch_writes = still_pending;

        // Retire reads: array-like warp access, retried until the lanes hit.
        if !self.batch_reads.is_empty() {
            let requests: Vec<(u32, u64)> = self
                .batch_reads
                .iter()
                .map(|&(dev, lba, _)| (dev, lba))
                .collect();
            let (c, outcome) =
                self.ctrl
                    .read_warp_as(self.warp_flat, self.cache_tenant(), &requests, ctx.now);
            cost += c;
            let latency = ctx.now.raw().saturating_sub(self.batch_started);
            match outcome {
                ReadOutcome::Ready(_) => {
                    for &(_, _, tenant) in &self.batch_reads {
                        self.collector.record(tenant, latency, false);
                    }
                    self.batch_reads.clear();
                    retired_any = true;
                }
                ReadOutcome::Pending => {
                    // Retire lanes whose pages are already resident (per-lane
                    // predication). Without this, a working set far larger
                    // than the cache can thrash forever: concurrent warps
                    // evict each other's lines before any warp sees all of
                    // its lanes resident simultaneously.
                    let collector = &self.collector;
                    let cache = self.ctrl.cache();
                    let before = self.batch_reads.len();
                    self.batch_reads.retain(|&(dev, lba, tenant)| {
                        if cache.peek(dev, lba).is_some() {
                            collector.record(tenant, latency, false);
                            false
                        } else {
                            true
                        }
                    });
                    if self.batch_reads.len() < before {
                        retired_any = true;
                    }
                }
            }
        }
        if retired_any {
            WarpStep::Busy(cost.max(Cycles(1)))
        } else {
            // Fills in flight (tens of µs away): back off instead of
            // re-probing every few hundred cycles, so the engine advances in
            // device-latency-sized strides. The service keeps working; the
            // cadence matches the BaM variant's poll loop so measured
            // latencies stay comparable.
            WarpStep::Stall {
                retry_after: Cycles(2_000),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// BaM replay
// ---------------------------------------------------------------------------

/// Kernel factory replaying a trace through [`BamCtrl`]'s synchronous path:
/// each warp issues one request and polls the CQ itself until it completes.
pub struct BamTraceReplayKernel {
    ctrl: Arc<BamCtrl>,
    trace: Arc<Trace>,
    collector: Arc<ReplayCollector>,
    params: TraceReplayParams,
    /// Tenant partitioning (op lists + warp allocation), present when
    /// `params.tenant_warps`.
    partition: Option<TenantPartition>,
}

impl BamTraceReplayKernel {
    /// Build the factory; `collector` receives every completion.
    pub fn new(
        ctrl: Arc<BamCtrl>,
        trace: Arc<Trace>,
        collector: Arc<ReplayCollector>,
        params: TraceReplayParams,
    ) -> Self {
        assert!(params.total_warps >= 1);
        let partition = params
            .tenant_warps
            .then(|| TenantPartition::new(&trace, params.total_warps));
        BamTraceReplayKernel {
            ctrl,
            trace,
            collector,
            params,
            partition,
        }
    }
}

struct BamReplayWarp {
    ctrl: Arc<BamCtrl>,
    trace: Arc<Trace>,
    collector: Arc<ReplayCollector>,
    cursor: OpCursor,
    warp_flat: u64,
    stripe: bool,
    current: Option<Inflight>,
    /// Rotates the polled CQ across steps: a command that fell over to a
    /// neighbouring SQ (§3.3.1) completes on that queue's CQ, and near the
    /// end of a run this warp may be the only thread left to process it.
    poll_rotation: u64,
}

impl BamReplayWarp {
    /// Resolve the op's target, optionally through the striping layer.
    fn target(&self, op: &TraceOp) -> (u32, u64) {
        if self.stripe {
            self.ctrl
                .resolve_page(global_page(op, self.trace.meta.lba_space))
        } else {
            (op.dev, op.lba)
        }
    }
}

impl WarpKernel for BamReplayWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        // Synchronous model: finish the in-flight request before the next one.
        if let Some(inflight) = &self.current {
            if inflight.barrier.is_complete() {
                let inflight = self.current.take().expect("checked");
                self.collector.record(
                    inflight.tenant,
                    ctx.now.raw().saturating_sub(inflight.issued_at),
                    inflight.write,
                );
                return WarpStep::Busy(Cycles(1));
            }
            // The issuing thread itself must drive the completion path.
            let dev = inflight.dev as usize;
            self.poll_rotation += 1;
            let (cost, _) =
                self.ctrl
                    .poll_once_at(self.warp_flat + self.poll_rotation, dev, ctx.now);
            return WarpStep::Busy(cost.max(Cycles(500)));
        }

        let ops = &self.trace.ops;
        let Some(idx) = self.cursor.peek() else {
            return WarpStep::Done;
        };
        let op: TraceOp = ops[idx];
        let (dev, lba) = self.target(&op);
        let mut cost = Cycles(0);
        let barrier = Barrier::new();
        let (c, ok) = if op.write {
            self.ctrl.raw_write_as(
                self.warp_flat,
                op.tenant,
                dev,
                lba,
                PageToken(lba ^ (op.tenant as u64) << 48),
                barrier.clone(),
                ctx.now,
            )
        } else {
            self.ctrl.raw_read_as(
                self.warp_flat,
                op.tenant,
                dev,
                lba,
                DmaHandle::new(),
                barrier.clone(),
                ctx.now,
            )
        };
        cost += c;
        if ok {
            // Think time is charged once, on acceptance (a Retry must not
            // re-bill it next step).
            cost += Cycles(op.gap as u64);
            self.current = Some(Inflight {
                barrier,
                issued_at: ctx.now.raw(),
                write: op.write,
                dev,
                tenant: op.tenant,
            });
            self.cursor.advance();
            WarpStep::Busy(cost.max(Cycles(1)))
        } else {
            // SQs full: only user polling can free entries in BaM.
            self.poll_rotation += 1;
            let (poll_cost, _) =
                self.ctrl
                    .poll_once_at(self.warp_flat + self.poll_rotation, dev as usize, ctx.now);
            WarpStep::Busy((cost + poll_cost).max(Cycles(500)))
        }
    }
}

impl KernelFactory for BamTraceReplayKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        let warp_flat = block as u64 * 8 + warp as u64;
        if warp_flat >= self.params.total_warps {
            // Rounded-up launch geometry: this warp owns no ops.
            return Box::new(IdleWarp);
        }
        let cursor = cursor_for(
            warp_flat,
            &self.params,
            &self.trace,
            self.partition.as_ref(),
        );
        let tenant = cursor_tenant(&cursor, &self.trace, self.partition.is_some());
        match self.params.path {
            ReplayPath::Raw => Box::new(BamReplayWarp {
                ctrl: Arc::clone(&self.ctrl),
                trace: Arc::clone(&self.trace),
                collector: Arc::clone(&self.collector),
                cursor,
                warp_flat,
                stripe: self.params.stripe,
                current: None,
                poll_rotation: 0,
            }),
            ReplayPath::Cached => Box::new(BamCachedReplayWarp {
                ctrl: Arc::clone(&self.ctrl),
                trace: Arc::clone(&self.trace),
                collector: Arc::clone(&self.collector),
                cursor,
                warp_flat,
                tenant,
                stripe: self.params.stripe,
                batch_reads: Vec::new(),
                batch_writes: Vec::new(),
                batch_started: 0,
                poll_rotation: 0,
            }),
        }
    }
    fn name(&self) -> &str {
        "trace-replay-bam"
    }
}

/// BaM cached-path replay: the same batched cache access as the AGILE
/// variant, but synchronous — no prefetch lookahead, and the issuing warp
/// drives its own completion processing through [`BamCtrl::poll_once_at`]
/// (polling work and its cost live in the user kernel, §2.2).
struct BamCachedReplayWarp {
    ctrl: Arc<BamCtrl>,
    trace: Arc<Trace>,
    collector: Arc<ReplayCollector>,
    cursor: OpCursor,
    warp_flat: u64,
    /// Single tenant of this warp's ops under tenant partitioning; `None`
    /// on the historical interleave (warp-as-tenant attribution).
    tenant: Option<u32>,
    stripe: bool,
    /// Pending reads of the current batch: (device, lba, tenant).
    batch_reads: Vec<(u32, u64, u32)>,
    batch_writes: Vec<TraceOp>,
    batch_started: u64,
    /// See [`BamReplayWarp::poll_rotation`].
    poll_rotation: u64,
}

impl BamCachedReplayWarp {
    /// Resolve the op's target, optionally through the striping layer.
    fn target(&self, op: &TraceOp) -> (u32, u64) {
        if self.stripe {
            self.ctrl
                .resolve_page(global_page(op, self.trace.meta.lba_space))
        } else {
            (op.dev, op.lba)
        }
    }

    /// The tenant this warp's cache accesses are attributed to: the warp's
    /// single tenant under tenant partitioning, otherwise untenanted (no
    /// per-tenant accounting — attribution by warp id would be noise).
    fn cache_tenant(&self) -> u32 {
        self.tenant.unwrap_or(agile_cache::NO_TENANT)
    }
}

impl WarpKernel for BamCachedReplayWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if self.batch_reads.is_empty() && self.batch_writes.is_empty() {
            if self.cursor.peek().is_none() {
                return WarpStep::Done;
            }
            let mut cost = Cycles(0);
            for _ in 0..ctx.lanes {
                let Some(idx) = self.cursor.peek() else {
                    break;
                };
                let op = self.trace.ops[idx];
                self.cursor.advance();
                cost += Cycles(op.gap as u64);
                if op.write {
                    self.batch_writes.push(op);
                } else {
                    let (dev, lba) = self.target(&op);
                    self.batch_reads.push((dev, lba, op.tenant));
                }
            }
            // Measure latency from eligibility (after the batch's think
            // time), matching the raw path's submit-time stamp.
            self.batch_started = ctx.now.raw() + cost.raw();
            return WarpStep::Busy(cost.max(Cycles(1)));
        }

        let mut cost = Cycles(0);
        let mut retired_any = false;
        let mut still_pending = Vec::new();
        for op in std::mem::take(&mut self.batch_writes) {
            let (dev, lba) = self.target(&op);
            let token = PageToken(lba ^ (op.tenant as u64) << 48);
            let (c, ok) = self.ctrl.write_warp_sync_as(
                self.warp_flat,
                self.cache_tenant(),
                dev,
                lba,
                token,
                ctx.now,
            );
            cost += c;
            if ok {
                self.collector.record(
                    op.tenant,
                    ctx.now.raw().saturating_sub(self.batch_started),
                    true,
                );
                retired_any = true;
            } else {
                still_pending.push(op);
            }
        }
        self.batch_writes = still_pending;

        if !self.batch_reads.is_empty() {
            let requests: Vec<(u32, u64)> = self
                .batch_reads
                .iter()
                .map(|&(dev, lba, _)| (dev, lba))
                .collect();
            let (c, ready) = self.ctrl.read_warp_sync_as(
                self.warp_flat,
                self.cache_tenant(),
                &requests,
                ctx.now,
            );
            cost += c;
            let latency = ctx.now.raw().saturating_sub(self.batch_started);
            match ready {
                Some(_) => {
                    for &(_, _, tenant) in &self.batch_reads {
                        self.collector.record(tenant, latency, false);
                    }
                    self.batch_reads.clear();
                    retired_any = true;
                }
                None => {
                    // Per-lane retirement; see the AGILE variant for why.
                    {
                        let collector = &self.collector;
                        let cache = self.ctrl.cache();
                        let before = self.batch_reads.len();
                        self.batch_reads.retain(|&(dev, lba, tenant)| {
                            if cache.peek(dev, lba).is_some() {
                                collector.record(tenant, latency, false);
                                false
                            } else {
                                true
                            }
                        });
                        if self.batch_reads.len() < before {
                            retired_any = true;
                        }
                    }
                    if self.batch_reads.is_empty() {
                        return WarpStep::Busy(cost.max(Cycles(1)));
                    }
                    // No service in BaM: this warp must poll the CQ itself.
                    let dev = self.batch_reads[0].0 as usize;
                    self.poll_rotation += 1;
                    let (poll_cost, processed) =
                        self.ctrl
                            .poll_once_at(self.warp_flat + self.poll_rotation, dev, ctx.now);
                    cost += poll_cost;
                    if processed > 0 {
                        retired_any = true;
                    }
                }
            }
        }
        if retired_any {
            WarpStep::Busy(cost.max(Cycles(1)))
        } else {
            // Blocked writes can be waiting on SQEs that only user polling
            // recycles (write-backs fill the SQs and nobody else processes
            // their completions in BaM) — poll before backing off, or a
            // write-only batch wedges the whole run.
            if let Some(op) = self.batch_writes.first() {
                let (dev, _) = self.target(op);
                self.poll_rotation += 1;
                let (poll_cost, processed) = self.ctrl.poll_once_at(
                    self.warp_flat + self.poll_rotation,
                    dev as usize,
                    ctx.now,
                );
                if processed > 0 {
                    return WarpStep::Busy((cost + poll_cost).max(Cycles(1)));
                }
            }
            // Nothing landed yet; idle-poll backoff (flash is tens of µs
            // away, so probing every few hundred cycles only burns rounds).
            WarpStep::Stall {
                retry_after: Cycles(2_000),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_accumulates() {
        let c = ReplayCollector::new();
        c.record(0, 1_000, false);
        c.record(1, 2_000, true);
        c.record(0, 3_000, false);
        assert_eq!(c.reads(), 2);
        assert_eq!(c.writes(), 1);
        let h = c.latency();
        assert_eq!(h.count(), 3);
        assert!(h.p50().unwrap() >= 1_000);
        let tenants = c.tenant_latencies();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].0, 0);
        assert_eq!(tenants[0].1.count(), 2);
        assert_eq!(tenants[1].1.count(), 1);
        assert_eq!(
            tenants.iter().map(|(_, h)| h.count()).sum::<u64>(),
            h.count(),
            "per-tenant histograms partition the aggregate"
        );
    }

    #[test]
    fn round_robin_partition_covers_all_ops() {
        let total_warps = 7u64;
        let ops = 100u64;
        let mut seen = vec![false; ops as usize];
        for w in 0..total_warps {
            let mut i = w;
            while i < ops {
                seen[i as usize] = true;
                i += total_warps;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
