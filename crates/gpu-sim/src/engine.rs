//! The co-simulation engine.
//!
//! [`Engine`] owns the GPU state (SMs with resident warps), the launched
//! kernels, and any external latency-bearing devices (the SSD array, wrapped
//! behind [`ExternalDevice`]). `run()` advances virtual time event by event:
//!
//! 1. all external devices are advanced to the current time so their
//!    completions (DMA writes, CQ entries) become visible to warps;
//! 2. every resident warp whose wake time has arrived is stepped once;
//! 3. finished blocks release their SM resources and pending blocks from the
//!    dispatch queue are placed (wave scheduling);
//! 4. the clock jumps to the next interesting time.
//!
//! Scheduling is **event-driven** ([`EngineSched::EventQueue`], the default):
//! warps live in a min-heap ready-queue keyed on `ready_at`, re-enqueued on
//! every `Busy`/`Stall` — a persistent kernel's idle backoff is just a timer
//! event like any other — so a round costs O(ready warps · log W) instead of
//! a scan over every resident warp, and rounds fire only at warp wake times:
//! device events (`next_event_time`) no longer force empty rounds, because a
//! discrete-event device advanced straight to the next warp wake produces the
//! same completions it would have produced stepwise. The pre-refactor
//! scheduler is kept as [`EngineSched::FullScan`] for equivalence tests and
//! wall-time comparisons; both schedulers step the same warps at the same
//! simulated times in the same order, so reports are bit-identical — only
//! `rounds` (and wall time) differ.
//!
//! # Determinism contract: device order
//!
//! External devices come in two tiers. **Shard devices**
//! ([`Engine::add_shard_device`]) are the shard-affine partitions of the
//! storage topology: mutually independent between epoch boundaries, so they
//! may be advanced concurrently. **Passive devices** ([`Engine::add_device`])
//! observe state the shard devices and warps produce (metrics samplers,
//! feedback controllers) and always run on the coordinating thread. Every
//! scheduler advances shard devices first, in the order they were added, then
//! drains the [`EpochMailbox`]es in registration order, then advances passive
//! devices in the order *they* were added. That combined order is part of the
//! determinism contract — reordering either list reorders device side effects
//! (trace records, metric windows, control decisions) and breaks bit-identity
//! with the golden traces. `add_shard_device` therefore `debug_assert`s that
//! no passive device was registered yet.
//!
//! # Parallel shards: the two-phase epoch
//!
//! [`EngineSched::ParallelShards(n)`](EngineSched::ParallelShards) runs each
//! epoch in two worker phases while the warp scheduler (the exact event-queue
//! loop) stays on the coordinating thread. Virtual time advances in lockstep
//! epochs through a seqlock-style barrier:
//!
//! - **Phase A — devices.** The coordinator publishes the horizon `now`;
//!   every worker advances its fixed bucket of shard devices (device *i* is
//!   owned by worker *i mod n* for the whole run, preserving add-order inside
//!   each bucket) and reports back. Hosts register one shard device per
//!   *storage device* (device-affine partitioning), so the workers scale with
//!   fleet size rather than lock-shard count — a `shards=1` topology still
//!   fans its SSDs out across every worker. Shard-lock state is only ever
//!   touched from the coordinator's submit paths, so lock advancement stays
//!   single-writer by construction.
//! - **Phase B — warps.** The due warps whose kernels are
//!   [`plan-capable`](crate::kernel::WarpKernel::parallel_capable) are handed
//!   to the workers in SM-affine partitions (warp of SM *s* plans on worker
//!   *s mod n*); each worker runs the read-mostly
//!   [`plan_step`](crate::kernel::WarpKernel::plan_step) prefix of its warps'
//!   steps concurrently while the coordinator is parked at the barrier.
//!
//! The coordinator then drains the epoch mailboxes — per-partition buffers of
//! cross-thread effects such as trace records — in fixed registration order,
//! advances the passive devices, and *commits* every due warp in canonical
//! `(sm, slot)` order: planned warps finalise through
//! [`commit_step`](crate::kernel::WarpKernel::commit_step), everything else
//! steps serially exactly as the sequential scheduler would. A serial step
//! marks the epoch dirty (`epoch_clean = false`), and every later commit must
//! re-validate its snapshot — snapshot, validate, retry, with the serial
//! re-derivation as the always-correct slow path. When the next wake time
//! must consider device events, the same barrier collects each partition's
//! earliest pending event and the horizon is their minimum. Because every
//! worker only touches its own partition's state between barriers, every
//! cross-thread effect is committed in canonical order at the epoch boundary,
//! and plans only observe state that serial-class steps mutate (which dirties
//! the epoch), the merged event order — and with it every stat, trace and
//! replay summary — is bit-identical to [`EngineSched::EventQueue`]
//! regardless of thread count; `ParallelShards(1)` *is* the sequential event
//! queue, bit for bit.
//!
//! The engine also watches for livelock: if no warp makes forward progress
//! (`Busy` or `Done`) for a configurable window while kernels are still
//! incomplete, it stops and flags the run as deadlocked — this is how the
//! repository demonstrates the queue deadlock of paper §2.3.1 on the
//! synchronous baseline, and its absence under AGILE.

use crate::config::GpuConfig;
use crate::kernel::{
    occupancy, KernelFactory, KernelId, LaunchConfig, WarpCtx, WarpId, WarpKernel, WarpStep,
};
use crate::sm::{ResidentWarp, SmState};
use agile_sim::{Cycles, SimClock};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Which scheduling loop [`Engine::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EngineSched {
    /// Min-heap ready-queue on `ready_at`: rounds fire only at warp wake
    /// times and step only the warps that are due. The default.
    #[default]
    EventQueue,
    /// The pre-ready-queue scheduler: every round scans every resident warp
    /// and wakes at every device event. Kept for equivalence tests and
    /// wall-time comparisons; behaviourally identical, just O(warps)/round.
    FullScan,
    /// The event-queue loop with shard devices advanced by up to `n` OS
    /// worker threads in lockstep epochs (see the module docs). Bit-identical
    /// to [`EngineSched::EventQueue`] for every `n`; `ParallelShards(1)` is
    /// the sequential scheduler itself.
    ParallelShards(usize),
}

/// Engine-level instruments (the `agile_engine_*` metric family), bound once
/// from a registry. The scheduling loops accumulate into plain engine fields
/// and flush to these atomics only every `metrics_flush_interval` rounds (and
/// at run end), so the hot loop never touches the registry — windowed series
/// see engine counters at that flush granularity.
pub struct EngineMetrics {
    registry: std::sync::Arc<agile_metrics::MetricsRegistry>,
    rounds: agile_metrics::Counter,
    warp_steps: agile_metrics::Counter,
    stale_wakes: agile_metrics::Counter,
    ready_high_water: agile_metrics::Gauge,
}

impl EngineMetrics {
    /// Register (or reuse) the engine instruments in `registry`.
    pub fn bind(registry: &std::sync::Arc<agile_metrics::MetricsRegistry>) -> Self {
        use agile_metrics::Labels;
        EngineMetrics {
            registry: std::sync::Arc::clone(registry),
            rounds: registry.counter("agile_engine_rounds_total", Labels::NONE),
            warp_steps: registry.counter("agile_engine_warp_steps_total", Labels::NONE),
            stale_wakes: registry.counter("agile_engine_stale_wakes_total", Labels::NONE),
            ready_high_water: registry.gauge("agile_engine_ready_queue_high_water", Labels::NONE),
        }
    }

    /// Emit the threaded-run instruments (`agile_engine_epoch_*` /
    /// `agile_engine_thread_*` / `agile_engine_phase_*` /
    /// `agile_engine_warp_partition_*`). Only called after a run that
    /// actually used worker threads — sequential runs never create these
    /// families, so metrics snapshots of unthreaded runs stay untouched.
    ///
    /// `phase_ns` is coordinator wall time per epoch phase (device advance,
    /// worker warp planning, commit walk) in nanoseconds — host cycles, not
    /// simulated ones; the `_cycles_total` suffix mirrors the naming of the
    /// epoch families. `partition_steps` counts the planned warp steps
    /// committed from each SM-affine worker partition (deterministic, tallied
    /// on the coordinator).
    #[allow(clippy::too_many_arguments)]
    fn note_parallel(
        &self,
        threads: u64,
        epochs: u64,
        syncs: u64,
        advances: &[u64],
        devs: &[u64],
        phase_ns: (u64, u64, u64),
        partition_steps: &[u64],
    ) {
        use agile_metrics::Labels;
        self.registry
            .counter("agile_engine_epoch_advances_total", Labels::NONE)
            .add(epochs);
        self.registry
            .counter("agile_engine_epoch_next_event_syncs_total", Labels::NONE)
            .add(syncs);
        self.registry
            .gauge("agile_engine_thread_count", Labels::NONE)
            .set(threads);
        let (device_ns, warp_ns, commit_ns) = phase_ns;
        self.registry
            .counter("agile_engine_phase_device_cycles_total", Labels::NONE)
            .add(device_ns);
        self.registry
            .counter("agile_engine_phase_warp_cycles_total", Labels::NONE)
            .add(warp_ns);
        self.registry
            .counter("agile_engine_phase_commit_cycles_total", Labels::NONE)
            .add(commit_ns);
        for (t, (&adv, &nd)) in advances.iter().zip(devs.iter()).enumerate() {
            self.registry
                .counter(
                    "agile_engine_thread_device_advances_total",
                    Labels::partition(t as u32),
                )
                .add(adv);
            self.registry
                .gauge("agile_engine_thread_devices", Labels::partition(t as u32))
                .set(nd);
        }
        for (t, &steps) in partition_steps.iter().enumerate() {
            self.registry
                .counter(
                    "agile_engine_warp_partition_steps_total",
                    Labels::partition(t as u32),
                )
                .add(steps);
        }
    }
}

/// An external device co-simulated with the GPU (in practice: the SSD array).
///
/// `Send` because shard devices migrate to worker threads under
/// [`EngineSched::ParallelShards`]; each device is only ever touched by one
/// thread at a time (its owning worker between barriers, the coordinator
/// otherwise), so no `Sync` is required.
pub trait ExternalDevice: Send {
    /// Advance the device's internal state to time `now`.
    fn advance_to(&mut self, now: Cycles);
    /// Earliest pending internal event, if any.
    fn next_event_time(&mut self) -> Option<Cycles>;
    /// True when the device has no in-flight work.
    fn quiescent(&self) -> bool;
}

/// A per-partition buffer of cross-shard effects (in practice: trace records
/// produced while a shard device advanced on a worker thread). The engine
/// drains every registered mailbox — in registration order, which the hosts
/// make shard order — right after the shard devices reach the epoch horizon
/// and before any passive device or warp runs, so buffered effects land in
/// exactly the order the sequential scheduler would have produced them.
pub trait EpochMailbox: Send + Sync {
    /// Flush the buffered effects downstream, preserving record order.
    fn drain(&self);
}

impl EpochMailbox for agile_sim::BufferedSink {
    fn drain(&self) {
        self.flush();
    }
}

/// Per-kernel execution summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelReport {
    /// Kernel name (from the factory).
    pub name: String,
    /// Kernel id.
    pub id: u32,
    /// Total warps executed.
    pub warps: u64,
    /// Sum of busy cycles across warps.
    pub busy_cycles: u64,
    /// Sum of stall cycles across warps.
    pub stall_cycles: u64,
    /// Total `step` invocations.
    pub steps: u64,
    /// Time the last (non-persistent) block of the kernel retired; zero for
    /// persistent kernels that were still running when the engine stopped.
    pub completed_at: u64,
    /// Whether the kernel was launched persistent.
    pub persistent: bool,
}

/// Result of an [`Engine::run`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Simulated end-to-end time (cycles) from launch to completion of all
    /// non-persistent kernels.
    pub elapsed: Cycles,
    /// The same, in seconds at the configured clock.
    pub elapsed_secs: f64,
    /// Per-kernel summaries, in launch order.
    pub kernels: Vec<KernelReport>,
    /// True when the engine detected a lack of forward progress (deadlock /
    /// livelock) and aborted the run.
    pub deadlocked: bool,
    /// Number of engine scheduling rounds executed.
    pub rounds: u64,
}

impl ExecutionReport {
    /// Report for the kernel with the given name, if present.
    pub fn kernel(&self, name: &str) -> Option<&KernelReport> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

struct KernelInstance {
    id: KernelId,
    name: String,
    launch: LaunchConfig,
    factory: Box<dyn KernelFactory>,
    blocks_retired: u32,
    completed_at: Option<Cycles>,
    // accumulated stats
    warps: u64,
    busy: Cycles,
    stall: Cycles,
    steps: u64,
}

impl KernelInstance {
    fn complete(&self) -> bool {
        self.blocks_retired == self.launch.grid_dim
    }
}

/// How a scheduling loop reaches the external shard devices: directly
/// ([`SeqDriver`]) or through the worker-thread barrier ([`ParDriver`]).
/// Both loops are written against this trait so the sequential and parallel
/// schedulers share one body and cannot drift behaviourally.
trait DeviceDriver {
    /// Advance every shard device to `now` (one lockstep epoch).
    fn advance_to(&mut self, now: Cycles);
    /// Earliest pending shard-device event strictly after `now`, if any.
    fn next_event_after(&mut self, now: Cycles) -> Option<Cycles>;
    /// True when the driver runs the phase-B plan window on worker threads.
    fn parallel_warps(&self) -> bool {
        false
    }
    /// Number of worker partitions (0: everything on the coordinator).
    fn workers(&self) -> usize {
        0
    }
    /// Run `plan_step` for every task on its SM-affine worker partition
    /// (worker `sm % workers`). No-op on the sequential driver.
    fn plan_warps(&mut self, _tasks: &mut [PlanTask], _now: Cycles) {}
}

/// In-thread driver: shard devices advanced in add order on the caller.
struct SeqDriver<'a> {
    devs: &'a mut [Box<dyn ExternalDevice>],
}

impl DeviceDriver for SeqDriver<'_> {
    fn advance_to(&mut self, now: Cycles) {
        for dev in self.devs.iter_mut() {
            dev.advance_to(now);
        }
    }

    fn next_event_after(&mut self, now: Cycles) -> Option<Cycles> {
        self.devs
            .iter_mut()
            .filter_map(|d| d.next_event_time())
            .filter(|&t| t > now)
            .min()
    }
}

const CMD_ADVANCE: u8 = 0;
const CMD_NEXT: u8 = 1;
const CMD_EXIT: u8 = 2;
const CMD_PLAN: u8 = 3;

/// Default for [`Engine::set_barrier_spin_limit`]: busy-spin this many
/// iterations before each further wait yields the CPU.
const DEFAULT_SPIN_LIMIT: u32 = 256;

/// One due, plan-capable warp published to the workers for the phase-B plan
/// window of an epoch. Built (and consumed) by the coordinator in canonical
/// `(sm, slot)` order; worker `sm % workers` owns the task during the window.
struct PlanTask {
    /// SM index: the partition key and the leading canonical-order key.
    sm: usize,
    /// Warp slot within the SM (the trailing canonical-order key).
    widx: usize,
    /// The warp's kernel state machine, borrowed raw from the SM table for
    /// exactly one plan window (see the safety notes at the `CMD_PLAN`
    /// handler in [`worker_loop`]).
    state: *mut dyn WarpKernel,
    /// The context `commit_step` will also receive (same `now`).
    ctx: WarpCtx,
    /// The owning worker's `plan_step` answer.
    planned: bool,
}

/// One worker's slot in the barrier, cache-line padded so the spin loops of
/// neighbouring workers do not false-share.
#[repr(align(64))]
struct WorkerCell {
    /// Last command sequence number this worker completed.
    done: AtomicU64,
    /// This worker's answer to `CMD_NEXT` (`u64::MAX` = no pending event).
    next: AtomicU64,
    /// Device advances executed by this worker (telemetry).
    advances: AtomicU64,
}

/// The coordinator↔worker barrier. Commands are published by storing `cmd`
/// and `now` and then bumping `seq` with `Release`; workers spin on `seq`
/// with `Acquire` (which makes the command payload visible *and* every
/// coordinator-side write before it — the warp steps of the previous epoch),
/// execute, and acknowledge by storing the sequence number into their `done`
/// cell with `Release`, which the coordinator's `Acquire` spin turns into
/// the matching happens-before edge back. Rounds are a few microseconds of
/// simulated work, so the barrier spins (`std::hint::spin_loop`) rather than
/// parking on an OS primitive; after a short bound the spin falls back to
/// `yield_now`, so an oversubscribed (or single-core) machine degrades to
/// context-switch cost instead of burning whole timeslices.
struct ParShared {
    seq: AtomicU64,
    cmd: AtomicU8,
    now: AtomicU64,
    /// Busy-spin bound before barrier waits fall back to `yield_now`
    /// ([`Engine::set_barrier_spin_limit`]).
    spin_limit: u32,
    /// Phase-B plan window: base pointer / length of the coordinator's
    /// `PlanTask` slice, published before a `CMD_PLAN` and cleared after the
    /// acks. Null outside a window.
    tasks: AtomicPtr<PlanTask>,
    tasks_len: AtomicUsize,
    cells: Vec<WorkerCell>,
}

impl ParShared {
    fn new(workers: usize, spin_limit: u32) -> Self {
        ParShared {
            seq: AtomicU64::new(0),
            cmd: AtomicU8::new(CMD_ADVANCE),
            now: AtomicU64::new(0),
            spin_limit,
            tasks: AtomicPtr::new(std::ptr::null_mut()),
            tasks_len: AtomicUsize::new(0),
            cells: (0..workers)
                .map(|_| WorkerCell {
                    done: AtomicU64::new(0),
                    next: AtomicU64::new(u64::MAX),
                    advances: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn issue(&self, cmd: u8, now: u64) {
        self.cmd.store(cmd, Ordering::Relaxed);
        self.now.store(now, Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release);
    }

    fn wait_all(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        for cell in &self.cells {
            let mut spins = 0u32;
            while cell.done.load(Ordering::Acquire) != s {
                if spins < self.spin_limit {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Barrier driver: one epoch per `advance_to`, one extra sync per
/// `next_event_after`, one plan window per epoch with ≥ 2 plan-capable
/// due warps.
struct ParDriver<'a> {
    shared: &'a ParShared,
    epochs: u64,
    next_syncs: u64,
}

impl DeviceDriver for ParDriver<'_> {
    fn advance_to(&mut self, now: Cycles) {
        self.epochs += 1;
        self.shared.issue(CMD_ADVANCE, now.raw());
        self.shared.wait_all();
    }

    fn next_event_after(&mut self, now: Cycles) -> Option<Cycles> {
        self.next_syncs += 1;
        self.shared.issue(CMD_NEXT, now.raw());
        self.shared.wait_all();
        let min = self
            .shared
            .cells
            .iter()
            .map(|c| c.next.load(Ordering::Relaxed))
            .min()
            .unwrap_or(u64::MAX);
        (min != u64::MAX).then_some(Cycles(min))
    }

    fn parallel_warps(&self) -> bool {
        true
    }

    fn workers(&self) -> usize {
        self.shared.cells.len()
    }

    fn plan_warps(&mut self, tasks: &mut [PlanTask], now: Cycles) {
        // Publish the slice, release the workers, park until every ack.
        // Safety contract (upheld by the `CMD_PLAN` handler in
        // `worker_loop`): between `issue` and the final ack the coordinator
        // does not touch `tasks`, and each element is accessed by exactly one
        // worker (`sm % workers`), so the hand-off is a transfer, not
        // sharing. The `Release` bump in `issue` makes the freshly written
        // tasks visible; the workers' `Release` acks (matched by the
        // `Acquire` spin in `wait_all`) make their `planned` answers and
        // kernel-state mutations visible back.
        self.shared
            .tasks
            .store(tasks.as_mut_ptr(), Ordering::Relaxed);
        self.shared.tasks_len.store(tasks.len(), Ordering::Relaxed);
        self.shared.issue(CMD_PLAN, now.raw());
        self.shared.wait_all();
        self.shared
            .tasks
            .store(std::ptr::null_mut(), Ordering::Relaxed);
        self.shared.tasks_len.store(0, Ordering::Relaxed);
    }
}

/// Publishes `CMD_EXIT` when dropped, so the workers are released even if
/// the coordinator's event loop panics (otherwise `thread::scope` would
/// deadlock joining workers that spin forever).
struct ExitGuard<'a> {
    shared: &'a ParShared,
}

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        self.shared.issue(CMD_EXIT, 0);
    }
}

/// The worker side of the barrier: execute each published command on this
/// worker's fixed bucket of shard devices, hand the bucket back on exit.
fn worker_loop(
    slot: usize,
    mut bucket: Vec<(usize, Box<dyn ExternalDevice>)>,
    shared: &ParShared,
) -> Vec<(usize, Box<dyn ExternalDevice>)> {
    let cell = &shared.cells[slot];
    let mut seen = 0u64;
    loop {
        let mut spins = 0u32;
        let mut seq = shared.seq.load(Ordering::Acquire);
        while seq == seen {
            if spins < shared.spin_limit {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            seq = shared.seq.load(Ordering::Acquire);
        }
        seen = seq;
        match shared.cmd.load(Ordering::Relaxed) {
            CMD_ADVANCE => {
                let now = Cycles(shared.now.load(Ordering::Relaxed));
                for (_, dev) in bucket.iter_mut() {
                    dev.advance_to(now);
                }
                cell.advances
                    .fetch_add(bucket.len() as u64, Ordering::Relaxed);
                cell.done.store(seq, Ordering::Release);
            }
            CMD_NEXT => {
                let now = Cycles(shared.now.load(Ordering::Relaxed));
                let min = bucket
                    .iter_mut()
                    .filter_map(|(_, d)| d.next_event_time())
                    .filter(|&t| t > now)
                    .map(|t| t.raw())
                    .min()
                    .unwrap_or(u64::MAX);
                cell.next.store(min, Ordering::Relaxed);
                cell.done.store(seq, Ordering::Release);
            }
            CMD_PLAN => {
                let base = shared.tasks.load(Ordering::Relaxed);
                let len = shared.tasks_len.load(Ordering::Relaxed);
                let workers = shared.cells.len();
                for i in 0..len {
                    // SAFETY: the coordinator published a live, initialised
                    // slice before the `Release` bump of `seq` (matched by
                    // our `Acquire` load) and is parked in `wait_all` until
                    // every ack; it does not touch the tasks in between. All
                    // access below stays field-granular through the raw
                    // pointer: `sm`/`ctx` are only read (never written during
                    // the window), and `planned` / the kernel state behind
                    // `state` are written only by this worker for tasks in
                    // its own partition — distinct warps hold distinct kernel
                    // state machines, and the coordinator skips duplicate
                    // `(sm, widx)` heap entries when building tasks.
                    unsafe {
                        let task = base.add(i);
                        if (*task).sm % workers != slot {
                            continue;
                        }
                        let planned = (*(*task).state).plan_step(&(*task).ctx);
                        (*task).planned = planned;
                    }
                }
                cell.done.store(seq, Ordering::Release);
            }
            _ => {
                cell.done.store(seq, Ordering::Release);
                return bucket;
            }
        }
    }
}

/// The GPU + devices co-simulation engine.
pub struct Engine {
    gpu: GpuConfig,
    clock: SimClock,
    sms: Vec<SmState>,
    kernels: Vec<KernelInstance>,
    /// Shard-affine devices, advanced first each round — in add order
    /// sequentially, concurrently (one fixed worker per device) under
    /// [`EngineSched::ParallelShards`].
    shard_devices: Vec<Box<dyn ExternalDevice>>,
    /// Passive observers (metrics/control bridges), advanced after the shard
    /// devices and mailboxes, always on the coordinating thread.
    devices: Vec<Box<dyn ExternalDevice>>,
    /// Cross-shard effect buffers, drained in registration order at every
    /// epoch boundary (between shard and passive device advancement).
    mailboxes: Vec<std::sync::Arc<dyn EpochMailbox>>,
    /// Pending (kernel_idx, block_idx) waiting for SM space, FIFO.
    dispatch_queue: std::collections::VecDeque<(usize, u32)>,
    /// Window without forward progress after which the run is declared
    /// deadlocked.
    deadlock_window: Cycles,
    /// Hard wall on simulated time (safety net for tests).
    max_cycles: Cycles,
    rounds: u64,
    /// Scheduling loop selector.
    sched: EngineSched,
    /// The ready-queue: one `(ready_at, sm, warp-slot)` entry per live warp.
    /// Rebuilt at the start of every event-driven run (warp slots are stable
    /// within a run because the event loop never compacts the SM warp lists).
    ready: BinaryHeap<Reverse<(u64, usize, usize)>>,
    /// Optional engine instruments (`agile_engine_*`).
    metrics: Option<EngineMetrics>,
    /// Rounds between metric flushes (power of two not required). The
    /// default matches the historical hardcoded cadence of 4096 rounds;
    /// `finish_run` always performs a final flush, so no partial interval is
    /// ever lost regardless of the setting.
    metrics_flush_interval: u64,
    /// Warp steps / stale wakes / ready-queue high water accumulated in
    /// plain fields; [`Engine::flush_metrics`] mirrors them into the
    /// registry on a coarse cadence.
    m_steps: u64,
    m_stale: u64,
    m_ready_hw: u64,
    /// (rounds, steps, stale) already flushed to the instruments.
    m_flushed: (u64, u64, u64),
    /// Busy-spin bound for the epoch barrier before waits yield the CPU.
    barrier_spin_limit: u32,
    /// Coordinator wall time (nanoseconds) per epoch phase — device advance,
    /// worker warp planning, commit walk — accumulated only on threaded runs
    /// with metrics bound.
    m_phase_ns: (u64, u64, u64),
    /// Planned warp steps committed per SM-affine worker partition (threaded
    /// runs; tallied deterministically on the coordinator).
    m_partition_steps: Vec<u64>,
}

impl Engine {
    /// Create an engine for the given GPU.
    pub fn new(gpu: GpuConfig) -> Self {
        let clock = SimClock::new(gpu.clock_ghz);
        let sms = (0..gpu.num_sms).map(SmState::new).collect();
        Engine {
            gpu,
            clock,
            sms,
            kernels: Vec::new(),
            shard_devices: Vec::new(),
            devices: Vec::new(),
            mailboxes: Vec::new(),
            dispatch_queue: std::collections::VecDeque::new(),
            deadlock_window: Cycles(50_000_000),
            max_cycles: Cycles(u64::MAX / 4),
            rounds: 0,
            sched: EngineSched::default(),
            ready: BinaryHeap::new(),
            metrics: None,
            metrics_flush_interval: 4096,
            m_steps: 0,
            m_stale: 0,
            m_ready_hw: 0,
            m_flushed: (0, 0, 0),
            barrier_spin_limit: DEFAULT_SPIN_LIMIT,
            m_phase_ns: (0, 0, 0),
            m_partition_steps: Vec::new(),
        }
    }

    /// Mirror the accumulated engine counts into the bound instruments
    /// (no-op without metrics). Called every `metrics_flush_interval` rounds
    /// and at run end — the scheduling hot loops never touch an atomic.
    fn flush_metrics(&mut self) {
        if let Some(m) = &self.metrics {
            let (rounds, steps, stale) = self.m_flushed;
            m.rounds.add(self.rounds - rounds);
            m.warp_steps.add(self.m_steps - steps);
            m.stale_wakes.add(self.m_stale - stale);
            m.ready_high_water.record_max(self.m_ready_hw);
            self.m_flushed = (self.rounds, self.m_steps, self.m_stale);
        }
    }

    /// Bind engine instruments. Scheduling is unaffected — the loops only
    /// mirror counts they already track into the registry.
    pub fn set_metrics(&mut self, metrics: EngineMetrics) {
        self.metrics = Some(metrics);
    }

    /// Set the metric flush cadence in rounds (default 4096). A larger
    /// interval trades windowed-series resolution for fewer atomic writes;
    /// totals are unaffected because [`Engine::run`] always flushes the final
    /// partial interval before reporting.
    pub fn set_metrics_flush_interval(&mut self, rounds: u64) {
        assert!(
            rounds > 0,
            "metrics flush interval must be at least 1 round"
        );
        self.metrics_flush_interval = rounds;
    }

    /// Bound the number of busy-spin iterations each epoch-barrier wait
    /// performs before falling back to `std::thread::yield_now` (default
    /// 256). Zero makes every wait yield immediately — the behaviour any
    /// oversubscribed or single-core machine degrades to regardless. Purely
    /// a host-side scheduling knob: simulation results are bit-identical at
    /// every setting; only wall time changes.
    pub fn set_barrier_spin_limit(&mut self, limit: u32) {
        self.barrier_spin_limit = limit;
    }

    /// Select the scheduling loop (default: [`EngineSched::EventQueue`]).
    /// May be switched between runs; all schedulers produce bit-identical
    /// execution, only `rounds` and wall time differ (and `ParallelShards`
    /// matches `rounds` too).
    pub fn set_scheduler(&mut self, sched: EngineSched) {
        self.sched = sched;
    }

    /// The active scheduling loop.
    pub fn scheduler(&self) -> EngineSched {
        self.sched
    }

    /// The GPU configuration.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.clock.now()
    }

    /// Override the no-progress window used for deadlock detection.
    pub fn set_deadlock_window(&mut self, window: Cycles) {
        self.deadlock_window = window;
    }

    /// Override the hard limit on simulated cycles.
    pub fn set_max_cycles(&mut self, max: Cycles) {
        self.max_cycles = max;
    }

    /// Attach a passive external device (metrics/control bridges). Passive
    /// devices are advanced after the shard devices and mailbox drains, in
    /// the order they were added — that order is part of the determinism
    /// contract (see the module docs).
    pub fn add_device(&mut self, dev: Box<dyn ExternalDevice>) {
        self.devices.push(dev);
    }

    /// Attach a shard-affine external device (one storage shard of the SSD
    /// array). Shard devices are advanced before every passive device, in
    /// the order they were added; under [`EngineSched::ParallelShards`] each
    /// one is pinned to worker `index % threads` for the whole run, which
    /// preserves the add order inside every worker's bucket. All shard
    /// devices must be registered before the first passive device — the
    /// combined advance order is what the golden traces gate.
    pub fn add_shard_device(&mut self, dev: Box<dyn ExternalDevice>) {
        debug_assert!(
            self.devices.is_empty(),
            "determinism contract: all shard devices must be added before any \
             passive device — the engine advances shard devices (in add \
             order), then passive devices (in add order), and interleaved \
             registration would silently reorder device side effects"
        );
        self.shard_devices.push(dev);
    }

    /// Register a cross-shard effect buffer, drained in registration order
    /// at every epoch boundary. Hosts register one per storage shard, in
    /// shard order, when the scheduler runs shard devices on worker threads.
    pub fn add_mailbox(&mut self, mailbox: std::sync::Arc<dyn EpochMailbox>) {
        self.mailboxes.push(mailbox);
    }

    /// Launch a kernel; its blocks enter the dispatch queue immediately.
    pub fn launch(&mut self, launch: LaunchConfig, factory: Box<dyn KernelFactory>) -> KernelId {
        assert!(launch.grid_dim > 0, "grid must contain at least one block");
        assert!(
            launch.block_dim.is_multiple_of(self.gpu.warp_size) && launch.block_dim > 0,
            "block_dim must be a positive warp-size multiple"
        );
        // Validate the launch fits the device at all.
        let occ = occupancy(&self.gpu, &launch);
        assert!(occ > 0, "kernel footprint too large for one SM");
        let id = KernelId(self.kernels.len() as u32);
        let idx = self.kernels.len();
        self.kernels.push(KernelInstance {
            id,
            name: factory.name().to_string(),
            launch,
            factory,
            blocks_retired: 0,
            completed_at: None,
            warps: 0,
            busy: Cycles::ZERO,
            stall: Cycles::ZERO,
            steps: 0,
        });
        let grid = self.kernels[idx].launch.grid_dim;
        for b in 0..grid {
            self.dispatch_queue.push_back((idx, b));
        }
        self.fill_sms();
        id
    }

    /// Place as many pending blocks as the SMs can hold.
    fn fill_sms(&mut self) {
        // Round-robin over SMs for each pending block, preserving FIFO order
        // per the hardware's global block scheduler.
        let mut made_progress = true;
        while made_progress {
            made_progress = false;
            let Some(&(kidx, block_idx)) = self.dispatch_queue.front() else {
                break;
            };
            let (warps, regs, smem) = {
                let k = &self.kernels[kidx];
                (
                    k.launch.warps_per_block(&self.gpu),
                    k.launch.registers_per_thread * k.launch.block_dim,
                    k.launch.shared_mem_per_block,
                )
            };
            // Choose the least-loaded SM that can take the block.
            let candidate = self
                .sms
                .iter()
                .enumerate()
                .filter(|(_, sm)| sm.can_place(&self.gpu, warps, regs, smem))
                .min_by_key(|(_, sm)| sm.used_warps)
                .map(|(i, _)| i);
            if let Some(sm_idx) = candidate {
                self.dispatch_queue.pop_front();
                self.place_block(sm_idx, kidx, block_idx, warps, regs, smem);
                made_progress = true;
            }
        }
    }

    fn place_block(
        &mut self,
        sm_idx: usize,
        kidx: usize,
        block_idx: u32,
        warps: u32,
        regs: u32,
        smem: u32,
    ) {
        let slot = self.sms[sm_idx].place_block(kidx, block_idx, warps, regs, smem);
        let kernel_id = self.kernels[kidx].id;
        for w in 0..warps {
            let state = self.kernels[kidx].factory.create_warp(block_idx, w);
            let plan_capable = state.parallel_capable();
            self.kernels[kidx].warps += 1;
            self.sms[sm_idx].warps.push(ResidentWarp {
                id: WarpId {
                    kernel: kernel_id,
                    block: block_idx,
                    warp: w,
                },
                kernel_idx: kidx,
                block_slot: slot,
                state,
                plan_capable,
                ready_at: self.clock.now(),
                done: false,
                busy: Cycles::ZERO,
                stall: Cycles::ZERO,
                steps: 0,
            });
            // Enter the warp into the ready-queue (a placement mid-run wakes
            // at the next visited time point; run entry rebuilds the heap
            // anyway, so pre-run launches are covered either way).
            let widx = self.sms[sm_idx].warps.len() - 1;
            self.ready
                .push(Reverse((self.clock.now().raw(), sm_idx, widx)));
        }
    }

    fn all_user_kernels_complete(&self) -> bool {
        self.kernels
            .iter()
            .filter(|k| !k.launch.persistent)
            .all(|k| k.complete())
    }

    /// Run until every non-persistent kernel has completed (or until deadlock
    /// / the cycle limit is hit) and return the execution report.
    pub fn run(&mut self) -> ExecutionReport {
        match self.sched {
            EngineSched::EventQueue => self.run_sequential(false),
            EngineSched::FullScan => self.run_sequential(true),
            EngineSched::ParallelShards(n) => self.run_parallel_shards(n),
        }
    }

    /// Run the chosen loop with the shard devices driven in-thread.
    fn run_sequential(&mut self, full_scan: bool) -> ExecutionReport {
        let mut devs = std::mem::take(&mut self.shard_devices);
        let mut driver = SeqDriver { devs: &mut devs };
        let report = if full_scan {
            self.full_scan_loop(&mut driver)
        } else {
            self.event_loop(&mut driver)
        };
        self.shard_devices = devs;
        report
    }

    /// Run the event loop with shard devices and warp planning on up to
    /// `threads` OS workers. With thread count ≤ 1 this *is* the sequential
    /// event queue — same code path, bit for bit. Workers are no longer
    /// clamped to the shard-device count: partitions are keyed on devices
    /// (phase A) and SMs (phase B) independently, so extra workers still
    /// earn their keep planning warps even when devices are scarce.
    fn run_parallel_shards(&mut self, threads: usize) -> ExecutionReport {
        let workers = threads.max(1);
        if workers <= 1 {
            return self.run_sequential(false);
        }
        let devs = std::mem::take(&mut self.shard_devices);
        let total = devs.len();
        let mut buckets: Vec<Vec<(usize, Box<dyn ExternalDevice>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, dev) in devs.into_iter().enumerate() {
            buckets[i % workers].push((i, dev));
        }
        let bucket_sizes: Vec<u64> = buckets.iter().map(|b| b.len() as u64).collect();
        self.m_phase_ns = (0, 0, 0);
        self.m_partition_steps = vec![0; workers];
        let shared = ParShared::new(workers, self.barrier_spin_limit);
        let (report, epochs, syncs, returned) = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (slot, bucket) in buckets.into_iter().enumerate() {
                let shared = &shared;
                handles.push(scope.spawn(move || worker_loop(slot, bucket, shared)));
            }
            let exit = ExitGuard { shared: &shared };
            let mut driver = ParDriver {
                shared: &shared,
                epochs: 0,
                next_syncs: 0,
            };
            let report = self.event_loop(&mut driver);
            let (epochs, syncs) = (driver.epochs, driver.next_syncs);
            drop(exit);
            let mut returned: Vec<Option<Box<dyn ExternalDevice>>> =
                (0..total).map(|_| None).collect();
            for handle in handles {
                for (i, dev) in handle.join().expect("engine worker panicked") {
                    returned[i] = Some(dev);
                }
            }
            (report, epochs, syncs, returned)
        });
        self.shard_devices = returned
            .into_iter()
            .map(|d| d.expect("worker returned every device"))
            .collect();
        if let Some(m) = &self.metrics {
            let advances: Vec<u64> = shared
                .cells
                .iter()
                .map(|c| c.advances.load(Ordering::Relaxed))
                .collect();
            m.note_parallel(
                workers as u64,
                epochs,
                syncs,
                &advances,
                &bucket_sizes,
                self.m_phase_ns,
                &self.m_partition_steps,
            );
        }
        report
    }

    /// One epoch boundary: shard devices to the horizon, buffered cross-
    /// shard effects in shard order, then the passive observers.
    fn advance_devices(&mut self, driver: &mut dyn DeviceDriver, now: Cycles) {
        driver.advance_to(now);
        for mailbox in &self.mailboxes {
            mailbox.drain();
        }
        for dev in &mut self.devices {
            dev.advance_to(now);
        }
    }

    /// Earliest pending device event strictly after `now` across both tiers.
    fn next_device_event(&mut self, driver: &mut dyn DeviceDriver, now: Cycles) -> Option<Cycles> {
        let shard = driver.next_event_after(now);
        let passive = self
            .devices
            .iter_mut()
            .filter_map(|d| d.next_event_time())
            .filter(|&t| t > now)
            .min();
        match (shard, passive) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Step one warp at `now`, updating warp/kernel accounting. Returns the
    /// warp's next wake time (`None` once it retired) and whether the step
    /// counted as forward progress. Shared by both schedulers so they cannot
    /// drift behaviourally.
    fn step_warp(
        &mut self,
        sm_idx: usize,
        widx: usize,
        now: Cycles,
        retired_blocks: &mut Vec<(usize, usize)>,
    ) -> (Option<Cycles>, bool) {
        self.drive_warp(sm_idx, widx, now, retired_blocks, None)
    }

    /// Commit a worker-planned step on the coordinator (threaded runs only):
    /// identical accounting to [`Engine::step_warp`], but the kernel
    /// finalises through `commit_step(ctx, epoch_clean)` instead of `step`.
    fn commit_warp(
        &mut self,
        sm_idx: usize,
        widx: usize,
        now: Cycles,
        retired_blocks: &mut Vec<(usize, usize)>,
        epoch_clean: bool,
    ) -> (Option<Cycles>, bool) {
        self.drive_warp(sm_idx, widx, now, retired_blocks, Some(epoch_clean))
    }

    /// The single warp-advancement body behind `step_warp` / `commit_warp`:
    /// only the kernel entry point differs (`step` vs `commit_step`), so the
    /// serial and planned paths cannot drift in their accounting.
    fn drive_warp(
        &mut self,
        sm_idx: usize,
        widx: usize,
        now: Cycles,
        retired_blocks: &mut Vec<(usize, usize)>,
        committed: Option<bool>,
    ) -> (Option<Cycles>, bool) {
        let sm = &mut self.sms[sm_idx];
        let w = &mut sm.warps[widx];
        let ctx = WarpCtx {
            now,
            warp: w.id,
            lanes: self.gpu.warp_size,
            clock_ghz: self.gpu.clock_ghz,
        };
        w.steps += 1;
        self.kernels[w.kernel_idx].steps += 1;
        let outcome = match committed {
            Some(epoch_clean) => w.state.commit_step(&ctx, epoch_clean),
            None => w.state.step(&ctx),
        };
        match outcome {
            WarpStep::Busy(c) => {
                let c = c.max(Cycles(1));
                w.ready_at = now + c;
                w.busy += c;
                self.kernels[w.kernel_idx].busy += c;
                (Some(w.ready_at), true)
            }
            WarpStep::Stall { retry_after } => {
                let r = retry_after.max(Cycles(1));
                w.ready_at = now + r;
                w.stall += r;
                self.kernels[w.kernel_idx].stall += r;
                (Some(w.ready_at), false)
            }
            WarpStep::Done => {
                w.done = true;
                let slot = w.block_slot;
                let kidx = w.kernel_idx;
                if sm.warp_retired(slot) {
                    retired_blocks.push((sm_idx, slot));
                    self.kernels[kidx].blocks_retired += 1;
                    if self.kernels[kidx].complete() {
                        self.kernels[kidx].completed_at = Some(now);
                    }
                }
                (None, true)
            }
        }
    }

    /// The event-driven scheduler: warps wake out of the ready-queue, rounds
    /// fire only at warp wake times, and device state is pulled forward
    /// lazily — discrete-event devices produce identical completions whether
    /// advanced stepwise or straight to the next warp wake, so skipping the
    /// device-only rounds changes `rounds`/wall time but not behaviour.
    fn event_loop(&mut self, driver: &mut dyn DeviceDriver) -> ExecutionReport {
        let start = self.clock.now();
        let mut last_progress = self.clock.now();
        let mut deadlocked = false;
        // Phase wall-clock attribution is only worth an `Instant` pair per
        // phase on threaded runs with metrics bound.
        let time_phases = driver.parallel_warps() && self.metrics.is_some();
        let workers = driver.workers();

        // Drop retired warps now, while it is safe: mid-run the event loop
        // never compacts (heap entries index into the warp lists), so
        // repeated runs on one engine would otherwise accumulate dead
        // entries from every block ever launched.
        for sm in &mut self.sms {
            sm.compact();
        }
        // Rebuild the queue from the live warps: `launch()` may have placed
        // blocks since the last run, the compaction above shifted slots, and
        // a previous `FullScan` run does not maintain the heap.
        self.ready.clear();
        for (sm_idx, sm) in self.sms.iter().enumerate() {
            for (widx, w) in sm.warps.iter().enumerate() {
                if !w.done {
                    self.ready.push(Reverse((w.ready_at.raw(), sm_idx, widx)));
                }
            }
        }

        while !self.all_user_kernels_complete() {
            self.rounds += 1;
            let now = self.clock.now();
            let depth = self.ready.len() as u64;
            if depth > self.m_ready_hw {
                self.m_ready_hw = depth;
            }

            // 1. Phase A: let devices catch up so completions are visible to
            //    warps.
            let t0 = time_phases.then(std::time::Instant::now);
            self.advance_devices(driver, now);
            if let Some(t0) = t0 {
                self.m_phase_ns.0 += t0.elapsed().as_nanos() as u64;
            }

            // 2. Pop every warp that is due and step the batch in SM/slot
            //    order — the exact order the scan scheduler visits warps, so
            //    equal-time steps interleave identically.
            let mut batch: Vec<(usize, usize)> = Vec::new();
            while let Some(&Reverse((t, sm_idx, widx))) = self.ready.peek() {
                if t > now.raw() {
                    break;
                }
                self.ready.pop();
                batch.push((sm_idx, widx));
            }
            batch.sort_unstable();

            // Phase B (threaded runs): hand the plan-capable due warps to the
            // workers in SM-affine partitions (warp of SM s plans on worker
            // s % workers) while the coordinator parks at the barrier. The
            // commit walk below then finalises every step in canonical
            // (sm, slot) order. A single capable warp gains nothing from a
            // barrier round trip, so the window only opens for two or more.
            let mut tasks: Vec<PlanTask> = Vec::new();
            if driver.parallel_warps() && batch.len() >= 2 {
                let mut prev: Option<(usize, usize)> = None;
                for &(sm_idx, widx) in &batch {
                    if prev == Some((sm_idx, widx)) {
                        continue; // duplicate heap entry: one plan per warp
                    }
                    prev = Some((sm_idx, widx));
                    let w = &mut self.sms[sm_idx].warps[widx];
                    if w.done || !w.plan_capable {
                        continue;
                    }
                    let ctx = WarpCtx {
                        now,
                        warp: w.id,
                        lanes: self.gpu.warp_size,
                        clock_ghz: self.gpu.clock_ghz,
                    };
                    tasks.push(PlanTask {
                        sm: sm_idx,
                        widx,
                        state: w.state.as_mut() as *mut dyn WarpKernel,
                        ctx,
                        planned: false,
                    });
                }
                if tasks.len() >= 2 {
                    let t0 = time_phases.then(std::time::Instant::now);
                    driver.plan_warps(&mut tasks, now);
                    if let Some(t0) = t0 {
                        self.m_phase_ns.1 += t0.elapsed().as_nanos() as u64;
                    }
                } else {
                    tasks.clear();
                }
            }

            // Commit walk: canonical (sm, slot) order. Serial-class steps
            // (kernels that never plan, declined plans, duplicate wakes) mark
            // the epoch dirty so every later planned commit re-validates its
            // snapshot of shared state — snapshot, validate, retry.
            let mut progressed = false;
            let mut retired_blocks: Vec<(usize, usize)> = Vec::new(); // (sm, slot)
            let (mut steps, mut stale) = (0u64, 0u64);
            let t0 = time_phases.then(std::time::Instant::now);
            let mut epoch_clean = true;
            let mut ti = 0usize;
            for (sm_idx, widx) in batch {
                let planned = match tasks.get(ti) {
                    Some(t) if t.sm == sm_idx && t.widx == widx => {
                        ti += 1;
                        Some(tasks[ti - 1].planned)
                    }
                    _ => None,
                };
                if self.sms[sm_idx].warps[widx].done {
                    stale += 1;
                    continue;
                }
                steps += 1;
                let (wake, progress) = match planned {
                    Some(true) => {
                        self.m_partition_steps[sm_idx % workers] += 1;
                        self.commit_warp(sm_idx, widx, now, &mut retired_blocks, epoch_clean)
                    }
                    _ => {
                        epoch_clean = false;
                        self.step_warp(sm_idx, widx, now, &mut retired_blocks)
                    }
                };
                if let Some(at) = wake {
                    self.ready.push(Reverse((at.raw(), sm_idx, widx)));
                }
                progressed |= progress;
            }
            if let Some(t0) = t0 {
                self.m_phase_ns.2 += t0.elapsed().as_nanos() as u64;
            }
            self.m_steps += steps;
            self.m_stale += stale;
            if self.rounds.is_multiple_of(self.metrics_flush_interval) {
                self.flush_metrics();
            }

            // 3. Place pending blocks freed capacity admits. The event loop
            //    never compacts the warp lists (heap entries index into
            //    them); `place_block` enqueues the new warps at `now`.
            if !retired_blocks.is_empty() {
                self.fill_sms();
            }

            if progressed {
                last_progress = now;
            } else if now.saturating_sub(last_progress) > self.deadlock_window {
                deadlocked = true;
                break;
            }

            if self.all_user_kernels_complete() {
                break;
            }

            // 4. Advance to the next warp wake. Entries still at ≤ now are
            //    warps placed this round: like the scan scheduler, they step
            //    at the next *visited* time point, which then must also
            //    consider device events (the scan scheduler would have woken
            //    there).
            let mut placed_now: Vec<(u64, usize, usize)> = Vec::new();
            while let Some(&Reverse(e)) = self.ready.peek() {
                if e.0 > now.raw() {
                    break;
                }
                self.ready.pop();
                placed_now.push(e);
            }
            let next_warp = self.ready.peek().map(|Reverse((t, _, _))| Cycles(*t));
            let need_dev_wake = !placed_now.is_empty() || next_warp.is_none();
            for e in placed_now {
                self.ready.push(Reverse(e));
            }
            let next_dev = if need_dev_wake {
                self.next_device_event(driver, now)
            } else {
                None
            };
            let next = match (next_warp, next_dev) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => now + Cycles(1),
            };
            if next <= now {
                self.clock.advance(Cycles(1));
            } else {
                self.clock.advance_to(next);
            }
            if self.clock.now() > self.max_cycles {
                deadlocked = true;
                break;
            }
        }

        // Final device sync so statistics reflect everything visible at the
        // end (and the mailboxes are fully drained).
        let now = self.clock.now();
        self.advance_devices(driver, now);
        self.finish_run(start, deadlocked)
    }

    /// The pre-ready-queue scheduler: every round scans every resident warp
    /// and the clock wakes at every device event. Behaviourally identical to
    /// [`Engine::event_loop`]; kept for equivalence tests and wall-time
    /// comparisons.
    fn full_scan_loop(&mut self, driver: &mut dyn DeviceDriver) -> ExecutionReport {
        // The scan does not maintain the heap; drop stale entries so they do
        // not accumulate across runs.
        self.ready.clear();
        let start = self.clock.now();
        let mut last_progress = self.clock.now();
        let mut deadlocked = false;

        while !self.all_user_kernels_complete() {
            self.rounds += 1;
            let now = self.clock.now();

            // 1. Let devices catch up so completions are visible to warps.
            self.advance_devices(driver, now);

            // 2. Step every ready warp once.
            let mut progressed = false;
            let mut retired_blocks: Vec<(usize, usize)> = Vec::new(); // (sm, slot)
            let mut steps = 0u64;
            for sm_idx in 0..self.sms.len() {
                for widx in 0..self.sms[sm_idx].warps.len() {
                    {
                        let w = &self.sms[sm_idx].warps[widx];
                        if w.done || w.ready_at > now {
                            continue;
                        }
                    }
                    steps += 1;
                    let (_, progress) = self.step_warp(sm_idx, widx, now, &mut retired_blocks);
                    progressed |= progress;
                }
            }
            self.m_steps += steps;
            if self.rounds.is_multiple_of(self.metrics_flush_interval) {
                self.flush_metrics();
            }

            // 3. Clean up retired blocks and place pending ones.
            if !retired_blocks.is_empty() {
                for sm in &mut self.sms {
                    sm.compact();
                }
                self.fill_sms();
                self.ready.clear();
            }

            if progressed {
                last_progress = now;
            } else if now.saturating_sub(last_progress) > self.deadlock_window {
                deadlocked = true;
                break;
            }

            if self.all_user_kernels_complete() {
                break;
            }

            // 4. Advance time to the next interesting moment.
            let next_warp = self
                .sms
                .iter()
                .flat_map(|sm| sm.warps.iter())
                .filter(|w| !w.done)
                .map(|w| w.ready_at)
                .filter(|&t| t > now)
                .min();
            let next_dev = self.next_device_event(driver, now);
            let next = match (next_warp, next_dev) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                // Nothing scheduled: either we are done (checked above) or
                // every warp is ready right now — re-run immediately with a
                // minimal time bump to guarantee forward motion of the clock.
                (None, None) => now + Cycles(1),
            };
            if next <= now {
                self.clock.advance(Cycles(1));
            } else {
                self.clock.advance_to(next);
            }
            if self.clock.now() > self.max_cycles {
                deadlocked = true;
                break;
            }
        }

        let now = self.clock.now();
        self.advance_devices(driver, now);
        self.finish_run(start, deadlocked)
    }

    /// Final metric flush + report assembly shared by all schedulers (the
    /// loops have already synced the devices to the end time).
    fn finish_run(&mut self, start: Cycles, deadlocked: bool) -> ExecutionReport {
        self.flush_metrics();

        let elapsed = self.clock.now() - start;
        ExecutionReport {
            elapsed,
            elapsed_secs: elapsed.to_secs(self.gpu.clock_ghz),
            kernels: self
                .kernels
                .iter()
                .map(|k| KernelReport {
                    name: k.name.clone(),
                    id: k.id.0,
                    warps: k.warps,
                    busy_cycles: k.busy.raw(),
                    stall_cycles: k.stall.raw(),
                    steps: k.steps,
                    completed_at: k.completed_at.map(|c| c.raw()).unwrap_or(0),
                    persistent: k.launch.persistent,
                })
                .collect(),
            deadlocked,
            rounds: self.rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ComputeOnlyKernel;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn compute_only_kernel_time_matches_work() {
        let mut eng = Engine::new(GpuConfig::tiny(2));
        // 4 blocks × 2 warps, each warp busy for 1000 cycles in 2 steps.
        eng.launch(
            LaunchConfig::new(4, 64).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(1000),
                steps: 2,
            }),
        );
        let report = eng.run();
        assert!(!report.deadlocked);
        // Everything fits concurrently, so elapsed ≈ 1000 cycles (+ rounding).
        assert!(
            report.elapsed.raw() >= 1000 && report.elapsed.raw() < 1100,
            "elapsed {}",
            report.elapsed
        );
        let k = &report.kernels[0];
        assert_eq!(k.warps, 8);
        assert_eq!(k.busy_cycles, 8 * 1000);
    }

    #[test]
    fn waves_serialize_when_grid_exceeds_capacity() {
        // tiny(1): at most 4 resident blocks per SM. Launch 16 single-warp
        // blocks of 1000 cycles: needs four waves ⇒ elapsed ≈ 4000 cycles.
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.launch(
            LaunchConfig::new(16, 32).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(1000),
                steps: 1,
            }),
        );
        let report = eng.run();
        assert!(!report.deadlocked);
        assert!(
            report.elapsed.raw() >= 4000 && report.elapsed.raw() < 4400,
            "elapsed {}",
            report.elapsed
        );
    }

    /// A kernel whose warps wait for an external "device" to flip a flag.
    struct WaitingKernel {
        flag: Arc<AtomicU64>,
    }
    struct WaitingWarp {
        flag: Arc<AtomicU64>,
        issued: bool,
    }
    impl crate::kernel::WarpKernel for WaitingWarp {
        fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
            if !self.issued {
                self.issued = true;
                return WarpStep::Busy(Cycles(10));
            }
            if self.flag.load(Ordering::Acquire) == 1 {
                WarpStep::Done
            } else {
                WarpStep::Stall {
                    retry_after: Cycles(100),
                }
            }
        }
    }
    impl KernelFactory for WaitingKernel {
        fn create_warp(&self, _b: u32, _w: u32) -> Box<dyn crate::kernel::WarpKernel> {
            Box::new(WaitingWarp {
                flag: Arc::clone(&self.flag),
                issued: false,
            })
        }
        fn name(&self) -> &str {
            "waiting"
        }
    }

    /// Device that flips the flag at a fixed time.
    struct FlagDevice {
        flag: Arc<AtomicU64>,
        at: Cycles,
        fired: bool,
    }
    impl ExternalDevice for FlagDevice {
        fn advance_to(&mut self, now: Cycles) {
            if !self.fired && now >= self.at {
                self.flag.store(1, Ordering::Release);
                self.fired = true;
            }
        }
        fn next_event_time(&mut self) -> Option<Cycles> {
            (!self.fired).then_some(self.at)
        }
        fn quiescent(&self) -> bool {
            self.fired
        }
    }

    #[test]
    fn warps_wake_when_device_event_fires() {
        let flag = Arc::new(AtomicU64::new(0));
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.add_device(Box::new(FlagDevice {
            flag: Arc::clone(&flag),
            at: Cycles(50_000),
            fired: false,
        }));
        eng.launch(
            LaunchConfig::new(2, 32).with_registers(16),
            Box::new(WaitingKernel { flag }),
        );
        let report = eng.run();
        assert!(!report.deadlocked);
        // Completion should land shortly after the device event.
        assert!(
            report.elapsed.raw() >= 50_000 && report.elapsed.raw() < 51_000,
            "elapsed {}",
            report.elapsed
        );
        let k = &report.kernels[0];
        assert!(k.stall_cycles > 0, "warps should have recorded stall time");
    }

    #[test]
    fn deadlock_is_detected_when_no_progress_is_possible() {
        // Flag never flips and there is no device: warps stall forever.
        let flag = Arc::new(AtomicU64::new(0));
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.set_deadlock_window(Cycles(100_000));
        eng.launch(
            LaunchConfig::new(1, 32).with_registers(16),
            Box::new(WaitingKernel { flag }),
        );
        let report = eng.run();
        assert!(report.deadlocked);
    }

    #[test]
    fn persistent_kernel_does_not_gate_completion() {
        struct Forever;
        struct ForeverWarp;
        impl crate::kernel::WarpKernel for ForeverWarp {
            fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
                WarpStep::Busy(Cycles(500))
            }
        }
        impl KernelFactory for Forever {
            fn create_warp(&self, _b: u32, _w: u32) -> Box<dyn crate::kernel::WarpKernel> {
                Box::new(ForeverWarp)
            }
            fn name(&self) -> &str {
                "service"
            }
        }
        let mut eng = Engine::new(GpuConfig::tiny(2));
        eng.launch(
            LaunchConfig::new(1, 32).with_registers(16).persistent(),
            Box::new(Forever),
        );
        eng.launch(
            LaunchConfig::new(2, 32).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(2000),
                steps: 2,
            }),
        );
        let report = eng.run();
        assert!(!report.deadlocked);
        assert!(report.elapsed.raw() < 3000);
        let service = report.kernel("service").unwrap();
        assert!(service.persistent);
        assert_eq!(service.completed_at, 0);
        assert!(service.busy_cycles > 0);
    }

    #[test]
    #[should_panic(expected = "footprint too large")]
    fn launch_rejects_impossible_footprint() {
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.launch(
            LaunchConfig::new(1, 256).with_registers(255),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(10),
                steps: 1,
            }),
        );
    }

    /// A periodically-firing device; flips `flag` once it has fired
    /// `fires` times.
    struct Ticker {
        flag: Arc<AtomicU64>,
        at: Cycles,
        period: Cycles,
        fires: u32,
        fired: u32,
    }
    impl Ticker {
        fn new(flag: Arc<AtomicU64>, start: u64, period: u64, fires: u32) -> Self {
            Ticker {
                flag,
                at: Cycles(start),
                period: Cycles(period),
                fires,
                fired: 0,
            }
        }
    }
    impl ExternalDevice for Ticker {
        fn advance_to(&mut self, now: Cycles) {
            while self.fired < self.fires && now >= self.at {
                self.fired += 1;
                self.at += self.period;
                if self.fired == self.fires {
                    self.flag.fetch_add(1, Ordering::Release);
                }
            }
        }
        fn next_event_time(&mut self) -> Option<Cycles> {
            (self.fired < self.fires).then_some(self.at)
        }
        fn quiescent(&self) -> bool {
            self.fired >= self.fires
        }
    }

    #[test]
    fn schedulers_are_equivalent_and_event_queue_visits_fewer_rounds() {
        // A stalling kernel plus a periodically-firing device: the scan
        // wakes at every device event, the event queue only at warp wakes —
        // identical execution, fewer rounds.
        let run = |sched: EngineSched| {
            let flag = Arc::new(AtomicU64::new(0));
            let mut eng = Engine::new(GpuConfig::tiny(2));
            eng.set_scheduler(sched);
            eng.add_device(Box::new(Ticker::new(Arc::clone(&flag), 100, 313, 100)));
            eng.launch(
                LaunchConfig::new(2, 64).with_registers(16),
                Box::new(WaitingKernel { flag }),
            );
            eng.run()
        };
        let event = run(EngineSched::EventQueue);
        let scan = run(EngineSched::FullScan);
        assert!(!event.deadlocked && !scan.deadlocked);
        assert_eq!(event.elapsed, scan.elapsed, "bit-identical timing");
        assert_eq!(event.kernels[0].steps, scan.kernels[0].steps);
        assert_eq!(event.kernels[0].busy_cycles, scan.kernels[0].busy_cycles);
        assert_eq!(event.kernels[0].stall_cycles, scan.kernels[0].stall_cycles);
        assert!(
            event.rounds < scan.rounds,
            "the event queue must skip device-only rounds ({} vs {})",
            event.rounds,
            scan.rounds
        );
    }

    /// `WaitingWarp` waits for the flag to reach 1; with `n` tickers each
    /// contributing one increment once exhausted, wait for all of them.
    struct WaitingAllKernel {
        flag: Arc<AtomicU64>,
        want: u64,
    }
    struct WaitingAllWarp {
        flag: Arc<AtomicU64>,
        want: u64,
        issued: bool,
    }
    impl crate::kernel::WarpKernel for WaitingAllWarp {
        fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
            if !self.issued {
                self.issued = true;
                return WarpStep::Busy(Cycles(10));
            }
            if self.flag.load(Ordering::Acquire) >= self.want {
                WarpStep::Done
            } else {
                WarpStep::Stall {
                    retry_after: Cycles(97),
                }
            }
        }
    }
    impl KernelFactory for WaitingAllKernel {
        fn create_warp(&self, _b: u32, _w: u32) -> Box<dyn crate::kernel::WarpKernel> {
            Box::new(WaitingAllWarp {
                flag: Arc::clone(&self.flag),
                want: self.want,
                issued: false,
            })
        }
        fn name(&self) -> &str {
            "waiting-all"
        }
    }

    #[test]
    fn parallel_shards_matches_event_queue_bit_for_bit() {
        // Four independent shard devices with co-prime periods plus a warp
        // that completes only when every one is exhausted: the parallel
        // scheduler must produce the identical report (including `rounds`)
        // for every thread count; thread counts beyond the device count just
        // leave the surplus workers with empty partitions.
        let run = |sched: EngineSched| {
            let flag = Arc::new(AtomicU64::new(0));
            let mut eng = Engine::new(GpuConfig::tiny(2));
            eng.set_scheduler(sched);
            for (start, period, fires) in [
                (100, 313, 60),
                (150, 401, 50),
                (60, 257, 70),
                (220, 199, 90),
            ] {
                eng.add_shard_device(Box::new(Ticker::new(
                    Arc::clone(&flag),
                    start,
                    period,
                    fires,
                )));
            }
            eng.launch(
                LaunchConfig::new(2, 64).with_registers(16),
                Box::new(WaitingAllKernel { flag, want: 4 }),
            );
            eng.run()
        };
        let base = run(EngineSched::EventQueue);
        assert!(!base.deadlocked);
        for threads in [1usize, 2, 3, 4, 8] {
            let par = run(EngineSched::ParallelShards(threads));
            assert_eq!(par.elapsed, base.elapsed, "threads={threads}");
            assert_eq!(par.rounds, base.rounds, "threads={threads}");
            assert_eq!(par.kernels[0].steps, base.kernels[0].steps);
            assert_eq!(par.kernels[0].busy_cycles, base.kernels[0].busy_cycles);
            assert_eq!(par.kernels[0].stall_cycles, base.kernels[0].stall_cycles);
        }
    }

    /// Appends its id to a shared log on every `advance_to` with a fresh
    /// timestamp — a probe for the device advance order.
    struct OrderProbe {
        id: u32,
        log: Arc<Mutex<Vec<u32>>>,
        last: Option<Cycles>,
    }
    impl ExternalDevice for OrderProbe {
        fn advance_to(&mut self, now: Cycles) {
            if self.last != Some(now) {
                self.last = Some(now);
                self.log.lock().unwrap().push(self.id);
            }
        }
        fn next_event_time(&mut self) -> Option<Cycles> {
            None
        }
        fn quiescent(&self) -> bool {
            true
        }
    }

    struct ProbeMailbox {
        id: u32,
        log: Arc<Mutex<Vec<u32>>>,
    }
    impl EpochMailbox for ProbeMailbox {
        fn drain(&self) {
            let mut log = self.log.lock().unwrap();
            // Dedup like the probes: one entry per epoch boundary.
            if log.last() != Some(&self.id) {
                log.push(self.id);
            }
        }
    }

    #[test]
    fn device_advance_order_is_shard_then_mailboxes_then_passive() {
        // The determinism contract: shard devices in add order, then the
        // mailboxes in registration order, then passive devices in add
        // order — every round.
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut eng = Engine::new(GpuConfig::tiny(1));
        for id in [0u32, 1] {
            eng.add_shard_device(Box::new(OrderProbe {
                id,
                log: Arc::clone(&log),
                last: None,
            }));
        }
        eng.add_mailbox(Arc::new(ProbeMailbox {
            id: 100,
            log: Arc::clone(&log),
        }));
        for id in [10u32, 11] {
            eng.add_device(Box::new(OrderProbe {
                id,
                log: Arc::clone(&log),
                last: None,
            }));
        }
        eng.launch(
            LaunchConfig::new(1, 32).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(10),
                steps: 1,
            }),
        );
        eng.run();
        let log = log.lock().unwrap();
        assert!(log.len() >= 5, "probe log too short: {log:?}");
        assert_eq!(
            &log[..5],
            &[0, 1, 100, 10, 11],
            "advance order must be shard devices, mailboxes, passive devices"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "determinism contract")]
    fn shard_devices_must_precede_passive_devices() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.add_device(Box::new(OrderProbe {
            id: 10,
            log: Arc::clone(&log),
            last: None,
        }));
        eng.add_shard_device(Box::new(OrderProbe {
            id: 0,
            log,
            last: None,
        }));
    }

    #[test]
    fn final_metrics_flush_is_never_lost() {
        // A flush interval far larger than the run's round count: the only
        // flush is the final one in `finish_run`, and it must still land the
        // exact totals in the registry.
        let registry = std::sync::Arc::new(agile_metrics::MetricsRegistry::new());
        let mut eng = Engine::new(GpuConfig::tiny(2));
        eng.set_metrics(EngineMetrics::bind(&registry));
        eng.set_metrics_flush_interval(u64::MAX / 2);
        eng.launch(
            LaunchConfig::new(4, 64).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(1000),
                steps: 3,
            }),
        );
        let report = eng.run();
        assert!(!report.deadlocked);
        use agile_metrics::Labels;
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("agile_engine_rounds_total", Labels::NONE),
            report.rounds,
            "final partial flush must deliver every round"
        );
        let steps: u64 = report.kernels.iter().map(|k| k.steps).sum();
        assert_eq!(
            snap.counter("agile_engine_warp_steps_total", Labels::NONE),
            steps,
            "final partial flush must deliver every warp step"
        );
        assert!(snap.gauge("agile_engine_ready_queue_high_water", Labels::NONE) > 0);
    }

    #[test]
    #[should_panic(expected = "at least 1 round")]
    fn zero_flush_interval_is_rejected() {
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.set_metrics_flush_interval(0);
    }

    #[test]
    fn parallel_run_emits_epoch_and_thread_metrics() {
        let registry = std::sync::Arc::new(agile_metrics::MetricsRegistry::new());
        let flag = Arc::new(AtomicU64::new(0));
        let mut eng = Engine::new(GpuConfig::tiny(2));
        eng.set_scheduler(EngineSched::ParallelShards(2));
        eng.set_metrics(EngineMetrics::bind(&registry));
        for (start, period) in [(100, 313), (150, 401), (60, 257), (220, 199)] {
            eng.add_shard_device(Box::new(Ticker::new(Arc::clone(&flag), start, period, 50)));
        }
        eng.launch(
            LaunchConfig::new(2, 64).with_registers(16),
            Box::new(WaitingAllKernel { flag, want: 4 }),
        );
        let report = eng.run();
        assert!(!report.deadlocked);
        use agile_metrics::Labels;
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("agile_engine_thread_count", Labels::NONE), 2);
        assert!(snap.counter("agile_engine_epoch_advances_total", Labels::NONE) >= report.rounds);
        let advances: u64 = (0..2)
            .map(|t| {
                snap.counter(
                    "agile_engine_thread_device_advances_total",
                    Labels::partition(t),
                )
            })
            .sum();
        assert!(advances > 0, "workers must report their device advances");
        assert_eq!(
            snap.gauge("agile_engine_thread_devices", Labels::partition(0)),
            2
        );
        assert_eq!(
            snap.gauge("agile_engine_thread_devices", Labels::partition(1)),
            2
        );
    }

    #[test]
    fn sequential_run_emits_no_parallel_metric_families() {
        let registry = std::sync::Arc::new(agile_metrics::MetricsRegistry::new());
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.set_metrics(EngineMetrics::bind(&registry));
        eng.launch(
            LaunchConfig::new(1, 32).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(10),
                steps: 1,
            }),
        );
        eng.run();
        let snap = registry.snapshot();
        assert!(
            !snap.samples.iter().any(|s| {
                s.name.starts_with("agile_engine_epoch_")
                    || s.name.starts_with("agile_engine_thread_")
                    || s.name.starts_with("agile_engine_phase_")
                    || s.name.starts_with("agile_engine_warp_partition_")
            }),
            "unthreaded runs must not create the parallel metric families"
        );
    }

    #[test]
    fn barrier_spin_limit_zero_is_bit_identical() {
        // Spin limit 0 forces every barrier wait straight onto the
        // `thread::yield_now` fallback — the path a 1-core box lives on,
        // where spinning can never observe progress. The run must terminate
        // and stay bit-identical to the sequential scheduler.
        let run = |sched: EngineSched, limit: Option<u32>| {
            let flag = Arc::new(AtomicU64::new(0));
            let mut eng = Engine::new(GpuConfig::tiny(2));
            eng.set_scheduler(sched);
            if let Some(limit) = limit {
                eng.set_barrier_spin_limit(limit);
            }
            for (start, period, fires) in [(100, 313, 40), (150, 401, 30), (60, 257, 50)] {
                eng.add_shard_device(Box::new(Ticker::new(
                    Arc::clone(&flag),
                    start,
                    period,
                    fires,
                )));
            }
            eng.launch(
                LaunchConfig::new(2, 64).with_registers(16),
                Box::new(WaitingAllKernel { flag, want: 3 }),
            );
            eng.run()
        };
        let base = run(EngineSched::EventQueue, None);
        assert!(!base.deadlocked);
        for limit in [0u32, 1, 4096] {
            let par = run(EngineSched::ParallelShards(3), Some(limit));
            assert_eq!(par.elapsed, base.elapsed, "spin limit {limit}");
            assert_eq!(par.rounds, base.rounds, "spin limit {limit}");
            assert_eq!(par.kernels[0].steps, base.kernels[0].steps);
        }
    }

    /// A plan-capable kernel: the plan tallies itself into a commutative
    /// counter, the commit observes the epoch-clean flag and then behaves
    /// exactly like `step`.
    struct PlannedKernel {
        plans: Arc<AtomicU64>,
        dirty_commits: Arc<AtomicU64>,
        steps: u32,
    }
    struct PlannedWarp {
        plans: Arc<AtomicU64>,
        dirty_commits: Arc<AtomicU64>,
        left: u32,
    }
    impl PlannedWarp {
        fn advance(&mut self) -> WarpStep {
            if self.left == 0 {
                return WarpStep::Done;
            }
            self.left -= 1;
            WarpStep::Busy(Cycles(100))
        }
    }
    impl crate::kernel::WarpKernel for PlannedWarp {
        fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
            self.advance()
        }
        fn parallel_capable(&self) -> bool {
            true
        }
        fn plan_step(&mut self, _ctx: &WarpCtx) -> bool {
            self.plans.fetch_add(1, Ordering::Relaxed);
            true
        }
        fn commit_step(&mut self, _ctx: &WarpCtx, epoch_clean: bool) -> WarpStep {
            if !epoch_clean {
                self.dirty_commits.fetch_add(1, Ordering::Relaxed);
            }
            self.advance()
        }
    }
    impl KernelFactory for PlannedKernel {
        fn create_warp(&self, _b: u32, _w: u32) -> Box<dyn crate::kernel::WarpKernel> {
            Box::new(PlannedWarp {
                plans: Arc::clone(&self.plans),
                dirty_commits: Arc::clone(&self.dirty_commits),
                left: self.steps,
            })
        }
        fn name(&self) -> &str {
            "planned"
        }
    }

    #[test]
    fn plan_capable_warps_are_planned_and_stay_bit_identical() {
        // All-capable epochs: workers plan every due warp, the coordinator
        // commits with `epoch_clean == true` throughout, and the report is
        // bit-identical to the sequential scheduler.
        let run = |sched: EngineSched| {
            let plans = Arc::new(AtomicU64::new(0));
            let dirty = Arc::new(AtomicU64::new(0));
            let mut eng = Engine::new(GpuConfig::tiny(2));
            eng.set_scheduler(sched);
            eng.launch(
                LaunchConfig::new(4, 32).with_registers(16),
                Box::new(PlannedKernel {
                    plans: Arc::clone(&plans),
                    dirty_commits: Arc::clone(&dirty),
                    steps: 20,
                }),
            );
            let report = eng.run();
            (
                report,
                plans.load(Ordering::Relaxed),
                dirty.load(Ordering::Relaxed),
            )
        };
        let (base, base_plans, _) = run(EngineSched::EventQueue);
        assert!(!base.deadlocked);
        assert_eq!(base_plans, 0, "sequential runs never call plan_step");
        let (par, par_plans, par_dirty) = run(EngineSched::ParallelShards(2));
        assert_eq!(par.elapsed, base.elapsed);
        assert_eq!(par.rounds, base.rounds);
        assert_eq!(par.kernels[0].steps, base.kernels[0].steps);
        assert_eq!(par.kernels[0].busy_cycles, base.kernels[0].busy_cycles);
        assert!(par_plans > 0, "threaded run must plan the capable warps");
        assert_eq!(
            par_dirty, 0,
            "epochs of only plan-capable warps must commit clean"
        );
    }

    #[test]
    fn serial_warps_dirty_the_epoch_for_later_commits() {
        // Mixed epochs: a serial (non-capable) kernel co-resident with the
        // plan-capable one flips `epoch_clean` off for any capable commit
        // after it in canonical order — and the run stays bit-identical.
        let run = |sched: EngineSched| {
            let plans = Arc::new(AtomicU64::new(0));
            let dirty = Arc::new(AtomicU64::new(0));
            let mut eng = Engine::new(GpuConfig::tiny(2));
            eng.set_scheduler(sched);
            // The serial kernel lands on SM 0 first; capable warps that
            // share its batch and sort after it see a dirty epoch.
            eng.launch(
                LaunchConfig::new(1, 32).with_registers(16),
                Box::new(ComputeOnlyKernel {
                    cycles_per_warp: Cycles(2_000),
                    steps: 20,
                }),
            );
            eng.launch(
                LaunchConfig::new(4, 32).with_registers(16),
                Box::new(PlannedKernel {
                    plans: Arc::clone(&plans),
                    dirty_commits: Arc::clone(&dirty),
                    steps: 20,
                }),
            );
            let report = eng.run();
            (
                report,
                plans.load(Ordering::Relaxed),
                dirty.load(Ordering::Relaxed),
            )
        };
        let (base, _, base_dirty) = run(EngineSched::EventQueue);
        assert!(!base.deadlocked);
        assert_eq!(base_dirty, 0);
        let (par, par_plans, par_dirty) = run(EngineSched::ParallelShards(2));
        assert_eq!(par.elapsed, base.elapsed);
        assert_eq!(par.rounds, base.rounds);
        for k in 0..2 {
            assert_eq!(par.kernels[k].steps, base.kernels[k].steps);
            assert_eq!(par.kernels[k].busy_cycles, base.kernels[k].busy_cycles);
        }
        assert!(par_plans > 0, "capable warps must still be planned");
        assert!(
            par_dirty > 0,
            "serial steps in the batch must dirty the epoch for later commits"
        );
    }

    #[test]
    fn full_scan_handles_waves_like_the_event_queue() {
        for sched in [EngineSched::EventQueue, EngineSched::FullScan] {
            let mut eng = Engine::new(GpuConfig::tiny(1));
            eng.set_scheduler(sched);
            eng.launch(
                LaunchConfig::new(16, 32).with_registers(16),
                Box::new(ComputeOnlyKernel {
                    cycles_per_warp: Cycles(1000),
                    steps: 1,
                }),
            );
            let report = eng.run();
            assert!(!report.deadlocked);
            assert!(
                report.elapsed.raw() >= 4000 && report.elapsed.raw() < 4400,
                "{sched:?} elapsed {}",
                report.elapsed
            );
        }
    }

    #[test]
    fn report_lookup_by_name() {
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.launch(
            LaunchConfig::new(1, 32).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(10),
                steps: 1,
            }),
        );
        let report = eng.run();
        assert!(report.kernel("compute-only").is_some());
        assert!(report.kernel("missing").is_none());
    }
}
