//! The multi-SSD storage topology.
//!
//! The paper's scaling experiments (Figures 5 and 6) attach up to three SSDs
//! to the host and stripe requests across them in an interleaved fashion
//! ("requests 0, 2, 4, … are issued to SSD1, while requests 1, 3, 5, … are
//! directed to SSD2"). [`ShardedArray`] generalises that design: the devices
//! are partitioned into N lock shards, each with its **own** modeled lock,
//! so submissions to different shards no longer serialise against each
//! other. One shard — the hosts' default — is the paper's single-lock array,
//! where every submission serialises on the same lock (the scale-out
//! blocker at production device counts).
//!
//! The **page-striping layer** maps a global page index to
//! `(shard, device, device-local page)` via [`ShardedArray::map_page`], so
//! workloads address one linear page space at any shard count. The
//! device/page mapping depends only on the device count — only the lock
//! partitioning differs — which is exactly what makes one-shard-vs-N-shard
//! benchmark comparisons attribute their delta to the lock.
//!
//! The lock itself is *modeled*: real GPU-side array implementations guard
//! SQ-slot allocation and the doorbell update with a critical section, so
//! [`ShardedArray::lock_acquire`] charges each submission the FIFO wait
//! behind earlier holders plus its own hold time (see [`TopologyLock`]).
//! The simulation stays single-threaded and deterministic; the contention
//! shows up as cycles charged to the issuing warp.
//!
//! [`DeviceSet`] is the lock-free building block the array is made of.

use crate::backing::{MemBacking, PageBacking};
use crate::device::{DeviceStats, SsdConfig, SsdDevice};
use crate::queue::QueuePair;
use crate::spec::{Lba, QueueId};
use agile_sim::trace::TraceSink;
use agile_sim::Cycles;
use parking_lot::Mutex;
use std::sync::Arc;

/// A set of SSDs addressed by device index, each behind its **own** mutex —
/// the building block [`ShardedArray`] is made of.
///
/// Per-device locking is what makes device-affine engine partitioning pay:
/// two workers advancing different devices of the *same* lock shard never
/// contend (the shard lock is a submission-cost *model*, see
/// [`TopologyLock`]; it is not a concurrency primitive here). All methods
/// take `&self` and lock only the devices they touch.
pub struct DeviceSet {
    devices: Vec<Mutex<SsdDevice>>,
}

impl DeviceSet {
    /// Build `count` devices with default configuration and token-only memory
    /// backings.
    pub fn new(count: usize) -> Self {
        let devices = (0..count)
            .map(|i| {
                Mutex::new(SsdDevice::new(
                    SsdConfig::new(i as u32),
                    Arc::new(MemBacking::new(i as u32)) as Arc<dyn PageBacking>,
                ))
            })
            .collect();
        DeviceSet { devices }
    }

    /// Build from explicit (config, backing) pairs.
    pub fn from_parts(parts: Vec<(SsdConfig, Arc<dyn PageBacking>)>) -> Self {
        let devices = parts
            .into_iter()
            .map(|(cfg, backing)| Mutex::new(SsdDevice::new(cfg, backing)))
            .collect();
        DeviceSet { devices }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the set holds no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Lock and access a device (registration, advancing, stats).
    pub fn device(&self, idx: usize) -> parking_lot::MutexGuard<'_, SsdDevice> {
        self.devices[idx].lock()
    }

    /// Register `queues_per_device` queue pairs of `depth` entries on every
    /// device and return them grouped by device.
    pub fn register_queues(
        &self,
        queues_per_device: usize,
        depth: u32,
    ) -> Vec<Vec<Arc<QueuePair>>> {
        self.devices
            .iter()
            .map(|dev| {
                let mut dev = dev.lock();
                (0..queues_per_device)
                    .map(|q| {
                        let qp = QueuePair::new(q as QueueId, depth);
                        dev.register_queue_pair(Arc::clone(&qp));
                        qp
                    })
                    .collect()
            })
            .collect()
    }

    /// Install a trace sink on every device's completion path (see
    /// [`SsdDevice::set_trace_sink`]). Returns `false` if any device already
    /// had a sink.
    pub fn set_trace_sink(&self, sink: &Arc<dyn TraceSink>) -> bool {
        let mut all_fresh = true;
        for dev in &self.devices {
            all_fresh &= dev.lock().set_trace_sink(Arc::clone(sink));
        }
        all_fresh
    }

    /// Install a trace sink on one device's completion path only (the
    /// threaded engine gives each device its own buffering sink). Returns
    /// `false` if the device already had one.
    pub fn set_device_trace_sink(&self, idx: usize, sink: &Arc<dyn TraceSink>) -> bool {
        self.devices[idx].lock().set_trace_sink(Arc::clone(sink))
    }

    /// Advance only device `idx` to `now`. Devices are mutually independent
    /// between advancement boundaries, so callers may advance different
    /// devices concurrently.
    pub fn advance_device_to(&self, idx: usize, now: Cycles) {
        self.devices[idx].lock().advance_to(now);
    }

    /// Earliest pending event across all devices.
    pub fn next_event_time(&self) -> Option<Cycles> {
        self.devices
            .iter()
            .filter_map(|d| d.lock().next_event_time())
            .min()
    }

    /// Earliest pending event on device `idx`.
    pub fn device_next_event_time(&self, idx: usize) -> Option<Cycles> {
        self.devices[idx].lock().next_event_time()
    }

    /// True when every device is idle.
    pub fn quiescent(&self) -> bool {
        self.devices.iter().all(|d| d.lock().quiescent())
    }

    /// True when device `idx` is idle.
    pub fn device_quiescent(&self, idx: usize) -> bool {
        self.devices[idx].lock().quiescent()
    }

    /// Sum of bytes read across devices.
    pub fn total_bytes_read(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.lock().stats().bytes_read)
            .sum()
    }

    /// Sum of bytes written across devices.
    pub fn total_bytes_written(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.lock().stats().bytes_written)
            .sum()
    }

    /// Smallest namespace capacity across devices (0 for an empty set) —
    /// the per-device extent of the striped global page space.
    pub fn min_namespace_pages(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.lock().config().namespace_pages)
            .min()
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Striping
// ---------------------------------------------------------------------------

/// Where a global page lives: which lock shard, which device, which
/// device-local page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageLocation {
    /// Lock shard the owning device belongs to.
    pub shard: u32,
    /// Global device index.
    pub device: u32,
    /// Page index within the device's namespace.
    pub page: Lba,
}

/// How the striping layer places global pages onto devices. Every variant
/// is **bijective** over `devices × pages_per_device` (property-tested in
/// `tests/topology_striping.rs`), so changing the placement re-lays data out
/// without losing or aliasing any page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// The paper's interleave: global page `g` lives on device
    /// `g % devices` at local page `g / devices`. The golden-guarded
    /// default — every checked-in trace replays against it.
    #[default]
    Interleave,
    /// Hash-rotated interleave: the device order of each page *row*
    /// (`devices` consecutive globals sharing a local page) is rotated by a
    /// mixed hash of the row index, so sequential scans spread diagonally
    /// instead of lock-stepping device 0, 1, 2, … — the first alternative
    /// layout for data-placement experiments (range- and tenant-affine
    /// variants are follow-ups).
    Hash,
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mix.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Striping under the given placement seed, independent of the shard count.
/// Bijective by construction: `Interleave` is the classic division pair;
/// `Hash` permutes the device index within each page row (a rotation by a
/// hash of the row), which preserves bijectivity row by row.
fn stripe(global: u64, devices: u64, placement: Placement) -> (u32, Lba) {
    debug_assert!(devices > 0);
    let page = global / devices;
    let slot = global % devices;
    let dev = match placement {
        Placement::Interleave => slot,
        Placement::Hash => (slot + mix64(page)) % devices,
    };
    (dev as u32, page)
}

// ---------------------------------------------------------------------------
// The modeled array lock
// ---------------------------------------------------------------------------

/// Default cycles a submission holds the array lock: the critical section
/// covers the SQ-slot claim and the serialized tail-doorbell update — an
/// uncached MMIO write over PCIe, a few hundred nanoseconds — so ~600 GPU
/// cycles at 2.5 GHz. This caps a single lock at ~4M submissions/s: above
/// NVMe saturation for the paper's 1–3 SSD experiments, binding for bursty
/// many-warp submission at production device counts.
pub const DEFAULT_LOCK_HOLD_CYCLES: u64 = 600;

#[derive(Debug, Default, Clone, Copy)]
struct ShardLockState {
    /// Simulated time until which the lock is held by queued acquirers.
    busy_until: u64,
    /// Last (warp, now) that acquired — consecutive acquires by the same
    /// warp within one step extend the hold instead of re-paying the queue
    /// wait (the warp is already past the queue; its later acquires happen
    /// back-to-back in real time even though the step reports one `now`).
    last: Option<(u64, u64)>,
    /// Accumulated FIFO queue-wait cycles charged on this shard (the
    /// contention signal surfaced as `agile_submit_lock_wait_cycles_total`
    /// and the replay summary's `lock_wait=` field).
    wait_cycles: u64,
    /// Total acquisitions charged on this shard.
    acquires: u64,
}

/// Deterministic FIFO model of the per-shard array lock.
///
/// Each acquisition at simulated time `now` waits for every earlier holder
/// (`busy_until - now`, if positive), then holds the lock for `hold` cycles;
/// the total is returned as cycles to charge the issuing warp. One state
/// cell per shard, so acquisitions in different shards never wait on each
/// other — this is the entire modeled difference between a one-shard and
/// an N-shard [`ShardedArray`].
pub struct TopologyLock {
    shards: Vec<Mutex<ShardLockState>>,
    hold: u64,
}

impl TopologyLock {
    /// A lock partitioned into `shards` independent cells.
    pub fn new(shards: usize, hold: u64) -> Self {
        TopologyLock {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(ShardLockState::default()))
                .collect(),
            hold,
        }
    }

    /// Acquire the cell for `shard` on behalf of `warp` at time `now`;
    /// returns the cycles the acquisition costs (queue wait + hold).
    pub fn acquire(&self, shard: usize, warp: u64, now: Cycles) -> Cycles {
        let mut s = self.shards[shard % self.shards.len()].lock();
        let now = now.raw();
        s.acquires += 1;
        if s.last == Some((warp, now)) {
            // Same warp, same step: back-to-back re-acquire, no queue wait.
            s.busy_until += self.hold;
            return Cycles(self.hold);
        }
        let wait = s.busy_until.saturating_sub(now);
        s.busy_until = s.busy_until.max(now) + self.hold;
        s.last = Some((warp, now));
        s.wait_cycles += wait;
        Cycles(wait + self.hold)
    }

    /// Hold cycles per acquisition.
    pub fn hold_cycles(&self) -> u64 {
        self.hold
    }

    /// Accumulated queue-wait cycles per shard, in shard order.
    pub fn wait_by_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.lock().wait_cycles).collect()
    }

    /// Total acquisitions per shard, in shard order.
    pub fn acquires_by_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.lock().acquires).collect()
    }
}

// ---------------------------------------------------------------------------
// ShardedArray
// ---------------------------------------------------------------------------

/// The multi-SSD storage topology: owns the devices, their lock
/// partitioning and the page-striping layer.
///
/// Device `d` belongs to lock shard `d % shards`; the striped data layout
/// depends only on the device count, so any benchmark delta between shard
/// counts is attributable to the lock partitioning alone. One shard (the
/// hosts' default) is the paper's single-lock array. Shard membership is
/// pure arithmetic — the devices live in one global-order [`DeviceSet`], and
/// whole-array advancement visits them in **shard-major** order (shard 0's
/// devices in increasing global order, then shard 1's, …), which is the
/// historical — and golden-gated — sequential event order.
///
/// All methods take `&self` and lock internally, so hosts share the
/// topology as an `Arc<ShardedArray>` between the co-simulation bridges,
/// the controller and workload setup code.
pub struct ShardedArray {
    set: DeviceSet,
    shard_count: usize,
    lock: TopologyLock,
    global_pages: u64,
    placement: Placement,
}

impl ShardedArray {
    /// Build `count` default devices partitioned into `shards` shards.
    pub fn new(count: usize, shards: usize) -> Self {
        ShardedArray::from_set(DeviceSet::new(count), shards)
    }

    /// Partition explicit (config, backing) pairs into `shards` shards,
    /// device `d` → shard `d % shards`.
    pub fn from_parts(parts: Vec<(SsdConfig, Arc<dyn PageBacking>)>, shards: usize) -> Self {
        ShardedArray::from_set(DeviceSet::from_parts(parts), shards)
    }

    fn from_set(set: DeviceSet, shards: usize) -> Self {
        assert!(shards >= 1, "a sharded array needs at least one shard");
        ShardedArray {
            global_pages: set.len() as u64 * set.min_namespace_pages(),
            set,
            shard_count: shards,
            lock: TopologyLock::new(shards, DEFAULT_LOCK_HOLD_CYCLES),
            placement: Placement::default(),
        }
    }

    /// Override the modeled lock-hold cycles (cost-model studies).
    pub fn with_lock_hold(mut self, hold: u64) -> Self {
        self.lock = TopologyLock::new(self.shard_count, hold);
        self
    }

    /// Select the striping layer's placement seed (default:
    /// [`Placement::Interleave`], the golden-guarded paper layout).
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Total devices across all shards.
    pub fn device_count(&self) -> usize {
        self.set.len()
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Lock shard that owns global device `dev`.
    pub fn shard_of(&self, dev: usize) -> usize {
        dev % self.shard_count
    }

    /// Register `per_device` queue pairs of `depth` entries on every device;
    /// returned grouped by global device index.
    pub fn register_queues(&self, per_device: usize, depth: u32) -> Vec<Vec<Arc<QueuePair>>> {
        self.set.register_queues(per_device, depth)
    }

    /// The page backing of global device `dev` (for dataset setup).
    pub fn backing(&self, dev: usize) -> Arc<dyn PageBacking> {
        Arc::clone(self.set.device(dev).backing())
    }

    /// Install a trace sink on every device's completion path. Returns
    /// `false` if any device already had one.
    pub fn set_trace_sink(&self, sink: &Arc<dyn TraceSink>) -> bool {
        self.set.set_trace_sink(sink)
    }

    /// Install a trace sink on one device's completion path only (the
    /// threaded engine gives each device its own buffering sink). Returns
    /// `false` if the device already had one.
    pub fn set_device_trace_sink(&self, dev: usize, sink: &Arc<dyn TraceSink>) -> bool {
        self.set.set_device_trace_sink(dev, sink)
    }

    /// Advance every device to `now`, in [`Self::device_advance_order`].
    pub fn advance_to(&self, now: Cycles) {
        for dev in self.advance_order() {
            self.set.advance_device_to(dev, now);
        }
    }

    /// Earliest pending event across all devices.
    pub fn next_event_time(&self) -> Option<Cycles> {
        self.set.next_event_time()
    }

    /// True when every device is idle.
    pub fn quiescent(&self) -> bool {
        self.set.quiescent()
    }

    /// Advance only global device `dev` to `now`. Devices are mutually
    /// independent between advancement boundaries, so the engine may call
    /// this concurrently for different devices; calling it for
    /// [`Self::device_advance_order`] in order is exactly
    /// [`Self::advance_to`].
    pub fn advance_device_to(&self, dev: usize, now: Cycles) {
        self.set.advance_device_to(dev, now);
    }

    /// Earliest pending event on global device `dev`.
    pub fn device_next_event_time(&self, dev: usize) -> Option<Cycles> {
        self.set.device_next_event_time(dev)
    }

    /// True when global device `dev` is idle.
    pub fn device_quiescent(&self, dev: usize) -> bool {
        self.set.device_quiescent(dev)
    }

    /// Global device indices in sequential advance order: shard 0's devices
    /// in increasing global order, then shard 1's, … Per-device engine
    /// bridges registered in this order reproduce the sequential event
    /// stream byte for byte, which is what keeps the golden traces green at
    /// any worker count.
    pub fn device_advance_order(&self) -> Vec<usize> {
        self.advance_order().collect()
    }

    fn advance_order(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.shard_count).flat_map(|shard| (shard..self.set.len()).step_by(self.shard_count))
    }

    /// Sum of bytes read across devices.
    pub fn total_bytes_read(&self) -> u64 {
        self.set.total_bytes_read()
    }

    /// Sum of bytes written across devices.
    pub fn total_bytes_written(&self) -> u64 {
        self.set.total_bytes_written()
    }

    /// Statistics snapshot of global device `dev`.
    pub fn device_stats(&self, dev: usize) -> DeviceStats {
        self.set.device(dev).stats().clone()
    }

    /// Commands currently in flight on global device `dev` (scheduled
    /// completions plus completions parked on a full CQ) — the per-device
    /// queue-depth gauge.
    pub fn device_inflight(&self, dev: usize) -> u64 {
        self.set.device(dev).inflight()
    }

    /// Extent of the striped global page space
    /// (`device_count × min(namespace_pages)`).
    pub fn global_pages(&self) -> u64 {
        self.global_pages
    }

    /// Map a global page index to `(shard, device, local page)`. The
    /// device/page mapping depends only on the device count and placement,
    /// so arrays with equal device counts lay data out identically at any
    /// shard count.
    pub fn map_page(&self, global: u64) -> PageLocation {
        let (device, page) = stripe(global, self.set.len() as u64, self.placement);
        PageLocation {
            shard: self.shard_of(device as usize) as u32,
            device,
            page,
        }
    }

    /// Charge one submission's pass through the array lock guarding device
    /// `dev`: FIFO wait behind earlier holders plus the hold itself.
    pub fn lock_acquire(&self, dev: usize, warp: u64, now: Cycles) -> Cycles {
        self.lock.acquire(self.shard_of(dev), warp, now)
    }

    /// Accumulated FIFO queue-wait cycles per lock shard, in shard order
    /// (`agile_submit_lock_wait_cycles_total{shard}`).
    pub fn lock_wait_by_shard(&self) -> Vec<u64> {
        self.lock.wait_by_shard()
    }

    /// Total queue-wait cycles across all lock shards.
    pub fn lock_wait_cycles(&self) -> u64 {
        self.lock_wait_by_shard().iter().sum()
    }

    /// Total lock acquisitions per shard, in shard order.
    pub fn lock_acquires_by_shard(&self) -> Vec<u64> {
        self.lock.acquires_by_shard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DmaHandle, NvmeCommand};

    #[test]
    fn construction_and_registration() {
        let arr = DeviceSet::new(3);
        assert_eq!(arr.len(), 3);
        assert!(!arr.is_empty());
        let qps = arr.register_queues(4, 64);
        assert_eq!(qps.len(), 3);
        assert_eq!(qps[0].len(), 4);
        assert_eq!(arr.device(0).queue_pair_count(), 4);
        assert!(arr.quiescent());
        assert_eq!(arr.next_event_time(), None);
    }

    #[test]
    fn totals_start_at_zero() {
        let arr = DeviceSet::new(2);
        assert_eq!(arr.total_bytes_read(), 0);
        assert_eq!(arr.total_bytes_written(), 0);
    }

    #[test]
    fn every_shard_count_stripes_identically() {
        let one = ShardedArray::new(6, 1);
        for shards in [1usize, 2, 3, 6] {
            let sharded = ShardedArray::new(6, shards);
            assert_eq!(sharded.shard_count(), shards);
            assert_eq!(sharded.device_count(), 6);
            for g in 0..600u64 {
                let o = one.map_page(g);
                let s = sharded.map_page(g);
                assert_eq!((o.device, o.page), (s.device, s.page), "page {g}");
                assert_eq!(o.shard, 0);
                assert_eq!(s.shard as usize, s.device as usize % shards);
            }
        }
    }

    #[test]
    fn striping_is_bijective() {
        let arr = ShardedArray::new(4, 2);
        let mut seen = std::collections::HashSet::new();
        for g in 0..4_000u64 {
            let loc = arr.map_page(g);
            assert!(seen.insert((loc.device, loc.page)), "collision at {g}");
        }
    }

    #[test]
    fn sharded_registration_matches_global_device_order() {
        let arr = ShardedArray::new(5, 2);
        let qps = arr.register_queues(2, 64);
        assert_eq!(qps.len(), 5);
        for (dev, dev_qps) in qps.iter().enumerate() {
            assert_eq!(dev_qps.len(), 2);
            assert_eq!(arr.device_stats(dev).reads_completed, 0);
        }
        // Devices 0,2,4 → shard 0; 1,3 → shard 1.
        assert_eq!(arr.shard_of(0), 0);
        assert_eq!(arr.shard_of(1), 1);
        assert_eq!(arr.shard_of(4), 0);
    }

    #[test]
    fn lock_charges_fifo_wait_per_shard() {
        let lock = TopologyLock::new(2, 10);
        // Two warps, same shard, same instant: second waits for the first.
        assert_eq!(lock.acquire(0, 1, Cycles(100)), Cycles(10));
        assert_eq!(lock.acquire(0, 2, Cycles(100)), Cycles(20));
        // A third warp on the *other* shard pays no wait.
        assert_eq!(lock.acquire(1, 3, Cycles(100)), Cycles(10));
        // Same warp re-acquiring within its step only extends the hold.
        assert_eq!(lock.acquire(0, 2, Cycles(100)), Cycles(10));
        // Far in the future the queue has drained.
        assert_eq!(lock.acquire(0, 4, Cycles(10_000)), Cycles(10));
    }

    #[test]
    fn one_shard_serializes_where_many_do_not() {
        let one = ShardedArray::new(4, 1);
        let sharded = ShardedArray::new(4, 4);
        let mut one_total = 0u64;
        let mut sharded_total = 0u64;
        for warp in 0..16u64 {
            let dev = (warp % 4) as usize;
            one_total += one.lock_acquire(dev, warp, Cycles(0)).raw();
            sharded_total += sharded.lock_acquire(dev, warp, Cycles(0)).raw();
        }
        assert!(
            one_total > sharded_total,
            "one shard {one_total} must serialize more than four {sharded_total}"
        );
    }

    #[test]
    fn one_shard_charges_every_device_on_one_lock() {
        // Spreading submissions over devices must cost exactly what
        // funnelling them all through device 0 costs: one shard is one lock.
        let spread = ShardedArray::new(3, 1);
        let funnel = ShardedArray::new(3, 1);
        for warp in 0..12u64 {
            let dev = (warp % 3) as usize;
            assert_eq!(
                spread.lock_acquire(dev, warp, Cycles(warp * 7)),
                funnel.lock_acquire(0, warp, Cycles(warp * 7)),
            );
        }
        assert_eq!(spread.lock_wait_by_shard(), funnel.lock_wait_by_shard());
        assert_eq!(spread.lock_acquires_by_shard(), vec![12]);
    }

    #[test]
    fn device_advance_order_is_shard_major() {
        // Shard-major order: shard 0's devices in global order, then shard 1's.
        let sharded = ShardedArray::new(5, 2);
        assert_eq!(sharded.device_advance_order(), vec![0, 2, 4, 1, 3]);
        // One shard degenerates to global order.
        assert_eq!(
            ShardedArray::new(4, 1).device_advance_order(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn per_device_advancement_matches_whole_set_advancement() {
        // Advancing devices one by one through the per-device seam must leave
        // the topology in the same externally visible state as advance_to.
        let run = |per_device: bool| -> (u64, u64, Vec<u64>) {
            let topo = ShardedArray::new(3, 2);
            let queues = topo.register_queues(1, 16);
            for (dev, qs) in queues.iter().enumerate() {
                let lba = dev as u64 * 3;
                assert!(qs[0]
                    .sq
                    .write_slot(0, NvmeCommand::read(1, lba, DmaHandle::new())));
                qs[0].sq_doorbell.ring(1, Cycles(0));
            }
            if per_device {
                for dev in topo.device_advance_order() {
                    topo.advance_device_to(dev, Cycles(4_000_000));
                }
            } else {
                topo.advance_to(Cycles(4_000_000));
            }
            let stats: Vec<u64> = (0..3)
                .map(|d| topo.device_stats(d).reads_completed)
                .collect();
            (topo.total_bytes_read(), topo.total_bytes_written(), stats)
        };
        assert_eq!(run(true), run(false));
        assert!(run(true).0 > 0, "reads must actually complete");
    }
}
