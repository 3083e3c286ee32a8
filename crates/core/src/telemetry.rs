//! Bridges between the AGILE stack's existing statistics and the
//! [`agile_metrics`] registry.
//!
//! Layers that already keep relaxed-atomic counters (the software cache, the
//! storage topology's lock and devices, the service partitions) are exported
//! through [`agile_metrics::Collector`]s polled only at snapshot time — the
//! hot paths are untouched, which is what keeps instrumented replays
//! byte-identical to uninstrumented ones. Only events with no existing
//! counter (SQ admissions, per-tenant QoS deferrals, engine rounds) carry
//! direct instruments, installed behind `OnceLock`s so the disabled path is
//! one atomic load.
//!
//! [`MetricsBridge`] connects a [`agile_metrics::WindowedSampler`] to the
//! engine as a **passive** external device: it never schedules a wakeup
//! (`next_event_time` is `None`) and is always quiescent, so installing it
//! cannot perturb replay timing — it merely observes the clock on scheduling
//! rounds the engine was going to run anyway.

use crate::ctrl::AgileCtrl;
use crate::service::ServicePartition;
use agile_cache::{CacheStats, TenantCacheStats};
use agile_metrics::{Collector, Labels, MetricValue, Sample, WindowedSampler};
use agile_sim::Cycles;
use gpu_sim::ExternalDevice;
use nvme_sim::ShardedArray;
use std::sync::Arc;

fn counter(out: &mut Vec<Sample>, name: &str, labels: Labels, v: u64) {
    out.push(Sample {
        name: name.to_string(),
        labels,
        value: MetricValue::Counter(v),
    });
}

fn gauge(out: &mut Vec<Sample>, name: &str, labels: Labels, v: u64) {
    out.push(Sample {
        name: name.to_string(),
        labels,
        value: MetricValue::Gauge(v),
    });
}

/// A controller that can report its software cache's statistics — the
/// indirection letting [`CacheCollector`] serve both the AGILE controller
/// and the BaM baseline's.
pub trait CacheStatsProvider: Send + Sync {
    /// Global cache counters.
    fn cache_stats(&self) -> CacheStats;
    /// Per-tenant counters, ordered by tenant id.
    fn cache_tenant_stats(&self) -> Vec<TenantCacheStats>;
    /// Per-shard counters, indexed by cache shard. The default reports the
    /// whole cache as one shard (unsharded providers).
    fn cache_shard_stats(&self) -> Vec<CacheStats> {
        vec![self.cache_stats()]
    }
    /// Cycles queued on each cache shard's access port (empty or all-zero
    /// when the port model is off).
    fn cache_port_wait_by_shard(&self) -> Vec<u64> {
        Vec::new()
    }
    /// Acquisitions of each cache shard's access port.
    fn cache_port_acquires_by_shard(&self) -> Vec<u64> {
        Vec::new()
    }
}

impl CacheStatsProvider for AgileCtrl {
    fn cache_stats(&self) -> CacheStats {
        self.cache().stats()
    }
    fn cache_tenant_stats(&self) -> Vec<TenantCacheStats> {
        self.cache().tenant_stats()
    }
    fn cache_shard_stats(&self) -> Vec<CacheStats> {
        self.cache().stats_by_shard()
    }
    fn cache_port_wait_by_shard(&self) -> Vec<u64> {
        self.cache().port_wait_by_shard()
    }
    fn cache_port_acquires_by_shard(&self) -> Vec<u64> {
        self.cache().port_acquires_by_shard()
    }
}

/// Exports the software cache's global and per-tenant counters
/// (`agile_cache_*`) from a controller's existing atomic cells.
pub struct CacheCollector {
    ctrl: Arc<dyn CacheStatsProvider>,
}

impl CacheCollector {
    /// A collector over `ctrl`'s cache.
    pub fn new(ctrl: Arc<dyn CacheStatsProvider>) -> Self {
        CacheCollector { ctrl }
    }
}

impl Collector for CacheCollector {
    fn collect(&self, out: &mut Vec<Sample>) {
        let s = self.ctrl.cache_stats();
        counter(out, "agile_cache_hits_total", Labels::NONE, s.hits);
        counter(
            out,
            "agile_cache_busy_hits_total",
            Labels::NONE,
            s.busy_hits,
        );
        counter(out, "agile_cache_misses_total", Labels::NONE, s.misses);
        counter(
            out,
            "agile_cache_evictions_total",
            Labels::NONE,
            s.evictions,
        );
        counter(
            out,
            "agile_cache_writebacks_total",
            Labels::NONE,
            s.writebacks,
        );
        counter(out, "agile_cache_no_line_total", Labels::NONE, s.no_line);
        for t in self.ctrl.cache_tenant_stats() {
            let l = Labels::tenant(t.tenant);
            counter(out, "agile_cache_tenant_hits_total", l, t.hits);
            counter(out, "agile_cache_tenant_misses_total", l, t.misses);
            counter(out, "agile_cache_tenant_fills_total", l, t.fills);
            counter(out, "agile_cache_tenant_evictions_total", l, t.evictions);
            gauge(out, "agile_cache_tenant_occupancy", l, t.occupancy);
        }
        // Per-shard families only when the cache is actually sharded: the
        // single-shard rows would duplicate the aggregates above under a
        // different key.
        let shards = self.ctrl.cache_shard_stats();
        if shards.len() > 1 {
            for (shard, s) in shards.into_iter().enumerate() {
                let l = Labels::shard(shard as u32);
                counter(out, "agile_cache_shard_hits_total", l, s.hits);
                counter(out, "agile_cache_shard_misses_total", l, s.misses);
                counter(out, "agile_cache_shard_evictions_total", l, s.evictions);
            }
        }
        // Port contention, mirroring the submit path's `agile_submit_lock_*`
        // families: rows appear only once something was charged.
        let waits = self.ctrl.cache_port_wait_by_shard();
        let acquires = self.ctrl.cache_port_acquires_by_shard();
        if acquires.iter().any(|&n| n > 0) {
            for (shard, (wait, n)) in waits.into_iter().zip(acquires).enumerate() {
                let l = Labels::shard(shard as u32);
                counter(out, "agile_cache_port_wait_cycles_total", l, wait);
                counter(out, "agile_cache_port_acquires_total", l, n);
            }
        }
    }
}

/// Exports the storage topology's lock-contention counters
/// (`agile_submit_lock_*` per shard) and per-device completion statistics
/// (`agile_device_*`).
pub struct TopologyCollector {
    topology: Arc<ShardedArray>,
}

impl TopologyCollector {
    /// A collector over `topology`.
    pub fn new(topology: Arc<ShardedArray>) -> Self {
        TopologyCollector { topology }
    }
}

impl Collector for TopologyCollector {
    fn collect(&self, out: &mut Vec<Sample>) {
        for (shard, wait) in self.topology.lock_wait_by_shard().into_iter().enumerate() {
            counter(
                out,
                "agile_submit_lock_wait_cycles_total",
                Labels::shard(shard as u32),
                wait,
            );
        }
        for (shard, n) in self
            .topology
            .lock_acquires_by_shard()
            .into_iter()
            .enumerate()
        {
            counter(
                out,
                "agile_submit_lock_acquires_total",
                Labels::shard(shard as u32),
                n,
            );
        }
        for dev in 0..self.topology.device_count() {
            let s = self.topology.device_stats(dev);
            let l = Labels::device(dev as u32);
            counter(
                out,
                "agile_device_reads_completed_total",
                l,
                s.reads_completed,
            );
            counter(
                out,
                "agile_device_writes_completed_total",
                l,
                s.writes_completed,
            );
            counter(out, "agile_device_errors_total", l, s.errors);
            counter(out, "agile_device_bytes_read_total", l, s.bytes_read);
            counter(out, "agile_device_bytes_written_total", l, s.bytes_written);
            counter(out, "agile_device_cq_stalls_total", l, s.cq_stalls);
            counter(out, "agile_device_doorbells_total", l, s.doorbells);
            gauge(
                out,
                "agile_device_inflight",
                l,
                self.topology.device_inflight(dev),
            );
        }
    }
}

/// Exports per-partition AGILE-service counters (`agile_service_*`).
pub struct ServiceCollector {
    partitions: Vec<Arc<ServicePartition>>,
}

impl ServiceCollector {
    /// A collector over the given service partitions.
    pub fn new(partitions: Vec<Arc<ServicePartition>>) -> Self {
        ServiceCollector { partitions }
    }
}

impl Collector for ServiceCollector {
    fn collect(&self, out: &mut Vec<Sample>) {
        for (idx, p) in self.partitions.iter().enumerate() {
            let s = p.stats();
            let l = Labels::partition(idx as u32);
            counter(out, "agile_service_completions_total", l, s.completions);
            counter(out, "agile_service_cq_doorbells_total", l, s.cq_doorbells);
            counter(out, "agile_service_busy_rounds_total", l, s.busy_rounds);
            counter(out, "agile_service_idle_rounds_total", l, s.idle_rounds);
        }
    }
}

/// A passive [`ExternalDevice`] that feeds the simulated clock to a
/// [`WindowedSampler`] every few engine scheduling rounds.
///
/// It never requests a wakeup and reports quiescent, so the engine's event
/// scheduling — and therefore the replay's timing — is identical with or
/// without the bridge installed.
pub struct MetricsBridge {
    sampler: Arc<WindowedSampler>,
    rounds: u32,
}

impl MetricsBridge {
    /// How many scheduling rounds pass between sampler observations. Window
    /// boundaries are still detected — just up to this many rounds late,
    /// which at typical round lengths is a tiny fraction of any sane window
    /// — while the per-round cost drops to a counter increment.
    const OBSERVE_EVERY: u32 = 32;

    /// A bridge driving `sampler`.
    pub fn new(sampler: Arc<WindowedSampler>) -> Self {
        MetricsBridge { sampler, rounds: 0 }
    }
}

impl ExternalDevice for MetricsBridge {
    fn advance_to(&mut self, now: Cycles) {
        self.rounds += 1;
        if self.rounds.is_multiple_of(Self::OBSERVE_EVERY) {
            self.sampler.observe(now.raw());
        }
    }
    fn next_event_time(&mut self) -> Option<Cycles> {
        None
    }
    fn quiescent(&self) -> bool {
        true
    }
}
