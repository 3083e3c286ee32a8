//! The benchmark's workloads. Each is a closed loop of 64 replay warps
//! (`ReplayConfig::default()`): an AGILE warp keeps up to 64 requests in
//! flight, a BaM warp is synchronous per lane. Every run builds fresh hosts,
//! so caches start empty. See `README.md` for why each workload exists.

use agile_trace::{AddressPattern, TenantSpec, TraceSpec};
use agile_workloads::experiments::ReplayConfig;

/// Pages per simulated SSD.
const PAGES_PER_SSD: u64 = 64 * 1024;

/// One named workload.
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Ops per trace. BaM's raw replay costs about ten times AGILE's host
    /// time, which caps `raw-mixed`.
    pub ops: u64,
    /// Independent traces the workload replays, generated from seeds derived
    /// from `--seed`; simulated figures pool the requests of all of them.
    /// BaM's simulated throughput on the cached path swings by about 10 %
    /// from one trace to the next, whatever its length, hence four traces
    /// for `cached-writeback`; AGILE's p99 on `raw-mixed` swings by about
    /// 8 %, hence two there.
    pub traces: u64,
    kind: Kind,
}

enum Kind {
    RawMixed,
    CachedHot,
    CachedWriteback,
}

/// Every workload: the two in `BENCHMARK.json`, then `cached-hot`, which
/// stays out of it because BaM's simulated figures on it do not settle
/// across seeds (see `README.md`).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "raw-mixed",
        ops: 8 * 1024,
        traces: 2,
        kind: Kind::RawMixed,
    },
    Workload {
        name: "cached-writeback",
        ops: 32 * 1024,
        traces: 4,
        kind: Kind::CachedWriteback,
    },
    Workload {
        name: "cached-hot",
        ops: 16 * 1024,
        traces: 1,
        kind: Kind::CachedHot,
    },
];

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The generator of trace `index` (of [`Workload::traces`]) for `seed`,
    /// `ops` ops long. Seeds `seed * traces + index` never overlap between
    /// two `--seed` values.
    pub fn spec(&self, seed: u64, index: u64, ops: u64) -> TraceSpec {
        let seed = seed.wrapping_mul(self.traces).wrapping_add(index);
        match self.kind {
            // Zipf(0.99) reader 50 %, uniform 20 %-write tenant 30 %, bursty
            // 80 %-write tenant 20 %, over 8 SSDs.
            Kind::RawMixed => TraceSpec::multi_tenant(self.name, seed, 8, PAGES_PER_SSD, ops),
            // Read-only Zipf(1.1) over 2 SSDs: the hot set fits the cache.
            Kind::CachedHot => TraceSpec::zipfian(self.name, seed, 2, PAGES_PER_SSD, ops, 1.1),
            // Uniform 50 %-write over 2 SSDs: 128x the cache's capacity.
            Kind::CachedWriteback => TraceSpec {
                name: self.name.to_string(),
                seed,
                devices: 2,
                lba_space: PAGES_PER_SSD,
                tenants: vec![TenantSpec::new(ops, AddressPattern::Uniform, 0.5, 200)],
            },
        }
    }

    /// The replay configuration: the raw path over a 4-shard topology, or
    /// the cached path through the default 4 MiB (1 024-line) cache.
    pub fn config(&self) -> ReplayConfig {
        match self.kind {
            Kind::RawMixed => ReplayConfig::default().sharded(4),
            Kind::CachedHot | Kind::CachedWriteback => ReplayConfig::default().cached(),
        }
    }
}
