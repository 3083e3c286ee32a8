//! Property tests for the storage-topology striping layer: a flat
//! (one-shard) and an N-shard `ShardedArray` must expose the *same*
//! bijective global page space (only the lock partitioning differs), and
//! the replay default (`shards = 0`) must replay a trace bit-identically to
//! an explicit `shards = 1`.

use agile_repro::metrics::windows_to_json;
use agile_repro::nvme::{Placement, ShardedArray};
use agile_repro::trace::TraceSpec;
use agile_repro::workloads::experiments::trace_replay::{
    run_trace_replay, ReplayConfig, ReplaySystem,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One-shard and N-shard arrays map every global page to the identical
    /// (device, local page), and the mapping is invertible.
    #[test]
    fn flat_and_sharded_map_the_same_page_space(
        devices in 1usize..12,
        shards in 1usize..8,
        pages in proptest::collection::vec(any::<u32>(), 1..64),
    ) {
        let flat = ShardedArray::new(devices, 1);
        let sharded = ShardedArray::new(devices, shards);
        prop_assert_eq!(flat.device_count(), sharded.device_count());
        prop_assert_eq!(flat.shard_count(), 1);
        for &p in &pages {
            let g = p as u64;
            let f = flat.map_page(g);
            let s = sharded.map_page(g);
            // Identical data layout regardless of lock partitioning.
            prop_assert_eq!((f.device, f.page), (s.device, s.page));
            // Shard assignment is consistent with the owning device.
            prop_assert_eq!(s.shard as usize, sharded.shard_of(s.device as usize));
            prop_assert_eq!(f.shard, 0);
            // The mapping is invertible: (device, page) → g.
            prop_assert_eq!(s.page * devices as u64 + s.device as u64, g);
            prop_assert!((s.device as usize) < devices);
        }
    }

    /// Striping is a bijection over a dense prefix of the global page space
    /// under **every** placement seed: no two global pages collide on
    /// (device, local page).
    #[test]
    fn striping_is_bijective_over_dense_ranges(
        devices in 1usize..9,
        shards in 1usize..5,
        span in 1u64..512,
    ) {
        for placement in [Placement::Interleave, Placement::Hash] {
            let topo = ShardedArray::new(devices, shards).with_placement(placement);
            let mut seen = std::collections::HashSet::new();
            for g in 0..span {
                let loc = topo.map_page(g);
                prop_assert!(
                    seen.insert((loc.device, loc.page)),
                    "collision at {} under {:?}", g, placement
                );
            }
            prop_assert_eq!(seen.len() as u64, span);
        }
    }

    /// The default placement is the paper's `g % devices` interleave — the
    /// layout every checked-in golden trace replays against — and the hash
    /// placement keeps the same local page while permuting only the device
    /// within each page row.
    #[test]
    fn default_placement_is_the_golden_interleave(
        devices in 1usize..12,
        pages in proptest::collection::vec(any::<u32>(), 1..64),
    ) {
        let default_topo = ShardedArray::new(devices, 1);
        let hashed = ShardedArray::new(devices, 1).with_placement(Placement::Hash);
        for &p in &pages {
            let g = p as u64;
            let loc = default_topo.map_page(g);
            prop_assert_eq!(loc.device as u64, g % devices as u64);
            prop_assert_eq!(loc.page, g / devices as u64);
            let h = hashed.map_page(g);
            prop_assert_eq!(h.page, loc.page, "hash placement must keep the row");
            prop_assert!((h.device as usize) < devices);
        }
    }

    /// One-shard and N-shard arrays lay data out identically under the hash
    /// placement too — the placement seed composes with lock partitioning
    /// exactly like the interleave does.
    #[test]
    fn hash_placement_is_topology_invariant(
        devices in 1usize..10,
        shards in 1usize..6,
        span in 1u64..256,
    ) {
        let flat = ShardedArray::new(devices, 1).with_placement(Placement::Hash);
        let sharded = ShardedArray::new(devices, shards).with_placement(Placement::Hash);
        for g in 0..span {
            let f = flat.map_page(g);
            let s = sharded.map_page(g);
            prop_assert_eq!((f.device, f.page), (s.device, s.page));
        }
    }
}

#[test]
fn hash_placement_breaks_device_lockstep() {
    // A sequential scan under the interleave visits devices 0,1,2,…,0,1,2 in
    // lockstep; the hash rotation must produce a different device sequence
    // (while staying bijective — covered by the proptests above).
    let devices = 4;
    let interleave = ShardedArray::new(devices, 1);
    let hashed = ShardedArray::new(devices, 1).with_placement(Placement::Hash);
    let seq_i: Vec<u32> = (0..64).map(|g| interleave.map_page(g).device).collect();
    let seq_h: Vec<u32> = (0..64).map(|g| hashed.map_page(g).device).collect();
    assert_ne!(seq_i, seq_h, "hash placement must re-order device visits");
    // Both spread work evenly across devices over whole rows.
    for d in 0..devices as u32 {
        assert_eq!(seq_h.iter().filter(|&&x| x == d).count(), 16);
    }
}

#[test]
fn hash_placement_replays_a_trace_end_to_end() {
    // The placement seed is plumbed through HostBuilder → topology →
    // resolve_page: a striped replay over the hash layout must complete
    // every op (bijectivity in vivo) and stay deterministic.
    let trace = TraceSpec::uniform("placement-hash", 33, 4, 1 << 12, 512).generate();
    let cfg = ReplayConfig {
        placement: Placement::Hash,
        ..ReplayConfig::quick().striped()
    };
    let a = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
    assert!(!a.deadlocked);
    assert_eq!(a.ops, 512, "every op must complete under the hash layout");
    let b = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
    assert_eq!(
        a.summary(),
        b.summary(),
        "hash placement stays deterministic"
    );
}

#[test]
fn sharded_one_replays_identically_to_flat_on_both_systems() {
    // Equal device count, striped layout, one lock shard: the replay default
    // (`shards = 0`, echoed in the summary) and an explicit `shards = 1`
    // must give bit-identical per-op results — and therefore summaries —
    // and identical metrics exports, `{shard}` labels included.
    let trace = TraceSpec::multi_tenant("striping-ident", 21, 3, 1 << 12, 512).generate();
    let flat_cfg = ReplayConfig::quick().striped();
    let sharded_cfg = ReplayConfig {
        shards: 1,
        ..ReplayConfig::quick().striped()
    };
    for system in [ReplaySystem::Agile, ReplaySystem::Bam] {
        let flat = run_trace_replay(&trace, system, &flat_cfg);
        let sharded = run_trace_replay(&trace, system, &sharded_cfg);
        assert!(!flat.deadlocked);
        assert_eq!(flat.ops, trace.ops.len() as u64);
        assert_eq!(
            flat.summary().replace("shards=0", "shards=1"),
            sharded.summary(),
            "{:?}: shards=1 must equal the flat default",
            system
        );

        let flat = run_trace_replay(&trace, system, &flat_cfg.clone().with_metrics());
        let sharded = run_trace_replay(&trace, system, &sharded_cfg.clone().with_metrics());
        let (flat, sharded) = (flat.metrics.unwrap(), sharded.metrics.unwrap());
        let json = flat.snapshot.to_json();
        assert!(
            json.contains("\"shard\":0") && !json.contains("\"shard\":1"),
            "{system:?}: the default topology has exactly one lock shard"
        );
        assert_eq!(
            json,
            sharded.snapshot.to_json(),
            "{system:?}: metrics export"
        );
        assert_eq!(
            windows_to_json(&flat.windows),
            windows_to_json(&sharded.windows),
            "{system:?}: windowed series"
        );
    }
}
