//! Fault-tolerance sweeps: crash the engine at every superstep, recover,
//! and demand bit-identical results.
//!
//! The paper's execution model makes this cheap to state precisely: the
//! barrier after `update` is the only consistency point, so a run that is
//! killed at superstep `s` and replayed from the newest checkpoint must
//! reconverge to exactly the same vertex values as a fault-free run —
//! not merely "close". The sweeps below assert that for every superstep,
//! for several fault kinds, for both SSSP (order-independent `Min`
//! combiner, multithreaded) and PageRank (`f32` `Sum`, pinned to one host
//! thread so the reduction order is reproducible).
//!
//! Also here: the corrupt-checkpoint property test — seeded random byte
//! smears over stored snapshots must either decode to the identical state
//! or be rejected by the checksum; recovery then falls back to an older
//! valid snapshot and still reproduces the clean result.

use phigraph_apps::{PageRank, Sssp};
use phigraph_core::engine::{run_recoverable, run_single, EngineConfig};
use phigraph_device::DeviceSpec;
use phigraph_graph::{Csr, EdgeList, SplitMix64};
use phigraph_recover::{CheckpointStore, FaultKind, FaultPlan, MemStore, Snapshot};

/// Random small directed graph as CSR (same idiom as the property suite).
fn random_graph(rng: &mut SplitMix64, max_n: usize, max_m: usize) -> Csr {
    let n = rng.random_range(2..max_n);
    let m = rng.random_range(0..max_m);
    let mut el = EdgeList::new(n);
    for _ in 0..m {
        let s = rng.random_range(0..n as u32);
        let d = rng.random_range(0..n as u32);
        if s != d {
            el.push(s, d);
        }
    }
    el.sort_dedup();
    Csr::from_edge_list(&el)
}

/// A connected-ish graph big enough to run ~10 supersteps of SSSP.
fn sweep_graph(seed: u64) -> Csr {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = 600usize;
    let mut el = EdgeList::new(n);
    // Ring backbone guarantees long shortest-path chains (many supersteps).
    for v in 0..n as u32 {
        el.push(v, (v + 1) % n as u32);
    }
    for _ in 0..2_000 {
        let s = rng.random_range(0..n as u32);
        let d = rng.random_range(0..n as u32);
        if s != d {
            el.push(s, d);
        }
    }
    el.sort_dedup();
    Csr::from_edge_list(&el)
}

fn spec() -> DeviceSpec {
    DeviceSpec::xeon_e5_2680()
}

/// Crash SSSP at every superstep with a rotating fault kind; each recovered
/// run must match the fault-free baseline bit for bit.
#[test]
fn sssp_crash_at_every_superstep_is_bit_identical() {
    let g = sweep_graph(11);
    let app = Sssp { source: 0 };
    let cfg = EngineConfig::locking()
        .with_checkpoint_every(2)
        .with_backoff_ms(0);
    let baseline = run_single(&app, &g, spec(), &cfg);
    let steps = baseline.report.steps.len();
    assert!(steps >= 8, "sweep graph too shallow: {steps} supersteps");

    let kinds = [
        FaultKind::KillWorker,
        FaultKind::KillMover,
        FaultKind::PoisonInsert,
    ];
    for s in 0..steps as u64 {
        let kind = kinds[s as usize % kinds.len()];
        let mut store = MemStore::new();
        let cfg = cfg
            .clone()
            .with_fault_plan(FaultPlan::single(s, kind).injector());
        let out = run_recoverable(&app, &g, spec(), &cfg, &mut store, false);
        assert_eq!(
            out.values,
            baseline.values,
            "divergence after {} fault at superstep {s}",
            kind.name()
        );
        assert_eq!(out.report.recovery.faults_injected, 1, "fault at step {s}");
        assert_eq!(out.report.recovery.rollbacks, 1, "fault at step {s}");
        assert!(!out.report.recovery.degraded);
        // Step reports stay monotone through the rollback splice.
        let ids: Vec<usize> = out.report.steps.iter().map(|r| r.step).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "steps {ids:?}");
    }
}

/// Same sweep for PageRank: a floating-point `Sum` combiner, pinned to one
/// host thread so the fault-free baseline itself is deterministic.
#[test]
fn pagerank_crash_at_every_superstep_is_bit_identical() {
    let mut rng = SplitMix64::seed_from_u64(23);
    let g = random_graph(&mut rng, 300, 2_500);
    let app = PageRank {
        damping: 0.85,
        iterations: 8,
    };
    let cfg = EngineConfig::locking()
        .with_host_threads(1)
        .with_checkpoint_every(3)
        .with_backoff_ms(0);
    let baseline = run_single(&app, &g, spec(), &cfg);
    let steps = baseline.report.steps.len();
    assert!(steps >= 8);

    for s in 0..steps as u64 {
        let mut store = MemStore::new();
        let cfg = cfg
            .clone()
            .with_fault_plan(FaultPlan::single(s, FaultKind::KillWorker).injector());
        let out = run_recoverable(&app, &g, spec(), &cfg, &mut store, false);
        // f32 values compared bit-exactly via their LE encodings.
        let a: Vec<u32> = out.values.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = baseline.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "pagerank diverged after crash at superstep {s}");
    }
}

/// The flat engine (`omp`) runs under the recovery machine like `lock`: a
/// dead worker at superstep 3 rolls back once and lands on the clean bits.
#[test]
fn omp_dead_worker_rolls_back_once_to_the_clean_values() {
    let g = sweep_graph(17);
    let app = Sssp { source: 0 };
    let cfg = EngineConfig::flat()
        .with_checkpoint_every(2)
        .with_backoff_ms(0);
    let clean = run_single(&app, &g, spec(), &cfg);
    assert_eq!(clean.report.mode, "omp");
    let mut store = MemStore::new();
    let cfg = cfg.with_fault_plan(FaultPlan::single(3, FaultKind::KillWorker).injector());
    let out = run_recoverable(&app, &g, spec(), &cfg, &mut store, false);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out.values), bits(&clean.values));
    assert_eq!(out.report.recovery.rollbacks, 1);
    assert_eq!(out.report.recovery.faults_injected, 1);
    assert_eq!(out.report.mode, "omp");
}

/// Kill the run partway (superstep cap), then `resume = true` from the
/// surviving store — the true "process died" path, at every cut point.
#[test]
fn sssp_resume_after_truncation_at_every_superstep() {
    let g = sweep_graph(31);
    let app = Sssp { source: 0 };
    let cfg = EngineConfig::locking()
        .with_checkpoint_every(1)
        .with_backoff_ms(0);
    let baseline = run_single(&app, &g, spec(), &cfg);
    let steps = baseline.report.steps.len();

    for cut in 1..steps {
        let mut store = MemStore::new();
        let truncated = cfg.clone().with_max_supersteps(cut);
        let _ = run_recoverable(&app, &g, spec(), &truncated, &mut store, false);
        assert!(!store.list().is_empty(), "no snapshot survived cut {cut}");
        let out = run_recoverable(&app, &g, spec(), &cfg, &mut store, true);
        assert_eq!(
            out.values, baseline.values,
            "resume from cut {cut} diverged"
        );
    }
}

/// Seeded property test: smear random bytes over a stored snapshot. Either
/// the decoder still reproduces the identical state (the smear hit dead
/// bytes — only possible for a no-op XOR, which we exclude) or the checksum
/// rejects it; recovery must then fall back and still match the baseline.
#[test]
fn corrupt_checkpoint_smears_are_detected_and_survived() {
    let g = sweep_graph(47);
    let app = Sssp { source: 0 };
    let cfg = EngineConfig::locking()
        .with_checkpoint_every(2)
        .with_backoff_ms(0);
    let baseline = run_single(&app, &g, spec(), &cfg);
    let steps = baseline.report.steps.len() as u64;

    const CASES: u64 = 32;
    let mut rejected = 0usize;
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(9000 + case);
        // Fill a store by running with checkpoints, no faults.
        let mut store = MemStore::new();
        let _ = run_recoverable(&app, &g, spec(), &cfg, &mut store, false);
        let snaps = store.list();
        assert!(!snaps.is_empty());
        // Smear 1..8 random bytes of a random snapshot.
        let victim = snaps[rng.random_range(0..snaps.len())];
        let bytes = store.bytes_mut(victim).expect("victim snapshot exists");
        let smears = rng.random_range(1..8usize);
        for _ in 0..smears {
            let i = rng.random_range(0..bytes.len());
            let mask = (rng.random_range(1..256u32)) as u8; // never a no-op XOR
            bytes[i] ^= mask;
        }
        match Snapshot::decode(&store.load(victim).unwrap()) {
            Ok(_) => panic!("case {case}: corrupted snapshot {victim} decoded cleanly"),
            Err(_) => rejected += 1,
        }
        // Crash after the newest snapshot; recovery must skip any corrupt
        // snapshot it meets and still converge to the clean fixpoint.
        let crash_at = steps - 1;
        let cfg = cfg
            .clone()
            .with_fault_plan(FaultPlan::single(crash_at, FaultKind::KillWorker).injector());
        let out = run_recoverable(&app, &g, spec(), &cfg, &mut store, true);
        assert_eq!(out.values, baseline.values, "case {case} diverged");
    }
    assert_eq!(rejected as u64, CASES, "every smear must be caught");
}

/// The in-engine `CorruptCheckpoint` fault: the writer smears the bytes on
/// the way to the store. A later crash must reject that snapshot (counted
/// in `corrupt_snapshots_rejected`), roll further back, and still match.
#[test]
fn in_engine_checkpoint_corruption_rolls_back_further() {
    let g = sweep_graph(53);
    let app = Sssp { source: 0 };
    let cfg = EngineConfig::locking()
        .with_checkpoint_every(2)
        .with_backoff_ms(0);
    let baseline = run_single(&app, &g, spec(), &cfg);
    let steps = baseline.report.steps.len() as u64;
    assert!(steps >= 6);

    // Corrupt the snapshot written during step 3 (snapshot 4), crash at 5.
    let plan = FaultPlan::new()
        .with(3, FaultKind::CorruptCheckpoint, 0)
        .with(5, FaultKind::KillWorker, 0);
    let mut store = MemStore::new();
    let cfg = cfg.with_fault_plan(plan.injector());
    let out = run_recoverable(&app, &g, spec(), &cfg, &mut store, false);
    assert_eq!(out.values, baseline.values);
    let rec = out.report.recovery;
    assert_eq!(rec.faults_injected, 2);
    assert!(
        rec.corrupt_snapshots_rejected >= 1,
        "corrupt snapshot was never rejected: {rec:?}"
    );
    // The replay rewrites a clean snapshot 4: the store must end fully valid.
    for step in store.list() {
        Snapshot::decode(&store.load(step).unwrap())
            .unwrap_or_else(|e| panic!("snapshot {step} still invalid after replay: {e}"));
    }
}

/// Dropped remote exchanges are not silent: the failover driver counts
/// them into [`RunReport::failover`] and the one-line summary surfaces them
/// next to the recovery stats.
#[test]
fn dropped_exchanges_surface_in_the_run_summary() {
    use phigraph_comm::PcieLink;
    use phigraph_core::engine::run_ranks_failover;
    use phigraph_partition::{partition, PartitionScheme, Ratio};
    use phigraph_recover::FailoverConfig;

    let g = sweep_graph(61);
    let p = partition(&g, PartitionScheme::RoundRobin, Ratio::even(), 0);
    let app = Sssp { source: 0 };
    let baseline = run_single(&app, &g, spec(), &EngineConfig::locking());
    let run = |configs: [EngineConfig; 2]| {
        let mut stores = [MemStore::new(), MemStore::new()];
        run_ranks_failover(
            &app,
            &g,
            &p,
            &[DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()],
            &configs,
            PcieLink::gen2_x16(),
            &FailoverConfig::default(),
            stores
                .iter_mut()
                .map(|s| s as &mut dyn CheckpointStore)
                .collect(),
            false,
        )
    };
    let config = EngineConfig::locking()
        .with_checkpoint_every(1)
        .with_backoff_ms(0);

    let inj = FaultPlan::new()
        .with(3, FaultKind::DropExchange, 1)
        .injector();
    let out = run([
        config.clone().with_fault_plan(inj.clone()),
        config.clone().with_fault_plan(inj),
    ]);
    assert_eq!(out.values, baseline.values);
    assert_eq!(out.report.failover.exchange_drops, 1);
    assert_eq!(out.report.total_exchange_drops(), 1);
    assert!(
        out.report.summary().contains("xchg drops=1"),
        "summary must surface the dropped exchange: {}",
        out.report.summary()
    );
    // A clean run keeps the summary free of exchange noise.
    let clean = run([config.clone(), config]);
    assert_eq!(clean.values, baseline.values);
    assert_eq!(clean.report.total_exchange_drops(), 0);
    assert!(!clean.report.summary().contains("xchg drops"));
}
