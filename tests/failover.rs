//! Live-failover acceptance sweeps for the heterogeneous engine.
//!
//! The contract under test: kill **or hang** one device at *every*
//! superstep of a hetero SSSP / PageRank run and the survivor must
//! reproduce the fault-free result bit for bit by migrating the lost
//! partition and replaying from the newest barrier snapshot — never by
//! restarting the whole run. Stragglers (slowdowns) must instead trigger a
//! partition rebalance, and the watchdog must detect every injected hang
//! within the configured deadline.

use phigraph_comm::PcieLink;
use phigraph_core::engine::{run_ranks, run_ranks_failover, run_single, EngineConfig};
use phigraph_core::metrics::RunOutput;
use phigraph_device::{DeviceSpec, StepCounters};
use phigraph_graph::generators::small::chain;
use phigraph_graph::state::PodState;
use phigraph_graph::{Csr, EdgeList, SplitMix64};
use phigraph_partition::{partition, partition_n, DevicePartition, PartitionScheme, Ratio, Shares};
use phigraph_recover::{
    CheckpointStore, FailoverConfig, FailoverPolicy, FaultInjector, FaultKind, FaultPlan, MemStore,
};

use phigraph_apps::{PageRank, Sssp};
use phigraph_core::api::VertexProgram;

/// A connected-ish weighted graph deep enough for ~10 SSSP supersteps.
fn sweep_graph(seed: u64) -> Csr {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = 400usize;
    let mut el = EdgeList::new(n);
    for v in 0..n as u32 {
        el.push(v, (v + 1) % n as u32);
    }
    for _ in 0..1_500 {
        let s = rng.random_range(0..n as u32);
        let d = rng.random_range(0..n as u32);
        if s != d {
            el.push(s, d);
        }
    }
    el.sort_dedup();
    el.randomize_weights(0.0, 4.0, seed);
    Csr::from_edge_list(&el)
}

fn specs() -> [DeviceSpec; 2] {
    [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()]
}

fn even_partition(g: &Csr) -> DevicePartition {
    partition(g, PartitionScheme::RoundRobin, Ratio::even(), 0)
}

/// Run the failover driver with fresh in-memory stores.
fn run_failover<P: VertexProgram>(
    program: &P,
    g: &Csr,
    p: &DevicePartition,
    configs: [EngineConfig; 2],
    fcfg: &FailoverConfig,
    injector: Option<FaultInjector>,
) -> RunOutput<P::Value>
where
    P::Value: PodState,
{
    let [c0, c1] = configs;
    let (c0, c1) = match injector {
        Some(inj) => (c0.with_fault_plan(inj.clone()), c1.with_fault_plan(inj)),
        None => (c0, c1),
    };
    let mut s0 = MemStore::new();
    let mut s1 = MemStore::new();
    run_ranks_failover(
        program,
        g,
        p,
        &specs(),
        &[c0, c1],
        PcieLink::gen2_x16(),
        fcfg,
        vec![&mut s0 as &mut dyn CheckpointStore, &mut s1],
        false,
    )
}

fn sssp_configs() -> [EngineConfig; 2] {
    [
        EngineConfig::locking()
            .with_checkpoint_every(1)
            .with_backoff_ms(0),
        EngineConfig::locking()
            .with_checkpoint_every(1)
            .with_backoff_ms(0),
    ]
}

/// Kill or hang one device at every superstep of a hetero SSSP run: the
/// survivor must migrate and replay from the newest snapshot, matching the
/// clean run bit for bit without a whole-run restart.
#[test]
fn sssp_crash_or_hang_at_every_superstep_migrates_bit_identically() {
    let g = sweep_graph(11);
    let p = even_partition(&g);
    let app = Sssp { source: 0 };
    let baseline = run_ranks(
        &app,
        &g,
        &p,
        &specs(),
        &sssp_configs(),
        PcieLink::gen2_x16(),
    );
    let steps = baseline.report.steps.len() as u64;
    assert!(steps >= 8, "sweep graph too shallow: {steps} supersteps");

    let fcfg = FailoverConfig::default().with_watchdog_ms(150);
    for s in 0..steps {
        // Alternate fault kind and victim device across the sweep.
        let kind = if s % 2 == 0 {
            FaultKind::CrashDevice
        } else {
            FaultKind::HangDevice
        };
        let dev = ((s / 2) % 2) as u8;
        let plan = FaultPlan::new().with(s, kind, dev);
        let out = run_failover(&app, &g, &p, sssp_configs(), &fcfg, Some(plan.injector()));
        assert_eq!(
            out.values,
            baseline.values,
            "divergence after {} on device {dev} at superstep {s}",
            kind.name()
        );
        let f = out.report.failover;
        assert_eq!(f.migrations, 1, "step {s}");
        assert!(f.degraded_single, "step {s}");
        if kind == FaultKind::HangDevice {
            assert_eq!(f.hang_detections, 1, "step {s}");
            assert_eq!(f.crash_detections, 0, "step {s}");
        } else {
            assert_eq!(f.crash_detections, 1, "step {s}");
            assert_eq!(f.hang_detections, 0, "step {s}");
        }
        assert_eq!(f.supersteps_total, steps, "step {s}");
        assert_eq!(f.resume_step, s, "step {s}");
        if s > 0 {
            // Recovery resumed mid-run — no whole-run restart.
            assert!(
                f.supersteps_replayed < f.supersteps_total,
                "step {s}: replayed {}/{}",
                f.supersteps_replayed,
                f.supersteps_total
            );
        }
        // Step reports stay monotone through the migration splice.
        let ids: Vec<usize> = out.report.steps.iter().map(|r| r.step).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "step {s}: {ids:?}");
        assert!(out.report.summary().contains("failover"), "step {s}");
    }
}

/// Same sweep for PageRank: an order-sensitive `f32` `Sum` combiner, pinned
/// to one host thread per device so the baseline itself is bit-stable. The
/// migrated replay hosts both engine halves with their original configs, so
/// every reduction order is preserved.
#[test]
fn pagerank_crash_or_hang_sweep_is_bit_identical() {
    let mut rng = SplitMix64::seed_from_u64(23);
    let n = rng.random_range(150..250usize);
    let mut el = EdgeList::new(n);
    for _ in 0..1_200 {
        let s = rng.random_range(0..n as u32);
        let d = rng.random_range(0..n as u32);
        if s != d {
            el.push(s, d);
        }
    }
    el.sort_dedup();
    let g = Csr::from_edge_list(&el);
    let p = even_partition(&g);
    let app = PageRank {
        damping: 0.85,
        iterations: 7,
    };
    let configs = || {
        [
            EngineConfig::locking()
                .with_host_threads(1)
                .with_checkpoint_every(1)
                .with_backoff_ms(0),
            EngineConfig::locking()
                .with_host_threads(1)
                .with_checkpoint_every(1)
                .with_backoff_ms(0),
        ]
    };
    let baseline = run_ranks(&app, &g, &p, &specs(), &configs(), PcieLink::gen2_x16());
    let bits = |o: &RunOutput<f32>| -> Vec<u32> { o.values.iter().map(|v| v.to_bits()).collect() };
    let steps = baseline.report.steps.len() as u64;
    assert!(steps >= 6);

    let fcfg = FailoverConfig::default().with_watchdog_ms(150);
    for s in 0..steps {
        let kind = if s % 2 == 0 {
            FaultKind::HangDevice
        } else {
            FaultKind::CrashDevice
        };
        let dev = (s % 2) as u8;
        let plan = FaultPlan::new().with(s, kind, dev);
        let out = run_failover(&app, &g, &p, configs(), &fcfg, Some(plan.injector()));
        assert_eq!(
            bits(&out),
            bits(&baseline),
            "pagerank diverged after {} on device {dev} at superstep {s}",
            kind.name()
        );
        assert_eq!(out.report.failover.migrations, 1, "step {s}");
        if s > 0 {
            assert!(
                out.report.failover.supersteps_replayed < out.report.failover.supersteps_total,
                "step {s}"
            );
        }
    }
}

/// The watchdog notices every injected hang within (a small multiple of)
/// the configured deadline — the detection latency is measured from the
/// moment the deadline expired.
#[test]
fn watchdog_detects_hangs_within_deadline() {
    let g = sweep_graph(31);
    let p = even_partition(&g);
    let app = Sssp { source: 0 };
    let fcfg = FailoverConfig::default().with_watchdog_ms(40);
    let plan = FaultPlan::new().with(3, FaultKind::HangDevice, 1);
    let out = run_failover(&app, &g, &p, sssp_configs(), &fcfg, Some(plan.injector()));
    let f = out.report.failover;
    assert_eq!(f.hang_detections, 1);
    assert_eq!(f.exchange_timeouts, 1, "survivor saw the deadline expire");
    // Detection latency is bounded: deadline (40ms) + poll interval + sched
    // slack. The bound is generous to stay robust on loaded CI machines.
    assert!(
        f.watchdog_latency_ms < 2_000,
        "watchdog took {}ms past the deadline",
        f.watchdog_latency_ms
    );
    assert!(out.report.total_exchange_timeouts() >= 1);
    assert!(out.report.summary().contains("timeouts="));
}

/// A slowdown is not a death: the straggler triggers exactly one partition
/// rebalance (no migration), the run finishes two-device, and the SSSP
/// fixpoint is unchanged.
#[test]
fn straggler_rebalances_instead_of_migrating() {
    let g = sweep_graph(47);
    let p = even_partition(&g);
    let app = Sssp { source: 0 };
    let baseline = run_ranks(
        &app,
        &g,
        &p,
        &specs(),
        &sssp_configs(),
        PcieLink::gen2_x16(),
    );
    let fcfg = FailoverConfig::default()
        .with_rebalance_after(2)
        .with_slow_factor(3.0);
    let plan = FaultPlan::new().with(1, FaultKind::SlowDevice, 1);
    let out = run_failover(&app, &g, &p, sssp_configs(), &fcfg, Some(plan.injector()));
    // Min-combiner SSSP is partition-independent, so values still match.
    assert_eq!(out.values, baseline.values);
    let f = out.report.failover;
    assert_eq!(f.rebalances, 1);
    assert_eq!(f.migrations, 0);
    assert_eq!(f.crash_detections + f.hang_detections, 0);
    assert!(!f.degraded_single, "rebalance keeps both devices");
    assert!(out.report.summary().contains("rebalances=1"));
}

/// `--failover retry`: the lost device's partition is not migrated; both
/// sides roll back to the newest common snapshot and replay in lock-step.
#[test]
fn retry_policy_rolls_back_without_migration() {
    let g = sweep_graph(53);
    let p = even_partition(&g);
    let app = Sssp { source: 0 };
    let baseline = run_ranks(
        &app,
        &g,
        &p,
        &specs(),
        &sssp_configs(),
        PcieLink::gen2_x16(),
    );
    let fcfg = FailoverConfig::default()
        .with_watchdog_ms(150)
        .with_policy(FailoverPolicy::Retry);
    let plan = FaultPlan::new().with(3, FaultKind::CrashDevice, 1);
    let out = run_failover(&app, &g, &p, sssp_configs(), &fcfg, Some(plan.injector()));
    assert_eq!(out.values, baseline.values);
    let f = out.report.failover;
    assert_eq!(f.migrations, 0);
    assert_eq!(f.crash_detections, 1);
    assert_eq!(f.resume_step, 3, "rolled back to the barrier, not step 0");
    assert_eq!(out.report.recovery.rollbacks, 1);
    assert_eq!(out.report.recovery.retries, 1);
    assert!(!out.report.recovery.degraded);
}

/// A 0 ms deadline times out a healthy fabric's exchanges with no rank to
/// blame: every rank rolls back together, each timeout is counted, and past
/// the retry budget the run degrades and still converges.
#[test]
fn unattributed_exchange_timeouts_roll_back_and_are_counted() {
    let g = sweep_graph(61);
    let p = even_partition(&g);
    let app = Sssp { source: 0 };
    let baseline = run_ranks(
        &app,
        &g,
        &p,
        &specs(),
        &sssp_configs(),
        PcieLink::gen2_x16(),
    );
    let fcfg = FailoverConfig::default().with_watchdog_ms(0);
    let out = run_failover(&app, &g, &p, sssp_configs(), &fcfg, None);
    assert_eq!(out.values, baseline.values);
    let (f, r) = (out.report.failover, out.report.recovery);
    assert!(f.exchange_timeouts > 0, "no timeout counted: {f:?}");
    assert!(r.rollbacks > 0, "no rollback: {r:?}");
    assert!(f.exchange_timeouts >= r.rollbacks, "{f:?} {r:?}");
    assert_eq!((f.crash_detections, f.hang_detections), (0, 0));
    assert_eq!(f.migrations, 0);
}

/// `--failover off`: no migration machinery — the survivor degrades to the
/// sequential engine from the last barrier and still converges correctly.
#[test]
fn off_policy_degrades_to_the_survivor() {
    let g = sweep_graph(59);
    let p = even_partition(&g);
    let app = Sssp { source: 0 };
    let baseline = run_ranks(
        &app,
        &g,
        &p,
        &specs(),
        &sssp_configs(),
        PcieLink::gen2_x16(),
    );
    let fcfg = FailoverConfig::default()
        .with_watchdog_ms(150)
        .with_policy(FailoverPolicy::Off);
    let plan = FaultPlan::new().with(2, FaultKind::CrashDevice, 0);
    let out = run_failover(&app, &g, &p, sssp_configs(), &fcfg, Some(plan.injector()));
    assert_eq!(out.values, baseline.values);
    assert!(out.report.failover.degraded_single);
    assert!(out.report.recovery.degraded);
    assert_eq!(out.report.failover.migrations, 0);
    assert_eq!(out.report.mode, "seq");
}

/// Without faults the failover driver runs the very rank loop the plain
/// fabric driver runs: the same values, the same per-step counters (apart
/// from the checkpoint and heartbeat tallies only it keeps) and the same
/// simulated time, with no failover activity.
#[test]
fn fault_free_failover_run_matches_plain_hetero() {
    let g = sweep_graph(61);
    let app = Sssp { source: 0 };
    let shared = |mut c: StepCounters| {
        c.checkpoints_written = 0;
        c.checkpoint_bytes = 0;
        c.heartbeats = 0;
        c
    };
    for n in [2usize, 3] {
        let p = n_partition(&g, n);
        let plain = run_ranks(
            &app,
            &g,
            &p,
            &n_specs(n),
            &n_configs(n, None),
            PcieLink::gen2_x16(),
        );
        let out = run_n_failover(&app, &g, &p, n, &FailoverConfig::default(), None);
        assert_eq!(out.values, plain.values, "n={n}");
        let reports = out.device_reports.iter().chain([&out.report]);
        let plain_reports = plain.device_reports.iter().chain([&plain.report]);
        for (fo, pl) in reports.zip(plain_reports) {
            let fo_steps: Vec<StepCounters> = fo
                .steps
                .iter()
                .map(|s| shared(s.counters.clone()))
                .collect();
            let pl_steps: Vec<StepCounters> = pl.steps.iter().map(|s| s.counters.clone()).collect();
            assert_eq!(fo_steps, pl_steps, "n={n} {}", fo.device);
            assert_eq!(
                fo.sim_total().to_bits(),
                pl.sim_total().to_bits(),
                "n={n} {}",
                fo.device
            );
        }
        assert!(!out.report.failover.any(), "n={n}");
        assert_eq!(out.report.recovery.rollbacks, 0, "n={n}");
        assert!(out.report.recovery.checkpoints_written > 0, "n={n}");
        assert_eq!(out.report.mode, "cpu-mic");
    }
}

/// A dropped exchange under the failover driver is a bounded rollback to
/// the newest common snapshot — both the drop and the rollback are
/// surfaced in the report.
#[test]
fn dropped_exchange_rolls_back_to_snapshot_not_step_zero() {
    let g = sweep_graph(67);
    let p = even_partition(&g);
    let app = Sssp { source: 0 };
    let baseline = run_ranks(
        &app,
        &g,
        &p,
        &specs(),
        &sssp_configs(),
        PcieLink::gen2_x16(),
    );
    let fcfg = FailoverConfig::default();
    let plan = FaultPlan::new().with(4, FaultKind::DropExchange, 1);
    let out = run_failover(&app, &g, &p, sssp_configs(), &fcfg, Some(plan.injector()));
    assert_eq!(out.values, baseline.values);
    let f = out.report.failover;
    assert_eq!(f.exchange_drops, 1);
    assert_eq!(f.resume_step, 4, "resumed from the barrier before the drop");
    assert_eq!(out.report.recovery.rollbacks, 1);
    assert!(out.report.total_exchange_drops() >= 1);
    assert!(out.report.summary().contains("xchg drops=1"));
}

/// Even round-robin split across `n` ranks (mirrors [`even_partition`]).
fn n_partition(g: &Csr, n: usize) -> DevicePartition {
    partition_n(g, PartitionScheme::RoundRobin, &Shares::even(n), 0)
}

/// Rank 0 is the CPU, the rest MICs.
fn n_specs(n: usize) -> Vec<DeviceSpec> {
    (0..n)
        .map(|r| {
            if r == 0 {
                DeviceSpec::xeon_e5_2680()
            } else {
                DeviceSpec::xeon_phi_se10p()
            }
        })
        .collect()
}

/// All-lock rank configs checkpointing every superstep, sharing one
/// injector so each planned fault fires once.
fn n_configs(n: usize, injector: Option<FaultInjector>) -> Vec<EngineConfig> {
    (0..n)
        .map(|_| {
            let c = EngineConfig::locking()
                .with_checkpoint_every(1)
                .with_backoff_ms(0);
            match &injector {
                Some(inj) => c.with_fault_plan(inj.clone()),
                None => c,
            }
        })
        .collect()
}

/// Run the N-rank failover driver with fresh in-memory stores.
fn run_n_failover<P: VertexProgram>(
    program: &P,
    g: &Csr,
    p: &DevicePartition,
    n: usize,
    fcfg: &FailoverConfig,
    injector: Option<FaultInjector>,
) -> RunOutput<P::Value>
where
    P::Value: PodState,
{
    run_configs(program, g, p, &n_configs(n, injector), fcfg)
}

/// Run the failover driver over one config per rank with fresh in-memory
/// stores.
fn run_configs<P: VertexProgram>(
    program: &P,
    g: &Csr,
    p: &DevicePartition,
    configs: &[EngineConfig],
    fcfg: &FailoverConfig,
) -> RunOutput<P::Value>
where
    P::Value: PodState,
{
    let n = configs.len();
    let mut stores: Vec<MemStore> = (0..n).map(|_| MemStore::new()).collect();
    let store_refs: Vec<&mut dyn CheckpointStore> = stores
        .iter_mut()
        .map(|s| s as &mut dyn CheckpointStore)
        .collect();
    run_ranks_failover(
        program,
        g,
        p,
        &n_specs(n),
        configs,
        PcieLink::gen2_x16(),
        fcfg,
        store_refs,
        false,
    )
}

/// The N-rank elasticity contract: at every superstep boundary of a 3- and
/// 4-rank SSSP run, kill one rank, and after recovery kill a second — the
/// survivor subset (one rank for N=3, two for N=4) must still converge to
/// exactly the sequential engine's fixpoint, with both evictions accounted.
#[test]
fn kill_one_then_a_second_rank_at_every_superstep_n3_n4() {
    let g = sweep_graph(83);
    let app = Sssp { source: 0 };
    let seq = run_single(
        &app,
        &g,
        DeviceSpec::xeon_e5_2680(),
        &EngineConfig::sequential(),
    );
    for n in [3usize, 4] {
        let p = n_partition(&g, n);
        let clean = run_n_failover(&app, &g, &p, n, &FailoverConfig::default(), None);
        assert_eq!(clean.values, seq.values, "clean {n}-rank run vs sequential");
        assert!(!clean.report.failover.any(), "n={n}");
        let steps = clean.report.steps.len() as u64;
        assert!(steps >= 8, "sweep graph too shallow at n={n}: {steps}");
        let fcfg = FailoverConfig::default().with_watchdog_ms(200);
        for s1 in 0..steps {
            // First victim rotates over all ranks; the second dies two
            // barriers later (same barrier at the tail of the run — the
            // simultaneous double-loss case).
            let a = (s1 % n as u64) as u8;
            let b = ((s1 + 1) % n as u64) as u8;
            let s2 = (s1 + 2).min(steps - 1);
            let plan = FaultPlan::new().with(s1, FaultKind::CrashRank(a), 0).with(
                s2,
                FaultKind::CrashRank(b),
                0,
            );
            let out = run_n_failover(&app, &g, &p, n, &fcfg, Some(plan.injector()));
            assert_eq!(
                out.values, seq.values,
                "n={n}: killed rank {a}@{s1} then rank {b}@{s2}"
            );
            let f = out.report.failover;
            assert_eq!(f.crash_detections, 2, "n={n} s1={s1}");
            let mut expect = vec![a.min(b), a.max(b)];
            expect.dedup();
            assert_eq!(f.evicted_rank_list(), expect, "n={n} s1={s1}");
            assert!(f.migrations >= 1, "n={n} s1={s1}");
            // Step reports stay monotone through both migration splices.
            let ids: Vec<usize> = out.report.steps.iter().map(|r| r.step).collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "n={n} s1={s1}: {ids:?}"
            );
        }
    }
}

/// A partitioned link is not a dead rank: the verdict evicts exactly the
/// higher endpoint of the cut, the two remaining ranks keep running as a
/// fabric, and the fixpoint is untouched.
#[test]
fn link_partition_evicts_the_higher_endpoint_and_fabric_survives() {
    let g = sweep_graph(89);
    let app = Sssp { source: 0 };
    let seq = run_single(
        &app,
        &g,
        DeviceSpec::xeon_e5_2680(),
        &EngineConfig::sequential(),
    );
    let n = 3usize;
    let p = n_partition(&g, n);
    let fcfg = FailoverConfig::default().with_watchdog_ms(200);
    let plan = FaultPlan::new().with(3, FaultKind::partition_link(0, 2), 0);
    let out = run_n_failover(&app, &g, &p, n, &fcfg, Some(plan.injector()));
    assert_eq!(out.values, seq.values);
    let f = out.report.failover;
    assert_eq!(f.link_partitions, 1);
    assert_eq!(f.crash_detections, 0, "a cut link must not read as a crash");
    assert_eq!(
        f.evicted_rank_list(),
        vec![2],
        "the higher side of the 0-2 cut loses the verdict"
    );
    assert!(
        !f.degraded_single,
        "ranks 0 and 1 keep running as a two-rank fabric"
    );
    assert!(out.report.summary().contains("evicted=[2]"));
}

/// Both devices lost at the same superstep: nothing to migrate onto, so
/// the driver degrades to a sequential run from the last barrier.
#[test]
fn losing_both_devices_degrades_but_stays_correct() {
    let g = sweep_graph(71);
    let p = even_partition(&g);
    let app = Sssp { source: 0 };
    let baseline = run_ranks(
        &app,
        &g,
        &p,
        &specs(),
        &sssp_configs(),
        PcieLink::gen2_x16(),
    );
    let fcfg = FailoverConfig::default().with_watchdog_ms(150);
    let plan =
        FaultPlan::new()
            .with(3, FaultKind::CrashDevice, 0)
            .with(3, FaultKind::CrashDevice, 1);
    let out = run_failover(&app, &g, &p, sssp_configs(), &fcfg, Some(plan.injector()));
    assert_eq!(out.values, baseline.values);
    assert!(out.report.failover.degraded_single);
    assert_eq!(out.report.failover.crash_detections, 2);
}

/// The fail-stop sites fire on every rank under the recovery machine, not
/// only on a single device: a dead worker, a dead mover or a poisoned insert
/// on rank 1 rolls every rank back once — no eviction, no dropped exchange.
#[test]
fn fail_stop_on_a_fabric_rank_rolls_every_rank_back_once() {
    let g = sweep_graph(97);
    let app = Sssp { source: 0 };
    for n in [2usize, 3] {
        let p = n_partition(&g, n);
        let clean = run_ranks(
            &app,
            &g,
            &p,
            &n_specs(n),
            &n_configs(n, None),
            PcieLink::gen2_x16(),
        );
        for kind in [
            FaultKind::KillWorker,
            FaultKind::KillMover,
            FaultKind::PoisonInsert,
        ] {
            let plan = FaultPlan::new().with(3, kind, 1);
            let fcfg = FailoverConfig::default();
            let out = run_n_failover(&app, &g, &p, n, &fcfg, Some(plan.injector()));
            assert_eq!(out.values, clean.values, "n={n} {kind:?}");
            let (r, f) = (out.report.recovery, out.report.failover);
            assert_eq!(r.rollbacks, 1, "n={n} {kind:?}");
            assert_eq!(r.faults_injected, 1, "n={n} {kind:?}");
            assert!(!r.degraded, "n={n} {kind:?}");
            assert_eq!(f.migrations, 0, "n={n} {kind:?}");
            assert_eq!(f.exchange_drops, 0, "n={n} {kind:?}");
        }
    }
}

/// Checkpoints are counted when they are written: a 3-rank run that
/// degrades after two dropped exchanges still reports the snapshots every
/// rank wrote before it degraded.
#[test]
fn degraded_fabric_run_reports_the_checkpoints_it_wrote() {
    let g = sweep_graph(101);
    let app = Sssp { source: 0 };
    let n = 3;
    let p = n_partition(&g, n);
    let plan =
        FaultPlan::new()
            .with(2, FaultKind::DropExchange, 1)
            .with(4, FaultKind::DropExchange, 1);
    let configs: Vec<EngineConfig> = n_configs(n, Some(plan.injector()))
        .into_iter()
        .map(|c| c.with_max_retries(1))
        .collect();
    let out = run_configs(&app, &g, &p, &configs, &FailoverConfig::default());
    let r = out.report.recovery;
    assert!(r.degraded);
    assert_eq!(out.report.failover.exchange_drops, 2);
    // Steps 0-1, then 2-3 after the rollback, completed on all three ranks,
    // each checkpointing every superstep.
    assert_eq!(r.checkpoints_written, 12);
    assert!(r.checkpoint_bytes > 0);
}

/// The driver wakes the watchdog when the ranks finish instead of waiting
/// out its poll (25 ms at the default 2 s deadline), so a short fault-free
/// run takes less than one poll. One host thread per rank keeps the run
/// itself far below that.
#[test]
fn fault_free_run_does_not_wait_out_the_watchdog_poll() {
    let g = chain(20);
    let p = n_partition(&g, 2);
    let app = Sssp { source: 0 };
    let configs: Vec<EngineConfig> = n_configs(2, None)
        .into_iter()
        .map(|c| c.with_host_threads(1))
        .collect();
    let fastest = (0..3)
        .map(|_| {
            run_configs(&app, &g, &p, &configs, &FailoverConfig::default())
                .report
                .wall
        })
        .fold(f64::INFINITY, f64::min);
    assert!(fastest < 0.025, "fastest of 3 runs took {fastest:.4} s");
}
