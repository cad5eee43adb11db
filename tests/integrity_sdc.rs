//! Silent-data-corruption sweeps: flip a bit somewhere in the message path
//! at every superstep and demand that `--integrity full` detects it,
//! quarantines the affected vertex groups, heals them by targeted
//! recompute (no whole-run retry), and converges bit-identical to the
//! fault-free baseline. Also here: the zero-overhead contract — integrity
//! `off` must be bit-identical to the plain engines, because the disabled
//! path does no work beyond one relaxed atomic load.
//!
//! The fault model is the SDC subset of [`FaultKind`]: `BitFlipMessage`
//! (a CSB cell rots after the drain), `BitFlipState` (a barrier value rots
//! between supersteps), `TruncateFrame` (an exchange frame arrives short).
//! None of them crash anything — with integrity off they are *silent*.

use phigraph_apps::{PageRank, Sssp, Wcc};
use phigraph_comm::PcieLink;
use phigraph_core::engine::{run_ranks, run_recoverable, run_single, EngineConfig};
use phigraph_core::metrics::RunOutput;
use phigraph_device::DeviceSpec;
use phigraph_graph::{Csr, EdgeList, SplitMix64};
use phigraph_partition::{partition, PartitionScheme, Ratio};
use phigraph_recover::{FaultKind, FaultPlan, IntegrityMode, MemStore};

/// A connected-ish graph big enough to run ~10 supersteps of SSSP.
fn sweep_graph(seed: u64) -> Csr {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = 500usize;
    let mut el = EdgeList::new(n);
    for v in 0..n as u32 {
        el.push(v, (v + 1) % n as u32);
    }
    for _ in 0..1_600 {
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

fn run_with_fault<P>(
    app: &P,
    g: &Csr,
    base: &EngineConfig,
    step: u64,
    kind: FaultKind,
) -> RunOutput<P::Value>
where
    P: phigraph_core::api::VertexProgram,
    P::Value: phigraph_graph::state::PodState,
{
    let mut store = MemStore::new();
    let cfg = base
        .clone()
        .with_integrity(IntegrityMode::Full)
        .with_fault_plan(FaultPlan::single(step, kind).injector());
    run_recoverable(app, g, spec(), &cfg, &mut store, false)
}

/// Flip a message bit at every superstep of SSSP: the group-checksum audit
/// must detect 100% of the injected corruptions and heal them by targeted
/// regeneration of the quarantined groups — never a whole-run retry.
#[test]
fn sssp_message_bitflip_at_every_superstep_heals_in_place() {
    let g = sweep_graph(71);
    let app = Sssp { source: 0 };
    let cfg = EngineConfig::locking().with_backoff_ms(0);
    let baseline = run_single(&app, &g, spec(), &cfg);
    let steps = baseline.report.steps.len();
    assert!(steps >= 8, "sweep graph too shallow: {steps} supersteps");

    let mut detected = 0u64;
    for s in 0..steps as u64 {
        let out = run_with_fault(&app, &g, &cfg, s, FaultKind::BitFlipMessage);
        assert_eq!(
            out.values, baseline.values,
            "divergence after message bit flip at superstep {s}"
        );
        let i = out.report.integrity;
        if out.report.recovery.faults_injected > 0 {
            // The flip landed in an occupied cell: it must be detected and
            // healed group-granularly, with no rollback and no replay.
            assert!(i.group_detections >= 1, "step {s}: undetected flip");
            assert!(i.quarantined_groups >= 1, "step {s}");
            assert!(i.group_heals >= 1, "step {s}: quarantine not healed");
            assert_eq!(out.report.recovery.rollbacks, 0, "step {s}");
            assert_eq!(i.step_replays, 0, "step {s}: escalated past rung 1");
            detected += 1;
        }
        assert!(i.group_checks > 0, "full mode must audit every step");
    }
    // Every superstep that still moves messages must have fired the fault.
    assert!(
        detected >= steps as u64 - 1,
        "flips fired on only {detected}/{steps} supersteps"
    );
}

/// Rot a barrier value at every superstep of SSSP: the state-digest audit
/// against the barrier image must catch it and copy the image back.
#[test]
fn sssp_state_bitflip_at_every_superstep_heals_in_place() {
    let g = sweep_graph(73);
    let app = Sssp { source: 0 };
    let cfg = EngineConfig::locking().with_backoff_ms(0);
    let baseline = run_single(&app, &g, spec(), &cfg);
    let steps = baseline.report.steps.len();

    for s in 0..steps as u64 {
        let out = run_with_fault(&app, &g, &cfg, s, FaultKind::BitFlipState);
        assert_eq!(
            out.values, baseline.values,
            "divergence after state bit flip at superstep {s}"
        );
        assert_eq!(out.report.recovery.faults_injected, 1, "step {s}");
        let i = out.report.integrity;
        assert!(i.state_detections >= 1, "step {s}: rotted state missed");
        assert!(i.group_heals >= 1, "step {s}: state not healed");
        assert_eq!(out.report.recovery.rollbacks, 0, "step {s}");
    }
}

/// The same sweep for PageRank: an order-sensitive `f32` `Sum` combiner,
/// pinned to one host thread so both the baseline and the regeneration
/// insert in the same order — the healed run must be bit-exact.
#[test]
fn pagerank_bitflip_sweep_is_bit_identical() {
    let g = sweep_graph(79);
    let app = PageRank {
        damping: 0.85,
        iterations: 8,
    };
    let cfg = EngineConfig::locking()
        .with_host_threads(1)
        .with_backoff_ms(0);
    let baseline = run_single(&app, &g, spec(), &cfg);
    let steps = baseline.report.steps.len();
    assert!(steps >= 6);

    let kinds = [FaultKind::BitFlipMessage, FaultKind::BitFlipState];
    for s in 0..steps as u64 {
        let kind = kinds[s as usize % kinds.len()];
        let out = run_with_fault(&app, &g, &cfg, s, kind);
        let a: Vec<u32> = out.values.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = baseline.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            a,
            b,
            "pagerank diverged after {} at superstep {s}",
            kind.name()
        );
        assert_eq!(out.report.recovery.rollbacks, 0, "step {s}");
    }
}

/// WCC label propagation under both SDC kinds.
#[test]
fn wcc_bitflip_sweep_is_bit_identical() {
    let g = sweep_graph(83);
    let app = Wcc::new(&g);
    let cfg = EngineConfig::locking().with_backoff_ms(0);
    let baseline = run_single(&app, &g, spec(), &cfg);
    let steps = baseline.report.steps.len();
    assert!(steps >= 4);

    let kinds = [FaultKind::BitFlipState, FaultKind::BitFlipMessage];
    for s in 0..steps as u64 {
        let kind = kinds[s as usize % kinds.len()];
        let out = run_with_fault(&app, &g, &cfg, s, kind);
        assert_eq!(
            out.values,
            baseline.values,
            "wcc diverged after {} at superstep {s}",
            kind.name()
        );
    }
}

/// Zero-overhead contract: integrity `off` performs no checks at all and
/// is bit-identical to the plain engine; `full` with no faults detects
/// nothing, heals nothing, and is *also* bit-identical.
#[test]
fn integrity_off_and_clean_full_are_bit_identical_to_plain_runs() {
    let g = sweep_graph(89);
    let app = Sssp { source: 0 };
    let cfg = EngineConfig::locking().with_backoff_ms(0);
    let plain = run_single(&app, &g, spec(), &cfg);

    // Off: the recoverable driver with integrity disabled.
    let mut store = MemStore::new();
    let off = run_recoverable(
        &app,
        &g,
        spec(),
        &cfg.clone().with_integrity(IntegrityMode::Off),
        &mut store,
        false,
    );
    assert_eq!(off.values, plain.values, "integrity off changed the result");
    assert!(
        !off.report.integrity.any(),
        "off mode did integrity work: {:?}",
        off.report.integrity
    );

    // Full, no faults: audits run, nothing fires, same answer.
    let mut store = MemStore::new();
    let full = run_recoverable(
        &app,
        &g,
        spec(),
        &cfg.clone().with_integrity(IntegrityMode::Full),
        &mut store,
        false,
    );
    assert_eq!(full.values, plain.values, "clean full-mode run diverged");
    let i = full.report.integrity;
    assert!(i.group_checks > 0 && i.state_checks > 0 && i.audits_run > 0);
    assert_eq!(i.detections(), 0, "clean run raised detections: {i:?}");
    assert_eq!(i.group_heals + i.step_replays, 0);
    assert_eq!(full.report.recovery.rollbacks, 0);
}

/// Background scrubbing: `--scrub-every N` audits the barrier digests on a
/// cadence even below `full`, and catches a state flip planted on (or
/// before) a scrub boundary.
#[test]
fn scrub_cadence_catches_state_rot_below_full_mode() {
    let g = sweep_graph(97);
    let app = Sssp { source: 0 };
    let baseline = run_single(&app, &g, spec(), &EngineConfig::locking());

    let mut store = MemStore::new();
    let cfg = EngineConfig::locking()
        .with_backoff_ms(0)
        .with_integrity(IntegrityMode::Frames)
        .with_scrub_every(2)
        .with_fault_plan(FaultPlan::single(4, FaultKind::BitFlipState).injector());
    let out = run_recoverable(&app, &g, spec(), &cfg, &mut store, false);
    assert_eq!(out.values, baseline.values, "scrub failed to heal the rot");
    let i = out.report.integrity;
    assert!(i.scrub_passes >= 1, "no scrub pass ran: {i:?}");
    assert!(i.state_detections >= 1, "scrub missed the rot: {i:?}");
    assert!(i.group_heals >= 1);
}

/// Frame integrity on the heterogeneous path: corrupt the wire (bit flip
/// and truncation), and the framed exchange must detect it on the receiver
/// and heal it with one lock-step re-exchange — same final values, no
/// whole-run retry.
#[test]
fn hetero_frame_corruption_heals_by_reexchange() {
    let g = sweep_graph(101);
    let p = partition(&g, PartitionScheme::RoundRobin, Ratio::even(), 0);
    let app = Sssp { source: 0 };
    let baseline = run_single(&app, &g, spec(), &EngineConfig::locking());

    for kind in [FaultKind::BitFlipMessage, FaultKind::TruncateFrame] {
        let plan = FaultPlan::single(3, kind);
        let inj = plan.injector();
        let mk = |cfg: EngineConfig| {
            cfg.with_integrity(IntegrityMode::Frames)
                .with_fault_plan(inj.clone())
        };
        let out = run_ranks(
            &app,
            &g,
            &p,
            &[DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()],
            &[mk(EngineConfig::locking()), mk(EngineConfig::locking())],
            PcieLink::gen2_x16(),
        );
        assert_eq!(out.values, baseline.values, "{} not healed", kind.name());
        let i = out.report.integrity;
        assert!(i.frame_checks > 0, "{}", kind.name());
        assert!(i.frame_detections >= 1, "{} undetected", kind.name());
        assert!(i.frame_reexchanges >= 1, "{} not re-exchanged", kind.name());
    }
}
