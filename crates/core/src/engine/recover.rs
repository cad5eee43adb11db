//! Recovering single-device driver: barrier checkpointing, deterministic
//! fault injection, rollback/replay with bounded retries, and sequential
//! graceful degradation.
//!
//! The BSP structure makes fault tolerance cheap: the only live state at a
//! superstep barrier is the vertex values, the active flags, and the step
//! index — message buffers are rebuilt from scratch by
//! [`DeviceEngine::begin_step`] every superstep, so nothing mid-flight needs
//! saving. A snapshot is therefore a versioned, checksummed byte image of
//! exactly that state, written through a pluggable [`CheckpointStore`].
//!
//! Faults follow a *transient fail-stop* model: an injected fault (a dead
//! worker or mover, a poisoned insert) is detected at a phase boundary, the
//! dirty engine is discarded, and the run rolls back to the newest valid
//! checkpoint (corrupt snapshots are rejected by checksum and the previous
//! one is used). Replay is bounded by [`RecoveryPolicy::max_retries`] with
//! exponential backoff; past the budget the run degrades to the sequential
//! engine resumed from the last good barrier, so the computation still
//! finishes — slower, never wrong.

use crate::api::VertexProgram;
use crate::engine::config::{EngineConfig, ExecMode};
use crate::engine::device::DeviceEngine;
use crate::engine::flat::run_cap;
use crate::engine::hetero::step_report;
use crate::engine::integrity::{BarrierImage, IntegrityCtx};
use crate::engine::seq::run_seq_resume;
use crate::metrics::{RunOutput, RunReport, StepReport};
use phigraph_device::{CostModel, DeviceSpec, StepCounters};
use phigraph_graph::state::{decode_state_slice, encode_state_slice, PodState};
use phigraph_graph::Csr;
use phigraph_recover::{
    latest_valid_snapshot, CheckpointStore, FaultInjector, FaultKind, RecoveryPolicy,
    RecoveryStats, Snapshot,
};
use phigraph_trace::{HistKind, Phase, ThreadTracer};
use std::time::Instant;

/// A resume point decoded from a snapshot: next step, values, active flags.
pub(crate) type ResumePoint<V> = (usize, Vec<V>, Vec<u8>);

/// Validate a decoded snapshot against the program/graph and unpack it —
/// the one snapshot validator every driver uses. Mismatches (wrong app,
/// wrong value width, wrong vertex count) are counted as rejections,
/// exactly like checksum failures: the snapshot cannot seed this run.
pub(crate) fn validate_snapshot<P: VertexProgram>(
    snap: Snapshot,
    n: usize,
    stats: &mut RecoveryStats,
) -> Option<ResumePoint<P::Value>>
where
    P::Value: PodState,
{
    if snap.app != P::NAME
        || snap.value_size as usize != P::Value::STATE_SIZE
        || snap.active.len() != n
    {
        stats.corrupt_snapshots_rejected += 1;
        return None;
    }
    match decode_state_slice::<P::Value>(&snap.values, n) {
        Some(values) => Some((snap.superstep as usize, values, snap.active)),
        None => {
            stats.corrupt_snapshots_rejected += 1;
            None
        }
    }
}

/// Encode the barrier state `values`/`flags` as the snapshot step
/// `next_step` starts from.
pub(crate) fn encode_snapshot<P: VertexProgram>(
    next_step: u64,
    values: &[P::Value],
    flags: &[u8],
) -> Vec<u8>
where
    P::Value: PodState,
{
    Snapshot {
        superstep: next_step,
        app: P::NAME.to_string(),
        value_size: P::Value::STATE_SIZE as u16,
        values: encode_state_slice(values),
        active: flags.to_vec(),
    }
    .encode()
}

/// Snapshot the engine's barrier state after superstep `step` into
/// `store` — the one snapshot writer every driver uses — and count it into
/// `c`. Bounded storage: the oldest snapshots past the keep window are
/// dropped. The `CorruptCheckpoint` fault flips payload bytes *after*
/// encoding (the write path breaks, not the engine), so the damage is only
/// discovered by the checksum when recovery later reads the snapshot back.
/// A failed save is not fatal: the run continues, protected by the
/// previous checkpoint.
pub(crate) fn write_snapshot<P: VertexProgram>(
    engine: &DeviceEngine<'_, P>,
    step: usize,
    store: &mut dyn CheckpointStore,
    policy: &RecoveryPolicy,
    injector: Option<&FaultInjector>,
    c: &mut StepCounters,
) where
    P::Value: PodState,
{
    let next_step = step as u64 + 1;
    let mut bytes = encode_snapshot::<P>(next_step, &engine.values, engine.active_flags());
    if injector.is_some_and(|i| i.fire(step as u64, FaultKind::CorruptCheckpoint, engine.dev_id)) {
        // Smear a couple of payload bytes; the trailing FNV checksum will
        // reject the snapshot at recovery time.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let last = bytes.len() - 1;
        bytes[last] ^= 0xAA;
        c.faults_injected += 1;
    }
    if store.save(next_step, &bytes).is_ok() {
        c.checkpoints_written += 1;
        c.checkpoint_bytes += bytes.len() as u64;
        if policy.keep_snapshots > 0 {
            let _ = store.retain_newest(policy.keep_snapshots);
        }
    }
}

/// Load the newest store snapshot that validates for this program.
fn load_resume<P: VertexProgram>(
    store: &dyn CheckpointStore,
    n: usize,
    stats: &mut RecoveryStats,
) -> Option<ResumePoint<P::Value>>
where
    P::Value: PodState,
{
    let snap = latest_valid_snapshot(store, stats)?;
    validate_snapshot::<P>(snap, n, stats)
}

/// Execute one superstep's phases with the defined injection sites. A
/// returned `Err` is a detected fail-stop (or an SDC that rung-1 healing
/// could not contain): the step's partial work must be discarded and the
/// engine considered dirty.
///
/// The silent-corruption sites (`BitFlipState`, `BitFlipMessage`) fire
/// whether or not integrity checking is on — with it off the damage
/// propagates undetected, which is exactly the failure mode the detection
/// lattice exists to close. With `integrity full` the state digest audit
/// heals rotted barrier state group-granularly, and the message checksum
/// audit quarantines and *regenerates* just the corrupted vertex groups
/// (rung 1) instead of rolling the run back.
#[allow(clippy::too_many_arguments)]
fn execute_step<P: VertexProgram>(
    engine: &mut DeviceEngine<'_, P>,
    c: &mut StepCounters,
    injector: Option<&FaultInjector>,
    step: u64,
    tracer: &ThreadTracer,
    integ: &mut IntegrityCtx,
    image: Option<&BarrierImage<P::Value>>,
    stats: &mut RecoveryStats,
) -> Result<(), FaultKind>
where
    P::Value: PodState,
{
    let fires = |k: FaultKind| injector.is_some_and(|i| i.fire(step, k, 0));
    // SDC site A: a bit of barrier state rots silently between barriers.
    if fires(FaultKind::BitFlipState) && engine.flip_state_bit(step ^ 0x5DC1_57A7).is_some() {
        stats.faults_injected += 1;
        c.faults_injected += 1;
    }
    // State digest audit (every step in full mode, scrub boundaries
    // otherwise). Rung 1: heal rotted groups straight from the image.
    if let Some(img) = image {
        if integ.audits_state(step as usize) {
            integ.stats.state_checks += 1;
            if integ.is_scrub_step(step as usize) {
                integ.stats.scrub_passes += 1;
            }
            let bad = img.audit_state(engine);
            if !bad.is_empty() {
                integ.stats.state_detections += bad.len() as u64;
                integ.stats.quarantined_groups += bad.len() as u64;
                engine.heal_state_groups(&bad, &img.values, &img.flags);
                if img.audit_state(engine).is_empty() {
                    integ.stats.group_heals += bad.len() as u64;
                } else {
                    // The image itself cannot reproduce its own digest:
                    // escalate to rollback.
                    return Err(FaultKind::BitFlipState);
                }
            }
        }
    }
    // Site 1: a worker thread dies during generation (detected at join).
    if fires(FaultKind::KillWorker) {
        return Err(FaultKind::KillWorker);
    }
    let remote = {
        let _g = tracer.span(Phase::Generate, step as u32);
        engine.generate(c)
    };
    debug_assert!(
        remote.is_empty(),
        "single-device recoverable run produced remote messages"
    );
    // SDC site B: a buffered message bit flips inside the CSB.
    if fires(FaultKind::BitFlipMessage) && engine.corrupt_message_cell(step ^ 0x0B17_F117).is_some()
    {
        stats.faults_injected += 1;
        c.faults_injected += 1;
    }
    // Site 2: a mover dies while draining its SPSC queues.
    if fires(FaultKind::KillMover) {
        return Err(FaultKind::KillMover);
    }
    engine.finalize_insertion_stats(c);
    // Site 3: a poisoned CSB insert surfaces at stat finalization.
    if fires(FaultKind::PoisonInsert) {
        return Err(FaultKind::PoisonInsert);
    }
    // Group checksum audit between the insert barrier and processing.
    // Rung 1: quarantine mismatched groups and regenerate only them.
    if integ.audits_messages() {
        if let Some(img) = image {
            integ.stats.group_checks += 1;
            let bad = engine.audit_message_groups();
            if !bad.is_empty() {
                integ.stats.group_detections += bad.len() as u64;
                integ.stats.quarantined_groups += bad.len() as u64;
                engine.reset_message_groups(&bad);
                engine.regenerate_groups(&bad, &img.values, &img.flags);
                engine.finalize_insertion_stats(c);
                if engine.audit_message_groups().is_empty() {
                    integ.stats.group_heals += bad.len() as u64;
                } else {
                    // Regeneration could not reproduce the checksums:
                    // escalate to rollback.
                    return Err(FaultKind::BitFlipMessage);
                }
            }
        }
    }
    {
        let _p = tracer.span(Phase::Process, step as u32);
        engine.process(c);
    }
    {
        let _u = tracer.span(Phase::Update, step as u32);
        engine.update(c);
    }
    Ok(())
}

/// Run `program` on a single device with checkpointing and recovery.
///
/// Behaves like [`run_single`] for the framework modes, plus:
///
/// * every [`RecoveryPolicy::checkpoint_every`] supersteps the barrier
///   state is snapshotted into `store`;
/// * faults from [`EngineConfig::fault_plan`] fire at their injection
///   sites; each detected fault rolls the run back to the newest valid
///   checkpoint and replays (bounded retries, exponential backoff);
/// * after the retry budget the run degrades to the sequential engine from
///   the last good barrier ([`RecoveryStats::degraded`]);
/// * with `resume = true`, the run starts from the newest valid snapshot
///   already in `store` instead of from `init` (the CLI's `--resume`).
///
/// All recovery events are surfaced in [`RunReport::recovery`] and the
/// per-step checkpoint counters.
///
/// [`run_single`]: crate::engine::run_single
pub fn run_recoverable<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
    store: &mut dyn CheckpointStore,
    resume: bool,
) -> RunOutput<P::Value>
where
    P::Value: PodState,
{
    assert!(
        matches!(config.mode, ExecMode::Locking | ExecMode::Pipelined),
        "the recovering driver runs the framework modes; use run_single for flat/seq"
    );
    let n = graph.num_vertices();
    let cap = run_cap(program.max_supersteps(), config.max_supersteps);
    let cost = CostModel::new(spec.clone());
    let policy = config.recovery;
    let injector = config.fault_plan.clone();
    let mut stats = RecoveryStats::default();
    let mut integ = IntegrityCtx::new(config);

    let mut resume_state: Option<ResumePoint<P::Value>> = if resume {
        load_resume::<P>(store, n, &mut stats)
    } else {
        None
    };

    let tracer = config.tracer("dev0", 0);
    let wall_start = Instant::now();
    let mut steps: Vec<StepReport> = Vec::new();
    let mut retry: u32 = 0;
    let mut final_values: Option<Vec<P::Value>> = None;

    'attempt: while final_values.is_none() {
        let mut engine = DeviceEngine::new(program, graph, spec.clone(), config.clone(), 0, None);
        let start_step = match resume_state.take() {
            Some((step, vals, flags)) => {
                engine.restore(vals, &flags);
                step
            }
            None => 0,
        };
        // Drop step reports past the rollback point (replayed steps get
        // fresh reports).
        steps.retain(|s| s.step < start_step);
        // Arm the CSB checksums and take the first barrier image.
        if integ.audits_messages() {
            engine.set_integrity_audit(true);
        }
        let mut image: Option<BarrierImage<P::Value>> = if integ.needs_image() {
            Some(BarrierImage::capture(&engine))
        } else {
            None
        };

        for step in start_step..cap {
            let t0 = Instant::now();
            let _step_span = tracer.span(Phase::Superstep, step as u32);
            let mut c = engine.begin_step();
            let mut step_err = execute_step(
                &mut engine,
                &mut c,
                injector.as_ref(),
                step as u64,
                &tracer,
                &mut integ,
                image.as_ref(),
                &mut stats,
            )
            .err();
            // App invariant audit (the semantic safety net). A violation is
            // rung 2: restore the barrier image and replay the whole step
            // once. A bit-identical replay means the invariant fired on
            // clean data (false positive) and the result is accepted; a
            // persistent violation after a differing replay escalates to
            // rollback.
            if step_err.is_none() {
                if let Some(img) = &image {
                    if integ.audits_app(step) {
                        integ.stats.audits_run += 1;
                        let stride = integ.app_stride(step);
                        if program
                            .audit_step(step, &img.values, &engine.values, stride)
                            .is_some()
                        {
                            integ.stats.audit_violations += 1;
                            integ.stats.step_replays += 1;
                            let suspect = encode_state_slice(&engine.values);
                            engine.restore(img.values.clone(), &img.flags);
                            c = engine.begin_step();
                            step_err = execute_step(
                                &mut engine,
                                &mut c,
                                injector.as_ref(),
                                step as u64,
                                &tracer,
                                &mut integ,
                                image.as_ref(),
                                &mut stats,
                            )
                            .err();
                            if step_err.is_none() {
                                let replayed = encode_state_slice(&engine.values);
                                if replayed == suspect {
                                    // The recompute confirms the state: the
                                    // alarm was spurious.
                                    integ.stats.false_positive_audits += 1;
                                } else if program
                                    .audit_step(step, &img.values, &engine.values, stride)
                                    .is_some()
                                {
                                    step_err = Some(FaultKind::BitFlipState);
                                }
                            }
                        }
                    }
                }
            }
            if step_err.is_some() {
                stats.faults_injected += 1;
                stats.rollbacks += 1;
                if retry >= policy.max_retries {
                    // Retry budget exhausted: graceful degradation. Replay
                    // the rest sequentially from the last good barrier.
                    stats.degraded = true;
                    let seq_resume = load_resume::<P>(store, n, &mut stats);
                    let seq_start = seq_resume.as_ref().map_or(0, |(s, _, _)| *s);
                    let seq_out = run_seq_resume(program, graph, spec.clone(), config, seq_resume);
                    steps.retain(|s| s.step < seq_start);
                    steps.extend(seq_out.report.steps);
                    final_values = Some(seq_out.values);
                    continue 'attempt;
                }
                retry += 1;
                stats.retries += 1;
                let backoff = policy.backoff_ms(retry - 1);
                if backoff > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                }
                // Roll back: newest valid snapshot, or superstep 0 when no
                // checkpoint survives.
                resume_state = load_resume::<P>(store, n, &mut stats);
                continue 'attempt;
            }

            let msgs = c.msgs_total();
            // The barrier after `update` is the consistency point: snapshot
            // the state that step `step + 1` will start from.
            if policy.is_checkpoint_step(step as u64 + 1) {
                let ck0 = Instant::now();
                let _ck = tracer.span(Phase::Checkpoint, step as u32);
                let faults0 = c.faults_injected;
                write_snapshot(&engine, step, store, &policy, injector.as_ref(), &mut c);
                stats.checkpoints_written += c.checkpoints_written;
                stats.checkpoint_bytes += c.checkpoint_bytes;
                stats.faults_injected += c.faults_injected - faults0;
                config.record_hist(
                    HistKind::CheckpointWriteUs,
                    ck0.elapsed().as_micros() as u64,
                );
            }
            steps.push(step_report(&engine, &cost, step, c, 0.0, t0));
            // The barrier after update is the next step's reference state.
            if let Some(img) = image.as_mut() {
                *img = BarrierImage::capture(&engine);
            }
            if msgs == 0 {
                break;
            }
        }
        final_values = Some(engine.values);
    }

    let report = RunReport {
        app: P::NAME.to_string(),
        device: spec.name.to_string(),
        mode: config.mode.name().to_string(),
        steps,
        wall: wall_start.elapsed().as_secs_f64(),
        recovery: stats,
        integrity: integ.stats,
        ..Default::default()
    };
    RunOutput {
        values: final_values.expect("attempt loop always produces values"),
        device_reports: vec![report.clone()],
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{GenContext, MsgSink};
    use crate::engine::run_single;
    use phigraph_graph::generators::small::chain;
    use phigraph_graph::VertexId;
    use phigraph_recover::{FaultPlan, MemStore};
    use phigraph_simd::Min;

    struct Sssp;
    impl VertexProgram for Sssp {
        type Msg = f32;
        type Reduce = Min;
        type Value = f32;
        const NAME: &'static str = "sssp";
        fn init(&self, v: VertexId, _g: &Csr) -> (f32, bool) {
            if v == 0 {
                (0.0, true)
            } else {
                (f32::INFINITY, false)
            }
        }
        fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
            let my = *ctx.value(v);
            for e in ctx.graph.edge_range(v) {
                ctx.send(ctx.graph.targets[e], my + ctx.graph.weight(e));
            }
        }
        fn update(&self, _v: VertexId, msg: f32, value: &mut f32, _g: &Csr) -> bool {
            if msg < *value {
                *value = msg;
                true
            } else {
                false
            }
        }
    }

    fn cfg() -> EngineConfig {
        EngineConfig::locking()
            .with_checkpoint_every(2)
            .with_backoff_ms(0)
    }

    #[test]
    fn fault_free_recoverable_matches_plain_run() {
        let g = chain(20);
        let spec = DeviceSpec::xeon_e5_2680();
        let plain = run_single(&Sssp, &g, spec.clone(), &EngineConfig::locking());
        let mut store = MemStore::new();
        let out = run_recoverable(&Sssp, &g, spec, &cfg(), &mut store, false);
        assert_eq!(out.values, plain.values);
        assert!(out.report.recovery.checkpoints_written > 0);
        assert_eq!(out.report.recovery.rollbacks, 0);
        assert_eq!(
            out.report.total_checkpoints(),
            out.report.recovery.checkpoints_written
        );
        // Bounded storage: the keep window holds.
        assert!(store.list().len() <= cfg().recovery.keep_snapshots);
    }

    #[test]
    fn kill_worker_rolls_back_and_replays_identically() {
        let g = chain(20);
        let spec = DeviceSpec::xeon_e5_2680();
        let clean = run_single(&Sssp, &g, spec.clone(), &EngineConfig::locking());
        for kind in [
            FaultKind::KillWorker,
            FaultKind::KillMover,
            FaultKind::PoisonInsert,
        ] {
            let plan = FaultPlan::single(7, kind);
            let config = cfg().with_fault_plan(plan.injector());
            let mut store = MemStore::new();
            let out = run_recoverable(&Sssp, &g, spec.clone(), &config, &mut store, false);
            assert_eq!(out.values, clean.values, "bit-identical after {kind:?}");
            assert_eq!(out.report.recovery.rollbacks, 1);
            assert_eq!(out.report.recovery.retries, 1);
            assert_eq!(out.report.recovery.faults_injected, 1);
            assert!(!out.report.recovery.degraded);
            // Replayed steps get fresh reports: indices stay monotone.
            for w in out.report.steps.windows(2) {
                assert_eq!(w[1].step, w[0].step + 1);
            }
        }
    }

    #[test]
    fn fault_before_first_checkpoint_restarts_from_scratch() {
        let g = chain(12);
        let spec = DeviceSpec::xeon_e5_2680();
        let plan = FaultPlan::single(0, FaultKind::KillWorker);
        let config = cfg().with_fault_plan(plan.injector());
        let mut store = MemStore::new();
        let out = run_recoverable(&Sssp, &g, spec, &config, &mut store, false);
        for v in 0..12 {
            assert_eq!(out.values[v], v as f32);
        }
        assert_eq!(out.report.recovery.rollbacks, 1);
        assert_eq!(out.report.steps[0].step, 0);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected_for_previous_valid_one() {
        let g = chain(20);
        let spec = DeviceSpec::xeon_e5_2680();
        let clean = run_single(&Sssp, &g, spec.clone(), &EngineConfig::locking());
        // checkpoint_every=2 writes snapshot 4 during step 3 — corrupt it,
        // then kill a worker at step 5: recovery must reject snapshot 4 by
        // checksum and roll back to snapshot 2.
        let plan = FaultPlan::new()
            .with(3, FaultKind::CorruptCheckpoint, 0)
            .with(5, FaultKind::KillWorker, 0);
        let config = cfg().with_fault_plan(plan.injector());
        let mut store = MemStore::new();
        let out = run_recoverable(&Sssp, &g, spec, &config, &mut store, false);
        assert_eq!(out.values, clean.values);
        assert_eq!(out.report.recovery.corrupt_snapshots_rejected, 1);
        assert_eq!(out.report.recovery.rollbacks, 1);
        assert_eq!(out.report.recovery.faults_injected, 2);
    }

    #[test]
    fn degrades_to_sequential_after_retry_budget() {
        let g = chain(20);
        let spec = DeviceSpec::xeon_e5_2680();
        let clean = run_single(&Sssp, &g, spec.clone(), &EngineConfig::locking());
        // Three distinct faults with a budget of one retry: the second
        // replay attempt's fault exhausts the budget mid-run.
        let plan = FaultPlan::new()
            .with(3, FaultKind::KillWorker, 0)
            .with(5, FaultKind::KillMover, 0)
            .with(7, FaultKind::PoisonInsert, 0);
        let config = cfg().with_fault_plan(plan.injector()).with_max_retries(1);
        let mut store = MemStore::new();
        let out = run_recoverable(&Sssp, &g, spec, &config, &mut store, false);
        assert_eq!(out.values, clean.values, "degraded run still correct");
        assert!(out.report.recovery.degraded);
        assert_eq!(out.report.recovery.retries, 1);
        assert!(out.report.summary().contains("DEGRADED->seq"));
        for w in out.report.steps.windows(2) {
            assert_eq!(w[1].step, w[0].step + 1);
        }
    }

    #[test]
    fn resume_continues_from_stored_snapshot() {
        let g = chain(12);
        let spec = DeviceSpec::xeon_e5_2680();
        let mut store = MemStore::new();
        // Phase 1: run the first 5 supersteps, checkpointing every step.
        let phase1 = EngineConfig::locking()
            .with_checkpoint_every(1)
            .with_max_supersteps(5);
        let _ = run_recoverable(&Sssp, &g, spec.clone(), &phase1, &mut store, false);
        assert!(store.list().contains(&5));
        // Phase 2: resume and finish.
        let out = run_recoverable(
            &Sssp,
            &g,
            spec,
            &EngineConfig::locking().with_checkpoint_every(1),
            &mut store,
            true,
        );
        assert_eq!(out.report.steps[0].step, 5, "resumed at the snapshot");
        for v in 0..12 {
            assert_eq!(out.values[v], v as f32);
        }
    }

    #[test]
    fn resume_rejects_snapshots_from_another_app() {
        let g = chain(6);
        let spec = DeviceSpec::xeon_e5_2680();
        let mut store = MemStore::new();
        let snap = Snapshot {
            superstep: 4,
            app: "pagerank".to_string(),
            value_size: 4,
            values: vec![0u8; 6 * 4],
            active: vec![0u8; 6],
        };
        store.save(4, &snap.encode()).unwrap();
        let out = run_recoverable(
            &Sssp,
            &g,
            spec,
            &EngineConfig::locking().with_checkpoint_every(0),
            &mut store,
            true,
        );
        // Mismatched app snapshot is rejected; the run starts fresh.
        assert_eq!(out.report.steps[0].step, 0);
        assert_eq!(out.report.recovery.corrupt_snapshots_rejected, 1);
        for v in 0..6 {
            assert_eq!(out.values[v], v as f32);
        }
    }

    #[test]
    fn pipelined_mode_recovers_too() {
        let g = chain(16);
        let spec = DeviceSpec::xeon_e5_2680();
        let clean = run_single(&Sssp, &g, spec.clone(), &EngineConfig::locking());
        let plan = FaultPlan::single(4, FaultKind::KillMover);
        let config = EngineConfig::pipelined()
            .with_host_threads(4)
            .with_checkpoint_every(2)
            .with_backoff_ms(0)
            .with_fault_plan(plan.injector());
        let mut store = MemStore::new();
        let out = run_recoverable(&Sssp, &g, spec, &config, &mut store, false);
        assert_eq!(out.values, clean.values);
        assert_eq!(out.report.recovery.rollbacks, 1);
        assert_eq!(out.report.mode, "pipe");
    }
}
