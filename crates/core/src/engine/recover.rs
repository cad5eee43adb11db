//! Barrier snapshots and the single-device entry into the recovery
//! machine.
//!
//! The BSP structure makes fault tolerance cheap: the only live state at a
//! superstep barrier is the vertex values, the active flags, and the step
//! index — message buffers are rebuilt from scratch by
//! [`DeviceEngine::begin_step`] every superstep, so nothing mid-flight needs
//! saving. A snapshot is therefore a versioned, checksummed byte image of
//! exactly that state, written through a pluggable [`CheckpointStore`].
//! This module holds the one snapshot encoder, writer and validator every
//! driver uses.
//!
//! Faults follow a *transient fail-stop* model: an injected fault (a dead
//! worker or mover, a poisoned insert) is detected at a phase boundary, the
//! dirty engine is discarded, and the run rolls back to the newest valid
//! checkpoint (corrupt snapshots are rejected by checksum and the previous
//! one is used). That attempt machine lives in [`failover`]; a single
//! device ([`run_recoverable`]) is its `N = 1` case.
//!
//! [`failover`]: crate::engine::failover

use crate::api::VertexProgram;
use crate::engine::config::EngineConfig;
use crate::engine::device::DeviceEngine;
use crate::engine::failover::run_ranks_failover;
use crate::metrics::RunOutput;
use phigraph_comm::PcieLink;
use phigraph_device::{DeviceSpec, StepCounters};
use phigraph_graph::state::{decode_state_slice, encode_state_slice, PodState};
use phigraph_graph::Csr;
use phigraph_partition::{DevicePartition, PartitionScheme, Shares};
use phigraph_recover::{
    CheckpointStore, FailoverConfig, FaultInjector, FaultKind, RecoveryStats, Snapshot,
};
use std::sync::Mutex;

/// Validate a decoded snapshot against the program/graph and unpack it —
/// the one snapshot validator every driver uses. Mismatches (wrong app,
/// wrong value width, wrong vertex count) are counted as rejections,
/// exactly like checksum failures: the snapshot cannot seed this run.
pub(crate) fn validate_snapshot<P: VertexProgram>(
    snap: Snapshot,
    n: usize,
    stats: &mut RecoveryStats,
) -> Option<(usize, Vec<P::Value>, Vec<u8>)>
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
/// `store` under the engine's recovery policy — the one snapshot writer
/// every driver uses — and count it into `c`. Bounded storage: the oldest
/// snapshots past the keep window are dropped. The `CorruptCheckpoint`
/// fault flips payload bytes *after* encoding (the write path breaks, not
/// the engine), so the damage is only discovered by the checksum when
/// recovery later reads the snapshot back. A failed save is not fatal: the
/// run continues, protected by the previous checkpoint.
pub(crate) fn write_snapshot<P: VertexProgram>(
    engine: &DeviceEngine<'_, P>,
    step: usize,
    store: &Mutex<&mut dyn CheckpointStore>,
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
    let mut store = store.lock().expect("checkpoint store poisoned");
    if store.save(next_step, &bytes).is_ok() {
        c.checkpoints_written += 1;
        c.checkpoint_bytes += bytes.len() as u64;
        let keep = engine.config.recovery.keep_snapshots;
        if keep > 0 {
            let _ = store.retain_newest(keep);
        }
    }
}

/// Run `program` on a single device with checkpointing and recovery: the
/// `N = 1` case of the recovery machine behind [`run_ranks_failover`] — one
/// rank with its one store and no links, so no heartbeat, no watchdog and
/// no straggler vote.
///
/// Behaves like [`run_single`] for `lock`, `pipe` and `omp`, plus:
///
/// * every `checkpoint_every` supersteps of [`EngineConfig::recovery`] the
///   barrier state is snapshotted into `store`;
/// * faults from [`EngineConfig::fault_plan`] fire at their injection
///   sites; each detected fail-stop rolls the run back to the newest valid
///   checkpoint and replays (bounded retries, exponential backoff), and the
///   silent corruptions meet the integrity rungs of
///   [`EngineConfig::integrity`];
/// * after the retry budget the run degrades to the sequential engine from
///   the last good barrier ([`RecoveryStats::degraded`]);
/// * with `resume = true`, the run starts from the newest valid snapshot
///   already in `store` instead of from `init` (the CLI's `--resume`).
///
/// All recovery events are surfaced in [`RunReport::recovery`] and the
/// per-step checkpoint counters.
///
/// [`run_single`]: crate::engine::run_single
/// [`RunReport::recovery`]: crate::metrics::RunReport
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
    let one = DevicePartition {
        assign: vec![0; graph.num_vertices()],
        shares: Shares::even(1),
        scheme: PartitionScheme::Continuous,
    };
    run_ranks_failover(
        program,
        graph,
        &one,
        &[spec],
        std::slice::from_ref(config),
        PcieLink::gen2_x16(),
        &FailoverConfig::default(),
        vec![store],
        resume,
    )
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
        // The same rank loop: equal per-step counters apart from the
        // checkpoint tallies only the recovering run keeps, and the same
        // simulated time bit for bit.
        let shared = |s: &crate::metrics::StepReport| StepCounters {
            checkpoints_written: 0,
            checkpoint_bytes: 0,
            ..s.counters.clone()
        };
        let steps = |r: &crate::metrics::RunReport| r.steps.iter().map(shared).collect::<Vec<_>>();
        assert_eq!(steps(&out.report), steps(&plain.report));
        assert_eq!(
            out.report.sim_total().to_bits(),
            plain.report.sim_total().to_bits()
        );
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
