//! Execution engines. Every driver runs the one per-rank superstep loop in
//! [`hetero`], generic over the rank's message store: [`run_single`]
//! (lock/pipe/omp on a [`DeviceEngine`]) and [`obj::run_obj_single`]
//! (object messages in per-vertex mailboxes) as its `N = 1` case, and
//! [`run_ranks`] and [`obj::run_obj_ranks`] over a blocking link mesh. The
//! one recovery machine in [`failover`] guards the same loop with barrier
//! snapshots, rollback and degradation: [`run_recoverable`] is its
//! single-device `N = 1` case, and [`run_ranks_failover`] adds heartbeats,
//! deadlines, straggler votes and live migration on a fabric. Only the
//! sequential reference ([`seq`]), which `run_single` also dispatches and
//! the recovery machine degrades to, keeps a loop of its own.

pub mod config;
pub mod device;
pub mod failover;
pub mod hetero;
pub mod integrity;
pub mod obj;
pub mod recover;
pub mod seq;

pub use config::{EngineConfig, ExecMode};
pub use device::DeviceEngine;
pub use failover::run_ranks_failover;
pub use hetero::run_ranks;
pub use integrity::{framed_exchange, BarrierImage};
pub use recover::run_recoverable;

use crate::api::VertexProgram;
use crate::metrics::RunOutput;
use hetero::{rank_loop, rank_report, run_cap, RankEngine};
use phigraph_device::DeviceSpec;
use phigraph_graph::Csr;
use seq::run_seq;
use std::time::Instant;

/// Run `program` to completion on a single device with any execution mode.
///
/// # Re-entrancy
///
/// Every driver borrows the graph (`&Csr`) and allocates all mutable run
/// state — values, CSB arenas, staging, counters — per call, so any number
/// of runs may execute concurrently against one shared CSR (e.g. behind an
/// `Arc<Csr>`). The serving daemon in `phigraph-serve` relies on this:
/// one loaded graph, many concurrent per-tenant jobs.
///
/// # Cancellation
///
/// When [`EngineConfig::cancel`] holds a token, the drivers poll it at
/// superstep phase boundaries (including *inside* a superstep, between
/// generate/process/update) and stop cleanly at the first boundary after
/// it fires, returning the partial output computed so far. Each poll ticks
/// the token's embedded heartbeat, so a watchdog can distinguish a slow
/// run (heartbeat advancing) from a hung one.
pub fn run_single<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
) -> RunOutput<P::Value> {
    match config.mode {
        ExecMode::Sequential => run_seq(program, graph, spec, config),
        _ => run_device(DeviceEngine::new(
            program,
            graph,
            spec,
            config.clone(),
            0,
            None,
        )),
    }
}

/// A single device over an already built engine: the `N = 1` case of the
/// rank loop — no links, no assignment, no heartbeat, on the caller's
/// thread.
pub(crate) fn run_device<E: RankEngine>(mut engine: E) -> RunOutput<E::Value> {
    let cap = run_cap(engine.program_cap(), engine.config().max_supersteps);
    let wall_start = Instant::now();
    let run = rank_loop(&mut engine, Vec::new(), 0..cap, None, None, None);
    let wall = wall_start.elapsed().as_secs_f64();
    let mode = engine.config().mode.name();
    let report = rank_report(E::NAME, engine.spec(), mode, run.steps, wall);
    RunOutput {
        values: engine.into_values(),
        device_reports: vec![report.clone()],
        report,
    }
}
