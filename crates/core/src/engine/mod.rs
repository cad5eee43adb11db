//! Execution engines: single-device drivers, the heterogeneous CPU-MIC
//! driver, and the object-message path.

pub mod config;
pub mod device;
pub mod failover;
pub mod flat;
pub mod hetero;
pub mod integrity;
pub mod obj;
pub mod recover;
pub mod seq;

pub use config::{EngineConfig, ExecMode};
pub use device::DeviceEngine;
pub use failover::{run_hetero_failover, run_ranks_failover};
pub use flat::run_flat;
pub use hetero::{run_hetero, run_hetero_recovering, run_ranks, run_ranks_recovering};
pub use integrity::{framed_exchange, BarrierImage, IntegrityCtx};
pub use recover::run_recoverable;
pub use seq::{run_seq, run_seq_resume};

use crate::api::VertexProgram;
use crate::metrics::{RunOutput, RunReport, StepReport};
use flat::run_cap;
use phigraph_device::{CostModel, DeviceSpec};
use phigraph_graph::Csr;
use phigraph_simd::MsgValue;
use phigraph_trace::Phase;
use std::time::Instant;

/// Run `program` to completion on a single device with any execution mode.
///
/// # Re-entrancy
///
/// Every driver borrows the graph (`&Csr`) and allocates all mutable run
/// state — values, CSB arenas, queues, counters — per call, so any number
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
        ExecMode::Flat => run_flat(program, graph, spec, config),
        ExecMode::Sequential => run_seq(program, graph, spec, config),
        ExecMode::Locking | ExecMode::Pipelined => run_csb_single(program, graph, spec, config),
    }
}

fn run_csb_single<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
) -> RunOutput<P::Value> {
    let engine = DeviceEngine::new(program, graph, spec, config.clone(), 0, None);
    run_device(engine, config)
}

/// The single-device superstep loop over an already built engine.
pub(crate) fn run_device<P: VertexProgram>(
    mut engine: DeviceEngine<'_, P>,
    config: &EngineConfig,
) -> RunOutput<P::Value> {
    let (program, spec) = (engine.program, engine.spec.clone());
    let cost = CostModel::new(spec.clone());
    let cap = run_cap(program.max_supersteps(), config.max_supersteps);
    let tracer = config.tracer("dev0", 0);
    let wall_start = Instant::now();
    let mut steps: Vec<StepReport> = Vec::new();

    for step in 0.. {
        if step >= cap || config.cancelled() {
            break;
        }
        let t0 = Instant::now();
        let step_span = tracer.span(Phase::Superstep, step as u32);
        let mut c = engine.begin_step();
        let remote = {
            let _g = tracer.span(Phase::Generate, step as u32);
            engine.generate(&mut c)
        };
        debug_assert!(
            remote.is_empty(),
            "single-device run produced remote messages"
        );
        engine.finalize_insertion_stats(&mut c);
        // Mid-superstep cancellation point: the partial step is abandoned
        // (values still hold the last completed superstep's state).
        if config.cancelled() {
            break;
        }
        {
            let _p = tracer.span(Phase::Process, step as u32);
            engine.process(&mut c);
        }
        {
            let _u = tracer.span(Phase::Update, step as u32);
            engine.update(&mut c);
        }
        drop(step_span);

        let vectorized = config.vectorized && P::SIMD_REDUCIBLE;
        let times = cost.step_times(&c, config.gen_mode(&spec), P::Msg::SIZE, vectorized);
        let msgs = c.msgs_total();
        c.gen_chunks.clear();
        c.proc_chunks.clear();
        steps.push(StepReport {
            step,
            times,
            comm_time: 0.0,
            wall: t0.elapsed().as_secs_f64(),
            counters: c,
        });
        if msgs == 0 {
            break;
        }
    }

    let report = RunReport {
        app: P::NAME.to_string(),
        device: spec.name.to_string(),
        mode: config.mode.name().to_string(),
        steps,
        wall: wall_start.elapsed().as_secs_f64(),
        ..Default::default()
    };
    RunOutput {
        values: engine.values,
        device_reports: vec![report.clone()],
        report,
    }
}
