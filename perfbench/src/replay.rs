//! `DeviceEngine` driven one superstep at a time, with a span around each
//! call: the loop `run_single` runs for the `lock` and `pipe` modes
//! (`new` → `begin_step` → `generate` → `finalize_insertion_stats` →
//! `process` → `update`, then the cost-model accounting of the step,
//! stopping at the superstep cap or after a superstep that generated no
//! messages).

use std::time::Instant;

use phigraph_core::api::VertexProgram;
use phigraph_core::engine::{DeviceEngine, EngineConfig, ExecMode};
use phigraph_device::counters::StepCounters;
use phigraph_device::{CostModel, DeviceSpec};
use phigraph_graph::Csr;
use phigraph_simd::MsgValue;

use crate::spans::Spans;

/// Span names of one engine mode.
pub struct Names {
    /// The whole solve (parent of every other span of the replay).
    pub solve: &'static str,
    /// `DeviceEngine::new`.
    pub new: &'static str,
    /// One superstep (parent of the three phase spans).
    pub step: &'static str,
    /// `DeviceEngine::generate`.
    pub generate: &'static str,
    /// `DeviceEngine::process`.
    pub process: &'static str,
    /// `DeviceEngine::update`.
    pub update: &'static str,
}

/// Span names of the locking engine.
pub const LOCK: Names = Names {
    solve: "solve.lock",
    new: "engine.new",
    step: "engine.lock.step",
    generate: "engine.lock.generate",
    process: "engine.lock.process",
    update: "engine.lock.update",
};

/// Span names of the pipelined engine.
pub const PIPE: Names = Names {
    solve: "solve.pipe",
    new: "engine.new",
    step: "engine.pipe.step",
    generate: "engine.pipe.generate",
    process: "engine.pipe.process",
    update: "engine.pipe.update",
};

/// Names for a mode.
pub fn names(mode: ExecMode) -> &'static Names {
    match mode {
        ExecMode::Locking => &LOCK,
        ExecMode::Pipelined => &PIPE,
        _ => panic!("DeviceEngine runs the lock and pipe modes only"),
    }
}

/// One executed superstep.
pub struct StepRecord {
    /// Wall time of the whole superstep, seconds.
    pub wall_s: f64,
    /// The superstep's counters.
    pub counters: StepCounters,
}

/// Drive `program` to completion on a fresh `DeviceEngine`, recording a
/// span per call under the id `id`. Returns the engine (holding the final
/// values) and the per-superstep records.
pub fn replay<'g, P: VertexProgram>(
    program: &'g P,
    graph: &'g Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
    spans: &mut Spans,
    id: u64,
) -> (DeviceEngine<'g, P>, Vec<StepRecord>) {
    let n = names(config.mode);
    let cost = CostModel::new(spec.clone());
    let gen_mode = config.gen_mode(&spec);
    let vectorized = config.vectorized && P::SIMD_REDUCIBLE;
    let root = spans.open(n.solve, id);
    let mut engine = spans.time(n.new, id, |_| {
        DeviceEngine::new(program, graph, spec, config.clone(), 0, None)
    });
    let cap = match (program.max_supersteps(), config.max_supersteps) {
        (Some(a), Some(b)) => a.min(b),
        (a, b) => a.or(b).unwrap_or(usize::MAX),
    };
    let mut steps = Vec::new();
    for _ in 0..cap {
        let t0 = Instant::now();
        let step = spans.open(n.step, id);
        let mut c = engine.begin_step();
        let remote = spans.time(n.generate, id, |_| engine.generate(&mut c));
        assert!(
            remote.is_empty(),
            "a single device produced remote messages"
        );
        engine.finalize_insertion_stats(&mut c);
        spans.time(n.process, id, |_| engine.process(&mut c));
        spans.time(n.update, id, |_| engine.update(&mut c));
        std::hint::black_box(cost.step_times(&c, gen_mode, P::Msg::SIZE, vectorized));
        spans.close(step);
        let msgs = c.msgs_total();
        c.gen_chunks.clear();
        c.proc_chunks.clear();
        steps.push(StepRecord {
            wall_s: t0.elapsed().as_secs_f64(),
            counters: c,
        });
        if msgs == 0 {
            break;
        }
    }
    spans.close(root);
    (engine, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_apps::workloads::{pokec_like, pokec_like_weighted, Scale};
    use phigraph_apps::{Bfs, PageRank, Sssp};
    use phigraph_core::engine::run_single;
    use phigraph_serve::values_checksum;

    fn configs() -> [EngineConfig; 2] {
        [
            EngineConfig::locking().with_host_threads(2),
            EngineConfig::pipelined().with_host_threads(2),
        ]
    }

    #[test]
    fn pipe_replay_is_bit_identical_to_run_single() {
        let g = pokec_like(Scale::Tiny, 3);
        let cfg = &configs()[1];
        let spec = DeviceSpec::xeon_e5_2680();
        let pr = PageRank::default();
        let direct = run_single(&pr, &g, spec.clone(), cfg);
        let mut spans = Spans::new();
        let (engine, steps) = replay(&pr, &g, spec, cfg, &mut spans, 1);
        assert_eq!(
            values_checksum(&engine.values),
            values_checksum(&direct.values)
        );
        assert_eq!(steps.len(), direct.report.supersteps());
        let msgs: u64 = steps.iter().map(|s| s.counters.msgs_total()).sum();
        assert_eq!(msgs, direct.report.total_msgs());
        // The solve, its new, and per superstep one step span with three
        // children.
        assert_eq!(spans.all().len(), 2 + 4 * steps.len());
    }

    #[test]
    fn lock_replay_matches_run_single_within_tolerance() {
        let g = pokec_like(Scale::Tiny, 5);
        let cfg = &configs()[0];
        let spec = DeviceSpec::xeon_e5_2680();
        let pr = PageRank::default();
        let direct = run_single(&pr, &g, spec.clone(), cfg);
        let (engine, steps) = replay(&pr, &g, spec, cfg, &mut Spans::new(), 1);
        assert_eq!(steps.len(), 20);
        for (a, b) in engine.values.iter().zip(&direct.values) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn traversal_replays_are_exact_in_both_modes() {
        let g = pokec_like_weighted(Scale::Tiny, 9);
        let spec = DeviceSpec::xeon_e5_2680();
        for cfg in &configs() {
            let sssp = Sssp { source: 1 };
            let direct = run_single(&sssp, &g, spec.clone(), cfg);
            let (engine, steps) = replay(&sssp, &g, spec.clone(), cfg, &mut Spans::new(), 2);
            assert_eq!(engine.values, direct.values);
            assert_eq!(steps.len(), direct.report.supersteps());
            let bfs = Bfs { source: 1 };
            let direct = run_single(&bfs, &g, spec.clone(), cfg);
            let (engine, _) = replay(&bfs, &g, spec.clone(), cfg, &mut Spans::new(), 3);
            assert_eq!(engine.values, direct.values);
        }
    }
}
