//! Sequential reference engine (Table II baselines: "written in C/C++ and
//! executed by one core" — here the same program run by one thread with a
//! plain mailbox array, no buffers, no locks).

use crate::active::ActiveSet;
use crate::api::{GenContext, MsgSink, VertexProgram};
use crate::metrics::{RunOutput, RunReport, StepReport};
use phigraph_device::cost::GenMode;
use phigraph_device::{CostModel, DeviceSpec, StepCounters};
use phigraph_graph::{Csr, VertexId};
use phigraph_simd::{MsgValue, ReduceOp};
use phigraph_trace::Phase;
use std::marker::PhantomData;
use std::time::Instant;

use super::config::EngineConfig;
use super::hetero::run_cap;

/// The mailbox sink. The reduction is a type parameter, not a stored
/// function pointer, so it inlines into every program's `generate`.
struct SeqSink<'a, T: MsgValue, R> {
    acc: &'a mut [T],
    counts: &'a mut [u32],
    reduce: PhantomData<R>,
}

impl<'a, T: MsgValue, R: ReduceOp<T>> MsgSink<T> for SeqSink<'a, T, R> {
    #[inline]
    fn send(&mut self, dst: VertexId, msg: T) {
        let d = dst as usize;
        self.acc[d] = if self.counts[d] == 0 {
            msg
        } else {
            R::apply(self.acc[d], msg)
        };
        self.counts[d] += 1;
    }
}

/// Run a program to completion on one simulated core.
pub(crate) fn run_seq<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
) -> RunOutput<P::Value> {
    run_seq_resume(program, graph, spec, config, None)
}

/// [`run_seq`] with an optional resume point: `(next_step, values, active
/// flags)` captured at a superstep barrier. The recovering drivers use this
/// for graceful degradation — after the retry budget is exhausted they
/// restart sequentially from the last valid checkpoint instead of from
/// scratch. Step reports are numbered from `next_step` so spliced run
/// reports stay monotone.
pub(crate) fn run_seq_resume<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
    resume: Option<(usize, Vec<P::Value>, Vec<u8>)>,
) -> RunOutput<P::Value> {
    if P::ALWAYS_ACTIVE {
        assert!(
            program.max_supersteps().is_some() || config.max_supersteps.is_some(),
            "ALWAYS_ACTIVE programs must bound their supersteps"
        );
    }
    let n = graph.num_vertices();
    let seq_spec = spec.sequential();
    let cost = CostModel::new(seq_spec.clone());
    let (start_step, mut values, mut active) = match resume {
        Some((step, vals, flags)) => {
            assert_eq!(vals.len(), n, "resume value snapshot size mismatch");
            let mut active = ActiveSet::new(n);
            active.restore_flags(&flags);
            (step, vals, active)
        }
        None => {
            let mut values = vec![P::Value::default(); n];
            let mut active = ActiveSet::new(n);
            for v in 0..n as VertexId {
                let (val, act) = program.init(v, graph);
                values[v as usize] = val;
                active.set(v, act);
            }
            (0, values, active)
        }
    };
    let mut acc: Vec<P::Msg> = vec![P::Msg::ZERO; n];
    let mut counts: Vec<u32> = vec![0; n];

    let cap = run_cap(program.max_supersteps(), config.max_supersteps);
    let tracer = config.tracer("seq", 0);
    let wall_start = Instant::now();
    let mut steps: Vec<StepReport> = Vec::new();

    for step in start_step.. {
        if step >= cap || config.cancelled() {
            break;
        }
        let t0 = Instant::now();
        let _step_span = tracer.span(Phase::Superstep, step as u32);
        let mut c = StepCounters::default();
        counts.fill(0);

        // Generation into the mailbox (reduction applied on arrival).
        {
            let _g = tracer.span(Phase::Generate, step as u32);
            let mut sink = SeqSink::<P::Msg, P::Reduce> {
                acc: &mut acc,
                counts: &mut counts,
                reduce: PhantomData,
            };
            let mut ctx = GenContext::new(graph, &values, &mut sink);
            for v in 0..n as VertexId {
                if active.is_active(v) {
                    c.active_vertices += 1;
                    c.gen_edges += graph.out_degree(v) as u64;
                    program.generate(v, &mut ctx);
                }
            }
            c.msgs_local = ctx.sent;
        }
        if P::HAS_POST_GENERATE {
            for v in 0..n as VertexId {
                if active.is_active(v) {
                    program.post_generate(v, &mut values[v as usize]);
                }
            }
        }
        active.clear();
        c.proc_msgs = c.msgs_local;
        c.bytes_gen = c.gen_edges * 8 + c.msgs_local * (4 + P::Msg::SIZE as u64);
        c.bytes_proc = c.msgs_local * P::Msg::SIZE as u64;

        // Update pass.
        {
            let _u = tracer.span(Phase::Update, step as u32);
            for v in 0..n {
                if counts[v] > 0 {
                    let act = program.update(v as VertexId, acc[v], &mut values[v], graph);
                    active.set(v as VertexId, act);
                    c.updated_vertices += 1;
                }
            }
        }
        if P::ALWAYS_ACTIVE {
            active.activate_every();
        }
        c.next_active = active.count();
        c.bytes_update = c.updated_vertices * (std::mem::size_of::<P::Value>() as u64 + 1);

        let times = cost.step_times(&c, GenMode::Sequential, P::Msg::SIZE, false);
        let msgs = c.msgs_total();
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
        device: seq_spec.name.to_string(),
        mode: "seq".to_string(),
        steps,
        wall: wall_start.elapsed().as_secs_f64(),
        ..Default::default()
    };
    RunOutput {
        values,
        device_reports: vec![report.clone()],
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::small::{chain, weighted_diamond};
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

    #[test]
    fn seq_sssp_diamond() {
        let g = weighted_diamond();
        let out = run_seq(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::sequential(),
        );
        assert_eq!(out.values, vec![0.0, 1.0, 5.0, 2.0]);
    }

    #[test]
    fn seq_resume_from_initial_state_matches_fresh_run() {
        let g = weighted_diamond();
        let cfg = EngineConfig::sequential();
        let fresh = run_seq(&Sssp, &g, DeviceSpec::xeon_e5_2680(), &cfg);
        let vals = vec![0.0, f32::INFINITY, f32::INFINITY, f32::INFINITY];
        let flags = vec![1u8, 0, 0, 0];
        let resumed = run_seq_resume(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &cfg,
            Some((0, vals, flags)),
        );
        assert_eq!(resumed.values, fresh.values);
        assert_eq!(resumed.report.supersteps(), fresh.report.supersteps());
    }

    #[test]
    fn seq_resume_numbers_steps_from_resume_point() {
        let g = chain(5);
        // Barrier state after superstep 2 of SSSP on the chain: wavefront
        // sits at vertex 2.
        let vals = vec![0.0, 1.0, 2.0, f32::INFINITY, f32::INFINITY];
        let flags = vec![0u8, 0, 1, 0, 0];
        let out = run_seq_resume(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::sequential(),
            Some((2, vals, flags)),
        );
        assert_eq!(out.values, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(out.report.steps[0].step, 2);
    }

    #[test]
    fn seq_mic_is_slower_than_seq_cpu() {
        // Table II: "a CPU core runs the same sequential code around 11x
        // faster" — the simulated times must reflect it.
        let g = chain(500);
        let cpu = run_seq(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::sequential(),
        );
        let mic = run_seq(
            &Sssp,
            &g,
            DeviceSpec::xeon_phi_se10p(),
            &EngineConfig::sequential(),
        );
        assert_eq!(cpu.values, mic.values);
        let ratio = mic.report.sim_total() / cpu.report.sim_total();
        assert!(
            (6.0..16.0).contains(&ratio),
            "MIC/CPU sequential ratio {ratio} should be ~11"
        );
    }
}
