//! The flat OpenMP-style baseline engine (the paper's "OMP" bars).
//!
//! "The CPU OMP and MIC OMP versions are written with OpenMP directives on
//! sequential code, with proper use of synchronization (OpenMP locks)."
//! This engine reproduces that strawman: a parallel loop over active
//! vertices updates a per-destination accumulator directly under a
//! per-destination (striped) lock — no message buffer, no SIMD, and every
//! message pays a lock acquisition. The compiler cannot vectorize the
//! reduction ("the major loops … are not vectorized … because of the random
//! memory access pattern"), which the cost model reflects by charging the
//! scalar path.

use crate::active::ActiveSet;
use crate::api::{GenContext, MsgSink, VertexProgram};
use crate::metrics::{RunOutput, RunReport, StepReport};
use crate::util::SharedSlice;
use phigraph_device::cost::GenMode;
use phigraph_device::counters::{GenChunk, InsertProfile};
use phigraph_device::pool::run_parallel_collect;
use phigraph_device::{ChunkScheduler, CostModel, DeviceSpec, StepCounters};
use phigraph_graph::{Csr, VertexId};
use phigraph_simd::{MsgValue, ReduceOp};
use phigraph_trace::Phase;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use super::config::EngineConfig;

/// Lock stripes for destination vertices.
const STRIPES: usize = 1024;

struct FlatSink<'a, T: MsgValue> {
    locks: &'a [std::sync::Mutex<()>],
    acc: &'a SharedSlice<'a, T>,
    counts: &'a [AtomicU32],
    combine: fn(T, T) -> T,
}

impl<'a, T: MsgValue> MsgSink<T> for FlatSink<'a, T> {
    #[inline]
    fn send(&mut self, dst: VertexId, msg: T) {
        let d = dst as usize;
        let _guard = self.locks[d % STRIPES].lock().unwrap();
        // SAFETY: writes to acc[d] are serialized by the stripe lock; the
        // count update rides inside the same critical section.
        unsafe {
            let prev_count = self.counts[d].load(Ordering::Relaxed);
            let cur = self.acc.read(d);
            let next = if prev_count == 0 {
                msg
            } else {
                (self.combine)(cur, msg)
            };
            self.acc.write(d, next);
        }
        self.counts[d].fetch_add(1, Ordering::Relaxed);
    }
}

/// Run a program to completion with the flat engine on one device.
pub(crate) fn run_flat<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
) -> RunOutput<P::Value> {
    if P::ALWAYS_ACTIVE {
        assert!(
            program.max_supersteps().is_some() || config.max_supersteps.is_some(),
            "ALWAYS_ACTIVE programs must bound their supersteps"
        );
    }
    let n = graph.num_vertices();
    let threads = config.resolve_host_threads();
    let cost = CostModel::new(spec.clone());
    let locks: Vec<std::sync::Mutex<()>> =
        (0..STRIPES).map(|_| std::sync::Mutex::new(())).collect();

    let mut values = vec![P::Value::default(); n];
    let mut active = ActiveSet::new(n);
    for v in 0..n as VertexId {
        let (val, act) = program.init(v, graph);
        values[v as usize] = val;
        active.set(v, act);
    }
    let mut acc: Vec<P::Msg> = vec![P::Msg::ZERO; n];
    let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();

    let cap = run_cap(program.max_supersteps(), config.max_supersteps);
    let all_vertices: Vec<VertexId> = (0..n as VertexId).collect();
    let gen_ranges = crate::engine::device::edge_balanced_ranges(
        &all_vertices,
        graph,
        config.gen_chunk,
        spec.threads(),
    );
    let gen_ranges = &gen_ranges;
    let tracer = config.tracer("dev0", 0);
    let wall_start = Instant::now();
    let mut steps: Vec<StepReport> = Vec::new();

    for step in 0.. {
        if step >= cap || config.cancelled() {
            break;
        }
        let t0 = Instant::now();
        let _step_span = tracer.span(Phase::Superstep, step as u32);
        let mut c = StepCounters::default();
        for cnt in &counts {
            cnt.store(0, Ordering::Relaxed);
        }

        // Generation + in-place accumulate (the flat engine's whole trick).
        {
            let _g = tracer.span(Phase::Generate, step as u32);
            let sched = ChunkScheduler::new(gen_ranges.len(), 1);
            let acc_slice = SharedSlice::new(&mut acc);
            let (active_ref, counts_ref, locks_ref) = (&active, &counts[..], &locks[..]);
            let values_ref = &values;
            let results = run_parallel_collect(threads, |_| {
                let mut chunks: Vec<GenChunk> = Vec::new();
                let mut sink = FlatSink {
                    locks: locks_ref,
                    acc: &acc_slice,
                    counts: counts_ref,
                    combine: P::Reduce::apply,
                };
                while let Some(batch) = sched.next_batch() {
                    for ri in batch.clone() {
                        let mut ch = GenChunk::default();
                        let mut ctx = GenContext::new(graph, values_ref, &mut sink);
                        for v in gen_ranges[ri].clone() {
                            let v = v as VertexId;
                            if active_ref.is_active(v) {
                                ch.vertices += 1;
                                ch.edges += graph.out_degree(v) as u64;
                                program.generate(v, &mut ctx);
                            }
                        }
                        ch.msgs = ctx.sent;
                        chunks.push(ch);
                    }
                }
                chunks
            });
            for chunks in results {
                for ch in &chunks {
                    c.active_vertices += ch.vertices;
                    c.gen_edges += ch.edges;
                    c.msgs_local += ch.msgs;
                }
                c.gen_chunks.extend(chunks);
            }
        }
        if P::HAS_POST_GENERATE {
            let sched = ChunkScheduler::new(n, 512);
            let vslice = SharedSlice::new(&mut values);
            let active_ref = &active;
            phigraph_device::pool::run_parallel(threads, |_| {
                while let Some(r) = sched.next_batch() {
                    for v in r {
                        if active_ref.is_active(v as VertexId) {
                            // SAFETY: one task per vertex index.
                            unsafe { program.post_generate(v as VertexId, vslice.get_mut(v)) };
                        }
                    }
                }
            });
        }
        active.clear();

        // Contention profile from the per-destination counts.
        let mut profile = InsertProfile::default();
        let mut received = 0u64;
        for cnt in &counts {
            let k = cnt.load(Ordering::Relaxed) as u64;
            if k > 0 {
                profile.record(k);
                received += 1;
            }
        }
        c.insert_profile = profile;
        c.occupied_columns = received;
        c.bytes_gen = c.gen_edges * 8 + c.msgs_local * 64;

        // Update phase over vertices that received messages.
        {
            let _u = tracer.span(Phase::Update, step as u32);
            let sched = ChunkScheduler::new(n, 512);
            let vslice = SharedSlice::new(&mut values);
            let fslice = SharedSlice::new(active.flags_mut());
            let (counts_ref, acc_ref) = (&counts[..], &acc[..]);
            let updated: u64 = run_parallel_collect(threads, |_| {
                let mut u = 0u64;
                while let Some(r) = sched.next_batch() {
                    for v in r {
                        if counts_ref[v].load(Ordering::Relaxed) > 0 {
                            // SAFETY: one task per vertex index.
                            let act = unsafe {
                                let val = vslice.get_mut(v);
                                program.update(v as VertexId, acc_ref[v], val, graph)
                            };
                            unsafe { fslice.write(v, u8::from(act)) };
                            u += 1;
                        }
                    }
                }
                u
            })
            .into_iter()
            .sum();
            c.updated_vertices = updated;
        }
        if P::ALWAYS_ACTIVE {
            let all: Vec<VertexId> = (0..n as VertexId).collect();
            active.activate_all(&all);
        }
        active.recount();
        c.next_active = active.count();
        c.bytes_update = c.updated_vertices * (std::mem::size_of::<P::Value>() as u64 + 1);

        let times = cost.step_times(&c, GenMode::Flat, P::Msg::SIZE, false);
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

    // `ExecMode::Flat.name()` is the single source of the report name
    // (`"omp"`, after the paper's OMP bars).
    let report = RunReport {
        app: P::NAME.to_string(),
        device: spec.name.to_string(),
        mode: config.mode.name().to_string(),
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

pub(crate) fn run_cap(program_cap: Option<usize>, config_cap: Option<usize>) -> usize {
    match (program_cap, config_cap) {
        (Some(a), Some(b)) => a.min(b),
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => usize::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::small::{inward_star, weighted_diamond};
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
    fn flat_sssp_diamond() {
        let g = weighted_diamond();
        let out = run_flat(&Sssp, &g, DeviceSpec::xeon_e5_2680(), &EngineConfig::flat());
        assert_eq!(out.values, vec![0.0, 1.0, 5.0, 2.0]);
        assert_eq!(out.report.mode, "omp");
        assert!(out.report.sim_total() > 0.0);
    }

    #[test]
    fn flat_contention_profile_sees_hot_vertex() {
        // Every vertex of an inward star messages vertex 0 — but only the
        // center of an *outward* wave reaches it; use all-active init via a
        // one-step program instead: run SSSP from 0 on the inward star has
        // no out-edges from 0, so craft activity with the star reversed.
        struct AllPing;
        impl VertexProgram for AllPing {
            type Msg = f32;
            type Reduce = Min;
            type Value = f32;
            const NAME: &'static str = "ping";
            fn init(&self, _v: VertexId, _g: &Csr) -> (f32, bool) {
                (0.0, true)
            }
            fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
                for e in ctx.graph.edge_range(v) {
                    ctx.send(ctx.graph.targets[e], 1.0);
                }
            }
            fn update(&self, _v: VertexId, _m: f32, _val: &mut f32, _g: &Csr) -> bool {
                false
            }
            fn max_supersteps(&self) -> Option<usize> {
                Some(1)
            }
        }
        let g = inward_star(64);
        let out = run_flat(
            &AllPing,
            &g,
            DeviceSpec::xeon_phi_se10p(),
            &EngineConfig::flat(),
        );
        let c = &out.report.steps[0].counters;
        assert_eq!(c.insert_profile.total, 63);
        assert_eq!(c.insert_profile.max_column, 63);
        assert!((c.insert_profile.collision_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn run_cap_combines_limits() {
        assert_eq!(run_cap(Some(5), Some(3)), 3);
        assert_eq!(run_cap(None, Some(7)), 7);
        assert_eq!(run_cap(Some(2), None), 2);
        assert_eq!(run_cap(None, None), usize::MAX);
    }
}
