//! Benchable entry points over the engine's hot paths.
//!
//! The `phigraph-bench` perf areas (and the determinism tests backing
//! them) need the CSB and superstep paths exercised in isolation with
//! *fixed-seed deterministic inputs* — same seed, same destination stream,
//! same element counts, every run — so that two `BENCH_*.json` files
//! differ only in timings. Those fixtures live here, next to the code they
//! drive, instead of being re-derived ad hoc inside each bench:
//!
//! * [`csb_fixture`] — a [`Csb`] sized exactly for a seeded message
//!   stream, filled by [`CsbFixture::insert`] the way the engines fill it;
//! * [`superstep_work`] — one priming run that sizes a workload (superstep
//!   and message counts) so benches can declare element throughput.

use crate::api::VertexProgram;
use crate::csb::{ColumnMode, Csb, CsbLayout};
use crate::engine::{run_single, EngineConfig};
use phigraph_device::DeviceSpec;
use phigraph_graph::generators::rng::SplitMix64;
use phigraph_graph::Csr;

/// A CSB plus the seeded message stream it was sized for.
pub struct CsbFixture {
    /// Buffer with capacity for exactly one insertion of `msgs`.
    pub csb: Csb<f32>,
    /// Seeded `(dst, value)` stream.
    pub msgs: Vec<(u32, f32)>,
}

impl CsbFixture {
    /// Reset the buffer and insert `msgs` in stream order on the calling
    /// thread, as the engine's buffer steps insert.
    pub fn insert(&mut self) {
        self.csb.reset();
        for &(dst, value) in &self.msgs {
            if let Err(e) = self.csb.insert(dst, value) {
                panic!("{e}");
            }
        }
    }
}

/// Build a CSB over `n_vertices` owned vertices sized for `n_msgs` seeded
/// uniform-destination messages. Deterministic in `seed`.
pub fn csb_fixture(n_vertices: usize, n_msgs: usize, mode: ColumnMode, seed: u64) -> CsbFixture {
    let n_vertices = n_vertices.max(1);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let msgs: Vec<(u32, f32)> = (0..n_msgs)
        .map(|i| {
            (
                rng.random_range(0..n_vertices as u32),
                (i % 251) as f32 * 0.5,
            )
        })
        .collect();
    let mut cap = vec![0u32; n_vertices];
    for &(d, _) in &msgs {
        cap[d as usize] += 1;
    }
    let owned: Vec<u32> = (0..n_vertices as u32).collect();
    let layout = CsbLayout::build(n_vertices, &owned, &cap, 16, 4);
    CsbFixture {
        csb: Csb::new(layout, mode),
        msgs,
    }
}

/// How much work one full run of a program performs — the element counts a
/// superstep bench declares as throughput.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuperstepWork {
    /// Supersteps until convergence (or the configured cap).
    pub supersteps: usize,
    /// Messages generated across the whole run.
    pub total_msgs: u64,
}

/// One priming run of `program` under `config`, returning the counts a
/// steady-state bench of the same `(program, graph, config)` cell will
/// reproduce exactly (the engines are deterministic for a fixed input).
pub fn superstep_work<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
) -> SuperstepWork {
    let out = run_single(program, graph, spec, config);
    SuperstepWork {
        supersteps: out.report.supersteps(),
        total_msgs: out.report.total_msgs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csb_fixture_is_seed_deterministic_and_insertable() {
        let mut a = csb_fixture(256, 5_000, ColumnMode::Dynamic, 7);
        let b = csb_fixture(256, 5_000, ColumnMode::Dynamic, 7);
        assert_eq!(a.msgs, b.msgs, "same seed, same stream");
        let c = csb_fixture(256, 5_000, ColumnMode::Dynamic, 8);
        assert_ne!(a.msgs, c.msgs, "different seed, different stream");
        // The fixture is sized exactly: a full insertion round fits, and
        // the next round starts from a reset buffer.
        for _ in 0..2 {
            a.insert();
            assert_eq!(a.csb.insert_stats().0.total, 5_000);
        }
    }

    #[test]
    fn superstep_work_is_reproducible() {
        use phigraph_graph::generators::small::weighted_diamond;
        // The doc-example SSSP program, small enough for a unit test.
        struct Sssp;
        impl VertexProgram for Sssp {
            type Msg = f32;
            type Reduce = phigraph_simd::Min;
            type Value = f32;
            const NAME: &'static str = "sssp";
            fn init(&self, v: u32, _g: &Csr) -> (f32, bool) {
                if v == 0 {
                    (0.0, true)
                } else {
                    (f32::INFINITY, false)
                }
            }
            fn generate<S: crate::api::MsgSink<f32>>(
                &self,
                v: u32,
                ctx: &mut crate::api::GenContext<'_, f32, S>,
            ) {
                let my = *ctx.value(v);
                for e in ctx.graph.edge_range(v) {
                    ctx.send(ctx.graph.targets[e], my + ctx.graph.weight(e));
                }
            }
            fn update(&self, _v: u32, msg: f32, value: &mut f32, _g: &Csr) -> bool {
                if msg < *value {
                    *value = msg;
                    true
                } else {
                    false
                }
            }
        }
        let g = weighted_diamond();
        let cfg = EngineConfig::locking();
        let a = superstep_work(&Sssp, &g, DeviceSpec::xeon_e5_2680(), &cfg);
        let b = superstep_work(&Sssp, &g, DeviceSpec::xeon_e5_2680(), &cfg);
        assert_eq!(a, b);
        assert!(a.supersteps > 0 && a.total_msgs > 0);
    }
}
