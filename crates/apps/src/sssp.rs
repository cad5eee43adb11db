//! Single-Source Shortest Paths — the paper's running example (§III,
//! Listing 1): distance initialized to a large constant except the source;
//! relaxation expressed as generate (distance + edge weight along
//! out-edges), min-reduce (SIMD), and conditional update.

use phigraph_core::api::{GenContext, MsgSink, VertexProgram};
use phigraph_graph::{Csr, VertexId};
use phigraph_simd::Min;

/// The SSSP vertex program ("applied to a positive weighted directed
/// graph").
#[derive(Clone, Debug)]
pub struct Sssp {
    /// Source vertex.
    pub source: VertexId,
}

impl VertexProgram for Sssp {
    type Msg = f32;
    type Reduce = Min;
    type Value = f32;
    const NAME: &'static str = "sssp";

    fn init(&self, v: VertexId, _g: &Csr) -> (f32, bool) {
        if v == self.source {
            (0.0, true)
        } else {
            (f32::INFINITY, false)
        }
    }

    #[inline]
    fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
        // Listing 1: send my_dist + edge weight along every out-edge.
        let my_dist = *ctx.value(v);
        let g = ctx.graph;
        for e in g.edge_range(v) {
            ctx.send(g.targets[e], my_dist + g.weight(e));
        }
    }

    fn update(&self, _v: VertexId, msg: f32, value: &mut f32, _g: &Csr) -> bool {
        // Listing 1: distance changed => active (will send msgs).
        if msg < *value {
            *value = msg;
            true
        } else {
            false
        }
    }

    /// Distance-monotonicity audit: relaxation only ever *lowers* a
    /// distance, distances are non-negative (positive weights), never NaN,
    /// and the source stays at 0.
    fn audit_step(&self, _step: usize, prev: &[f32], cur: &[f32], stride: usize) -> Option<String> {
        for i in (0..cur.len()).step_by(stride.max(1)) {
            let (p, c) = (prev[i], cur[i]);
            if c.is_nan() || c < 0.0 {
                return Some(format!("sssp: vertex {i} distance is {c}"));
            }
            // `c` is known non-NaN here, so this is exactly `!(c <= p)`:
            // a rise, or an incomparable (NaN) previous value.
            if c > p || p.is_nan() {
                return Some(format!("sssp: vertex {i} distance rose {p} -> {c}"));
            }
        }
        let s = self.source as usize;
        if s < cur.len() && cur[s] != 0.0 {
            return Some(format!("sssp: source distance drifted to {}", cur[s]));
        }
        None
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::reference::sssp::dijkstra_reference;
    use phigraph_core::engine::{run_single, EngineConfig};
    use phigraph_device::DeviceSpec;
    use phigraph_graph::generators::erdos_renyi::gnm;
    use phigraph_graph::generators::small::weighted_diamond;
    use phigraph_graph::Csr;

    fn weighted_random(n: usize, m: usize, seed: u64) -> Csr {
        let g = gnm(n, m, seed);
        let mut el = g.to_edge_list();
        el.randomize_weights(0.1, 10.0, seed + 1);
        Csr::from_edge_list(&el)
    }

    #[test]
    fn diamond_distances() {
        let g = weighted_diamond();
        let out = run_single(
            &Sssp { source: 0 },
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        assert_eq!(out.values, vec![0.0, 1.0, 5.0, 2.0]);
    }

    #[test]
    fn matches_dijkstra_on_random_weighted_graph() {
        let g = weighted_random(400, 3000, 3);
        let out = run_single(
            &Sssp { source: 0 },
            &g,
            DeviceSpec::xeon_phi_se10p(),
            &EngineConfig::locking(),
        );
        let expect = dijkstra_reference(&g, 0);
        for v in 0..g.num_vertices() {
            let (a, b) = (out.values[v], expect[v]);
            if a.is_infinite() || b.is_infinite() {
                assert_eq!(a.is_infinite(), b.is_infinite(), "vertex {v}");
            } else {
                assert!((a - b).abs() < 1e-3, "vertex {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scalar_and_simd_processing_agree() {
        let g = weighted_random(300, 2500, 9);
        let simd = run_single(
            &Sssp { source: 2 },
            &g,
            DeviceSpec::xeon_phi_se10p(),
            &EngineConfig::locking().with_vectorized(true),
        );
        let scalar = run_single(
            &Sssp { source: 2 },
            &g,
            DeviceSpec::xeon_phi_se10p(),
            &EngineConfig::locking().with_vectorized(false),
        );
        assert_eq!(simd.values, scalar.values);
        // And the cost model must say SIMD processing was faster.
        assert!(simd.report.sim_process() < scalar.report.sim_process());
    }
}
