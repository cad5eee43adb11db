//! Breadth-First Search (§V.B): "initially, the source vertex is set as
//! active, and its vertex value, level, is 0 … active vertices send their
//! level value plus 1 as messages to neighbors. Unvisited vertices which
//! receive messages set their level, using any message that is received …
//! message reduction is not needed."

use phigraph_core::api::{GenContext, MsgSink, VertexProgram};
use phigraph_graph::{Csr, VertexId};
use phigraph_simd::Min;

/// Sentinel level for unvisited vertices.
pub const UNVISITED: i32 = -1;

/// The BFS vertex program.
#[derive(Clone, Debug)]
pub struct Bfs {
    /// Traversal root.
    pub source: VertexId,
}

impl VertexProgram for Bfs {
    type Msg = i32;
    // All messages arriving at a vertex in one superstep carry the same
    // level, so "any message" and min-reduction coincide; the paper runs
    // BFS through the scalar path ("neither OpenMP or framework use SIMD
    // for message processing" for BFS), which SIMD_REDUCIBLE = false
    // selects.
    type Reduce = Min;
    type Value = i32;
    const NAME: &'static str = "bfs";
    const SIMD_REDUCIBLE: bool = false;

    fn init(&self, v: VertexId, _g: &Csr) -> (i32, bool) {
        if v == self.source {
            (0, true)
        } else {
            (UNVISITED, false)
        }
    }

    #[inline]
    fn generate<S: MsgSink<i32>>(&self, v: VertexId, ctx: &mut GenContext<'_, i32, S>) {
        let next = *ctx.value(v) + 1;
        let g = ctx.graph;
        for e in g.edge_range(v) {
            ctx.send(g.targets[e], next);
        }
    }

    fn update(&self, _v: VertexId, level: i32, value: &mut i32, _g: &Csr) -> bool {
        if *value == UNVISITED {
            *value = level;
            true
        } else {
            false
        }
    }

    /// Level-monotonicity audit: a visited vertex's level is frozen
    /// forever, levels are never below [`UNVISITED`], and the source stays
    /// at level 0.
    fn audit_step(&self, _step: usize, prev: &[i32], cur: &[i32], stride: usize) -> Option<String> {
        for i in (0..cur.len()).step_by(stride.max(1)) {
            let (p, c) = (prev[i], cur[i]);
            if c < UNVISITED {
                return Some(format!("bfs: vertex {i} level is {c}"));
            }
            if p != UNVISITED && c != p {
                return Some(format!("bfs: visited vertex {i} level moved {p} -> {c}"));
            }
        }
        let s = self.source as usize;
        if s < cur.len() && cur[s] != 0 {
            return Some(format!("bfs: source level drifted to {}", cur[s]));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::bfs::bfs_reference;
    use phigraph_core::engine::{run_single, EngineConfig};
    use phigraph_device::DeviceSpec;
    use phigraph_graph::generators::erdos_renyi::gnm;
    use phigraph_graph::generators::small::{chain, paper_example, star};

    #[test]
    fn chain_levels() {
        let g = chain(10);
        let out = run_single(
            &Bfs { source: 0 },
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        let expect: Vec<i32> = (0..10).collect();
        assert_eq!(out.values, expect);
    }

    #[test]
    fn star_is_one_hop() {
        let g = star(6);
        let out = run_single(
            &Bfs { source: 0 },
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        assert_eq!(out.values, vec![0, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn unreachable_vertices_stay_unvisited() {
        let g = chain(5);
        let out = run_single(
            &Bfs { source: 3 },
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        assert_eq!(out.values, vec![UNVISITED, UNVISITED, UNVISITED, 0, 1]);
    }

    #[test]
    fn matches_reference_on_random_graph() {
        let g = gnm(300, 1500, 17);
        let out = run_single(
            &Bfs { source: 5 },
            &g,
            DeviceSpec::xeon_phi_se10p(),
            &EngineConfig::pipelined().with_host_threads(4),
        );
        assert_eq!(out.values, bfs_reference(&g, 5));
    }

    #[test]
    fn paper_example_levels() {
        let g = paper_example();
        let out = run_single(
            &Bfs { source: 1 },
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        assert_eq!(out.values, bfs_reference(&g, 1));
        // Spot checks: 1 -> {0,2,5}; 2 -> {3,7}; 0 -> {4,...}.
        assert_eq!(out.values[1], 0);
        assert_eq!(out.values[0], 1);
        assert_eq!(out.values[2], 1);
        assert_eq!(out.values[3], 2);
        assert_eq!(out.values[4], 2);
    }
}
