//! k-core decomposition (fixed k): iterated peeling of vertices whose
//! degree falls below `k`.
//!
//! Another application in the paper's motivating graph-mining class
//! (cohesive-subgraph mining, cf. the CSV citation [37]): the k-core of a
//! graph is its maximal subgraph where every vertex has degree ≥ k within
//! the subgraph. The BSP formulation is message-driven peeling: a removed
//! vertex tells each neighbor to decrement its live degree; a vertex whose
//! live degree drops below `k` removes itself next superstep. Degrees are
//! undirected (in + out), so messages flow along both edge directions via
//! the precomputed transpose, with Sum reduction on SIMD lanes.

use phigraph_core::api::{GenContext, MsgSink, VertexProgram};
use phigraph_graph::{Csr, VertexId};
use phigraph_simd::Sum;

/// Per-vertex k-core state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KCoreValue {
    /// Neighbors still alive (undirected degree).
    pub live_degree: u32,
    /// Whether the vertex survives in the k-core.
    pub alive: bool,
}

/// The fixed-k core-peeling program.
#[derive(Clone, Debug)]
pub struct KCore {
    /// The core order to extract.
    pub k: u32,
    reverse: Csr,
    undirected_degree: Vec<u32>,
}

impl KCore {
    /// Prepare the program for `g`.
    pub fn new(g: &Csr, k: u32) -> Self {
        let reverse = g.transpose();
        let undirected_degree = (0..g.num_vertices() as VertexId)
            .map(|v| (g.out_degree(v) + reverse.out_degree(v)) as u32)
            .collect();
        KCore {
            k,
            reverse,
            undirected_degree,
        }
    }

    fn send_removal<S: MsgSink<i32>>(&self, v: VertexId, ctx: &mut GenContext<'_, KCoreValue, S>) {
        let g = ctx.graph;
        for e in g.edge_range(v) {
            ctx.send(g.targets[e], 1);
        }
        for &u in self.reverse.neighbors(v) {
            ctx.send(u, 1);
        }
    }
}

impl VertexProgram for KCore {
    type Msg = i32;
    type Reduce = Sum;
    type Value = KCoreValue;
    const NAME: &'static str = "kcore";

    fn init(&self, v: VertexId, _g: &Csr) -> (KCoreValue, bool) {
        let deg = self.undirected_degree[v as usize];
        let doomed = deg < self.k;
        (
            KCoreValue {
                live_degree: deg,
                // A vertex below k at init is "removed"; it is active so it
                // announces its removal in superstep 0.
                alive: !doomed,
            },
            doomed,
        )
    }

    #[inline]
    fn generate<S: MsgSink<i32>>(&self, v: VertexId, ctx: &mut GenContext<'_, KCoreValue, S>) {
        // Only freshly removed vertices are ever active.
        if !ctx.value(v).alive {
            self.send_removal(v, ctx);
        }
    }

    fn update(&self, _v: VertexId, removed: i32, value: &mut KCoreValue, _g: &Csr) -> bool {
        if !value.alive {
            return false; // already out; ignore further decrements
        }
        value.live_degree = value.live_degree.saturating_sub(removed as u32);
        if value.live_degree < self.k {
            value.alive = false;
            true // announce removal next superstep
        } else {
            false
        }
    }

    fn capacity_hint(&self, v: VertexId, _g: &Csr) -> Option<u32> {
        Some(self.undirected_degree[v as usize])
    }

    /// Peeling audit: removal is irreversible (`alive` goes true→false
    /// only), live degree is monotone non-increasing and bounded by the
    /// vertex's static undirected degree.
    fn audit_step(
        &self,
        _step: usize,
        prev: &[KCoreValue],
        cur: &[KCoreValue],
        stride: usize,
    ) -> Option<String> {
        for i in (0..cur.len()).step_by(stride.max(1)) {
            let (p, c) = (prev[i], cur[i]);
            if c.alive && !p.alive {
                return Some(format!("kcore: removed vertex {i} came back alive"));
            }
            if c.live_degree > p.live_degree {
                return Some(format!(
                    "kcore: vertex {i} live degree rose {} -> {}",
                    p.live_degree, c.live_degree
                ));
            }
            if c.live_degree > self.undirected_degree[i] {
                return Some(format!(
                    "kcore: vertex {i} live degree {} exceeds static degree {}",
                    c.live_degree, self.undirected_degree[i]
                ));
            }
        }
        None
    }
}

/// Vertices surviving in the k-core.
pub fn core_members(values: &[KCoreValue]) -> Vec<VertexId> {
    values
        .iter()
        .enumerate()
        .filter(|(_, v)| v.alive)
        .map(|(i, _)| i as VertexId)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::kcore::kcore_reference;
    use phigraph_core::engine::{run_single, EngineConfig};
    use phigraph_device::DeviceSpec;
    use phigraph_graph::generators::erdos_renyi::gnm;
    use phigraph_graph::generators::small::{complete, star};
    use phigraph_graph::EdgeList;

    fn run(g: &Csr, k: u32) -> Vec<VertexId> {
        let out = run_single(
            &KCore::new(g, k),
            g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        core_members(&out.values)
    }

    #[test]
    fn complete_graph_survives_up_to_its_degree() {
        let g = complete(5); // undirected degree 8 per vertex (both dirs)
        assert_eq!(run(&g, 8).len(), 5);
        assert_eq!(run(&g, 9).len(), 0);
    }

    #[test]
    fn star_collapses_under_peeling() {
        // Leaves have degree 1; removing them strands the center.
        let g = star(6);
        assert_eq!(run(&g, 2).len(), 0);
        assert_eq!(run(&g, 1).len(), 6);
    }

    #[test]
    fn triangle_with_tail_keeps_only_the_triangle() {
        let mut el = EdgeList::new(5);
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4)] {
            el.push(a, b);
        }
        let g = Csr::from_edge_list(&el);
        // Undirected degree: triangle members have 2 within the triangle.
        assert_eq!(run(&g, 2), vec![0, 1, 2]);
    }

    #[test]
    fn matches_peeling_reference_on_random_graphs() {
        let g = gnm(300, 1800, 13);
        for k in [2u32, 4, 6] {
            let got = run(&g, k);
            let expect = kcore_reference(&g, k);
            assert_eq!(got, expect, "k={k}");
        }
    }

    #[test]
    fn engines_agree_on_kcore() {
        let g = gnm(200, 1400, 5);
        let program = KCore::new(&g, 5);
        let a = run_single(
            &program,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        let b = run_single(
            &program,
            &g,
            DeviceSpec::xeon_phi_se10p(),
            &EngineConfig::pipelined().with_host_threads(4),
        );
        let c = run_single(
            &program,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::sequential(),
        );
        assert_eq!(a.values, b.values);
        assert_eq!(a.values, c.values);
    }
}
