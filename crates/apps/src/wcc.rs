//! Weakly Connected Components via label propagation.
//!
//! Not one of the paper's five evaluation applications, but squarely in its
//! motivating class (the introduction cites connected-components work
//! [Hirschberg et al.] as target graph mining): every vertex starts with its
//! own id as label and propagates the minimum label seen; min-reduction is
//! associative and commutative, so the CSB's SIMD path applies unchanged.
//! Weak connectivity is computed by propagating along both edge directions,
//! which the program does by reading the precomputed transpose.

use phigraph_core::api::{GenContext, MsgSink, VertexProgram};
use phigraph_graph::{Csr, VertexId};
use phigraph_simd::Min;

/// The WCC vertex program. Holds the transpose so labels flow against edge
/// direction too (weak connectivity on a directed graph).
#[derive(Clone, Debug)]
pub struct Wcc {
    reverse: Csr,
}

impl Wcc {
    /// Prepare the program for `g` (builds the transpose once).
    pub fn new(g: &Csr) -> Self {
        Wcc {
            reverse: g.transpose(),
        }
    }
}

impl VertexProgram for Wcc {
    type Msg = i32;
    type Reduce = Min;
    type Value = i32;
    const NAME: &'static str = "wcc";

    fn init(&self, v: VertexId, _g: &Csr) -> (i32, bool) {
        (v as i32, true)
    }

    #[inline]
    fn generate<S: MsgSink<i32>>(&self, v: VertexId, ctx: &mut GenContext<'_, i32, S>) {
        let label = *ctx.value(v);
        let g = ctx.graph;
        for e in g.edge_range(v) {
            ctx.send(g.targets[e], label);
        }
        for &u in self.reverse.neighbors(v) {
            ctx.send(u, label);
        }
    }

    fn update(&self, _v: VertexId, msg: i32, value: &mut i32, _g: &Csr) -> bool {
        if msg < *value {
            *value = msg;
            true
        } else {
            false
        }
    }

    fn capacity_hint(&self, v: VertexId, g: &Csr) -> Option<u32> {
        // Labels arrive along in-edges (forward sends) and out-edges
        // (reverse sends).
        Some(self.reverse.out_degree(v) as u32 + g.out_degree(v) as u32)
    }

    /// Label audit: labels only ever *decrease* (min-propagation), stay
    /// non-negative, and never exceed the vertex's own id (every vertex
    /// starts at its id and min-reduces downward).
    fn audit_step(&self, _step: usize, prev: &[i32], cur: &[i32], stride: usize) -> Option<String> {
        for i in (0..cur.len()).step_by(stride.max(1)) {
            let (p, c) = (prev[i], cur[i]);
            if c < 0 {
                return Some(format!("wcc: vertex {i} label is negative ({c})"));
            }
            if c > p {
                return Some(format!("wcc: vertex {i} label rose {p} -> {c}"));
            }
            if c > i as i32 {
                return Some(format!("wcc: vertex {i} label {c} exceeds its own id"));
            }
        }
        None
    }
}

/// Count distinct components in a WCC labelling.
pub fn component_count(labels: &[i32]) -> usize {
    let mut distinct: Vec<i32> = labels.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::wcc::wcc_reference;
    use phigraph_core::engine::{run_single, EngineConfig};
    use phigraph_device::DeviceSpec;
    use phigraph_graph::generators::erdos_renyi::gnm;
    use phigraph_graph::generators::small::{chain, cycle};
    use phigraph_graph::EdgeList;

    #[test]
    fn single_chain_is_one_component() {
        let g = chain(10);
        let out = run_single(
            &Wcc::new(&g),
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        assert!(out.values.iter().all(|&l| l == 0));
        assert_eq!(component_count(&out.values), 1);
    }

    #[test]
    fn disjoint_pieces_get_distinct_labels() {
        let mut el = EdgeList::new(7);
        el.push(0, 1);
        el.push(1, 2);
        el.push(3, 4);
        // 5, 6 isolated
        let g = phigraph_graph::Csr::from_edge_list(&el);
        let out = run_single(
            &Wcc::new(&g),
            &g,
            DeviceSpec::xeon_phi_se10p(),
            &EngineConfig::pipelined().with_host_threads(4),
        );
        assert_eq!(out.values[..3], [0, 0, 0]);
        assert_eq!(out.values[3..5], [3, 3]);
        assert_eq!(out.values[5], 5);
        assert_eq!(out.values[6], 6);
        assert_eq!(component_count(&out.values), 4);
    }

    #[test]
    fn weak_connectivity_crosses_edge_direction() {
        // 0 -> 1 <- 2: weakly one component even though 2 is unreachable
        // from 0 along directed edges.
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        el.push(2, 1);
        let g = phigraph_graph::Csr::from_edge_list(&el);
        let out = run_single(
            &Wcc::new(&g),
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        assert_eq!(out.values, vec![0, 0, 0]);
    }

    #[test]
    fn matches_union_find_reference_on_random_graph() {
        let g = gnm(400, 700, 5); // sparse: several components
        let out = run_single(
            &Wcc::new(&g),
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        let expect = wcc_reference(&g);
        assert_eq!(out.values, expect);
    }

    #[test]
    fn cycle_converges_to_min_id() {
        let g = cycle(6);
        let out = run_single(
            &Wcc::new(&g),
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::flat(),
        );
        assert!(out.values.iter().all(|&l| l == 0));
    }
}
