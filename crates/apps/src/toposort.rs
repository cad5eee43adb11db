//! Topological Sorting (§V.B): "initially, vertices with zero in-degree are
//! set as active … active vertices send messages containing value 1 to
//! their neighbors, and set themselves as inactive. Vertices receiving
//! messages sum up the messages, and decrease their in-degree value using
//! the sum. If a vertex's in-degree becomes 0 … it sets itself as active."
//!
//! The ordering is materialized as a *level* per vertex (the superstep at
//! which it became ready): sorting by level is a valid topological order,
//! and levels are deterministic. Messages pack the count (summed) and the
//! sender's level + 1 (maxed) into one `i64` with a custom associative +
//! commutative [`ReduceOp`], so the reduction still runs on SIMD lanes.

use phigraph_core::api::{GenContext, MsgSink, VertexProgram};
use phigraph_graph::{Csr, VertexId};
use phigraph_simd::ReduceOp;

/// Packed TopoSort message: low 32 bits = predecessor count (sum-reduced),
/// high 32 bits = candidate level (max-reduced).
#[inline]
pub fn pack(count: u32, level: u32) -> i64 {
    ((level as i64) << 32) | count as i64
}

/// Unpack a TopoSort message.
#[inline]
pub fn unpack(msg: i64) -> (u32, u32) {
    (msg as u32, (msg >> 32) as u32)
}

/// Count-sum ⊕ level-max: associative and commutative on the packed
/// representation, so the runtime may lane-reduce it like any basic type.
pub struct CountSumLevelMax;

impl ReduceOp<i64> for CountSumLevelMax {
    const NAME: &'static str = "count-sum/level-max";
    #[inline(always)]
    fn identity() -> i64 {
        pack(0, 0)
    }
    #[inline(always)]
    fn apply(a: i64, b: i64) -> i64 {
        let (ca, la) = unpack(a);
        let (cb, lb) = unpack(b);
        pack(ca + cb, la.max(lb))
    }
}

/// Per-vertex TopoSort state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TopoValue {
    /// In-edges not yet satisfied.
    pub remaining: u32,
    /// Ready level (0 for sources); meaningful once `remaining == 0`.
    pub level: u32,
}

/// The topological-sort vertex program. Holds the graph's in-degrees,
/// computed once at construction (per-`init` counting would be quadratic).
#[derive(Clone, Debug)]
pub struct TopoSort {
    indeg: Vec<u32>,
}

impl TopoSort {
    /// Prepare the program for `g`.
    pub fn new(g: &Csr) -> Self {
        TopoSort {
            indeg: g.in_degrees(),
        }
    }
}

impl VertexProgram for TopoSort {
    type Msg = i64;
    type Reduce = CountSumLevelMax;
    type Value = TopoValue;
    const NAME: &'static str = "toposort";

    fn init(&self, v: VertexId, _g: &Csr) -> (TopoValue, bool) {
        let indeg = self.indeg[v as usize];
        (
            TopoValue {
                remaining: indeg,
                level: 0,
            },
            indeg == 0,
        )
    }

    #[inline]
    fn generate<S: MsgSink<i64>>(&self, v: VertexId, ctx: &mut GenContext<'_, TopoValue, S>) {
        let msg = pack(1, ctx.value(v).level + 1);
        let g = ctx.graph;
        for e in g.edge_range(v) {
            ctx.send(g.targets[e], msg);
        }
    }

    fn update(&self, _v: VertexId, msg: i64, value: &mut TopoValue, _g: &Csr) -> bool {
        let (count, level) = unpack(msg);
        debug_assert!(count <= value.remaining, "more ready-signals than in-edges");
        value.remaining -= count;
        value.level = value.level.max(level);
        value.remaining == 0
    }
}

/// Check that `values` encodes a valid topological labelling of `g`: every
/// vertex became ready (`remaining == 0`) and every edge goes strictly
/// upward in level.
pub fn is_valid_topo(g: &Csr, values: &[TopoValue]) -> bool {
    values.iter().all(|v| v.remaining == 0)
        && g.edge_iter()
            .all(|(s, d)| values[s as usize].level < values[d as usize].level)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::reference::toposort::kahn_levels;
    use phigraph_core::engine::{run_single, EngineConfig};
    use phigraph_device::DeviceSpec;
    use phigraph_graph::generators::dag::{layered_dag, DagConfig};
    use phigraph_graph::generators::small::chain;

    #[test]
    fn pack_round_trip_and_reduce() {
        assert_eq!(unpack(pack(7, 9)), (7, 9));
        let r = CountSumLevelMax::apply(pack(2, 5), pack(3, 4));
        assert_eq!(unpack(r), (5, 5));
        assert_eq!(
            CountSumLevelMax::apply(CountSumLevelMax::identity(), pack(1, 3)),
            pack(1, 3)
        );
    }

    #[test]
    fn chain_levels_are_positions() {
        let g = chain(8);
        let out = run_single(
            &TopoSort::new(&g),
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        for (v, val) in out.values.iter().enumerate() {
            assert_eq!(val.remaining, 0);
            assert_eq!(val.level as usize, v);
        }
        assert!(is_valid_topo(&g, &out.values));
    }

    #[test]
    fn random_dag_levels_match_kahn() {
        let g = layered_dag(&DagConfig {
            num_vertices: 500,
            layers: 10,
            avg_out_degree: 8,
            fan_in_concentration: 0.5,
            seed: 3,
        });
        let out = run_single(
            &TopoSort::new(&g),
            &g,
            DeviceSpec::xeon_phi_se10p(),
            &EngineConfig::pipelined().with_host_threads(4),
        );
        assert!(is_valid_topo(&g, &out.values));
        let expect = kahn_levels(&g).expect("input is a DAG");
        for v in 0..g.num_vertices() {
            assert_eq!(out.values[v].level, expect[v], "vertex {v}");
        }
    }

    #[test]
    fn cyclic_graph_never_finishes_sorting() {
        use phigraph_graph::generators::small::cycle;
        let g = cycle(4);
        let out = run_single(
            &TopoSort::new(&g),
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        // No vertex has in-degree 0: nothing ever activates.
        assert!(out.values.iter().all(|v| v.remaining > 0));
        assert!(!is_valid_topo(&g, &out.values));
    }
}
