//! Personalized PageRank: the random surfer teleports back to a single
//! *source* vertex instead of jumping uniformly, so ranks measure
//! proximity to that source. The serving daemon's per-tenant "who is
//! relevant to this user" query — each tenant picks its own source over
//! the one shared graph. Same message shape as [`crate::PageRank`]
//! (`f32` shares, SIMD sum reduction, fixed iterations).

use phigraph_core::api::{GenContext, MsgSink, VertexProgram};
use phigraph_graph::{Csr, VertexId};
use phigraph_simd::Sum;

/// The personalized-PageRank vertex program.
#[derive(Clone, Debug)]
pub struct PersonalizedPageRank {
    /// Teleport target: all `1-damping` mass returns here.
    pub source: VertexId,
    /// Damping factor.
    pub damping: f32,
    /// Fixed iteration count (every vertex active every iteration).
    pub iterations: usize,
}

impl Default for PersonalizedPageRank {
    fn default() -> Self {
        PersonalizedPageRank {
            source: 0,
            damping: 0.85,
            iterations: 20,
        }
    }
}

impl PersonalizedPageRank {
    #[inline]
    fn teleport(&self, v: VertexId) -> f32 {
        if v == self.source {
            1.0 - self.damping
        } else {
            0.0
        }
    }
}

impl VertexProgram for PersonalizedPageRank {
    type Msg = f32;
    type Reduce = Sum;
    type Value = f32;
    const NAME: &'static str = "ppr";
    const ALWAYS_ACTIVE: bool = true;

    fn init(&self, v: VertexId, _g: &Csr) -> (f32, bool) {
        // All mass starts at the source; everything else holds zero until
        // rank flows in.
        (if v == self.source { 1.0 } else { 0.0 }, true)
    }

    #[inline]
    fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
        let deg = ctx.graph.out_degree(v);
        if deg == 0 {
            return;
        }
        let share = *ctx.value(v) / deg as f32;
        if share == 0.0 {
            return;
        }
        let g = ctx.graph;
        for e in g.edge_range(v) {
            ctx.send(g.targets[e], share);
        }
    }

    fn update(&self, v: VertexId, sum: f32, value: &mut f32, _g: &Csr) -> bool {
        *value = self.teleport(v) + self.damping * sum;
        true
    }

    fn max_supersteps(&self) -> Option<usize> {
        Some(self.iterations)
    }

    /// Mass-conservation audit: ranks finite and non-negative, the source
    /// holds at least its teleport mass, and (at full stride) total mass
    /// never exceeds the single unit injected at the source.
    fn audit_step(
        &self,
        _step: usize,
        _prev: &[f32],
        cur: &[f32],
        stride: usize,
    ) -> Option<String> {
        for i in (0..cur.len()).step_by(stride.max(1)) {
            let v = cur[i];
            if !v.is_finite() {
                return Some(format!("ppr: vertex {i} rank is {v}"));
            }
            if v < 0.0 {
                return Some(format!("ppr: vertex {i} rank {v} is negative"));
            }
            if v > 1.001 {
                return Some(format!("ppr: vertex {i} rank {v} exceeds total mass 1"));
            }
        }
        if stride.max(1) == 1 {
            let total: f64 = cur.iter().map(|&v| v as f64).sum();
            if total > 1.001 {
                return Some(format!("ppr: total mass {total} exceeds 1"));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_core::engine::{run_single, EngineConfig};
    use phigraph_device::DeviceSpec;
    use phigraph_graph::generators::small::cycle;
    use phigraph_graph::EdgeList;

    /// Dense power iteration over the same recurrence, as ground truth.
    fn ppr_reference(g: &Csr, source: VertexId, damping: f32, iters: usize) -> Vec<f32> {
        let n = g.num_vertices();
        let mut rank: Vec<f32> = (0..n)
            .map(|v| if v as VertexId == source { 1.0 } else { 0.0 })
            .collect();
        for _ in 0..iters {
            let mut sums = vec![0.0f32; n];
            let mut received = vec![false; n];
            for v in 0..n as VertexId {
                let deg = g.out_degree(v);
                if deg == 0 {
                    continue;
                }
                let share = rank[v as usize] / deg as f32;
                // Zero shares are not sent (matching `generate`): their
                // targets keep their value this iteration.
                if share == 0.0 {
                    continue;
                }
                for e in g.edge_range(v) {
                    sums[g.targets[e] as usize] += share;
                    received[g.targets[e] as usize] = true;
                }
            }
            for v in 0..n {
                // Update-on-receipt: vertices with no inbound messages
                // keep their value (the engines' semantics).
                if received[v] {
                    let tele = if v as VertexId == source {
                        1.0 - damping
                    } else {
                        0.0
                    };
                    rank[v] = tele + damping * sums[v];
                }
            }
        }
        rank
    }

    #[test]
    fn matches_dense_reference() {
        let mut el = EdgeList::new(6);
        for (s, d) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 0)] {
            el.push(s, d);
        }
        let g = Csr::from_edge_list(&el);
        let ppr = PersonalizedPageRank {
            source: 2,
            damping: 0.85,
            iterations: 12,
        };
        let out = run_single(
            &ppr,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        let expect = ppr_reference(&g, 2, 0.85, 12);
        for (i, (&x, &y)) in out.values.iter().zip(&expect).enumerate() {
            assert!((x - y).abs() < 1e-4, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn rank_decays_with_distance_from_source() {
        let g = cycle(8);
        let ppr = PersonalizedPageRank {
            source: 0,
            damping: 0.85,
            iterations: 40,
        };
        let out = run_single(
            &ppr,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        // On a directed cycle, rank falls geometrically with hop distance
        // downstream of the teleport target's successor.
        assert!(out.values[0] > out.values[4]);
        for v in 1..7 {
            assert!(
                out.values[v] > out.values[v + 1],
                "rank should decay along the cycle: v{} {} vs v{} {}",
                v,
                out.values[v],
                v + 1,
                out.values[v + 1]
            );
        }
    }

    #[test]
    fn different_sources_rank_different_vertices_first() {
        let g = cycle(6);
        let run = |source| {
            run_single(
                &PersonalizedPageRank {
                    source,
                    damping: 0.85,
                    iterations: 30,
                },
                &g,
                DeviceSpec::xeon_e5_2680(),
                &EngineConfig::locking(),
            )
            .values
        };
        let a = run(0);
        let b = run(3);
        let top = |vals: &[f32]| {
            vals.iter()
                .enumerate()
                .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(top(&a), 0);
        assert_eq!(top(&b), 3);
    }

    #[test]
    fn engine_modes_agree() {
        let g = cycle(12);
        let ppr = PersonalizedPageRank {
            source: 5,
            damping: 0.85,
            iterations: 15,
        };
        let spec = DeviceSpec::xeon_e5_2680();
        let lock = run_single(&ppr, &g, spec.clone(), &EngineConfig::locking());
        let pipe = run_single(&ppr, &g, spec.clone(), &EngineConfig::pipelined());
        let seq = run_single(&ppr, &g, spec, &EngineConfig::sequential());
        for v in 0..g.num_vertices() {
            assert!((lock.values[v] - pipe.values[v]).abs() < 1e-5);
            assert!((lock.values[v] - seq.values[v]).abs() < 1e-5);
        }
    }
}
