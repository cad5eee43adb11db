//! PageRank (§V.B): "the value associated with each vertex … is initialized
//! to 1. In each iteration, the message generation sub-step propagates the
//! PageRank value of each vertex to its neighbors, by dividing the value by
//! the number of outbound edges. The message reduction sub-step sums up the
//! received PageRank values … utilizing SIMD processing."

use phigraph_core::api::{GenContext, MsgSink, VertexProgram};
use phigraph_graph::{Csr, VertexId};
use phigraph_simd::Sum;

/// The PageRank vertex program.
#[derive(Clone, Debug)]
pub struct PageRank {
    /// Damping factor (0.85 is the classic choice).
    pub damping: f32,
    /// Fixed iteration count (the paper runs PageRank for a set number of
    /// supersteps; every vertex is active every iteration).
    pub iterations: usize,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank {
            damping: 0.85,
            iterations: 20,
        }
    }
}

impl VertexProgram for PageRank {
    type Msg = f32;
    type Reduce = Sum;
    type Value = f32;
    const NAME: &'static str = "pagerank";
    const ALWAYS_ACTIVE: bool = true;

    fn init(&self, _v: VertexId, _g: &Csr) -> (f32, bool) {
        (1.0, true)
    }

    #[inline]
    fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
        let deg = ctx.graph.out_degree(v);
        if deg == 0 {
            return;
        }
        let share = *ctx.value(v) / deg as f32;
        let g = ctx.graph;
        for e in g.edge_range(v) {
            ctx.send(g.targets[e], share);
        }
    }

    fn update(&self, _v: VertexId, sum: f32, value: &mut f32, _g: &Csr) -> bool {
        *value = (1.0 - self.damping) + self.damping * sum;
        true
    }

    fn max_supersteps(&self) -> Option<usize> {
        Some(self.iterations)
    }

    /// Mass-conservation audit. Per vertex: ranks stay finite,
    /// non-negative, at least the teleport mass `1-d` or the untouched
    /// init value, and no single vertex can hold more than the whole
    /// graph's mass. With `stride == 1` the total mass is additionally
    /// bounded by `n` (each iteration redistributes at most the existing
    /// mass, damped), within a small f32 tolerance.
    fn audit_step(
        &self,
        _step: usize,
        _prev: &[f32],
        cur: &[f32],
        stride: usize,
    ) -> Option<String> {
        let n = cur.len() as f32;
        let floor = (1.0 - self.damping) * 0.999;
        for i in (0..cur.len()).step_by(stride.max(1)) {
            let v = cur[i];
            if !v.is_finite() {
                return Some(format!("pagerank: vertex {i} rank is {v}"));
            }
            if v < floor {
                return Some(format!(
                    "pagerank: vertex {i} rank {v} below teleport mass {floor}"
                ));
            }
            if v > n * 1.001 {
                return Some(format!(
                    "pagerank: vertex {i} rank {v} exceeds total graph mass {n}"
                ));
            }
        }
        if stride.max(1) == 1 {
            let total: f64 = cur.iter().map(|&v| v as f64).sum();
            if total > n as f64 * 1.001 {
                return Some(format!(
                    "pagerank: total mass {total} exceeds vertex count {n}"
                ));
            }
        }
        None
    }
}

/// Per-vertex state of the residual PageRank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PrDelta {
    /// Current rank estimate.
    pub rank: f32,
    /// Rank mass received but not yet propagated to neighbors.
    pub residual: f32,
}

/// Convergence-driven (residual) PageRank: messages carry rank *increments*
/// instead of full shares, so a vertex can halt as soon as its unpropagated
/// residual drops below `epsilon` without corrupting its neighbors' sums —
/// the run terminates when the rank vector is stable rather than after a
/// fixed iteration count. Converges to the same fixed point as the paper's
/// formulation on graphs where every vertex has an in-edge. An extension
/// beyond the paper, exercising data-driven termination and the engines'
/// post-generation hook.
#[derive(Clone, Debug)]
pub struct PageRankDelta {
    /// Damping factor.
    pub damping: f32,
    /// Halt threshold on a vertex's unpropagated residual.
    pub epsilon: f32,
    /// Safety cap on supersteps.
    pub max_iterations: usize,
}

impl Default for PageRankDelta {
    fn default() -> Self {
        PageRankDelta {
            damping: 0.85,
            epsilon: 1e-4,
            max_iterations: 200,
        }
    }
}

impl VertexProgram for PageRankDelta {
    type Msg = f32;
    type Reduce = Sum;
    type Value = PrDelta;
    const NAME: &'static str = "pagerank-delta";
    const HAS_POST_GENERATE: bool = true;

    fn init(&self, _v: VertexId, _g: &Csr) -> (PrDelta, bool) {
        // Start at the teleport mass with the full initial value pending
        // propagation; the total each vertex ever sends then converges to
        // its final rank, giving the standard fixed point
        // r = (1-d) + d·Σ r_u/deg_u.
        let base = 1.0 - self.damping;
        (
            PrDelta {
                rank: base,
                residual: base,
            },
            true,
        )
    }

    #[inline]
    fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, PrDelta, S>) {
        let deg = ctx.graph.out_degree(v);
        if deg == 0 {
            return;
        }
        let share = ctx.value(v).residual / deg as f32;
        if share == 0.0 {
            return;
        }
        let g = ctx.graph;
        for e in g.edge_range(v) {
            ctx.send(g.targets[e], share);
        }
    }

    fn post_generate(&self, _v: VertexId, value: &mut PrDelta) {
        // Everything pending has been propagated.
        value.residual = 0.0;
    }

    fn update(&self, _v: VertexId, sum: f32, value: &mut PrDelta, _g: &Csr) -> bool {
        let delta = self.damping * sum;
        value.rank += delta;
        value.residual += delta;
        value.residual.abs() > self.epsilon
    }

    fn max_supersteps(&self) -> Option<usize> {
        Some(self.max_iterations)
    }

    /// Residual-PageRank audit: rank is finite and monotone non-decreasing
    /// (updates only ever *add* damped positive mass).
    fn audit_step(
        &self,
        _step: usize,
        prev: &[PrDelta],
        cur: &[PrDelta],
        stride: usize,
    ) -> Option<String> {
        for i in (0..cur.len()).step_by(stride.max(1)) {
            let (p, c) = (prev[i], cur[i]);
            if !c.rank.is_finite() || !c.residual.is_finite() {
                return Some(format!("pagerank-delta: vertex {i} state is non-finite"));
            }
            if c.rank < p.rank * 0.999 {
                return Some(format!(
                    "pagerank-delta: vertex {i} rank decreased {} -> {}",
                    p.rank, c.rank
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::pagerank::pagerank_reference;
    use phigraph_core::engine::{run_single, EngineConfig};
    use phigraph_device::DeviceSpec;
    use phigraph_graph::generators::small::{cycle, paper_example, star};

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-4, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_reference_on_paper_example() {
        let g = paper_example();
        let pr = PageRank {
            damping: 0.85,
            iterations: 15,
        };
        let out = run_single(
            &pr,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        let expect = pagerank_reference(&g, 0.85, 15);
        assert_close(&out.values, &expect);
    }

    #[test]
    fn cycle_ranks_are_uniform() {
        let g = cycle(8);
        let pr = PageRank::default();
        let out = run_single(
            &pr,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        for &v in &out.values {
            assert!(
                (v - 1.0).abs() < 1e-4,
                "cycle rank should converge to 1, got {v}"
            );
        }
    }

    #[test]
    fn star_center_keeps_initial_rank() {
        // The star's center has no in-edges: it never receives messages, so
        // its value stays at the init value (mirroring the paper's
        // formulation where update runs only on message receipt).
        let g = star(6);
        let pr = PageRank::default();
        let out = run_single(
            &pr,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        assert_eq!(out.values[0], 1.0);
        for v in 1..6 {
            assert!((out.values[v] - (0.15 + 0.85 / 5.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn runs_exactly_the_configured_iterations() {
        let g = cycle(4);
        let pr = PageRank {
            damping: 0.85,
            iterations: 7,
        };
        let out = run_single(
            &pr,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        assert_eq!(out.report.supersteps(), 7);
    }

    /// A graph where every vertex has an in-edge (cycle + chords), so the
    /// fixed-iteration and residual formulations share a fixed point.
    fn chorded_cycle(n: usize) -> phigraph_graph::Csr {
        let mut el = phigraph_graph::EdgeList::new(n);
        for v in 0..n {
            el.push(v as u32, ((v + 1) % n) as u32);
            if v % 3 == 0 {
                el.push(v as u32, ((v + n / 2) % n) as u32);
            }
        }
        phigraph_graph::Csr::from_edge_list(&el)
    }

    #[test]
    fn delta_variant_converges_early_and_agrees_with_fixed() {
        let g = chorded_cycle(60);
        let delta = PageRankDelta {
            damping: 0.85,
            epsilon: 1e-6,
            max_iterations: 500,
        };
        let out = run_single(
            &delta,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        assert!(
            out.report.supersteps() < 500,
            "should converge before the cap, ran {}",
            out.report.supersteps()
        );
        // Long fixed run as ground truth.
        let fixed = run_single(
            &PageRank {
                damping: 0.85,
                iterations: 150,
            },
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        for v in 0..g.num_vertices() {
            assert!(
                (out.values[v].rank - fixed.values[v]).abs() < 1e-3,
                "vertex {v}: residual {} vs fixed {}",
                out.values[v].rank,
                fixed.values[v]
            );
        }
    }

    #[test]
    fn looser_epsilon_terminates_sooner() {
        let g = chorded_cycle(60);
        let steps = |eps: f32| {
            run_single(
                &PageRankDelta {
                    damping: 0.85,
                    epsilon: eps,
                    max_iterations: 500,
                },
                &g,
                DeviceSpec::xeon_e5_2680(),
                &EngineConfig::locking(),
            )
            .report
            .supersteps()
        };
        assert!(steps(1e-1) < steps(1e-6));
    }

    #[test]
    fn delta_variant_is_engine_independent() {
        let g = chorded_cycle(40);
        let delta = PageRankDelta::default();
        let a = run_single(
            &delta,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        let b = run_single(
            &delta,
            &g,
            DeviceSpec::xeon_phi_se10p(),
            &EngineConfig::pipelined().with_host_threads(4),
        );
        let c = run_single(
            &delta,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::sequential(),
        );
        for v in 0..g.num_vertices() {
            assert!((a.values[v].rank - b.values[v].rank).abs() < 1e-3);
            assert!((a.values[v].rank - c.values[v].rank).abs() < 1e-3);
        }
    }
}
