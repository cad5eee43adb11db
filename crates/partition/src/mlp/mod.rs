//! Multilevel graph partitioner — the Metis substitute.
//!
//! The paper feeds its hybrid scheme with "the min-connectivity volume
//! partitioning scheme provided by the Metis software". Metis is replaced
//! here by a from-scratch multilevel k-way partitioner using the classic
//! recipe (Karypis & Kumar):
//!
//! 1. **Coarsening** ([`matching`], [`coarsen`]) — heavy-edge matching,
//!    then 2-hop and island matching for the vertices it strands on
//!    power-law graphs, collapses matched pairs, aggregating vertex and
//!    edge weights, until the graph is small.
//! 2. **Initial bisection** ([`initial`]) — greedy graph growing from
//!    several seeds, keeping the best balanced cut.
//! 3. **Refinement** ([`refine`]) — boundary Fiduccia–Mattheyses passes at
//!    every uncoarsening level, each cut short once it stops improving.
//! 4. **K-way** ([`kway`]) — recursive bisection with proportional target
//!    weights, its independent halves run in parallel, finished by a
//!    direct greedy k-way boundary pass ([`kway_refine`]).
//!
//! The partitioner works on an undirected weighted view ([`WGraph`]); vertex
//! weights default to `1 + out_degree` of the original directed graph so
//! that "the computation ratio [stays] consistent with the expected
//! partitioning ratio" when blocks are dealt by weight.

pub mod coarsen;
pub mod initial;
pub mod kway;
pub mod kway_refine;
pub mod matching;
pub mod refine;

use phigraph_graph::Csr;
use std::cmp::Ordering;

pub use kway::partition_kway;

/// Undirected weighted working graph for the partitioner (CSR adjacency
/// with parallel edge weights and per-vertex weights).
#[derive(Clone, Debug, PartialEq)]
pub struct WGraph {
    /// Adjacency offsets (`n + 1` entries).
    pub xadj: Vec<usize>,
    /// Neighbor list.
    pub adj: Vec<u32>,
    /// Edge weights, parallel to `adj`.
    pub ewgt: Vec<f32>,
    /// Vertex weights.
    pub vwgt: Vec<f32>,
}

impl WGraph {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of neighbors of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Neighbors of `v` with edge weights.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, f32)> + '_ {
        let r = self.xadj[v as usize]..self.xadj[v as usize + 1];
        self.adj[r.clone()]
            .iter()
            .copied()
            .zip(self.ewgt[r].iter().copied())
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> f64 {
        self.vwgt.iter().map(|&w| w as f64).sum()
    }

    /// Build the undirected weighted view of a directed graph. Vertex
    /// weight is `1 + out_degree` (the workload proxy the hybrid scheme
    /// balances); edge weight is the multiplicity of the (undirected) pair.
    pub fn from_csr(g: &Csr) -> Self {
        let (sym, ewgt) = g.symmetrized_weighted();
        let vwgt = (0..g.num_vertices())
            .map(|v| 1.0 + g.out_degree(v as u32) as f32)
            .collect();
        WGraph {
            xadj: sym.offsets.clone(),
            adj: sym.targets.clone(),
            ewgt,
            vwgt,
        }
    }

    /// Edge cut of a 2-way assignment.
    pub fn cut(&self, side: &[u8]) -> f64 {
        let mut cut = 0.0;
        for v in 0..self.n() as u32 {
            for (u, w) in self.neighbors(v) {
                if u > v && side[v as usize] != side[u as usize] {
                    cut += w as f64;
                }
            }
        }
        cut
    }

    /// Vertex-weight sums per side of a 2-way assignment.
    pub fn side_weights(&self, side: &[u8]) -> (f64, f64) {
        let mut w = [0.0f64; 2];
        for v in 0..self.n() {
            w[side[v] as usize] += self.vwgt[v] as f64;
        }
        (w[0], w[1])
    }
}

/// Max-heap entry of a gain-ordered vertex: higher gain first, ties to the
/// lower vertex id. `stamp` lets a holder skip entries made stale by later
/// gain updates.
#[derive(PartialEq)]
struct GainEntry {
    gain: f32,
    v: u32,
    stamp: u32,
}
impl Eq for GainEntry {}
impl PartialOrd for GainEntry {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for GainEntry {
    fn cmp(&self, o: &Self) -> Ordering {
        self.gain
            .partial_cmp(&o.gain)
            .unwrap_or(Ordering::Equal)
            .then(o.v.cmp(&self.v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::small::{cycle, paper_example};

    #[test]
    fn from_csr_builds_symmetric_view() {
        let g = paper_example();
        let wg = WGraph::from_csr(&g);
        assert_eq!(wg.n(), 16);
        // Undirected view: every neighbor relation must be mutual.
        for v in 0..wg.n() as u32 {
            for (u, w) in wg.neighbors(v) {
                let back = wg.neighbors(u).find(|&(x, _)| x == v);
                assert_eq!(back, Some((v, w)), "edge {v}<->{u}");
            }
        }
        // Vertex weights reflect out-degrees.
        assert_eq!(wg.vwgt[9], 1.0 + 4.0);
        assert_eq!(wg.vwgt[3], 1.0);
    }

    #[test]
    fn cut_and_side_weights() {
        let wg = WGraph::from_csr(&cycle(4));
        // Split {0,1} vs {2,3}: cut edges are 1-2 and 3-0.
        let side = vec![0u8, 0, 1, 1];
        assert_eq!(wg.cut(&side), 2.0);
        let (w0, w1) = wg.side_weights(&side);
        assert_eq!(w0, w1);
    }
}
