//! Initial bisection by greedy graph growing.
//!
//! On the coarsest graph: grow a region from a seed vertex by repeatedly
//! absorbing the frontier vertex with the best gain (most edge weight into
//! the region) until the region holds the target weight fraction. Several
//! seeds are tried; the lowest-cut balanced result wins.

use super::{GainEntry, WGraph};
use phigraph_graph::generators::rng::SplitMix64 as StdRng;
use std::collections::BinaryHeap;

/// Grow one region to `target_w` vertex weight from `seed_vertex`.
/// Returns the side assignment (0 = region, 1 = rest).
fn grow_from(g: &WGraph, target_w: f64, seed_vertex: u32) -> Vec<u8> {
    let n = g.n();
    let mut side = vec![1u8; n];
    // gain[v] = edge weight from v into the region. Gains only grow, so a
    // vertex's newest heap entry pops first and its older ones find it
    // already in the region.
    let mut gain = vec![0.0f32; n];
    let mut frontier = BinaryHeap::new();
    // Every vertex below `scan` is in the region (fallback cursor).
    let mut scan = 0usize;
    let mut region_w = 0.0f64;
    let mut next = Some(seed_vertex);
    while let Some(v) = next {
        side[v as usize] = 0;
        region_w += g.vwgt[v as usize] as f64;
        if region_w >= target_w {
            break;
        }
        for (u, w) in g.neighbors(v) {
            if side[u as usize] == 1 {
                gain[u as usize] += w;
                frontier.push(GainEntry {
                    gain: gain[u as usize],
                    v: u,
                    stamp: 0,
                });
            }
        }
        // The frontier vertex with max gain (ties to the lower id), or the
        // lowest-id outside vertex if the frontier is empty (disconnected
        // graph).
        next = loop {
            match frontier.pop() {
                Some(e) if side[e.v as usize] == 1 => break Some(e.v),
                Some(_) => {}
                None => {
                    while scan < n && side[scan] == 0 {
                        scan += 1;
                    }
                    break (scan < n).then_some(scan as u32);
                }
            }
        };
    }
    side
}

/// Bisect `g` so side 0 holds ≈ `target_frac` of the vertex weight. Tries
/// several seeds, returns the assignment with the smallest cut.
pub fn greedy_bisect(g: &WGraph, target_frac: f64, seed: u64, tries: usize) -> Vec<u8> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let target_w = g.total_vwgt() * target_frac.clamp(0.0, 1.0);
    if target_w <= 0.0 {
        return vec![1u8; n];
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best: Option<(f64, Vec<u8>)> = None;
    for _ in 0..tries.max(1) {
        let sv = rng.random_range(0..n) as u32;
        let side = grow_from(g, target_w, sv);
        let cut = g.cut(&side);
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, side));
        }
    }
    best.unwrap().1
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::{erdos_renyi::gnm, small::chain};

    #[test]
    fn bisect_hits_weight_target() {
        let g = WGraph::from_csr(&gnm(400, 2400, 3));
        let side = greedy_bisect(&g, 0.5, 1, 4);
        let (w0, w1) = g.side_weights(&side);
        let total = w0 + w1;
        assert!(
            (w0 / total - 0.5).abs() < 0.1,
            "side0 share {} too far from 0.5",
            w0 / total
        );
    }

    #[test]
    fn chain_bisection_cut_is_tiny() {
        // A chain has an obvious 1-edge bisection; greedy growth from any
        // seed should find a small cut.
        let g = WGraph::from_csr(&chain(100));
        let side = greedy_bisect(&g, 0.5, 7, 8);
        assert!(g.cut(&side) <= 3.0, "cut {}", g.cut(&side));
    }

    #[test]
    fn asymmetric_target_respected() {
        let g = WGraph::from_csr(&gnm(400, 2400, 9));
        let side = greedy_bisect(&g, 0.25, 2, 4);
        let (w0, w1) = g.side_weights(&side);
        let share = w0 / (w0 + w1);
        assert!((share - 0.25).abs() < 0.1, "share {share}");
    }

    #[test]
    fn zero_target_puts_everything_on_side_1() {
        let g = WGraph::from_csr(&chain(10));
        let side = greedy_bisect(&g, 0.0, 0, 2);
        assert!(side.iter().all(|&s| s == 1));
    }
}
