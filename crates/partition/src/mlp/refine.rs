//! Boundary Fiduccia–Mattheyses refinement.
//!
//! Classic FM with best-prefix rollback: repeatedly move the highest-gain
//! unlocked boundary vertex (gain = external − internal edge weight),
//! tentatively accepting negative-gain moves, then keep the prefix of the
//! move sequence with the lowest cut that respects the balance tolerance.
//! As in Metis, a pass gives up once a run of moves has not beaten the
//! best prefix, rather than moving every vertex.

use super::{GainEntry, WGraph};
use std::collections::BinaryHeap;

/// Refine a 2-way assignment in place. `target_frac` is side 0's desired
/// weight share; `max_passes` bounds the number of FM passes. Returns the
/// cut improvement achieved (≥ 0).
pub fn fm_refine(g: &WGraph, side: &mut [u8], target_frac: f64, max_passes: usize) -> f64 {
    let n = g.n();
    if n < 2 {
        return 0.0;
    }
    let total = g.total_vwgt();
    let target0 = total * target_frac.clamp(0.0, 1.0);
    let max_vwgt = g.vwgt.iter().cloned().fold(0.0f32, f32::max) as f64;
    let tol = (0.02 * total).max(max_vwgt * 1.01);

    // Metis' 2-way FM limit: a pass ends once this many consecutive moves
    // have not beaten the best prefix.
    let stall_limit = (n / 100).clamp(15, 100);
    let mut total_improvement = 0.0;

    for _pass in 0..max_passes {
        // Gains for every vertex.
        let mut gain = vec![0.0f32; n];
        for v in 0..n as u32 {
            for (u, w) in g.neighbors(v) {
                if side[u as usize] != side[v as usize] {
                    gain[v as usize] += w;
                } else {
                    gain[v as usize] -= w;
                }
            }
        }
        let mut stamp = vec![0u32; n];
        let mut heap = BinaryHeap::new();
        for v in 0..n as u32 {
            // Boundary vertices only (some external weight), plus any
            // vertex when the partition is badly imbalanced.
            if g.neighbors(v)
                .any(|(u, _)| side[u as usize] != side[v as usize])
            {
                heap.push(GainEntry {
                    gain: gain[v as usize],
                    v,
                    stamp: 0,
                });
            }
        }

        let (mut w0, _w1) = g.side_weights(side);
        let mut locked = vec![false; n];
        let mut moves: Vec<u32> = Vec::new();
        let mut cut_delta = 0.0f64; // negative = improvement
        let mut best_delta = 0.0f64;
        let mut best_len = 0usize;
        let start_dev = (w0 - target0).abs();

        while moves.len() - best_len < stall_limit {
            // Pop the best current entry (lazy deletion of stale entries).
            let Some(e) = heap.pop() else { break };
            let v = e.v as usize;
            if locked[v] || e.stamp != stamp[v] {
                continue;
            }
            // Balance check: moving v flips its weight between sides.
            let vw = g.vwgt[v] as f64;
            let new_w0 = if side[v] == 0 { w0 - vw } else { w0 + vw };
            let new_dev = (new_w0 - target0).abs();
            let cur_dev = (w0 - target0).abs();
            if new_dev > tol.max(cur_dev) {
                locked[v] = true; // cannot move this pass
                continue;
            }
            // Apply the move.
            let from = side[v];
            side[v] = 1 - from;
            w0 = new_w0;
            locked[v] = true;
            cut_delta -= gain[v] as f64;
            moves.push(v as u32);
            // Update neighbor gains.
            for (u, w) in g.neighbors(v as u32) {
                let u = u as usize;
                if locked[u] {
                    continue;
                }
                if side[u] == from {
                    gain[u] += 2.0 * w;
                } else {
                    gain[u] -= 2.0 * w;
                }
                stamp[u] += 1;
                heap.push(GainEntry {
                    gain: gain[u],
                    v: u as u32,
                    stamp: stamp[u],
                });
            }
            // Record the best prefix (strictly better cut, or equal cut
            // with better balance).
            let dev = (w0 - target0).abs();
            if cut_delta < best_delta - 1e-9
                || (cut_delta <= best_delta + 1e-9 && dev < start_dev && best_len == 0)
            {
                best_delta = cut_delta;
                best_len = moves.len();
            }
        }

        // Roll back moves beyond the best prefix.
        for &v in moves[best_len..].iter().rev() {
            let v = v as usize;
            side[v] = 1 - side[v];
        }
        if best_len == 0 {
            break; // pass achieved nothing
        }
        total_improvement += -best_delta;
    }
    total_improvement
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::rng::SplitMix64 as StdRng;
    use phigraph_graph::generators::{erdos_renyi::gnm, small::chain};

    #[test]
    fn refinement_never_increases_cut() {
        let g = WGraph::from_csr(&gnm(300, 1800, 4));
        let mut rng = StdRng::seed_from_u64(11);
        let mut side: Vec<u8> = (0..g.n()).map(|_| rng.random_range(0..2) as u8).collect();
        let before = g.cut(&side);
        fm_refine(&g, &mut side, 0.5, 4);
        let after = g.cut(&side);
        assert!(after <= before + 1e-6, "cut rose {before} -> {after}");
    }

    #[test]
    fn refinement_substantially_improves_random_split() {
        let g = WGraph::from_csr(&chain(200));
        // Alternating split has ~199 cut edges; optimum is 1.
        let mut side: Vec<u8> = (0..200).map(|v| (v % 2) as u8).collect();
        let before = g.cut(&side);
        fm_refine(&g, &mut side, 0.5, 12);
        let after = g.cut(&side);
        assert!(
            after < before / 3.0,
            "chain cut should collapse: {before} -> {after}"
        );
    }

    #[test]
    fn balance_is_respected() {
        let g = WGraph::from_csr(&gnm(400, 2400, 8));
        let mut rng = StdRng::seed_from_u64(3);
        let mut side: Vec<u8> = (0..g.n()).map(|_| rng.random_range(0..2) as u8).collect();
        fm_refine(&g, &mut side, 0.5, 6);
        let (w0, w1) = g.side_weights(&side);
        let share = w0 / (w0 + w1);
        assert!((share - 0.5).abs() < 0.08, "share {share}");
    }

    #[test]
    fn tiny_graphs_are_noops() {
        let g = WGraph::from_csr(&chain(1));
        let mut side = vec![0u8];
        assert_eq!(fm_refine(&g, &mut side, 0.5, 3), 0.0);
    }
}
