//! Vertex matching for the coarsening phase.
//!
//! Heavy-edge matching alone stalls on power-law graphs: after it, the
//! leaves of a hub stay unmatched (their only neighbour is taken) and
//! edgeless vertices have nobody to match. Two more rounds, as in METIS 5
//! (LaSalle et al., "Improving Graph Partitioning for Modern Graphs and
//! Architectures", IA³ 2015), pair those vertices with each other.

use super::WGraph;
use phigraph_graph::generators::rng::SplitMix64 as StdRng;

/// Sentinel: vertex is unmatched.
pub const UNMATCHED: u32 = u32::MAX;

/// Share of unmatched vertices above which 2-hop matching runs (METIS'
/// `UNMATCHEDFOR2HOP`).
const TWO_HOP_THRESHOLD: f64 = 0.10;

/// Compute the coarsening matching. All rounds visit vertices in one
/// seeded random order:
///
/// 1. **Heavy edge** — an unmatched vertex matches its unmatched neighbour
///    with the heaviest edge (ties to the lower id).
/// 2. **2-hop** — if more than 10% of the vertices still have edges but
///    no mate, unmatched vertices that share a neighbour pair with each
///    other (the leaves of one hub).
/// 3. **Islands** — unmatched edgeless vertices pair with each other.
///
/// Whatever is left matches itself. Returns `mate[v]` (== `v` for
/// self-matched).
pub fn match_vertices(g: &WGraph, seed: u64) -> Vec<u32> {
    let n = g.n();
    let mut mate = vec![UNMATCHED; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    rng.shuffle(&mut order);

    let mut unmatched = 0usize;
    for &v in &order {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        let mut best: Option<(u32, f32)> = None;
        for (u, w) in g.neighbors(v) {
            if u != v && mate[u as usize] == UNMATCHED {
                match best {
                    Some((bu, bw)) if w < bw || (w == bw && u >= bu) => {}
                    _ => best = Some((u, w)),
                }
            }
        }
        match best {
            Some((u, _)) => {
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
            None if g.degree(v) > 0 => unmatched += 1,
            None => {}
        }
    }

    if unmatched as f64 > TWO_HOP_THRESHOLD * n as f64 {
        for &hub in &order {
            pair_up(g.neighbors(hub).map(|(u, _)| u), &mut mate);
        }
    }
    pair_up(
        order.iter().copied().filter(|&v| g.degree(v) == 0),
        &mut mate,
    );

    for (v, m) in mate.iter_mut().enumerate() {
        if *m == UNMATCHED {
            *m = v as u32;
        }
    }
    mate
}

/// Pair the unmatched vertices of `candidates` with each other, in order.
fn pair_up(candidates: impl Iterator<Item = u32>, mate: &mut [u32]) {
    let mut waiting: Option<u32> = None;
    for u in candidates {
        if mate[u as usize] != UNMATCHED {
            continue;
        }
        match waiting.take() {
            Some(w) => {
                mate[w as usize] = u;
                mate[u as usize] = w;
            }
            None => waiting = Some(u),
        }
    }
}

/// Number of coarse vertices the matching yields.
pub fn coarse_count(mate: &[u32]) -> usize {
    mate.iter()
        .enumerate()
        .filter(|&(v, &m)| m as usize >= v)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::small::{chain, cycle};

    fn check_valid(mate: &[u32]) {
        for (v, &m) in mate.iter().enumerate() {
            assert_ne!(m, UNMATCHED, "vertex {v} left unmatched");
            assert_eq!(
                mate[m as usize] as usize, v,
                "matching not symmetric at {v}"
            );
        }
    }

    #[test]
    fn matching_is_valid_on_cycle() {
        let g = WGraph::from_csr(&cycle(10));
        let mate = match_vertices(&g, 1);
        check_valid(&mate);
        // A cycle of 10 should match at least 3 pairs.
        let pairs = mate
            .iter()
            .enumerate()
            .filter(|&(v, &m)| (m as usize) > v)
            .count();
        assert!(pairs >= 3, "only {pairs} pairs matched");
    }

    #[test]
    fn matching_is_valid_on_chain() {
        let g = WGraph::from_csr(&chain(17));
        let mate = match_vertices(&g, 9);
        check_valid(&mate);
    }

    #[test]
    fn heavy_edges_preferred() {
        // Triangle 0-1 (w=1 via single edge), 0-2 with doubled edge (w=2).
        let mut el = phigraph_graph::EdgeList::new(3);
        el.push(0, 1);
        el.push(0, 2);
        el.push(2, 0); // doubles 0<->2 multiplicity
        let g = WGraph::from_csr(&phigraph_graph::Csr::from_edge_list(&el));
        for seed in 0..8 {
            let mate = match_vertices(&g, seed);
            check_valid(&mate);
            // Whenever 0 is processed first it must pick 2 (heavier).
            if mate[0] != 1 {
                assert_eq!(mate[0], 2);
            }
        }
    }

    #[test]
    fn coarse_count_halves_cycle() {
        let g = WGraph::from_csr(&cycle(16));
        let mate = match_vertices(&g, 3);
        let c = coarse_count(&mate);
        assert!((8..16).contains(&c));
    }

    #[test]
    fn isolated_vertices_pair_with_each_other() {
        // Edge 0-1 plus five edgeless vertices: the islands pair up and
        // only one of them is left to match itself.
        let mut el = phigraph_graph::EdgeList::new(7);
        el.push(0, 1);
        let g = WGraph::from_csr(&phigraph_graph::Csr::from_edge_list(&el));
        for seed in 0..8 {
            let mate = match_vertices(&g, seed);
            check_valid(&mate);
            assert_eq!((mate[0], mate[1]), (1, 0));
            assert!(mate[2..].iter().all(|&m| m >= 2), "{mate:?}");
            let selves = (2..7).filter(|&v| mate[v] as usize == v).count();
            assert_eq!(selves, 1, "seed {seed}: {mate:?}");
        }
    }

    #[test]
    fn leaves_of_a_hub_pair_with_each_other() {
        // A star: heavy-edge matching takes one leaf for the hub and
        // strands the rest; 2-hop matching pairs the stranded leaves.
        let mut el = phigraph_graph::EdgeList::new(9);
        for leaf in 1..9 {
            el.push(0, leaf);
        }
        let g = WGraph::from_csr(&phigraph_graph::Csr::from_edge_list(&el));
        let mate = match_vertices(&g, 4);
        check_valid(&mate);
        assert_ne!(mate[0], 0, "hub left unmatched");
        // 8 leaves: one goes to the hub, six pair up, one is left alone.
        let selves = (1..9).filter(|&v| mate[v] as usize == v).count();
        assert_eq!(selves, 1, "{mate:?}");
        assert_eq!(coarse_count(&mate), 5);
    }
}
