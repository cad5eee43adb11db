//! Graph coarsening: collapse a matching into a coarse graph.

use super::matching::{coarse_count, match_vertices};
use super::WGraph;

/// One level of the coarsening hierarchy.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The coarse graph.
    pub graph: WGraph,
    /// Fine-vertex → coarse-vertex map.
    pub map: Vec<u32>,
}

/// Collapse `mate` pairs of `g` into a coarse graph: matched pairs become
/// one vertex with summed vertex weight; parallel coarse edges merge with
/// summed edge weight; self-edges are dropped.
pub fn contract(g: &WGraph, mate: &[u32]) -> CoarseLevel {
    let n = g.n();
    // Coarse ids follow the lower-id member of each pair, in id order.
    let mut map = vec![u32::MAX; n];
    let mut leaders: Vec<u32> = Vec::new();
    for v in 0..n {
        if map[v] == u32::MAX {
            map[v] = leaders.len() as u32;
            map[mate[v] as usize] = leaders.len() as u32;
            leaders.push(v as u32);
        }
    }
    let cn = leaders.len();

    let mut xadj = Vec::with_capacity(cn + 1);
    let mut adj: Vec<u32> = Vec::new();
    let mut ewgt: Vec<f32> = Vec::new();
    let mut vwgt = Vec::with_capacity(cn);
    xadj.push(0);

    // Dense accumulator of edge weight per coarse neighbour; `owner`
    // records which coarse vertex last touched each entry.
    let mut acc = vec![0.0f32; cn];
    let mut owner = vec![u32::MAX; cn];
    let mut touched: Vec<u32> = Vec::new();
    for (c, &v) in leaders.iter().enumerate() {
        let m = mate[v as usize];
        let members = if m == v { &[v][..] } else { &[v, m][..] };
        let mut w_c = 0.0f32;
        for &x in members {
            w_c += g.vwgt[x as usize];
            for (u, w) in g.neighbors(x) {
                let cu = map[u as usize];
                if cu as usize != c {
                    if owner[cu as usize] != c as u32 {
                        owner[cu as usize] = c as u32;
                        touched.push(cu);
                    }
                    acc[cu as usize] += w;
                }
            }
        }
        vwgt.push(w_c);
        touched.sort_unstable();
        for &cu in &touched {
            adj.push(cu);
            ewgt.push(std::mem::take(&mut acc[cu as usize]));
        }
        touched.clear();
        xadj.push(adj.len());
    }

    CoarseLevel {
        graph: WGraph {
            xadj,
            adj,
            ewgt,
            vwgt,
        },
        map,
    }
}

/// Coarsen repeatedly until the graph has at most `target_n` vertices or
/// the reduction stalls (< 5% shrink). Returns the hierarchy, finest
/// first; empty if `g` is already small enough.
pub fn coarsen_to(g: &WGraph, target_n: usize, seed: u64) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut s = seed;
    loop {
        let cur = levels.last().map_or(g, |l| &l.graph);
        if cur.n() <= target_n {
            break;
        }
        let mate = match_vertices(cur, s);
        if coarse_count(&mate) as f64 > cur.n() as f64 * 0.95 {
            break; // stalled
        }
        let level = contract(cur, &mate);
        levels.push(level);
        s = s.wrapping_add(0x9E37_79B9);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::{erdos_renyi::gnm, small::cycle};

    #[test]
    fn contract_preserves_total_vertex_weight() {
        let g = WGraph::from_csr(&cycle(12));
        let mate = match_vertices(&g, 1);
        let lvl = contract(&g, &mate);
        assert!((lvl.graph.total_vwgt() - g.total_vwgt()).abs() < 1e-6);
    }

    #[test]
    fn contract_keeps_symmetry() {
        let g = WGraph::from_csr(&gnm(200, 800, 3));
        let mate = match_vertices(&g, 5);
        let c = contract(&g, &mate).graph;
        for v in 0..c.n() as u32 {
            for (u, w) in c.neighbors(v) {
                assert_ne!(u, v, "self edge survived");
                let back = c.neighbors(u).find(|&(x, _)| x == v);
                assert_eq!(back, Some((v, w)));
            }
        }
    }

    #[test]
    fn coarsen_reaches_target() {
        let g = WGraph::from_csr(&gnm(1000, 8000, 7));
        let levels = coarsen_to(&g, 50, 1);
        assert!(!levels.is_empty());
        let last = &levels.last().unwrap().graph;
        assert!(last.n() <= 120, "coarsest has {} vertices", last.n());
        // Weight conserved end to end.
        assert!((last.total_vwgt() - g.total_vwgt()).abs() / g.total_vwgt() < 1e-5);
    }

    #[test]
    fn maps_compose_over_levels() {
        let g = WGraph::from_csr(&gnm(300, 1500, 2));
        let levels = coarsen_to(&g, 30, 9);
        // Follow vertex 0 down the hierarchy; must stay in range.
        let mut id = 0u32;
        for lvl in &levels {
            id = lvl.map[id as usize];
            assert!((id as usize) < lvl.graph.n());
        }
    }

    #[test]
    fn already_small_graph_yields_no_levels() {
        let g = WGraph::from_csr(&cycle(8));
        assert!(coarsen_to(&g, 20, 0).is_empty());
    }
}
