//! Multilevel bisection and recursive k-way partitioning.

use super::coarsen::coarsen_to;
use super::initial::greedy_bisect;
use super::kway_refine::refine_kway;
use super::refine::fm_refine;
use super::WGraph;
use phigraph_graph::Csr;

/// Coarsest-graph size at which bisection switches to the direct greedy
/// algorithm.
const COARSEST_N: usize = 64;
/// FM passes at each uncoarsening level.
const REFINE_PASSES: usize = 6;

/// Multilevel 2-way partition of `g`: coarsen, bisect the coarsest graph,
/// project and refine back up. Side 0 targets `target_frac` of the total
/// vertex weight.
pub fn multilevel_bisect(g: &WGraph, target_frac: f64, seed: u64) -> Vec<u8> {
    if g.n() == 0 {
        return Vec::new();
    }
    let levels = coarsen_to(g, COARSEST_N, seed);
    let coarsest = levels.last().map(|l| &l.graph).unwrap_or(g);
    let mut side = greedy_bisect(coarsest, target_frac, seed, 6);
    fm_refine(coarsest, &mut side, target_frac, REFINE_PASSES);

    // Project the assignment back through the hierarchy, refining at each
    // finer level. levels[i].map sends level-(i-1) vertices (or the input
    // graph's, for i = 0) to level-i coarse ids.
    for i in (0..levels.len()).rev() {
        let fine_graph = if i == 0 { g } else { &levels[i - 1].graph };
        let map = &levels[i].map;
        let mut fine_side = vec![0u8; fine_graph.n()];
        for v in 0..fine_graph.n() {
            fine_side[v] = side[map[v] as usize];
        }
        fm_refine(fine_graph, &mut fine_side, target_frac, REFINE_PASSES);
        side = fine_side;
    }
    side
}

/// Extract the sub-WGraph induced by vertices with `side[v] == which`.
/// Returns the subgraph and the local→parent vertex map.
fn extract(g: &WGraph, side: &[u8], which: u8) -> (WGraph, Vec<u32>) {
    let n = g.n();
    let mut local_of = vec![u32::MAX; n];
    let mut parent_of: Vec<u32> = Vec::new();
    for v in 0..n {
        if side[v] == which {
            local_of[v] = parent_of.len() as u32;
            parent_of.push(v as u32);
        }
    }
    let mut xadj = Vec::with_capacity(parent_of.len() + 1);
    let mut adj = Vec::new();
    let mut ewgt = Vec::new();
    let mut vwgt = Vec::with_capacity(parent_of.len());
    xadj.push(0);
    for &pv in &parent_of {
        vwgt.push(g.vwgt[pv as usize]);
        for (u, w) in g.neighbors(pv) {
            let lu = local_of[u as usize];
            if lu != u32::MAX {
                adj.push(lu);
                ewgt.push(w);
            }
        }
        xadj.push(adj.len());
    }
    (
        WGraph {
            xadj,
            adj,
            ewgt,
            vwgt,
        },
        parent_of,
    )
}

/// Partition `g` into blocks `0..k` by recursive bisection. The halves of
/// a bisection are independent and seeded by their position in the
/// recursion, so for the top `split_depth` levels the first half runs on a
/// scoped thread: the blocks are the same at any depth.
fn recurse(g: &WGraph, k: usize, seed: u64, split_depth: u32) -> Vec<u32> {
    if k <= 1 || g.n() == 0 {
        return vec![0; g.n()];
    }
    let kl = k / 2;
    let side = multilevel_bisect(g, kl as f64 / k as f64, seed);
    let (g0, p0) = extract(g, &side, 0);
    let (g1, p1) = extract(g, &side, 1);
    let depth = split_depth.saturating_sub(1);
    let first = || recurse(&g0, kl, seed.wrapping_add(1), depth);
    let second = || recurse(&g1, k - kl, seed.wrapping_add(2), depth);
    let (b0, b1) = if split_depth > 0 {
        std::thread::scope(|s| {
            let h = s.spawn(first);
            let b1 = second();
            (h.join().expect("bisection thread panicked"), b1)
        })
    } else {
        (first(), second())
    };
    let mut blocks = vec![0u32; g.n()];
    for (&v, &b) in p0.iter().zip(&b0) {
        blocks[v as usize] = b;
    }
    for (&v, &b) in p1.iter().zip(&b1) {
        blocks[v as usize] = kl as u32 + b;
    }
    blocks
}

/// Partition `g` into `k` blocks of roughly equal vertex weight with small
/// cut (the Metis-substitute entry point). Returns the block id per vertex.
/// Recursive bisection uses up to `available_parallelism` threads; the
/// result does not depend on how many.
pub fn partition_kway(g: &Csr, k: usize, seed: u64) -> Vec<u32> {
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    partition_kway_split(g, k, seed, threads.ilog2())
}

/// [`partition_kway`] with the first `split_depth` levels of recursive
/// bisection run in parallel (up to `2^split_depth` threads).
pub(crate) fn partition_kway_split(g: &Csr, k: usize, seed: u64, split_depth: u32) -> Vec<u32> {
    assert!(k >= 1, "k must be positive");
    let n = g.num_vertices();
    if k == 1 || n == 0 {
        return vec![0u32; n];
    }
    let wg = WGraph::from_csr(g);
    let k = k.min(n.max(1));
    let mut out = recurse(&wg, k, seed, split_depth);
    if split_depth > 0 {
        release_thread_heaps();
    }
    // Direct k-way polish over the recursive-bisection result.
    refine_kway(&wg, &mut out, k, 2);
    out
}

/// Return the heap memory the bisection threads freed to the operating
/// system. glibc keeps what a thread frees in that thread's arena, where
/// the rest of the program does not reuse it: without this, the parallel
/// split raised `perfbench`'s peak RSS from ~101 to ~116 MB on a 2-core
/// Linux host.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_thread_heaps() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointer and only hands free pages of
    // the allocator's own heaps back to the kernel; any `pad` is valid.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_thread_heaps() {}

/// Edge cut of a k-way block assignment on the original directed graph.
pub fn block_cut(g: &Csr, blocks: &[u32]) -> usize {
    g.edge_iter()
        .filter(|&(s, d)| blocks[s as usize] != blocks[d as usize])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::community::{community_graph, CommunityConfig};
    use phigraph_graph::generators::erdos_renyi::gnm;
    use phigraph_graph::generators::rmat::{rmat, RmatConfig};
    use phigraph_graph::generators::rng::SplitMix64 as StdRng;
    use phigraph_graph::generators::small::chain;

    #[test]
    fn bisect_chain_finds_small_cut() {
        let wg = WGraph::from_csr(&chain(256));
        let side = multilevel_bisect(&wg, 0.5, 1);
        assert!(wg.cut(&side) <= 4.0, "cut {}", wg.cut(&side));
        let (w0, w1) = wg.side_weights(&side);
        assert!((w0 / (w0 + w1) - 0.5).abs() < 0.05);
    }

    #[test]
    fn kway_covers_all_blocks_and_balances() {
        let g = gnm(1000, 6000, 5);
        let k = 16;
        let blocks = partition_kway(&g, k, 7);
        let mut weight = vec![0f64; k];
        for v in 0..g.num_vertices() {
            assert!((blocks[v] as usize) < k);
            weight[blocks[v] as usize] += 1.0 + g.out_degree(v as u32) as f64;
        }
        let total: f64 = weight.iter().sum();
        let ideal = total / k as f64;
        for (b, &w) in weight.iter().enumerate() {
            assert!(
                w > 0.3 * ideal && w < 2.0 * ideal,
                "block {b} weight {w} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn kway_cut_beats_random_assignment() {
        let g = gnm(800, 6400, 9);
        let k = 8;
        let blocks = partition_kway(&g, k, 3);
        let mlp_cut = block_cut(&g, &blocks);
        let mut rng = StdRng::seed_from_u64(1);
        let random: Vec<u32> = (0..g.num_vertices())
            .map(|_| rng.random_range(0..k as u32))
            .collect();
        let random_cut = block_cut(&g, &random);
        assert!(
            mlp_cut < random_cut,
            "MLP cut {mlp_cut} should beat random {random_cut}"
        );
    }

    #[test]
    fn kway_respects_community_structure() {
        let (g, labels) = community_graph(&CommunityConfig {
            num_vertices: 800,
            num_communities: 8,
            intra_degree: 10,
            inter_degree: 0.2,
            weighted: false,
            seed: 4,
        });
        let blocks = partition_kway(&g, 8, 11);
        // Most edges should stay within blocks: community structure gives
        // an easy low-cut solution.
        let cut = block_cut(&g, &blocks);
        let frac = cut as f64 / g.num_edges() as f64;
        assert!(frac < 0.35, "cut fraction {frac}");
        // Sanity: labels exist and intra-community edges dominate.
        let intra = g
            .edge_iter()
            .filter(|&(s, d)| labels[s as usize] == labels[d as usize])
            .count();
        assert!(intra * 2 > g.num_edges());
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let g = chain(10);
        assert!(partition_kway(&g, 1, 0).iter().all(|&b| b == 0));
    }

    #[test]
    fn kway_deterministic_for_seed() {
        let g = gnm(300, 1500, 2);
        assert_eq!(partition_kway(&g, 4, 5), partition_kway(&g, 4, 5));
        // A capped power-law graph (as `pokec_like` builds it) dealt into
        // 256 blocks: the parallel split returns the serial blocks.
        let g = rmat(&RmatConfig {
            scale: 11,
            edge_factor: 8,
            degree_cap: Some(96),
            seed: 3,
            ..Default::default()
        });
        let serial = partition_kway_split(&g, 256, 7, 0);
        for depth in [1, 3] {
            assert_eq!(
                partition_kway_split(&g, 256, 7, depth),
                serial,
                "depth {depth}"
            );
        }
        assert_eq!(partition_kway(&g, 256, 7), serial);
    }
}
