//! CSB layout: in-degree sort, redirection map, vertex groups.

use phigraph_graph::VertexId;

/// Sentinel in the redirection map for vertices this device does not own.
pub const NOT_OWNED: u32 = u32::MAX;

/// One vertex group: `width` columns × `rows` rows of message cells.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupInfo {
    /// Array length = the maximum message capacity among the group's
    /// vertices ("the maximum in-degree among the vertices in each vertex
    /// group").
    pub rows: u32,
    /// Offset of the group's first cell in the flat data buffer.
    pub cell_offset: usize,
}

/// The static layout of a condensed buffer, computed once per (graph,
/// device-partition) pair before any iteration runs.
#[derive(Clone, Debug, PartialEq)]
pub struct CsbLayout {
    /// SIMD lanes per row (`w / msg_size`).
    pub lanes: usize,
    /// Vector arrays per group (`k`; the paper uses a small constant).
    pub k: usize,
    /// Columns per group (`k × lanes`).
    pub width: usize,
    /// `position → vertex`: owned vertices sorted by capacity descending.
    pub order: Vec<VertexId>,
    /// `vertex → position` (the *redirection map*); [`NOT_OWNED`] for
    /// vertices owned by the other device.
    pub position: Vec<u32>,
    /// Per-vertex message capacity, indexed by position.
    pub capacity: Vec<u32>,
    /// Vertex groups, in position order.
    pub groups: Vec<GroupInfo>,
    /// Total message cells allocated.
    pub total_cells: usize,
    /// `log2(width)` when the width is a power of two (lanes always are,
    /// and so is the default `k`): [`CsbLayout::group_of`] then shifts
    /// instead of dividing on every insertion.
    group_shift: Option<u32>,
}

impl CsbLayout {
    /// Build the layout.
    ///
    /// * `n_total` — global vertex count (sizes the redirection map).
    /// * `owned` — vertices this device owns, in any order (the engine's
    ///   ascend, which saves sorting them by id for the ties).
    /// * `capacity` — max messages per superstep for each owned vertex
    ///   (parallel to `owned`): its local in-degree, plus one if it can
    ///   receive combined remote messages.
    /// * `lanes` — SIMD lanes per row for the device/message type.
    /// * `k` — vector arrays per group.
    pub fn build(
        n_total: usize,
        owned: &[VertexId],
        capacity: &[u32],
        lanes: usize,
        k: usize,
    ) -> Self {
        assert_eq!(owned.len(), capacity.len());
        let lanes = lanes.max(1);
        let k = k.max(1);
        let width = k * lanes;

        // Step 1: sort owned vertices by capacity (in-degree) descending,
        // ties by id — the order shown in the paper's Figure 3.
        let idx = by_capacity_descending(owned, capacity);
        let order: Vec<VertexId> = idx.iter().map(|&i| owned[i]).collect();
        let sorted_cap: Vec<u32> = idx.iter().map(|&i| capacity[i]).collect();

        // Redirection map.
        let mut position = vec![NOT_OWNED; n_total];
        for (pos, &v) in order.iter().enumerate() {
            position[v as usize] = pos as u32;
        }

        // Step 2/3: group and size.
        let mut groups = Vec::with_capacity(order.len().div_ceil(width));
        let mut cell_offset = 0usize;
        for chunk in sorted_cap.chunks(width) {
            let rows = chunk.iter().copied().max().unwrap_or(0);
            groups.push(GroupInfo { rows, cell_offset });
            cell_offset += rows as usize * width;
        }

        CsbLayout {
            lanes,
            k,
            width,
            order,
            position,
            capacity: sorted_cap,
            groups,
            total_cells: cell_offset,
            group_shift: width.is_power_of_two().then(|| width.trailing_zeros()),
        }
    }

    /// Number of vertex groups.
    #[inline(always)]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of owned positions.
    #[inline(always)]
    pub fn num_positions(&self) -> usize {
        self.order.len()
    }

    /// Group index of a position.
    #[inline(always)]
    pub fn group_of(&self, pos: u32) -> usize {
        match self.group_shift {
            Some(shift) => (pos >> shift) as usize,
            None => (pos / self.width as u32) as usize,
        }
    }

    /// Cells a *non-condensed* static buffer would need (every vertex gets
    /// the global maximum capacity) — the memory-saving baseline reported
    /// by the CSB ablation bench.
    pub fn dense_cells(&self) -> usize {
        let max_cap = self.capacity.first().copied().unwrap_or(0) as usize;
        // Padded to full groups like the condensed layout.
        self.num_positions().div_ceil(self.width) * self.width * max_cap
    }

    /// Memory saving factor of the condensed layout vs the dense baseline.
    pub fn condensation_factor(&self) -> f64 {
        if self.total_cells == 0 {
            1.0
        } else {
            self.dense_cells() as f64 / self.total_cells as f64
        }
    }
}

/// The indices of `owned` ordered by capacity, descending, ties by id: a
/// stable counting sort (linear in the length plus the largest capacity)
/// over the indices in id order, which is index order when `owned`
/// ascends.
fn by_capacity_descending(owned: &[VertexId], capacity: &[u32]) -> Vec<usize> {
    let max = capacity.iter().copied().max().unwrap_or(0) as usize;
    // Bucket `max - c` holds capacity `c`; `next[b]` is its next slot.
    let mut next = vec![0usize; max + 1];
    for &c in capacity {
        next[max - c as usize] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut idx = vec![0usize; capacity.len()];
    let mut place = |i: usize| {
        let slot = &mut next[max - capacity[i] as usize];
        idx[*slot] = i;
        *slot += 1;
    };
    if owned.is_sorted() {
        (0..owned.len()).for_each(&mut place);
    } else {
        let mut by_id: Vec<usize> = (0..owned.len()).collect();
        by_id.sort_by_key(|&i| owned[i]);
        by_id.into_iter().for_each(&mut place);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::small::paper_example;
    use phigraph_graph::SplitMix64;

    /// Layout for the paper's Figure 3 configuration: the example graph,
    /// lanes = 4 ("we assume the SIMD lane to be as wide as 4 messages"),
    /// k = 2.
    fn paper_layout() -> CsbLayout {
        let g = paper_example();
        let owned: Vec<VertexId> = (0..16).collect();
        let cap = g.in_degrees();
        CsbLayout::build(16, &owned, &cap, 4, 2)
    }

    #[test]
    fn figure3_sorted_order() {
        let l = paper_layout();
        // "sorted vertex IDs: 5 2 8 9 0 4 6 7 3 10 11 12 13 1 14 15"
        assert_eq!(
            l.order,
            vec![5, 2, 8, 9, 0, 4, 6, 7, 3, 10, 11, 12, 13, 1, 14, 15]
        );
        // "in-degrees: 5 4 3 3 2 2 2 2 1 1 1 1 1 0 0 0"
        assert_eq!(
            l.capacity,
            vec![5, 4, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0]
        );
    }

    #[test]
    fn figure3_two_groups_with_rows_5_and_1() {
        let l = paper_layout();
        // "resulting in two vertex groups in total … for the first vertex
        // group [array length] 5 … for the second … 1."
        assert_eq!(l.num_groups(), 2);
        assert_eq!(l.width, 8);
        assert_eq!(l.groups[0].rows, 5);
        assert_eq!(l.groups[1].rows, 1);
        assert_eq!(l.groups[0].cell_offset, 0);
        assert_eq!(l.groups[1].cell_offset, 40);
        assert_eq!(l.total_cells, 48);
    }

    #[test]
    fn redirection_map_round_trips() {
        let l = paper_layout();
        for (pos, &v) in l.order.iter().enumerate() {
            assert_eq!(l.position[v as usize], pos as u32);
        }
        // Example from Figure 3's redirection row: vertex 2 -> position 1.
        assert_eq!(l.position[2], 1);
        assert_eq!(l.position[0], 4);
    }

    #[test]
    fn condensation_saves_memory() {
        let l = paper_layout();
        // Dense: 16 positions × max capacity 5 = 80 cells vs 48 condensed.
        assert_eq!(l.dense_cells(), 80);
        assert!(l.condensation_factor() > 1.6);
    }

    #[test]
    fn partial_ownership_masks_other_device() {
        let g = paper_example();
        let owned: Vec<VertexId> = vec![0, 2, 4, 6, 8, 10, 12, 14];
        let indeg = g.in_degrees();
        let cap: Vec<u32> = owned.iter().map(|&v| indeg[v as usize]).collect();
        let l = CsbLayout::build(16, &owned, &cap, 4, 2);
        assert_eq!(l.num_positions(), 8);
        assert_eq!(l.position[1], NOT_OWNED);
        assert_ne!(l.position[2], NOT_OWNED);
        assert_eq!(l.num_groups(), 1);
    }

    #[test]
    fn empty_ownership() {
        let l = CsbLayout::build(4, &[], &[], 4, 2);
        assert_eq!(l.num_groups(), 0);
        assert_eq!(l.total_cells, 0);
        assert_eq!(l.condensation_factor(), 1.0);
    }

    #[test]
    fn group_of_positions() {
        let l = paper_layout();
        assert_eq!(l.group_of(0), 0);
        assert_eq!(l.group_of(7), 0);
        assert_eq!(l.group_of(8), 1);
        // A width that is not a power of two (k = 3) divides instead.
        let owned: Vec<VertexId> = (0..30).collect();
        let l = CsbLayout::build(30, &owned, &[1; 30], 4, 3);
        for pos in 0..30u32 {
            assert_eq!(l.group_of(pos), pos as usize / 12);
        }
    }

    #[test]
    fn counting_sort_builds_the_comparison_sort_layout() {
        /// The layout as the comparison sort (capacity descending, ties by
        /// id) orders it.
        fn compared(owned: &[VertexId], capacity: &[u32]) -> (Vec<VertexId>, Vec<u32>) {
            let mut idx: Vec<usize> = (0..owned.len()).collect();
            idx.sort_by(|&a, &b| capacity[b].cmp(&capacity[a]).then(owned[a].cmp(&owned[b])));
            (
                idx.iter().map(|&i| owned[i]).collect(),
                idx.iter().map(|&i| capacity[i]).collect(),
            )
        }
        for case in 0..200u64 {
            let mut rng = SplitMix64::seed_from_u64(case);
            let n = rng.random_range(0usize..300);
            // A small capacity range forces ties; every fourth case has a
            // hub far above the rest, and zeros come up throughout.
            let top = if case % 4 == 0 { 5000 } else { 8 };
            let all: Vec<VertexId> = (0..n as VertexId).collect();
            let partial: Vec<VertexId> = all
                .iter()
                .copied()
                .filter(|_| rng.random_range(0u32..3) != 0)
                .collect();
            // The same vertices out of id order: ties still go by id.
            let mut shuffled = partial.clone();
            rng.shuffle(&mut shuffled);
            for owned in [&all, &partial, &shuffled] {
                let capacity: Vec<u32> = owned
                    .iter()
                    .map(|_| match rng.random_range(0u32..10) {
                        0 => 0,
                        1 => top,
                        _ => rng.random_range(0u32..8),
                    })
                    .collect();
                let k = rng.random_range(1usize..5);
                let l = CsbLayout::build(n, owned, &capacity, 4, k);
                let (order, sorted_cap) = compared(owned, &capacity);
                assert_eq!(l.order, order, "case {case}");
                assert_eq!(l.capacity, sorted_cap, "case {case}");
                for (pos, &v) in order.iter().enumerate() {
                    assert_eq!(l.position[v as usize], pos as u32, "case {case}");
                }
                let rows: Vec<u32> = sorted_cap
                    .chunks(l.width)
                    .map(|c| c.iter().copied().max().unwrap_or(0))
                    .collect();
                assert_eq!(l.groups.iter().map(|g| g.rows).collect::<Vec<_>>(), rows);
            }
        }
    }

    // -- boundary cases --

    #[test]
    fn zero_in_degree_vertices_occupy_zero_row_groups() {
        // All-zero capacities: the layout must exist (positions, groups,
        // redirection map) but allocate no cells at all.
        let owned: Vec<VertexId> = (0..10).collect();
        let cap = vec![0u32; 10];
        let l = CsbLayout::build(10, &owned, &cap, 4, 1);
        assert_eq!(l.num_positions(), 10);
        assert_eq!(l.num_groups(), 3, "10 positions at width 4");
        assert!(l.groups.iter().all(|g| g.rows == 0));
        assert_eq!(l.total_cells, 0);
        // Redirection still covers every vertex.
        for v in 0..10u32 {
            assert_ne!(l.position[v as usize], NOT_OWNED);
        }
        // Mixed: zero-degree vertices sort to the back; trailing all-zero
        // groups stay empty while the first group is sized by the max.
        let cap: Vec<u32> = (0..10).map(|i| if i < 2 { 3 } else { 0 }).collect();
        let l = CsbLayout::build(10, &owned, &cap, 4, 1);
        assert_eq!(l.groups[0].rows, 3);
        assert_eq!(l.groups[1].rows, 0);
        assert_eq!(l.groups[2].rows, 0);
        assert_eq!(l.total_cells, 12, "only the first group holds cells");
        assert_eq!(l.capacity[0], 3);
        assert_eq!(l.capacity[9], 0);
    }

    #[test]
    fn single_vertex_group_when_owned_fits_one_width() {
        // 5 owned vertices at width 8 (k=2 × lanes=4): exactly one group,
        // sized by the hottest vertex, padded to the full width.
        let owned: Vec<VertexId> = vec![3, 1, 4, 0, 2];
        let cap = vec![2u32, 7, 1, 3, 5];
        let l = CsbLayout::build(5, &owned, &cap, 4, 2);
        assert_eq!(l.num_groups(), 1);
        assert_eq!(l.groups[0].rows, 7);
        assert_eq!(l.total_cells, 7 * 8, "rows × full width, even half-empty");
        assert_eq!(l.group_of((l.num_positions() - 1) as u32), 0);
        // The single-vertex degenerate case: one group, one hot column.
        let l1 = CsbLayout::build(1, &[0], &[9], 4, 2);
        assert_eq!(l1.num_groups(), 1);
        assert_eq!(l1.groups[0].rows, 9);
        assert_eq!(l1.total_cells, 9 * 8);
        assert_eq!(l1.position[0], 0);
    }

    #[test]
    fn group_rows_may_exceed_column_count() {
        // A hub with in-degree far beyond the group width: rows (array
        // length) exceed the column count — the group is tall and narrow,
        // not an error. Offsets of later groups must account for it.
        let owned: Vec<VertexId> = (0..12).collect();
        let mut cap = vec![1u32; 12];
        cap[0] = 100; // hub
        let l = CsbLayout::build(12, &owned, &cap, 2, 2); // width 4
        assert_eq!(l.width, 4);
        assert_eq!(l.num_groups(), 3);
        assert_eq!(l.groups[0].rows, 100);
        assert!(l.groups[0].rows as usize > l.width);
        assert_eq!(l.groups[1].rows, 1);
        assert_eq!(l.groups[1].cell_offset, 400);
        assert_eq!(l.groups[2].cell_offset, 404);
        assert_eq!(l.total_cells, 408);
        // The hub sorts to position 0 and its column can hold its degree.
        assert_eq!(l.position[0], 0);
        assert_eq!(l.capacity[0], 100);
        // The condensed layout still beats the dense baseline, which would
        // give every vertex the hub's capacity.
        assert_eq!(l.dense_cells(), 12usize.div_ceil(4) * 4 * 100);
        assert!(l.condensation_factor() > 2.9);
    }
}
