//! SIMD message processing over the condensed static buffer (§IV.C).
//!
//! Task units are vector arrays: each group contributes up to `k` arrays of
//! `lanes` columns. For every array holding messages the runtime fills the
//! bubble cells of occupied columns with the reduction identity (the
//! "bubbles in the lanes due to the difference in the number of received
//! messages for each vertex"), reduces all rows into row 0 lane-parallel,
//! and delivers each occupied column's result to its vertex's slot for the
//! update phase. The scalar path walks occupied columns one message at a
//! time — the Fig. 5(f) comparison.
//!
//! On a gather-form dense step ([`super::gather`]) the buffer holds no
//! messages: each array is reduced by reading `sent[sender[cell]]` lane by
//! lane instead, where a bubble's sender is the last entry of `sent`, the
//! identity. The vectorized gather keeps `reduce_rows_strided`'s row order
//! and the scalar one `reduce_column_scalar`'s, so every reduced message,
//! and every work record, is the one the buffer would give.
#![allow(clippy::needless_range_loop)] // lane loops over runtime widths

use super::buffer::Csb;
use crate::util::SharedSlice;
use phigraph_device::counters::ProcChunk;
use phigraph_simd::{reduce_column_scalar, reduce_rows_strided, MsgValue, ReduceOp};
use std::ops::Range;

/// A gather-form dense step's messages: per buffer cell the index of its
/// sender, and each sender's one value. A bubble's index is the last one,
/// whose value is the reduction's identity.
#[derive(Clone, Copy)]
pub(crate) struct Gather<'a, T> {
    pub(crate) senders: &'a [u32],
    pub(crate) sent: &'a [T],
}

impl<'a, T: MsgValue> Gather<'a, T> {
    /// The message in cell `cell`.
    #[inline(always)]
    fn message(&self, cell: usize) -> T {
        self.sent[self.senders[cell] as usize]
    }

    /// Reduce the `rows` rows of the vector array whose first cell is
    /// `first` into `out`, one value per lane (`out.len()` lanes): row 0,
    /// then each later row folded in, `reduce_rows_strided`'s order.
    fn reduce_rows<Op: ReduceOp<T>>(
        &self,
        first: usize,
        rows: usize,
        stride: usize,
        out: &mut [T],
    ) {
        match out.len() {
            2 => self.reduce_rows_const::<Op, 2>(first, rows, stride, out),
            4 => self.reduce_rows_const::<Op, 4>(first, rows, stride, out),
            8 => self.reduce_rows_const::<Op, 8>(first, rows, stride, out),
            16 => self.reduce_rows_const::<Op, 16>(first, rows, stride, out),
            lanes => {
                for c in 0..lanes {
                    out[c] = self.message(first + c);
                }
                for r in 1..rows {
                    for c in 0..lanes {
                        out[c] = Op::apply(out[c], self.message(first + r * stride + c));
                    }
                }
            }
        }
    }

    #[inline]
    fn reduce_rows_const<Op: ReduceOp<T>, const W: usize>(
        &self,
        first: usize,
        rows: usize,
        stride: usize,
        out: &mut [T],
    ) {
        let mut acc: [T; W] = std::array::from_fn(|c| self.message(first + c));
        for r in 1..rows {
            let base = first + r * stride;
            let row: &[u32; W] = self.senders[base..base + W].try_into().expect("a full row");
            for c in 0..W {
                acc[c] = Op::apply(acc[c], self.sent[row[c] as usize]);
            }
        }
        out[..W].copy_from_slice(&acc);
    }

    /// Reduce the `count` messages of the column whose first cell is
    /// `first`, `reduce_column_scalar`'s order: the identity, then each row
    /// folded in.
    fn reduce_column<Op: ReduceOp<T>>(&self, first: usize, count: u32, stride: usize) -> T {
        (0..count as usize).fold(Op::identity(), |acc, r| {
            Op::apply(acc, self.message(first + r * stride))
        })
    }
}

impl<T: MsgValue> Csb<T> {
    /// Process the vector arrays of `groups`, writing each occupied
    /// column's reduced message into `out_msg[position]` and setting
    /// `out_has[position]`. Pushes one work record *per vector array* into
    /// `chunks` — vector arrays are the paper's processing task units, and
    /// per-array records let the cost model's makespan replay see the hot
    /// arrays that bound the scalar path.
    ///
    /// # Safety contract (upheld by the engines)
    /// Concurrent callers must pass disjoint `groups` ranges; `out_msg` /
    /// `out_has` writes are disjoint because each position is served by at
    /// most one column per iteration.
    pub fn process_groups<Op: ReduceOp<T>>(
        &self,
        groups: Range<usize>,
        vectorized: bool,
        out_msg: &SharedSlice<T>,
        out_has: &SharedSlice<u8>,
        chunks: &mut Vec<ProcChunk>,
    ) {
        self.process_groups_with::<Op>(groups, vectorized, None, out_msg, out_has, chunks);
    }

    /// [`Csb::process_groups`] whose messages are the buffer's or, on a
    /// gather-form dense step, `gather`'s.
    pub(crate) fn process_groups_with<Op: ReduceOp<T>>(
        &self,
        groups: Range<usize>,
        vectorized: bool,
        gather: Option<Gather<'_, T>>,
        out_msg: &SharedSlice<T>,
        out_has: &SharedSlice<u8>,
        chunks: &mut Vec<ProcChunk>,
    ) {
        for g in groups {
            if vectorized {
                self.process_group_vectorized::<Op>(g, gather, chunks, out_msg, out_has);
            } else {
                self.process_group_scalar::<Op>(g, gather, chunks, out_msg, out_has);
            }
        }
    }

    fn process_group_vectorized<Op: ReduceOp<T>>(
        &self,
        g: usize,
        gather: Option<Gather<'_, T>>,
        chunks: &mut Vec<ProcChunk>,
        out_msg: &SharedSlice<T>,
        out_has: &SharedSlice<u8>,
    ) {
        let lanes = self.layout.lanes;
        let width = self.layout.width;
        let info = self.layout.groups[g];
        let used = self.used_columns(g);
        if used == 0 {
            return;
        }
        let mut gathered = [T::ZERO; 64];
        let arrays = used.div_ceil(lanes).min(self.layout.k);
        for a in 0..arrays {
            let mut chunk = ProcChunk::default();
            let col_base = a * lanes;
            // Column counts for this vector array.
            let mut max_count = 0u32;
            let mut counts = [0u32; 64];
            debug_assert!(lanes <= 64);
            for c in 0..lanes {
                let cnt = if col_base + c < used {
                    self.column_count(g, col_base + c)
                } else {
                    0
                };
                counts[c] = cnt;
                max_count = max_count.max(cnt);
            }
            if max_count == 0 {
                continue;
            }
            // The bubbles: the rows of each occupied column past its count.
            for &cnt in &counts[..lanes] {
                if cnt > 0 {
                    chunk.holes += u64::from(max_count - cnt);
                }
            }
            let first = info.cell_offset + col_base;
            let reduced: &[T] = match gather {
                Some(gather) => {
                    gather.reduce_rows::<Op>(
                        first,
                        max_count as usize,
                        width,
                        &mut gathered[..lanes],
                    );
                    &gathered[..lanes]
                }
                None => {
                    // SAFETY: this task owns group g exclusively (disjoint
                    // ranges), so mutating its cells is race-free. The
                    // slice spans the rows of this vector array: row r
                    // starts at cell_offset + r*width + col_base; length
                    // covers (max_count-1) strides + lanes.
                    let slice = unsafe {
                        std::slice::from_raw_parts_mut(
                            self.data_ptr().add(first),
                            (max_count as usize - 1) * width + lanes,
                        )
                    };
                    // Fill bubbles in occupied columns with the identity.
                    for c in 0..lanes {
                        let cnt = counts[c];
                        if cnt > 0 {
                            for r in cnt..max_count {
                                slice[r as usize * width + c] = Op::identity();
                            }
                        }
                    }
                    // Lane-parallel reduction of all rows into row 0 — the
                    // user-visible process_messages() loop of Listing 1.
                    reduce_rows_strided::<T, Op>(slice, max_count as usize, lanes, width);
                    &slice[..lanes]
                }
            };
            chunk.rows += max_count as u64;
            // Deliver per occupied column.
            for c in 0..lanes {
                if counts[c] > 0 {
                    if let Some(pos) = self.column_position(g, col_base + c) {
                        // SAFETY: one column per position per iteration.
                        unsafe {
                            out_msg.write(pos as usize, reduced[c]);
                            out_has.write(pos as usize, 1);
                        }
                        chunk.columns += 1;
                        chunk.msgs += counts[c] as u64;
                    }
                }
            }
            if chunk.msgs > 0 || chunk.rows > 0 {
                chunks.push(chunk);
            }
        }
    }

    fn process_group_scalar<Op: ReduceOp<T>>(
        &self,
        g: usize,
        gather: Option<Gather<'_, T>>,
        chunks: &mut Vec<ProcChunk>,
        out_msg: &SharedSlice<T>,
        out_has: &SharedSlice<u8>,
    ) {
        let lanes = self.layout.lanes;
        let width = self.layout.width;
        let info = self.layout.groups[g];
        let used = self.used_columns(g);
        if used == 0 || info.rows == 0 {
            return;
        }
        // SAFETY: exclusive group access as above; read-only here.
        let slice = unsafe {
            std::slice::from_raw_parts(
                self.data_ptr().add(info.cell_offset),
                info.rows as usize * width,
            )
        };
        // Same task granularity as the vectorized path: one record per
        // vector array, so the two paths are compared on equal scheduling.
        let arrays = used.div_ceil(lanes).min(self.layout.k);
        for a in 0..arrays {
            let mut chunk = ProcChunk::default();
            for c in (a * lanes)..((a + 1) * lanes).min(used) {
                let cnt = self.column_count(g, c);
                if cnt == 0 {
                    continue;
                }
                let reduced = match gather {
                    Some(gather) => gather.reduce_column::<Op>(info.cell_offset + c, cnt, width),
                    None => reduce_column_scalar::<T, Op>(slice, cnt as usize, c, width),
                };
                if let Some(pos) = self.column_position(g, c) {
                    // SAFETY: one column per position per iteration.
                    unsafe {
                        out_msg.write(pos as usize, reduced);
                        out_has.write(pos as usize, 1);
                    }
                    chunk.columns += 1;
                    chunk.msgs += cnt as u64;
                    chunk.rows += cnt as u64;
                }
            }
            if chunk.msgs > 0 {
                chunks.push(chunk);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csb::{ColumnMode, CsbLayout};
    use phigraph_graph::generators::small::paper_example;
    use phigraph_graph::VertexId;
    use phigraph_simd::{Min, Sum};

    fn paper_csb(mode: ColumnMode) -> Csb<f32> {
        let g = paper_example();
        let owned: Vec<VertexId> = (0..16).collect();
        let cap = g.in_degrees();
        Csb::new(CsbLayout::build(16, &owned, &cap, 4, 2), mode)
    }

    fn run_process(csb: &Csb<f32>, vectorized: bool) -> (Vec<f32>, Vec<u8>, ProcChunk) {
        let n = csb.layout.num_positions();
        let mut msgs = vec![0f32; n];
        let mut has = vec![0u8; n];
        let mut chunks = Vec::new();
        {
            let m = SharedSlice::new(&mut msgs);
            let h = SharedSlice::new(&mut has);
            csb.process_groups::<Min>(0..csb.layout.num_groups(), vectorized, &m, &h, &mut chunks);
        }
        let mut chunk = ProcChunk::default();
        for c in &chunks {
            chunk.rows += c.rows;
            chunk.msgs += c.msgs;
            chunk.holes += c.holes;
            chunk.columns += c.columns;
        }
        (msgs, has, chunk)
    }

    #[test]
    fn min_reduction_per_destination() {
        for mode in [ColumnMode::Dynamic, ColumnMode::OneToOne] {
            for vectorized in [true, false] {
                let mut csb = paper_csb(mode);
                csb.insert(9, 7.5).unwrap();
                csb.insert(9, 3.25).unwrap();
                csb.insert(2, 10.0).unwrap();
                let (msgs, has, chunk) = run_process(&csb, vectorized);
                let pos9 = csb.layout.position[9] as usize;
                let pos2 = csb.layout.position[2] as usize;
                assert_eq!(has[pos9], 1);
                assert_eq!(msgs[pos9], 3.25, "mode {mode:?} vec {vectorized}");
                assert_eq!(msgs[pos2], 10.0);
                assert_eq!(chunk.columns, 2);
                assert_eq!(chunk.msgs, 3);
                // No stray deliveries.
                assert_eq!(has.iter().filter(|&&h| h == 1).count(), 2);
            }
        }
    }

    #[test]
    fn sum_reduction_with_bubbles() {
        let mut csb = paper_csb(ColumnMode::Dynamic);
        // Vertex 5 (capacity 5) gets 5 messages; vertex 2 gets 2 — three
        // bubble cells must be identity-filled in vertex 2's column.
        for i in 1..=5 {
            csb.insert(5, i as f32).unwrap();
        }
        csb.insert(2, 100.0).unwrap();
        csb.insert(2, 200.0).unwrap();
        let n = csb.layout.num_positions();
        let mut msgs = vec![0f32; n];
        let mut has = vec![0u8; n];
        let mut chunks = Vec::new();
        {
            let m = SharedSlice::new(&mut msgs);
            let h = SharedSlice::new(&mut has);
            csb.process_groups::<Sum>(0..csb.layout.num_groups(), true, &m, &h, &mut chunks);
        }
        let mut chunk = ProcChunk::default();
        for c in &chunks {
            chunk.rows += c.rows;
            chunk.msgs += c.msgs;
            chunk.holes += c.holes;
            chunk.columns += c.columns;
        }
        assert_eq!(msgs[csb.layout.position[5] as usize], 15.0);
        assert_eq!(msgs[csb.layout.position[2] as usize], 300.0);
        assert_eq!(chunk.holes, 3);
        assert_eq!(has.iter().filter(|&&h| h == 1).count(), 2);
    }

    #[test]
    fn scalar_path_counts_no_holes() {
        let mut csb = paper_csb(ColumnMode::Dynamic);
        csb.insert(5, 1.0).unwrap();
        csb.insert(5, 2.0).unwrap();
        csb.insert(2, 3.0).unwrap();
        let (_, _, chunk) = run_process(&csb, false);
        assert_eq!(chunk.holes, 0);
        assert_eq!(chunk.msgs, 3);
    }

    #[test]
    fn one_to_one_mode_wastes_more_rows_than_dynamic() {
        // The Fig. 3a vs 3b effect: scattered columns force more vector
        // arrays / rows in one-to-one mode.
        let mk = |mode| {
            let mut csb = paper_csb(mode);
            // Messages to vertices at positions 1, 3, 6, 7 of group 0 —
            // spread over both vector arrays in one-to-one, condensed to
            // one array in dynamic.
            csb.insert(2, 1.0).unwrap();
            csb.insert(9, 1.0).unwrap();
            csb.insert(6, 1.0).unwrap();
            csb.insert(7, 1.0).unwrap();
            let (_, _, chunk) = run_process(&csb, true);
            chunk.rows
        };
        let dynamic_rows = mk(ColumnMode::Dynamic);
        let one_to_one_rows = mk(ColumnMode::OneToOne);
        assert_eq!(dynamic_rows, 1, "4 messages condense into one row");
        assert_eq!(one_to_one_rows, 2, "scattered columns need both arrays");
    }

    #[test]
    fn stale_cells_from_previous_iteration_are_invisible() {
        let mut csb = paper_csb(ColumnMode::Dynamic);
        for i in 1..=5 {
            csb.insert(5, 1000.0 + i as f32).unwrap();
        }
        csb.reset();
        // New iteration: only vertex 2 gets a message; stale cells from
        // vertex 5's old column must not leak into any result.
        csb.insert(2, 42.0).unwrap();
        let (msgs, has, _) = run_process(&csb, true);
        assert_eq!(has.iter().filter(|&&h| h == 1).count(), 1);
        assert_eq!(msgs[csb.layout.position[2] as usize], 42.0);
    }

    #[test]
    fn empty_buffer_processes_to_nothing() {
        let csb = paper_csb(ColumnMode::Dynamic);
        let (_, has, chunk) = run_process(&csb, true);
        assert!(has.iter().all(|&h| h == 0));
        assert_eq!(chunk.msgs, 0);
        assert_eq!(chunk.rows, 0);
    }
}
