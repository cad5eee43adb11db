//! Mailbox supersteps: how the engine's host path runs a superstep that
//! does not gather, outside the message audit and a pending message
//! bit-flip.
//!
//! Every such step is one frontier walk on the calling thread. Filling the
//! buffer writes each message into a cell that processing then reads back;
//! a mailbox step acts on each message where it arrives instead (Rhizomes,
//! arXiv 2402.06086), as the `seq` engine's sink does:
//!
//! * **Fold.** Generation runs in owned order, one work chunk after another:
//!   the order the buffer inserts in. Each local message folds into its
//!   destination's slot, which keeps the fold and a message count, and the
//!   destinations that get messages are listed in first-arrival order.
//!   Slots are indexed by vertex id, so a message costs what it costs
//!   `seq`: no redirection-map lookup. Peer-bound messages go to the remote
//!   batch in send order; the remote absorb folds the peers' messages after
//!   the local ones, in incoming order.
//! * **Bind.** No cell is written: the counts alone say what the buffer
//!   would hold. In dynamic mode each group binds its columns to positions
//!   in first-arrival order (one-to-one: column `pos mod width`), which
//!   fixes the vector array every position's column falls in. From that
//!   come the insertion profile, the occupied columns, the column
//!   allocations, each vector array's processing record and the cells the
//!   next reset would touch. A column past its group's rows is a message
//!   the buffer would reject: the engine re-runs such a step into the
//!   buffer, whose insert panics with its [`CsbInsertError::OverCapacity`]
//!   text at the first rejected message in source order, and the absorb
//!   names the first rejected message in incoming order itself, as the
//!   buffer does.
//! * **Reduce.** Each fold keeps the buffer reduction's bits. The
//!   vectorized reduction seeds a column with its first message and folds
//!   the bubble rows' identity into every column shorter than the longest
//!   in its vector array; folding it once is enough, since `x ⊕ id ⊕ id` has
//!   the bits of `x ⊕ id` for every reduction (`-0.0 + 0.0` is `+0.0`,
//!   which adding `+0.0` keeps). The scalar reduction seeds with the
//!   identity.
//!
//! Only the vertices that got messages are touched: reducing them, and
//! clearing them before the next step, costs nothing per idle vertex.

use super::buffer::{ColumnMode, CsbInsertError};
use super::layout::{CsbLayout, NOT_OWNED};
use crate::api::MsgSink;
use phigraph_comm::WireMsg;
use phigraph_device::counters::{InsertProfile, ProcChunk};
use phigraph_graph::VertexId;
use phigraph_simd::{MsgValue, ReduceOp};
use std::marker::PhantomData;

/// A vector array's tally, indexed by `ROWS`, `MSGS` and `COLUMNS`: its
/// longest column, its messages and its occupied columns. An integer array,
/// so a table of them is allocated zeroed.
type Tally = [u64; 3];
const ROWS: usize = 0;
const MSGS: usize = 1;
const COLUMNS: usize = 2;

/// The per-vertex folds of one engine's mailbox steps, reused every step.
/// Every table is allocated zeroed at the first mailbox step, so a sparse
/// step faults in only the pages it touches.
pub(crate) struct Mailbox<T> {
    /// Per vertex of the graph, indexed by id (a message needs no
    /// redirection-map lookup): its messages this step.
    counts: Vec<u32>,
    /// Per vertex, the fold of its messages so far.
    accs: Vec<T>,
    /// Vertices that got messages this step, in first-arrival order.
    touched: Vec<VertexId>,
    /// Per bound entry of `touched`: its position, and the vector array
    /// (`group × k + array`) its column falls in.
    bound: Vec<(u32, u32)>,
    /// Per group, its next free column (dynamic mode).
    next_col: Vec<u32>,
    /// Per vector array, its tally (all zero between reductions).
    tallies: Vec<Tally>,
    /// The vector arrays holding messages, while reducing.
    arrays: Vec<u32>,
}

impl<T: MsgValue> Mailbox<T> {
    /// An empty mailbox; the first fold sizes it.
    pub(crate) fn new() -> Self {
        Mailbox {
            counts: Vec::new(),
            accs: Vec::new(),
            touched: Vec::new(),
            bound: Vec::new(),
            next_col: Vec::new(),
            tallies: Vec::new(),
            arrays: Vec::new(),
        }
    }

    /// A folding sink for one step's generation on `layout`. `vectorized`
    /// picks the vectorized reduction's seed; `assign` and `dev` tell local
    /// destinations from peer-bound ones (`None`: every one is local).
    pub(crate) fn sink<'m, Op: ReduceOp<T>>(
        &'m mut self,
        layout: &CsbLayout,
        vectorized: bool,
        assign: Option<&'m [u8]>,
        dev: u8,
    ) -> MailSink<'m, T, Op> {
        MailSink {
            fold: self.fold(layout, vectorized),
            assign,
            dev,
            remote: Vec::new(),
        }
    }

    fn fold<Op: ReduceOp<T>>(&mut self, layout: &CsbLayout, vectorized: bool) -> Fold<'_, T, Op> {
        if self.counts.is_empty() {
            let n = layout.position.len();
            self.counts = vec![0; n];
            self.accs = vec![T::ZERO; n];
            self.next_col = vec![0; layout.num_groups()];
            self.tallies = vec![[0; 3]; layout.num_groups() * layout.k];
        }
        Fold {
            counts: &mut self.counts,
            accs: &mut self.accs,
            touched: &mut self.touched,
            seed_first: vectorized,
            op: PhantomData,
        }
    }

    /// Bind a column to every vertex that got its first message since the
    /// last call, in first-arrival order, and note the vector array the
    /// column falls in. Returns whether each of those columns fits its
    /// group's rows; when one does not, the buffer would have rejected a
    /// message. Every vertex folded into must be owned.
    pub(crate) fn bind(&mut self, layout: &CsbLayout, mode: ColumnMode) -> bool {
        let Mailbox {
            counts,
            touched,
            bound,
            next_col,
            ..
        } = self;
        let mut fits = true;
        for &v in &touched[bound.len()..] {
            let pos = layout.position[v as usize];
            debug_assert_ne!(pos, NOT_OWNED, "vertex {v} is not owned");
            let group = layout.group_of(pos);
            let col = match mode {
                ColumnMode::OneToOne => pos as usize % layout.width,
                ColumnMode::Dynamic => {
                    next_col[group] += 1;
                    next_col[group] as usize - 1
                }
            };
            bound.push((pos, (group * layout.k + col / layout.lanes) as u32));
            fits &= counts[v as usize] <= layout.groups[group].rows;
        }
        fits
    }

    /// Fold the peers' combined messages after this step's local ones, in
    /// `incoming` order, and bind their columns.
    ///
    /// # Panics
    /// Panics with the [`CsbInsertError`] text the buffer's insert returns
    /// at the first message in `incoming` it rejects: a destination out of
    /// range or not owned, or one past its column's rows.
    pub(crate) fn absorb<Op: ReduceOp<T>>(
        &mut self,
        layout: &CsbLayout,
        mode: ColumnMode,
        vectorized: bool,
        incoming: &[WireMsg<T>],
    ) {
        let mut fold = self.fold::<Op>(layout, vectorized);
        for m in incoming {
            let pos = match layout.position.get(m.dst as usize) {
                Some(&pos) if pos != NOT_OWNED => pos,
                _ => not_owned(m.dst, layout.position.len()),
            };
            fold.fold(m.dst, m.value);
            let capacity = layout.groups[layout.group_of(pos)].rows;
            if fold.counts[m.dst as usize] > capacity {
                let e = CsbInsertError::OverCapacity {
                    dst: m.dst,
                    capacity,
                };
                panic!("{e}");
            }
        }
        self.bind(layout, mode);
    }

    /// `(vertex, messages)` of every vertex that got messages, in
    /// first-arrival order.
    pub(crate) fn counts(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        self.touched.iter().map(|&v| (v, self.counts[v as usize]))
    }

    /// `(vertex, position)` of every vertex that got messages, in
    /// first-arrival order.
    pub(crate) fn reached(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        self.touched
            .iter()
            .zip(&self.bound)
            .map(|(&v, &(pos, _))| (v, pos))
    }

    /// The buffer's insertion statistics for these messages:
    /// `(profile, occupied_columns, column_allocations)`. Every vertex
    /// with messages has one column, which dynamic mode allocates. The
    /// profile's sum of squares adds whole numbers far below 2⁵³, so it
    /// does not depend on the order columns are recorded in.
    pub(crate) fn insert_stats(&self, mode: ColumnMode) -> (InsertProfile, u64, u64) {
        let profile = InsertProfile::from_counts(self.counts().map(|(_, n)| u64::from(n)));
        let columns = self.touched.len() as u64;
        let allocs = if mode == ColumnMode::Dynamic {
            columns
        } else {
            0
        };
        (profile, columns, allocs)
    }

    /// Write each position's reduced message into `reduced` and set its
    /// `has_msg` flag, and push one work record per vector array holding
    /// messages, in group then array order: the records, messages and
    /// flags the buffer's processing leaves (`vectorized` picks its path).
    pub(crate) fn reduce<Op: ReduceOp<T>>(
        &mut self,
        vectorized: bool,
        reduced: &mut [T],
        has_msg: &mut [u8],
        chunks: &mut Vec<ProcChunk>,
    ) {
        let Mailbox {
            counts,
            accs,
            touched,
            bound,
            tallies,
            arrays,
            ..
        } = self;
        for (&v, &(_, a)) in touched.iter().zip(bound.iter()) {
            let count = u64::from(counts[v as usize]);
            let t = &mut tallies[a as usize];
            if t[COLUMNS] == 0 {
                arrays.push(a);
            }
            t[ROWS] = t[ROWS].max(count);
            t[MSGS] += count;
            t[COLUMNS] += 1;
        }
        // Group then array order: sort a few arrays, scan for many.
        if arrays.len() * 16 < tallies.len() {
            arrays.sort_unstable();
        } else {
            arrays.clear();
            arrays.extend((0..tallies.len() as u32).filter(|&a| tallies[a as usize][COLUMNS] > 0));
        }
        for &a in arrays.iter() {
            let [rows, msgs, columns] = tallies[a as usize];
            chunks.push(if vectorized {
                ProcChunk {
                    rows,
                    msgs,
                    holes: columns * rows - msgs,
                    columns,
                }
            } else {
                ProcChunk {
                    rows: msgs,
                    msgs,
                    holes: 0,
                    columns,
                }
            });
        }
        for (&v, &(pos, a)) in touched.iter().zip(bound.iter()) {
            let acc = accs[v as usize];
            let bubble = vectorized && u64::from(counts[v as usize]) < tallies[a as usize][ROWS];
            reduced[pos as usize] = if bubble {
                Op::apply(acc, Op::identity())
            } else {
                acc
            };
            has_msg[pos as usize] = 1;
        }
        for &a in arrays.iter() {
            tallies[a as usize] = [0; 3];
        }
        arrays.clear();
    }

    /// Forget the step's messages and clear their positions' `has_msg`
    /// flags. Returns the cells a reset of the buffer holding them would
    /// touch: three per bound column in dynamic mode, one per occupied
    /// column in one-to-one mode.
    pub(crate) fn clear(
        &mut self,
        layout: &CsbLayout,
        mode: ColumnMode,
        has_msg: &mut [u8],
    ) -> u64 {
        for &v in &self.touched {
            self.counts[v as usize] = 0;
        }
        for &(pos, _) in &self.bound {
            has_msg[pos as usize] = 0;
            if mode == ColumnMode::Dynamic {
                self.next_col[layout.group_of(pos)] = 0;
            }
        }
        let columns = self.touched.len() as u64;
        self.touched.clear();
        self.bound.clear();
        match mode {
            ColumnMode::Dynamic => 3 * columns,
            ColumnMode::OneToOne => columns,
        }
    }
}

/// The fold of local messages into a [`Mailbox`]: `seq`'s sink, plus the
/// first-arrival list.
struct Fold<'m, T: MsgValue, Op> {
    counts: &'m mut [u32],
    accs: &'m mut [T],
    touched: &'m mut Vec<VertexId>,
    /// Whether a fold starts at its first message (vectorized) or at the
    /// identity (scalar).
    seed_first: bool,
    op: PhantomData<Op>,
}

impl<'m, T: MsgValue, Op: ReduceOp<T>> Fold<'m, T, Op> {
    #[inline(always)]
    fn fold(&mut self, dst: VertexId, msg: T) {
        let d = dst as usize;
        let (Some(count), Some(acc)) = (self.counts.get_mut(d), self.accs.get_mut(d)) else {
            not_owned(dst, self.counts.len())
        };
        *acc = if *count == 0 {
            self.touched.push(dst);
            if self.seed_first {
                msg
            } else {
                Op::apply(Op::identity(), msg)
            }
        } else {
            Op::apply(*acc, msg)
        };
        *count += 1;
    }
}

/// Panic with the [`CsbInsertError`] of a destination the redirection map
/// of `vertices` vertices does not own.
#[cold]
#[inline(never)]
fn not_owned(dst: VertexId, vertices: usize) -> ! {
    let e = if (dst as usize) < vertices {
        CsbInsertError::NotOwned { dst }
    } else {
        CsbInsertError::OutOfRange { dst, vertices }
    };
    panic!("{e}")
}

/// A mailbox step's generation sink: local messages fold on arrival,
/// peer-bound ones are collected in send order.
pub(crate) struct MailSink<'m, T: MsgValue, Op> {
    fold: Fold<'m, T, Op>,
    assign: Option<&'m [u8]>,
    dev: u8,
    /// Peer-bound messages, in send order.
    pub(crate) remote: Vec<WireMsg<T>>,
}

impl<'m, T: MsgValue, Op: ReduceOp<T>> MsgSink<T> for MailSink<'m, T, Op> {
    #[inline(always)]
    fn send(&mut self, dst: VertexId, msg: T) {
        if self.assign.is_none_or(|a| a[dst as usize] == self.dev) {
            self.fold.fold(dst, msg);
        } else {
            self.remote.push(WireMsg { dst, value: msg });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csb::Csb;
    use crate::util::SharedSlice;
    use phigraph_graph::generators::small::{paper_example, paper_table1_messages};
    use phigraph_simd::{Min, Sum};

    fn paper_layout() -> CsbLayout {
        let g = paper_example();
        let owned: Vec<VertexId> = (0..16).collect();
        CsbLayout::build(16, &owned, &g.in_degrees(), 4, 2)
    }

    /// Each position's `(has, message bits)`, the records and the
    /// insertion statistics of `msgs` reduced through the buffer and
    /// through a mailbox.
    type Outcome = (Vec<(u8, u32)>, Vec<ProcChunk>, (InsertProfile, u64, u64));

    fn both<Op: ReduceOp<f32>>(
        msgs: &[(VertexId, f32)],
        mode: ColumnMode,
        vectorized: bool,
    ) -> (Outcome, Outcome) {
        let layout = paper_layout();
        let n = layout.num_positions();
        let outcome = |reduced: &[f32], has: &[u8], chunks, stats| {
            let bits = has
                .iter()
                .zip(reduced)
                .map(|(&h, m)| (h, if h != 0 { m.to_bits() } else { 0 }))
                .collect();
            (bits, chunks, stats)
        };

        let mut csb = Csb::<f32>::new(layout.clone(), mode);
        for &(dst, v) in msgs {
            csb.insert(dst, v).unwrap();
        }
        let (mut reduced, mut has, mut chunks) = (vec![0f32; n], vec![0u8; n], Vec::new());
        let stats = csb.insert_stats();
        csb.process_groups::<Op>(
            0..layout.num_groups(),
            vectorized,
            &SharedSlice::new(&mut reduced),
            &SharedSlice::new(&mut has),
            &mut chunks,
        );
        let buffer = outcome(&reduced, &has, chunks, stats);

        let mut mailbox = Mailbox::new();
        let (mut reduced, mut has, mut chunks) = (vec![0f32; n], vec![0u8; n], Vec::new());
        let mut sink = mailbox.sink::<Op>(&layout, vectorized, None, 0);
        for &(dst, v) in msgs {
            sink.send(dst, v);
        }
        assert!(mailbox.bind(&layout, mode));
        let stats = mailbox.insert_stats(mode);
        mailbox.reduce::<Op>(vectorized, &mut reduced, &mut has, &mut chunks);
        let mailed = outcome(&reduced, &has, chunks, stats);
        assert_eq!(mailbox.clear(&layout, mode, &mut has), csb.reset());
        assert!(has.iter().all(|&h| h == 0));
        (buffer, mailed)
    }

    #[test]
    fn mailbox_reduces_what_the_buffer_reduces() {
        let table1: Vec<(VertexId, f32)> = paper_table1_messages()
            .into_iter()
            .map(|(src, dst)| (dst, src as f32 * 0.1))
            .collect();
        // Vertex 9's lone −0.0 shares a vector array with vertex 2's two
        // messages, so the lane reduction folds +0.0 into it; alone, it
        // keeps its sign on the vectorized path.
        let short_zero = [(9, -0.0f32), (2, 1.0), (2, 2.0)];
        let lone_zero = [(9, -0.0f32)];
        for msgs in [&table1[..], &short_zero, &lone_zero] {
            for mode in [ColumnMode::Dynamic, ColumnMode::OneToOne] {
                for vectorized in [true, false] {
                    let at = format!("{msgs:?}, {mode:?}, vectorized {vectorized}");
                    let (buffer, mailed) = both::<Sum>(msgs, mode, vectorized);
                    assert!(buffer == mailed, "sum, {at}");
                    let (buffer, mailed) = both::<Min>(msgs, mode, vectorized);
                    assert!(buffer == mailed, "min, {at}");
                }
            }
        }
    }

    /// The panic text of absorbing `incoming` behind vertex 5's five
    /// messages (its capacity) and vertex 12's one (its capacity), inserted
    /// into the buffer or folded into a mailbox.
    fn absorb_panic(incoming: &[(VertexId, f32)], mailed: bool) -> String {
        let layout = paper_layout();
        let local = [(5, 0.0), (5, 1.0), (12, 2.0), (5, 3.0), (5, 4.0), (5, 5.0)];
        let incoming: Vec<WireMsg<f32>> = incoming
            .iter()
            .map(|&(dst, value)| WireMsg { dst, value })
            .collect();
        let err = std::panic::catch_unwind(|| {
            if mailed {
                let mut mailbox = Mailbox::<f32>::new();
                let mut sink = mailbox.sink::<Sum>(&layout, true, None, 0);
                for &(dst, v) in &local {
                    sink.send(dst, v);
                }
                assert!(mailbox.bind(&layout, ColumnMode::Dynamic));
                mailbox.absorb::<Sum>(&layout, ColumnMode::Dynamic, true, &incoming);
            } else {
                let mut csb = Csb::<f32>::new(layout.clone(), ColumnMode::Dynamic);
                for (dst, v) in local
                    .into_iter()
                    .chain(incoming.iter().map(|m| (m.dst, m.value)))
                {
                    csb.insert(dst, v).unwrap_or_else(|e| panic!("{e}"));
                }
            }
        })
        .expect_err("a column overflows");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn an_absorbed_overflow_panics_with_the_drain_text() {
        for (incoming, dst, rows) in [
            (&[(2, 1.0), (12, 2.0), (5, 3.0)][..], 12, 1),
            (&[(2, 1.0), (5, 3.0), (12, 2.0)], 5, 5),
        ] {
            let text = absorb_panic(incoming, true);
            assert_eq!(text, absorb_panic(incoming, false));
            assert_eq!(
                text,
                format!("vertex {dst} received more than its capacity {rows} messages")
            );
        }
    }

    #[test]
    #[should_panic(expected = "message for non-owned vertex 9")]
    fn an_absorbed_non_owned_destination_panics_with_the_insert_text() {
        let g = paper_example();
        let owned: Vec<VertexId> = vec![0, 1, 2];
        let indeg = g.in_degrees();
        let cap: Vec<u32> = owned.iter().map(|&v| indeg[v as usize]).collect();
        let layout = CsbLayout::build(16, &owned, &cap, 4, 2);
        let mut mailbox = Mailbox::<f32>::new();
        let incoming = [WireMsg { dst: 9, value: 1.0 }];
        mailbox.absorb::<Sum>(&layout, ColumnMode::Dynamic, true, &incoming);
    }
}
