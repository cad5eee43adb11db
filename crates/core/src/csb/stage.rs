//! Stage-and-drain insertion: how the locking engine fills the buffer.
//!
//! The paper's locking scheme (§IV.C) has every generating thread insert
//! straight into its destination column under a per-column lock. On the
//! host that is a contended cursor RMW per message, and the order in which
//! racing threads claim cells decides the association of every `Sum`
//! reduction. Here insertion is propagation-blocked (Beamer, Asanović &
//! Patterson, IPDPS 2017) instead:
//!
//! * **Stage.** While generating, each host thread appends `(position,
//!   message)` pairs to its own [`Lane`], one region per *bin* — a
//!   contiguous run of vertex groups whose cells and column metadata fit in
//!   [`BIN_BYTES`], so a bin stays cache-resident while it drains. The
//!   redirection map is resolved here: an out-of-range or non-owned
//!   destination panics at its send with the [`CsbInsertError`] that
//!   [`Csb::insert`] returns. Each work chunk leaves one segment per bin
//!   it touched.
//! * **Drain.** After the generation barrier, threads take bins
//!   dynamically. The single owner of a bin replays the bin's segments in
//!   chunk order through [`Csb::insert_owned`]: plain loads and stores.
//!
//! Chunk order is the order a one-thread run calls `Csb::insert` in, so the
//! buffer ends up the same on any host thread count — cells, column
//! allocation, column counts, integrity sums — and every column holds its
//! messages in source order. [`Staging::insert_stream`] runs both halves
//! over a given message stream: the remote absorb and the `csb` bench
//! area insert through it.
//!
//! [`Csb::insert`]: super::Csb::insert

use super::buffer::{Csb, CsbInsertError};
use super::layout::CsbLayout;
use crate::util::SharedSlice;
use phigraph_device::pool::run_parallel_collect;
use phigraph_device::ChunkScheduler;
use phigraph_graph::VertexId;
use phigraph_simd::MsgValue;
use phigraph_trace::{Phase, ThreadTracer};
use std::mem::MaybeUninit;

/// Bytes of message cells plus column metadata one bin may span.
const BIN_BYTES: usize = 128 << 10;
/// Column metadata the drain touches per column: cursor, bound position and
/// the index entry of the position it serves.
const COLUMN_META_BYTES: usize = 12;
/// `Lane::open` value of a bin no chunk has opened a segment in.
const NO_CHUNK: u32 = u32::MAX;
/// Staged messages per extra drain thread: starting a thread costs about
/// as much as draining this many, so a sparse superstep drains inline.
const DRAIN_MSGS_PER_THREAD: usize = 16 << 10;
/// Messages per work chunk in [`Staging::insert_stream`].
const STREAM_CHUNK: usize = 1024;

/// A run of one chunk's staged messages for one bin, inside one lane.
#[derive(Clone, Copy, Debug)]
struct Segment {
    bin: u32,
    start: usize,
    end: usize,
}

/// A lane's write cursor into one bin's region.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    /// Next free entry.
    fill: usize,
    /// End of the bin's region.
    end: usize,
    /// Chunk whose segment is open.
    open: u32,
}

/// One host thread's staging area.
struct Lane<T> {
    /// One entry per buffer cell; bin `b` stages into
    /// `bin_base[b]..bin_base[b + 1]`, which holds every message the bin's
    /// columns can take. Allocated uninitialised, so only the pages a step
    /// writes become resident.
    cells: Box<[MaybeUninit<(u32, T)>]>,
    /// One cursor per bin.
    cursors: Vec<Cursor>,
    /// Segments in staging order.
    segs: Vec<Segment>,
    /// Per staged chunk: `(chunk, end of its segments in segs)`.
    marks: Vec<(u32, u32)>,
    /// First destination dropped because its bin's region was full.
    overflow: Option<VertexId>,
}

impl<T: MsgValue> Lane<T> {
    fn new(cells: usize) -> Self {
        Lane {
            cells: Box::new_uninit_slice(cells),
            cursors: Vec::new(),
            segs: Vec::new(),
            marks: Vec::new(),
            overflow: None,
        }
    }

    fn reset(&mut self, bin_base: &[usize]) {
        self.cursors.clear();
        self.cursors.extend(bin_base.windows(2).map(|w| Cursor {
            fill: w[0],
            end: w[1],
            open: NO_CHUNK,
        }));
        self.segs.clear();
        self.marks.clear();
        self.overflow = None;
    }

    /// The messages of `seg`.
    fn staged(&self, seg: Segment) -> &[(u32, T)] {
        let run = &self.cells[seg.start..seg.end];
        // SAFETY: entries start..end were written during the current
        // staging round (a cursor only moves past written entries), and
        // MaybeUninit<X> has the layout of X.
        unsafe { std::slice::from_raw_parts(run.as_ptr().cast(), run.len()) }
    }
}

/// The bin map plus one lane per host thread; owned by an engine and reused
/// every superstep.
pub(crate) struct Staging<T> {
    /// Bin of each vertex group.
    bin_of_group: Vec<u32>,
    /// `bins + 1` cell offsets: bin `b` covers cells
    /// `bin_base[b]..bin_base[b + 1]`, and the last offset is the buffer's
    /// cell count.
    bin_base: Vec<usize>,
    lanes: Vec<Lane<T>>,
    /// Lanes the last staging round used.
    active: usize,
    /// Lane and mark of each chunk of the last staging round.
    owner: Vec<(u32, u32)>,
    /// `(lane, segment)` of every segment, grouped by bin, chunk order
    /// within a bin.
    order: Vec<(u32, u32)>,
    /// `bins + 1` offsets into `order`.
    bin_order: Vec<usize>,
    /// Messages the last staging round staged.
    staged: usize,
}

/// A host thread's handle while staging: its lane plus the shared bin map.
pub(crate) struct Stager<'a, T: MsgValue> {
    csb: &'a Csb<T>,
    bin_of_group: &'a [u32],
    lane: &'a mut Lane<T>,
    chunk: u32,
    first_seg: usize,
}

impl<'a, T: MsgValue> Stager<'a, T> {
    /// Start staging work chunk `chunk`.
    pub(crate) fn open(&mut self, chunk: usize) {
        self.chunk = chunk as u32;
        self.first_seg = self.lane.segs.len();
    }

    /// Stage one message for `dst`.
    ///
    /// # Panics
    /// Panics with the [`CsbInsertError`] text if `dst` is out of range or
    /// not owned by this buffer.
    #[inline(always)]
    pub(crate) fn stage(&mut self, dst: VertexId, msg: T) {
        let pos = match self.csb.resolve(dst) {
            Ok(pos) => pos,
            Err(e) => panic!("{e}"),
        };
        let bin = self.bin_of_group[self.csb.layout.group_of(pos)];
        let lane = &mut *self.lane;
        let cur = &mut lane.cursors[bin as usize];
        if cur.open != self.chunk {
            cur.open = self.chunk;
            lane.segs.push(Segment {
                bin,
                start: cur.fill,
                end: cur.fill,
            });
        }
        if cur.fill == cur.end {
            // More messages than the bin's columns hold: some column
            // overflows, and `Staging::drain` reports it.
            lane.overflow.get_or_insert(dst);
            return;
        }
        lane.cells[cur.fill].write((pos, msg));
        cur.fill += 1;
    }

    /// Finish the chunk opened last.
    pub(crate) fn close(&mut self) {
        let lane = &mut *self.lane;
        for seg in &mut lane.segs[self.first_seg..] {
            seg.end = lane.cursors[seg.bin as usize].fill;
        }
        lane.marks.push((self.chunk, lane.segs.len() as u32));
    }
}

impl<T: MsgValue> Staging<T> {
    /// The bin map of `layout`; lanes are allocated on first use.
    pub(crate) fn new(layout: &CsbLayout) -> Self {
        let width = layout.width;
        let mut bin_of_group = Vec::with_capacity(layout.num_groups());
        let mut bin_base = vec![0];
        let mut bytes = 0;
        for (g, info) in layout.groups.iter().enumerate() {
            bin_of_group.push((bin_base.len() - 1) as u32);
            let cells = info.rows as usize * width;
            bytes += cells * T::SIZE + width * COLUMN_META_BYTES;
            if bytes >= BIN_BYTES || g + 1 == layout.num_groups() {
                bin_base.push(info.cell_offset + cells);
                bytes = 0;
            }
        }
        Staging {
            bin_of_group,
            bin_base,
            lanes: Vec::new(),
            active: 0,
            owner: Vec::new(),
            order: Vec::new(),
            bin_order: Vec::new(),
            staged: 0,
        }
    }

    /// The bin group `group` drains in.
    pub(crate) fn bin_of_group(&self, group: usize) -> u32 {
        self.bin_of_group[group]
    }

    /// Number of bins.
    pub(crate) fn num_bins(&self) -> usize {
        self.bin_base.len() - 1
    }

    /// Staging round over work chunks `0..chunks` on `threads` host
    /// threads: `work(tid, stager)` runs once per thread and stages the
    /// chunks it takes, each between [`Stager::open`] and
    /// [`Stager::close`]. Every chunk must be staged by exactly one thread.
    /// Returns the threads' results in thread-id order; [`Staging::drain`]
    /// then inserts what they staged.
    pub(crate) fn stage<R, F>(
        &mut self,
        csb: &Csb<T>,
        threads: usize,
        chunks: usize,
        work: F,
    ) -> Vec<R>
    where
        F: Fn(usize, &mut Stager<'_, T>) -> R + Sync,
        R: Send,
    {
        let threads = threads.max(1);
        while self.lanes.len() < threads {
            self.lanes.push(Lane::new(self.bin_base[self.num_bins()]));
        }
        for lane in &mut self.lanes[..threads] {
            lane.reset(&self.bin_base);
        }
        let bin_of_group = &self.bin_of_group;
        let lanes = SharedSlice::new(&mut self.lanes[..threads]);
        let out = run_parallel_collect(threads, |tid| {
            let mut stager = Stager {
                csb,
                bin_of_group,
                // SAFETY: thread `tid` is the only user of lane `tid`.
                lane: unsafe { lanes.get_mut(tid) },
                chunk: NO_CHUNK,
                first_seg: 0,
            };
            work(tid, &mut stager)
        });
        self.active = threads;
        self.order_segments(chunks);
        out
    }

    /// `(thread, index among that thread's chunks)` of every chunk of the
    /// last staging round, in chunk order.
    pub(crate) fn chunk_order(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.owner.iter().map(|&(l, m)| (l as usize, m as usize))
    }

    /// Group every staged segment by bin, in chunk order within a bin (a
    /// stable counting sort over the chunk-ordered segment list).
    fn order_segments(&mut self, chunks: usize) {
        let lanes = &self.lanes[..self.active];
        self.owner.clear();
        self.owner.resize(chunks, (u32::MAX, 0));
        for (l, lane) in lanes.iter().enumerate() {
            for (m, &(chunk, _)) in lane.marks.iter().enumerate() {
                self.owner[chunk as usize] = (l as u32, m as u32);
            }
        }
        debug_assert!(
            self.owner.iter().all(|&(l, _)| l != u32::MAX),
            "every chunk is staged once"
        );
        let bins = self.num_bins();
        self.bin_order.clear();
        self.bin_order.resize(bins + 1, 0);
        self.staged = 0;
        for seg in lanes.iter().flat_map(|lane| &lane.segs) {
            self.bin_order[seg.bin as usize + 1] += 1;
            self.staged += seg.end - seg.start;
        }
        for b in 0..bins {
            self.bin_order[b + 1] += self.bin_order[b];
        }
        self.order.clear();
        self.order.resize(self.bin_order[bins], (0, 0));
        let mut next = self.bin_order[..bins].to_vec();
        for &(l, m) in &self.owner {
            let lane = &lanes[l as usize];
            let first = if m == 0 {
                0
            } else {
                lane.marks[m as usize - 1].1
            };
            for s in first..lane.marks[m as usize].1 {
                let bin = lane.segs[s as usize].bin as usize;
                self.order[next[bin]] = (l, s);
                next[bin] += 1;
            }
        }
    }

    /// Drain the last staging round into `csb` on up to `threads` threads
    /// (fewer for a small round), each taking bins dynamically and
    /// recording one [`Phase::Insert`] span for superstep `step` on
    /// `tracer(tid)`.
    ///
    /// # Panics
    /// Panics with the [`CsbInsertError::OverCapacity`] text if a vertex
    /// received more messages than its column holds: the first such
    /// message in bin order, whatever the thread count.
    pub(crate) fn drain(
        &self,
        csb: &Csb<T>,
        threads: usize,
        tracer: impl Fn(usize) -> ThreadTracer + Sync,
        step: u32,
    ) {
        let bins = self.num_bins();
        let sched = ChunkScheduler::new(bins, 1);
        let threads = threads
            .min(bins)
            .min(self.staged.div_ceil(DRAIN_MSGS_PER_THREAD))
            .max(1);
        let firsts = run_parallel_collect(threads, |tid| {
            let tracer = tracer(tid);
            let _insert = tracer.span(Phase::Insert, step);
            while let Some(batch) = sched.next_batch() {
                for b in batch {
                    if let Err(e) = self.drain_bin(csb, b) {
                        return Some((b, e));
                    }
                }
            }
            None
        });
        // Bins are handed out in increasing order, so every bin below the
        // lowest failing one has drained: that failure is the first one.
        if let Some((_, e)) = firsts.into_iter().flatten().min_by_key(|&(b, _)| b) {
            panic!("{e}");
        }
        if let Some(dst) = self.lanes[..self.active].iter().find_map(|l| l.overflow) {
            // A lane filled its bin's region and every column in the bin
            // came out exactly full: the dropped message is the overflow.
            let pos = csb.layout.position[dst as usize];
            let capacity = csb.layout.groups[csb.layout.group_of(pos)].rows;
            panic!("{}", CsbInsertError::OverCapacity { dst, capacity });
        }
    }

    /// Insert the `len` messages `msg(0)..msg(len - 1)`: stage them in
    /// work chunks of [`STREAM_CHUNK`] on up to `threads` host threads,
    /// then drain them. Each column appends its messages in stream order.
    ///
    /// # Panics
    /// As [`Stager::stage`] and [`Staging::drain`] do.
    pub(crate) fn insert_stream(
        &mut self,
        csb: &Csb<T>,
        threads: usize,
        len: usize,
        msg: impl Fn(usize) -> (VertexId, T) + Sync,
    ) {
        let chunks = len.div_ceil(STREAM_CHUNK);
        let sched = ChunkScheduler::new(chunks, 1);
        let threads = threads.min(chunks).max(1);
        self.stage(csb, threads, chunks, |_, stager| {
            while let Some(batch) = sched.next_batch() {
                for c in batch {
                    stager.open(c);
                    for i in c * STREAM_CHUNK..((c + 1) * STREAM_CHUNK).min(len) {
                        let (dst, value) = msg(i);
                        stager.stage(dst, value);
                    }
                    stager.close();
                }
            }
        });
        self.drain(csb, threads, |_| ThreadTracer::disabled(), 0);
    }

    fn drain_bin(&self, csb: &Csb<T>, bin: usize) -> Result<(), CsbInsertError> {
        for &(l, s) in &self.order[self.bin_order[bin]..self.bin_order[bin + 1]] {
            let lane = &self.lanes[l as usize];
            // SAFETY: the scheduler hands bin `bin` — a run of whole groups —
            // to this thread alone, and every staged position was resolved
            // against this buffer's redirection map.
            unsafe { csb.insert_owned(lane.staged(lane.segs[s as usize]))? };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csb::ColumnMode;
    use phigraph_graph::generators::small::{paper_example, paper_table1_messages};

    fn paper_csb(mode: ColumnMode) -> Csb<f32> {
        let g = paper_example();
        let owned: Vec<VertexId> = (0..16).collect();
        Csb::new(CsbLayout::build(16, &owned, &g.in_degrees(), 4, 2), mode)
    }

    fn table1() -> Vec<(VertexId, f32)> {
        paper_table1_messages()
            .into_iter()
            .map(|(src, dst)| (dst, src as f32))
            .collect()
    }

    /// Stage and drain `msgs` into `csb` on `threads` host threads.
    fn stage_drain(csb: &Csb<f32>, msgs: &[(VertexId, f32)], threads: usize) {
        Staging::new(&csb.layout).insert_stream(csb, threads, msgs.len(), |i| msgs[i]);
    }

    #[test]
    fn staged_drain_matches_per_message_insert() {
        let msgs = table1();
        for mode in [ColumnMode::Dynamic, ColumnMode::OneToOne] {
            let mut a = paper_csb(mode);
            for &(dst, v) in &msgs {
                a.insert(dst, v).unwrap();
            }
            let b = paper_csb(mode);
            stage_drain(&b, &msgs, 2);
            assert_eq!(a.insert_stats(), b.insert_stats(), "{mode:?}");
            // The same columns, bound to the same positions, holding the
            // same values in the same rows.
            for g in 0..a.layout.num_groups() {
                assert_eq!(a.used_columns(g), b.used_columns(g));
                for c in 0..a.used_columns(g) {
                    assert_eq!(a.column_position(g, c), b.column_position(g, c));
                    assert_eq!(a.column_count(g, c), b.column_count(g, c));
                    for r in 0..a.column_count(g, c) as usize {
                        assert_eq!(a.cell(g, r, c).to_bits(), b.cell(g, r, c).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn staged_drain_audit_matches_per_message_audit() {
        let msgs = table1();
        let mut a = paper_csb(ColumnMode::Dynamic);
        let b = paper_csb(ColumnMode::Dynamic);
        a.set_audit(true);
        b.set_audit(true);
        for &(dst, v) in &msgs {
            a.insert(dst, v).unwrap();
        }
        stage_drain(&b, &msgs, 2);
        assert_eq!(a.audit_groups(), Vec::<usize>::new());
        assert_eq!(b.audit_groups(), Vec::<usize>::new());
        // Corrupting a staged buffer is caught like an inserted one.
        let g = b.corrupt_cell(3).expect("buffer has messages");
        assert_eq!(b.audit_groups(), vec![g]);
    }

    #[test]
    fn concurrent_staging_is_exact() {
        // A hot-column stress: 8 threads stage a star graph's center.
        let n = 64usize;
        let owned: Vec<VertexId> = (0..n as u32).collect();
        let mut cap = vec![4u32; n];
        cap[0] = 8000; // center can take every message
        let csb = Csb::<f32>::new(CsbLayout::build(n, &owned, &cap, 4, 2), ColumnMode::Dynamic);
        let msgs: Vec<(VertexId, f32)> = (0..8000).map(|i| (0, i as f32)).collect();
        stage_drain(&csb, &msgs, 8);
        let (profile, occupied, _) = csb.insert_stats();
        assert_eq!(profile.total, 8000);
        assert_eq!(profile.max_column, 8000);
        assert_eq!(occupied, 1);
        // Every value is present exactly once, in stream order.
        let pos = csb.layout.position[0];
        let g = csb.layout.group_of(pos);
        let col = (0..csb.used_columns(g))
            .find(|&c| csb.column_position(g, c) == Some(pos))
            .unwrap();
        for r in 0..8000 {
            assert_eq!(csb.cell(g, r, col), r as f32);
        }
    }

    #[test]
    #[should_panic(expected = "more than its capacity")]
    fn staged_drain_over_capacity_panics() {
        let csb = paper_csb(ColumnMode::Dynamic);
        // Vertex 5 has capacity 5; six messages overflow its column.
        let msgs: Vec<(VertexId, f32)> = (0..6).map(|i| (5, i as f32)).collect();
        stage_drain(&csb, &msgs, 1);
    }
}
