//! Static slots: how the locking engine fills the buffer on a dense
//! superstep, one in which every owned vertex is active.
//!
//! The paper's one-to-one mapping (Fig. 3a) fixes each vertex's column in
//! advance. On a dense step the whole insertion is fixed in advance: when
//! every owned vertex sends one message along each out-edge, in CSR order,
//! the one-thread [`Csb::insert`] sequence is the same every step —
//! ascending source, then CSR order, the order `seq` folds in. So is the
//! cell each message lands in, and so is the column metadata the sequence
//! leaves behind.
//!
//! * **Build.** At an engine's first dense step, [`DenseSlots::build`]
//!   replays that sequence once through [`Csb::claim_owned`] — the cell
//!   claim of the stage-and-drain drain — and keeps the cell of every
//!   out-edge of an owned source (4 B each; peer-bound edges get a remote
//!   mark) plus the column state the replay leaves: counts, bindings and
//!   column offsets.
//! * **Write.** Generation writes each message straight into its edge's
//!   cell through a [`SlotSink`]: no staging, no drain, no column
//!   allocation, no atomics. Every cell has one writer, so any thread order
//!   leaves the same buffer. After the generation barrier the engine
//!   installs the column state ([`Csb::install`]), and the remote absorb
//!   appends behind it as usual.
//! * **Fall back.** A vertex that sends anything but exactly its out-edges
//!   in CSR order (fewer, more, another order, another destination) marks
//!   its sink as deviated. The engine then drops the step's writes, which
//!   the column state never covered, re-runs the step through
//!   stage-and-drain (generation is pure) and stays there.
//!
//! The buffer, the step counters and the remote batch come out exactly as
//! stage-and-drain leaves them ([`super::stage`]).

use super::buffer::{ColumnState, Csb};
use crate::api::MsgSink;
use phigraph_comm::WireMsg;
use phigraph_graph::{Csr, VertexId};
use phigraph_simd::MsgValue;
use std::ops::Range;

/// Cell mark of an out-edge whose destination a peer rank owns.
const REMOTE: u32 = u32::MAX;

/// The fixed cells of one engine's dense steps.
pub(crate) struct DenseSlots {
    /// The cell of every out-edge of an owned source, in ascending source,
    /// then CSR order; [`REMOTE`] for a peer-bound edge.
    cells: Vec<u32>,
    /// Per generation chunk: the index in `cells` of its first out-edge.
    chunk_base: Vec<usize>,
    /// The column metadata the replayed insertions leave.
    columns: ColumnState,
}

impl DenseSlots {
    /// Replay the dense step's one-thread insertion sequence on `csb`:
    /// every out-edge of `owned` (ascending) in CSR order, where
    /// `is_local(dst)` tells an owned destination from a peer's. `chunks`
    /// are the generation chunks, consecutive runs of `owned` from its
    /// first vertex. Returns `None` when the out-edges overflow some
    /// column or a cell index does not fit the table.
    ///
    /// `csb` must be freshly reset with its audit off, and no other thread
    /// may use it for the call; it is reset again on return.
    pub(crate) fn build<T: MsgValue>(
        csb: &Csb<T>,
        graph: &Csr,
        owned: &[VertexId],
        chunks: &[Range<usize>],
        is_local: impl Fn(VertexId) -> bool,
    ) -> Option<Self> {
        let edges = owned.iter().map(|&v| graph.out_degree(v)).sum();
        let mut cells = Vec::with_capacity(edges);
        let mut chunk_base = Vec::with_capacity(chunks.len());
        let (mut fits, mut next) = (true, 0);
        'replay: for r in chunks {
            debug_assert_eq!(r.start, next, "chunks run consecutively");
            next = r.end;
            chunk_base.push(cells.len());
            for &v in &owned[r.clone()] {
                for &dst in &graph.targets[graph.edge_range(v)] {
                    if !is_local(dst) {
                        cells.push(REMOTE);
                        continue;
                    }
                    let cell = csb.resolve(dst).ok().and_then(|pos| {
                        // SAFETY: an owned position; the caller keeps other
                        // threads out of the buffer.
                        unsafe { csb.claim_owned(pos) }.ok()
                    });
                    match cell
                        .and_then(|c| u32::try_from(c).ok())
                        .filter(|&c| c != REMOTE)
                    {
                        Some(c) => cells.push(c),
                        None => {
                            fits = false;
                            break 'replay;
                        }
                    }
                }
            }
        }
        let columns = csb.column_state();
        csb.reset();
        fits.then_some(DenseSlots {
            cells,
            chunk_base,
            columns,
        })
    }

    /// The column metadata a dense step leaves, for [`Csb::install`].
    pub(crate) fn columns(&self) -> &ColumnState {
        &self.columns
    }

    /// A generating thread's sink over `csb`.
    ///
    /// # Safety
    /// `csb` is the buffer the slots were built on. Within one generation
    /// phase each chunk may be opened by one sink only, after
    /// [`SlotSink::open`] the sink is started on the out-edges of that
    /// chunk's vertices in order, and nothing else may access the buffer's
    /// cells until the phase ends.
    pub(crate) unsafe fn sink<'a, T: MsgValue>(
        &'a self,
        csb: &'a Csb<T>,
        graph: &'a Csr,
    ) -> SlotSink<'a, T> {
        SlotSink {
            csb,
            targets: &graph.targets,
            cells: &self.cells,
            chunk_base: &self.chunk_base,
            slot: 0,
            edge: 0,
            end: 0,
            deviated: false,
            remote: Vec::new(),
        }
    }
}

/// One generating thread's sink on a dense step: each message goes to its
/// out-edge's cell, or to the peer-bound batch.
pub(crate) struct SlotSink<'a, T: MsgValue> {
    csb: &'a Csb<T>,
    targets: &'a [VertexId],
    /// [`DenseSlots::cells`] and [`DenseSlots::chunk_base`].
    cells: &'a [u32],
    chunk_base: &'a [usize],
    /// Index in `cells` of the next out-edge.
    slot: usize,
    /// The next expected out-edge of the current source, and the end of
    /// its out-edges.
    edge: usize,
    end: usize,
    /// Whether a send left the out-edge order.
    deviated: bool,
    /// Peer-bound messages, in send order.
    pub(crate) remote: Vec<WireMsg<T>>,
}

impl<'a, T: MsgValue> SlotSink<'a, T> {
    /// Start generation chunk `chunk`.
    pub(crate) fn open(&mut self, chunk: usize) {
        self.slot = self.chunk_base[chunk];
    }

    /// Start the next source of the open chunk; `edges` are its out-edges.
    #[inline(always)]
    pub(crate) fn start(&mut self, edges: Range<usize>) {
        self.edge = edges.start;
        self.end = edges.end;
    }

    /// Whether the current source sent exactly its out-edges, in order.
    #[inline(always)]
    pub(crate) fn finished(&self) -> bool {
        !self.deviated && self.edge == self.end
    }
}

impl<'a, T: MsgValue> MsgSink<T> for SlotSink<'a, T> {
    #[inline(always)]
    fn send(&mut self, dst: VertexId, msg: T) {
        if self.edge == self.end || self.targets[self.edge] != dst {
            self.deviated = true;
            return;
        }
        match self.cells[self.slot] {
            REMOTE => self.remote.push(WireMsg { dst, value: msg }),
            // SAFETY: the replay gave each out-edge its own cell inside the
            // buffer, and `DenseSlots::sink`'s contract gives this sink the
            // only access to the open chunk's out-edges.
            cell => unsafe { self.csb.write_cell(cell as usize, msg) },
        }
        self.edge += 1;
        self.slot += 1;
    }
}
