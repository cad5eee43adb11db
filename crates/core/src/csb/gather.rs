//! Gather-form dense supersteps: how the engine's host path runs a
//! superstep in which every owned vertex is active.
//!
//! The paper's one-to-one mapping (Fig. 3a) fixes each vertex's column in
//! advance. On a dense step the whole insertion is fixed in advance: when
//! every owned vertex sends one message along each out-edge, in CSR order,
//! the one-thread [`Csb::insert`] sequence is the same every step —
//! ascending source, then CSR order, the order `seq` folds in. So is the
//! cell each message lands in, and so is the column metadata the sequence
//! leaves behind. When every vertex also sends one value along all its
//! out-edges (it broadcasts, as PageRank does), each cell holds its
//! sender's value, so the buffer need not hold messages at all: it can hold
//! senders.
//!
//! The table is built only on an engine without peers: on a rank with
//! peers the remote absorb appends their messages behind the local rows
//! every step, so its steps fold on arrival instead.
//!
//! * **Build.** At an engine's first dense step, [`DenseTable::build`]
//!   replays that sequence once through [`Csb::claim_owned`] — the cell
//!   claim of [`Csb::insert`] — and inverts it into a sender table: for
//!   each buffer cell (4 B), the owned vertex whose out-edge fills it, or a
//!   bubble mark (one past the last owned vertex). The column state the
//!   replay leaves (counts, bindings and column offsets) stays in the
//!   buffer, and the table keeps the cells a reset of it touches.
//! * **Generate.** Each owned vertex generates through a [`GatherSink`],
//!   which keeps the vertex's one value and checks every send: it must go
//!   to the vertex's next out-edge and carry the bits of its first send.
//!   No cell is written, and the column state is already in place.
//! * **Process.** Each vector array is reduced by gathering
//!   `sent[sender[cell]]` lane by lane, in the order the buffer's own
//!   reduction takes its rows ([`super::process`]). The bubble mark indexes
//!   one more entry of `sent`, which holds the reduction's identity.
//! * **Stop.** The first step that does not gather — one that is not
//!   dense, runs under the message audit or with a message bit-flip
//!   pending, or in which a vertex does anything but send one value along
//!   exactly its out-edges in CSR order (fewer, more, another order,
//!   another destination, another value) — resets the buffer, and the
//!   engine never gathers again. A vertex that fails the check has the
//!   step's values dropped and the step re-run through the frontier walk
//!   (generation is pure).
//!
//! The column state, the step counters and every reduced message come out
//! exactly as inserting every message into the buffer in source order
//! leaves them.

use super::buffer::{ColumnMode, Csb};
use crate::api::MsgSink;
use crate::util::SharedSlice;
use phigraph_graph::{Csr, VertexId};
use phigraph_simd::MsgValue;
use std::ops::Range;

/// The sender table of one engine's dense steps.
pub(crate) struct DenseTable {
    /// Per buffer cell: the index in `owned` of the vertex whose out-edge
    /// fills it, or `owned.len()` (the bubble mark).
    senders: Vec<u32>,
    /// The cells [`Csb::reset`] touches on a buffer holding the replayed
    /// column state.
    reset_cells: u64,
}

impl DenseTable {
    /// Replay the dense step's one-thread insertion sequence on `csb`:
    /// every out-edge of `owned` (ascending, every vertex `csb` owns) in
    /// CSR order. Returns `None` when the out-edges overflow some column or
    /// the bubble mark does not fit the table.
    ///
    /// `csb` must be empty with its audit off. It keeps the replayed column
    /// state, or is reset again when the replay fails.
    pub(crate) fn build<T: MsgValue>(
        csb: &mut Csb<T>,
        graph: &Csr,
        owned: &[VertexId],
    ) -> Option<Self> {
        let bubble = u32::try_from(owned.len()).ok()?;
        let mut senders = vec![bubble; csb.total_cells()];
        for (i, &v) in owned.iter().enumerate() {
            for &dst in &graph.targets[graph.edge_range(v)] {
                match csb.resolve(dst).and_then(|pos| csb.claim_owned(pos)) {
                    Ok(cell) => senders[cell] = i as u32,
                    Err(_) => {
                        csb.reset();
                        return None;
                    }
                }
            }
        }
        // What a reset touches: three cells per bound column in dynamic
        // mode, one per occupied column in one-to-one mode.
        let (_, occupied, allocs) = csb.insert_stats();
        let reset_cells = match csb.mode {
            ColumnMode::Dynamic => 3 * allocs,
            ColumnMode::OneToOne => occupied,
        };
        Some(DenseTable {
            senders,
            reset_cells,
        })
    }

    /// The cells a reset of a buffer holding the replayed column state,
    /// and nothing else, touches.
    pub(crate) fn reset_cells(&self) -> u64 {
        self.reset_cells
    }

    /// Per buffer cell, the index in `owned` of its sender, or the bubble
    /// mark `owned.len()`.
    pub(crate) fn senders(&self) -> &[u32] {
        &self.senders
    }
}

/// One generating thread's sink on a dense step: it keeps each source's
/// one value.
pub(crate) struct GatherSink<'a, T: MsgValue> {
    targets: &'a [VertexId],
    /// One value per owned vertex, indexed like `owned`.
    sent: &'a SharedSlice<'a, T>,
    /// The current source's index in `owned`, its out-edges and the next
    /// expected one.
    src: usize,
    edges: Range<usize>,
    edge: usize,
    /// The current source's first send.
    first: T,
    /// Whether a send left the broadcast.
    deviated: bool,
}

impl<'a, T: MsgValue> GatherSink<'a, T> {
    /// A generating thread's sink storing into `sent`.
    ///
    /// # Safety
    /// Within one generation phase each owned vertex may be started on one
    /// sink only, and nothing else may access its entry of `sent` until
    /// the phase ends.
    pub(crate) unsafe fn new(graph: &'a Csr, sent: &'a SharedSlice<'a, T>) -> Self {
        GatherSink {
            targets: &graph.targets,
            sent,
            src: 0,
            edges: 0..0,
            edge: 0,
            first: T::ZERO,
            deviated: false,
        }
    }

    /// Start source `src` (its index in `owned`), whose out-edges are
    /// `edges`.
    #[inline(always)]
    pub(crate) fn start(&mut self, src: usize, edges: Range<usize>) {
        self.src = src;
        self.edge = edges.start;
        self.edges = edges;
    }

    /// Whether the current source broadcast: one value along exactly its
    /// out-edges, in order. If it did, its value is kept.
    #[inline(always)]
    pub(crate) fn finish(&mut self) -> bool {
        if self.deviated || self.edge != self.edges.end {
            return false;
        }
        if !self.edges.is_empty() {
            // SAFETY: `new`'s contract gives this sink the only access to
            // the entry of the source it started.
            unsafe { self.sent.write(self.src, self.first) };
        }
        true
    }
}

impl<'a, T: MsgValue> MsgSink<T> for GatherSink<'a, T> {
    #[inline(always)]
    fn send(&mut self, dst: VertexId, msg: T) {
        if self.edge == self.edges.end || self.targets[self.edge] != dst {
            self.deviated = true;
            return;
        }
        if self.edge == self.edges.start {
            self.first = msg;
        } else if !msg.same_bits(self.first) {
            self.deviated = true;
            return;
        }
        self.edge += 1;
    }
}
