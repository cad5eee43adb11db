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
//! * **Build.** At an engine's first dense step, [`DenseTable::build`]
//!   replays that sequence once through [`Csb::claim_owned`] — the cell
//!   claim of [`Csb::insert`] — and inverts it into a sender table: for
//!   each buffer cell (4 B), the owned vertex whose out-edge fills it, or a
//!   bubble mark (one past the last owned vertex) for a bubble and for a
//!   row the remote absorb appends. It keeps the column state the replay
//!   leaves (counts, bindings and column offsets) and the cells a reset of
//!   that state touches.
//! * **Generate.** Each owned vertex generates through a [`GatherSink`],
//!   which keeps the vertex's one value and checks every send: it must go
//!   to the vertex's next out-edge and carry the bits of its first send.
//!   Peer-bound sends still fill the remote batch, in send order. No cell
//!   is written. After the generation barrier
//!   the engine installs the column state ([`Csb::install`]) unless the
//!   buffer still holds it from the step before, and the remote absorb
//!   appends behind it as usual.
//! * **Process.** Each vector array is reduced by gathering
//!   `sent[sender[cell]]` lane by lane, in the order the buffer's own
//!   reduction takes its rows ([`super::process`]). The bubble mark indexes
//!   one more entry of `sent`, which holds the reduction's identity; rows
//!   the absorb appended are read from the buffer.
//! * **Fall back.** A vertex that does anything but send one value along
//!   exactly its out-edges in CSR order (fewer, more, another order,
//!   another destination, another value) fails the check. The engine then
//!   drops the step's values, re-runs the step through the frontier walk
//!   (generation is pure) and never gathers again.
//!
//! The column state, the step counters, the remote batch and every reduced
//! message come out exactly as inserting every message into the buffer
//! in source order leaves them.

use super::buffer::{ColumnState, Csb};
use crate::api::MsgSink;
use crate::util::SharedSlice;
use phigraph_comm::WireMsg;
use phigraph_graph::{Csr, VertexId};
use phigraph_simd::MsgValue;
use std::ops::Range;

/// The sender table of one engine's dense steps.
pub(crate) struct DenseTable {
    /// Per buffer cell: the index in `owned` of the vertex whose out-edge
    /// fills it, or `owned.len()` (the bubble mark).
    senders: Vec<u32>,
    /// The column metadata the replayed insertions leave.
    columns: ColumnState,
    /// The cells [`Csb::reset`] touches on a buffer holding `columns`.
    reset_cells: u64,
}

impl DenseTable {
    /// Replay the dense step's one-thread insertion sequence on `csb`:
    /// every out-edge of `owned` (ascending) in CSR order, where
    /// `is_local(dst)` tells an owned destination from a peer's. Returns
    /// `None` when the out-edges overflow some column or the bubble mark
    /// does not fit the table.
    ///
    /// `csb` must be freshly reset with its audit off; it is reset again on
    /// return.
    pub(crate) fn build<T: MsgValue>(
        csb: &mut Csb<T>,
        graph: &Csr,
        owned: &[VertexId],
        is_local: impl Fn(VertexId) -> bool,
    ) -> Option<Self> {
        let bubble = u32::try_from(owned.len()).ok()?;
        let mut senders = vec![bubble; csb.total_cells()];
        let mut fits = true;
        'replay: for (i, &v) in owned.iter().enumerate() {
            for &dst in &graph.targets[graph.edge_range(v)] {
                if !is_local(dst) {
                    continue;
                }
                match csb.resolve(dst).and_then(|pos| csb.claim_owned(pos)) {
                    Ok(c) => senders[c] = i as u32,
                    Err(_) => {
                        fits = false;
                        break 'replay;
                    }
                }
            }
        }
        let columns = csb.column_state();
        let reset_cells = csb.reset();
        fits.then_some(DenseTable {
            senders,
            columns,
            reset_cells,
        })
    }

    /// The column metadata a dense step leaves, for [`Csb::install`].
    pub(crate) fn columns(&self) -> &ColumnState {
        &self.columns
    }

    /// The cells a reset of a buffer holding [`DenseTable::columns`], and
    /// nothing else, touches.
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
/// one value and collects the peer-bound messages.
pub(crate) struct GatherSink<'a, T: MsgValue> {
    targets: &'a [VertexId],
    /// The vertex→rank map and this rank (`None`: every vertex is local).
    assign: Option<&'a [u8]>,
    dev: u8,
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
    /// Peer-bound messages, in send order.
    pub(crate) remote: Vec<WireMsg<T>>,
}

impl<'a, T: MsgValue> GatherSink<'a, T> {
    /// A generating thread's sink storing into `sent`.
    ///
    /// # Safety
    /// Within one generation phase each owned vertex may be started on one
    /// sink only, and nothing else may access its entry of `sent` until
    /// the phase ends.
    pub(crate) unsafe fn new(
        graph: &'a Csr,
        assign: Option<&'a [u8]>,
        dev: u8,
        sent: &'a SharedSlice<'a, T>,
    ) -> Self {
        GatherSink {
            targets: &graph.targets,
            assign,
            dev,
            sent,
            src: 0,
            edges: 0..0,
            edge: 0,
            first: T::ZERO,
            deviated: false,
            remote: Vec::new(),
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
        if self.assign.is_some_and(|a| a[dst as usize] != self.dev) {
            self.remote.push(WireMsg { dst, value: msg });
        }
        self.edge += 1;
    }
}
