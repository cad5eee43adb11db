//! The Condensed Static Buffer (CSB) — §IV.B/C of the paper.
//!
//! Messages are stored in pre-allocated aligned vector arrays so that the
//! processing step can reduce one message for each of `w/msg_size` vertices
//! per SIMD instruction, while keeping memory low on the 8 GB MIC:
//!
//! 1. vertices are sorted by in-degree, descending ([`layout`] — the
//!    *redirection map*);
//! 2. sorted vertices are grouped into *vertex groups* of `k × lanes`
//!    vertices; each group gets `k` aligned vector arrays of length equal
//!    to the group's maximum in-degree — grouping similar in-degrees
//!    together is what makes the buffer *condensed*;
//! 3. message insertion ([`buffer`]) maps a destination to a column either
//!    one-to-one or by *dynamic column allocation* (an index array and a
//!    column offset per group), which packs occupied columns to the front
//!    so SIMD lanes are not wasted on message-less vertices (Fig. 3);
//! 4. message processing ([`process`]) reduces each vector array row-wise
//!    with the program's operator, lane-parallel, after filling bubble
//!    cells with the operator identity.
//!
//! The engine's host path, which every framework mode shares, fills the
//! buffer, or derives what it would hold, one of three ways, each ending
//! with the column state that inserting the step's messages with
//! [`Csb::insert`] in source order, then the peers' in incoming order,
//! leaves:
//!
//! * on an engine without peers, from its first dense superstep (every
//!   owned vertex active and broadcasting one value along its out-edges)
//!   up to its first superstep that does not gather, in gather form
//!   (`gather`): at the first dense step the cell each out-edge's message
//!   would land in is replayed once and inverted into a table of each
//!   cell's sender, and the column metadata the replay leaves stays in the
//!   buffer; generation then keeps one value per sender, and processing
//!   gathers `sent[sender[cell]]` in the row order it reduces the buffer
//!   in;
//! * on any other superstep, one frontier walk on the calling thread
//!   generates the active vertices in source order into one of two sinks:
//!   - a mailbox (`mailbox`), which folds each message on arrival into its
//!     destination's slot, with the remote absorb folding after it, and
//!     derives the column binding, insertion statistics and processing
//!     records from the per-destination counts, with no cell written;
//!   - the buffer itself, under the message audit and while a message
//!     bit-flip fault is pending (both act on the cells): each message is
//!     inserted into its column on arrival, and the remote absorb inserts
//!     after them.

pub mod buffer;
pub(crate) mod gather;
pub mod layout;
pub(crate) mod mailbox;
pub mod process;

pub use buffer::{ColumnMode, Csb, CsbInsertError};
pub use layout::{CsbLayout, GroupInfo, NOT_OWNED};
