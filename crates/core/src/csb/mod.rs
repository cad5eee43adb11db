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
//! The locking engine (and the flat baseline on its host path) fills the
//! buffer one of two ways, both leaving exactly the buffer a one-thread
//! run of [`Csb::insert`] calls in source order leaves:
//!
//! * on a dense superstep, one where every owned vertex is active, through
//!   static slots (`slots`): each message is written straight into the
//!   cell fixed for its out-edge at the engine's first dense step, and the
//!   column metadata that step's replay computed is installed after the
//!   generation barrier;
//! * on every other superstep, for the remote absorb, under the message
//!   audit and once a vertex has left its out-edge order, by
//!   stage-and-drain (`stage`): threads stage messages per run of groups
//!   while generating, and each run is then drained by one owning thread,
//!   in source order.

pub mod buffer;
pub mod layout;
pub mod process;
pub(crate) mod slots;
pub(crate) mod stage;

pub use buffer::{ColumnMode, Csb, CsbInsertError};
pub use layout::{CsbLayout, GroupInfo, NOT_OWNED};
