//! Message insertion into the condensed static buffer.
//!
//! Two column-mapping strategies from §IV.C / Figure 3:
//!
//! * [`ColumnMode::OneToOne`] — "a pre-determined mapping between the
//!   vertices and the columns": position `p` always uses column
//!   `p mod width` of its group. Simple, but leaves SIMD lanes idle when
//!   few vertices of a group receive messages (Fig. 3a).
//! * [`ColumnMode::Dynamic`] — *dynamic column allocation*: an index array
//!   (one entry per position, reset to −1 each iteration) plus a column
//!   offset per group; the first message for a vertex claims the next free
//!   column under the group's allocation lock (Fig. 3b). Occupied columns
//!   are condensed to the front, so "i (i < k) loop(s) of instructions may
//!   process all the vertices in the vertex-group".
//!
//! The paper claims each message's cell under a per-column lock. On the
//! host one thread fills the buffer: [`Csb::insert`] claims the next cell
//! of the destination's column behind `&mut self`, advancing its cursor,
//! index entry and column offset, and the cost model still charges the
//! locks. The column metadata is plain integers, written only through
//! `&mut self`; processing reads it through `&self` on the host threads.
//! The engine's buffer steps insert each local message on arrival, in
//! source order, then the peers' messages in incoming order; quarantine
//! regeneration inserts through it too. On a gather-form dense superstep
//! no message is written at all: at the engine's first dense step the cell
//! each out-edge's message would take is claimed once and turned into a
//! table of each cell's sender, and the column metadata those claims leave
//! stays in the buffer until the first step that does not gather resets
//! it.

use super::layout::{CsbLayout, NOT_OWNED};
use phigraph_device::counters::InsertProfile;
use phigraph_graph::{SplitMix64, VertexId};
use phigraph_recover::integrity::message_digest;
use phigraph_simd::{AVec, MsgValue};

/// Why an insertion was rejected. [`Csb::insert`] returns it, and the
/// engine panics with its text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsbInsertError {
    /// Destination id is outside the graph's vertex range entirely — a
    /// corrupt destination that would otherwise index the redirection map
    /// out of bounds.
    OutOfRange {
        /// The offending destination id.
        dst: VertexId,
        /// Number of vertices the redirection map covers.
        vertices: usize,
    },
    /// Destination is a real vertex but not owned by this device's buffer.
    NotOwned {
        /// The offending destination id.
        dst: VertexId,
    },
    /// The destination vertex received more messages than its declared
    /// capacity; the message is not written.
    OverCapacity {
        /// The offending destination id.
        dst: VertexId,
        /// The vertex's declared row capacity.
        capacity: u32,
    },
}

impl std::fmt::Display for CsbInsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsbInsertError::OutOfRange { dst, vertices } => write!(
                f,
                "message for out-of-range vertex {dst} (graph has {vertices} vertices)"
            ),
            CsbInsertError::NotOwned { dst } => {
                write!(f, "message for non-owned vertex {dst}")
            }
            CsbInsertError::OverCapacity { dst, capacity } => write!(
                f,
                "vertex {dst} received more than its capacity {capacity} messages"
            ),
        }
    }
}

impl std::error::Error for CsbInsertError {}

/// Column-mapping strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnMode {
    /// Fixed position→column mapping (Fig. 3a).
    OneToOne,
    /// Dynamic column allocation with index array + column offset (Fig. 3b).
    Dynamic,
}

/// Sentinel: column not yet bound to a position.
const COL_EMPTY: u32 = u32::MAX;

/// The condensed static buffer for message type `T`.
pub struct Csb<T: MsgValue> {
    /// The static layout (sort order, groups, redirection map).
    pub layout: CsbLayout,
    /// Column mapping strategy.
    pub mode: ColumnMode,
    data: AVec<T>,
    /// Messages inserted per global column (the insertion cursor).
    col_count: Vec<u32>,
    /// Position served by each global column this iteration.
    col_pos: Vec<u32>,
    /// Per-position allocated column-in-group, or −1 (the index array).
    index: Vec<i32>,
    /// Per-group next free column (the column offset).
    group_next: Vec<u32>,
    /// Integrity kill switch: when false (the default) no checksum work
    /// happens anywhere on the insertion path — one branch per insert, so
    /// the disabled path stays bit-identical and near-zero-cost.
    audit: bool,
    /// Per-group commutative message checksum: the `wrapping_add` fold of
    /// [`message_digest`] over every message inserted into the group since
    /// the last reset. Order-independent, so the audit can recompute it
    /// from the cells column by column.
    group_sums: Vec<u64>,
}

impl<T: MsgValue> Csb<T> {
    /// Allocate the buffer for `layout` (done once, before any iteration —
    /// the *static* in CSB).
    pub fn new(layout: CsbLayout, mode: ColumnMode) -> Self {
        let cols = layout.num_groups() * layout.width;
        let mut csb = Csb {
            data: AVec::zeroed(layout.total_cells),
            col_count: vec![0; cols],
            col_pos: vec![COL_EMPTY; cols],
            index: vec![-1; layout.num_positions()],
            group_next: vec![0; layout.num_groups()],
            audit: false,
            group_sums: vec![0; layout.num_groups()],
            layout,
            mode,
        };
        if mode == ColumnMode::OneToOne {
            csb.bind_one_to_one();
        }
        csb
    }

    fn bind_one_to_one(&mut self) {
        for pos in 0..self.layout.num_positions() as u32 {
            let col = self.global_col(self.layout.group_of(pos), pos as usize % self.layout.width);
            self.col_pos[col] = pos;
        }
    }

    #[inline(always)]
    fn global_col(&self, group: usize, col_in_group: usize) -> usize {
        group * self.layout.width + col_in_group
    }

    /// Look up `dst` in the redirection map with typed errors instead of
    /// UB-adjacent raw indexing: a corrupt destination past the map is
    /// [`CsbInsertError::OutOfRange`], an unowned one is
    /// [`CsbInsertError::NotOwned`].
    #[inline(always)]
    pub(crate) fn resolve(&self, dst: VertexId) -> Result<u32, CsbInsertError> {
        let pos = *self
            .layout
            .position
            .get(dst as usize)
            .ok_or(CsbInsertError::OutOfRange {
                dst,
                vertices: self.layout.position.len(),
            })?;
        if pos == NOT_OWNED {
            return Err(CsbInsertError::NotOwned { dst });
        }
        Ok(pos)
    }

    /// Insert one message for `dst` into the next cell of its column,
    /// folding it into its group's integrity sum when the audit is armed.
    ///
    /// # Errors
    /// [`CsbInsertError::OutOfRange`] or [`CsbInsertError::NotOwned`] if
    /// this buffer does not own `dst`, and
    /// [`CsbInsertError::OverCapacity`] if `dst` already holds as many
    /// messages as its declared capacity. The message is not written.
    #[inline]
    pub fn insert(&mut self, dst: VertexId, value: T) -> Result<(), CsbInsertError> {
        let pos = self.resolve(dst)?;
        let cell = self.claim_owned(pos)?;
        self.data[cell] = value;
        if self.audit {
            let sum = &mut self.group_sums[self.layout.group_of(pos)];
            *sum = sum.wrapping_add(Self::digest_one(dst, value));
        }
        Ok(())
    }

    /// Claim the next cell of owned position `pos`'s column, binding the
    /// column first in dynamic mode (the first message for a vertex takes
    /// its group's next free column). Returns the cell's index.
    #[inline(always)]
    pub(crate) fn claim_owned(&mut self, pos: u32) -> Result<usize, CsbInsertError> {
        let width = self.layout.width;
        let group = self.layout.group_of(pos);
        let col_in_group = match self.mode {
            ColumnMode::OneToOne => pos as usize % width,
            ColumnMode::Dynamic => {
                let index = self.index[pos as usize];
                if index >= 0 {
                    index as usize
                } else {
                    let col = self.group_next[group] as usize;
                    debug_assert!(col < width);
                    self.group_next[group] += 1;
                    self.index[pos as usize] = col as i32;
                    self.col_pos[group * width + col] = pos;
                    col
                }
            }
        };
        let cursor = &mut self.col_count[group * width + col_in_group];
        let info = &self.layout.groups[group];
        let row = *cursor;
        if row >= info.rows {
            return Err(CsbInsertError::OverCapacity {
                dst: self.layout.order[pos as usize],
                capacity: info.rows,
            });
        }
        *cursor = row + 1;
        let cell = info.cell_offset + row as usize * width + col_in_group;
        debug_assert!(cell < self.layout.total_cells);
        Ok(cell)
    }

    /// The per-message checksum contribution (see
    /// [`phigraph_recover::integrity::message_digest`]).
    #[inline]
    fn digest_one(dst: VertexId, value: T) -> u64 {
        let mut buf = [0u8; 16];
        value.write_le(&mut buf[..T::SIZE]);
        message_digest(dst, &buf[..T::SIZE])
    }

    /// Arm or disarm the per-group message checksums. Arming zeroes the
    /// sums; disarmed buffers skip every checksum branch (one branch per
    /// insert).
    pub fn set_audit(&mut self, enabled: bool) {
        if enabled {
            self.group_sums.fill(0);
        }
        self.audit = enabled;
    }

    /// Whether the per-group checksums are armed.
    pub fn audit_enabled(&self) -> bool {
        self.audit
    }

    /// Audit every vertex group: recompute the commutative checksum from
    /// the cells actually in the buffer and compare against the sums folded
    /// during insertion. Returns the indices of mismatched groups — the
    /// quarantine set. Call between the insert barrier and processing
    /// (single-threaded phase). Requires the audit switch armed for the
    /// whole generation, else everything mismatches vacuously.
    pub fn audit_groups(&self) -> Vec<usize> {
        let mut bad = Vec::new();
        for g in 0..self.layout.num_groups() {
            let mut expect = 0u64;
            for c in 0..self.used_columns(g) {
                let count = self.column_count(g, c);
                if count == 0 {
                    continue;
                }
                let Some(pos) = self.column_position(g, c) else {
                    continue;
                };
                let dst = self.layout.order[pos as usize];
                for r in 0..count as usize {
                    expect = expect.wrapping_add(Self::digest_one(dst, self.cell(g, r, c)));
                }
            }
            if expect != self.group_sums[g] {
                bad.push(g);
            }
        }
        bad
    }

    /// Reset only `groups` (column cursors, bindings, index entries, and
    /// checksums), leaving every other group's messages intact — the
    /// quarantine primitive: detection re-inserts just the affected groups'
    /// messages instead of regenerating the whole superstep.
    pub fn reset_groups(&mut self, groups: &[usize]) {
        for &g in groups {
            match self.mode {
                ColumnMode::Dynamic => {
                    self.reset_dynamic_group(g);
                }
                ColumnMode::OneToOne => {
                    let first = self.global_col(g, 0);
                    self.col_count[first..first + self.layout.width].fill(0);
                }
            }
            self.group_sums[g] = 0;
        }
    }

    /// Unbind group `g`'s columns (dynamic mode): its column offset, each
    /// bound column's count and position, and their index entries. Returns
    /// the columns unbound.
    fn reset_dynamic_group(&mut self, g: usize) -> usize {
        let used = (std::mem::take(&mut self.group_next[g]) as usize).min(self.layout.width);
        for c in 0..used {
            let gcol = self.global_col(g, c);
            let pos = std::mem::replace(&mut self.col_pos[gcol], COL_EMPTY);
            if pos != COL_EMPTY {
                self.index[pos as usize] = -1;
            }
            self.col_count[gcol] = 0;
        }
        used
    }

    /// Flip one seeded pseudo-random bit in one occupied message cell —
    /// the `BitFlipMessage` injection site. Returns the corrupted group, or
    /// `None` when the buffer holds no messages. Deterministic per seed.
    pub fn corrupt_cell(&mut self, seed: u64) -> Option<usize> {
        let mut occupied: Vec<(usize, usize, u32)> = Vec::new();
        let mut total: u64 = 0;
        for g in 0..self.layout.num_groups() {
            for c in 0..self.used_columns(g) {
                let count = self.column_count(g, c);
                if count > 0 {
                    occupied.push((g, c, count));
                    total += count as u64;
                }
            }
        }
        if total == 0 {
            return None;
        }
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut k = rng.random_range(0u64..total);
        for (g, c, count) in occupied {
            if k >= count as u64 {
                k -= count as u64;
                continue;
            }
            let row = k as usize;
            let bit = rng.random_range(0u64..(T::SIZE as u64 * 8)) as usize;
            let info = &self.layout.groups[g];
            let cell = info.cell_offset + row * self.layout.width + c;
            let mut buf = [0u8; 16];
            self.data[cell].write_le(&mut buf[..T::SIZE]);
            buf[bit / 8] ^= 1 << (bit % 8);
            self.data[cell] = T::read_le(&buf[..T::SIZE]);
            return Some(g);
        }
        unreachable!("k < total by construction")
    }

    /// Reset per-iteration state (index arrays to −1, column offsets and
    /// cursors to 0). Returns the number of cells touched, for the cost
    /// model's reset accounting.
    pub fn reset(&mut self) -> u64 {
        let touched = match self.mode {
            ColumnMode::Dynamic => (0..self.layout.num_groups())
                .map(|g| 3 * self.reset_dynamic_group(g) as u64)
                .sum(),
            ColumnMode::OneToOne => {
                let mut touched = 0;
                for c in &mut self.col_count {
                    if *c != 0 {
                        *c = 0;
                        touched += 1;
                    }
                }
                touched
            }
        };
        if self.audit {
            self.group_sums.fill(0);
        }
        touched
    }

    /// Columns currently in use in `group` (dynamic: the column offset;
    /// one-to-one: the full width, since any column may hold messages).
    #[inline]
    pub fn used_columns(&self, group: usize) -> usize {
        match self.mode {
            ColumnMode::Dynamic => (self.group_next[group] as usize).min(self.layout.width),
            ColumnMode::OneToOne => {
                let n = self.layout.num_positions();
                (n - (group * self.layout.width).min(n)).min(self.layout.width)
            }
        }
    }

    /// Message count of a global column.
    #[inline(always)]
    pub fn column_count(&self, group: usize, col_in_group: usize) -> u32 {
        self.col_count[self.global_col(group, col_in_group)]
    }

    /// Position served by a global column (or `None` if unbound/empty).
    #[inline]
    pub fn column_position(&self, group: usize, col_in_group: usize) -> Option<u32> {
        let p = self.col_pos[self.global_col(group, col_in_group)];
        (p != COL_EMPTY).then_some(p)
    }

    /// Contention/occupancy statistics after a generation phase:
    /// `(profile, occupied_columns, column_allocations)`. Allocations are
    /// the columns the dynamic mode bound since the groups were last reset
    /// (the one-to-one mode binds none).
    pub fn insert_stats(&self) -> (InsertProfile, u64, u64) {
        let mut profile = InsertProfile::default();
        let mut occupied = 0u64;
        let mut allocs = 0u64;
        for g in 0..self.layout.num_groups() {
            let used = self.used_columns(g);
            if self.mode == ColumnMode::Dynamic {
                allocs += used as u64;
            }
            for c in 0..used {
                let count = self.column_count(g, c) as u64;
                if count > 0 {
                    profile.record(count);
                    occupied += 1;
                }
            }
        }
        (profile, occupied, allocs)
    }

    /// Raw cell pointer (processing phase; tasks own disjoint groups).
    #[inline(always)]
    pub(crate) fn data_ptr(&self) -> *mut T {
        self.data.base_ptr()
    }

    /// Total allocated cells.
    pub fn total_cells(&self) -> usize {
        self.layout.total_cells
    }

    /// Read one cell (tests / debugging).
    pub fn cell(&self, group: usize, row: usize, col_in_group: usize) -> T {
        let info = &self.layout.groups[group];
        assert!(row < info.rows as usize && col_in_group < self.layout.width);
        self.data[info.cell_offset + row * self.layout.width + col_in_group]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_graph::generators::small::{paper_example, paper_table1_messages};

    fn paper_csb(mode: ColumnMode) -> Csb<f32> {
        let g = paper_example();
        let owned: Vec<VertexId> = (0..16).collect();
        let cap = g.in_degrees();
        Csb::new(CsbLayout::build(16, &owned, &cap, 4, 2), mode)
    }

    /// The paper's Table 1 messages, inserted one by one.
    fn insert_table1(csb: &mut Csb<f32>) {
        for (src, dst) in paper_table1_messages() {
            csb.insert(dst, src as f32).unwrap();
        }
    }

    /// A buffer owning only vertices 0, 1 and 2 of the paper's example.
    fn partial_csb() -> Csb<f32> {
        let g = paper_example();
        let owned: Vec<VertexId> = vec![0, 1, 2];
        let indeg = g.in_degrees();
        let cap: Vec<u32> = owned.iter().map(|&v| indeg[v as usize]).collect();
        Csb::new(
            CsbLayout::build(16, &owned, &cap, 4, 2),
            ColumnMode::Dynamic,
        )
    }

    #[test]
    fn table1_insertion_one_to_one_matches_figure_3a() {
        let mut csb = paper_csb(ColumnMode::OneToOne);
        insert_table1(&mut csb);
        // Destinations and their positions: 2→1, 6→6, 9→3, 12→11, 10→9, 7→7.
        assert_eq!(csb.column_count(0, 1), 2); // vertex 2 got two messages
        assert_eq!(csb.column_count(0, 3), 2); // vertex 9
        assert_eq!(csb.column_count(0, 6), 1); // vertex 6
        assert_eq!(csb.column_count(0, 7), 1); // vertex 7
        assert_eq!(csb.column_count(1, 1), 1); // vertex 10 (position 9)
        assert_eq!(csb.column_count(1, 3), 1); // vertex 12 (position 11)
                                               // Untouched columns stay empty.
        assert_eq!(csb.column_count(0, 0), 0);
        assert_eq!(csb.column_count(0, 5), 0);
    }

    #[test]
    fn table1_insertion_dynamic_condenses_columns_like_figure_3b() {
        let mut csb = paper_csb(ColumnMode::Dynamic);
        insert_table1(&mut csb);
        // Group 0 received messages for 4 distinct vertices (2, 9, 6, 7):
        // dynamic allocation packs them into columns 0..4 — a single
        // 4-lane vector array covers them all (the Fig. 3b win).
        assert_eq!(csb.used_columns(0), 4);
        // Group 1 received messages for 2 distinct vertices (10, 12).
        assert_eq!(csb.used_columns(1), 2);
        let (profile, occupied, allocs) = csb.insert_stats();
        assert_eq!(profile.total, 8);
        assert_eq!(profile.max_column, 2);
        assert_eq!(occupied, 6);
        assert_eq!(allocs, 6);
    }

    #[test]
    fn insertion_values_land_in_claimed_cells() {
        let mut csb = paper_csb(ColumnMode::Dynamic);
        csb.insert(9, 11.0).unwrap(); // from vertex 11
        csb.insert(9, 13.0).unwrap(); // from vertex 13
                                      // Vertex 9 is position 3 in group 0; its column holds both values
                                      // in rows 0 and 1, in insertion order.
        let col = (0..csb.used_columns(0))
            .find(|&c| csb.column_position(0, c) == Some(3))
            .expect("column for vertex 9");
        let got = [csb.cell(0, 0, col), csb.cell(0, 1, col)];
        assert_eq!(got, [11.0, 13.0]);
    }

    #[test]
    fn reset_clears_state_for_next_iteration() {
        let mut csb = paper_csb(ColumnMode::Dynamic);
        insert_table1(&mut csb);
        let touched = csb.reset();
        assert!(touched > 0);
        assert_eq!(csb.used_columns(0), 0);
        let (profile, occupied, allocs) = csb.insert_stats();
        assert_eq!(profile.total, 0);
        assert_eq!(occupied, 0);
        assert_eq!(allocs, 0);
        // Buffer is reusable.
        csb.insert(2, 1.0).unwrap();
        assert_eq!(csb.used_columns(0), 1);
    }

    #[test]
    #[should_panic(expected = "more than its capacity")]
    fn over_capacity_insertion_panics() {
        let mut csb = paper_csb(ColumnMode::Dynamic);
        for _ in 0..6 {
            // Vertex 5 has capacity 5; the engine panics with the error's
            // text.
            csb.insert(5, 1.0).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    #[should_panic(expected = "non-owned")]
    fn non_owned_destination_panics() {
        let mut csb = partial_csb();
        csb.insert(9, 1.0).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn insert_returns_typed_errors() {
        let mut csb = partial_csb();
        // Out-of-range destination: rejected before touching the map.
        assert_eq!(
            csb.insert(999, 1.0),
            Err(CsbInsertError::OutOfRange {
                dst: 999,
                vertices: 16
            })
        );
        // Real vertex, wrong device.
        assert_eq!(csb.insert(9, 1.0), Err(CsbInsertError::NotOwned { dst: 9 }));
        assert!(csb.insert(2, 1.0).is_ok());
        // Errors display the historical panic text (substring-compatible).
        assert!(CsbInsertError::NotOwned { dst: 9 }
            .to_string()
            .contains("non-owned vertex 9"));
    }

    #[test]
    fn insert_surfaces_capacity_overflow() {
        // An over-capacity message comes back as a typed error, not an
        // unwind, and is not written.
        let mut csb = paper_csb(ColumnMode::Dynamic);
        for i in 0..5 {
            csb.insert(5, i as f32).unwrap();
        }
        let err = csb.insert(5, 5.0).unwrap_err();
        assert!(matches!(err, CsbInsertError::OverCapacity { dst: 5, .. }));
        assert!(err.to_string().contains("more than its capacity"));
        assert_eq!(csb.insert_stats().0.total, 5);
        // And the buffer is reusable after a reset.
        csb.reset();
        assert!(csb.insert(5, 1.0).is_ok());
        assert!(csb.insert(2, 2.0).is_ok());
    }

    #[test]
    fn audit_accepts_clean_buffer_and_catches_every_flip() {
        for mode in [ColumnMode::Dynamic, ColumnMode::OneToOne] {
            let mut csb = paper_csb(mode);
            csb.set_audit(true);
            insert_table1(&mut csb);
            assert_eq!(csb.audit_groups(), Vec::<usize>::new(), "{mode:?}");
            // Every seed corrupts some occupied cell; the audit must name
            // exactly the corrupted group each time.
            for seed in 0..32u64 {
                let g = csb.corrupt_cell(seed).expect("buffer has messages");
                assert_eq!(csb.audit_groups(), vec![g], "seed {seed} {mode:?}");
                // Heal by re-inserting the quarantined group's messages.
                csb.reset_groups(&[g]);
                for (src, dst) in paper_table1_messages() {
                    let pos = csb.layout.position[dst as usize];
                    if csb.layout.group_of(pos) == g {
                        csb.insert(dst, src as f32).unwrap();
                    }
                }
                assert_eq!(csb.audit_groups(), Vec::<usize>::new());
            }
        }
    }

    #[test]
    fn audit_disabled_is_inert() {
        let mut csb = paper_csb(ColumnMode::Dynamic);
        assert!(!csb.audit_enabled());
        insert_table1(&mut csb);
        // Sums were never folded; corruption goes unseen — exactly the
        // silent failure mode the integrity mode exists to close.
        csb.corrupt_cell(7).unwrap();
        // (audit_groups with a disarmed switch is meaningless; just check
        // the switch state and that inserts did no checksum work.)
        assert!(!csb.audit_enabled());
    }

    #[test]
    fn reset_groups_leaves_other_groups_intact() {
        let mut csb = paper_csb(ColumnMode::Dynamic);
        csb.set_audit(true);
        insert_table1(&mut csb);
        let before_g1: Vec<u32> = (0..csb.used_columns(1))
            .map(|c| csb.column_count(1, c))
            .collect();
        csb.reset_groups(&[0]);
        assert_eq!(csb.used_columns(0), 0);
        let after_g1: Vec<u32> = (0..csb.used_columns(1))
            .map(|c| csb.column_count(1, c))
            .collect();
        assert_eq!(before_g1, after_g1);
        assert_eq!(csb.audit_groups(), Vec::<usize>::new());
    }
}
