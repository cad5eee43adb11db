//! Active-vertex tracking.
//!
//! "An inactive vertex may not participate in the message generation for
//! [the] next step." The runtime keeps one byte per vertex (written in
//! parallel by the update phase at disjoint indices) plus a cheap count.
//! Every mutator takes `&mut self`, so the count is a plain integer.

use phigraph_graph::VertexId;

/// Per-vertex active flags for one device.
pub struct ActiveSet {
    flags: Vec<u8>,
    count: u64,
}

impl ActiveSet {
    /// All-inactive set over `n` vertices.
    pub fn new(n: usize) -> Self {
        ActiveSet {
            flags: vec![0u8; n],
            count: 0,
        }
    }

    /// Whether `v` is active.
    #[inline(always)]
    pub fn is_active(&self, v: VertexId) -> bool {
        self.flags[v as usize] != 0
    }

    /// Set `v`'s flag (single-threaded or disjoint-index phases only).
    pub fn set(&mut self, v: VertexId, active: bool) {
        let was = std::mem::replace(&mut self.flags[v as usize], u8::from(active)) != 0;
        self.count = self.count + u64::from(active) - u64::from(was);
    }

    /// Number of active vertices.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no vertex is active.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Deactivate every vertex (done after generation: senders vote to
    /// halt; updates re-activate).
    pub fn clear(&mut self) {
        self.flags.fill(0);
        self.count = 0;
    }

    /// Activate every vertex in `vs`.
    pub fn activate_all(&mut self, vs: &[VertexId]) {
        for &v in vs {
            self.set(v, true);
        }
    }

    /// Activate every vertex of the set.
    pub fn activate_every(&mut self) {
        self.flags.fill(1);
        self.count = self.flags.len() as u64;
    }

    /// Raw flags (for the disjoint-write update phase via `SharedSlice`).
    pub fn flags_mut(&mut self) -> &mut [u8] {
        &mut self.flags
    }

    /// Read-only raw flags (snapshotted by the checkpoint writer).
    pub fn flags(&self) -> &[u8] {
        &self.flags
    }

    /// Overwrite all flags from a snapshot and recount.
    ///
    /// # Panics
    /// Panics if `flags.len()` differs from the set's vertex count.
    pub fn restore_flags(&mut self, flags: &[u8]) {
        assert_eq!(flags.len(), self.flags.len(), "flag snapshot size mismatch");
        self.flags.copy_from_slice(flags);
        self.recount();
    }

    /// Recount after a raw-flags phase.
    pub fn recount(&mut self) {
        self.count = self.flags.iter().filter(|&&f| f != 0).count() as u64;
    }

    /// Iterate active vertex ids.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.flags
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f != 0)
            .map(|(v, _)| v as VertexId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_count() {
        let mut a = ActiveSet::new(10);
        assert!(a.is_empty());
        a.set(3, true);
        a.set(7, true);
        a.set(3, true); // idempotent
        assert_eq!(a.count(), 2);
        assert!(a.is_active(3));
        a.set(3, false);
        assert_eq!(a.count(), 1);
        assert!(!a.is_active(3));
    }

    #[test]
    fn clear_and_activate_all() {
        let mut a = ActiveSet::new(5);
        a.activate_all(&[0, 2, 4]);
        assert_eq!(a.count(), 3);
        a.clear();
        assert!(a.is_empty());
        a.set(1, true);
        a.activate_every();
        assert_eq!(a.count(), 5);
        assert!(a.iter().eq(0..5));
    }

    #[test]
    fn recount_after_raw_phase() {
        let mut a = ActiveSet::new(8);
        a.flags_mut()[1] = 1;
        a.flags_mut()[5] = 1;
        a.recount();
        assert_eq!(a.count(), 2);
        let got: Vec<u32> = a.iter().collect();
        assert_eq!(got, vec![1, 5]);
    }
}
