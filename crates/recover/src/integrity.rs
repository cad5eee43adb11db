//! Integrity mode, accounting, and the group-checksum primitive.
//!
//! PRs 2–3 made the engines survive *fail-stop* faults; this module is the
//! data-plane half of the defense against *silent* corruption: a bit flip
//! in a queue slot, a CSB column, a barrier value, or an exchange frame
//! that crashes nothing and converges to a wrong answer. The engine-side
//! detection/healing driver lives in `phigraph_core::engine::integrity`;
//! this crate keeps the policy enum, the run accounting, and the
//! order-independent checksum that both sides fold.
//!
//! Design constraints (mirroring `TraceLevel`):
//! * the kill switch is one relaxed atomic load on the hot path, and the
//!   `Off` path performs *no* other work, so disabled runs stay
//!   bit-identical to pre-integrity builds;
//! * group checksums must be **commutative** (a wrapping sum of
//!   per-message hashes) because CSB insertion order is racy by design —
//!   the audit must not depend on which mover drained first.

use phigraph_graph::hash::{fnv1a64_seeded, FNV_OFFSET};
use std::sync::atomic::{AtomicU8, Ordering};

/// How much of the integrity lattice is armed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum IntegrityMode {
    /// No checks at all. The data path is bit-identical to builds that
    /// predate the integrity subsystem.
    #[default]
    Off = 0,
    /// Frame-level only: exchange payloads carry length/epoch/FNV headers
    /// and are re-exchanged on mismatch. Near-zero cost (one hash pass per
    /// frame, nothing per message).
    Frames = 1,
    /// Everything: frames, per-vertex-group message checksums folded
    /// during drains, state digests at barriers, and sampled per-app
    /// invariant audits, all feeding the quarantine-and-recompute driver.
    Full = 2,
}

impl IntegrityMode {
    /// All modes, for flag validation and docs.
    pub const ALL: [IntegrityMode; 3] = [
        IntegrityMode::Off,
        IntegrityMode::Frames,
        IntegrityMode::Full,
    ];

    /// Short stable name (CLI flag values).
    pub fn name(&self) -> &'static str {
        match self {
            IntegrityMode::Off => "off",
            IntegrityMode::Frames => "frames",
            IntegrityMode::Full => "full",
        }
    }

    /// Whether exchange frames are checksummed.
    #[inline]
    pub fn frames(&self) -> bool {
        *self >= IntegrityMode::Frames
    }

    /// Whether group/state/audit checks are armed.
    #[inline]
    pub fn full(&self) -> bool {
        *self >= IntegrityMode::Full
    }
}

impl std::fmt::Display for IntegrityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for IntegrityMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(IntegrityMode::Off),
            "frames" => Ok(IntegrityMode::Frames),
            "full" => Ok(IntegrityMode::Full),
            other => Err(format!(
                "unknown integrity mode {other:?} (expected off|frames|full)"
            )),
        }
    }
}

/// A shareable one-atomic-load kill switch, the `TraceLevel` pattern: the
/// hot paths (CSB inserts, drains) load this once per batch with relaxed
/// ordering and skip every integrity branch when it reads `Off`.
#[derive(Debug, Default)]
pub struct IntegritySwitch(AtomicU8);

impl IntegritySwitch {
    /// A switch preset to `mode`.
    pub fn new(mode: IntegrityMode) -> Self {
        IntegritySwitch(AtomicU8::new(mode as u8))
    }

    /// Current mode (one relaxed load).
    #[inline(always)]
    pub fn mode(&self) -> IntegrityMode {
        match self.0.load(Ordering::Relaxed) {
            0 => IntegrityMode::Off,
            1 => IntegrityMode::Frames,
            _ => IntegrityMode::Full,
        }
    }

    /// Re-arm or disarm at runtime.
    pub fn set(&self, mode: IntegrityMode) {
        self.0.store(mode as u8, Ordering::Relaxed);
    }
}

/// The order-independent per-message contribution to a group checksum:
/// hash `(dst, value-bytes)` to one u64. Contributions are folded with
/// `wrapping_add`, which is commutative + associative, so any interleaving
/// of movers/workers produces the same group sum. `0` is the empty-group
/// identity.
#[inline]
pub fn message_digest(dst: u32, value_bytes: &[u8]) -> u64 {
    let h = fnv1a64_seeded(FNV_OFFSET, &dst.to_le_bytes());
    // Never contribute 0 so "one message" is distinguishable from "none".
    fnv1a64_seeded(h, value_bytes) | 1
}

/// Everything the integrity subsystem observed during one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Exchange frames whose header/checksum was validated.
    pub frame_checks: u64,
    /// Frames that failed validation (truncation or checksum mismatch).
    pub frame_detections: u64,
    /// In-place re-exchanges that healed a corrupt frame.
    pub frame_reexchanges: u64,
    /// Vertex-group checksum audits performed after message insertion.
    pub group_checks: u64,
    /// Group checksum mismatches detected (corrupt message path).
    pub group_detections: u64,
    /// Barrier state-digest audits performed.
    pub state_checks: u64,
    /// State digest mismatches detected (rotted barrier values).
    pub state_detections: u64,
    /// Per-app invariant audits run (sampled stride).
    pub audits_run: u64,
    /// Invariant violations the auditors flagged.
    pub audit_violations: u64,
    /// Audit alarms that a full-step replay reproduced bit-identically —
    /// i.e. the invariant tolerance fired on clean data.
    pub false_positive_audits: u64,
    /// Vertex groups quarantined for targeted recompute.
    pub quarantined_groups: u64,
    /// Groups healed by targeted regeneration (rung 1, no rollback).
    pub group_heals: u64,
    /// Full single-step replays (rung 2).
    pub step_replays: u64,
    /// Background scrub passes completed between supersteps.
    pub scrub_passes: u64,
}

impl IntegrityStats {
    /// Fold another run's stats into this one (hetero runs sum devices).
    pub fn accumulate(&mut self, other: &IntegrityStats) {
        self.frame_checks += other.frame_checks;
        self.frame_detections += other.frame_detections;
        self.frame_reexchanges += other.frame_reexchanges;
        self.group_checks += other.group_checks;
        self.group_detections += other.group_detections;
        self.state_checks += other.state_checks;
        self.state_detections += other.state_detections;
        self.audits_run += other.audits_run;
        self.audit_violations += other.audit_violations;
        self.false_positive_audits += other.false_positive_audits;
        self.quarantined_groups += other.quarantined_groups;
        self.group_heals += other.group_heals;
        self.step_replays += other.step_replays;
        self.scrub_passes += other.scrub_passes;
    }

    /// Total corruptions detected on any rung of the lattice.
    pub fn detections(&self) -> u64 {
        self.frame_detections + self.group_detections + self.state_detections
    }

    /// One-line summary (appended to run summaries when anything happened).
    pub fn summary(&self) -> String {
        format!(
            "checks={} detections={} quarantined={} heals={} replays={} \
             reexch={} audits={} false_pos={} scrubs={}",
            self.frame_checks + self.group_checks + self.state_checks,
            self.detections(),
            self.quarantined_groups,
            self.group_heals,
            self.step_replays,
            self.frame_reexchanges,
            self.audits_run,
            self.false_positive_audits,
            self.scrub_passes,
        )
    }

    /// Whether any integrity-relevant event happened at all.
    pub fn any(&self) -> bool {
        *self != IntegrityStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for m in IntegrityMode::ALL {
            assert_eq!(m.name().parse::<IntegrityMode>().unwrap(), m);
            assert_eq!(m.to_string(), m.name());
        }
        let e = "paranoid".parse::<IntegrityMode>().unwrap_err();
        assert!(e.contains("off|frames|full"));
    }

    #[test]
    fn mode_lattice_is_ordered() {
        assert!(!IntegrityMode::Off.frames());
        assert!(!IntegrityMode::Off.full());
        assert!(IntegrityMode::Frames.frames());
        assert!(!IntegrityMode::Frames.full());
        assert!(IntegrityMode::Full.frames());
        assert!(IntegrityMode::Full.full());
    }

    #[test]
    fn switch_round_trips_all_modes() {
        let sw = IntegritySwitch::default();
        assert_eq!(sw.mode(), IntegrityMode::Off);
        for m in IntegrityMode::ALL {
            sw.set(m);
            assert_eq!(sw.mode(), m);
        }
    }

    #[test]
    fn message_digest_is_order_independent_under_wrapping_add() {
        let msgs: [(u32, f32); 4] = [(3, 1.5), (9, -0.25), (3, 1.5), (7, f32::INFINITY)];
        let digest = |perm: &[usize]| -> u64 {
            perm.iter().fold(0u64, |acc, &i| {
                let (d, v) = msgs[i];
                acc.wrapping_add(message_digest(d, &v.to_le_bytes()))
            })
        };
        let a = digest(&[0, 1, 2, 3]);
        let b = digest(&[3, 2, 1, 0]);
        let c = digest(&[1, 3, 0, 2]);
        assert_eq!(a, b);
        assert_eq!(a, c);
        // And a single flipped bit moves the sum.
        let mut bytes = 1.5f32.to_le_bytes();
        bytes[0] ^= 0x10;
        let flipped = a
            .wrapping_sub(message_digest(3, &1.5f32.to_le_bytes()))
            .wrapping_add(message_digest(3, &bytes));
        assert_ne!(a, flipped);
    }

    #[test]
    fn message_digest_never_contributes_zero() {
        assert_ne!(message_digest(0, &[]), 0);
        assert_ne!(message_digest(0, &[0, 0, 0, 0]), 0);
    }

    #[test]
    fn stats_accumulate_and_summarize() {
        let mut a = IntegrityStats {
            frame_checks: 4,
            frame_detections: 1,
            ..Default::default()
        };
        let b = IntegrityStats {
            group_checks: 10,
            group_detections: 2,
            quarantined_groups: 2,
            group_heals: 2,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.detections(), 3);
        assert_eq!(a.group_heals, 2);
        assert!(a.any());
        assert!(a.summary().contains("detections=3"));
        assert!(!IntegrityStats::default().any());
    }
}
