//! End-to-end data integrity: silent-corruption detection, quarantine, and
//! targeted self-healing across the message path.
//!
//! The detection lattice, cheapest-first:
//!
//! 1. **Frame checksums** ([`framed_exchange`]) — every remote exchange
//!    payload is sealed with an FNV length/epoch/checksum header; a corrupt
//!    frame is healed by a bounded in-place re-exchange agreed on both
//!    sides with a verdict-sync round.
//! 2. **Group checksums** — the CSB folds a commutative per-vertex-group
//!    message digest during insertion (amortized per batch); the audit
//!    between the insert barrier and processing yields a quarantine set
//!    that rung-1 healing rebuilds by *targeted regeneration* of just
//!    those groups.
//! 3. **State digests** ([`BarrierImage`]) — barrier values + active flags
//!    are digested per group; rot between barriers is healed by copying
//!    the image back group-granularly.
//! 4. **App invariant auditors** ([`VertexProgram::audit_step`]) — the
//!    semantic safety net; a violation triggers a rung-2 full-step replay
//!    from the barrier image.
//!
//! Escalation ladder: group recompute (rung 1) → full-step replay (rung 2)
//! → checkpoint rollback with bounded retries (rung 3, the existing
//! [`RecoveryPolicy`] machinery) → degraded sequential (rung 4). Every rung
//! is counted in [`IntegrityStats`], surfaced through
//! [`RunReport::integrity`].
//!
//! The whole subsystem sits behind [`IntegrityMode`]: `off` costs one
//! relaxed atomic load at each guarded site and is bit-identical to the
//! pre-integrity engine; `frames` seals only the exchange path; `full`
//! arms everything.
//!
//! [`VertexProgram::audit_step`]: crate::api::VertexProgram::audit_step
//! [`RecoveryPolicy`]: phigraph_recover::RecoveryPolicy
//! [`RunReport::integrity`]: crate::metrics::RunReport

use crate::api::VertexProgram;
use crate::engine::device::DeviceEngine;
use crate::engine::hetero::{Site, Verdict};
use phigraph_comm::exchange::{ExchangeDropped, ExchangeError, ExchangeStats, PeerInfo};
use phigraph_comm::{Endpoint, FrameHeader, WireMsg};
use phigraph_device::StepCounters;
use phigraph_graph::hash::{fnv1a64_seeded, FNV_OFFSET};
use phigraph_graph::state::{encode_state_slice, PodState};
use phigraph_graph::SplitMix64;
use phigraph_recover::{FaultInjector, FaultKind, IntegrityMode, IntegrityStats};
use phigraph_simd::MsgValue;
use std::time::Duration;

/// Bounded in-place re-exchange budget per superstep before a corrupt
/// frame escalates to the lock-step drop machinery.
pub const MAX_FRAME_RETRIES: u32 = 2;

/// Sampling stride for app invariant audits on scrub passes (full mode
/// audits every vertex; scrubs sample to stay cheap).
const SCRUB_AUDIT_STRIDE: usize = 4;

/// The state a superstep started from: a clone of the barrier values and
/// active flags plus a per-vertex-group digest of both. The image is what
/// rung-1 healing copies back, what targeted regeneration reads, and what
/// a rung-2 full-step replay restores.
pub struct BarrierImage<V> {
    /// Barrier vertex values (full-length).
    pub values: Vec<V>,
    /// Barrier active flags.
    pub flags: Vec<u8>,
    /// Per-group digest over (vertex id, value bytes, flag) in position
    /// order.
    group_digests: Vec<u64>,
}

/// Digest every vertex group's (id, value, flag) triples in position order.
fn state_digests<P: VertexProgram>(
    engine: &DeviceEngine<'_, P>,
    values: &[P::Value],
    flags: &[u8],
) -> Vec<u64>
where
    P::Value: PodState,
{
    let layout = engine.layout();
    let mut digests = vec![FNV_OFFSET; layout.num_groups()];
    let mut buf = Vec::with_capacity(P::Value::STATE_SIZE);
    for pos in 0..layout.num_positions() {
        let g = layout.group_of(pos as u32);
        let v = layout.order[pos];
        buf.clear();
        values[v as usize].write_le(&mut buf);
        let mut h = fnv1a64_seeded(digests[g], &v.to_le_bytes());
        h = fnv1a64_seeded(h, &buf);
        digests[g] = fnv1a64_seeded(h, &[flags[v as usize]]);
    }
    digests
}

impl<V: Copy> BarrierImage<V> {
    /// Snapshot the engine's barrier state (values + flags + digests).
    pub fn capture<P>(engine: &DeviceEngine<'_, P>) -> Self
    where
        P: VertexProgram<Value = V>,
        V: PodState,
    {
        let values = engine.values.clone();
        let flags = engine.active_flags().to_vec();
        let group_digests = state_digests(engine, &values, &flags);
        BarrierImage {
            values,
            flags,
            group_digests,
        }
    }

    /// Recompute the engine's current state digests and compare against the
    /// image: returns the groups whose state rotted since the barrier.
    pub fn audit_state<P>(&self, engine: &DeviceEngine<'_, P>) -> Vec<usize>
    where
        P: VertexProgram<Value = V>,
        V: PodState,
    {
        let cur = state_digests(engine, &engine.values, engine.active_flags());
        cur.iter()
            .zip(&self.group_digests)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(g, _)| g)
            .collect()
    }
}

/// The single-rank silent-corruption sites and integrity rungs: the rank
/// loop's audit hook, armed per attempt on a lone rank. The sites
/// fire whether or not checking is on — with it off the damage propagates
/// undetected, which is exactly the failure mode the lattice exists to
/// close. A rung that cannot heal fails the step, and the recovery machine
/// rolls it back (rung 3).
pub(crate) struct Rungs<V> {
    /// Configured detection level.
    mode: IntegrityMode,
    /// Scrub cadence in supersteps (0 = no scrubbing).
    scrub_every: usize,
    /// Everything observed so far.
    pub(crate) stats: IntegrityStats,
    injector: Option<FaultInjector>,
    /// The barrier the current step started from (full mode or scrubbing).
    image: Option<BarrierImage<V>>,
    /// The state a flagged step produced, while its replay runs.
    suspect: Option<Vec<u8>>,
}

impl<V: PodState> Rungs<V> {
    /// Arm the rungs on `engine` at the barrier it starts from: the CSB
    /// group checksums (full mode) and the first image.
    pub(crate) fn arm<P: VertexProgram<Value = V>>(engine: &mut DeviceEngine<'_, P>) -> Self {
        let (mode, scrub_every) = (engine.config.integrity, engine.config.scrub_every);
        engine.set_integrity_audit(mode.full());
        Rungs {
            mode,
            scrub_every,
            stats: IntegrityStats::default(),
            injector: engine.config.fault_plan.clone(),
            image: (mode.full() || scrub_every > 0).then(|| BarrierImage::capture(engine)),
            suspect: None,
        }
    }

    /// Run the sites and rungs of `site` (the rank loop's
    /// [`AuditHook`](crate::engine::hetero::AuditHook)).
    pub(crate) fn at<P: VertexProgram<Value = V>>(
        &mut self,
        site: Site,
        engine: &mut DeviceEngine<'_, P>,
        step: usize,
        c: &mut StepCounters,
    ) -> Verdict {
        let dev = engine.dev_id;
        let fires = |k: FaultKind| {
            self.injector
                .as_ref()
                .is_some_and(|i| i.fire(step as u64, k, dev))
        };
        // Full mode audits every step; below it, a background scrub
        // boundary audits the state digests and samples the app auditor.
        let scrub = self.scrub_every > 0 && step > 0 && step.is_multiple_of(self.scrub_every);
        let audits = self.mode.full() || scrub;
        match site {
            Site::Start => {
                // SDC site A: a bit of barrier state rots silently between
                // barriers.
                if fires(FaultKind::BitFlipState)
                    && engine.flip_state_bit(step as u64 ^ 0x5DC1_57A7).is_some()
                {
                    c.faults_injected += 1;
                }
                // State digest audit. Rung 1: heal rotted groups straight
                // from the image.
                let Some(img) = self.image.as_ref().filter(|_| audits) else {
                    return Verdict::Go;
                };
                self.stats.state_checks += 1;
                if scrub {
                    self.stats.scrub_passes += 1;
                }
                let bad = img.audit_state(engine);
                if !bad.is_empty() {
                    self.stats.state_detections += bad.len() as u64;
                    self.stats.quarantined_groups += bad.len() as u64;
                    engine.heal_state_groups(&bad, &img.values, &img.flags);
                    if !img.audit_state(engine).is_empty() {
                        // The image itself cannot reproduce its own digest:
                        // escalate to rollback.
                        return Verdict::Fail;
                    }
                    self.stats.group_heals += bad.len() as u64;
                }
            }
            Site::Generated => {
                // SDC site B: a buffered message bit flips inside the CSB.
                if fires(FaultKind::BitFlipMessage)
                    && engine
                        .corrupt_message_cell(step as u64 ^ 0x0B17_F117)
                        .is_some()
                {
                    c.faults_injected += 1;
                }
            }
            Site::Inserted => {
                // Group checksum audit between the insert barrier and
                // processing (full mode only — the fold must have been
                // armed for the whole generation). Rung 1: quarantine
                // mismatched groups and regenerate only them.
                let Some(img) = self.image.as_ref().filter(|_| self.mode.full()) else {
                    return Verdict::Go;
                };
                self.stats.group_checks += 1;
                let bad = engine.audit_message_groups();
                if !bad.is_empty() {
                    self.stats.group_detections += bad.len() as u64;
                    self.stats.quarantined_groups += bad.len() as u64;
                    engine.reset_message_groups(&bad);
                    engine.regenerate_groups(&bad, &img.values, &img.flags);
                    engine.finalize_insertion_stats(c);
                    if !engine.audit_message_groups().is_empty() {
                        // Regeneration could not reproduce the checksums:
                        // escalate to rollback.
                        return Verdict::Fail;
                    }
                    self.stats.group_heals += bad.len() as u64;
                }
            }
            Site::Updated => {
                let Some(img) = &self.image else {
                    return Verdict::Go;
                };
                // App invariant audit (the semantic safety net; scrubs
                // sample every `SCRUB_AUDIT_STRIDE`th vertex). A violation
                // is rung 2: restore the barrier image and replay the whole
                // step once through the loop's step body. A bit-identical
                // replay means the invariant fired on clean data (false
                // positive) and the result is accepted; a persistent
                // violation after a differing replay escalates to rollback.
                let stride = if self.mode.full() {
                    1
                } else {
                    SCRUB_AUDIT_STRIDE
                };
                let flagged = |e: &DeviceEngine<'_, P>| {
                    e.program
                        .audit_step(step, &img.values, &e.values, stride)
                        .is_some()
                };
                match self.suspect.take() {
                    Some(suspect) if encode_state_slice(&engine.values) == suspect => {
                        self.stats.false_positive_audits += 1;
                    }
                    Some(_) if flagged(engine) => return Verdict::Fail,
                    Some(_) => {}
                    None if audits => {
                        self.stats.audits_run += 1;
                        if flagged(engine) {
                            self.stats.audit_violations += 1;
                            self.stats.step_replays += 1;
                            self.suspect = Some(encode_state_slice(&engine.values));
                            engine.restore(img.values.clone(), &img.flags);
                            return Verdict::Replay;
                        }
                    }
                    None => {}
                }
                // The barrier after update is the next step's reference
                // state.
                self.image = Some(BarrierImage::capture(engine));
            }
        }
        Verdict::Go
    }
}

/// Fold a second exchange round's stats into the first's.
fn accumulate(acc: &mut ExchangeStats, x: ExchangeStats) {
    acc.msgs_sent += x.msgs_sent;
    acc.msgs_recv += x.msgs_recv;
    acc.bytes_sent += x.bytes_sent;
    acc.bytes_recv += x.bytes_recv;
    acc.sim_time += x.sim_time;
}

/// Flip one seeded bit of one message's value bytes (wire corruption; the
/// destination id is left alone so routing stays valid and the damage is
/// genuinely *silent* without a checksum).
fn flip_payload_bit<M: MsgValue>(payload: &mut [WireMsg<M>], seed: u64) {
    if payload.is_empty() {
        return;
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let i = rng.random_range(0u64..payload.len() as u64) as usize;
    let bit = rng.random_range(0u64..(M::SIZE as u64 * 8)) as usize;
    let mut buf = [0u8; 16];
    payload[i].value.write_le(&mut buf[..M::SIZE]);
    buf[bit / 8] ^= 1 << (bit % 8);
    payload[i].value = M::read_le(&buf[..M::SIZE]);
}

/// One superstep's remote message exchange with optional frame integrity.
///
/// With `mode.frames()` the payload is sealed ([`FrameHeader`]), exchanged,
/// and verified on receipt; a *verdict-sync* round (an empty exchange whose
/// `any_active` slot carries each rank's verdict) then lets both sides
/// agree whether to re-exchange, so healing stays lock-step. Re-exchanges
/// resend the retained clean payload and are bounded by
/// [`MAX_FRAME_RETRIES`]; past the budget the exchange fails as
/// [`ExchangeError::Dropped`], handing the corruption to the existing
/// rollback machinery. With `mode.frames()` false this is exactly the
/// plain exchange (no seal, no extra round, no overhead).
///
/// The `BitFlipMessage` / `TruncateFrame` faults fire *after* sealing —
/// the wire corrupts, not the sender — so with integrity off they model
/// genuinely silent corruption.
#[allow(clippy::too_many_arguments)]
pub fn framed_exchange<M: MsgValue>(
    ep: &Endpoint<WireMsg<M>>,
    outgoing: Vec<WireMsg<M>>,
    bytes_out: u64,
    any_active: bool,
    step_time: f64,
    deadline: Option<Duration>,
    step: u64,
    dev: u8,
    mode: IntegrityMode,
    injector: Option<&FaultInjector>,
    stats: &mut IntegrityStats,
) -> Result<(Vec<WireMsg<M>>, PeerInfo, ExchangeStats), ExchangeError> {
    // The wire faults fire whether or not frames are on: silent when off,
    // detected and healed when on.
    let fires = |k: FaultKind| injector.is_some_and(|i| i.fire(step, k, dev));
    let mut corrupt: Option<FaultKind> = None;
    if fires(FaultKind::BitFlipMessage) {
        corrupt = Some(FaultKind::BitFlipMessage);
    }
    if fires(FaultKind::TruncateFrame) {
        corrupt = Some(FaultKind::TruncateFrame);
    }

    if !mode.frames() {
        let mut payload = outgoing;
        match corrupt {
            Some(FaultKind::TruncateFrame) => payload.truncate(payload.len() / 2),
            Some(FaultKind::BitFlipMessage) => flip_payload_bit(&mut payload, step ^ 0xF00D),
            _ => {}
        }
        return ep
            .try_exchange_framed(payload, None, bytes_out, any_active, step_time, deadline)
            .map(|(msgs, _frame, peer, x)| (msgs, peer, x));
    }

    let clean = outgoing.clone();
    let mut payload = outgoing;
    let mut acc = ExchangeStats::default();
    for attempt in 0..=MAX_FRAME_RETRIES {
        // Seal over the clean payload, then let the wire fault damage the
        // transmitted copy (first attempt only: injected faults fire once).
        let frame = FrameHeader::seal(step, &payload);
        if attempt == 0 {
            match corrupt {
                Some(FaultKind::TruncateFrame) => payload.truncate(payload.len() / 2),
                Some(FaultKind::BitFlipMessage) => flip_payload_bit(&mut payload, step ^ 0xF00D),
                _ => {}
            }
        }
        let (msgs, frame_in, peer, x) = ep.try_exchange_framed(
            payload,
            Some(frame),
            bytes_out,
            any_active,
            step_time,
            deadline,
        )?;
        accumulate(&mut acc, x);
        stats.frame_checks += 1;
        let my_ok = match frame_in {
            Some(h) => match h.verify(step, &msgs) {
                Ok(()) => true,
                Err(_) => {
                    stats.frame_detections += 1;
                    false
                }
            },
            // Peer runs unframed: nothing to validate on this side.
            None => true,
        };
        // Verdict sync: both ranks learn both verdicts, so the retry
        // decision is symmetric and the lock-step protocol cannot skew.
        let (_, _, verdict, vx) =
            ep.try_exchange_framed(Vec::new(), None, 0, my_ok, 0.0, deadline)?;
        accumulate(&mut acc, vx);
        if my_ok && verdict.any_active {
            if attempt > 0 {
                stats.frame_reexchanges += 1;
            }
            return Ok((msgs, peer, acc));
        }
        // Someone saw a bad frame: re-exchange the retained clean payload.
        payload = clean.clone();
    }
    Err(ExchangeError::Dropped(ExchangeDropped {
        dropped_by: dev as usize,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phigraph_comm::{duplex_pair, PcieLink};
    use phigraph_recover::FaultPlan;

    fn msgs(n: u32) -> Vec<WireMsg<f32>> {
        (0..n)
            .map(|i| WireMsg {
                dst: i,
                value: i as f32 * 0.5,
            })
            .collect()
    }

    type SwapResult<M> = (
        Result<(Vec<WireMsg<M>>, PeerInfo, ExchangeStats), ExchangeError>,
        IntegrityStats,
    );

    fn swap<M: MsgValue>(
        ep: &Endpoint<WireMsg<M>>,
        out: Vec<WireMsg<M>>,
        step: u64,
        mode: IntegrityMode,
        inj: Option<&FaultInjector>,
    ) -> SwapResult<M> {
        let mut stats = IntegrityStats::default();
        let dev = ep.rank as u8;
        let r = framed_exchange(
            ep, out, 0, true, 0.0, None, step, dev, mode, inj, &mut stats,
        );
        (r, stats)
    }

    #[test]
    fn clean_framed_exchange_delivers_payloads() {
        let (a, b) = duplex_pair::<WireMsg<f32>>(PcieLink::ideal());
        let t = std::thread::spawn(move || swap(&b, msgs(3), 7, IntegrityMode::Frames, None));
        let (ra, sa) = swap(&a, msgs(5), 7, IntegrityMode::Frames, None);
        let (rb, sb) = t.join().unwrap();
        assert_eq!(ra.unwrap().0, msgs(3));
        assert_eq!(rb.unwrap().0, msgs(5));
        assert_eq!(sa.frame_checks, 1);
        assert_eq!(sb.frame_checks, 1);
        assert_eq!(sa.frame_detections + sb.frame_detections, 0);
    }

    #[test]
    fn corrupt_frame_is_detected_and_healed_by_reexchange() {
        for kind in [FaultKind::BitFlipMessage, FaultKind::TruncateFrame] {
            let (a, b) = duplex_pair::<WireMsg<f32>>(PcieLink::ideal());
            // Rank 1's outgoing payload corrupts on the wire at step 3.
            let plan = FaultPlan::new().with(3, kind, 1);
            let inj = plan.injector();
            let inj2 = inj.clone();
            let t = std::thread::spawn(move || {
                swap(&b, msgs(4), 3, IntegrityMode::Frames, Some(&inj2))
            });
            let (ra, sa) = swap(&a, msgs(2), 3, IntegrityMode::Frames, Some(&inj));
            let (rb, sb) = t.join().unwrap();
            // Receiver (rank 0) detects; both converge on the clean payload.
            assert_eq!(ra.unwrap().0, msgs(4), "healed payload after {kind:?}");
            assert_eq!(rb.unwrap().0, msgs(2));
            assert_eq!(sa.frame_detections, 1, "{kind:?} detected");
            assert_eq!(sa.frame_reexchanges, 1, "{kind:?} healed in one retry");
            assert_eq!(sb.frame_detections, 0, "sender-side frame was clean");
        }
    }

    #[test]
    fn unframed_mode_passes_corruption_silently() {
        let (a, b) = duplex_pair::<WireMsg<f32>>(PcieLink::ideal());
        let plan = FaultPlan::new().with(0, FaultKind::BitFlipMessage, 1);
        let inj = plan.injector();
        let inj2 = inj.clone();
        let t = std::thread::spawn(move || swap(&b, msgs(4), 0, IntegrityMode::Off, Some(&inj2)));
        let (ra, sa) = swap(&a, msgs(2), 0, IntegrityMode::Off, Some(&inj));
        let (rb, _) = t.join().unwrap();
        let got = ra.unwrap().0;
        assert_eq!(got.len(), 4, "silent corruption keeps the length");
        assert_ne!(got, msgs(4), "a value bit flipped undetected");
        assert_eq!(rb.unwrap().0, msgs(2));
        assert_eq!(sa.frame_checks, 0, "off mode never checks");
    }

    #[test]
    fn truncated_frame_fails_length_check_first() {
        let frame = FrameHeader::seal(5, &msgs(8));
        let short = msgs(4);
        assert!(matches!(
            frame.verify(5, &short),
            Err(phigraph_comm::FrameError::LengthMismatch { sealed: 8, got: 4 })
        ));
    }
}
