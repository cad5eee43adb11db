//! Exchange frame integrity: length/epoch headers + FNV checksums.
//!
//! A frame is one superstep's combined remote-message payload. Without a
//! header, a bit flipped on the link (or a truncated transfer) flows
//! silently into the peer's CSB and converges to a wrong answer. A
//! [`FrameHeader`] seals the payload with three fields the receiver can
//! validate in one linear pass:
//!
//! * `len` — message count; catches truncation/extension instantly,
//! * `epoch` — the sender's superstep index; catches cross-step frame
//!   replay or lock-step desync,
//! * `checksum` — FNV-1a 64 over every message's wire bytes, in order;
//!   catches bit flips anywhere in the payload.
//!
//! The hash is the workspace's one FNV-1a 64 ([`phigraph_graph::hash`]),
//! the same the snapshot codec uses. Sealing is one pass over bytes that
//! are about to cross the link anyway — the cost the frames-only integrity
//! mode pays per exchange, and nothing per message on the intra-device
//! path.

use crate::message::WireMsg;
use phigraph_graph::hash::{fnv1a64_seeded, FNV_OFFSET};
use phigraph_simd::MsgValue;

/// Why a received frame failed validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Payload message count differs from the sealed count (truncated or
    /// extended frame).
    LengthMismatch {
        /// Message count the header promised.
        sealed: u64,
        /// Message count actually received.
        got: u64,
    },
    /// The frame was sealed at a different superstep than the receiver is
    /// executing (replayed or desynced frame).
    EpochMismatch {
        /// Epoch in the header.
        sealed: u64,
        /// Epoch the receiver expected.
        expected: u64,
    },
    /// Payload bytes do not hash to the sealed checksum (bit flip).
    ChecksumMismatch {
        /// Checksum in the header.
        sealed: u64,
        /// Checksum recomputed over the received payload.
        got: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::LengthMismatch { sealed, got } => {
                write!(f, "frame length mismatch: sealed {sealed} msgs, got {got}")
            }
            FrameError::EpochMismatch { sealed, expected } => {
                write!(
                    f,
                    "frame epoch mismatch: sealed at step {sealed}, expected {expected}"
                )
            }
            FrameError::ChecksumMismatch { sealed, got } => {
                write!(
                    f,
                    "frame checksum mismatch: sealed {sealed:#018x}, got {got:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// The integrity seal carried alongside a framed exchange payload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameHeader {
    /// Superstep the frame was sealed at.
    pub epoch: u64,
    /// Number of messages sealed.
    pub len: u64,
    /// FNV-1a 64 over every message's wire bytes, in payload order.
    pub checksum: u64,
}

/// Hash a payload exactly as [`FrameHeader::seal`] does (exposed so tests
/// and fault injectors can forge/verify frames byte-for-byte).
pub fn payload_checksum<T: MsgValue>(msgs: &[WireMsg<T>]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut buf = [0u8; 4 + 16];
    for m in msgs {
        let wire = &mut buf[..WireMsg::<T>::WIRE_SIZE];
        m.encode(wire);
        h = fnv1a64_seeded(h, wire);
    }
    h
}

impl FrameHeader {
    /// Seal `msgs` for superstep `epoch`: one linear pass over the wire
    /// bytes, no allocation.
    pub fn seal<T: MsgValue>(epoch: u64, msgs: &[WireMsg<T>]) -> Self {
        FrameHeader {
            epoch,
            len: msgs.len() as u64,
            checksum: payload_checksum(msgs),
        }
    }

    /// Validate a received payload against this header at the receiver's
    /// `expected_epoch`. Checks cheapest-first: length, epoch, checksum.
    pub fn verify<T: MsgValue>(
        &self,
        expected_epoch: u64,
        msgs: &[WireMsg<T>],
    ) -> Result<(), FrameError> {
        if self.len != msgs.len() as u64 {
            return Err(FrameError::LengthMismatch {
                sealed: self.len,
                got: msgs.len() as u64,
            });
        }
        if self.epoch != expected_epoch {
            return Err(FrameError::EpochMismatch {
                sealed: self.epoch,
                expected: expected_epoch,
            });
        }
        let got = payload_checksum(msgs);
        if self.checksum != got {
            return Err(FrameError::ChecksumMismatch {
                sealed: self.checksum,
                got,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: u32) -> Vec<WireMsg<f32>> {
        (0..n)
            .map(|i| WireMsg {
                dst: i * 3,
                value: i as f32 * 0.5 - 1.0,
            })
            .collect()
    }

    #[test]
    fn clean_frames_verify() {
        for n in [0u32, 1, 7, 100] {
            let msgs = payload(n);
            let h = FrameHeader::seal(5, &msgs);
            assert_eq!(h.len, n as u64);
            h.verify(5, &msgs).unwrap();
        }
    }

    #[test]
    fn truncation_is_length_mismatch() {
        let mut msgs = payload(9);
        let h = FrameHeader::seal(2, &msgs);
        msgs.truncate(4);
        assert_eq!(
            h.verify(2, &msgs),
            Err(FrameError::LengthMismatch { sealed: 9, got: 4 })
        );
    }

    #[test]
    fn wrong_epoch_is_epoch_mismatch() {
        let msgs = payload(3);
        let h = FrameHeader::seal(7, &msgs);
        assert_eq!(
            h.verify(8, &msgs),
            Err(FrameError::EpochMismatch {
                sealed: 7,
                expected: 8
            })
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Exhaustive: flip each bit of each message (dst and value) and
        // assert the checksum catches it. This is the 100%-detection
        // property the sweep tests rely on.
        let msgs = payload(4);
        let h = FrameHeader::seal(0, &msgs);
        for i in 0..msgs.len() {
            for bit in 0..64 {
                let mut corrupt = msgs.clone();
                if bit < 32 {
                    corrupt[i].dst ^= 1 << bit;
                } else {
                    corrupt[i].value =
                        f32::from_bits(corrupt[i].value.to_bits() ^ (1 << (bit - 32)));
                }
                assert!(
                    matches!(
                        h.verify(0, &corrupt),
                        Err(FrameError::ChecksumMismatch { .. })
                    ),
                    "msg {i} bit {bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn errors_display_cleanly() {
        let msgs = payload(2);
        let h = FrameHeader::seal(1, &msgs);
        let e = h.verify(1, &msgs[..1]).unwrap_err();
        assert!(e.to_string().contains("length mismatch"));
        let e = h.verify(3, &msgs).unwrap_err();
        assert!(e.to_string().contains("epoch mismatch"));
    }
}
