//! The checkpoint wire format: a versioned, checksummed binary snapshot of
//! one device run's barrier state.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "PHGS"
//! 4       2     format version (= SNAPSHOT_VERSION)
//! 6       2     value_size   bytes per encoded vertex value
//! 8       8     superstep    next superstep index to execute on resume
//! 16      8     n            vertex count
//! 24      2     app_len      application-name byte length
//! 26      a     app          UTF-8 application name
//! 26+a    n*vs  values       per-vertex state, little-endian PodState
//! ...     n     active       per-vertex active flags (0/1)
//! ...     8     checksum     FNV-1a 64 over every preceding byte
//! ```
//!
//! The trailing checksum makes torn writes and bit flips detectable: decode
//! recomputes FNV-1a over the body and rejects on mismatch, which is what
//! lets the recovery policy skip a corrupt snapshot in favor of the
//! previous valid one.

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Magic prefix of every snapshot ("PHGS").
pub const MAGIC: [u8; 4] = *b"PHGS";

/// FNV-1a 64-bit hash of `bytes` — the snapshot checksum. Re-exported so
/// tests and tools can verify integrity independently.
pub use phigraph_graph::hash::fnv1a64;

/// A decoded (or to-be-encoded) barrier snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Next superstep index to execute when resuming from this snapshot.
    pub superstep: u64,
    /// Application name (sanity-checked on resume so a PageRank run cannot
    /// resume from an SSSP checkpoint).
    pub app: String,
    /// Bytes per encoded vertex value.
    pub value_size: u16,
    /// Raw little-endian vertex values (`n * value_size` bytes; decode with
    /// `phigraph_graph::state::decode_state_slice`).
    pub values: Vec<u8>,
    /// Per-vertex active flags (`n` bytes of 0/1).
    pub active: Vec<u8>,
}

/// Why a snapshot failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the header or declared payload requires.
    Truncated,
    /// The magic prefix is not `PHGS`.
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// The trailing FNV-1a checksum does not match the body.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the body.
        computed: u64,
    },
    /// Internal lengths disagree (e.g. value payload not `n * value_size`).
    Inconsistent,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a phigraph snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            SnapshotError::Inconsistent => write!(f, "snapshot internal lengths disagree"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl Snapshot {
    /// Number of vertices covered by this snapshot.
    pub fn num_vertices(&self) -> usize {
        self.active.len()
    }

    /// Encode to the versioned, checksummed binary format.
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.values.len() == self.active.len() * self.value_size as usize,
            "values payload must be n * value_size bytes"
        );
        let app = self.app.as_bytes();
        assert!(app.len() <= u16::MAX as usize, "app name too long");
        let mut out = Vec::with_capacity(34 + app.len() + self.values.len() + self.active.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.value_size.to_le_bytes());
        out.extend_from_slice(&self.superstep.to_le_bytes());
        out.extend_from_slice(&(self.active.len() as u64).to_le_bytes());
        out.extend_from_slice(&(app.len() as u16).to_le_bytes());
        out.extend_from_slice(app);
        out.extend_from_slice(&self.values);
        out.extend_from_slice(&self.active);
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode and fully validate a snapshot.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        const HEADER: usize = 26; // magic..=app_len
        if bytes.len() < HEADER + 8 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let le16 = |off: usize| u16::from_le_bytes(bytes[off..off + 2].try_into().unwrap());
        let le64 = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let version = le16(4);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let value_size = le16(6);
        let superstep = le64(8);
        let n = le64(16) as usize;
        let app_len = le16(24) as usize;
        let values_len = n
            .checked_mul(value_size as usize)
            .ok_or(SnapshotError::Inconsistent)?;
        let total = HEADER
            .checked_add(app_len)
            .and_then(|t| t.checked_add(values_len))
            .and_then(|t| t.checked_add(n))
            .and_then(|t| t.checked_add(8))
            .ok_or(SnapshotError::Inconsistent)?;
        if bytes.len() != total {
            return Err(SnapshotError::Truncated);
        }
        let body = &bytes[..total - 8];
        let stored = le64(total - 8);
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let app = std::str::from_utf8(&bytes[HEADER..HEADER + app_len])
            .map_err(|_| SnapshotError::Inconsistent)?
            .to_string();
        let values_off = HEADER + app_len;
        Ok(Snapshot {
            superstep,
            app,
            value_size,
            values: bytes[values_off..values_off + values_len].to_vec(),
            active: bytes[values_off + values_len..values_off + values_len + n].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            superstep: 7,
            app: "sssp".into(),
            value_size: 4,
            values: vec![1, 2, 3, 4, 5, 6, 7, 8],
            active: vec![1, 0],
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let bytes = s.encode();
        assert_eq!(Snapshot::decode(&bytes).unwrap(), s);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            assert!(
                Snapshot::decode(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Snapshot::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(Snapshot::decode(&bytes), Err(SnapshotError::BadMagic));
        let mut v2 = sample().encode();
        v2[4] = 99;
        // Version is covered by the checksum too, but the version check
        // fires first.
        assert_eq!(Snapshot::decode(&v2), Err(SnapshotError::BadVersion(99)));
    }

    #[test]
    fn checksum_mismatch_reports_both_sums() {
        let mut bytes = sample().encode();
        // Flip a byte inside the values payload (header 26 + app 4 = 30)
        // so the length checks pass and the checksum check fires.
        bytes[30] ^= 0xFF;
        match Snapshot::decode(&bytes) {
            Err(SnapshotError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed)
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn empty_graph_snapshot_round_trips() {
        let s = Snapshot {
            superstep: 0,
            app: String::new(),
            value_size: 8,
            values: vec![],
            active: vec![],
        };
        assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
    }
}
