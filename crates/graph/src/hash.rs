//! FNV-1a 64, the one checksum of the workspace.
//!
//! Barrier snapshots, serve journal records, exchange frame seals and the
//! integrity digests all hash with this function, so each of them keeps
//! producing exactly the bytes it always has. It lives in the graph crate
//! because that is the lowest crate both the comm and recover crates depend
//! on.

/// FNV-1a 64-bit offset basis: the seed of a fresh hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash `bytes` with FNV-1a 64 starting from `seed` (pass [`FNV_OFFSET`]
/// for a fresh hash; pass a previous result to chain fields).
#[inline]
pub fn fnv1a64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64-bit hash of `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(FNV_OFFSET, bytes)
}
