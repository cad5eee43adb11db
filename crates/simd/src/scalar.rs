//! Scalar message-value trait.
//!
//! The paper restricts SIMD message reduction to "basic data types that are
//! supported by SSE, such as `int`, `float` and `double`". [`MsgValue`]
//! captures exactly that contract: a plain-old-data scalar with total
//! element-wise arithmetic, an ordering suitable for min/max reductions, and a
//! fixed little-endian wire encoding (used by the inter-device exchange to
//! account message bytes the way MPI would see them).

use crate::aligned::AVec;
use std::fmt::Debug;

/// A plain-old-data scalar usable as a message value.
///
/// Implementations must be `Copy`, have a fixed byte size, and provide the
/// element-wise operations that the overloaded vtype operators forward to.
/// `vmin`/`vmax` must form a lattice (for floats, NaN is propagated the same
/// way `f32::min`/`f32::max` do).
pub trait MsgValue:
    Copy + Clone + Send + Sync + Default + PartialEq + PartialOrd + Debug + 'static
{
    /// Size of the encoded value in bytes (`msg_size` in the paper's layout
    /// formulas).
    const SIZE: usize;
    /// Additive identity.
    const ZERO: Self;
    /// Identity for `Min` reductions (the largest representable value).
    const MAX_ID: Self;
    /// Identity for `Max` reductions (the smallest representable value).
    const MIN_ID: Self;

    /// Element-wise addition (wrapping for integers, IEEE for floats).
    fn vadd(self, rhs: Self) -> Self;
    /// Element-wise subtraction.
    fn vsub(self, rhs: Self) -> Self;
    /// Element-wise multiplication.
    fn vmul(self, rhs: Self) -> Self;
    /// Element-wise division. Integer division by zero yields `ZERO` rather
    /// than trapping, so that lane code never faults on bubble slots.
    fn vdiv(self, rhs: Self) -> Self;
    /// Element-wise minimum.
    fn vmin(self, rhs: Self) -> Self;
    /// Element-wise maximum.
    fn vmax(self, rhs: Self) -> Self;
    /// Whether `self` and `rhs` have the same bits. For floats this is not
    /// `==`: `-0.0 == 0.0`, and a NaN equals nothing, itself included.
    fn same_bits(self, rhs: Self) -> bool;

    /// Encode into exactly `Self::SIZE` little-endian bytes.
    fn write_le(&self, out: &mut [u8]);
    /// Decode from exactly `Self::SIZE` little-endian bytes.
    fn read_le(input: &[u8]) -> Self;

    /// `len` elements, all `ZERO`. The numeric scalars, whose `ZERO` is all
    /// zero bits, take zeroed memory from the allocator, so an untouched
    /// buffer costs no page writes; the default fills.
    fn zeroed_buffer(len: usize) -> AVec<Self> {
        AVec::new_filled(len, Self::ZERO)
    }
}

macro_rules! impl_msg_int {
    ($t:ty) => {
        impl MsgValue for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            const ZERO: Self = 0;
            const MAX_ID: Self = <$t>::MAX;
            const MIN_ID: Self = <$t>::MIN;

            #[inline(always)]
            fn vadd(self, rhs: Self) -> Self {
                self.wrapping_add(rhs)
            }
            #[inline(always)]
            fn vsub(self, rhs: Self) -> Self {
                self.wrapping_sub(rhs)
            }
            #[inline(always)]
            fn vmul(self, rhs: Self) -> Self {
                self.wrapping_mul(rhs)
            }
            #[inline(always)]
            fn vdiv(self, rhs: Self) -> Self {
                if rhs == 0 {
                    0
                } else {
                    self.wrapping_div(rhs)
                }
            }
            #[inline(always)]
            fn vmin(self, rhs: Self) -> Self {
                Ord::min(self, rhs)
            }
            #[inline(always)]
            fn vmax(self, rhs: Self) -> Self {
                Ord::max(self, rhs)
            }
            #[inline(always)]
            fn same_bits(self, rhs: Self) -> bool {
                self == rhs
            }

            #[inline]
            fn write_le(&self, out: &mut [u8]) {
                out[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(input: &[u8]) -> Self {
                let mut buf = [0u8; Self::SIZE];
                buf.copy_from_slice(&input[..Self::SIZE]);
                <$t>::from_le_bytes(buf)
            }

            fn zeroed_buffer(len: usize) -> AVec<Self> {
                // SAFETY: all zero bits are a valid scalar: its `ZERO`.
                unsafe { AVec::zeroed_bits(len) }
            }
        }
    };
}

macro_rules! impl_msg_float {
    ($t:ty) => {
        impl MsgValue for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            const ZERO: Self = 0.0;
            const MAX_ID: Self = <$t>::INFINITY;
            const MIN_ID: Self = <$t>::NEG_INFINITY;

            #[inline(always)]
            fn vadd(self, rhs: Self) -> Self {
                self + rhs
            }
            #[inline(always)]
            fn vsub(self, rhs: Self) -> Self {
                self - rhs
            }
            #[inline(always)]
            fn vmul(self, rhs: Self) -> Self {
                self * rhs
            }
            #[inline(always)]
            fn vdiv(self, rhs: Self) -> Self {
                self / rhs
            }
            #[inline(always)]
            fn vmin(self, rhs: Self) -> Self {
                self.min(rhs)
            }
            #[inline(always)]
            fn vmax(self, rhs: Self) -> Self {
                self.max(rhs)
            }
            #[inline(always)]
            fn same_bits(self, rhs: Self) -> bool {
                self.to_bits() == rhs.to_bits()
            }

            #[inline]
            fn write_le(&self, out: &mut [u8]) {
                out[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(input: &[u8]) -> Self {
                let mut buf = [0u8; Self::SIZE];
                buf.copy_from_slice(&input[..Self::SIZE]);
                <$t>::from_le_bytes(buf)
            }

            fn zeroed_buffer(len: usize) -> AVec<Self> {
                // SAFETY: all zero bits are a valid scalar: its `ZERO`.
                unsafe { AVec::zeroed_bits(len) }
            }
        }
    };
}

impl_msg_int!(i32);
impl_msg_int!(i64);
impl_msg_int!(u32);
impl_msg_int!(u64);
impl_msg_float!(f32);
impl_msg_float!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_arithmetic_is_total() {
        assert_eq!(7i32.vadd(3), 10);
        assert_eq!(7i32.vsub(3), 4);
        assert_eq!(7i32.vmul(3), 21);
        assert_eq!(7i32.vdiv(3), 2);
        assert_eq!(7i32.vdiv(0), 0, "division by zero must not trap");
        assert_eq!(i32::MAX.vadd(1), i32::MIN, "wrapping add");
    }

    #[test]
    fn float_lattice_identities() {
        assert_eq!(f32::MAX_ID, f32::INFINITY);
        assert_eq!(f32::MIN_ID, f32::NEG_INFINITY);
        assert_eq!(3.5f32.vmin(f32::MAX_ID), 3.5);
        assert_eq!(3.5f32.vmax(f32::MIN_ID), 3.5);
        assert_eq!((-1.0f64).vmin(2.0), -1.0);
    }

    #[test]
    fn same_bits_tells_signed_zeros_apart_and_matches_nan() {
        assert!(!(-0.0f32).same_bits(0.0));
        assert!(f32::NAN.same_bits(f32::NAN));
        assert!(!f32::NAN.same_bits(-f32::NAN));
        assert!(1.5f64.same_bits(1.5));
        assert!(7i32.same_bits(7) && !7u64.same_bits(8));
    }

    #[test]
    fn min_max_identities_for_ints() {
        for v in [i32::MIN, -5, 0, 5, i32::MAX] {
            assert_eq!(v.vmin(i32::MAX_ID), v);
            assert_eq!(v.vmax(i32::MIN_ID), v);
        }
    }

    #[test]
    fn wire_round_trip() {
        let mut buf = [0u8; 8];
        1234.5f32.write_le(&mut buf);
        assert_eq!(f32::read_le(&buf), 1234.5);
        (-77i64).write_le(&mut buf);
        assert_eq!(i64::read_le(&buf), -77);
        u32::MAX.write_le(&mut buf);
        assert_eq!(u32::read_le(&buf), u32::MAX);
    }

    #[test]
    fn sizes_match_rust_layout() {
        assert_eq!(<i32 as MsgValue>::SIZE, 4);
        assert_eq!(<f32 as MsgValue>::SIZE, 4);
        assert_eq!(<f64 as MsgValue>::SIZE, 8);
        assert_eq!(<u64 as MsgValue>::SIZE, 8);
    }
}
