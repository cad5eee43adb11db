//! 64-byte aligned buffers.
//!
//! The condensed static buffer must keep every vector-array row on a vector
//! register boundary ("we should wrap `w/msg_size` messages together in a way
//! that they are aligned with a multiple of `w` bytes"). [`AVec`] is a
//! fixed-capacity heap buffer whose base address is 64-byte aligned — wide
//! enough for IMCI's 512-bit registers, and therefore for every narrower ISA.

use crate::scalar::MsgValue;
use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment guaranteed by [`AVec`], in bytes (one IMCI register).
pub const BUFFER_ALIGN: usize = 64;

/// A heap buffer of `T` with a 64-byte aligned base address.
///
/// Unlike `Vec`, the length is fixed at construction (the paper's buffer is
/// "condensed *static*": allocated once before any iteration runs) and every
/// element is initialized to a fill value. The buffer dereferences to a slice
/// for ordinary access.
pub struct AVec<T> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: AVec owns its allocation exclusively; `T: Send/Sync` propagates the
// usual container guarantees.
unsafe impl<T: Send> Send for AVec<T> {}
unsafe impl<T: Sync> Sync for AVec<T> {}

impl<T: MsgValue> AVec<T> {
    /// Allocate `len` elements, all set to `fill`.
    pub fn new_filled(len: usize, fill: T) -> Self {
        let avec = Self::allocate(len, false);
        for i in 0..len {
            // SAFETY: i < len elements fit in the allocation.
            unsafe { avec.ptr.as_ptr().add(i).write(fill) };
        }
        avec
    }

    /// Allocate `len` elements, all `T::ZERO` ([`MsgValue::zeroed_buffer`]).
    pub fn zeroed(len: usize) -> Self {
        T::zeroed_buffer(len)
    }

    /// Allocate `len` elements of zeroed memory, whose pages are faulted in
    /// only where they are first touched.
    ///
    /// # Safety
    /// All zero bits must be a valid `T`.
    pub(crate) unsafe fn zeroed_bits(len: usize) -> Self {
        Self::allocate(len, true)
    }

    /// Allocate room for `len` elements, zeroed or not; the caller
    /// initializes whatever the allocator did not.
    fn allocate(len: usize, zeroed: bool) -> Self {
        if len == 0 {
            return AVec {
                ptr: NonNull::dangling(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0, T is a numeric scalar).
        let raw = unsafe {
            if zeroed {
                alloc_zeroed(layout)
            } else {
                alloc(layout)
            }
        } as *mut T;
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(layout);
        };
        AVec { ptr, len }
    }

    /// Number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reset every element to `fill`.
    pub fn fill_with(&mut self, fill: T) {
        self.as_mut_slice().fill(fill);
    }

    /// The buffer as a slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len initialized elements (or dangling with
        // len == 0, which is a valid empty slice).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The buffer as a mutable slice.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as above, plus &mut self guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Raw base pointer (used by the concurrent insertion paths, which write
    /// to disjoint slots proven unique by per-column atomic cursors).
    #[inline(always)]
    pub fn base_ptr(&self) -> *mut T {
        self.ptr.as_ptr()
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len * std::mem::size_of::<T>(), BUFFER_ALIGN)
            .expect("AVec layout overflow")
    }
}

impl<T> Drop for AVec<T> {
    fn drop(&mut self) {
        if self.len != 0 {
            let layout = Layout::from_size_align(self.len * std::mem::size_of::<T>(), BUFFER_ALIGN)
                .expect("AVec layout overflow");
            // SAFETY: allocated with the identical layout in new_filled; T is
            // Copy so no element drops are needed.
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, layout) };
        }
    }
}

impl<T: MsgValue> Deref for AVec<T> {
    type Target = [T];
    #[inline(always)]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: MsgValue> DerefMut for AVec<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: MsgValue> Clone for AVec<T> {
    fn clone(&self) -> Self {
        let mut out = Self::zeroed(self.len);
        out.as_mut_slice().copy_from_slice(self.as_slice());
        out
    }
}

impl<T: MsgValue> std::fmt::Debug for AVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AVec")
            .field("len", &self.len)
            .field("align", &BUFFER_ALIGN)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_64_byte_aligned() {
        for len in [1usize, 3, 16, 1024, 4097] {
            let v = AVec::<f32>::zeroed(len);
            assert_eq!(v.base_ptr() as usize % BUFFER_ALIGN, 0, "len={len}");
        }
        let d = AVec::<f64>::new_filled(33, 1.5);
        assert_eq!(d.base_ptr() as usize % BUFFER_ALIGN, 0);
    }

    #[test]
    fn zeroed_buffers_read_as_zero() {
        fn check<T: MsgValue>() {
            let v = AVec::<T>::zeroed(4097);
            assert!(v.iter().all(|x| x.same_bits(T::ZERO)));
        }
        check::<i32>();
        check::<i64>();
        check::<u32>();
        check::<u64>();
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn filled_and_indexable() {
        let v = AVec::<i32>::new_filled(100, 7);
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn empty_buffer_is_fine() {
        let v = AVec::<f32>::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[f32]);
    }

    #[test]
    fn mutation_through_slice() {
        let mut v = AVec::<f32>::zeroed(8);
        v[3] = 9.5;
        assert_eq!(v[3], 9.5);
        v.fill_with(2.0);
        assert!(v.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn clone_copies_contents() {
        let mut v = AVec::<i64>::zeroed(5);
        v[0] = -1;
        v[4] = 42;
        let c = v.clone();
        assert_eq!(c.as_slice(), v.as_slice());
        assert_ne!(c.base_ptr(), v.base_ptr());
    }
}
