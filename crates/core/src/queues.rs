//! Single-producer single-consumer queues.
//!
//! [`SpscQueue`] is the serving pool's admission ring. [`QueueMatrix`] is
//! the paper's worker→mover transport (§IV.C): "this strategy guarantees
//! that each message queue is only written by only one thread, as well as
//! read by only one thread", one bounded ring per (worker, mover) pair. No
//! engine runs it: the pipelined mode fills its buffer on the locking
//! engine's host path and the cost model charges the pipeline from counts.
//! The `spsc` bench area and `tests/spsc_stress.rs` measure and check it.
//!
//! The ring follows the cached-index design of FastForward/MCRingBuffer
//! (the lineage the paper's message pipeline descends from): the producer
//! keeps a private *cache* of the consumer's head and the consumer keeps a
//! private cache of the producer's tail, so the two threads only touch each
//! other's control cache line when their cached view runs out. Batched
//! entry points ([`SpscQueue::push_slice`], [`SpscQueue::pop_slices`])
//! amortize further: one Release publish per batch instead of per message.
//! See `docs/pipeline.md` for the full memory-ordering argument.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Pads its contents to (at least) two typical cache lines so the producer
/// and consumer control words never share a line (false sharing is the
/// entire cost this design removes).
#[repr(align(128))]
struct CachePadded<T>(T);

/// Producer-owned control block: the published tail plus a stale-but-safe
/// cache of the consumer's head.
struct ProducerSide {
    /// Next slot to write. Stored with `Release` to publish items.
    tail: AtomicUsize,
    /// Last head value the producer observed. Only ever behind the true
    /// head, so `cap - (tail - head_cache)` under-estimates free space and
    /// never over-claims. Touched only by the producer thread.
    head_cache: UnsafeCell<usize>,
}

/// Consumer-owned control block: the published head plus a stale-but-safe
/// cache of the producer's tail.
struct ConsumerSide {
    /// Next slot to read. Stored with `Release` to return slots.
    head: AtomicUsize,
    /// Last tail value the consumer observed. Only ever behind the true
    /// tail, so `tail_cache - head` under-estimates available items and
    /// never reads unpublished slots. Touched only by the consumer thread.
    tail_cache: UnsafeCell<usize>,
}

/// A bounded SPSC ring buffer with cached indices and batched transfer.
pub struct SpscQueue<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    prod: CachePadded<ProducerSide>,
    cons: CachePadded<ConsumerSide>,
    closed: AtomicBool,
}

// SAFETY: the SPSC discipline (one producer thread, one consumer thread)
// is the documented contract of every unsafe method; under it, each
// UnsafeCell is touched by exactly one thread and slot ownership is
// handed over through the Release/Acquire head/tail pairs.
unsafe impl<T: Send> Send for SpscQueue<T> {}
unsafe impl<T: Send> Sync for SpscQueue<T> {}

impl<T> SpscQueue<T> {
    /// Create a queue with capacity `cap` (rounded up to at least 2).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(2);
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscQueue {
            slots,
            cap,
            prod: CachePadded(ProducerSide {
                tail: AtomicUsize::new(0),
                head_cache: UnsafeCell::new(0),
            }),
            cons: CachePadded(ConsumerSide {
                head: AtomicUsize::new(0),
                tail_cache: UnsafeCell::new(0),
            }),
            closed: AtomicBool::new(false),
        }
    }

    /// Ring capacity in items.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Free slots as seen by the producer at `tail`, refreshing the head
    /// cache from the shared atomic only when the cached view says "full".
    ///
    /// # Safety
    /// Producer thread only.
    #[inline]
    unsafe fn free_slots(&self, tail: usize) -> usize {
        let cached = *self.prod.0.head_cache.get();
        let free = self.cap - tail.wrapping_sub(cached);
        if free > 0 {
            return free;
        }
        let head = self.cons.0.head.load(Ordering::Acquire);
        *self.prod.0.head_cache.get() = head;
        self.cap - tail.wrapping_sub(head)
    }

    /// Items available to the consumer at `head`, refreshing the tail cache
    /// only when the cached view says "empty".
    ///
    /// # Safety
    /// Consumer thread only.
    #[inline]
    unsafe fn available(&self, head: usize) -> usize {
        let cached = *self.cons.0.tail_cache.get();
        let avail = cached.wrapping_sub(head);
        if avail > 0 {
            return avail;
        }
        let tail = self.prod.0.tail.load(Ordering::Acquire);
        *self.cons.0.tail_cache.get() = tail;
        tail.wrapping_sub(head)
    }

    /// Push one item, spinning (with yields) while the ring is full.
    /// Returns the number of full-queue spin iterations (backpressure).
    ///
    /// # Safety
    /// Must be called from exactly one producer thread.
    pub unsafe fn push(&self, item: T) -> u64 {
        let tail = self.prod.0.tail.load(Ordering::Relaxed);
        let mut spins = 0u64;
        while self.free_slots(tail) == 0 {
            spins += 1;
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        // SAFETY: slot `tail % cap` is free (tail - head < cap) and only
        // this producer writes tails.
        (*self.slots[tail % self.cap].get()).write(item);
        self.prod
            .0
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        spins
    }

    /// Push one item *without* waiting: when the ring is full the item
    /// comes straight back as `Err`, so the caller can reject instead of
    /// blocking. This is the admission-control face of the ring — the
    /// serving daemon turns an `Err` into a reject-with-retry-after
    /// response rather than stalling the accept loop.
    ///
    /// # Safety
    /// Must be called from exactly one producer thread (or producers
    /// serialized by an external lock, which restores the single-producer
    /// discipline).
    pub unsafe fn try_push(&self, item: T) -> Result<(), T> {
        let tail = self.prod.0.tail.load(Ordering::Relaxed);
        if self.free_slots(tail) == 0 {
            return Err(item);
        }
        // SAFETY: slot `tail % cap` is free (tail - head < cap) and only
        // this producer writes tails.
        (*self.slots[tail % self.cap].get()).write(item);
        self.prod
            .0
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Items currently in the ring, as seen from the producer side. An
    /// estimate under concurrency (the consumer may drain concurrently),
    /// but it only ever *over*-states occupancy, so admission decisions
    /// based on it are conservative.
    pub fn occupancy(&self) -> usize {
        let tail = self.prod.0.tail.load(Ordering::Acquire);
        let head = self.cons.0.head.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// Push a whole slice, publishing the tail once per contiguous chunk
    /// (at most twice per ring revolution) instead of once per item.
    /// Spins with yields whenever the ring fills mid-slice. Returns the
    /// number of full-queue spin iterations (backpressure).
    ///
    /// # Safety
    /// Must be called from exactly one producer thread.
    pub unsafe fn push_slice(&self, items: &[T]) -> u64
    where
        T: Copy,
    {
        let mut spins = 0u64;
        let mut tail = self.prod.0.tail.load(Ordering::Relaxed);
        let mut rest = items;
        while !rest.is_empty() {
            let mut free = self.free_slots(tail);
            while free == 0 {
                spins += 1;
                std::hint::spin_loop();
                std::thread::yield_now();
                free = self.free_slots(tail);
            }
            let n = free.min(rest.len());
            let idx = tail % self.cap;
            let first = n.min(self.cap - idx);
            // SAFETY: slots [idx, idx+first) and, on wrap, [0, n-first) are
            // free (n <= free slots); `T: Copy` means no drops are skipped.
            std::ptr::copy_nonoverlapping(rest.as_ptr(), self.slots[idx].get().cast::<T>(), first);
            if n > first {
                std::ptr::copy_nonoverlapping(
                    rest.as_ptr().add(first),
                    self.slots[0].get().cast::<T>(),
                    n - first,
                );
            }
            tail = tail.wrapping_add(n);
            // One Release publish for the whole chunk: the consumer's
            // Acquire load of `tail` makes every slot write above visible.
            self.prod.0.tail.store(tail, Ordering::Release);
            rest = &rest[n..];
        }
        spins
    }

    /// Pop up to `max` items into `out`. Consumer side only. Returns the
    /// number popped. (Per-item move path; works for non-`Copy` payloads.)
    ///
    /// # Safety
    /// Must be called from exactly one consumer thread.
    pub unsafe fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let head = self.cons.0.head.load(Ordering::Relaxed);
        let avail = self.available(head).min(max);
        for i in 0..avail {
            // SAFETY: slots head..head+avail were published by the producer.
            let v = (*self.slots[(head + i) % self.cap].get()).assume_init_read();
            out.push(v);
        }
        self.cons
            .0
            .head
            .store(head.wrapping_add(avail), Ordering::Release);
        avail
    }

    /// Drain up to `max` items, handing the consumer *borrowed slices* of
    /// the ring (one, or two when the range wraps) instead of moving items
    /// out one by one. The head is republished once after `f` returns.
    /// Returns the number of items consumed.
    ///
    /// # Safety
    /// Must be called from exactly one consumer thread. The slices passed
    /// to `f` are invalidated when this call returns.
    pub unsafe fn pop_slices<F: FnMut(&[T])>(&self, max: usize, mut f: F) -> usize
    where
        T: Copy,
    {
        let head = self.cons.0.head.load(Ordering::Relaxed);
        let avail = self.available(head).min(max);
        if avail == 0 {
            return 0;
        }
        let idx = head % self.cap;
        let first = avail.min(self.cap - idx);
        // SAFETY: slots [idx, idx+first) were published by the producer's
        // Release tail store and are initialized.
        f(std::slice::from_raw_parts(
            self.slots[idx].get().cast::<T>(),
            first,
        ));
        if avail > first {
            // SAFETY: wrap segment [0, avail-first) is likewise published.
            f(std::slice::from_raw_parts(
                self.slots[0].get().cast::<T>(),
                avail - first,
            ));
        }
        // One Release publish returns all consumed slots to the producer.
        self.cons
            .0
            .head
            .store(head.wrapping_add(avail), Ordering::Release);
        avail
    }

    /// Mark the producer as finished.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// True when the producer closed the queue *and* everything was popped.
    pub fn is_drained(&self) -> bool {
        self.closed.load(Ordering::Acquire)
            && self.cons.0.head.load(Ordering::Acquire) == self.prod.0.tail.load(Ordering::Acquire)
    }
}

impl<T> Drop for SpscQueue<T> {
    fn drop(&mut self) {
        // Drop any unconsumed items.
        let head = *self.cons.0.head.get_mut();
        let tail = *self.prod.0.tail.get_mut();
        for i in head..tail {
            // SAFETY: slots head..tail hold initialized values; we have
            // exclusive access in drop.
            unsafe { (*self.slots[i % self.cap].get()).assume_init_drop() };
        }
    }
}

/// The paper's worker→mover queue matrix: `workers × movers` queues,
/// indexed `[worker][mover]`.
pub struct QueueMatrix<T> {
    queues: Vec<SpscQueue<T>>,
    /// Worker (producer) count.
    pub workers: usize,
    /// Mover (consumer) count.
    pub movers: usize,
    /// Per-queue ring capacity.
    pub cap: usize,
}

impl<T> QueueMatrix<T> {
    /// Allocate the matrix with per-queue capacity `cap`.
    pub fn new(workers: usize, movers: usize, cap: usize) -> Self {
        let workers = workers.max(1);
        let movers = movers.max(1);
        let queues: Vec<SpscQueue<T>> =
            (0..workers * movers).map(|_| SpscQueue::new(cap)).collect();
        let cap = queues[0].capacity();
        QueueMatrix {
            queues,
            workers,
            movers,
            cap,
        }
    }

    /// Queue written by `worker` and read by `mover`.
    #[inline(always)]
    pub fn queue(&self, worker: usize, mover: usize) -> &SpscQueue<T> {
        &self.queues[worker * self.movers + mover]
    }

    /// Close all queues produced by `worker`.
    pub fn close_worker(&self, worker: usize) {
        for m in 0..self.movers {
            self.queue(worker, m).close();
        }
    }

    /// True when every queue feeding `mover` is closed and empty.
    pub fn mover_done(&self, mover: usize) -> bool {
        (0..self.workers).all(|w| self.queue(w, mover).is_drained())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_single_thread() {
        let q = SpscQueue::new(8);
        // SAFETY: one thread is trivially a single producer and consumer.
        unsafe {
            for i in 0..5 {
                q.push(i);
            }
            let mut out = Vec::new();
            assert_eq!(q.pop_batch(&mut out, 3), 3);
            assert_eq!(out, vec![0, 1, 2]);
            assert_eq!(q.pop_batch(&mut out, 10), 2);
            assert_eq!(out, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn push_slice_pop_slices_round_trip_with_wrap() {
        let q = SpscQueue::new(8);
        // SAFETY: single thread.
        unsafe {
            // Advance the indices so a later slice wraps the ring edge.
            for i in 0..5u32 {
                q.push(i);
            }
            let mut sink = Vec::new();
            q.pop_slices(5, |s| sink.extend_from_slice(s));
            assert_eq!(sink, vec![0, 1, 2, 3, 4]);

            // 6 items into an 8-ring starting at index 5: wraps.
            let spins = q.push_slice(&[10, 11, 12, 13, 14, 15]);
            assert_eq!(spins, 0, "ring had space; no backpressure expected");
            let mut calls = 0;
            let mut got = Vec::new();
            let n = q.pop_slices(100, |s| {
                calls += 1;
                got.extend_from_slice(s);
            });
            assert_eq!(n, 6);
            assert_eq!(calls, 2, "wrapped range arrives as two slices");
            assert_eq!(got, vec![10, 11, 12, 13, 14, 15]);
        }
    }

    #[test]
    fn push_slice_larger_than_capacity_chunks_through() {
        let q = SpscQueue::new(4);
        let items: Vec<u32> = (0..1000).collect();
        std::thread::scope(|s| {
            s.spawn(|| {
                // SAFETY: single producer thread.
                let spins = unsafe { q.push_slice(&items) };
                // 1000 items through a 4-slot ring must hit the full state.
                assert!(spins > 0, "expected backpressure spins");
                q.close();
            });
            let mut got = Vec::new();
            while !q.is_drained() {
                // SAFETY: single consumer thread.
                unsafe { q.pop_slices(7, |s| got.extend_from_slice(s)) };
            }
            assert_eq!(got, items);
        });
    }

    #[test]
    fn cross_thread_transfer_preserves_order_and_count() {
        let q = SpscQueue::new(16);
        let n = 100_000u64;
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..n {
                    // SAFETY: single producer thread.
                    unsafe { q.push(i) };
                }
                q.close();
            });
            let mut got = Vec::new();
            while !q.is_drained() {
                // SAFETY: single consumer thread.
                unsafe { q.pop_batch(&mut got, 64) };
            }
            assert_eq!(got.len(), n as usize);
            for (i, &v) in got.iter().enumerate() {
                assert_eq!(v, i as u64);
            }
        });
    }

    #[test]
    fn try_push_rejects_when_full_without_spinning() {
        let q = SpscQueue::new(2);
        // SAFETY: single thread.
        unsafe {
            assert_eq!(q.try_push(1u32), Ok(()));
            assert_eq!(q.try_push(2u32), Ok(()));
            assert_eq!(q.occupancy(), 2);
            // Full ring: the item comes back instead of blocking.
            assert_eq!(q.try_push(3u32), Err(3));
            let mut out = Vec::new();
            q.pop_batch(&mut out, 1);
            assert_eq!(q.occupancy(), 1);
            assert_eq!(q.try_push(3u32), Ok(()));
            // Two pops: the consumer's tail cache is refreshed lazily, so
            // the item pushed after the first drain needs a second pass.
            q.pop_batch(&mut out, 10);
            q.pop_batch(&mut out, 10);
            assert_eq!(out, vec![1, 2, 3]);
            assert_eq!(q.occupancy(), 0);
        }
    }

    #[test]
    fn drop_releases_unconsumed_items() {
        let q = SpscQueue::new(8);
        // SAFETY: single thread.
        unsafe {
            q.push(String::from("a"));
            q.push(String::from("b"));
        }
        drop(q); // must not leak or double-free (checked under miri/asan)
    }

    #[test]
    fn matrix_routing_and_termination() {
        let m = QueueMatrix::<u32>::new(2, 3, 8);
        assert_eq!(m.cap, 8);
        // SAFETY: this test is single-threaded; the SPSC roles are disjoint
        // per queue.
        unsafe {
            m.queue(0, 1).push(11);
            m.queue(1, 1).push(21);
        }
        assert!(!m.mover_done(1));
        m.close_worker(0);
        m.close_worker(1);
        assert!(!m.mover_done(1), "queued items still pending");
        let mut out = Vec::new();
        unsafe {
            m.queue(0, 1).pop_batch(&mut out, 10);
            m.queue(1, 1).pop_batch(&mut out, 10);
        }
        assert_eq!(out, vec![11, 21]);
        assert!(m.mover_done(1));
        assert!(
            m.mover_done(0),
            "untouched movers with closed producers are done"
        );
    }
}
