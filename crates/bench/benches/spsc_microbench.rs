//! SPSC pipeline transport microbenchmark: per-message vs batched.
//!
//! Reproduces the paper's worker→mover message transport in isolation (no
//! engine runs it) — a 4-worker × 2-mover queue matrix moving `(dst, value)`
//! pairs — and compares the per-message protocol (`push` + `pop_batch`,
//! one Release publish per message) against the batched protocol
//! (`push_slice` + `pop_slices`, one publish per batch). The reported rate
//! is end-to-end messages per second across the whole matrix.

use phigraph_bench::harness::{black_box, BenchmarkId, Criterion, Throughput};
use phigraph_bench::{criterion_group, criterion_main};
use phigraph_core::queues::QueueMatrix;

const WORKERS: usize = 4;
const MOVERS: usize = 2;
const MSGS_PER_WORKER: usize = 200_000;
const QUEUE_CAP: usize = 4096;

/// One worker's message stream: destinations cycle so both movers stay fed.
#[inline]
fn msg(worker: usize, i: usize) -> (u32, f32) {
    (((worker * MSGS_PER_WORKER + i) % 1024) as u32, i as f32)
}

/// Transfer every message through the matrix with per-message `push` and
/// `pop_batch` on the consumer side. Returns a checksum so the work cannot
/// be optimized away.
fn run_per_message() -> u64 {
    let queues = QueueMatrix::<(u32, f32)>::new(WORKERS, MOVERS, QUEUE_CAP);
    let queues = &queues;
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            s.spawn(move || {
                for i in 0..MSGS_PER_WORKER {
                    let (dst, v) = msg(w, i);
                    // SAFETY: worker w is the sole producer of row w.
                    unsafe { queues.queue(w, dst as usize % MOVERS).push((dst, v)) };
                }
                queues.close_worker(w);
            });
        }
        let sums: Vec<_> = (0..MOVERS)
            .map(|m| {
                s.spawn(move || {
                    let mut sum = 0u64;
                    let mut buf: Vec<(u32, f32)> = Vec::with_capacity(256);
                    loop {
                        let mut moved = false;
                        for w in 0..WORKERS {
                            buf.clear();
                            // SAFETY: mover m is the sole consumer of (w, m).
                            if unsafe { queues.queue(w, m).pop_batch(&mut buf, 256) } > 0 {
                                moved = true;
                                for &(dst, _) in &buf {
                                    sum = sum.wrapping_add(dst as u64);
                                }
                            }
                        }
                        if !moved {
                            if queues.mover_done(m) {
                                break;
                            }
                            std::hint::spin_loop();
                            std::thread::yield_now();
                        }
                    }
                    sum
                })
            })
            .collect();
        sums.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// Transfer every message with producer-side batch buffers flushed via
/// `push_slice` and consumer-side `pop_slices` slice drains.
fn run_batched(batch: usize) -> u64 {
    let queues = QueueMatrix::<(u32, f32)>::new(WORKERS, MOVERS, QUEUE_CAP);
    let queues = &queues;
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            s.spawn(move || {
                let mut bufs: Vec<Vec<(u32, f32)>> =
                    (0..MOVERS).map(|_| Vec::with_capacity(batch)).collect();
                for i in 0..MSGS_PER_WORKER {
                    let (dst, v) = msg(w, i);
                    let m = dst as usize % MOVERS;
                    bufs[m].push((dst, v));
                    if bufs[m].len() >= batch {
                        // SAFETY: worker w is the sole producer of row w.
                        unsafe { queues.queue(w, m).push_slice(&bufs[m]) };
                        bufs[m].clear();
                    }
                }
                for (m, buf) in bufs.iter().enumerate() {
                    if !buf.is_empty() {
                        // SAFETY: as above.
                        unsafe { queues.queue(w, m).push_slice(buf) };
                    }
                }
                queues.close_worker(w);
            });
        }
        let sums: Vec<_> = (0..MOVERS)
            .map(|m| {
                s.spawn(move || {
                    let mut sum = 0u64;
                    loop {
                        let mut moved = false;
                        for w in 0..WORKERS {
                            // SAFETY: mover m is the sole consumer of (w, m).
                            let n = unsafe {
                                queues.queue(w, m).pop_slices(QUEUE_CAP, |slice| {
                                    for &(dst, _) in slice {
                                        sum = sum.wrapping_add(dst as u64);
                                    }
                                })
                            };
                            if n > 0 {
                                moved = true;
                            }
                        }
                        if !moved {
                            if queues.mover_done(m) {
                                break;
                            }
                            std::hint::spin_loop();
                            std::thread::yield_now();
                        }
                    }
                    sum
                })
            })
            .collect();
        sums.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// Protocol-isolation variant: one thread alternates fill/drain phases on
/// a single queue, so the measurement captures pure per-message protocol
/// cost (publication stores, index probes, staging copies) with no thread
/// scheduling noise. On single-core hosts this is the meaningful
/// comparison; the threaded matrix above additionally shows the cache-line
/// transfer savings once real parallelism exists.
fn run_solo(total: usize, batch: Option<usize>) -> u64 {
    use phigraph_core::queues::SpscQueue;
    let q = SpscQueue::<(u32, f32)>::new(QUEUE_CAP);
    let mut sum = 0u64;
    let mut produced = 0usize;
    let mut staged: Vec<(u32, f32)> = Vec::with_capacity(batch.unwrap_or(1));
    while produced < total {
        let fill = QUEUE_CAP.min(total - produced);
        match batch {
            None => {
                for i in 0..fill {
                    // SAFETY: single thread is trivially the one producer.
                    unsafe { q.push(msg(0, produced + i)) };
                }
            }
            Some(b) => {
                let mut i = 0;
                while i < fill {
                    staged.clear();
                    let n = b.min(fill - i);
                    staged.extend((0..n).map(|k| msg(0, produced + i + k)));
                    // SAFETY: as above.
                    unsafe { q.push_slice(&staged) };
                    i += n;
                }
            }
        }
        produced += fill;
        match batch {
            None => {
                let mut buf: Vec<(u32, f32)> = Vec::with_capacity(256);
                let mut left = fill;
                while left > 0 {
                    buf.clear();
                    // SAFETY: single thread is trivially the one consumer.
                    let n = unsafe { q.pop_batch(&mut buf, 256) };
                    for &(dst, _) in &buf {
                        sum = sum.wrapping_add(dst as u64);
                    }
                    left -= n;
                }
            }
            Some(_) => {
                let mut left = fill;
                while left > 0 {
                    // SAFETY: as above.
                    left -= unsafe {
                        q.pop_slices(QUEUE_CAP, |slice| {
                            for &(dst, _) in slice {
                                sum = sum.wrapping_add(dst as u64);
                            }
                        })
                    };
                }
            }
        }
    }
    sum
}

fn bench_spsc(c: &mut Criterion) {
    let total = (WORKERS * MSGS_PER_WORKER) as u64;
    let expect: u64 = (0..WORKERS)
        .map(|w| {
            (0..MSGS_PER_WORKER)
                .map(|i| msg(w, i).0 as u64)
                .sum::<u64>()
        })
        .sum();
    let mut g = c.benchmark_group("spsc");
    g.throughput(Throughput::Elements(total));
    g.bench_function("per_message", |b| {
        b.iter(|| {
            let s = run_per_message();
            assert_eq!(s, expect, "lost or duplicated messages");
            black_box(s)
        })
    });
    for batch in [16usize, 64, 256] {
        g.bench_with_input(BenchmarkId::new("batched", batch), &batch, |b, &batch| {
            b.iter(|| {
                let s = run_batched(batch);
                assert_eq!(s, expect, "lost or duplicated messages");
                black_box(s)
            })
        });
    }
    g.finish();

    let solo_total = WORKERS * MSGS_PER_WORKER;
    let solo_expect: u64 = (0..solo_total).map(|i| msg(0, i).0 as u64).sum();
    let mut g = c.benchmark_group("spsc_solo");
    g.throughput(Throughput::Elements(solo_total as u64));
    g.bench_function("per_message", |b| {
        b.iter(|| {
            let s = run_solo(solo_total, None);
            assert_eq!(s, solo_expect, "lost or duplicated messages");
            black_box(s)
        })
    });
    for batch in [16usize, 64, 256] {
        g.bench_with_input(BenchmarkId::new("batched", batch), &batch, |b, &batch| {
            b.iter(|| {
                let s = run_solo(solo_total, Some(batch));
                assert_eq!(s, solo_expect, "lost or duplicated messages");
                black_box(s)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_spsc);
criterion_main!(benches);
