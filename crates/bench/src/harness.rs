//! Vendored micro-benchmark harness (criterion-compatible subset).
//!
//! The workspace builds hermetically offline, so the benches cannot pull
//! `criterion` from a registry. This module provides the small slice of its
//! API the benches actually use — `Criterion`, benchmark groups, per-input
//! benches, element throughput — with a simple measurement loop:
//! `warmup_iters` untimed iterations, then `sample_size` timed iterations,
//! reporting the mean, min, p50, p99 and (when a throughput was declared)
//! elements per second. The per-sample durations feed the `BENCH_*.json`
//! emission in [`crate::perf`].
//!
//! Results print as one line per benchmark:
//!
//! ```text
//! csb/insert/Dynamic        mean 12.281ms  min 11.902ms  p99 13.020ms  (16.3 Melem/s)
//! ```

use std::fmt::Display;
use std::io::Write;
use std::time::{Duration, Instant};

/// Prevent the optimizer from deleting a computed value (stable-Rust
/// equivalent of `criterion::black_box`).
#[inline]
pub fn black_box<T>(x: T) -> T {
    // `read_volatile` of the pointer forces the value to materialize.
    // SAFETY: `&x` is a valid, initialized, aligned pointer; the value is
    // returned and `x` is forgotten so no double-drop occurs.
    unsafe {
        let ret = std::ptr::read_volatile(&x);
        std::mem::forget(x);
        ret
    }
}

/// Top-level driver handed to each registered bench function.
#[derive(Default)]
pub struct Criterion {
    /// Results accumulated over the run (label, mean, min, throughput).
    results: Vec<BenchResult>,
}

/// One benchmark's measurement.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Full benchmark label (`group/function/parameter`).
    pub label: String,
    /// Mean iteration time.
    pub mean: Duration,
    /// Fastest iteration.
    pub min: Duration,
    /// Median iteration time (nearest-rank).
    pub p50: Duration,
    /// 99th-percentile iteration time (nearest-rank; equals the slowest
    /// sample for small sample counts — it is the tail-latency signal the
    /// mean/min pair hides).
    pub p99: Duration,
    /// Untimed warmup iterations that ran before sampling.
    pub warmup_iters: usize,
    /// Timed iterations actually recorded.
    pub samples: usize,
    /// Declared elements per iteration, if any.
    pub elements: Option<u64>,
}

impl BenchResult {
    /// Elements per second over the mean iteration, when a throughput was
    /// declared and the mean is nonzero.
    pub fn elem_per_sec(&self) -> Option<f64> {
        match self.elements {
            Some(e) if self.mean.as_secs_f64() > 0.0 => Some(e as f64 / self.mean.as_secs_f64()),
            _ => None,
        }
    }

    fn report(&self) {
        let thr = match self.elem_per_sec() {
            Some(eps) => format!("  ({} elem/s)", human_rate(eps)),
            None => String::new(),
        };
        let _ = writeln!(
            std::io::stdout(),
            "{:<44} mean {:>10}  min {:>10}  p99 {:>10}{}",
            self.label,
            human_time(self.mean),
            human_time(self.min),
            human_time(self.p99),
            thr
        );
    }
}

/// Nearest-rank percentile over an ascending-sorted sample set; `q` in
/// `0.0..=100.0`. Empty input maps to zero.
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn human_time(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3}us", s * 1e6)
    } else {
        format!("{:.0}ns", s * 1e9)
    }
}

fn human_rate(r: f64) -> String {
    if r >= 1e9 {
        format!("{:.2}G", r / 1e9)
    } else if r >= 1e6 {
        format!("{:.2}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.2}K", r / 1e3)
    } else {
        format!("{r:.1}")
    }
}

impl Criterion {
    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            sample_size: default_sample_size(),
            warmup_iters: default_warmup_iters(),
            throughput: None,
        }
    }

    /// Benchmark a single function under `name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let r = run_bench(
            name,
            default_sample_size(),
            default_warmup_iters(),
            None,
            |b| f(b),
        );
        r.report();
        self.results.push(r);
        self
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// Samples per benchmark; `PHIGRAPH_BENCH_SAMPLES` overrides (CI smoke runs
/// set it to 1).
fn default_sample_size() -> usize {
    std::env::var("PHIGRAPH_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// Untimed warmup iterations per benchmark; `PHIGRAPH_BENCH_WARMUP`
/// overrides (0 is allowed — the first timed sample then pays the
/// cold-cache cost, visible as a fat p99).
fn default_warmup_iters() -> usize {
    std::env::var("PHIGRAPH_BENCH_WARMUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Declared per-iteration work, for rate reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements (messages, edges, …) processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifies one benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{function_name}/{parameter}"),
        }
    }

    /// Parameter-only form.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warmup_iters: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed iterations.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Set the number of untimed warmup iterations (0 allowed).
    pub fn warmup_iters(&mut self, n: usize) -> &mut Self {
        self.warmup_iters = n;
        self
    }

    /// Declare per-iteration work for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark `f` with `input` under `id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label);
        let elements = match self.throughput {
            Some(Throughput::Elements(e)) => Some(e),
            _ => None,
        };
        let r = run_bench(&label, self.sample_size, self.warmup_iters, elements, |b| {
            f(b, input)
        });
        r.report();
        self.parent.results.push(r);
        self
    }

    /// Benchmark a plain function under `name` within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let label = format!("{}/{}", self.name, name);
        let elements = match self.throughput {
            Some(Throughput::Elements(e)) => Some(e),
            _ => None,
        };
        let r = run_bench(&label, self.sample_size, self.warmup_iters, elements, |b| {
            f(b)
        });
        r.report();
        self.parent.results.push(r);
        self
    }

    /// End the group (kept for criterion API compatibility).
    pub fn finish(self) {}
}

/// Passed to the benchmarked closure; call [`Bencher::iter`] with the body.
pub struct Bencher {
    samples: usize,
    warmup: usize,
    durations: Vec<Duration>,
}

impl Bencher {
    /// Measure `body`: `warmup` untimed calls (pre-faulting allocations and
    /// caches), then `samples` timed calls, each recorded individually so
    /// percentiles can be computed.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut body: F) {
        for _ in 0..self.warmup {
            black_box(body());
        }
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(body());
            self.durations.push(t0.elapsed());
        }
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(
    label: &str,
    samples: usize,
    warmup: usize,
    elements: Option<u64>,
    mut f: F,
) -> BenchResult {
    let mut b = Bencher {
        samples,
        warmup,
        durations: Vec::with_capacity(samples),
    };
    f(&mut b);
    let recorded = b.durations.len();
    let total: Duration = b.durations.iter().sum();
    let mean = total / recorded.max(1) as u32;
    let mut sorted = b.durations;
    sorted.sort_unstable();
    BenchResult {
        label: label.to_string(),
        mean,
        min: sorted.first().copied().unwrap_or(Duration::ZERO),
        p50: percentile(&sorted, 50.0),
        p99: percentile(&sorted, 99.0),
        warmup_iters: warmup,
        samples: recorded,
        elements,
    }
}

/// Register bench functions under a group name (criterion-compatible).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::harness::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Emit `main` running the given groups (criterion-compatible).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::default();
            $( $group(&mut c); )+
            eprintln!("\n{} benchmarks completed", c.results().len());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_and_counts() {
        let r = run_bench("t", 3, 1, Some(300), |b| {
            b.iter(|| {
                let mut s = 0u64;
                for i in 0..1000u64 {
                    s = s.wrapping_add(black_box(i));
                }
                s
            })
        });
        assert_eq!(r.label, "t");
        assert!(r.min <= r.mean);
        assert_eq!(r.elements, Some(300));
        assert_eq!(r.warmup_iters, 1);
        assert_eq!(r.samples, 3);
        assert!(r.min <= r.p50 && r.p50 <= r.p99);
        assert!(r.elem_per_sec().unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn warmup_iterations_run_untimed() {
        // 2 warmup + 4 timed calls: the body must run exactly 6 times but
        // only 4 samples are recorded.
        let mut calls = 0u32;
        let r = run_bench("w", 4, 2, None, |b| b.iter(|| calls += 1));
        assert_eq!(calls, 6);
        assert_eq!(r.samples, 4);
        assert_eq!(r.warmup_iters, 2);
        // Zero warmup is allowed (cold first sample).
        let mut calls = 0u32;
        let r = run_bench("w0", 3, 0, None, |b| b.iter(|| calls += 1));
        assert_eq!(calls, 3);
        assert_eq!(r.warmup_iters, 0);
    }

    #[test]
    fn percentiles_capture_tail_of_known_duration_workload() {
        // Synthetic workload with known per-iteration durations: 9 fast
        // (~1 ms) iterations and 1 slow (~15 ms) outlier. sleep() only
        // guarantees a lower bound, which is exactly what the assertions
        // need: p99 must surface the outlier that mean/min smooth over.
        let mut i = 0u32;
        let r = run_bench("tail", 10, 0, None, |b| {
            b.iter(|| {
                i += 1;
                let ms = if i == 5 { 15 } else { 1 };
                std::thread::sleep(Duration::from_millis(ms));
            })
        });
        assert_eq!(r.samples, 10);
        assert!(r.p99 >= Duration::from_millis(15), "p99 {:?}", r.p99);
        assert!(r.p50 < Duration::from_millis(15), "p50 {:?}", r.p50);
        assert!(r.min >= Duration::from_millis(1));
        assert!(r.min <= r.p50 && r.p50 <= r.p99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ms = |n: u64| Duration::from_millis(n);
        let sorted: Vec<Duration> = (1..=10).map(ms).collect();
        assert_eq!(percentile(&sorted, 50.0), ms(5));
        assert_eq!(percentile(&sorted, 99.0), ms(10));
        assert_eq!(percentile(&sorted, 100.0), ms(10));
        assert_eq!(percentile(&sorted, 0.0), ms(1));
        assert_eq!(percentile(&[ms(7)], 50.0), ms(7));
        assert_eq!(percentile(&[], 99.0), Duration::ZERO);
    }

    #[test]
    fn group_warmup_knob_is_plumbed() {
        let mut c = Criterion::default();
        let mut calls = 0u32;
        {
            let mut g = c.benchmark_group("k");
            g.sample_size(3).warmup_iters(4);
            g.bench_function("f", |b| b.iter(|| calls += 1));
            g.finish();
        }
        assert_eq!(calls, 7);
        assert_eq!(c.results()[0].warmup_iters, 4);
        assert_eq!(c.results()[0].samples, 3);
    }

    #[test]
    fn group_accumulates_results() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(2).throughput(Throughput::Elements(10));
            g.bench_with_input(BenchmarkId::from_parameter(1), &1, |b, &x| {
                b.iter(|| black_box(x + 1))
            });
            g.bench_function("plain", |b| b.iter(|| black_box(2)));
            g.finish();
        }
        c.bench_function("top", |b| b.iter(|| black_box(3)));
        assert_eq!(c.results().len(), 3);
        assert_eq!(c.results()[0].label, "g/1");
        assert_eq!(c.results()[1].label, "g/plain");
        assert_eq!(c.results()[2].label, "top");
    }

    #[test]
    fn black_box_is_identity() {
        assert_eq!(black_box(42), 42);
        let v = vec![1, 2, 3];
        assert_eq!(black_box(v.clone()), v);
    }
}
