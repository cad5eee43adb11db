//! Host steal time: CPU time the hypervisor gave to other guests while this
//! host's CPUs wanted to run. The engines start threads for every phase
//! and join them, so each superstep wakes idle CPUs, and on a busy host a
//! woken CPU waits for the hypervisor; a step timed while steal was high
//! measures the neighbours, not the code. Each timed step (a path's solve
//! set, a serving segment) reads the host's steal share over its own
//! window; a dirty step is run again, and the metrics use the clean
//! samples, or the least-stolen half when fewer than half are clean.

/// Largest share of the host's CPU time that may be stolen while a step
/// runs for its sample to count as clean. Steal is counted in ticks of
/// 10 ms, so a step shorter than ~0.17 s on 2 cores is clean only if no
/// steal tick landed in it. At 7% steal a `lock` or `pipe` solve set
/// already runs 13-30% slower.
pub const STEAL_MAX: f64 = 0.03;

/// Times a dirty step is run again before its dirty sample is kept. Steal
/// comes in bursts of seconds to minutes; when it lasts a whole run, more
/// repeats would only spend the run's time.
pub const MAX_REPEATS: usize = 1;

/// Steal and total CPU jiffies of the whole host so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Jiffies {
    /// Jiffies stolen by the hypervisor.
    pub steal: u64,
    /// Jiffies of every kind, idle included.
    pub total: u64,
}

impl Jiffies {
    /// Read `/proc/stat` (all zero where it cannot be read).
    pub fn now() -> Self {
        Self::parse(&std::fs::read_to_string("/proc/stat").unwrap_or_default())
    }

    /// Parse the aggregate `cpu` line of a `/proc/stat` text: user, nice,
    /// system, idle, iowait, irq, softirq, steal, …
    pub fn parse(stat: &str) -> Self {
        let fields: Vec<u64> = stat
            .lines()
            .find(|l| l.starts_with("cpu "))
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Jiffies {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of the CPU time between `self` and `later` that was stolen
    /// (0 when no tick passed).
    pub fn steal_share(self, later: Jiffies) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// The steal window of one timed step.
pub struct Window(Jiffies);

impl Window {
    /// Start the window now.
    pub fn open() -> Self {
        Window(Jiffies::now())
    }

    /// The host's steal share since [`Window::open`].
    pub fn share(&self) -> f64 {
        self.0.steal_share(Jiffies::now())
    }
}

/// Run `step`, which records its own sample and says whether its window
/// was clean, until one run is clean or `1 + MAX_REPEATS` runs are spent.
/// Returns the number of repeats.
pub fn until_clean(mut step: impl FnMut() -> bool) -> u64 {
    let mut repeats = 0;
    while !step() && repeats < MAX_REPEATS as u64 {
        repeats += 1;
    }
    repeats
}

/// A timed value and the host's steal share while its step ran.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// The measured value.
    pub value: f64,
    /// Steal share of the step's window.
    pub steal: f64,
}

impl Sample {
    /// Whether the steal share stayed at most [`STEAL_MAX`].
    pub fn clean(&self) -> bool {
        self.steal <= STEAL_MAX
    }
}

/// Indices of the steps a metric uses, given each step's steal share:
/// every clean step or, when fewer than half are clean, the least-stolen
/// half (ties in step order). The flag is `true` when dirty steps are
/// among them.
pub fn least_stolen(steal: &[f64]) -> (Vec<usize>, bool) {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let clean = steal.iter().filter(|&&s| s <= STEAL_MAX).count();
    let keep = clean.max(steal.len().div_ceil(2));
    order.truncate(keep);
    (order, keep > clean)
}

/// Median of the [`least_stolen`] samples, and whether dirty ones are
/// among them.
///
/// # Panics
/// On an empty slice.
pub fn least_stolen_median(samples: &[Sample]) -> (f64, bool) {
    let steal: Vec<f64> = samples.iter().map(|s| s.steal).collect();
    let (keep, dirty) = least_stolen(&steal);
    let values: Vec<f64> = keep.iter().map(|&i| samples[i].value).collect();
    (crate::stats::median(&values), dirty)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  100 5 50 800 10 0 3 32 0 0\n\
                        cpu0 50 2 25 400 5 0 1 16 0 0\n\
                        intr 1 2 3\n";

    #[test]
    fn parses_the_aggregate_line() {
        let j = Jiffies::parse(STAT);
        assert_eq!(j.steal, 32);
        assert_eq!(j.total, 1000);
        assert_eq!(Jiffies::parse("garbage"), Jiffies::default());
    }

    #[test]
    fn steal_share_is_stolen_over_elapsed_cpu_time() {
        let a = Jiffies {
            steal: 10,
            total: 1000,
        };
        let b = Jiffies {
            steal: 13,
            total: 1200,
        };
        assert!((a.steal_share(b) - 0.015).abs() < 1e-12);
        assert_eq!(a.steal_share(a), 0.0, "no tick passed");
    }

    #[test]
    fn dirty_steps_repeat_up_to_the_cap() {
        let mut runs = 0;
        assert_eq!(
            until_clean(|| {
                runs += 1;
                runs == 2
            }),
            1
        );
        assert_eq!(runs, 2);
        runs = 0;
        assert_eq!(
            until_clean(|| {
                runs += 1;
                false
            }),
            MAX_REPEATS as u64
        );
        assert_eq!(runs, 1 + MAX_REPEATS);
    }

    #[test]
    fn metrics_use_clean_samples_or_the_least_stolen_half() {
        let s = |value, steal| Sample { value, steal };
        // Half are clean: only they count.
        let mixed = [s(1.0, 0.0), s(9.0, 0.2), s(3.0, STEAL_MAX), s(8.0, 0.05)];
        assert_eq!(least_stolen_median(&mixed), (2.0, false));
        // One of five is clean: the three least stolen count.
        let few = [
            s(9.0, 0.3),
            s(2.0, 0.01),
            s(4.0, 0.08),
            s(7.0, 0.2),
            s(3.0, 0.05),
        ];
        assert_eq!(
            least_stolen(&[0.3, 0.01, 0.08, 0.2, 0.05]),
            (vec![1, 4, 2], true)
        );
        assert_eq!(least_stolen_median(&few), (3.0, true));
        // None is clean.
        let dirty = [s(4.0, 0.1), s(6.0, 0.1), s(5.0, 0.1)];
        assert_eq!(least_stolen_median(&dirty), (5.0, true));
    }
}
