//! The open-loop arrival schedule and how its latencies are counted.
//!
//! Jobs are due at fixed intervals from the start of the phase whether or
//! not earlier jobs have finished. A job's latency runs from its *due*
//! time, not from when the generator got round to sending it, so a stall
//! that delays later submissions shows up in their latency. A job that
//! failed, was refused or expired has no receipt and counts as infinitely
//! late.

/// Evenly spaced due times at a fixed offered rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Schedule {
    /// Offered rate, jobs per second.
    pub rate: f64,
    /// Jobs in the phase.
    pub jobs: usize,
}

impl Schedule {
    /// The schedule that offers `rate` jobs per second for `window_s`
    /// seconds.
    pub fn new(rate: f64, window_s: f64) -> Self {
        assert!(rate > 0.0 && window_s >= 0.0, "bad open-loop schedule");
        Schedule {
            rate,
            jobs: (rate * window_s).floor() as usize,
        }
    }

    /// Due time of job `i`, seconds after the phase starts.
    pub fn due_s(&self, i: usize) -> f64 {
        i as f64 / self.rate
    }
}

/// Outcome of one open-loop job, all times in seconds from phase start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// When the job was due.
    pub due_s: f64,
    /// When the generator submitted it.
    pub sent_s: f64,
    /// When its successful result was received (`None` = failed, refused,
    /// expired or cancelled).
    pub receipt_s: Option<f64>,
}

impl Arrival {
    /// Latency from due time to receipt, milliseconds (infinite for a
    /// failed job).
    pub fn latency_ms(&self) -> f64 {
        match self.receipt_s {
            Some(r) => (r - self.due_s).max(0.0) * 1e3,
            None => f64::INFINITY,
        }
    }

    /// How late the generator submitted the job, milliseconds.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent_s - self.due_s).max(0.0) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_jobs_evenly() {
        let s = Schedule::new(40.0, 2.5);
        assert_eq!(s.jobs, 100);
        assert_eq!(s.due_s(0), 0.0);
        assert!((s.due_s(40) - 1.0).abs() < 1e-12);
        assert!((s.due_s(99) - 2.475).abs() < 1e-12);
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // The generator stalled 30 ms before sending; the job then took
        // 10 ms. The user waited 40 ms.
        let a = Arrival {
            due_s: 1.0,
            sent_s: 1.03,
            receipt_s: Some(1.04),
        };
        assert!((a.latency_ms() - 40.0).abs() < 1e-9);
        assert!((a.lateness_ms() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn failed_jobs_are_infinitely_late_and_early_sends_are_not_late() {
        let failed = Arrival {
            due_s: 0.5,
            sent_s: 0.5,
            receipt_s: None,
        };
        assert!(failed.latency_ms().is_infinite());
        assert_eq!(failed.lateness_ms(), 0.0);
        let early = Arrival {
            due_s: 0.5,
            sent_s: 0.4999,
            receipt_s: Some(0.51),
        };
        assert_eq!(early.lateness_ms(), 0.0);
    }
}
