//! In-memory spans recorded by the traced run around calls into each layer.
//!
//! A span has a name (`layer.call`), a start and an end, the span that was
//! open when it started (its parent), and an id shared by every span of one
//! solve or job. Spans are only appended to a vector while the run executes;
//! the summary and the JSON dump are produced after the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use phigraph_trace::json::quote;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `engine.lock.generate`.
    pub name: &'static str,
    /// Solve or job id shared by all spans of one operation.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (`u64::MAX` while
    /// open).
    pub end_ns: u64,
}

impl Span {
    /// Length of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Total self time and call count of all spans with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Closed spans with this name.
    pub calls: u64,
    /// Sum of their lengths, seconds.
    pub total_s: f64,
    /// Sum of their self times, seconds.
    pub self_s: f64,
}

/// A single-threaded span recorder with an explicit stack of open spans.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx`, which must be the innermost open span.
    pub fn close(&mut self, idx: usize) {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`; returns its result.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Spans) -> R) -> R {
        let idx = self.open(name, id);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Append an already-measured interval.
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every recorded span, in opening order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its length minus the part of its interval
    /// that its children cover (overlapping children are counted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self time and length summed per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self.self_ns();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            if s.end_ns == u64::MAX {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_s += s.dur_ns() as f64 * 1e-9;
            t.self_s += own as f64 * 1e-9;
        }
        out
    }

    /// Every span as one JSON array (`[{"name":..,"id":..,"parent":..,
    /// "start_ns":..,"end_ns":..},..]`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                quote(s.name),
                s.id,
                parent,
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let mut s = Spans::new();
        let root = s.push(span("solve", None, 0, 100));
        let a = s.push(span("engine.generate", Some(root), 10, 40));
        s.push(span("engine.process", Some(root), 50, 70));
        s.push(span("csb.insert", Some(a), 15, 25));
        assert_eq!(s.self_ns(), vec![50, 20, 20, 10]);
        let t = s.totals();
        assert_eq!(t["solve"].calls, 1);
        assert!((t["solve"].self_s - 50e-9).abs() < 1e-15);
        assert!((t["engine.generate"].total_s - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut s = Spans::new();
        let root = s.push(span("job", None, 100, 200));
        s.push(span("serve.exec", Some(root), 120, 160));
        s.push(span("serve.exec", Some(root), 150, 180));
        // Starts before the parent and ends inside it: only 100..110 counts.
        s.push(span("serve.admit", Some(root), 90, 110));
        assert_eq!(s.self_ns()[root], 100 - 60 - 10);
    }

    #[test]
    fn recorder_nests_spans_and_keeps_ids() {
        let mut s = Spans::new();
        let v = s.time("solve", 7, |s| s.time("engine.new", 7, |_| 3));
        assert_eq!(v, 3);
        let all = s.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[0].parent, None);
        assert!(all.iter().all(|x| x.id == 7 && x.end_ns >= x.start_ns));
        assert!(s.self_ns()[0] <= all[0].dur_ns());
        assert!(s.to_json().starts_with("[{\"name\":\"solve\""));
    }
}
