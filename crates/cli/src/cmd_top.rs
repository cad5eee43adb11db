//! `phigraph top` — poll a serving daemon's `--metrics-sock` and render
//! a refreshing per-tenant table (jobs/sec over a sliding window,
//! cumulative outcomes, windowed latency quantiles).
//!
//! Each poll opens one connection; the daemon answers with a full
//! Prometheus exposition and closes. `--raw` prints the exposition text
//! verbatim instead of the table (scripts scrape it that way), `--count
//! N` exits after N frames, `--window` picks which sliding window the
//! rate/quantile columns read (`1s`, `10s`, or `60s`).

use crate::args::Args;
use crate::out::out;
use std::collections::BTreeMap;
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// The flags `top` accepts; any other is an error.
const FLAGS: &[&str] = &["count", "interval", "raw", "window"];

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let sock = args.pos(0, "metrics-socket")?;
    let interval: u64 = args.flag_parse("interval", 2u64)?;
    let count: u64 = args.flag_parse("count", 0u64)?; // 0 = forever
    let window = args.flag_or("window", "10s").to_string();
    let raw = args.has("raw");

    let mut frame = 0u64;
    loop {
        let text = scrape(sock)?;
        let shown = if raw {
            out!("{text}")
        } else {
            // Refresh in place between frames.
            (frame == 0 || out!("\x1b[2J\x1b[H")) && out!("{}", render_table(&text, &window))
        };
        frame += 1;
        // A reader that went away ends the polling, like `--count`.
        if !shown || (count != 0 && frame >= count) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs(interval.max(1)));
    }
}

/// One scrape: connect, read to EOF (the daemon writes the full
/// exposition and closes).
fn scrape(path: &str) -> Result<String, String> {
    let mut s = UnixStream::connect(path).map_err(|e| format!("connect {path}: {e}"))?;
    let mut text = String::new();
    s.read_to_string(&mut text)
        .map_err(|e| format!("read {path}: {e}"))?;
    Ok(text)
}

/// One parsed exposition sample line.
struct Metric {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Metric {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse the sample lines of a Prometheus text exposition (comments and
/// anything unparseable are skipped — `top` renders what it can).
fn parse_prom(text: &str) -> Vec<Metric> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value) = match line.rsplit_once(|c: char| c.is_whitespace()) {
            Some((h, v)) => (h.trim_end(), v),
            None => continue,
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match head.split_once('{') {
            None => (head.to_string(), Vec::new()),
            Some((name, rest)) => {
                let Some(body) = rest.strip_suffix('}') else {
                    continue;
                };
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let Some((k, v)) = pair.split_once('=') else {
                        continue;
                    };
                    labels.push((k.trim().to_string(), v.trim().trim_matches('"').to_string()));
                }
                (name.to_string(), labels)
            }
        };
        out.push(Metric {
            name,
            labels,
            value,
        });
    }
    out
}

/// First sample matching `name` and every `(key, value)` label filter.
fn find(metrics: &[Metric], name: &str, filters: &[(&str, &str)]) -> Option<f64> {
    metrics
        .iter()
        .find(|m| m.name == name && filters.iter().all(|(k, v)| m.label(k) == Some(*v)))
        .map(|m| m.value)
}

/// Render one frame of the per-tenant table from an exposition text.
fn render_table(text: &str, window: &str) -> String {
    let metrics = parse_prom(text);
    let w: &[(&str, &str)] = &[("window", window)];
    let mut out = String::new();
    out.push_str(&format!(
        "phigraph top — window {window} — queued {:.0}, shed {:.0}, epoch {:.0}, swaps {:.0}\n",
        find(&metrics, "phigraph_serve_window_queued", w)
            .or_else(|| find(&metrics, "phigraph_serve_queued", &[]))
            .unwrap_or(0.0),
        find(&metrics, "phigraph_serve_window_shed_level", w)
            .or_else(|| find(&metrics, "phigraph_serve_shed_level", &[]))
            .unwrap_or(0.0),
        find(&metrics, "phigraph_serve_graph_epoch", &[]).unwrap_or(0.0),
        find(&metrics, "phigraph_serve_graph_swaps", &[]).unwrap_or(0.0),
    ));
    for (label, family) in [
        ("wait", "phigraph_serve_window_job_wait_us"),
        ("exec", "phigraph_serve_window_job_exec_us"),
        ("journal", "phigraph_serve_window_journal_append_us"),
    ] {
        let p50 = find(&metrics, family, &[("window", window), ("quantile", "0.5")]);
        let p99 = find(
            &metrics,
            family,
            &[("window", window), ("quantile", "0.99")],
        );
        if let (Some(p50), Some(p99)) = (p50, p99) {
            out.push_str(&format!("{label} µs p50/p99: {p50:.0}/{p99:.0}   "));
        }
    }
    if out.ends_with("   ") {
        out.truncate(out.trim_end().len());
    }
    if !out.ends_with('\n') {
        out.push('\n');
    }

    // Every tenant seen in either the cumulative or the windowed series.
    let mut tenants: BTreeMap<String, ()> = BTreeMap::new();
    for m in &metrics {
        if let Some(t) = m.label("tenant") {
            tenants.insert(t.to_string(), ());
        }
    }
    out.push_str(&format!(
        "{:<16} {:>8} {:>10} {:>10} {:>9}\n",
        "tenant", "jobs/s", "submitted", "completed", "rejected"
    ));
    for tenant in tenants.keys() {
        let t: &[(&str, &str)] = &[("tenant", tenant)];
        let rate = find(
            &metrics,
            "phigraph_serve_window_jobs_per_sec",
            &[("tenant", tenant), ("window", window)],
        );
        out.push_str(&format!(
            "{:<16} {:>8} {:>10.0} {:>10.0} {:>9.0}\n",
            tenant,
            rate.map_or("-".to_string(), |r| format!("{r:.1}")),
            find(&metrics, "phigraph_serve_jobs_submitted", t).unwrap_or(0.0),
            find(&metrics, "phigraph_serve_jobs_completed", t).unwrap_or(0.0),
            find(&metrics, "phigraph_serve_jobs_rejected", t).unwrap_or(0.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# HELP phigraph_serve_queued Jobs waiting in the admission queue.
# TYPE phigraph_serve_queued gauge
phigraph_serve_queued 4
phigraph_serve_graph_epoch 2
phigraph_serve_graph_swaps 1
phigraph_serve_jobs_submitted{tenant=\"gold\"} 120
phigraph_serve_jobs_completed{tenant=\"gold\"} 118
phigraph_serve_jobs_rejected{tenant=\"gold\"} 2
phigraph_serve_window_jobs_per_sec{tenant=\"gold\",window=\"10s\"} 12.5
phigraph_serve_window_queued{window=\"10s\"} 3
phigraph_serve_window_shed_level{window=\"10s\"} 1
phigraph_serve_window_job_wait_us{window=\"10s\",quantile=\"0.5\"} 127
phigraph_serve_window_job_wait_us{window=\"10s\",quantile=\"0.99\"} 901
not a metric line
";

    #[test]
    fn exposition_lines_parse_with_labels() {
        let metrics = parse_prom(SAMPLE);
        assert_eq!(
            find(&metrics, "phigraph_serve_queued", &[]),
            Some(4.0),
            "bare gauge"
        );
        assert_eq!(
            find(
                &metrics,
                "phigraph_serve_window_jobs_per_sec",
                &[("tenant", "gold"), ("window", "10s")]
            ),
            Some(12.5)
        );
        assert_eq!(find(&metrics, "no_such_family", &[]), None);
        assert!(metrics.iter().all(|m| m.name != "not"));
    }

    #[test]
    fn table_carries_rates_quantiles_and_tenant_rows() {
        let table = render_table(SAMPLE, "10s");
        assert!(table.contains("window 10s"), "{table}");
        assert!(table.contains("queued 3"), "windowed queued wins: {table}");
        assert!(table.contains("shed 1"), "{table}");
        assert!(table.contains("wait µs p50/p99: 127/901"), "{table}");
        let gold = table.lines().find(|l| l.starts_with("gold")).unwrap();
        assert!(gold.contains("12.5"), "{gold}");
        assert!(gold.contains("120") && gold.contains("118"), "{gold}");
    }

    #[test]
    fn missing_windows_degrade_to_cumulative_gauges() {
        let table = render_table(
            "phigraph_serve_queued 7\nphigraph_serve_jobs_submitted{tenant=\"a\"} 3\n",
            "10s",
        );
        assert!(table.contains("queued 7"), "{table}");
        let row = table.lines().find(|l| l.starts_with('a')).unwrap();
        assert!(row.contains('-'), "no windowed rate yet: {row}");
    }
}
