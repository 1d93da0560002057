//! Measurement plumbing: latency samples, spans, the host block and the
//! result line.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Per-transaction latencies of one class (update or read-only), each
/// with the time the transaction finished.
///
/// A failed transaction counts as over every latency limit: it ranks
/// above every committed one, and a percentile that reaches the failures
/// reads the time the failure took.
#[derive(Debug, Default)]
pub struct Latencies {
    samples: Vec<Sample>,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Seconds from the start of the phase to the transaction's end.
    end_s: f64,
    us: f64,
    ok: bool,
}

impl Sample {
    /// Sort key: committed transactions by latency, then failures.
    fn rank_key(&self) -> (bool, f64) {
        (!self.ok, self.us)
    }
}

impl Latencies {
    pub fn ok(&mut self, end_s: f64, us: f64) {
        self.samples.push(Sample {
            end_s,
            us,
            ok: true,
        });
    }

    pub fn fail(&mut self, end_s: f64, us: f64) {
        self.samples.push(Sample {
            end_s,
            us,
            ok: false,
        });
    }

    pub fn issued(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn committed(&self) -> u64 {
        self.samples.iter().filter(|s| s.ok).count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.issued() - self.committed()
    }

    /// Commits that finished within the first `window_s` seconds.
    pub fn committed_by(&self, window_s: f64) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.ok && s.end_s <= window_s)
            .count() as u64
    }

    /// The `p`-quantile in milliseconds (nearest rank); 0 for no samples.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let mut sorted = self.samples.clone();
        if sorted.is_empty() {
            return 0.0;
        }
        sorted.sort_by(|a, b| {
            let (ka, kb) = (a.rank_key(), b.rank_key());
            ka.0.cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
        });
        sorted[nearest_rank(p, sorted.len())].us / 1000.0
    }

    /// Quantiles over the whole phase, for the report.
    pub fn describe(&self) -> String {
        let q: Vec<String> = [0.5, 0.9, 0.99, 0.999, 1.0]
            .iter()
            .map(|&p| format!("{:.3}", self.percentile_ms(p)))
            .collect();
        let mut failed: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| !s.ok)
            .map(|s| s.us)
            .collect();
        format!(
            "p50/p90/p99/p99.9/max {} ms (failures rank last); {} failed, median time to fail {:.3} ms",
            q.join("/"),
            failed.len(),
            median(&mut failed) / 1000.0
        )
    }
}

fn nearest_rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `p`-quantile of `values` (nearest rank); 0 for no samples.
pub fn quantile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[nearest_rank(p, values.len())]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// A traced interval. Spans are recorded around the benchmark's calls into
/// a layer's public API; every span of one logical transaction (all its
/// attempts) carries the same `txn`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    pub txn: u64,
}

pub const ROOT: u32 = u32::MAX;

/// In-memory span store, used from one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: u32, txn: u64) -> u32 {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            txn,
        });
        (spans.len() - 1) as u32
    }

    pub fn close(&self, span: u32) {
        let now = self.now_ns();
        self.spans.borrow_mut()[span as usize].end_ns = now;
    }

    /// Record a span whose interval was measured by the caller.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, parent: u32, txn: u64) {
        let at = |i: Instant| i.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            txn,
        });
    }

    /// Durations in microseconds of every closed span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1000.0)
            .collect()
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }
}

/// Facts about the host and build that every result carries.
pub fn host_block(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"host\": {{\"available_parallelism\": {parallelism}, \"rustc\": {}, \"git_rev\": {}, \
         \"profile\": \"{profile}\", \"os\": \"{}\", \"arch\": \"{}\"}}, \"workload\": \"{workload}\", \
         \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}}}",
        json_str(env!("TXNBENCH_RUSTC_VERSION")),
        json_str(&git_rev()),
        std::env::consts::OS,
        std::env::consts::ARCH,
        u8::from(trace),
    )
}

/// The commit the benchmark runs on, read from `.git` in the working
/// directory (no `git` process, nothing read outside the checkout);
/// `unknown` when the checkout is not a repository.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_owned(),
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Print the human-readable report and then, as the last line, the
/// result object.
pub fn emit(
    host: &str,
    notes: &[String],
    metrics: &[Metric],
    correct: bool,
    attempted: u64,
    failed: u64,
) {
    println!("{host}");
    for note in notes {
        println!("# {note}");
    }
    for m in metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
}
