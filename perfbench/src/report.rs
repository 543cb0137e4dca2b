//! Metrics, the run record, and the benchmark's output formats.

use crate::ledger::Span;
use std::fmt::Write as _;
use std::process::Command;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `pipeline_pps` or `switch.ns_per_pass`.
    pub name: String,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric { name: name.to_string(), unit, value }
    }
}

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
/// Panics when `values` is empty.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    assert!(!v.is_empty(), "median of no values");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-name medians over runs that report the same metrics, in the first
/// run's order.
pub fn medians(runs: &[&[Metric]]) -> Vec<Metric> {
    let Some(first) = runs.first() else { return Vec::new() };
    first
        .iter()
        .map(|m| {
            let values =
                runs.iter().filter_map(|r| r.iter().find(|x| x.name == m.name).map(|x| x.value));
            Metric { value: median(values), ..m.clone() }
        })
        .collect()
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host and build a set of numbers was measured on.  Numbers from
/// runs whose records differ are not comparable.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// `(key, value)` pairs in print order.
    pub fields: Vec<(&'static str, String)>,
}

impl RunRecord {
    /// Reads the host, toolchain and program defaults in effect.
    pub fn capture(workload: &str, seed: u64, trace: bool) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let output = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".into())
        };
        let fields = vec![
            ("workload", workload.to_string()),
            ("seed", seed.to_string()),
            ("trace", u8::from(trace).to_string()),
            ("cpu", cpu),
            ("nproc", nproc.to_string()),
            ("rustc", output("rustc", &["-V"])),
            ("commit", output("git", &["rev-parse", "HEAD"])),
            ("exec_mode", ht_asic::exec::default_mode().to_string()),
            ("queue", format!("{:?}", ht_asic::QueueKind::default())),
            ("sim_threads", format!("{:?}", ht_asic::SimThreads::default())),
            ("extra_engine_threads", ht_asic::parallel::budget::available().to_string()),
        ];
        RunRecord { fields }
    }

    /// The record as one JSON object.
    pub fn json(&self) -> String {
        let body: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values have no JSON form and become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": u}, …}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark ends its output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// The spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let body: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                quote(&s.name),
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!("[{}]", body.join(",\n"))
}
