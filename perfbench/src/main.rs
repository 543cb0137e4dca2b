//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats one workload, from NTAPI source to checked results, until
//! `--seconds` have passed (and at least [`MIN_RUNS`] times), then prints
//! the medians.  `--trace 0` reports the end-to-end metrics; `--trace 1`
//! alternates untraced and traced runs and reports the per-layer metrics.
//! The last line of the output is one JSON object.

use ht_asic::exec::ExecMode;
use perfbench::ledger::SpanLog;
use perfbench::pace::{self, Pacer};
use perfbench::report::{self, median, Metric, RunRecord};
use perfbench::workload::{self, Check, Outcome, Slice, Spec, Stepping};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest runs of each kind (untraced, traced) a median is taken over.
const MIN_RUNS: usize = 3;
/// Fewest set-ups the `setup_s` median is taken over.
const MIN_SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Runs the benchmark; `Ok(false)` when an output check failed.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = Spec::named(&args.workload).ok_or_else(|| {
        format!("unknown workload {}; one of {}", args.workload, workload::NAMES.join(", "))
    })?;
    let record = RunRecord::capture(spec.name, args.seed, args.trace);
    println!("record {}", record.json());

    // `ht_core::build` lowers the pipelines into the process-wide default
    // executor.  Build to the interpreter instead and lower with an
    // explicit `set_exec_mode` call to that default, so executor lowering
    // is timed as its own set-up step; the switch ends in the same state.
    let exec = ht_asic::exec::default_mode();
    ht_asic::exec::set_default_mode(ExecMode::Interp);

    let log = args.trace.then(|| Arc::new(SpanLog::new()));
    let mut pacer = Pacer::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut untraced: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Outcome> = Vec::new();
    let mut checks: Vec<Check> = Vec::new();
    loop {
        let trace_this = args.trace && untraced.len() > traced.len();
        let log_this = if trace_this { log.as_ref() } else { None };
        let out = workload::run(&spec, args.seed, exec, log_this, Stepping::Sliced, &mut pacer)?;
        if let Some(first) = untraced.first() {
            checks.push(Check {
                name: "digest_repeats".into(),
                passed: out.digest == first.digest,
                detail: format!("run {} against run 1", untraced.len() + traced.len() + 1),
            });
        }
        checks.extend(out.checks.iter().cloned());
        if trace_this {
            traced.push(out);
        } else {
            untraced.push(out);
        }
        let enough = untraced.len() >= MIN_RUNS && (!args.trace || traced.len() >= MIN_RUNS);
        if enough && start.elapsed() >= budget {
            break;
        }
    }

    let first = &untraced[0];
    println!("digest {:016x}", fnv1a(first.digest.as_bytes()));
    for line in first.digest.lines() {
        println!("  {line}");
    }
    let failed = checks.iter().filter(|c| !c.passed).count() as u64;
    let attempted = checks.len() as u64;
    for c in checks.iter().filter(|c| !c.passed) {
        println!("FAILED {}: {}", c.name, c.detail);
    }
    let runs = untraced.len();
    println!(
        "checks {attempted} run, {failed} failed over {runs} untraced and {} traced runs",
        traced.len()
    );

    // Host times are reported as on an idle host: divided by their run's
    // pace, rates multiplied by it.  The measured figure follows the `/`.
    let pace = median(untraced.iter().map(|o| o.pace));
    // Set-up is short next to a run: top its samples up with set-ups
    // alone, so its median rests on at least `MIN_SETUPS` of them.  The
    // top-ups take the runs' median pace.
    let mut setups: Vec<(f64, f64)> = untraced.iter().map(|o| (o.setup_s, o.pace)).collect();
    while !args.trace && setups.len() < MIN_SETUPS {
        setups.push((workload::setup_s(&spec, args.seed, exec)?, pace));
    }
    let results: Vec<(f64, f64)> = untraced.iter().map(|o| (o.result_s, o.pace)).collect();
    let idle = |v: &[(f64, f64)]| median(v.iter().map(|&(secs, pace)| secs / pace));
    let measured = |v: &[(f64, f64)]| median(v.iter().map(|&(secs, _)| secs));
    let slices: Vec<&Slice> = untraced.iter().flat_map(|o| &o.slices).collect();
    let pps = |f: fn(&Slice) -> f64| median(slices.iter().map(|s| f(s)));
    // The pacer's table is resident all along, so it adds exactly its size
    // to the peak; the program's own peak is what is left.
    let rss = report::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let end_to_end = [
        ("setup_s", "s", idle(&setups), measured(&setups)),
        ("pipeline_pps", "passes/s", pps(Slice::pps), pps(Slice::raw_pps)),
        ("result_s", "s", idle(&results), measured(&results)),
        ("peak_rss_mb", "MB", rss - pace::TABLE_MIB, rss),
    ];
    println!("end-to-end, median of {runs} untraced runs at pace {pace:.4}; measured after /:");
    for (name, unit, value, measured) in end_to_end {
        println!("  {name:<20} {value:>18.6} {unit} / {measured:.6}");
    }
    let fail_ratio = Metric::new("fail_ratio", "ratio", failed as f64 / attempted as f64);
    for m in [&fail_ratio, &first.fidelity] {
        println!("  {:<20} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let end_to_end: Vec<Metric> =
        end_to_end.iter().map(|&(name, unit, value, _)| Metric::new(name, unit, value)).collect();

    let reported = if args.trace {
        let layers: Vec<&[Metric]> = traced.iter().map(|o| o.layers.as_slice()).collect();
        let mut per_layer = report::medians(&layers);
        let traced_pps = median(traced.iter().flat_map(|o| o.slices.iter().map(Slice::pps)));
        per_layer.push(Metric::new(
            "trace.overhead_pct",
            "%",
            (pps(Slice::pps) / traced_pps - 1.0) * 100.0,
        ));
        println!("per layer, median of {} traced runs:", traced.len());
        for m in &per_layer {
            println!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
        }
        per_layer
    } else {
        end_to_end
    };

    if let Some(log) = &log {
        let path = write_trace(&record, &log.spans(), &args)?;
        println!("spans written to {path}");
    }
    // A run whose checks fail reports no metric as valid.
    let metrics: &[Metric] = if failed == 0 { &reported } else { &[] };
    println!("{}", report::result_line(failed == 0, attempted, failed, metrics));
    Ok(failed == 0)
}

/// Writes the run record and spans next to the benchmark's sources.
fn write_trace(
    record: &RunRecord,
    spans: &[perfbench::ledger::Span],
    args: &Args,
) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.seed);
    let body =
        format!("{{\"record\": {},\n\"spans\": {}}}\n", record.json(), report::spans_json(spans));
    std::fs::write(&path, body).map_err(|e| format!("write {path}: {e}"))?;
    Ok(path)
}

/// 64-bit FNV-1a, the digest's short form.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}
