//! The three tester workloads, each run from NTAPI source text to checked
//! results through the crates' public APIs.
//!
//! Set-up calls the public steps one by one (resolve, lower, build,
//! executor lowering, template injection) so each is timed on its own.
//! The simulated warm-up (template injection and accelerator ramp) is
//! excluded from the window; the window is stepped as `run_until` slices.

use crate::ledger::{DeviceLedger, DeviceTotals, SpanLog, Timed};
use crate::pace::{Pacer, IDLE_S};
use crate::report::Metric;
use ht_asic::exec::ExecMode;
use ht_asic::phv::fields;
use ht_asic::sim::{metrics, Device, DeviceKind, Outbox};
use ht_asic::switch::SwitchCounters;
use ht_asic::time::{ms, us, SimTime, PS_PER_SEC};
use ht_asic::{LinkSpec, SimPacket, Switch, World};
use ht_core::{distinct_count, Gbps, TesterConfig};
use ht_cpu::SwitchCpu;
use ht_dut::{Sink, TcpResponder};
use ht_ntapi::{lower_with, resolve_str, CompileOptions, CompiledTask, MemLoader};
use ht_packet::tcp::TcpFlags;
use ht_packet::wire::{l1_rate_bps, line_rate_pps, wire_time_ps};
use ht_stats::ErrorMetrics;
use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["synflood_4x100g", "ratectl_40g", "scan_2m"];

const COMMON: &str = include_str!("../tasks/common.nt");

/// Per-port L1 rate tolerance of the Fig. 9 line-rate check.
const LINE_RATE_TOL: f64 = 0.02;
/// Aggregate L1 tolerance of the Fig. 10 multi-port check, in Gb/s.
const AGGREGATE_TOL_GBPS: f64 = 2.0;
/// HyperTester's MAE at 1 Mpps, 64 B, 40G, as EXPERIMENTS.md records for
/// Fig. 11 (ns).
const FIG11_MAE_NS: f64 = 4.81;
/// Allowed relative distance of a seed's MAE from the recorded one: the
/// seed moves the switch's jitter stream, not the mechanism.
const FIG11_MAE_TOL: f64 = 0.05;

/// Rate of the rate-control workload, packets per second.
const RATECTL_PPS: u64 = 1_000_000;
/// The scanned block, 10.0.0.0/11: first address and length.
const SCAN_BASE: u32 = 0x0a00_0000;
const SCAN_LEN: u32 = 1 << 21;
/// Addresses the sweep probes: the block without its network and
/// broadcast addresses.
const SCAN_PROBES: u64 = SCAN_LEN as u64 - 2;
/// One address in this many answers the scan.
const SCAN_LIVE_ONE_IN: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SynFlood,
    RateCtl,
    Scan,
}

/// A workload: its NTAPI task, tester shape and simulated schedule.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    kind: Kind,
    source: &'static str,
    /// Simulated warm-up before the window (template injection and the
    /// accelerator ramp), in picoseconds.
    warmup: SimTime,
    /// Simulated measurement window, in picoseconds.
    window: SimTime,
    /// Number of `run_until` slices the window is stepped in.
    pub slices: u32,
}

impl Spec {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Spec> {
        let (name, kind, source, window) = match name {
            "synflood_4x100g" => {
                (NAMES[0], Kind::SynFlood, include_str!("../tasks/synflood_4x100g.nt"), ms(2))
            }
            "ratectl_40g" => {
                (NAMES[1], Kind::RateCtl, include_str!("../tasks/ratectl_40g.nt"), ms(30))
            }
            // Probes leave about every 142 ns, not 100: the timer fires on
            // the first of 12 circulating templates to arrive after the
            // interval.  The sweep of 2^21 addresses so takes ≈ 298 ms;
            // the window ends after the last replies are back.
            "scan_2m" => (NAMES[2], Kind::Scan, include_str!("../tasks/scan_2m.nt"), ms(305)),
            _ => return None,
        };
        // The scan's window is the longest; more slices pace it more finely.
        let slices = if kind == Kind::Scan { 32 } else { 8 };
        Some(Spec { name, kind, source, warmup: ms(1), window, slices })
    }

    /// Tester ports and their speed, Gb/s.
    fn ports(&self) -> (u16, u64) {
        match self.kind {
            Kind::SynFlood => (4, 100),
            Kind::RateCtl => (1, 40),
            Kind::Scan => (1, 100),
        }
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The values compared.
    pub detail: String,
}

/// Everything one run of a workload measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host seconds from source text to a ready world.
    pub setup_s: f64,
    /// Host seconds from source text to checked results, less the time
    /// the pace kernel took.
    pub result_s: f64,
    /// The window's slices.
    pub slices: Vec<Slice>,
    /// The median pace of the slices: the run's host times divided by it
    /// read as on an idle host.
    pub pace: f64,
    /// Canonical text of the simulated outputs.
    pub digest: String,
    /// Output checks.
    pub checks: Vec<Check>,
    /// The workload's simulated fidelity figure (`line_rate_err_pct`,
    /// `ipg_mae_ns` or `query_err`).
    pub fidelity: Metric,
    /// Per-layer metrics; empty unless the run was traced.
    pub layers: Vec<Metric>,
}

/// One `run_until` slice of the window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Switch ingress passes (recirculations included).
    pub passes: u64,
    /// Host seconds spent in the slice's `World::run_until`.
    pub secs: f64,
    /// The host's pace around the slice (see [`crate::pace`]).
    pub pace: f64,
}

impl Slice {
    /// Switch ingress passes per host second, as on an idle host.
    pub fn pps(&self) -> f64 {
        self.passes as f64 / self.secs * self.pace
    }

    /// Switch ingress passes per host second, as measured.
    pub fn raw_pps(&self) -> f64 {
        self.passes as f64 / self.secs
    }
}

/// How a run steps its window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepping {
    /// In the spec's `run_until` slices.
    Sliced,
    /// In one `run_until` call.
    Whole,
}

/// Times closures, recording each as a span when tracing.
struct Clock<'a> {
    log: Option<&'a SpanLog>,
    parent: u32,
}

impl Clock<'_> {
    fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let v = f();
        let end = Instant::now();
        if let Some(log) = self.log {
            log.record(self.parent, name, start, end);
        }
        (v, end.duration_since(start).as_secs_f64())
    }
}

/// Host seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    parse: f64,
    lower: f64,
    build: f64,
    exec: f64,
    inject: f64,
    total: f64,
}

/// A world ready to run, and what set-up learned on the way.
struct Testbed {
    world: World,
    sw: usize,
    peer: usize,
    handles: ht_core::TaskHandles,
    task: CompiledTask,
    passes: ht_ir::PassTrace,
    ledgers: Vec<Arc<DeviceLedger>>,
    times: SetupTimes,
}

/// Set-up: source text to a ready world, one public step at a time.
fn setup(
    spec: &Spec,
    seed: u64,
    exec: ExecMode,
    log: Option<&Arc<SpanLog>>,
    clock: &Clock<'_>,
) -> Result<Testbed, String> {
    let t0 = Instant::now();
    // 1. resolve/parse.
    let loader = MemLoader { files: [("common.nt".to_string(), COMMON.to_string())].into() };
    let (program, parse) =
        clock.time("parse", || resolve_str(spec.source, spec.name, &loader, &[]));
    let program = program.map_err(|e| format!("resolve: {e}"))?;
    // 2. lower; the compiled task is assembled from the lowered module.
    let options = CompileOptions::default();
    let (lowered, lower) = clock.time("lower", || lower_with(&program, options, None));
    let (ir, passes, report) = lowered.map_err(|e| format!("lower: {e}"))?;
    let task = CompiledTask { ir, program, options, warnings: report.diagnostics };
    // 3. build.
    let (ports, speed_gbps) = spec.ports();
    let cfg = TesterConfig::builder()
        .seed(seed)
        .ports(ports)
        .speed(Gbps(speed_gbps))
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let (built, build) = clock.time("build", || ht_core::build(&task, &cfg));
    let mut built = built.map_err(|e| format!("build: {e}"))?;
    // 4. executor lowering.
    let ((), exec) = clock.time("exec_lower", || built.switch.set_exec_mode(exec));
    // 5. the world and template injection.
    let speed_bps = Gbps(speed_gbps).bps();
    let copies = match spec.kind {
        Kind::SynFlood => built.copies_for_line_rate(0, speed_bps),
        // Fig. 11 fills the accelerator to capacity.
        Kind::RateCtl => ht_asic::timing::accelerator_capacity(task.templates[0].frame_len),
        Kind::Scan => built.copies_for_interval(0, speed_bps),
    };
    let templates = built.template_copies(0, copies);
    let mut world = World::builder().seed(seed).build().map_err(|e| format!("world: {e}"))?;
    let mut ledgers = Vec::new();
    let mut add = |world: &mut World, dev: Box<dyn Device>, label: &'static str| match log {
        Some(log) => {
            let (timed, ledger) = Timed::wrap(dev, label, log.clone());
            ledgers.push(ledger);
            world.add_device(Box::new(timed))
        }
        None => world.add_device(dev),
    };
    let sw = add(&mut world, Box::new(built.switch), "switch");
    let peer = match spec.kind {
        Kind::SynFlood => add(&mut world, Box::new(Sink::new("victim")), "sink"),
        Kind::RateCtl => add(&mut world, Box::new(Sink::new("sink").logging_arrivals()), "sink"),
        Kind::Scan => add(&mut world, Box::new(Hosts::new(seed)), "responder"),
    };
    // Probes cross a 1 µs link; the sinks sit on the wire.
    let link = if spec.kind == Kind::Scan { LinkSpec::new().delay(us(1)) } else { LinkSpec::new() };
    for p in 0..ports {
        world.link((sw, p), (peer, p), link);
    }
    let (_, inject) =
        clock.time("inject", || SwitchCpu::new().inject_templates(&mut world, sw, templates, 0));
    let total = t0.elapsed().as_secs_f64();
    let times = SetupTimes { parse, lower, build, exec, inject, total };
    Ok(Testbed { world, sw, peer, handles: built.handles, task, passes, ledgers, times })
}

/// Host seconds one untraced set-up of `spec` takes.
pub fn setup_s(spec: &Spec, seed: u64, exec: ExecMode) -> Result<f64, String> {
    let clock = Clock { log: None, parent: 0 };
    Ok(setup(spec, seed, exec, None, &clock)?.times.total)
}

/// Runs `spec` once with `seed`, with `pacer` gauging the host's pace
/// around each slice.  With `log`, every device is wrapped in [`Timed`]
/// and the per-layer metrics are filled in.
pub fn run(
    spec: &Spec,
    seed: u64,
    exec: ExecMode,
    log: Option<&Arc<SpanLog>>,
    stepping: Stepping,
    pacer: &mut Pacer,
) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let root = log.map_or(0, |l| l.begin());
    let clock = Clock { log: log.map(|l| &**l), parent: root };
    let Testbed { mut world, sw, peer, handles, task, passes: pass_trace, ledgers, times } =
        setup(spec, seed, exec, log, &clock)?;

    clock.time("warmup", || world.run_until(spec.warmup));
    let mut sink_warmup_frames = 0;
    if spec.kind != Kind::Scan {
        let sink = world.device_mut::<Sink>(peer);
        sink_warmup_frames = sink.total_frames();
        sink.reset();
    }
    let c0 = world.device::<Switch>(sw).counters;
    let events0 = world.stats.events;
    let prof0 = metrics::profile_snapshot();
    let dev0: Vec<DeviceTotals> = ledgers.iter().map(|l| l.totals()).collect();
    let device_nanos = || -> u64 { ledgers.iter().map(|l| l.totals().nanos).sum() };

    let n = if stepping == Stepping::Sliced { spec.slices } else { 1 };
    let mut slices = Vec::with_capacity(n as usize);
    let mut kernel_s = 0.0;
    let mut engine_self_ns: i128 = 0;
    let mut min_slice_engine_ns = i128::MAX;
    for i in 1..=n {
        let t_end = spec.warmup + spec.window * u64::from(i) / u64::from(n);
        let id = log.map_or(0, |l| l.begin());
        let rx0 = world.device::<Switch>(sw).counters.rx_frames;
        let dev_ns0 = device_nanos();
        let k0 = pacer.kernel_s();
        let start = Instant::now();
        world.run_until(t_end);
        let end = Instant::now();
        let k1 = pacer.kernel_s();
        kernel_s += k0 + k1;
        let elapsed = end.duration_since(start);
        slices.push(Slice {
            passes: world.device::<Switch>(sw).counters.rx_frames - rx0,
            secs: elapsed.as_secs_f64(),
            pace: (k0 + k1) / 2.0 / IDLE_S,
        });
        if let Some(l) = log {
            l.close(id, root, format!("slice{i}"), start, end);
            l.enter(root);
        }
        let engine_ns = elapsed.as_nanos() as i128 - i128::from(device_nanos() - dev_ns0);
        engine_self_ns += engine_ns;
        min_slice_engine_ns = min_slice_engine_ns.min(engine_ns);
    }
    let counters = world.device::<Switch>(sw).counters;
    let passes = counters.rx_frames - c0.rx_frames;
    let events = world.stats.events - events0;
    let prof = metrics::profile_snapshot().delta_since(&prof0);
    let peak_queue = world.peak_queue_depth();
    let dev: Vec<(&DeviceLedger, DeviceTotals)> =
        ledgers.iter().zip(&dev0).map(|(l, &d0)| (&**l, l.totals().since(d0))).collect();

    let (collected, collect_s) = clock.time("collect", || match spec.kind {
        Kind::Scan => Collected::Scan {
            q1: distinct_count(world.device::<Switch>(sw), &handles.queries["Q1"]),
        },
        _ => Collected::Sink(SinkStats::of(world.device(peer))),
    });

    let mut digest = String::new();
    let mut checks = Vec::new();
    let fidelity = match collected {
        Collected::Sink(sink) => {
            digest.push_str(&sink.digest());
            let (ports, speed_gbps) = spec.ports();
            let speed_bps = Gbps(speed_gbps).bps();
            let frame_len = task.templates[0].frame_len;
            if spec.kind == Kind::SynFlood {
                let wire = wire_time_ps(frame_len, speed_bps);
                let owed = counters.tx_frames;
                let received = sink_warmup_frames + sink.frames();
                let drain_end =
                    spec.warmup + spec.window + owed.saturating_sub(received) * wire + us(2);
                let counts = (sink_warmup_frames, owed);
                checks.push(check_delivery(&mut world, (sw, peer), drain_end, wire, counts));
                check_line_rate(&sink, ports, frame_len, speed_bps, &mut checks)
            } else {
                check_rate_control(&sink, spec.window, &mut checks)
            }
        }
        Collected::Scan { q1 } => {
            let hosts: &Hosts = world.device(peer);
            let truth = hosts.live;
            digest.push_str(&format!(
                "query Q1={q1}\nresponder probes={} live={} syns={} replies={}\n",
                hosts.probes, hosts.live, hosts.inner.stats.syns, hosts.replies
            ));
            checks.push(Check {
                name: "scan_covers_block".into(),
                passed: hosts.probes == SCAN_PROBES,
                detail: format!("{} probes of {SCAN_PROBES} addresses", hosts.probes),
            });
            checks.push(Check {
                name: "q1_equals_truth".into(),
                passed: q1 == truth,
                detail: format!("Q1 {q1}, responders {truth}"),
            });
            Metric::new("query_err", "keys", q1.abs_diff(truth) as f64)
        }
    };
    digest.push_str(&counters_digest(&counters));
    digest.push_str(&format!(
        "{} {}
",
        fidelity.name, fidelity.value
    ));
    let result_s = t0.elapsed().as_secs_f64() - kernel_s;
    if let Some(l) = log {
        l.close(root, 0, format!("run {}", spec.name), t0, Instant::now());
    }

    let mut layers = Vec::new();
    if log.is_some() {
        let run_s: f64 = slices.iter().map(|s| s.secs).sum();
        let device_self_ns: u64 = dev.iter().map(|(_, d)| d.nanos).sum();
        let calls: u64 = dev.iter().map(|(_, d)| d.calls).sum();
        let mut push = |n: &str, u: &'static str, v: f64| layers.push(Metric::new(n, u, v));

        push("ntapi.parse_s", "s", times.parse);
        push("ntapi.lower_s", "s", times.lower);
        for p in &pass_trace.runs {
            push(&format!("ntapi.pass.{}_s", p.name), "s", p.duration.as_secs_f64());
        }
        let fp = task.queries.iter().filter_map(|q| q.fp.as_ref());
        let fp_keys: usize = fp.clone().map(|f| f.space_size).sum();
        let fp_entries: usize = fp.map(|f| f.entries.len()).sum();
        let query_lowering_s = pass_trace
            .runs
            .iter()
            .find(|p| p.name == "query-lowering")
            .map_or(0.0, |p| p.duration.as_secs_f64());
        push("fp.keys", "count", fp_keys as f64);
        push("fp.exact_entries", "count", fp_entries as f64);
        push("fp.ns_per_key", "ns", per(query_lowering_s * 1e9, fp_keys as f64));
        push("core.build_s", "s", times.build);
        push("exec.lower_s", "s", times.exec);
        push("exec.ops_retired", "count", prof.ops_retired as f64);
        push("exec.ops_per_pass", "ops", per(prof.ops_retired as f64, passes as f64));
        push("cpu.inject_s", "s", times.inject);
        push("cpu.collect_s", "s", collect_s);

        push("sim.run_s", "s", run_s);
        push("sim.engine_self_s", "s", engine_self_ns as f64 / 1e9);
        push("sim.events", "count", events as f64);
        push("sim.ns_per_event", "ns", per(run_s * 1e9, events as f64));
        push("sim.peak_queue", "events", peak_queue as f64);
        push("sim.batch_mean", "events", per(events as f64, calls as f64));
        for kind in DeviceKind::ALL {
            let n: u64 = dev.iter().filter(|(l, _)| l.kind == kind).map(|(_, d)| d.items).sum();
            push(&format!("sim.events_{}", kind.name()), "count", n as f64);
        }

        let of = |label: &str| {
            dev.iter().find(|(l, _)| l.label == label).map_or(DeviceTotals::default(), |d| d.1)
        };
        let secs = |d: DeviceTotals| d.nanos as f64 / 1e9;
        let delta = |a: u64, b: u64| (a - b) as f64;
        let switch = of("switch");
        push("switch.self_s", "s", secs(switch));
        push("switch.calls", "count", switch.calls as f64);
        push("switch.passes", "count", passes as f64);
        push("switch.ns_per_pass", "ns", per(switch.nanos as f64, passes as f64));
        push("switch.recirculations", "count", delta(counters.recirculations, c0.recirculations));
        push("switch.mcast_replicas", "count", delta(counters.mcast_replicas, c0.mcast_replicas));
        let tx = delta(counters.tx_frames, c0.tx_frames);
        push("switch.tx_frames", "count", tx);
        let drops = |c: &SwitchCounters| c.ingress_drops + c.egress_drops;
        push("switch.drops", "count", delta(drops(&counters), drops(&c0)));
        push("switch.tx_per_pass", "ratio", per(tx, passes as f64));
        let sink = of("sink");
        push("sink.self_s", "s", secs(sink));
        push("sink.frames", "count", sink.items as f64);
        let replies = if spec.kind == Kind::Scan { world.device::<Hosts>(peer).replies } else { 0 };
        push("responder.self_s", "s", secs(of("responder")));
        push("responder.replies", "count", replies as f64);

        // Ledger consistency.  Devices are only called inside the slices,
        // so the engine's share of a slice can't be negative, and over the
        // window the engine's and the devices' self times add up to the
        // slices' time.  Each `Instant` reading may be off by its
        // resolution, taken here as 1 µs.
        let resolution_ns = 1_000;
        let ledger_sum = engine_self_ns + i128::from(device_self_ns);
        let run_ns = slices.iter().map(|s| (s.secs * 1e9) as i128).sum::<i128>();
        checks.push(Check {
            name: "ledger_adds_up".into(),
            passed: (ledger_sum - run_ns).abs() <= i128::from(n) * resolution_ns,
            detail: format!("engine + devices {ledger_sum} ns, slices {run_ns} ns"),
        });
        checks.push(Check {
            name: "ledger_self_times_nonnegative".into(),
            passed: min_slice_engine_ns >= -resolution_ns,
            detail: format!("smallest engine self time of a slice {min_slice_engine_ns} ns"),
        });
    }

    let pace = crate::report::median(slices.iter().map(|s| s.pace));
    Ok(Outcome { setup_s: times.total, result_s, slices, pace, digest, checks, fidelity, layers })
}

/// `a / b`, or 0 when there is nothing to divide by.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn counters_digest(c: &SwitchCounters) -> String {
    format!(
        "switch rx={} tx={} ingress_drops={} egress_drops={} recirculations={} mcast_replicas={}\n",
        c.rx_frames,
        c.tx_frames,
        c.ingress_drops,
        c.egress_drops,
        c.recirculations,
        c.mcast_replicas
    )
}

enum Collected {
    Sink(SinkStats),
    Scan { q1: u64 },
}

/// A sink's per-port statistics and arrival logs, sorted by port.
struct SinkStats {
    ports: Vec<(u16, ht_dut::sink::PortStats)>,
    gaps_ns: Vec<f64>,
}

impl SinkStats {
    fn of(sink: &Sink) -> SinkStats {
        let mut ports: Vec<_> = sink.ports.iter().map(|(&p, s)| (p, s.clone())).collect();
        ports.sort_by_key(|&(p, _)| p);
        SinkStats { ports, gaps_ns: sink.inter_arrivals_ns(0) }
    }

    fn digest(&self) -> String {
        self.ports
            .iter()
            .map(|(p, s)| format!("sink port={p} frames={} bytes={}\n", s.frames, s.bytes))
            .collect()
    }

    fn frames(&self) -> u64 {
        self.ports.iter().map(|(_, s)| s.frames).sum()
    }
}

/// Fig. 9/10 checks: every port at line rate, and all the frames the
/// switch serialized reached the sink.  Returns `line_rate_err_pct`.
fn check_line_rate(
    sink: &SinkStats,
    ports: u16,
    frame_len: usize,
    speed_bps: u64,
    checks: &mut Vec<Check>,
) -> Metric {
    let mut worst: f64 = 0.0;
    let mut total_l1 = 0.0;
    let line_pps = line_rate_pps(frame_len, speed_bps);
    for p in 0..ports {
        let pps = sink.ports.iter().find(|(q, _)| *q == p).map_or(0.0, |(_, s)| s.pps());
        let l1 = l1_rate_bps(frame_len, pps);
        total_l1 += l1;
        let err = (pps - line_pps).abs() / line_pps;
        worst = worst.max((l1 - speed_bps as f64).abs() / speed_bps as f64);
        checks.push(Check {
            name: format!("line_rate_port{p}"),
            passed: err < LINE_RATE_TOL,
            detail: format!("{:.3} of line {:.3} Mpps", pps / 1e6, line_pps / 1e6),
        });
    }
    let want = ports as f64 * speed_bps as f64;
    checks.push(Check {
        name: "line_rate_aggregate".into(),
        passed: (total_l1 - want).abs() < AGGREGATE_TOL_GBPS * 1e9,
        detail: format!("{:.2} of {:.0} Gb/s L1", total_l1 / 1e9, want / 1e9),
    });
    Metric::new("line_rate_err_pct", "%", worst * 100.0)
}

/// Every frame the switch serialized reaches the sink.  The switch counts
/// a frame when it enters the MAC queue, the sink when its last bit
/// arrives, and a line-rate generator keeps a backlog queued between the
/// two.  So after the window the world runs on to `drain_end`, past the
/// time that backlog needs to drain, with the switch's transmit trace on.
/// The sink's count since the start must then equal the `owed` frames
/// the switch had counted at the window's end plus the frames serialized
/// since whose last bit is out.  The last argument is `(frames the sink
/// received before its reset, owed)`.
fn check_delivery(
    world: &mut World,
    (sw, sink): (usize, usize),
    drain_end: SimTime,
    wire: SimTime,
    (before_reset, owed): (u64, u64),
) -> Check {
    world.device_mut::<Switch>(sw).trace.tx = true;
    world.run_until(drain_end);
    let log = &world.device::<Switch>(sw).log.tx;
    let later = log.iter().filter(|r| r.at + wire <= drain_end).count() as u64;
    let arrived = before_reset + world.device::<Sink>(sink).total_frames();
    Check {
        name: "sink_frames_equal_tx".into(),
        passed: arrived == owed + later,
        detail: format!("sink {arrived} frames, switch tx {owed} + {later} after the window"),
    }
}

/// Fig. 11 checks: inter-arrival error as recorded, and one frame per
/// interval.  Returns `ipg_mae_ns`.
fn check_rate_control(sink: &SinkStats, window: SimTime, checks: &mut Vec<Check>) -> Metric {
    let interval_ns = 1e9 / RATECTL_PPS as f64;
    let mae = ErrorMetrics::against_target(&sink.gaps_ns, interval_ns).map_or(f64::NAN, |e| e.mae);
    checks.push(Check {
        name: "ipg_mae_as_fig11".into(),
        passed: (mae - FIG11_MAE_NS).abs() <= FIG11_MAE_NS * FIG11_MAE_TOL,
        detail: format!("MAE {mae:.3} ns, Fig. 11 {FIG11_MAE_NS} ns"),
    });
    // Departures wait for the next template arrival, so each gap may run
    // long by the recorded per-gap error; the frame count may fall short of
    // rate × window by that share.
    let want = RATECTL_PPS * window / PS_PER_SEC;
    let slack = want as f64 * FIG11_MAE_NS * (1.0 + FIG11_MAE_TOL) / interval_ns + 1.0;
    checks.push(Check {
        name: "frames_match_rate".into(),
        passed: (sink.frames().abs_diff(want) as f64) <= slack,
        detail: format!("{} frames, rate x window {want} ± {slack:.0}", sink.frames()),
    });
    Metric::new("ipg_mae_ns", "ns", mae)
}

/// The scanned hosts: the repository's stateless TCP responder answers
/// the probes to a seed-chosen subset of the block; probes to other
/// addresses go unanswered, as to hosts that do not exist.
pub struct Hosts {
    inner: TcpResponder,
    seed: u64,
    answered: Vec<u64>,
    /// SYN probes received.
    pub probes: u64,
    /// Distinct addresses answered: the ground truth of Q1.
    pub live: u64,
    /// Replies the responder emitted.
    pub replies: u64,
}

impl Hosts {
    fn new(seed: u64) -> Self {
        Hosts {
            // Replies leave 500 ns after the probe arrives.
            inner: TcpResponder::new("hosts", 500_000),
            seed,
            answered: vec![0; (SCAN_LEN / 64) as usize],
            probes: 0,
            live: 0,
            replies: 0,
        }
    }

    fn is_live(&self, addr: u32) -> bool {
        splitmix64(self.seed ^ u64::from(addr)).is_multiple_of(SCAN_LIVE_ONE_IN)
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Device for Hosts {
    fn name(&self) -> &str {
        "hosts"
    }

    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
        let flags = TcpFlags(pkt.phv.get(fields::TCP_FLAGS) as u8);
        if !flags.contains(TcpFlags::SYN) || flags.contains(TcpFlags::ACK) {
            return;
        }
        self.probes += 1;
        let dst = pkt.phv.get(fields::IPV4_DST) as u32;
        let Some(idx) = dst.checked_sub(SCAN_BASE).filter(|&i| i < SCAN_LEN) else { return };
        if !self.is_live(dst) {
            return;
        }
        let (word, bit) = ((idx / 64) as usize, 1u64 << (idx % 64));
        if self.answered[word] & bit == 0 {
            self.answered[word] |= bit;
            self.live += 1;
        }
        let before = out.emits.len();
        self.inner.rx(port, pkt, now, out);
        self.replies += (out.emits.len() - before) as u64;
    }

    fn device_kind(&self) -> DeviceKind {
        self.inner.device_kind()
    }

    fn lookahead(&self) -> SimTime {
        self.inner.lookahead()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
