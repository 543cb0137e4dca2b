//! The MoonGen-like software packet generator.
//!
//! Throughput model (§2.2, Figs. 9–10): a DPDK core crafts and enqueues
//! packets at a fixed per-packet CPU cost — "MoonGen can generate up to
//! 80 Gbps small-sized packets with eight cores", i.e. ≈10 Gbps of 64-byte
//! frames (≈14.9 Mpps) per core.  A core's output is further capped by its
//! NIC port's line rate.
//!
//! [`MoonGen`] is also a simulation [`Device`]: it paces packets with the
//! configured rate-control mode and emits them into the world, so software
//! and switch testers run in identical testbeds.

use crate::ratectl::{draw_gap, RateControlMode};
use ht_asic::phv::{fields, FieldTable};
use ht_asic::sim::{Device, Outbox};
use ht_asic::time::{SimTime, PS_PER_SEC};
use ht_asic::SimPacket;
use ht_packet::wire;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;

/// Per-packet CPU cost of one DPDK generator core, in picoseconds.
///
/// Calibrated so one core generates ≈14.9 Mpps of 64-byte frames — 10 Gbps,
/// matching Fig. 10(b)'s one-core-per-10G scaling.
pub const PER_PACKET_CPU_PS: u64 = 67_000;

/// Software tester configuration.
#[derive(Debug, Clone)]
pub struct MoonGenConfig {
    /// Generator cores (each drives its own port queue).
    pub cores: usize,
    /// NIC port speed per core, bits/s.
    pub port_speed_bps: u64,
    /// Frame length generated.
    pub frame_len: usize,
    /// Target inter-departure gap per core (ps); `None` = as fast as the
    /// core + wire allow.
    pub interval: Option<SimTime>,
    /// Rate-control mode.
    pub rate_control: RateControlMode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MoonGenConfig {
    fn default() -> Self {
        MoonGenConfig {
            cores: 1,
            port_speed_bps: wire::gbps(10),
            frame_len: 64,
            interval: None,
            rate_control: RateControlMode::Hardware,
            seed: 11,
        }
    }
}

/// Maximum packet rate of one core for a frame length, packets/s:
/// the CPU crafting rate capped by the port's line rate.
pub fn core_pps(cfg: &MoonGenConfig) -> f64 {
    let cpu_pps = PS_PER_SEC as f64 / PER_PACKET_CPU_PS as f64;
    cpu_pps.min(wire::line_rate_pps(cfg.frame_len, cfg.port_speed_bps))
}

/// Aggregate L2 throughput of the configured tester at full load, bits/s.
pub fn aggregate_l2_bps(cfg: &MoonGenConfig) -> f64 {
    cfg.cores as f64 * wire::l2_rate_bps(cfg.frame_len, core_pps(cfg))
}

/// Generates `n` departure timestamps for one core under the configured
/// pacing (pure model, no world needed) — the series Fig. 11's error
/// metrics are computed over.
pub fn departures(cfg: &MoonGenConfig, n: usize) -> Vec<SimTime> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let wire_floor = wire::wire_time_ps(cfg.frame_len, cfg.port_speed_bps);
    let cpu_floor = PER_PACKET_CPU_PS;
    let floor = wire_floor.max(cpu_floor);
    let target = cfg.interval.unwrap_or(floor).max(floor);
    let mut t = 0;
    (0..n)
        .map(|_| {
            t += draw_gap(cfg.rate_control, target, floor, &mut rng);
            t
        })
        .collect()
}

/// The software tester as a simulation device.  Port `c` carries core `c`'s
/// traffic; reception is counted per port.
#[derive(Debug)]
pub struct MoonGen {
    name: String,
    /// Configuration.
    pub cfg: MoonGenConfig,
    fields: FieldTable,
    rng: StdRng,
    next_departure: Vec<SimTime>,
    /// Packets emitted per core.
    pub sent: Vec<u64>,
    /// Packets received per port.
    pub received: Vec<u64>,
    /// Receive timestamps (arrival, uid) when logging is on.
    pub rx_log: Vec<(SimTime, u64)>,
    /// Enables `rx_log`.
    pub log_rx: bool,
    uid: u64,
}

impl MoonGen {
    /// Creates the device.
    pub fn new(name: &str, cfg: MoonGenConfig) -> Self {
        let cores = cfg.cores;
        MoonGen {
            name: name.to_string(),
            cfg,
            fields: FieldTable::new(),
            rng: StdRng::seed_from_u64(97),
            next_departure: vec![0; cores],
            sent: vec![0; cores],
            received: vec![0; cores],
            rx_log: Vec::new(),
            log_rx: false,
            uid: 1,
        }
    }

    fn make_packet(&mut self) -> SimPacket {
        let mut phv = self.fields.new_phv();
        phv.set(&self.fields, fields::PKT_LEN, self.cfg.frame_len as u64);
        phv.set(&self.fields, fields::IPV4_VALID, 1);
        phv.set(&self.fields, fields::UDP_VALID, 1);
        let uid = self.uid;
        self.uid += 1;
        SimPacket { phv, uid }
    }
}

impl Device for MoonGen {
    fn name(&self) -> &str {
        &self.name
    }

    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, _out: &mut Outbox) {
        if let Some(r) = self.received.get_mut(port as usize) {
            *r += 1;
        }
        if self.log_rx {
            self.rx_log.push((now, pkt.uid));
        }
    }

    fn wake(&mut self, token: u64, now: SimTime, out: &mut Outbox) {
        let core = token as usize;
        // Emit one packet, then schedule the next departure with the
        // rate-control error model.
        let pkt = self.make_packet();
        out.emit(core as u16, pkt, now);
        self.sent[core] += 1;

        let wire_floor = wire::wire_time_ps(self.cfg.frame_len, self.cfg.port_speed_bps);
        let floor = wire_floor.max(PER_PACKET_CPU_PS);
        let target = self.cfg.interval.unwrap_or(floor).max(floor);
        let gap = draw_gap(self.cfg.rate_control, target, floor, &mut self.rng);
        self.next_departure[core] = now + gap;
        out.wake_at(token, now + gap);
    }

    fn device_kind(&self) -> ht_asic::sim::DeviceKind {
        ht_asic::sim::DeviceKind::Host
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_asic::time::ms;
    use ht_asic::{LinkSpec, World};
    use ht_dut::Sink;

    #[test]
    fn one_core_is_ten_gig_at_64b() {
        let cfg = MoonGenConfig::default();
        let pps = core_pps(&cfg);
        assert!((pps / 1e6 - 14.88).abs() < 0.1, "pps {pps}");
        // CPU-bound below the 40G line rate for small packets (Fig. 9b)…
        let cfg40 = MoonGenConfig { port_speed_bps: wire::gbps(40), ..cfg.clone() };
        assert!(core_pps(&cfg40) < wire::line_rate_pps(64, wire::gbps(40)) * 0.3);
        // …but line-rate for large frames.
        let big = MoonGenConfig { frame_len: 1024, port_speed_bps: wire::gbps(40), ..cfg };
        assert!((core_pps(&big) - wire::line_rate_pps(1024, wire::gbps(40))).abs() < 1.0);
    }

    #[test]
    fn eight_cores_make_eighty_gig() {
        let cfg = MoonGenConfig { cores: 8, ..Default::default() };
        let gbps = aggregate_l2_bps(&cfg) / 1e9;
        // 8 × 14.88 Mpps × 512 bit ≈ 61 Gbps L2 (the paper's "80 Gbps"
        // counts L1, preamble and IFG included).
        let l1 = 8.0 * wire::l1_rate_bps(64, core_pps(&cfg)) / 1e9;
        assert!((l1 - 80.0).abs() < 1.0, "L1 {l1} Gbps");
        assert!(gbps > 55.0 && gbps < 65.0, "L2 {gbps} Gbps");
    }

    #[test]
    fn departure_model_hits_target_rate() {
        let cfg = MoonGenConfig {
            interval: Some(1_000_000), // 1 µs → 1 Mpps
            ..Default::default()
        };
        let d = departures(&cfg, 10_000);
        let span_s = (d[d.len() - 1] - d[0]) as f64 / PS_PER_SEC as f64;
        let rate = (d.len() - 1) as f64 / span_s;
        assert!((rate / 1e6 - 1.0).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn device_emits_at_configured_rate_into_world() {
        let cfg = MoonGenConfig { cores: 2, interval: Some(10_000_000), ..Default::default() };
        let mut w = World::builder().seed(1).build().unwrap();
        let mg_id = w.add_device(Box::new(MoonGen::new("mg", cfg)));
        let sk = w.add_device(Box::new(Sink::new("sink")));
        w.link((mg_id, 0), (sk, 0), LinkSpec::new());
        w.link((mg_id, 1), (sk, 1), LinkSpec::new());
        for c in 0..2 {
            w.schedule_wake(mg_id, c, 0);
        }
        w.run_until(ms(2));
        let total = w.device::<Sink>(sk).total_frames();
        // 2 cores × 100 kpps × 2 ms = 400 ± jitter.
        assert!((380..=420).contains(&total), "frames {total}");
        assert_eq!(w.device::<MoonGen>(mg_id).sent.iter().sum::<u64>(), total);
    }
}
