//! Measurement sink: counts frames/bytes and records arrival timestamps
//! and selected header fields per port.

use ht_asic::fxhash::FxHashMap;
use ht_asic::phv::FieldId;
use ht_asic::sim::{BatchItem, Device, Outbox};
use ht_asic::time::{to_secs_f64, SimTime};
use ht_asic::SimPacket;
use std::any::Any;

/// Per-port counters of a sink.
#[derive(Debug, Clone, Default)]
pub struct PortStats {
    /// Frames received.
    pub frames: u64,
    /// Frame bytes received.
    pub bytes: u64,
    /// First arrival time.
    pub first: Option<SimTime>,
    /// Last arrival time.
    pub last: Option<SimTime>,
}

impl PortStats {
    /// Layer-2 throughput over the observation window, in bits per second.
    pub fn l2_bps(&self) -> f64 {
        match (self.first, self.last) {
            (Some(f), Some(l)) if l > f => self.bytes as f64 * 8.0 / to_secs_f64(l - f),
            _ => 0.0,
        }
    }

    /// Packet rate over the observation window, in packets per second.
    pub fn pps(&self) -> f64 {
        match (self.first, self.last) {
            (Some(f), Some(l)) if l > f && self.frames > 1 => {
                // n frames span n−1 inter-arrival gaps.
                (self.frames - 1) as f64 / to_secs_f64(l - f)
            }
            _ => 0.0,
        }
    }
}

/// A sink device.
#[derive(Debug)]
pub struct Sink {
    name: String,
    /// Per-port statistics.  (Fx-hashed: the map is touched once per
    /// delivered packet, squarely on the hot path.)
    pub ports: FxHashMap<u16, PortStats>,
    /// When set, every arrival time is logged per port.
    pub log_arrivals: bool,
    /// Arrival logs (only filled when `log_arrivals`).
    pub arrivals: FxHashMap<u16, Vec<SimTime>>,
    /// Header fields sampled per packet (empty = none).
    pub capture_fields: Vec<FieldId>,
    /// Captured samples: `(port, time, field values)`.
    pub captured: Vec<(u16, SimTime, Vec<u64>)>,
}

impl Sink {
    /// Creates an empty sink.
    pub fn new(name: &str) -> Self {
        Sink {
            name: name.to_string(),
            ports: FxHashMap::default(),
            log_arrivals: false,
            arrivals: FxHashMap::default(),
            capture_fields: Vec::new(),
            captured: Vec::new(),
        }
    }

    /// Enables arrival-timestamp logging.
    pub fn logging_arrivals(mut self) -> Self {
        self.log_arrivals = true;
        self
    }

    /// Samples the given PHV fields of every packet.
    pub fn capturing(mut self, fields: Vec<FieldId>) -> Self {
        self.capture_fields = fields;
        self
    }

    /// Clears all statistics and logs — used to discard a warm-up window
    /// (e.g. the template-injection ramp) before measuring.
    pub fn reset(&mut self) {
        self.ports.clear();
        self.arrivals.clear();
        self.captured.clear();
    }

    /// Total frames across all ports.
    pub fn total_frames(&self) -> u64 {
        self.ports.values().map(|p| p.frames).sum()
    }

    /// Total bytes across all ports.
    pub fn total_bytes(&self) -> u64 {
        self.ports.values().map(|p| p.bytes).sum()
    }

    /// Inter-arrival deltas on one port, in (fractional) nanoseconds —
    /// the series the paper's rate-control metrics are computed over.
    pub fn inter_arrivals_ns(&self, port: u16) -> Vec<f64> {
        let Some(times) = self.arrivals.get(&port) else {
            return Vec::new();
        };
        times.windows(2).map(|w| (w[1] - w[0]) as f64 / 1000.0).collect()
    }
}

impl Device for Sink {
    fn name(&self) -> &str {
        &self.name
    }

    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, _out: &mut Outbox) {
        let st = self.ports.entry(port).or_default();
        st.frames += 1;
        st.bytes += pkt.len() as u64;
        st.first.get_or_insert(now);
        st.last = Some(now);
        if self.log_arrivals {
            self.arrivals.entry(port).or_default().push(now);
        }
        if !self.capture_fields.is_empty() {
            let vals = self.capture_fields.iter().map(|&f| pkt.phv.get(f)).collect();
            self.captured.push((port, now, vals));
        }
    }

    fn rx_batch(&mut self, items: &mut Vec<BatchItem>, now: SimTime, out: &mut Outbox) {
        let _ = now;
        // A sink absorbs everything and emits nothing, so the per-item
        // checkpoint bookkeeping buys nothing: fold the whole batch into
        // the statistics directly.
        for item in items.drain(..) {
            match item {
                BatchItem::Deliver { port, pkt, at } => {
                    let st = self.ports.entry(port).or_default();
                    st.frames += 1;
                    st.bytes += pkt.len() as u64;
                    st.first.get_or_insert(at);
                    st.last = Some(at);
                    if self.log_arrivals {
                        self.arrivals.entry(port).or_default().push(at);
                    }
                    if !self.capture_fields.is_empty() {
                        let vals = self.capture_fields.iter().map(|&f| pkt.phv.get(f)).collect();
                        self.captured.push((port, at, vals));
                    }
                }
                BatchItem::Wake { token, at } => self.wake(token, at, out),
            }
        }
    }

    fn device_kind(&self) -> ht_asic::sim::DeviceKind {
        ht_asic::sim::DeviceKind::Sink
    }

    fn lookahead(&self) -> SimTime {
        // A sink only absorbs: it never emits or schedules wakes, so it
        // places no bound on how far the event window may extend.
        SimTime::MAX
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
    use ht_asic::phv::{fields, FieldTable};
    use ht_asic::time::us;

    fn pkt(len: u64) -> SimPacket {
        let t = FieldTable::new();
        let mut phv = t.new_phv();
        phv.set(&t, fields::PKT_LEN, len);
        phv.set(&t, fields::TCP_DPORT, 80);
        SimPacket { phv, uid: 0 }
    }

    #[test]
    fn counts_and_throughput() {
        let mut s = Sink::new("s").logging_arrivals();
        let mut out = Outbox::default();
        for i in 0..11u64 {
            s.rx(0, pkt(64), i * us(1), &mut out);
        }
        let p = &s.ports[&0];
        assert_eq!(p.frames, 11);
        assert_eq!(p.bytes, 11 * 64);
        // 10 gaps of 1 µs → 1e6 pps.
        assert!((p.pps() - 1e6).abs() < 1.0);
        assert_eq!(s.inter_arrivals_ns(0).len(), 10);
        assert!((s.inter_arrivals_ns(0)[0] - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn captures_selected_fields() {
        let mut s = Sink::new("s").capturing(vec![fields::TCP_DPORT]);
        let mut out = Outbox::default();
        s.rx(3, pkt(64), 42, &mut out);
        assert_eq!(s.captured, vec![(3, 42, vec![80])]);
    }

    #[test]
    fn empty_sink_rates_are_zero() {
        let s = Sink::new("s");
        assert_eq!(s.total_frames(), 0);
        assert!(s.inter_arrivals_ns(0).is_empty());
    }
}
