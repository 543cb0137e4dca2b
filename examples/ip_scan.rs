//! Internet-wide scanning, ZMap-style (§2.3): sweep a destination range
//! with TCP SYN probes, capture SYN+ACK responders with a query, and count
//! distinct live hosts with the false-positive-free counter engine.
//!
//! A subset of the scanned hosts "exist" (a responder device answers for
//! them); the scan must report exactly that subset — no false positives,
//! which is the point of §5.2's exact key matching.
//!
//! Run with: `cargo run --release --example ip_scan`

use ht_packet::tcp::TcpFlags;
use hypertester::asic::phv::fields;
use hypertester::asic::sim::{Device, Outbox};
use hypertester::asic::time::{ms, SimTime};
use hypertester::asic::{LinkSpec, SimPacket, Switch, World};
use hypertester::cpu::SwitchCpu;
use hypertester::ht::{build, distinct_count, Gbps, TesterConfig};
use hypertester::ntapi::{compile, parse};
use std::any::Any;

/// How long a host takes to answer a probe (500 ns).
const SERVICE_DELAY: SimTime = 500_000;

/// Answers SYNs for every 7th address of the scanned range.
struct SparseResponders {
    answered: std::collections::HashSet<u32>,
    fields: hypertester::asic::FieldTable,
}

impl Device for SparseResponders {
    fn name(&self) -> &str {
        "sparse-hosts"
    }

    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
        let dst = pkt.phv.get(fields::IPV4_DST) as u32;
        let flags = TcpFlags(pkt.phv.get(fields::TCP_FLAGS) as u8);
        if !flags.contains(TcpFlags::SYN) || !dst.is_multiple_of(7) {
            return; // host does not exist / not a probe
        }
        self.answered.insert(dst);
        // Stateless SYN+ACK, tuple mirrored.
        let mut phv = self.fields.new_phv();
        phv.set(&self.fields, fields::PKT_LEN, 64);
        phv.set(&self.fields, fields::IPV4_VALID, 1);
        phv.set(&self.fields, fields::TCP_VALID, 1);
        phv.set(&self.fields, fields::IPV4_SRC, u64::from(dst));
        phv.set(&self.fields, fields::IPV4_DST, pkt.phv.get(fields::IPV4_SRC));
        phv.set(&self.fields, fields::TCP_SPORT, pkt.phv.get(fields::TCP_DPORT));
        phv.set(&self.fields, fields::TCP_DPORT, pkt.phv.get(fields::TCP_SPORT));
        phv.set(&self.fields, fields::TCP_FLAGS, u64::from(TcpFlags::SYN_ACK.0));
        phv.set(&self.fields, fields::TCP_ACK, pkt.phv.get(fields::TCP_SEQ) + 1);
        out.emit(port, SimPacket { phv, uid: pkt.uid }, now + SERVICE_DELAY);
    }

    fn lookahead(&self) -> SimTime {
        // Every SYN+ACK leaves exactly the service delay after its probe.
        SERVICE_DELAY
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn main() {
    // Scan 10.1.0.1 … 10.1.15.254 (4094 hosts), one pass.
    let src = r#"
T1 = trigger().set([sip, dport, proto, flag, seq_no], [10.0.0.1, 80, tcp, SYN, 1])
    .set(dip, range(10.1.0.1, 10.1.15.254, 1))
    .set([loop, interval], [1, 1us])
Q1 = query().filter(tcp_flag == SYN+ACK).distinct(keys=[sip])
"#;
    let task = compile(&parse(src).expect("parse")).expect("compile");
    let mut tester =
        build(&task, &TesterConfig::builder().ports(1).speed(Gbps(100)).build().expect("config"))
            .expect("build");
    let templates = tester.template_copies(0, 8);

    let mut world = World::builder().seed(1).build().unwrap();
    let sw = world.add_device(Box::new(tester.switch));
    let hosts = world.add_device(Box::new(SparseResponders {
        answered: Default::default(),
        fields: hypertester::asic::FieldTable::new(),
    }));
    world.link((sw, 0), (hosts, 0), LinkSpec::new().delay(1_000_000));
    SwitchCpu::new().inject_templates(&mut world, sw, templates, 0);
    world.run_until(ms(20));

    let live_truth = world.device::<SparseResponders>(hosts).answered.len() as u64;
    let sw_ref: &Switch = world.device(sw);
    let q1 = &tester.handles.queries["Q1"];
    let live_scanned = distinct_count(sw_ref, q1);
    let fp_entries = q1.query.fp.as_ref().map(|f| f.entries.len()).unwrap_or(0);
    let space = q1.query.fp.as_ref().map(|f| f.space_size).unwrap_or(0);

    println!("IP scan of 4094 addresses:");
    println!("  live hosts (ground truth)    : {live_truth}");
    println!("  live hosts (scan, distinct)  : {live_scanned}");
    println!("  enumerated header space      : {space}");
    println!("  exact-key-matching entries   : {fp_entries}");

    assert_eq!(live_scanned, live_truth, "scan must be exact — no false positives");
    println!("OK: scan result is exact (false-positive-free)");
}
