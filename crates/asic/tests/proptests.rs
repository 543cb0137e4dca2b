//! Property-based tests for the ASIC simulator's core invariants.

use ht_asic::action::{ActionSet, PrimitiveOp};
use ht_asic::phv::{fields, mask_for, FieldId, FieldTable};
use ht_asic::register::{
    Cmp, CondExpr, RegisterFile, SaluCond, SaluOperand, SaluOutput, SaluOutputSrc, SaluProgram,
    SaluUpdate,
};
use ht_asic::sim::{Outbox, World};
use ht_asic::switch::{Switch, CPU_PORT};
use ht_asic::table::{MatchKey, MatchKind, Table};
use ht_packet::wire::gbps;
use ht_packet::{Ipv4Address, PacketBuilder};
use proptest::prelude::*;

proptest! {
    /// PHV writes always respect field widths, for every standard field.
    #[test]
    fn phv_values_never_exceed_width(field in 0u16..fields::STANDARD_COUNT, value in any::<u64>()) {
        let t = FieldTable::new();
        let mut phv = t.new_phv();
        let id = FieldId(field);
        phv.set(&t, id, value);
        prop_assert!(phv.get(id) <= mask_for(t.width(id)));
        prop_assert_eq!(phv.get(id), value & mask_for(t.width(id)));
    }

    /// SALU fetch-add over arbitrary sequences equals a software counter
    /// that wraps at the register width.
    #[test]
    fn salu_counter_matches_oracle(width in 4u32..32, ops in 1usize..200) {
        let mut t = FieldTable::new();
        let dst = t.intern("meta.out", 32);
        let mut phv = t.new_phv();
        let mut rf = RegisterFile::new();
        let r = rf.alloc("ctr", width, 4);
        let prog = SaluProgram::fetch_add(dst);
        let mask = mask_for(width);
        let mut oracle: u64 = 0;
        for _ in 0..ops {
            let exported = rf.execute(r, 1, &prog, &mut phv, &t);
            prop_assert_eq!(exported, oracle);
            oracle = (oracle + 1) & mask;
        }
        prop_assert_eq!(rf.array(r).cp_read(1), oracle);
    }

    /// The guarded-increment SALU program (the FIFO rear guard) never lets
    /// the register exceed its bound.
    #[test]
    fn guarded_increment_never_exceeds_bound(bound in 1u64..50, ops in 1usize..200) {
        let mut t = FieldTable::new();
        let flag = t.intern("meta.flag", 1);
        let mut phv = t.new_phv();
        let mut rf = RegisterFile::new();
        let r = rf.alloc("rear", 32, 1);
        let prog = SaluProgram {
            condition: Some(SaluCond {
                expr: CondExpr::Reg,
                cmp: Cmp::Lt,
                rhs: SaluOperand::Const(bound),
            }),
            on_true: SaluUpdate::Add(SaluOperand::Const(1)),
            on_false: SaluUpdate::Keep,
            output: Some(SaluOutput { dst: flag, src: SaluOutputSrc::CondFlag }),
        };
        for _ in 0..ops {
            rf.execute(r, 0, &prog, &mut phv, &t);
            prop_assert!(rf.array(r).cp_read(0) <= bound);
        }
        prop_assert_eq!(rf.array(r).cp_read(0), bound.min(ops as u64));
    }

    /// Ternary tables with a catch-all always hit something, and the
    /// highest-priority matching entry wins regardless of insert order.
    #[test]
    fn ternary_priority_invariant(values in prop::collection::vec(0u64..1024, 1..20), probe in 0u64..1024) {
        let ft = FieldTable::new();
        let mut tbl = Table::new("t", MatchKind::Ternary, vec![fields::TCP_DPORT], 64, ActionSet::nop());
        // Catch-all at priority 0.
        tbl.insert(MatchKey::Ternary(vec![(0, 0)]),
                   ActionSet::new("all", vec![]), 0).unwrap();
        // Exact-value entries at priority = value (so the expected winner is
        // deterministic even with duplicates).
        for &v in &values {
            tbl.insert(MatchKey::Ternary(vec![(v, 0x3ff)]),
                       ActionSet::new(&format!("v{v}"), vec![]), 10 + v as i32).unwrap();
        }
        let mut phv = ft.new_phv();
        phv.set(&ft, fields::TCP_DPORT, probe);
        let hit = tbl.lookup(&phv).unwrap();
        if values.contains(&probe) {
            prop_assert_eq!(&hit.name, &format!("v{probe}"));
        } else {
            prop_assert_eq!(&hit.name, "all");
        }
    }

    /// MAC serializations never overlap and always take exactly the wire
    /// time, for arbitrary arrival patterns.
    #[test]
    fn mac_serializations_never_overlap(
        arrivals in prop::collection::vec(0u64..1_000_000u64, 1..50),
        len in 64usize..1518,
    ) {
        let mut mac = ht_asic::mac::MacPort::new(gbps(40));
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let wire = ht_packet::wire::wire_time_ps(len, gbps(40));
        let mut prev_end = 0u64;
        for &a in &arrivals {
            let (s, e) = mac.transmit(len, a);
            prop_assert!(s >= prev_end, "overlap: start {s} < prev end {prev_end}");
            prop_assert!(s >= a);
            prop_assert_eq!(e - s, wire);
            prev_end = e;
        }
    }

    /// A forwarding switch transmits every injected packet exactly once and
    /// departure times are strictly monotone per port.
    #[test]
    fn switch_conserves_packets(n in 1usize..40, len in 64usize..512) {
        let mut sw = Switch::new("sw", 9);
        sw.add_port(0, gbps(100));
        sw.trace.tx = true;
        let tbl = Table::new("fwd", MatchKind::Exact, vec![fields::IG_PORT], 4,
            ActionSet::new("to0", vec![PrimitiveOp::SetEgressPort(0)]));
        sw.ingress.push_table(tbl);

        let frame = PacketBuilder::new()
            .ipv4(Ipv4Address::new(1, 0, 0, 1), Ipv4Address::new(1, 0, 0, 2))
            .udp(1, 1)
            .frame_len(len)
            .build();
        let mut out = Outbox::default();
        for i in 0..n {
            let pkt = sw.make_packet(&frame);
            sw.process(pkt, CPU_PORT, i as u64 * 1_000, &mut out);
        }
        prop_assert_eq!(out.emits.len(), n);
        prop_assert_eq!(sw.counters.tx_frames, n as u64);
        let times: Vec<u64> = sw.log.tx.iter().map(|r| r.at).collect();
        for w in times.windows(2) {
            prop_assert!(w[1] > w[0], "departures not monotone");
        }
    }

    /// World events never run backwards in time, even with random wakes.
    #[test]
    fn world_time_is_monotone(times in prop::collection::vec(0u64..1_000_000, 1..100)) {
        struct Nop;
        impl ht_asic::Device for Nop {
            fn name(&self) -> &str { "nop" }
            fn rx(&mut self, _: u16, _: ht_asic::SimPacket, _: u64, _: &mut Outbox) {}
            fn as_any(&self) -> &dyn std::any::Any { self }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
        }
        let mut w = World::builder().seed(3).build().unwrap();
        let d = w.add_device(Box::new(Nop));
        for (i, &t) in times.iter().enumerate() {
            w.schedule_wake(d, i as u64, t);
        }
        let mut prev = 0;
        while w.step() {
            prop_assert!(w.now() >= prev);
            prev = w.now();
        }
    }
}
