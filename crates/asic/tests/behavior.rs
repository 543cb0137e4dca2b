//! Behavioral tests for ASIC corners the unit tests don't reach: bitwise
//! action ops, PHV/byte round-trip idempotence, replica independence,
//! egress drops, and digest ordering.

use ht_asic::action::{ActionSet, ExecCtx, PrimitiveOp};
use ht_asic::digest::DigestId;
use ht_asic::parser;
use ht_asic::phv::{fields, FieldTable};
use ht_asic::register::{Cmp, RegisterFile};
use ht_asic::sim::Outbox;
use ht_asic::switch::{Switch, CPU_PORT};
use ht_asic::table::{Gateway, MatchKind, Table};
use ht_packet::tcp::TcpFlags;
use ht_packet::wire::gbps;
use ht_packet::{Ipv4Address, PacketBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn exec(ops: Vec<PrimitiveOp>, setup: &[(ht_asic::FieldId, u64)]) -> ht_asic::Phv {
    let ft = FieldTable::new();
    let mut phv = ft.new_phv();
    for &(f, v) in setup {
        phv.set(&ft, f, v);
    }
    let mut regs = RegisterFile::new();
    let mut rng = StdRng::seed_from_u64(1);
    let mut digests = Vec::new();
    let mut ctx =
        ExecCtx { table: &ft, regs: &mut regs, rng: &mut rng, digests: &mut digests, now: 0 };
    ht_asic::action::execute(&ActionSet::new("t", ops), &mut phv, &mut ctx);
    phv
}

#[test]
fn bitwise_and_or_shift_ops() {
    let p = exec(
        vec![
            PrimitiveOp::AndConst { dst: fields::TCP_SPORT, value: 0xff00 },
            PrimitiveOp::OrConst { dst: fields::TCP_SPORT, value: 0x000f },
            PrimitiveOp::ShiftRight { dst: fields::TCP_DPORT, bits: 4 },
        ],
        &[(fields::TCP_SPORT, 0xabcd), (fields::TCP_DPORT, 0x1230)],
    );
    assert_eq!(p.get(fields::TCP_SPORT), 0xab0f);
    assert_eq!(p.get(fields::TCP_DPORT), 0x0123);
}

#[test]
fn shift_by_64_or_more_clears() {
    let p = exec(
        vec![PrimitiveOp::ShiftRight { dst: fields::IG_TS, bits: 64 }],
        &[(fields::IG_TS, u64::MAX)],
    );
    assert_eq!(p.get(fields::IG_TS), 0);
}

#[test]
fn sub_field_wraps_at_field_width() {
    let p = exec(
        vec![PrimitiveOp::SubField { dst: fields::TCP_SPORT, src: fields::TCP_DPORT }],
        &[(fields::TCP_SPORT, 5), (fields::TCP_DPORT, 10)],
    );
    // 5 − 10 wraps at 16 bits.
    assert_eq!(p.get(fields::TCP_SPORT), 0xfffb);
}

#[test]
fn mcast_replicas_are_independent_phvs() {
    // An egress edit on one replica must not leak into its siblings: the
    // editor writes a per-port value keyed on RID.
    let mut sw = Switch::new("sw", 1);
    for p in 0..3 {
        sw.add_port(p, gbps(100));
    }
    sw.mcast
        .set_group(1, (0..3).map(|p| ht_asic::tm::McastMember { port: p, rid: p + 1 }).collect());
    let to_grp = Table::new(
        "mc",
        MatchKind::Exact,
        vec![fields::IG_PORT],
        4,
        ActionSet::new("grp", vec![PrimitiveOp::SetMcastGroup(1)]),
    );
    sw.ingress.push_table(to_grp);
    // Egress: dport = 1000 + rid.
    let mut edit = Table::new("edit", MatchKind::Index, vec![fields::RID], 8, ActionSet::nop());
    for rid in 1..=3u64 {
        edit.insert(
            ht_asic::table::MatchKey::Index(rid),
            ActionSet::new(
                "",
                vec![
                    PrimitiveOp::SetConst { dst: fields::UDP_DPORT, value: 1000 },
                    PrimitiveOp::AddField { dst: fields::UDP_DPORT, src: fields::RID },
                ],
            ),
            0,
        )
        .unwrap();
    }
    sw.egress.push_table(edit);

    let pkt = sw.make_packet(
        &PacketBuilder::new()
            .ipv4(Ipv4Address::new(1, 0, 0, 1), Ipv4Address::new(1, 0, 0, 2))
            .udp(1, 1)
            .frame_len(64)
            .build(),
    );
    let mut out = Outbox::default();
    sw.process(pkt, CPU_PORT, 0, &mut out);
    assert_eq!(out.emits.len(), 3);
    let mut seen: Vec<(u16, u64)> =
        out.emits.iter().map(|(port, p, _)| (*port, p.phv.get(fields::UDP_DPORT))).collect();
    seen.sort_unstable();
    assert_eq!(seen, vec![(0, 1001), (1, 1002), (2, 1003)]);
}

#[test]
fn egress_drop_counts_and_suppresses_emission() {
    let mut sw = Switch::new("sw", 1);
    sw.add_port(0, gbps(100));
    let fwd = Table::new(
        "fwd",
        MatchKind::Exact,
        vec![fields::IG_PORT],
        4,
        ActionSet::new("to0", vec![PrimitiveOp::SetEgressPort(0)]),
    );
    sw.ingress.push_table(fwd);
    let drop_big = Table::new(
        "drop_big",
        MatchKind::Exact,
        vec![fields::IG_PORT],
        4,
        ActionSet::new("drop", vec![PrimitiveOp::Drop]),
    )
    .with_gateway(Gateway { field: fields::PKT_LEN, cmp: Cmp::Gt, value: 100 });
    sw.egress.push_table(drop_big);

    let small = sw.make_packet(
        &PacketBuilder::new()
            .ipv4(Ipv4Address::new(1, 0, 0, 1), Ipv4Address::new(1, 0, 0, 2))
            .udp(1, 1)
            .frame_len(64)
            .build(),
    );
    let big = sw.make_packet(
        &PacketBuilder::new()
            .ipv4(Ipv4Address::new(1, 0, 0, 1), Ipv4Address::new(1, 0, 0, 2))
            .udp(1, 1)
            .frame_len(512)
            .build(),
    );
    let mut out = Outbox::default();
    sw.process(small, 5, 0, &mut out);
    sw.process(big, 5, 1_000_000, &mut out);
    assert_eq!(out.emits.len(), 1);
    assert_eq!(sw.counters.egress_drops, 1);
    assert_eq!(sw.counters.tx_frames, 1);
}

#[test]
fn digests_preserve_generation_order() {
    let mut sw = Switch::new("sw", 1);
    sw.add_port(0, gbps(100));
    let tbl = Table::new(
        "dig",
        MatchKind::Exact,
        vec![fields::IG_PORT],
        4,
        ActionSet::new(
            "digest",
            vec![
                PrimitiveOp::Digest { id: DigestId(3), fields: vec![fields::UDP_SPORT] },
                PrimitiveOp::SetEgressPort(0),
            ],
        ),
    );
    sw.ingress.push_table(tbl);
    for sport in [5u16, 9, 2] {
        let pkt = sw.make_packet(
            &PacketBuilder::new()
                .ipv4(Ipv4Address::new(1, 0, 0, 1), Ipv4Address::new(1, 0, 0, 2))
                .udp(sport, 1)
                .frame_len(64)
                .build(),
        );
        let mut out = Outbox::default();
        sw.process(pkt, 5, 0, &mut out);
    }
    let values: Vec<u64> = sw.digests.iter().map(|d| d.values[0]).collect();
    assert_eq!(values, vec![5, 9, 2]);
    assert!(sw.digests.iter().all(|d| d.id == DigestId(3)));
}

proptest! {
    /// deparse(parse(frame)) is the identity on well-formed frames, and
    /// parse(deparse(phv)) reproduces the PHV's header fields — the
    /// pipeline boundary loses nothing.
    #[test]
    fn parse_deparse_idempotence(
        sport in any::<u16>(), dport in any::<u16>(),
        seq in any::<u32>(), flags in 0u8..0x40,
        len in 64usize..512,
    ) {
        let ft = FieldTable::new();
        let frame = PacketBuilder::new()
            .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
            .tcp(sport, dport, seq, 0, TcpFlags(flags))
            .frame_len(len)
            .build();
        let phv = parser::parse(&ft, &frame).unwrap();
        let mut bytes = frame.clone();
        parser::deparse(&ft, &phv, &mut bytes);
        prop_assert_eq!(&frame, &bytes, "untouched deparse must be identity");

        let phv2 = parser::parse(&ft, &bytes).unwrap();
        for f in [fields::TCP_SPORT, fields::TCP_DPORT, fields::TCP_SEQ,
                  fields::TCP_FLAGS, fields::IPV4_SRC, fields::IPV4_DST,
                  fields::PKT_LEN] {
            prop_assert_eq!(phv.get(f), phv2.get(f));
        }
    }

    /// Gateways behave identically to their comparison semantics for all
    /// operators and operand pairs.
    #[test]
    fn gateway_semantics(lhs in 0u64..1000, rhs in 0u64..1000, op in 0usize..6) {
        let ft = FieldTable::new();
        let mut phv = ft.new_phv();
        phv.set(&ft, fields::TCP_WINDOW, lhs);
        let cmps = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];
        let gw = Gateway { field: fields::TCP_WINDOW, cmp: cmps[op], value: rhs };
        let expected = match cmps[op] {
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
        };
        prop_assert_eq!(gw.eval(&phv), expected);
    }
}
