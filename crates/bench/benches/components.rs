//! Criterion microbenchmarks of the substrate components that every
//! experiment leans on: the parser, match-action machinery, SALU, cuckoo
//! engine, FIFO and the false-positive precompute.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ht_asic::action::{ActionSet, PrimitiveOp};
use ht_asic::phv::{fields, FieldTable};
use ht_asic::register::{RegisterFile, SaluProgram};
use ht_asic::table::{MatchKey, MatchKind, Table};
use ht_asic::{parser, Switch};
use ht_core::fifo::RegFifo;
use ht_ntapi::fp::{compute_fp_entries, HashConfig};
use ht_packet::{Ipv4Address, PacketBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_packet(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet");
    let frame = PacketBuilder::new()
        .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
        .udp(1234, 80)
        .frame_len(64)
        .build();
    let ft = FieldTable::new();

    g.throughput(Throughput::Elements(1));
    g.bench_function("build_64b_udp_frame", |b| {
        b.iter(|| {
            PacketBuilder::new()
                .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
                .udp(black_box(1234), 80)
                .frame_len(64)
                .build()
        })
    });
    g.bench_function("parse_to_phv", |b| b.iter(|| parser::parse(&ft, black_box(&frame))));
    let phv = parser::parse(&ft, &frame).unwrap();
    let mut buf = frame.clone();
    g.bench_function("deparse_with_checksums", |b| {
        b.iter(|| parser::deparse(&ft, black_box(&phv), &mut buf))
    });
    g.finish();
}

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("match_action");
    let ft = FieldTable::new();
    let mut exact =
        Table::new("t", MatchKind::Exact, vec![fields::IPV4_DST], 65536, ActionSet::nop());
    for i in 0..60_000u64 {
        exact.insert(MatchKey::Exact(vec![i]), ActionSet::nop(), 0).unwrap();
    }
    let mut phv = ft.new_phv();
    phv.set(&ft, fields::IPV4_DST, 31_337);

    g.throughput(Throughput::Elements(1));
    g.bench_function("exact_lookup_60k_entries", |b| {
        b.iter(|| exact.lookup(black_box(&phv)).map(|a| a.ops.len()))
    });

    let mut regs = RegisterFile::new();
    let r = regs.alloc("ctr", 64, 65536);
    let prog = SaluProgram::fetch_add(fields::TCP_WINDOW);
    g.bench_function("salu_fetch_add", |b| {
        b.iter(|| regs.execute(r, black_box(7), &prog, &mut phv, &ft))
    });
    g.finish();
}

fn bench_fifo(c: &mut Criterion) {
    let mut g = c.benchmark_group("reg_fifo");
    let mut ft = FieldTable::new();
    let mut regs = RegisterFile::new();
    let mut fifo = RegFifo::new("f", &mut regs, &mut ft, 3, 4096);
    let mut phv = ft.new_phv();
    g.throughput(Throughput::Elements(1));
    g.bench_function("enqueue_dequeue_pair", |b| {
        b.iter(|| {
            fifo.enqueue(&mut regs, &ft, &mut phv, black_box(&[1, 2, 3]));
            fifo.dequeue(&mut regs, &ft, &mut phv)
        })
    });
    g.finish();
}

fn bench_fp_precompute(c: &mut Criterion) {
    let mut g = c.benchmark_group("fp_precompute");
    for n in [10_000usize, 100_000] {
        let space: Vec<Vec<u64>> = (0..n as u64).map(|i| vec![i, 80]).collect();
        let cfg = HashConfig { array_bits: 16, digest_bits: 16 };
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("flows_{n}"), |b| {
            b.iter(|| compute_fp_entries(black_box(&space), &cfg))
        });
    }
    g.finish();
}

fn bench_switch_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("switch_pipeline");
    let mut sw = Switch::new("sw", 1);
    sw.add_port(0, ht_packet::wire::gbps(100));
    let tbl = Table::new(
        "fwd",
        MatchKind::Exact,
        vec![fields::IG_PORT],
        4,
        ActionSet::new("to0", vec![PrimitiveOp::SetEgressPort(0)]),
    );
    sw.ingress.push_table(tbl);
    let pkt = sw.make_packet(
        &PacketBuilder::new()
            .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
            .udp(1, 1)
            .frame_len(64)
            .build(),
    );
    let mut now = 0u64;
    g.throughput(Throughput::Elements(1));
    g.bench_function("forwarding_traversal", |b| {
        b.iter(|| {
            let mut out = ht_asic::Outbox::default();
            now += 6_720;
            sw.process(black_box(pkt.clone()), 5, now, &mut out);
            out
        })
    });
    g.finish();
}

fn bench_cuckoo(c: &mut Criterion) {
    // The cuckoo engine probe path, via a minimal compiled task.
    let mut g = c.benchmark_group("query_engine");
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64).set(interval, 1s)
Q1 = query().reduce(keys=[sport], func=count)
"#;
    let task = ht_ntapi::compile(&ht_ntapi::parse(src).unwrap()).unwrap();
    let config =
        ht_core::TesterConfig::builder().ports(1).speed(ht_core::Gbps(100)).build().unwrap();
    let built = ht_core::build(&task, &config).unwrap();
    let mut sw = built.switch;
    let mut rng = StdRng::seed_from_u64(1);
    let frame = PacketBuilder::new()
        .ipv4(Ipv4Address::new(9, 9, 9, 9), Ipv4Address::new(10, 0, 0, 1))
        .udp(1000, 80)
        .frame_len(64)
        .build();
    let pkt = sw.make_packet(&frame);
    let mut now = 0u64;
    g.throughput(Throughput::Elements(1));
    g.bench_function("ingress_with_keyed_query", |b| {
        use rand::Rng;
        b.iter(|| {
            let mut p = pkt.clone();
            p.phv.set(&sw.fields, fields::UDP_SPORT, rng.gen_range(0..50_000u64));
            let mut out = ht_asic::Outbox::default();
            now += 6_720;
            sw.process(black_box(p), 1, now, &mut out);
            out
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_packet,
    bench_tables,
    bench_fifo,
    bench_fp_precompute,
    bench_switch_pipeline,
    bench_cuckoo
);
criterion_main!(benches);
