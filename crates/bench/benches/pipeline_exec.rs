//! Microbenchmarks of the compiled threaded-code pipeline executor vs the
//! per-stage interpreter, on two representative switch programs from the
//! suite corpus: `fig11_ratectl_40g` (rate-control, SALU-heavy) and
//! `app_syn_flood` (Table 8: keyed state, hashing, range matches).
//!
//! Each iteration drives one pre-parsed packet through the full
//! ingress → traffic manager → egress path via [`ht_asic::Switch::process`]
//! — the exact hot loop the event engine batches — so the measured delta is
//! the executor's alone.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ht_asic::sim::Outbox;
use ht_asic::{ExecMode, SimPacket, Switch};
use ht_bench::corpus::{build_switch, corpus};
use ht_packet::{Ipv4Address, PacketBuilder};

fn corpus_switch(name: &str) -> Switch {
    let entries = corpus();
    let entry = entries
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} missing from the corpus"));
    build_switch(entry)
}

fn udp_packet(sw: &mut Switch, sport: u16) -> SimPacket {
    let bytes = PacketBuilder::new()
        .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
        .udp(sport, 80)
        .frame_len(64)
        .build();
    sw.make_packet(&bytes)
}

fn bench_program(c: &mut Criterion, name: &'static str) {
    let mut g = c.benchmark_group(format!("pipeline_exec/{name}"));
    g.throughput(Throughput::Elements(1));
    for mode in [ExecMode::Interp, ExecMode::Compiled] {
        let mut sw = corpus_switch(name);
        sw.set_exec_mode(mode);
        let template = udp_packet(&mut sw, 1234);
        let mut out = Outbox::default();
        let mut now = 0u64;
        g.bench_function(mode.as_str(), |b| {
            b.iter(|| {
                now += 1_000;
                sw.process(black_box(template.clone()), 0, now, &mut out);
                out.emits.clear();
                out.wakes.clear();
            })
        });
    }
    g.finish();
}

fn bench_fig11(c: &mut Criterion) {
    bench_program(c, "fig11_ratectl_40g");
}

fn bench_table8(c: &mut Criterion) {
    bench_program(c, "app_syn_flood");
}

criterion_group!(pipeline_exec, bench_fig11, bench_table8);
criterion_main!(pipeline_exec);
