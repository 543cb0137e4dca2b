//! Property-based tests for the switch-CPU timing models.

use ht_asic::digest::{DigestId, DigestRecord};
use ht_cpu::{PullMode, SwitchCpu};
use proptest::prelude::*;

proptest! {
    /// Digest drain time is additive and goodput monotone in message size
    /// for a fixed message count.
    #[test]
    fn digest_goodput_monotone_in_size(fields_a in 1usize..16, extra in 1usize..16, n in 1usize..100) {
        let cpu = SwitchCpu::new();
        let rec = |fields: usize| -> Vec<DigestRecord> {
            (0..n).map(|i| DigestRecord { id: DigestId(0), values: vec![i as u64; fields], at: 0 }).collect()
        };
        let small = cpu.drain_records(rec(fields_a));
        let large = cpu.drain_records(rec(fields_a + extra));
        prop_assert!(large.elapsed > small.elapsed);
        prop_assert!(large.goodput_bps > small.goodput_bps,
                     "goodput {} !> {}", large.goodput_bps, small.goodput_bps);
    }

    /// Pull latency is linear in the counter count for both modes, and the
    /// batch mode wins beyond a small count.
    #[test]
    fn pull_latency_scaling(n in 64usize..4096) {
        let cpu = SwitchCpu::new();
        let mut sw = ht_asic::Switch::new("sw", 1);
        let reg = sw.regs.alloc("c", 64, 4096);
        let single = cpu.pull_counters(&sw, reg, n, PullMode::OneByOne);
        let batch = cpu.pull_counters(&sw, reg, n, PullMode::Batch);
        prop_assert_eq!(single.values.len(), n);
        prop_assert_eq!(single.elapsed, cpu.model.counter_read_single * n as u64);
        prop_assert_eq!(
            batch.elapsed,
            cpu.model.counter_batch_setup + cpu.model.counter_batch_per_counter * n as u64
        );
        prop_assert!(batch.elapsed < single.elapsed);
    }

    /// Injection schedules exactly one rx event per template, strictly
    /// spaced by the per-packet cost.
    #[test]
    fn injection_spacing(n in 1usize..50, start in 0u64..1_000_000) {
        let cpu = SwitchCpu::new();
        let mut world = ht_asic::World::builder().seed(1).build().unwrap();
        let sw = world.add_device(Box::new(ht_asic::Switch::new("sw", 1)));
        let ft = ht_asic::FieldTable::new();
        let templates: Vec<ht_asic::SimPacket> = (0..n)
            .map(|i| ht_asic::SimPacket { phv: ft.new_phv(), uid: i as u64 })
            .collect();
        let plan = cpu.inject_templates(&mut world, sw, templates, start);
        prop_assert_eq!(plan.times.len(), n);
        prop_assert_eq!(plan.times[0], start);
        for w in plan.times.windows(2) {
            prop_assert_eq!(w[1] - w[0], cpu.model.inject_per_packet);
        }
        prop_assert_eq!(plan.done_at, start + (n as u64 - 1) * cpu.model.inject_per_packet);
    }
}
