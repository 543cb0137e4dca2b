//! Template injection over PCIe.
//!
//! §5.1: "switch CPU generates a series of template packets" which the ASIC
//! then accelerates.  Injection is a startup-phase activity: templates are
//! few (bounded by the accelerator capacity, 89 at 64 B) and each costs one
//! PCIe doorbell + DMA, modeled as a fixed per-packet delay.

use crate::CpuTimingModel;
use ht_asic::switch::CPU_PORT;
use ht_asic::time::SimTime;
use ht_asic::{DeviceId, SimPacket, World};

/// The result of scheduling template injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionPlan {
    /// Injection time of each template, in order.
    pub times: Vec<SimTime>,
    /// Time the last template enters the ASIC.
    pub done_at: SimTime,
}

/// Schedules `templates` into `switch`'s PCIe port starting at `start`,
/// spacing them by the model's per-packet injection cost.
pub fn inject_templates(
    model: &CpuTimingModel,
    world: &mut World,
    switch: DeviceId,
    templates: Vec<SimPacket>,
    start: SimTime,
) -> InjectionPlan {
    let mut times = Vec::with_capacity(templates.len());
    let mut t = start;
    for pkt in templates {
        world.schedule_rx(switch, CPU_PORT, pkt, t);
        times.push(t);
        t += model.inject_per_packet;
    }
    let done_at = times.last().copied().unwrap_or(start);
    InjectionPlan { times, done_at }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_asic::{FieldTable, Switch};

    fn blank(n: usize) -> Vec<SimPacket> {
        let t = FieldTable::new();
        (0..n).map(|i| SimPacket { phv: t.new_phv(), uid: i as u64 }).collect()
    }

    #[test]
    fn templates_are_spaced_by_injection_cost() {
        let model = CpuTimingModel::default();
        let mut w = World::builder().seed(1).build().unwrap();
        let sw = w.add_device(Box::new(Switch::new("sw", 1)));
        let plan = inject_templates(&model, &mut w, sw, blank(3), 1_000);
        assert_eq!(plan.times.len(), 3);
        assert_eq!(plan.times[0], 1_000);
        assert_eq!(plan.times[1] - plan.times[0], model.inject_per_packet);
        assert_eq!(plan.done_at, plan.times[2]);
    }

    #[test]
    fn empty_injection_completes_immediately() {
        let model = CpuTimingModel::default();
        let mut w = World::builder().seed(1).build().unwrap();
        let sw = w.add_device(Box::new(Switch::new("sw", 1)));
        let plan = inject_templates(&model, &mut w, sw, Vec::new(), 5_000);
        assert!(plan.times.is_empty());
        assert_eq!(plan.done_at, 5_000);
    }
}
