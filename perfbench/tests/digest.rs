//! Tracing and slicing must not perturb the simulation: for one seed, the
//! traced run, the untraced run and a run whose window is one unsliced
//! `run_until` produce the same simulated-output digest, and all three
//! pass their output checks.

use perfbench::ledger::SpanLog;
use perfbench::pace::Pacer;
use perfbench::workload::{run, Spec, Stepping, NAMES};
use std::sync::Arc;

#[test]
fn tracing_and_slicing_leave_the_digest_unchanged() {
    let exec = ht_asic::exec::default_mode();
    let pacer = &mut Pacer::new();
    for name in NAMES {
        let spec = Spec::named(name).expect("listed workload");
        let log = Arc::new(SpanLog::new());
        let untraced = run(&spec, 7, exec, None, Stepping::Sliced, pacer).expect("untraced run");
        let traced = run(&spec, 7, exec, Some(&log), Stepping::Sliced, pacer).expect("traced run");
        let whole = run(&spec, 7, exec, None, Stepping::Whole, pacer).expect("unsliced run");
        for out in [&untraced, &traced, &whole] {
            let failed: Vec<_> = out.checks.iter().filter(|c| !c.passed).collect();
            assert!(failed.is_empty(), "{name}: {failed:?}");
        }
        assert_eq!(untraced.digest, traced.digest, "{name}: tracing changed the outputs");
        assert_eq!(untraced.digest, whole.digest, "{name}: slicing changed the outputs");
        assert_eq!(traced.slices.len(), spec.slices as usize);
        assert_eq!(whole.slices.len(), 1);
        assert!(untraced.layers.is_empty());
        assert!(traced.layers.iter().any(|m| m.name == "switch.ns_per_pass"));
        let spans = log.spans();
        for step in ["parse", "lower", "build", "exec_lower", "inject", "slice1", "collect"] {
            assert!(spans.iter().any(|s| s.name == step), "{name}: no {step} span");
        }
    }
}
