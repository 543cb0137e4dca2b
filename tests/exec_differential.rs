//! Invariant-E pins: the compiled threaded-code executor must match the
//! per-stage interpreter byte-for-byte — same simulation digest, same
//! register wrap log, same keyed-query flows — on every shipped task,
//! every stored fuzz counterexample, and a randomized sweep over the fuzz
//! grammar.

use hypertester::bench::fuzz::{exec_differential, gen_spec, SplitMix64, TaskSpec};
use hypertester::ntapi::resolve_file;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
}

#[test]
fn every_shipped_task_runs_identically_under_all_executors() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(root().join("tasks"))
        .expect("tasks directory readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "nt"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 3, "expected the shipped task files, saw {}", paths.len());
    for path in paths {
        let prog =
            resolve_file(&path, &[], &[]).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let d = exec_differential(&prog)
            .unwrap_or_else(|| panic!("{}: does not build on the fuzz testbed", path.display()));
        assert!(
            d.agree(),
            "{}: compiled {:#018x}/{:?} wraps/{:?} flows vs interp {:#018x}/{:?} wraps/{:?} \
             flows",
            path.display(),
            d.compiled,
            d.wrap_events.1,
            d.compiled_flows,
            d.interp,
            d.wrap_events.0,
            d.interp_flows,
        );
    }
}

#[test]
fn every_corpus_case_runs_identically_under_all_executors() {
    let dir = root().join("tests/fuzz_corpus");
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus directory readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "corpus should hold at least the seed cases");
    for path in names {
        let body = std::fs::read_to_string(&path).expect("corpus entry readable");
        let line = body
            .lines()
            .find(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
            .unwrap_or_default();
        let Some(spec) = TaskSpec::parse(line) else {
            panic!("{}: unparseable corpus entry", path.display());
        };
        // Statically rejected cases have no simulation to compare; modular
        // specs that fail resolution likewise.
        let prog = if spec.modular {
            match spec.resolve_modular() {
                Ok(p) => p,
                Err(_) => continue,
            }
        } else {
            spec.to_program()
        };
        if let Some(d) = exec_differential(&prog) {
            assert!(
                d.agree(),
                "{}: compiled {:#018x} vs interp {:#018x}",
                path.display(),
                d.compiled,
                d.interp,
            );
        }
    }
}

#[test]
fn randomized_grammar_specs_agree_under_all_executors() {
    // Property sweep: every accepted draw from the fuzz grammar must run
    // identically under both executors.  The modular/resolver axis is
    // covered by the fuzz oracle itself (invariant E in `check_spec`);
    // here we sweep the builder renderings for breadth.
    let mut rng = SplitMix64::new(0xE);
    let mut agreed = 0usize;
    for _ in 0..60 {
        let spec = gen_spec(&mut rng);
        let Some(d) = exec_differential(&spec.to_program()) else {
            continue;
        };
        assert!(
            d.agree(),
            "{}: compiled {:#018x} vs interp {:#018x}",
            spec.to_line(),
            d.compiled,
            d.interp,
        );
        agreed += 1;
    }
    assert!(agreed >= 10, "sweep too vacuous: only {agreed} accepted specs");
}
