//! Cross-crate observability tests: the `eatss-trace` layer wired through
//! the real solve → codegen → simulate pipeline.
//!
//! Trace collection is process-global, so every test here serializes on
//! `SESSION` (a poisoned lock is recovered — a failed test must not take
//! the rest of the suite down with it).

#![forbid(unsafe_code)]

use eatss::{Eatss, EatssConfig, SolutionProvenance, SweepOptions};
use eatss_affine::parser::parse_program;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_ppcg::{verify, verify_batch, BarrierFidelity, ExecOptions, OracleError, OracleOptions};
use eatss_trace::{EventKind, Provenance};
use proptest::prelude::*;
use std::sync::Mutex;

static SESSION: Mutex<()> = Mutex::new(());

fn session() -> std::sync::MutexGuard<'static, ()> {
    SESSION.lock().unwrap_or_else(|e| e.into_inner())
}

fn mm() -> Program {
    parse_program(
        "kernel mm(M, N, P) {
           for (i: M) for (j: N) for (k: P)
             C[i][j] += A[i][k] * B[k][j];
         }",
    )
    .expect("mm parses")
}

fn sizes(m: i64, n: i64, p: i64) -> ProblemSizes {
    ProblemSizes::new([("M", m), ("N", n), ("P", p)])
}

/// The registry is fed per-call deltas by the instrumented solver entry
/// points; their sum must equal the solver's own accumulated stats.
#[test]
fn registry_counters_match_solver_stats() {
    let _guard = session();
    let program = mm();
    let sz = sizes(2000, 2000, 2000);
    eatss_trace::start_collecting();
    let solution = Eatss::new(GpuArch::ga100())
        .select_tiles(&program, &sz, &EatssConfig::default())
        .expect("mm solves");
    let trace = eatss_trace::drain(Provenance::collect(None));
    let st = &solution.stats;
    assert!(st.nodes > 0, "solve did no search work");
    for (counter, expected) in [
        ("smt.checks", st.checks),
        ("smt.nodes", st.nodes),
        ("smt.propagations", st.propagations),
        ("smt.values_pruned", st.values_pruned),
        ("smt.backtracks", st.backtracks),
        ("smt.bound_prunes", st.bound_prunes),
        ("smt.hull_rebuilds", st.hull_rebuilds),
        ("smt.node_limit_hits", st.node_limit_hits),
        ("smt.deadline_hits", st.deadline_hits),
        ("smt.cancellations", st.cancellations),
    ] {
        assert_eq!(
            trace.metrics.counter(counter),
            expected,
            "registry `{counter}` disagrees with SolverStats"
        );
    }
    // Time counters accumulate per-call truncated microseconds, so they
    // can only undershoot the exact Duration — by less than 1us per call.
    let total_us = st.solve_time.as_micros() as u64;
    let flowed_us = trace.metrics.counter("smt.solve_time_us");
    assert!(
        flowed_us <= total_us && total_us - flowed_us <= st.checks,
        "smt.solve_time_us {flowed_us} vs exact {total_us} ({} checks)",
        st.checks
    );
}

/// A warm-started sweep flows its warm-start counters into the registry:
/// the registry totals equal the sum over its solutions' `SolverStats`.
#[test]
fn registry_warm_counters_match_warm_sweep() {
    let _guard = session();
    let program = mm();
    let sz = sizes(2000, 2000, 2000);
    let options = SweepOptions {
        jobs: 1,
        ..SweepOptions::default()
    };
    eatss_trace::start_collecting();
    let outcome = Eatss::new(GpuArch::ga100())
        .sweep_with(&program, &sz, &[0.67, 0.5, 0.0], &[0.5], &options)
        .expect("mm sweeps");
    let trace = eatss_trace::drain(Provenance::collect(Some(1)));
    // Every point solved on the first rung, so the points' stats cover
    // every maximize the sweep ran.
    assert_eq!(outcome.points.len(), 6);
    assert!(outcome
        .points
        .iter()
        .all(|p| p.solution.provenance == SolutionProvenance::Solved));
    let seeds: u64 = outcome
        .points
        .iter()
        .map(|p| p.solution.stats.warm_seeds)
        .sum();
    let hits: u64 = outcome
        .points
        .iter()
        .map(|p| p.solution.stats.warm_cut_hits)
        .sum();
    assert!(seeds > 0, "no point of the chain was warm-seeded");
    assert_eq!(trace.metrics.counter("smt.warm_seeds"), seeds);
    assert_eq!(trace.metrics.counter("smt.warm_cut_hits"), hits);
}

/// A full selection + evaluation covers every pipeline stage, the span
/// stream is balanced, and the simulator spans nest under the pipeline's
/// `simulate` stage.
#[test]
fn full_pipeline_trace_covers_solve_codegen_simulate() {
    let _guard = session();
    let program = mm();
    let sz = sizes(512, 512, 512);
    let config = EatssConfig::default();
    let eatss = Eatss::new(GpuArch::ga100());
    eatss_trace::start_collecting();
    let solution = eatss
        .select_tiles(&program, &sz, &config)
        .expect("mm solves");
    let report = eatss
        .evaluate(&program, &solution.tiles, &sz, &config)
        .expect("mm evaluates");
    let trace = eatss_trace::drain(Provenance::collect(None));
    assert!(report.valid);
    trace.check_balance().expect("balanced spans");

    let names = trace.span_names();
    for (cat, name) in [
        ("eatss", "solve"),
        ("pipeline", "codegen"),
        ("pipeline", "simulate"),
        ("ppcg", "compile"),
        ("ppcg", "map"),
        ("ppcg", "codegen"),
        ("ppcg", "hostgen"),
        ("sim", "launch"),
        ("sim", "occupancy"),
        ("sim", "timing"),
        ("sim", "power"),
    ] {
        assert!(
            names.contains(&(cat.to_string(), name.to_string())),
            "missing span {cat}:{name} (got {names:?})"
        );
    }

    // Walk a sim:launch span's parent chain: it must pass through the
    // pipeline-level simulate stage before reaching the root.
    let mut parents = std::collections::BTreeMap::new();
    let mut spans = std::collections::BTreeMap::new();
    for e in &trace.events {
        if let EventKind::Begin { id, parent } = e.kind {
            parents.insert(id, parent);
            spans.insert(id, (e.cat, e.name.clone()));
        }
    }
    let (launch_id, _) = spans
        .iter()
        .find(|(_, (cat, name))| *cat == "sim" && name == "launch")
        .expect("a sim:launch span");
    let mut cursor = *launch_id;
    let mut chain = Vec::new();
    while cursor != 0 {
        chain.push(spans[&cursor].1.clone());
        cursor = parents[&cursor];
    }
    assert!(
        chain.iter().any(|n| n == "simulate"),
        "sim:launch does not nest under pipeline:simulate: {chain:?}"
    );

    // The Chrome serialization must be well-formed JSON with a non-empty
    // event array and stamped provenance.
    let doc = eatss_trace::json::Json::parse(&trace.to_chrome_json()).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    assert!(doc
        .get("otherData")
        .and_then(|v| v.get("provenance"))
        .and_then(|v| v.get("git_sha"))
        .is_some());
}

/// `verify_batch` emulates a repeated tile configuration once and copies
/// its verdict: results, reports and `oracle.*` counters equal
/// independent `verify` calls config by config, while `exec.points`
/// counts executions. Covered under both barrier fidelities, so copied
/// mismatch verdicts are checked too.
#[test]
fn verify_batch_with_repeated_configs_matches_independent_verify() {
    let _guard = session();
    let program = mm();
    let sz = sizes(9, 10, 7);
    let arch = GpuArch::ga100();
    let configs: Vec<TileConfig> = [
        vec![32, 32, 32],
        vec![4, 4, 4],
        vec![32, 32, 32],
        vec![3, 5, 2],
        vec![4, 4, 4],
    ]
    .into_iter()
    .map(TileConfig::new)
    .collect();
    for barrier_fidelity in [BarrierFidelity::Faithful, BarrierFidelity::SkipLoadBarrier] {
        let options = OracleOptions {
            exec: ExecOptions {
                barrier_fidelity,
                ..ExecOptions::default()
            },
            ..OracleOptions::default()
        };
        eatss_trace::start_collecting();
        let solo: Vec<_> = configs
            .iter()
            .map(|tiles| verify(&program, tiles, &arch, &sz, &options, 7))
            .collect();
        let solo_trace = eatss_trace::drain(Provenance::collect(None));
        eatss_trace::start_collecting();
        let batch = verify_batch(&program, &configs, &arch, &sz, &options, 7);
        let batch_trace = eatss_trace::drain(Provenance::collect(None));

        assert_eq!(batch, solo, "{barrier_fidelity:?}: verdicts diverge");
        assert_eq!(
            barrier_fidelity == BarrierFidelity::SkipLoadBarrier,
            batch
                .iter()
                .any(|r| matches!(r, Err(OracleError::Mismatch { .. }))),
            "only the barrier-less emulation may mismatch"
        );
        for counter in ["oracle.points", "oracle.configs", "oracle.mismatches"] {
            assert_eq!(
                batch_trace.metrics.counter(counter),
                solo_trace.metrics.counter(counter),
                "{barrier_fidelity:?}: `{counter}` diverges"
            );
        }
        // Three distinct configurations of five, each 9·10·7 points.
        assert_eq!(solo_trace.metrics.counter("exec.points"), 5 * 630);
        assert_eq!(batch_trace.metrics.counter("exec.points"), 3 * 630);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// PR 2's bit-identical parallel-sweep guarantee extends to traces:
    /// the canonical `(lane, seq)` merge makes the structural signature of
    /// a `--jobs 4` sweep identical to the sequential one.
    #[test]
    fn parallel_sweep_trace_matches_sequential(
        m in 128i64..640,
        n in 128i64..640,
        p in 128i64..640,
    ) {
        let _guard = session();
        let program = mm();
        let sz = sizes(m, n, p);
        let eatss = Eatss::new(GpuArch::ga100());
        let splits = [0.5, 0.25];
        let fracs = [0.5];

        let seq_opts = SweepOptions { jobs: 1, ..SweepOptions::default() };
        eatss_trace::start_collecting();
        let seq = eatss.sweep_with(&program, &sz, &splits, &fracs, &seq_opts);
        let seq_trace = eatss_trace::drain(Provenance::collect(Some(1)));

        let par_opts = SweepOptions { jobs: 4, ..SweepOptions::default() };
        eatss_trace::start_collecting();
        let par = eatss.sweep_with(&program, &sz, &splits, &fracs, &par_opts);
        let par_trace = eatss_trace::drain(Provenance::collect(Some(4)));

        prop_assert_eq!(seq.is_ok(), par.is_ok());
        prop_assert_eq!(seq_trace.signature(), par_trace.signature());
        // Wall-clock counters (`*_us`) vary run to run; every discrete
        // counter must agree exactly.
        let discrete = |t: &eatss_trace::Trace| -> std::collections::BTreeMap<String, u64> {
            t.metrics
                .counters
                .iter()
                .filter(|(k, _)| !k.ends_with("_us"))
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        };
        prop_assert_eq!(discrete(&seq_trace), discrete(&par_trace));
        prop_assert!(seq_trace.check_balance().is_ok());
        prop_assert!(par_trace.check_balance().is_ok());
        if let (Ok(seq), Ok(par)) = (seq, par) {
            prop_assert_eq!(seq.points.len(), par.points.len());
        }
    }
}
