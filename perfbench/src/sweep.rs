//! The `sweep` workload: the paper's selection loop (§V-B/§V-D) and its
//! §V-G overhead. One op parses a registry program and runs
//! `Eatss::sweep` over `PAPER_SPLITS × PAPER_WARP_FRACTIONS` for one
//! dataset; a pass visits all 42 (program, dataset) pairs in seeded
//! order, and every run measures whole passes.

use crate::calib::HostClock;
use crate::layers;
use crate::pairs::{self, Pair};
use crate::report::{peak_rss_mb, Outcome, Quality};
use crate::spans::Collector;
use crate::stats::{median, tail, throughput, SplitMix};
use crate::Ctx;
use eatss::sweep::{PAPER_SPLITS, PAPER_WARP_FRACTIONS};
use eatss::{Eatss, ModelGenerator, SolutionProvenance, SweepOptions, SweepOutcome};
use eatss_affine::parser::parse_program;
use eatss_gpusim::GpuArch;
use eatss_trace::span;
use std::fmt::Write as _;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Shares of the reference-engine cross-check that follows the timed
/// window. Checking every distinct optimum takes about 50 s on one
/// core, so a run checks share `seed % REFERENCE_SHARES`; eight seeds in
/// a row check every optimum.
const REFERENCE_SHARES: usize = 8;

/// One op: parse, then the paper's configuration sweep.
fn op(eatss: &Eatss, pair: &Pair) -> Result<SweepOutcome, String> {
    let _op = span("bench", "op");
    let program = {
        let _s = span("bench", "affine");
        parse_program(pair.source).map_err(|e| e.to_string())?
    };
    let _s = span("bench", "core");
    let options = SweepOptions {
        jobs: 1,
        ..SweepOptions::default()
    };
    eatss
        .sweep_with(
            &program,
            &pair.sizes,
            &PAPER_SPLITS,
            &PAPER_WARP_FRACTIONS,
            &options,
        )
        .map_err(|e| e.to_string())
}

/// Everything an op's answer consists of, rendered exactly (floats by
/// their bits), so two passes can be compared byte for byte.
fn fingerprint(result: &Result<SweepOutcome, String>) -> String {
    let mut fp = String::new();
    match result {
        Err(e) => fp.push_str(e),
        Ok(out) => {
            for p in &out.points {
                let _ = write!(
                    fp,
                    "{:?}|{:?}|{}|{:?}|{:x}|{:x}|{:x};",
                    p.config,
                    p.solution.tiles.sizes(),
                    p.solution.objective,
                    p.solution.provenance,
                    p.report.energy_j.to_bits(),
                    p.report.ppw.to_bits(),
                    p.report.time_s.to_bits(),
                );
            }
            for (c, reason) in &out.infeasible {
                let _ = write!(fp, "infeasible {c:?} {reason};");
            }
            for (c, e) in &out.failures {
                let _ = write!(fp, "failed {c:?} {e};");
            }
        }
    }
    fp
}

/// Why an op's result is wrong, if it is: an error, a point that could
/// not be measured, or an answer that differs from the first pass.
fn check(
    pair: &Pair,
    result: &Result<SweepOutcome, String>,
    expected: Option<&str>,
) -> Option<String> {
    match result {
        Err(e) => return Some(format!("{}: {e}", pair.label)),
        Ok(out) if !out.failures.is_empty() => {
            return Some(format!(
                "{}: {} unmeasured point(s)",
                pair.label,
                out.failures.len()
            ))
        }
        Ok(_) => {}
    }
    match expected {
        Some(fp) if fp != fingerprint(result) => Some(format!(
            "{}: result differs from the first pass",
            pair.label
        )),
        _ => None,
    }
}

/// What one timed window measured.
#[derive(Default)]
struct Window {
    /// Op latencies in reference-host time (see `calib`).
    latencies_ms: Vec<f64>,
    /// The same in wall time.
    wall_latencies_ms: Vec<f64>,
    /// How fast the host ran relative to the reference host.
    host_speed: f64,
    pass_s: Vec<f64>,
    /// Traced passes only: ops, solved (not fallback) points, and the
    /// warm-start seeds and cut hits of their solutions.
    traced_ops: usize,
    solved_points: u64,
    warm_seeds: u64,
    warm_cut_hits: u64,
}

/// Runs whole passes until `seconds` have elapsed, checking every op
/// against the first pass. With a collector, every other pass is traced.
fn window(
    eatss: &Eatss,
    pairs: &[Pair],
    expected: &[String],
    seconds: f64,
    o: &mut Outcome,
    mut collector: Option<&mut Collector>,
) -> Window {
    let mut w = Window::default();
    let mut clock = HostClock::new();
    let min_passes = if collector.is_some() { 2 } else { 1 };
    let started = Instant::now();
    while w.pass_s.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
        let traced = collector.is_some() && Collector::traces(w.pass_s.len());
        if traced {
            eatss_trace::start_collecting();
        }
        let pass_started = Instant::now();
        for (pair, fp) in pairs.iter().zip(expected) {
            let (result, lap) = clock.time(|| op(eatss, pair));
            w.latencies_ms.push(lap.host_s * 1e3);
            w.wall_latencies_ms.push(lap.wall_s * 1e3);
            if let (true, Ok(out)) = (traced, &result) {
                w.traced_ops += 1;
                for p in &out.points {
                    if p.solution.provenance != SolutionProvenance::DefaultFallback {
                        w.solved_points += 1;
                    }
                    w.warm_seeds += p.solution.stats.warm_seeds;
                    w.warm_cut_hits += p.solution.stats.warm_cut_hits;
                }
            }
            o.tally.record(check(pair, &result, Some(fp)));
        }
        let pass_s = pass_started.elapsed().as_secs_f64();
        w.pass_s.push(pass_s);
        if let Some(c) = collector.as_deref_mut() {
            if traced {
                c.absorb();
                c.traced_s.push(pass_s);
            } else {
                c.untraced_s.push(pass_s);
            }
        }
    }
    w.host_speed = clock.host_speed();
    w
}

/// Fig 7's quality numbers: geomeans over feasible pairs of the
/// PPW-best point's energy and PPW relative to `32^d` under the same
/// configuration.
fn quality(
    eatss: &Eatss,
    pairs: &[Pair],
    results: &[Result<SweepOutcome, String>],
    o: &mut Outcome,
) {
    let mut quality = Quality::default();
    for (pair, result) in pairs.iter().zip(results) {
        let Some(best) = result.as_ref().ok().and_then(SweepOutcome::best_by_ppw) else {
            continue;
        };
        if best.solution.provenance == SolutionProvenance::DefaultFallback {
            continue;
        }
        if let Err(e) = quality.add(
            eatss,
            &pair.program,
            &pair.sizes,
            &best.config,
            &best.report,
        ) {
            o.tally.fail(format!("{}: {e}", pair.label));
        }
    }
    quality.report(o, "feasible_pairs");
}

/// Cross-checks one fixed share of the solved optima against the
/// retained reference engine: every `REFERENCE_SHARES`-th optimum of a
/// fixed shuffle, starting at `seed % REFERENCE_SHARES`.
/// Returns how many were checked out of how many distinct optima there
/// are.
fn reference_check(
    eatss: &Eatss,
    pairs: &[Pair],
    results: &[Result<SweepOutcome, String>],
    seed: u64,
    o: &mut Outcome,
) -> (usize, usize) {
    let mut items: Vec<(usize, usize)> = Vec::new();
    for (i, result) in results.iter().enumerate() {
        if let Ok(out) = result {
            for (j, p) in out.points.iter().enumerate() {
                if p.solution.provenance == SolutionProvenance::Solved {
                    items.push((i, j));
                }
            }
        }
    }
    // A fixed shuffle, the same for every seed, spreads the expensive
    // optima evenly over the shares.
    items.sort_by_key(|&(i, j)| (pairs[i].label.as_str(), j));
    SplitMix::new(0, 0x5245_4645).shuffle(&mut items);
    let share = (seed % REFERENCE_SHARES as u64) as usize;
    let mut checked = 0;
    for &(i, j) in items.iter().skip(share).step_by(REFERENCE_SHARES) {
        let (pair, point) = (
            &pairs[i],
            &results[i].as_ref().expect("listed above").points[j],
        );
        let model = ModelGenerator::new(eatss.arch(), point.config.clone())
            .build(&pair.program, Some(&pair.sizes));
        let verdict = match model {
            Err(e) => Some(format!("{}: rebuilding the formulation: {e}", pair.label)),
            Ok(model) => {
                let (solver, objective) = model.into_parts();
                match eatss_smt::reference::maximize(&solver, &objective) {
                    Ok(r) if r.best == Some(point.solution.objective) => None,
                    Ok(r) => Some(format!(
                        "{} {:?}: objective {} but the reference engine finds {:?}",
                        pair.label, point.config, point.solution.objective, r.best
                    )),
                    Err(e) => Some(format!("{}: reference engine: {e}", pair.label)),
                }
            }
        };
        o.tally.record(verdict);
        checked += 1;
    }
    (checked, items.len())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut first: Vec<Result<SweepOutcome, String>> = Vec::new();
    let mut expected: Vec<String> = Vec::new();
    let mut setup_wall_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        let mut clock = HostClock::new();
        let ((pairs, eatss), mut lap) =
            clock.time(|| (pairs::registry(ctx.seed), Eatss::new(GpuArch::ga100())));
        let warm: Vec<_> = pairs
            .iter()
            .map(|p| {
                let (result, op_lap) = clock.time(|| op(&eatss, p));
                lap.wall_s += op_lap.wall_s;
                lap.host_s += op_lap.host_s;
                result
            })
            .collect();
        setup_s.push(lap.host_s);
        setup_wall_s.push(lap.wall_s);
        // The first warm-up pass is the reference every later op must
        // reproduce exactly.
        for (k, (pair, result)) in pairs.iter().zip(&warm).enumerate() {
            o.tally
                .record(check(pair, result, expected.get(k).map(String::as_str)));
        }
        if first.is_empty() {
            expected = warm.iter().map(fingerprint).collect();
            first = warm;
        }
        state = Some((pairs, eatss));
    }
    let (pairs, eatss) = state.expect("at least one set-up");

    let w = if ctx.traced {
        let mut collector = Collector::default();
        let w = window(
            &eatss,
            &pairs,
            &expected,
            ctx.seconds,
            &mut o,
            Some(&mut collector),
        );
        let overhead = collector.overhead_ratio();
        let (spans, r) = collector.finish();
        let ops = w.traced_ops as f64;
        let (parse_us, parses) = spans.total_us("bench", "affine");
        o.set(
            "affine.parse_us",
            layers::ratio(parse_us as f64, parses as f64),
        );
        layers::smt(&mut o, &r, ops);
        // The solver's warm-start counters do not reach the registry, so
        // the ratio is summed from the solutions' own statistics.
        o.set(
            "smt.warm_cut_hit_ratio",
            layers::ratio(w.warm_cut_hits as f64, w.warm_seeds as f64),
        );
        let (p50, p99) = spans.quantiles_us("smt", "maximize");
        o.set("smt.maximize_us.p50", p50);
        o.set("smt.maximize_us.p99", p99);
        // Inside a sweep a solve attempt is model build plus solve; its
        // time outside the solver's span is the build.
        o.set(
            "core.build_model_us",
            spans.layer_self_us("sweep", "solve_attempt") as f64 / ops,
        );
        layers::sweep(&mut o, &r, w.solved_points as f64, ops / pairs.len() as f64);
        o.set(
            "ppcg.compile_us",
            spans.layer_self_us("ppcg", "compile") as f64 / ops,
        );
        o.set(
            "gpusim.simulate_us",
            spans.total_us("pipeline", "simulate").0 as f64 / ops,
        );
        o.set("trace.overhead_ratio", overhead);
        o.set("trace.unattributed_share", spans.unattributed_share());
        w
    } else {
        window(&eatss, &pairs, &expected, ctx.seconds, &mut o, None)
    };
    let t = tail(&w.latencies_ms);
    o.set("throughput_ops_s", throughput(&w.latencies_ms));
    o.set("latency_p50_ms", median(&w.latencies_ms));
    o.set_tail("latency_tail_ms", &t);
    // Every timed op repeats a key of the warm-up pass and nothing is
    // cached, so every op is both a repeated key and a full computation.
    o.set_tail("hit_latency_tail_ms", &t);
    o.set("miss_latency_p50_ms", median(&w.latencies_ms));
    o.set("setup_s", median(&setup_s));
    o.set("peak_rss_mb", peak_rss_mb());
    quality(&eatss, &pairs, &first, &mut o);
    let started = Instant::now();
    let (checked, distinct) = reference_check(&eatss, &pairs, &first, ctx.seed, &mut o);
    let reference_s = started.elapsed().as_secs_f64();
    o.detail("ops", w.latencies_ms.len().to_string());
    o.detail("passes", w.pass_s.len().to_string());
    o.detail("pass_s", format!("{:?}", w.pass_s));
    crate::report::wall_details(&mut o, &w.wall_latencies_ms, &setup_wall_s, w.host_speed);
    o.detail("setups_s", format!("{setup_s:?}"));
    o.detail(
        "reference_checked",
        format!(
            "{{\"checked\":{checked},\"distinct_optima\":{distinct},\"seconds\":{reference_s}}}"
        ),
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_that_differs_from_the_first_pass_is_a_failure() {
        let pair = pairs::registry(1)
            .into_iter()
            .find(|p| p.label == "jacobi-1d/standard")
            .unwrap();
        let eatss = Eatss::new(GpuArch::ga100());
        let result = op(&eatss, &pair);
        let fp = fingerprint(&result);
        assert_eq!(
            fingerprint(&op(&eatss, &pair)),
            fp,
            "a sweep repeats exactly"
        );
        assert_eq!(check(&pair, &result, Some(&fp)), None);
        assert!(check(&pair, &result, Some("a different answer")).is_some());
        assert!(check(&pair, &Err("solver failed".into()), None).is_some());
    }
}
