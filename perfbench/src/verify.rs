//! The `verify` workload: selection at the default configuration, then
//! the differential oracle. One op parses a registry program, selects
//! tiles with `Eatss::select_tiles`, and runs `verify_batch` at
//! `verify_sizes(.., 19, 3)` over six tile configurations: the EATSS
//! tiles (`32^d` when the formulation is infeasible), `32^d`, and four
//! `sample_tile_config` draws from the pair's seeded stream, fresh on
//! every visit, so a run averages the oracle's cost over many draws
//! instead of depending on four. A pass visits all 42 pairs.

use crate::calib::HostClock;
use crate::layers;
use crate::pairs::{self, Pair};
use crate::report::{peak_rss_mb, Outcome, Quality};
use crate::spans::Collector;
use crate::stats::{median, tail, throughput};
use crate::Ctx;
use eatss::{Eatss, EatssConfig, EatssError, ModelGenerator};
use eatss_affine::parser::parse_program;
use eatss_affine::tiling::TileConfig;
use eatss_affine::ProblemSizes;
use eatss_bench::oracle::{bench_seed, trips};
use eatss_gpusim::GpuArch;
use eatss_ppcg::oracle::{
    sample_tile_config, sweep_rng, verify_batch, verify_sizes, OracleOptions,
};
use eatss_trace::span;
use rand::rngs::StdRng;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Seeded tile configurations per op, besides EATSS and `32^d`.
const SAMPLED: usize = 4;

/// One pair with its verification inputs.
struct Case {
    pair: Pair,
    verify_sizes: ProblemSizes,
    trips: Vec<i64>,
    rng: StdRng,
}

impl Case {
    fn new(pair: Pair, seed: u64) -> Self {
        let verify_sizes = verify_sizes(&pair.program, &pair.sizes, 19, 3);
        let trips = trips(&pair.program, &verify_sizes);
        let rng = sweep_rng(bench_seed(seed, &pair.label));
        Case {
            pair,
            verify_sizes,
            trips,
            rng,
        }
    }

    /// The next visit's sampled tile configurations.
    fn draw(&mut self) -> Vec<TileConfig> {
        (0..SAMPLED)
            .map(|_| sample_tile_config(&mut self.rng, &self.trips))
            .collect()
    }
}

/// An op's answer: the selected tiles, `None` for a proven-infeasible
/// formulation.
type Selected = Option<Vec<i64>>;

/// One op. `Eatss::select_tiles` is spelled out as its two calls, model
/// build and solve, so each layer gets its own span.
fn op(eatss: &Eatss, case: &Case, sampled: &[TileConfig], seed: u64) -> Result<Selected, String> {
    let _op = span("bench", "op");
    let pair = &case.pair;
    let program = {
        let _s = span("bench", "affine");
        parse_program(pair.source).map_err(|e| e.to_string())?
    };
    let config = EatssConfig::default();
    let model = {
        let _s = span("bench", "core");
        ModelGenerator::new(eatss.arch(), config).build(&program, Some(&pair.sizes))
    };
    let selected = model.and_then(|m| {
        let _s = span("bench", "smt");
        m.solve()
    });
    let depth = program.max_depth();
    let (tiles, answer) = match selected {
        Ok(s) => (s.tiles.clone(), Some(s.tiles.sizes().to_vec())),
        Err(EatssError::Unsatisfiable { .. }) => (TileConfig::ppcg_default(depth), None),
        Err(e) => return Err(format!("{}: select: {e}", pair.label)),
    };
    let mut configs = vec![tiles, TileConfig::ppcg_default(depth)];
    configs.extend_from_slice(sampled);
    let verdicts = {
        let _s = span("bench", "ppcg");
        verify_batch(
            &program,
            &configs,
            eatss.arch(),
            &case.verify_sizes,
            &OracleOptions::default(),
            seed,
        )
    };
    for (tiles, verdict) in configs.iter().zip(&verdicts) {
        if let Err(e) = verdict {
            return Err(format!("{}: tiles {tiles}: {e}", pair.label));
        }
    }
    Ok(answer)
}

/// Why an op failed, if it did: an error or oracle mismatch, or a
/// selection that differs from the first pass.
fn check(
    result: &Result<Selected, String>,
    expected: Option<&Selected>,
    label: &str,
) -> Option<String> {
    match (result, expected) {
        (Err(e), _) => Some(e.clone()),
        (Ok(got), Some(want)) if got != want => Some(format!(
            "{label}: selection {got:?} differs from the first pass {want:?}"
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
    /// Ops in traced passes.
    traced_ops: usize,
}

/// Runs whole passes until `seconds` have elapsed. With a collector,
/// every other pass is traced.
fn window(
    eatss: &Eatss,
    cases: &mut [Case],
    expected: &[Selected],
    ctx: &Ctx,
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
            w.traced_ops += cases.len();
        }
        let pass_started = Instant::now();
        for (case, want) in cases.iter_mut().zip(expected) {
            let sampled = case.draw();
            let (result, lap) = clock.time(|| op(eatss, case, &sampled, ctx.seed));
            w.latencies_ms.push(lap.host_s * 1e3);
            w.wall_latencies_ms.push(lap.wall_s * 1e3);
            o.tally.record(check(&result, Some(want), &case.pair.label));
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

/// Energy and PPW of the default-configuration EATSS tiles relative to
/// `32^d`, geomean over feasible pairs.
fn quality(eatss: &Eatss, cases: &[Case], answers: &[Selected], o: &mut Outcome) {
    let config = EatssConfig::default();
    let mut quality = Quality::default();
    for (case, answer) in cases.iter().zip(answers) {
        let Some(tiles) = answer else { continue };
        let pair = &case.pair;
        let chosen = eatss
            .evaluate(
                &pair.program,
                &TileConfig::new(tiles.clone()),
                &pair.sizes,
                &config,
            )
            .map_err(|e| format!("evaluate: {e}"))
            .and_then(|c| quality.add(eatss, &pair.program, &pair.sizes, &config, &c));
        if let Err(e) = chosen {
            o.tally.fail(format!("{}: {e}", pair.label));
        }
    }
    quality.report(o, "feasible_pairs");
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut expected: Vec<Selected> = Vec::new();
    let mut setup_wall_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        let mut clock = HostClock::new();
        let ((cases, eatss), mut lap) = clock.time(|| {
            let cases: Vec<Case> = pairs::registry(ctx.seed)
                .into_iter()
                .map(|p| Case::new(p, ctx.seed))
                .collect();
            (cases, Eatss::new(GpuArch::ga100()))
        });
        // The warm-up verifies only the EATSS and `32^d` tiles, so its
        // cost does not hang on the seed's sampled draws.
        let warm: Vec<_> = cases
            .iter()
            .map(|c| {
                let (result, op_lap) = clock.time(|| op(&eatss, c, &[], ctx.seed));
                lap.wall_s += op_lap.wall_s;
                lap.host_s += op_lap.host_s;
                result
            })
            .collect();
        setup_s.push(lap.host_s);
        setup_wall_s.push(lap.wall_s);
        for (k, (case, result)) in cases.iter().zip(&warm).enumerate() {
            o.tally
                .record(check(result, expected.get(k), &case.pair.label));
        }
        if expected.is_empty() {
            expected = warm.into_iter().map(|r| r.unwrap_or(None)).collect();
        }
        state = Some((cases, eatss));
    }
    let (mut cases, eatss) = state.expect("at least one set-up");

    let w = if ctx.traced {
        let mut collector = Collector::default();
        let w = window(
            &eatss,
            &mut cases,
            &expected,
            ctx,
            ctx.seconds,
            &mut o,
            Some(&mut collector),
        );
        let overhead = collector.overhead_ratio();
        let (spans, r) = collector.finish();
        let ops = w.traced_ops as f64;
        let per_op = |cat: &str, name: &str| spans.total_us(cat, name).0 as f64 / ops;
        let (parse_us, parses) = spans.total_us("bench", "affine");
        o.set(
            "affine.parse_us",
            layers::ratio(parse_us as f64, parses as f64),
        );
        layers::smt(&mut o, &r, ops);
        let (p50, p99) = spans.quantiles_us("smt", "maximize");
        o.set("smt.maximize_us.p50", p50);
        o.set("smt.maximize_us.p99", p99);
        o.set("smt.solve_us", per_op("bench", "smt"));
        o.set("core.build_model_us", per_op("bench", "core"));
        o.set("ppcg.verify_us", per_op("bench", "ppcg"));
        o.set(
            "ppcg.compile_us",
            spans.layer_self_us("ppcg", "compile") as f64 / ops,
        );
        let verify_s = spans.total_us("bench", "ppcg").0 as f64 / 1e6;
        o.set(
            "oracle.points_per_s",
            layers::ratio(r.counter("oracle.points"), verify_s),
        );
        for name in ["exec.plan_compiles", "exec.points", "exec.blocks"] {
            o.set(name, r.counter(name) / ops);
        }
        o.set("trace.overhead_ratio", overhead);
        o.set("trace.unattributed_share", spans.unattributed_share());
        w
    } else {
        window(
            &eatss,
            &mut cases,
            &expected,
            ctx,
            ctx.seconds,
            &mut o,
            None,
        )
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
    quality(&eatss, &cases, &expected, &mut o);
    let infeasible: Vec<String> = cases
        .iter()
        .zip(&expected)
        .filter(|(_, a)| a.is_none())
        .map(|(c, _)| crate::report::jstr(&c.pair.label))
        .collect();
    o.detail("infeasible_pairs", format!("[{}]", infeasible.join(",")));
    o.detail("ops", w.latencies_ms.len().to_string());
    o.detail("passes", w.pass_s.len().to_string());
    o.detail("pass_s", format!("{:?}", w.pass_s));
    crate::report::wall_details(&mut o, &w.wall_latencies_ms, &setup_wall_s, w.host_speed);
    o.detail("setups_s", format!("{setup_s:?}"));
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_changed_selection_or_an_error_is_a_failure() {
        let first: Selected = Some(vec![32, 16, 1]);
        assert_eq!(
            check(&Ok(first.clone()), Some(&first), "gemm/standard"),
            None
        );
        assert!(check(&Ok(Some(vec![32, 32, 1])), Some(&first), "gemm/standard").is_some());
        assert!(check(&Ok(None), Some(&first), "gemm/standard").is_some());
        assert!(check(&Err("oracle mismatch".into()), None, "gemm/standard").is_some());
        // The first pass has nothing to agree with.
        assert_eq!(check(&Ok(None), None, "b2mm/xl"), None);
    }

    #[test]
    fn sampled_configs_follow_the_seed() {
        let pair = || {
            pairs::registry(3)
                .into_iter()
                .find(|p| p.label == "gemm/standard")
                .unwrap()
        };
        let (mut a, mut b, mut c) = (
            Case::new(pair(), 3),
            Case::new(pair(), 3),
            Case::new(pair(), 4),
        );
        let (da, db, dc) = (a.draw(), b.draw(), c.draw());
        assert_eq!(da, db);
        assert_ne!(da, dc);
        assert_eq!(da.len(), SAMPLED);
        assert_ne!(a.draw(), da, "every visit draws afresh");
    }
}
