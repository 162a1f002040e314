//! Metric names, run provenance and the output lines.

use crate::stats::{geomean, median, tail, throughput, Tail, Tally};
use eatss::{Eatss, EatssConfig};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::SimReport;
use eatss_trace::json::{escape, number};
use std::collections::BTreeMap;
use std::process::Command;

/// End-to-end metrics, printed by every untraced run (`--trace 0`), in
/// the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("hit_latency_tail_ms", "ms"),
    ("miss_latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("energy_ratio_geomean", "ratio"),
    ("ppw_ratio_geomean", "ratio"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// a workload never calls reports 0 (see README.md for which apply).
pub const PER_LAYER: [(&str, &str); 22] = [
    ("affine.parse_us", "us"),
    ("oracle.points_per_s", "1/s"),
    ("exec.plan_compiles", "count/op"),
    ("exec.points", "count/op"),
    ("exec.blocks", "count/op"),
    ("smt.solve_us", "us/op"),
    ("smt.maximize_us.p50", "us"),
    ("smt.maximize_us.p99", "us"),
    ("smt.nodes", "count/op"),
    ("smt.checks", "count/op"),
    ("smt.bound_prunes", "count/op"),
    ("smt.hull_rebuilds", "count/op"),
    ("smt.warm_cut_hit_ratio", "ratio"),
    ("core.build_model_us", "us/op"),
    ("sweep.useful_ratio", "ratio"),
    ("sweep.fallbacks", "count/pass"),
    ("sweep.infeasible", "count/pass"),
    ("ppcg.compile_us", "us/op"),
    ("ppcg.verify_us", "us/op"),
    ("gpusim.simulate_us", "us/op"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// The daemon's layer, printed after [`PER_LAYER`] by traced
/// `serve-mixed` runs only.
pub const SERVE_LAYER: [(&str, &str); 10] = [
    ("serve.queue_us.p99", "us"),
    ("serve.journal_append_us.p99", "us"),
    ("serve.solve_us.p50", "us"),
    ("serve.parse_us.p50", "us"),
    ("parse.cache_hit_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("journal.bytes", "bytes"),
    ("journal.auto_compactions", "count"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted and failed.
    pub tally: Tally,
    /// Metric values by name (end-to-end or per-layer, per the mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific detail fields, each a rendered JSON value.
    pub details: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a detail field (an already rendered JSON value).
    pub fn detail(&mut self, key: &'static str, json: String) {
        self.details.push((key, json));
    }

    /// Records a tail metric and, next to it, its percentile and sample
    /// count.
    pub fn set_tail(&mut self, name: &'static str, tail: &Tail) {
        self.set(name, tail.value);
        self.detail(name, tail_json(tail));
    }
}

/// Fig 7's quality numbers: energy and PPW of the chosen tiles relative
/// to `32^d` under the same configuration, one ratio per feasible input.
#[derive(Debug, Default)]
pub struct Quality {
    energy: Vec<f64>,
    ppw: Vec<f64>,
}

impl Quality {
    /// Adds one input whose chosen tiles measured `chosen`.
    pub fn add(
        &mut self,
        eatss: &Eatss,
        program: &Program,
        sizes: &ProblemSizes,
        config: &EatssConfig,
        chosen: &SimReport,
    ) -> Result<(), String> {
        let default = TileConfig::ppcg_default(program.max_depth());
        let base = eatss
            .evaluate(program, &default, sizes, config)
            .map_err(|e| format!("32^d baseline: {e}"))?;
        self.energy.push(chosen.energy_j / base.energy_j);
        self.ppw.push(chosen.ppw / base.ppw);
        Ok(())
    }

    /// Sets the two geomean metrics and records how many inputs they
    /// cover under `detail`; having no ratio at all is a failure.
    pub fn report(self, o: &mut Outcome, detail: &'static str) {
        o.detail(detail, self.energy.len().to_string());
        for (name, ratios) in [
            ("energy_ratio_geomean", self.energy),
            ("ppw_ratio_geomean", self.ppw),
        ] {
            match geomean(&ratios) {
                Some(g) => o.set(name, g),
                None => {
                    o.tally.fail(format!("{name}: no finite positive ratios"));
                    o.set(name, 0.0);
                }
            }
        }
    }
}

/// A [`Tail`] as a JSON object.
pub fn tail_json(t: &Tail) -> String {
    format!(
        "{{\"value\":{},\"percentile\":{},\"beyond\":{},\"samples\":{},\"slices\":{}}}",
        number(t.value),
        number(t.percentile),
        t.beyond,
        t.samples,
        t.slices
    )
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Runs `git` in the current directory; `None` when git is missing or
/// the directory is not the root of a git checkout.
fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The provenance stamp of a run, as a JSON object.
pub fn provenance(workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
    let cwd = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top = git(&["rev-parse", "--show-toplevel"])
        .and_then(|t| std::path::PathBuf::from(t).canonicalize().ok());
    let in_checkout = cwd.is_some() && cwd == top;
    let (sha, dirty) = if in_checkout {
        let sha = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
        let dirty = match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(s) => (!s.is_empty()).to_string(),
            None => "null".into(),
        };
        (sha, dirty)
    } else {
        ("unknown".to_string(), "null".to_string())
    };
    let rustc = eatss_trace::Provenance::collect(None).rustc_version;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"git_sha\":{},\"dirty\":{},\"rustc\":{},\"nproc\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        jstr(&sha),
        dirty,
        jstr(&rustc),
        nproc,
        jstr(workload),
        seed,
        seconds,
        traced
    )
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Records the timing metrics in wall time next to the gated ones, which
/// are in reference-host time, and how fast the host ran (see `calib`).
pub fn wall_details(o: &mut Outcome, latencies_ms: &[f64], setup_s: &[f64], host_speed: f64) {
    let fields = [
        ("throughput_ops_s", throughput(latencies_ms)),
        ("latency_p50_ms", median(latencies_ms)),
        ("latency_tail_ms", tail(latencies_ms).value),
        ("setup_s", median(setup_s)),
    ];
    let rendered: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", number(*v)))
        .collect();
    o.detail("wall", format!("{{{}}}", rendered.join(",")));
    o.detail("host_speed", number(host_speed));
}

/// The details line: provenance plus workload-specific fields.
pub fn details_line(provenance: &str, outcome: &Outcome) -> String {
    let mut fields = vec![format!("\"provenance\":{provenance}")];
    for (k, v) in &outcome.details {
        fields.push(format!("\"{}\":{}", escape(k), v));
    }
    fields.push(format!(
        "\"failure_ratio\":{}",
        number(outcome.tally.failure_ratio())
    ));
    let reasons: Vec<String> = outcome.tally.reasons.iter().map(|r| jstr(r)).collect();
    fields.push(format!("\"failure_reasons\":[{}]", reasons.join(",")));
    format!("{{{}}}", fields.join(","))
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
/// Untraced runs print [`END_TO_END`]; traced runs print [`PER_LAYER`]
/// followed by `extra`.
///
/// # Panics
///
/// Panics when an end-to-end metric is missing — a bug in the workload.
pub fn result_line(
    outcome: &Outcome,
    traced: bool,
    extra: &[(&'static str, &'static str)],
) -> String {
    let list: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().chain(extra).copied().collect()
    } else {
        END_TO_END.to_vec()
    };
    let metrics: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            let value = match outcome.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eatss_trace::json::Json;

    #[test]
    fn result_line_carries_every_metric_and_counts_failures() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.tally.ok();
        o.tally.fail("forced");
        let line = Json::parse(&result_line(&o, false, &[])).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
        let metrics = line.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let lat = metrics.get("latency_p50_ms").unwrap();
        assert_eq!(lat.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(lat.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn traced_line_lists_every_per_layer_metric() {
        let o = Outcome::default();
        let line = Json::parse(&result_line(&o, true, &SERVE_LAYER)).unwrap();
        let metrics = line.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len() + SERVE_LAYER.len());
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_end_to_end_metric_is_a_bug() {
        result_line(&Outcome::default(), false, &[]);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .chain(&SERVE_LAYER)
            .map(|m| m.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
