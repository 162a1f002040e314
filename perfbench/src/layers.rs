//! Per-layer metrics shared by the workloads: the program's own counters
//! and histograms, read either in-process or through the daemon's
//! `metrics` op, normalised per op.

use crate::report::Outcome;
use eatss_trace::json::Json;
use eatss_trace::MetricsSnapshot;
use std::collections::BTreeMap;

/// A flattened copy of the metrics registry.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    /// Histogram name → (p50, p99) estimates.
    quantiles: BTreeMap<String, (f64, f64)>,
}

impl Registry {
    /// From an in-process snapshot.
    pub fn from_snapshot(m: &MetricsSnapshot) -> Self {
        Registry {
            counters: m
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v as f64))
                .collect(),
            gauges: m.gauges.clone(),
            quantiles: m
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), (h.quantile(0.5) as f64, h.quantile(0.99) as f64)))
                .collect(),
        }
    }

    /// From the `metrics` object of the daemon's `metrics` op.
    pub fn from_json(metrics: &Json) -> Self {
        let numbers = |section: &str| -> BTreeMap<String, f64> {
            metrics
                .get(section)
                .and_then(Json::as_object)
                .map(|o| {
                    o.iter()
                        .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let quantiles = metrics
            .get("histograms")
            .and_then(Json::as_object)
            .map(|o| {
                o.iter()
                    .filter_map(|(k, h)| {
                        Some((
                            k.clone(),
                            (h.get("p50")?.as_f64()?, h.get("p99")?.as_f64()?),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        Registry {
            counters: numbers("counters"),
            gauges: numbers("gauges"),
            quantiles,
        }
    }

    /// Adds `other`'s counters to these (gauges and quantiles are not
    /// additive and are left alone).
    pub fn add(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// Counter value (0 when never incremented).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Gauge value (0 when never set).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Histogram p50 estimate (0 when empty).
    pub fn p50(&self, name: &str) -> f64 {
        self.quantiles.get(name).map_or(0.0, |q| q.0)
    }

    /// Histogram p99 estimate (0 when empty).
    pub fn p99(&self, name: &str) -> f64 {
        self.quantiles.get(name).map_or(0.0, |q| q.1)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The solver layer's counters per op. The maximize quantiles come from
/// spans where the trace is in-process (exact) and from the daemon's
/// log-2 histogram otherwise.
pub fn smt(o: &mut Outcome, r: &Registry, ops: f64) {
    o.set("smt.solve_us", ratio(r.counter("smt.solve_time_us"), ops));
    o.set("smt.nodes", ratio(r.counter("smt.nodes"), ops));
    o.set("smt.checks", ratio(r.counter("smt.checks"), ops));
    o.set(
        "smt.bound_prunes",
        ratio(r.counter("smt.bound_prunes"), ops),
    );
    o.set(
        "smt.hull_rebuilds",
        ratio(r.counter("smt.hull_rebuilds"), ops),
    );
    o.set(
        "smt.warm_cut_hit_ratio",
        ratio(r.counter("smt.warm_cut_hits"), r.counter("smt.warm_seeds")),
    );
}

/// The sweep's bookkeeping: useful solves per attempt, and
/// fallbacks and infeasible points per pass.
pub fn sweep(o: &mut Outcome, r: &Registry, solved_points: f64, passes: f64) {
    o.set(
        "sweep.useful_ratio",
        ratio(solved_points, r.counter("sweep.solve_attempts")),
    );
    o.set(
        "sweep.fallbacks",
        ratio(r.counter("sweep.fallbacks"), passes),
    );
    o.set(
        "sweep.infeasible",
        ratio(r.counter("sweep.infeasible"), passes),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_reads_the_metrics_op_shape() {
        let json = Json::parse(
            r#"{"counters":{"smt.nodes":30,"smt.warm_seeds":4,"smt.warm_cut_hits":3},
                "gauges":{"journal.bytes":1024},
                "histograms":{"smt.maximize_us":{"count":3,"p50":63,"p90":127,"p99":255,"max":255,"buckets":[]}}}"#,
        )
        .unwrap();
        let r = Registry::from_json(&json);
        assert_eq!(r.counter("smt.nodes"), 30.0);
        assert_eq!(r.counter("absent"), 0.0);
        assert_eq!(r.gauge("journal.bytes"), 1024.0);
        assert_eq!(
            (r.p50("smt.maximize_us"), r.p99("smt.maximize_us")),
            (63.0, 255.0)
        );
        let mut o = Outcome::default();
        smt(&mut o, &r, 3.0);
        assert_eq!(o.metrics["smt.nodes"], 10.0);
        assert!(!o.metrics.contains_key("smt.maximize_us.p50"));
        assert_eq!(o.metrics["smt.warm_cut_hit_ratio"], 0.75);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
