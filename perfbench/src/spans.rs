//! Span arithmetic over a drained trace: totals, layer self time and the
//! share of op time the benchmark's layer spans cover.

use crate::layers::Registry;
use eatss_trace::{EventKind, Trace};
use std::collections::{HashMap, HashSet};

/// Gathers several collection sessions — the traced passes of a run —
/// into one span index and one counter registry. Span ids restart in
/// every session, so each session's ids are shifted past the previous
/// ones.
#[derive(Debug, Default)]
pub struct Collector {
    spans: Vec<SpanRec>,
    offset: u64,
    registry: Registry,
    /// Wall time of the traced and of the untraced passes.
    pub traced_s: Vec<f64>,
    pub untraced_s: Vec<f64>,
}

impl Collector {
    /// Whether pass `index` of a traced run is traced: every other one,
    /// so both kinds see the same drift of the host's speed.
    pub fn traces(index: usize) -> bool {
        index % 2 == 1
    }

    /// Ends the current session and keeps its spans and counters.
    pub fn absorb(&mut self) {
        let trace = eatss_trace::drain(eatss_trace::Provenance::collect(Some(1)));
        let shift = |id: u64| if id == 0 { 0 } else { id + self.offset };
        let session = Spans::from_trace(&trace).spans;
        let top = session.iter().map(|s| s.id).max().unwrap_or(0);
        self.spans.extend(session.into_iter().map(|s| SpanRec {
            id: shift(s.id),
            parent: shift(s.parent),
            ..s
        }));
        self.offset += top;
        self.registry.add(&Registry::from_snapshot(&trace.metrics));
    }

    /// The gathered spans and counters.
    pub fn finish(self) -> (Spans, Registry) {
        (Spans::from_spans(self.spans), self.registry)
    }

    /// Traced over untraced mean pass time.
    pub fn overhead_ratio(&self) -> f64 {
        crate::layers::ratio(
            crate::stats::mean(&self.traced_s),
            crate::stats::mean(&self.untraced_s),
        )
    }
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span id.
    pub id: u64,
    /// Enclosing span id (0 at the root).
    pub parent: u64,
    /// Category (layer).
    pub cat: &'static str,
    /// Name within the category.
    pub name: String,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Closed spans of a trace, with their parent links.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<SpanRec>,
    children: HashMap<u64, Vec<usize>>,
    parent_of: HashMap<u64, u64>,
}

impl Spans {
    /// Collects every span of `trace` that both opened and closed.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut parents = HashMap::new();
        for e in &trace.events {
            if let EventKind::Begin { id, parent } = e.kind {
                parents.insert(id, parent);
            }
        }
        let spans = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::End { id, dur_us } => Some(SpanRec {
                    id,
                    parent: *parents.get(&id)?,
                    cat: e.cat,
                    name: e.name.clone(),
                    dur_us,
                }),
                _ => None,
            })
            .collect();
        Self::from_spans(spans)
    }

    /// Indexes a list of closed spans.
    pub fn from_spans(spans: Vec<SpanRec>) -> Self {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        let parent_of = spans.iter().map(|s| (s.id, s.parent)).collect();
        Spans {
            spans,
            children,
            parent_of,
        }
    }

    fn matching<'a>(&'a self, cat: &'a str, name: &'a str) -> impl Iterator<Item = &'a SpanRec> {
        self.spans
            .iter()
            .filter(move |s| s.cat == cat && s.name == name)
    }

    /// Summed duration (µs) and count of the `cat:name` spans.
    pub fn total_us(&self, cat: &str, name: &str) -> (u64, usize) {
        self.matching(cat, name)
            .fold((0, 0), |(sum, n), s| (sum + s.dur_us, n + 1))
    }

    /// Exact p50 and p99 (µs, nearest rank) of the durations of the
    /// `cat:name` spans; zeros when there are none.
    pub fn quantiles_us(&self, cat: &str, name: &str) -> (f64, f64) {
        let mut d: Vec<u64> = self.matching(cat, name).map(|s| s.dur_us).collect();
        if d.is_empty() {
            return (0.0, 0.0);
        }
        d.sort_unstable();
        let rank = |q: f64| d[((q * d.len() as f64).ceil() as usize).clamp(1, d.len()) - 1] as f64;
        (rank(0.5), rank(0.99))
    }

    /// Self time (µs) of the `cat:name` spans as a layer: each span's
    /// duration minus the time of the spans of *other* categories nested
    /// under it (directly, or below spans of its own category). Spans
    /// nested inside another `cat:name` span are not counted twice.
    pub fn layer_self_us(&self, cat: &str, name: &str) -> u64 {
        let ids: HashSet<u64> = self.matching(cat, name).map(|s| s.id).collect();
        let mut total = 0;
        for s in self.matching(cat, name) {
            if self.has_ancestor_in(s.parent, &ids) {
                continue;
            }
            total += s.dur_us.saturating_sub(self.foreign_us(s.id, cat));
        }
        total
    }

    fn has_ancestor_in(&self, mut parent: u64, ids: &HashSet<u64>) -> bool {
        while parent != 0 {
            if ids.contains(&parent) {
                return true;
            }
            parent = self.parent_of.get(&parent).copied().unwrap_or(0);
        }
        false
    }

    /// Time of the outermost spans below `id` whose category is not `cat`.
    fn foreign_us(&self, id: u64, cat: &str) -> u64 {
        let mut total = 0;
        for &i in self.children.get(&id).map_or(&[][..], Vec::as_slice) {
            let c = &self.spans[i];
            total += if c.cat == cat {
                self.foreign_us(c.id, cat)
            } else {
                c.dur_us
            };
        }
        total
    }

    /// Share of the `bench:op` spans' time that no direct `bench` child
    /// span covers — the op time the benchmark's layer spans leave
    /// unattributed.
    pub fn unattributed_share(&self) -> f64 {
        let mut op_us = 0u64;
        let mut covered_us = 0u64;
        for op in self.matching("bench", "op") {
            op_us += op.dur_us;
            for &i in self.children.get(&op.id).map_or(&[][..], Vec::as_slice) {
                if self.spans[i].cat == "bench" {
                    covered_us += self.spans[i].dur_us;
                }
            }
        }
        if op_us == 0 {
            0.0
        } else {
            1.0 - covered_us.min(op_us) as f64 / op_us as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, cat: &'static str, name: &str, dur_us: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            cat,
            name: name.into(),
            dur_us,
        }
    }

    #[test]
    fn layer_self_time_subtracts_only_foreign_children() {
        let spans = Spans::from_spans(vec![
            rec(1, 0, "ppcg", "compile", 100),
            rec(2, 1, "ppcg", "map", 40),
            rec(3, 2, "affine", "analyze", 15),
            rec(4, 1, "sim", "launch", 25),
            rec(5, 0, "ppcg", "compile", 10),
        ]);
        // 100 - 15 (affine under ppcg:map) - 25 (sim) + 10.
        assert_eq!(spans.layer_self_us("ppcg", "compile"), 70);
        assert_eq!(spans.total_us("ppcg", "compile"), (110, 2));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let spans = Spans::from_spans((1..=100).map(|i| rec(i, 0, "smt", "maximize", i)).collect());
        assert_eq!(spans.quantiles_us("smt", "maximize"), (50.0, 99.0));
        assert_eq!(spans.quantiles_us("smt", "check"), (0.0, 0.0));
    }

    #[test]
    fn nested_spans_of_the_same_name_count_once() {
        let spans = Spans::from_spans(vec![
            rec(1, 0, "ppcg", "compile", 50),
            rec(2, 1, "ppcg", "compile", 20),
        ]);
        assert_eq!(spans.layer_self_us("ppcg", "compile"), 50);
    }

    #[test]
    fn unattributed_share_is_op_time_outside_bench_children() {
        let spans = Spans::from_spans(vec![
            rec(1, 0, "bench", "op", 100),
            rec(2, 1, "bench", "affine", 10),
            rec(3, 1, "bench", "core", 60),
            rec(4, 3, "smt", "maximize", 50),
            rec(5, 0, "bench", "op", 100),
            rec(6, 5, "bench", "core", 90),
        ]);
        assert!((spans.unattributed_share() - 0.2).abs() < 1e-12);
        assert_eq!(Spans::default().unattributed_share(), 0.0);
    }
}
