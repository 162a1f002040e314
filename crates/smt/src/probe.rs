//! Per-value probing for propagation, with a one-time shape analysis that
//! replaces the linear scan by a binary search wherever it is exact.
//!
//! Propagation keeps a value `v` of a variable `x` when the constraint is
//! not refuted with `x`'s hull pinned to `[v, v]` (for the objective
//! bound: when the objective's hull upper bound still beats the
//! incumbent). The plain probe re-evaluates the expression tree once per
//! value. Most EATSS constraints are `lhs ≤ const` with `lhs` built from
//! `+`, `*`, nonnegative constants and variables whose base domain starts
//! at or above 0; the objective is built from the same parts. Over such a
//! side both interval endpoints are nondecreasing in the pinned value, so
//! the kept values are a prefix (or, mirrored, a suffix) of the sorted
//! domain, and `partition_point` finds it in `O(log n)` evaluations. The
//! survivors are identical to the linear scan's, so the search and every
//! counter it keeps are unchanged. Constraints over a single variable
//! (the §IV-B `T mod waf = 0`) depend on nothing but that variable, so
//! their survivors are tabulated once per search over the base domain.

use crate::domain::Domain;
use crate::expr::{BoolExpr, BoolNode, CmpOp, IntExpr, IntNode, VarId};
use crate::interval::Interval;
use crate::search::{bounds, tri_bool, Tri};

/// Domains larger than this are filtered by hull reasoning only; exact
/// per-value probing is reserved for small domains where it pays off.
pub(crate) const PROBE_LIMIT: usize = 4096;

/// How the surviving values of one (constraint, variable) pair are found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Probe {
    /// Evaluate every value (mixed shapes).
    Linear,
    /// The survivors are a prefix of the sorted domain.
    Prefix,
    /// The survivors are a suffix of the sorted domain.
    Suffix,
    /// The survivors within the base domain, sorted (single-variable
    /// constraints).
    Table(Vec<i64>),
}

/// What a pinned value must pass to survive.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Test<'e> {
    /// The constraint is not refuted.
    Holds(&'e BoolExpr),
    /// The objective's upper bound exceeds the incumbent.
    Beats(&'e IntExpr, i64),
}

impl Test<'_> {
    fn keeps(self, hulls: &[Interval]) -> bool {
        match self {
            Test::Holds(c) => tri_bool(c, hulls) != Tri::False,
            Test::Beats(objective, incumbent) => bounds(objective, hulls).hi() > incumbent,
        }
    }
}

/// Whether `e` is built only from `+`, `*`, nonnegative constants and
/// variables whose base domain is nonempty and starts at or above 0.
/// Interval sums and products of nonnegative intervals have both
/// endpoints nondecreasing in every operand's endpoints, and the
/// saturating clamp is itself nondecreasing, so pinning any variable of
/// such an `e` to a larger value never lowers either endpoint of its hull.
fn rises(e: &IntExpr, domains: &[Domain]) -> bool {
    match &*e.0 {
        IntNode::Const(c) => *c >= 0,
        IntNode::Var(id, _) => domains
            .get(id.index())
            .and_then(|d| d.values().first())
            .is_some_and(|&lo| lo >= 0),
        IntNode::Add(xs) | IntNode::Mul(xs) => xs.iter().all(|x| rises(x, domains)),
        _ => false,
    }
}

fn mentions(e: &IntExpr, var: VarId) -> bool {
    let mut vars = Vec::new();
    e.collect_vars(&mut vars);
    vars.contains(&var)
}

/// The probe for each of `vars` (the constraint's variables) under
/// `Test::Holds(constraint)`. `hulls` are the base domains' hulls; they
/// are used as scratch to build tables and left as found.
pub(crate) fn constraint_probes(
    constraint: &BoolExpr,
    vars: &[VarId],
    domains: &[Domain],
    hulls: &mut [Interval],
) -> Vec<Probe> {
    vars.iter()
        .map(|&var| {
            if let Some(probe) = monotone(constraint, var, domains) {
                return probe;
            }
            let base = domains[var.index()].values();
            if vars.len() == 1 && base.len() <= PROBE_LIMIT {
                let kept = survivors(
                    hulls,
                    base,
                    var.index(),
                    Test::Holds(constraint),
                    &Probe::Linear,
                );
                Probe::Table(kept.unwrap_or_else(|| base.to_vec()))
            } else {
                Probe::Linear
            }
        })
        .collect()
}

/// `Prefix` or `Suffix` when `constraint` is an ordering comparison whose
/// one side mentioning `var` [`rises`] and whose other side does not
/// mention it. `a ≤ b` (or `<`) is refuted when `lo(a) > hi(b)`: with the
/// rising side on the left that happens from some value on (prefix
/// survives), on the right up to some value (suffix survives); `≥`/`>`
/// swap the roles.
fn monotone(constraint: &BoolExpr, var: VarId, domains: &[Domain]) -> Option<Probe> {
    let BoolNode::Cmp(op, a, b) = &*constraint.0 else {
        return None;
    };
    let upper_bounded = match op {
        CmpOp::Le | CmpOp::Lt => true,
        CmpOp::Ge | CmpOp::Gt => false,
        CmpOp::Eq | CmpOp::Ne => return None,
    };
    let on_left = match (mentions(a, var), mentions(b, var)) {
        (true, false) => true,
        (false, true) => false,
        _ => return None,
    };
    if !rises(if on_left { a } else { b }, domains) {
        return None;
    }
    Some(if upper_bounded == on_left {
        Probe::Prefix
    } else {
        Probe::Suffix
    })
}

/// The probe for every objective variable under `Test::Beats`: a rising
/// objective's upper bound grows with the pinned value, so the values
/// that can still beat the incumbent are a suffix.
pub(crate) fn objective_probe(objective: &IntExpr, domains: &[Domain]) -> Probe {
    if rises(objective, domains) {
        Probe::Suffix
    } else {
        Probe::Linear
    }
}

/// The values of `values` (the sorted domain of variable `var`) that pass
/// `test` with `var`'s hull pinned to each in turn, or `None` when all of
/// them do. `hulls[var]` is restored before returning.
pub(crate) fn survivors(
    hulls: &mut [Interval],
    values: &[i64],
    var: usize,
    test: Test<'_>,
    probe: &Probe,
) -> Option<Vec<i64>> {
    let saved = hulls[var];
    let mut keeps = |v: i64| {
        hulls[var] = Interval::singleton(v);
        test.keeps(hulls)
    };
    // Most visits prune nothing; for a prefix (suffix) that is decided by
    // the largest (smallest) value alone, before any binary search.
    let kept: Option<Vec<i64>> = match probe {
        Probe::Linear => Some(values.iter().copied().filter(|&v| keeps(v)).collect()),
        Probe::Prefix => match values.split_last() {
            Some((&last, rest)) if !keeps(last) => {
                Some(rest[..rest.partition_point(|&v| keeps(v))].to_vec())
            }
            _ => None,
        },
        Probe::Suffix => match values.split_first() {
            Some((&first, rest)) if !keeps(first) => {
                Some(rest[rest.partition_point(|&v| !keeps(v))..].to_vec())
            }
            _ => None,
        },
        Probe::Table(allowed) => Some(
            values
                .iter()
                .copied()
                .filter(|v| allowed.binary_search(v).is_ok())
                .collect(),
        ),
    };
    hulls[var] = saved;
    kept.filter(|kept| kept.len() < values.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vars(n: u32) -> Vec<IntExpr> {
        (0..n)
            .map(|i| IntExpr::var(VarId(i), &format!("x{i}")))
            .collect()
    }

    /// Decodes a token stream into an expression tree of depth ≤ 3 over
    /// `vars`, covering every node kind. Sums and products are drawn more
    /// often than the rest so that monotone shapes are common.
    fn decode(tokens: &[(u8, i64)], pos: &mut usize, vars: &[IntExpr], depth: u32) -> IntExpr {
        let Some(&(kind, val)) = tokens.get(*pos) else {
            return IntExpr::constant(1);
        };
        *pos += 1;
        let kind = if depth >= 3 { kind % 3 } else { kind };
        let sub = |pos: &mut usize| decode(tokens, pos, vars, depth + 1);
        match kind {
            0 | 1 | 14 => vars[val.rem_euclid(vars.len() as i64) as usize].clone(),
            2 => IntExpr::constant(val),
            3 | 4 | 15 | 16 => sub(pos) + sub(pos),
            5 | 6 | 17 | 18 => sub(pos) * sub(pos),
            7 => IntExpr::product([sub(pos), sub(pos), sub(pos)]),
            8 => sub(pos) - sub(pos),
            9 => -sub(pos),
            10 => sub(pos).div(sub(pos)),
            11 => sub(pos).modulo(sub(pos)),
            12 => sub(pos).min(sub(pos)),
            13 => sub(pos).max(sub(pos)),
            _ => IntExpr::sum([sub(pos), sub(pos), sub(pos)]),
        }
    }

    /// Whether `e` mentions a variable whose base domain starts below 0,
    /// or a negative constant.
    fn has_negative(e: &IntExpr, domains: &[Domain]) -> bool {
        match &*e.0 {
            IntNode::Const(c) => *c < 0,
            IntNode::Var(id, _) => domains[id.index()].hull().lo() < 0,
            IntNode::Add(xs) | IntNode::Mul(xs) => xs.iter().any(|x| has_negative(x, domains)),
            IntNode::Sub(a, b)
            | IntNode::Div(a, b)
            | IntNode::Mod(a, b)
            | IntNode::Min(a, b)
            | IntNode::Max(a, b) => has_negative(a, domains) || has_negative(b, domains),
            IntNode::Neg(a) => has_negative(a, domains),
        }
    }

    /// Base domains `[lo, lo + span]`, and current domains as a search
    /// would hold them: a sub-range of each, thinned to every `step`-th
    /// value (as divisibility filtering leaves them).
    fn domains_of(specs: &[(i64, i64, i64, i64)]) -> (Vec<Domain>, Vec<Domain>) {
        specs
            .iter()
            .map(|&(lo, span, cut, step)| {
                let base = Domain::range(lo, lo + span);
                let (from, to) = (lo + cut.min(span), lo + span - (cut / 2).min(span));
                let current: Vec<i64> = (from..=to.max(from)).step_by(step as usize).collect();
                (base, Domain::from_sorted(current))
            })
            .unzip()
    }

    fn check_probe(
        probe: &Probe,
        current: &[Domain],
        var: usize,
        test: Test<'_>,
    ) -> Result<(), TestCaseError> {
        let mut hulls: Vec<Interval> = current.iter().map(Domain::hull).collect();
        let before = hulls.clone();
        let values = current[var].values();
        let linear = survivors(&mut hulls, values, var, test, &Probe::Linear);
        let fast = survivors(&mut hulls, values, var, test, probe);
        prop_assert_eq!(&hulls, &before);
        prop_assert!(
            fast == linear,
            "probe {:?} disagrees with the linear scan",
            probe
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// Wherever the analysis picks a binary search (or a table), it
        /// keeps exactly the values the linear scan keeps — for asserted
        /// comparisons in every orientation (prefix for `≤`-shaped
        /// pairs, suffix for mirrored ones) and for the incumbent bound
        /// (suffix). It never picks one for a side with a negative
        /// constant or a variable whose base domain starts below 0.
        #[test]
        fn binary_search_keeps_what_the_linear_scan_keeps(
            lhs in prop::collection::vec((0u8..20, -3i64..40), 1..10),
            rhs in prop::collection::vec((0u8..20, -3i64..40), 1..4),
            constant_rhs in prop::bool::ANY,
            cut in -5i64..106,
            op in 0u8..6,
            specs in prop::collection::vec((-2i64..8, 0i64..16, 0i64..6, 1i64..4), 3),
            incumbent_cut in -5i64..106,
        ) {
            let xs = vars(3);
            let (base, current) = domains_of(&specs);
            let a = decode(&lhs, &mut 0, &xs, 0);
            // Constants are drawn across the hull of the other side, so
            // that kept sets are often proper and nonempty.
            let hulls: Vec<Interval> = current.iter().map(Domain::hull).collect();
            let across = |e: &IntExpr, pct: i64| {
                let h = bounds(e, &hulls);
                h.lo() + (h.hi() - h.lo()) / 100 * pct + (h.hi() - h.lo()) % 100 * pct / 100
            };
            let b = if constant_rhs {
                IntExpr::constant(across(&a, cut))
            } else {
                decode(&rhs, &mut 0, &xs, 1)
            };
            let op = [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq, CmpOp::Ne][op as usize];
            let constraint = BoolExpr::cmp(op, a.clone(), b.clone());
            let mut cvars = Vec::new();
            constraint.collect_vars(&mut cvars);
            let mut hulls: Vec<Interval> = base.iter().map(Domain::hull).collect();
            let probes = constraint_probes(&constraint, &cvars, &base, &mut hulls);
            for (&var, probe) in cvars.iter().zip(&probes) {
                if matches!(probe, Probe::Prefix | Probe::Suffix) {
                    let side = if mentions(&a, var) { &a } else { &b };
                    prop_assert!(!has_negative(side, &base), "{:?} on {}", probe, constraint);
                }
                check_probe(probe, &current, var.index(), Test::Holds(&constraint))?;
            }

            let probe = objective_probe(&a, &base);
            if probe == Probe::Suffix {
                prop_assert!(!has_negative(&a, &base), "suffix on {}", a);
            }
            let incumbent = across(&a, incumbent_cut);
            let mut ovars = Vec::new();
            a.collect_vars(&mut ovars);
            for var in ovars {
                check_probe(&probe, &current, var.index(), Test::Beats(&a, incumbent))?;
            }
        }
    }

    #[test]
    fn eatss_shapes_get_their_probes() {
        let xs = vars(2);
        let (t0, t1) = (&xs[0], &xs[1]);
        let tiles = vec![Domain::range(1, 64), Domain::range(1, 64)];
        let probe = |c: BoolExpr, domains: &[Domain]| {
            let mut cvars = Vec::new();
            c.collect_vars(&mut cvars);
            let mut hulls: Vec<Interval> = domains.iter().map(Domain::hull).collect();
            constraint_probes(&c, &cvars, domains, &mut hulls)
        };
        let capacity = (t0.clone() * t1.clone() * IntExpr::constant(6)).le(4096);
        assert_eq!(probe(capacity.clone(), &tiles), vec![Probe::Prefix; 2]);
        let mirrored = IntExpr::constant(4096).ge(t0.clone() * t1.clone());
        assert_eq!(probe(mirrored, &tiles), vec![Probe::Prefix; 2]);
        assert_eq!(probe(t0.ge(8), &tiles), vec![Probe::Suffix]);
        // The §IV-B alignment constraint is tabulated over the base domain.
        let aligned = probe(t0.modulo(16).eq_expr(0), &tiles);
        assert_eq!(aligned, vec![Probe::Table(vec![16, 32, 48, 64])]);
        // Mixed shapes and negative bounds stay on the linear scan.
        assert_eq!(
            probe((t0.clone() - t1.clone()).le(8), &tiles),
            vec![Probe::Linear; 2]
        );
        assert_eq!(
            probe(t0.le(t1.clone() * IntExpr::constant(2)), &tiles),
            vec![Probe::Prefix, Probe::Suffix]
        );
        assert_eq!(
            probe((t0.clone() + t1.clone()).le(t1.clone()), &tiles),
            vec![Probe::Prefix, Probe::Linear]
        );
        let signed = vec![Domain::range(-4, 64), Domain::range(1, 64)];
        assert_eq!(probe(capacity, &signed), vec![Probe::Linear; 2]);
        let objective = t0.clone() * t1.clone() + IntExpr::constant(32) * t1.clone();
        assert_eq!(objective_probe(&objective, &tiles), Probe::Suffix);
        assert_eq!(objective_probe(&objective, &signed), Probe::Linear);
    }
}
