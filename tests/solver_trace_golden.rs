//! Golden solver trace over the whole kernel registry.
//!
//! Every registry program at both datasets is solved under the paper's 24
//! configurations (§V-B splits × §V-D warp fractions × both thread-block
//! cap readings), in the warm-start chain order `Eatss::sweep` uses: one
//! chain per (warp fraction, cap) pair, tightest split first, each point
//! seeded with its predecessors' models. Per point the table records the
//! selected tiles and objective *and* the search's work counters, so any
//! change to the engine that alters the search itself — not just its
//! answer — shows up as a diff. Engine optimisations must keep this table
//! byte-identical: same search, fewer evaluations.
//!
//! After an intended change to the search, regenerate the table with
//!
//! ```text
//! cargo test --release -p eatss-integration --test solver_trace_golden -- --ignored bless
//! ```

use eatss::sweep::{PAPER_SPLITS, PAPER_WARP_FRACTIONS};
use eatss::{EatssConfig, EatssError, ModelGenerator, ThreadBlockCap};
use eatss_gpusim::GpuArch;
use eatss_kernels::Dataset;
use eatss_smt::WarmStart;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/solver_trace.tsv");

/// The sweep's configurations grouped into warm-start chains: one per
/// (warp fraction, cap) pair in canonical order, splits descending.
fn chains() -> Vec<Vec<EatssConfig>> {
    let mut chains = Vec::new();
    for &warp_fraction in &PAPER_WARP_FRACTIONS {
        for cap in [ThreadBlockCap::Virtual, ThreadBlockCap::Strict] {
            let mut splits = PAPER_SPLITS.to_vec();
            splits.sort_by(|a, b| b.total_cmp(a));
            chains.push(
                splits
                    .into_iter()
                    .map(|split_factor| EatssConfig {
                        split_factor,
                        warp_fraction,
                        cap,
                        ..EatssConfig::default()
                    })
                    .collect(),
            );
        }
    }
    chains
}

/// Solves every registry point and renders one tab-separated line each.
fn solver_trace() -> String {
    let arch = GpuArch::ga100();
    let mut out = String::from(
        "# program\tdataset\tsplit\twarp_fraction\tcap\ttiles\tobjective\t\
         solver_calls\tnodes\tpropagations\tvalues_pruned\tbound_prunes\n",
    );
    for bench in eatss_kernels::all() {
        let program = bench.program().expect("registry sources parse");
        for (dataset, tag) in [(Dataset::Standard, "standard"), (Dataset::ExtraLarge, "xl")] {
            let sizes = bench.sizes(dataset);
            for chain in chains() {
                let mut hints = WarmStart::new();
                for config in chain {
                    let _ = write!(
                        out,
                        "{}\t{tag}\t{}\t{}\t{:?}\t",
                        bench.name, config.split_factor, config.warp_fraction, config.cap
                    );
                    let result = ModelGenerator::new(&arch, config)
                        .build(&program, Some(&sizes))
                        .and_then(|model| model.solve_warm(&mut hints));
                    match result {
                        Ok(s) => {
                            let _ = writeln!(
                                out,
                                "{:?}\t{}\t{}\t{}\t{}\t{}\t{}",
                                s.tiles.sizes(),
                                s.objective,
                                s.solver_calls,
                                s.stats.nodes,
                                s.stats.propagations,
                                s.stats.values_pruned,
                                s.stats.bound_prunes,
                            );
                        }
                        Err(EatssError::Unsatisfiable { .. }) => out.push_str("unsat\n"),
                        Err(e) => panic!("{} {tag}: {e}", bench.name),
                    }
                }
            }
        }
    }
    out
}

#[test]
fn registry_solver_trace_matches_golden() {
    let expected = std::fs::read_to_string(GOLDEN_PATH).expect("golden table is committed");
    let actual = solver_trace();
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "point count changed"
    );
    // 21 programs × 2 datasets × 24 configurations, plus the header.
    assert_eq!(actual.lines().count(), 21 * 2 * 24 + 1);
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(want, got, "solver trace diverged from the golden table");
    }
}

/// Rewrites the golden table from the current engine.
#[test]
#[ignore = "regenerates the committed golden table"]
fn bless() {
    std::fs::write(GOLDEN_PATH, solver_trace()).expect("golden table is writable");
}
