//! The paper's inputs: every registry program at both datasets, in a
//! seeded order.

use crate::stats::SplitMix;
use eatss_affine::parser::parse_program;
use eatss_affine::{ProblemSizes, Program};
use eatss_kernels::Dataset;

/// One (registry program, dataset) pair.
#[derive(Debug, Clone)]
pub struct Pair {
    /// `name/standard` or `name/xl`.
    pub label: String,
    /// Kernel source text; every op parses it afresh.
    pub source: &'static str,
    /// Problem sizes of the dataset.
    pub sizes: ProblemSizes,
    /// The source parsed once at set-up.
    pub program: Program,
}

/// All 21 × 2 pairs, parsed, in the order `seed` shuffles them to.
///
/// # Panics
///
/// Panics if a registry source fails to parse — the registry's own
/// tests rule that out.
pub fn registry(seed: u64) -> Vec<Pair> {
    let mut pairs: Vec<Pair> = eatss_kernels::all()
        .into_iter()
        .flat_map(|b| {
            [(Dataset::Standard, "standard"), (Dataset::ExtraLarge, "xl")].map(|(d, tag)| Pair {
                label: format!("{}/{tag}", b.name),
                source: b.source,
                sizes: b.sizes(d),
                program: parse_program(b.source).expect("registry sources parse"),
            })
        })
        .collect();
    SplitMix::new(seed, 0x5041_4952).shuffle(&mut pairs);
    pairs
}
