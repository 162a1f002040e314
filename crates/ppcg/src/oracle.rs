//! Differential execution oracle: the emulated GPU execution of a
//! compiled program must agree element-wise (bitwise, see [`crate::exec`])
//! with the affine interpreter's untiled lexicographic execution.
//!
//! The oracle is the end-to-end semantic check of the whole pipeline:
//! solve → map → codegen semantics → emulate, compared against the
//! reference interpreter on the same deterministically seeded inputs.

use crate::exec::{execute_compiled, ExecError, ExecOptions, ExecStats};
use crate::mapping::{CompileError, CompileOptions};
use crate::Ppcg;
use eatss_affine::interp::{compare_stores, run_program, InterpError, Store, StoreMismatch};
use eatss_affine::interp::Array;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Oracle knobs.
#[derive(Debug, Clone, Default)]
pub struct OracleOptions {
    /// Compile options forwarded to the PPCG stand-in.
    pub compile: CompileOptions,
    /// Emulator options (barrier fidelity).
    pub exec: ExecOptions,
    /// Mismatches kept in a failure report (the total is still counted).
    pub max_mismatches: usize,
}

impl OracleOptions {
    /// Default report size when `max_mismatches` is zero.
    const DEFAULT_MAX_MISMATCHES: usize = 8;
}

/// What a successful verification covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Kernels executed.
    pub kernels: u64,
    /// Grid launches emulated.
    pub launches: u64,
    /// Blocks emulated.
    pub blocks: u64,
    /// Iteration points executed (per execution; the interpreter runs the
    /// same number).
    pub points: u64,
    /// Barriers honored.
    pub barriers: u64,
    /// Elements staged through emulated shared memory.
    pub staged_elems: u64,
    /// Arrays compared element-wise.
    pub arrays_compared: u64,
}

/// Verification failures.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleError {
    /// The PPCG stand-in rejected the configuration.
    Compile(CompileError),
    /// The emulator faulted (staging/guard bug).
    Exec(ExecError),
    /// The reference interpreter failed (unbound size).
    Interp(InterpError),
    /// Emulated and reference results disagree.
    Mismatch {
        /// Tile configuration under test, for the failure message.
        tiles: String,
        /// First few disagreements.
        mismatches: Vec<StoreMismatch>,
        /// Total number of disagreeing elements.
        total: usize,
    },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Compile(e) => write!(f, "compile: {e}"),
            OracleError::Exec(e) => write!(f, "emulation: {e}"),
            OracleError::Interp(e) => write!(f, "interpreter: {e}"),
            OracleError::Mismatch {
                tiles,
                mismatches,
                total,
            } => {
                writeln!(f, "tiles {tiles}: {total} element(s) disagree:")?;
                for m in mismatches {
                    writeln!(f, "  {m}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for OracleError {}

impl From<CompileError> for OracleError {
    fn from(e: CompileError) -> Self {
        OracleError::Compile(e)
    }
}

impl From<ExecError> for OracleError {
    fn from(e: ExecError) -> Self {
        OracleError::Exec(e)
    }
}

impl From<InterpError> for OracleError {
    fn from(e: InterpError) -> Self {
        OracleError::Interp(e)
    }
}

/// Allocates every array the program touches and fills it with small
/// deterministic integers in `[-3, 3]` — exactly representable, so any
/// divergence between executions is a real ordering/coverage bug, never
/// floating-point noise. The pattern depends on the array name, the
/// element index, and `seed`.
///
/// # Errors
///
/// Returns [`InterpError::UnboundParameter`] on unbound sizes.
pub fn seed_store(
    program: &Program,
    sizes: &ProblemSizes,
    seed: u64,
) -> Result<Store, InterpError> {
    let mut store = Store::new();
    store.allocate_for(program, sizes)?;
    let names: Vec<String> = store.arrays().map(|(n, _)| n.to_string()).collect();
    let mut seeded = Store::new();
    for name in names {
        let extents = store.get(&name).expect("just listed").extents().to_vec();
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in name.bytes() {
            h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64);
        }
        let base = h;
        let array = Array::from_fn(extents, |idx| {
            let mut h = base;
            for &i in idx {
                h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(i as u64);
                h ^= h >> 29;
            }
            let v = (h % 7) as i64 - 3;
            // Keep scalars (and everything else) away from an all-zero
            // pattern collapse: zero only when the hash says so.
            v as f64
        });
        seeded.insert(name, array);
    }
    Ok(seeded)
}

/// Runs one program × tile configuration through compile → emulate and
/// compares against the reference interpreter on identically seeded
/// stores.
///
/// # Errors
///
/// See [`OracleError`]; [`OracleError::Mismatch`] is the oracle firing.
pub fn verify(
    program: &Program,
    tiles: &TileConfig,
    arch: &GpuArch,
    sizes: &ProblemSizes,
    options: &OracleOptions,
    seed: u64,
) -> Result<OracleReport, OracleError> {
    let mut span = eatss_trace::span("oracle", "verify");
    if span.is_active() {
        span.arg("program", program.name.as_str());
        span.arg("tiles", tiles.to_string());
        span.arg("seed", seed);
    }
    let compiled = Ppcg::new(arch.clone()).compile(program, tiles, sizes, &options.compile)?;

    let mut emulated = seed_store(program, sizes, seed)?;
    let stats = execute_compiled(
        program,
        &compiled.mappings,
        sizes,
        &mut emulated,
        &options.exec,
    )?;

    let mut reference = seed_store(program, sizes, seed)?;
    run_program(program, sizes, &mut reference)?;

    let mismatches = compare_stores(&emulated, &reference);
    judge(program, tiles, &stats, mismatches, &reference, options)
}

/// The verdict on one emulated configuration, with its trace counters
/// and error log: a report when `mismatches` is empty, else
/// [`OracleError::Mismatch`] keeping the first few.
fn judge(
    program: &Program,
    tiles: &TileConfig,
    stats: &ExecStats,
    mismatches: Vec<StoreMismatch>,
    reference: &Store,
    options: &OracleOptions,
) -> Result<OracleReport, OracleError> {
    eatss_trace::counter_add("oracle.points", stats.points);
    eatss_trace::counter_add("oracle.configs", 1);
    if !mismatches.is_empty() {
        eatss_trace::counter_add("oracle.mismatches", mismatches.len() as u64);
        eatss_trace::error!(
            "oracle: {}: tiles {} disagree on {} element(s)",
            program.name,
            tiles,
            mismatches.len()
        );
        let keep = if options.max_mismatches == 0 {
            OracleOptions::DEFAULT_MAX_MISMATCHES
        } else {
            options.max_mismatches
        };
        let total = mismatches.len();
        let mut kept = mismatches;
        kept.truncate(keep);
        return Err(OracleError::Mismatch {
            tiles: tiles.to_string(),
            mismatches: kept,
            total,
        });
    }
    Ok(OracleReport {
        kernels: program.kernels.len() as u64,
        launches: stats.launches,
        blocks: stats.blocks,
        points: stats.points,
        barriers: stats.barriers,
        staged_elems: stats.staged_elems,
        arrays_compared: reference.arrays().count() as u64,
    })
}

/// [`verify`] over many tile configurations at once, sharing the
/// expensive invariants across the batch: the reference interpretation
/// runs once (it does not depend on tiles), each distinct configuration
/// compiles and emulates once (a repeated one copies its twin's verdict:
/// emulation is a pure function of program, tiles, sizes and seed), and
/// the emulator executes through
/// [`execute_compiled_batch`](crate::exec::execute_compiled_batch), which
/// compiles each distinct per-kernel route signature once instead of
/// once per configuration.
///
/// Returns one `Result` per configuration, in order, with exactly the
/// same verdicts, reports, `oracle.*` trace counters and error logs
/// [`verify`] would produce config-by-config. The emulator's own
/// `exec.*` counters count executions, so a repeated configuration adds
/// to them once.
pub fn verify_batch(
    program: &Program,
    configs: &[TileConfig],
    arch: &GpuArch,
    sizes: &ProblemSizes,
    options: &OracleOptions,
    seed: u64,
) -> Vec<Result<OracleReport, OracleError>> {
    let mut span = eatss_trace::span("oracle", "verify_batch");
    if span.is_active() {
        span.arg("program", program.name.as_str());
        span.arg("configs", configs.len() as u64);
        span.arg("seed", seed);
    }
    // Each configuration's first occurrence; only those compile, and only
    // the mappable ones enter the emulated batch.
    let twin: Vec<usize> = configs
        .iter()
        .enumerate()
        .map(|(i, tiles)| configs[..i].iter().position(|t| t == tiles).unwrap_or(i))
        .collect();
    let ppcg = Ppcg::new(arch.clone());
    let mut compiled: Vec<Option<Result<Vec<crate::GpuMapping>, OracleError>>> = twin
        .iter()
        .enumerate()
        .map(|(i, &first)| {
            (i == first).then(|| {
                ppcg.compile(program, &configs[i], sizes, &options.compile)
                    .map(|c| c.mappings)
                    .map_err(OracleError::from)
            })
        })
        .collect();

    let mut stores = Vec::new();
    let mut mappable: Vec<usize> = Vec::new();
    let mut batch_configs: Vec<Vec<crate::GpuMapping>> = Vec::new();
    for (i, c) in compiled.iter_mut().enumerate() {
        if let Some(Ok(mappings)) = c {
            match seed_store(program, sizes, seed) {
                Ok(store) => {
                    stores.push(store);
                    mappable.push(i);
                    batch_configs.push(std::mem::take(mappings));
                }
                Err(e) => return configs.iter().map(|_| Err(e.clone().into())).collect(),
            }
        }
    }

    let reference = {
        let mut store = match seed_store(program, sizes, seed) {
            Ok(store) => store,
            Err(e) => return configs.iter().map(|_| Err(e.clone().into())).collect(),
        };
        match run_program(program, sizes, &mut store) {
            Ok(()) => store,
            Err(e) => return configs.iter().map(|_| Err(e.clone().into())).collect(),
        }
    };

    let stats = crate::exec::execute_compiled_batch(
        program,
        &batch_configs,
        sizes,
        &mut stores,
        &options.exec,
    );

    // Per mappable configuration: its emulation outcome and its
    // mismatches against the reference.
    let emulated: Vec<_> = stores
        .iter()
        .zip(stats)
        .map(|(store, stat)| stat.map(|stats| (stats, compare_stores(store, &reference))))
        .collect();
    twin.iter()
        .zip(configs)
        .map(|(&first, tiles)| {
            if let Some(Err(e)) = &compiled[first] {
                return Err(e.clone());
            }
            let ran = mappable.iter().position(|&i| i == first).expect("mappable configs run");
            match &emulated[ran] {
                Err(e) => Err(e.clone().into()),
                Ok((stats, mismatches)) => {
                    judge(program, tiles, stats, mismatches.clone(), &reference, options)
                }
            }
        })
        .collect()
}

/// Shrinks problem sizes so exhaustive interpretation stays fast: spatial
/// parameters are capped at `space_cap` and explicit-serial (time-loop)
/// parameters at `time_cap`.
pub fn verify_sizes(
    program: &Program,
    sizes: &ProblemSizes,
    space_cap: i64,
    time_cap: i64,
) -> ProblemSizes {
    let mut time_params: Vec<&str> = Vec::new();
    for kernel in &program.kernels {
        for dim in &kernel.dims {
            if let (true, eatss_affine::ir::Extent::Param(p)) = (dim.explicit_serial, &dim.extent)
            {
                time_params.push(p.as_str());
            }
        }
    }
    let mut shrunk = ProblemSizes::default();
    for (name, v) in sizes.iter() {
        let cap = if time_params.contains(&name) {
            time_cap
        } else {
            space_cap
        };
        shrunk.set(name, v.min(cap));
    }
    shrunk
}

/// Draws a random tile configuration of the given depth from a pool
/// biased toward the places guard bugs live: non-divisible boundaries,
/// single-element tiles, tiles crossing the trip count, and primes.
pub fn sample_tile_config<R: Rng>(rng: &mut R, trips: &[i64]) -> TileConfig {
    let mut sizes = Vec::with_capacity(trips.len());
    for &trip in trips {
        let trip = trip.max(1);
        let mut pool = vec![1, 2, 3, 5, 7, 8, 13, 16, 31, 32, 33, 64];
        pool.push((trip - 1).max(1));
        pool.push(trip);
        pool.push(trip + 1);
        let pick = pool[rng.gen_range(0..pool.len())];
        sizes.push(pick.max(1));
    }
    TileConfig::new(sizes)
}

/// Convenience: a fresh deterministic RNG for a sweep seed.
pub fn sweep_rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}
