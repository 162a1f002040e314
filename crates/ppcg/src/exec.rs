//! Deterministic GPU-execution emulator for compiled mappings.
//!
//! Executes the semantics of the generated CUDA text — grid/block index
//! decoding, serial tile loops with `min` boundary guards, cyclic
//! per-thread point loops, `__shared__` staging with `__syncthreads()`
//! barrier phases, and per-time-step launches — block by block and thread
//! by thread on the host, against an [`eatss_affine::interp::Store`].
//!
//! Out-of-bounds conventions match the interpreter exactly: global reads
//! outside an array return `0.0` and writes outside are dropped, so the
//! emulator and the untiled interpreter are comparable element-wise
//! (bitwise, in fact: every write uses all mapped dims — otherwise the
//! output dependence would have serialized the dim — so each output
//! element is owned by one thread, and the per-element accumulation order
//! is ascending serial order in both executions).
//!
//! # Execution engines
//!
//! By default each kernel is compiled once per
//! [`execute_mapped_kernel`] call into an
//! [`ExecPlan`](eatss_affine::plan::ExecPlan): reads that match a staged
//! group are pre-routed to its buffer at compile time (one slot lookup
//! instead of a string-compare group search per read per point), all
//! other accesses lower to linear address functions, and the RHS runs as
//! a postfix opcode tape. Each serial tile step proves every access once
//! over the step's tile box
//! ([`ExecPlan::linearize`](eatss_affine::plan::ExecPlan::linearize)) —
//! staged reads against the buffer's box, checked store reads against the
//! array bounds — and each thread then runs its points as one loop nest
//! ([`ExecPlan::exec_nest`](eatss_affine::plan::ExecPlan::exec_nest)).
//! [`ExecEngine::Reference`] forces the original per-point tree-walk
//! through [`exec_point_hooked`];
//! both engines produce bitwise-identical stores, identical
//! [`ExecStats`] and the same first [`ExecError`] (differentially tested
//! over the whole benchmark suite).
//!
//! What is *not* modeled: warp scheduling, memory timing, and racy
//! unsynchronized accesses (blocks and threads are independent by
//! construction of the mapping, so any interleaving is equivalent —
//! except across a skipped barrier, which [`BarrierFidelity::SkipLoadBarrier`]
//! exposes deliberately).

use crate::mapping::GpuMapping;
use eatss_affine::interp::{exec_point_hooked, Array, Store};
use eatss_affine::ir::{ArrayRef, Kernel};
use eatss_affine::plan::{ExecPlan, RouteSource, RowScratch};
use eatss_affine::{ProblemSizes, Program};
use std::fmt;

/// How faithfully `__syncthreads()` phases are honored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierFidelity {
    /// The barrier after the cooperative load completes before any thread
    /// computes — the semantics of the generated code.
    #[default]
    Faithful,
    /// The load barrier is skipped: each thread loads only its own cyclic
    /// share of the staged box and immediately computes, so it observes
    /// stale (or initial-zero) values for elements other threads stage.
    /// Used by tests to prove the oracle is barrier-sensitive.
    SkipLoadBarrier,
}

/// Which execution core runs the statements at each point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Compile the kernel into an [`ExecPlan`] (staged reads pre-routed,
    /// addresses linearized, RHS as an opcode tape) and run each thread's
    /// points as one loop nest. Kernels the plan compiler cannot lower
    /// silently fall back to the reference walk.
    #[default]
    Plan,
    /// The original tree-walking per-point execution, retained as the
    /// executable specification the plan engine is tested against.
    Reference,
}

/// Emulator knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Barrier semantics (see [`BarrierFidelity`]).
    pub barrier_fidelity: BarrierFidelity,
    /// Execution core (see [`ExecEngine`]).
    pub engine: ExecEngine,
}

/// Execution counters, for trace output and harness reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Kernel launches performed (product of time-loop trips per kernel).
    pub launches: u64,
    /// Blocks executed across all launches.
    pub blocks: u64,
    /// `__syncthreads()` barriers honored.
    pub barriers: u64,
    /// Elements loaded into staged shared buffers.
    pub staged_elems: u64,
    /// Iteration points executed.
    pub points: u64,
}

impl ExecStats {
    fn absorb(&mut self, other: ExecStats) {
        self.launches += other.launches;
        self.blocks += other.blocks;
        self.barriers += other.barriers;
        self.staged_elems += other.staged_elems;
        self.points += other.points;
    }
}

/// Emulation failures — each one is a genuine bug in the mapping or the
/// generated code, not a data problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A problem-size parameter is unbound.
    UnboundParameter(String),
    /// A staged group is written: the generated code has no write-back
    /// phase, so staging it would drop the writes.
    StagedWrite {
        /// Kernel name.
        kernel: String,
        /// Array name.
        array: String,
    },
    /// A read routed to a staged buffer fell outside the staged box —
    /// the cooperative load under-covers the tile's accesses.
    StagedReadOutOfBox {
        /// Kernel name.
        kernel: String,
        /// Array name.
        array: String,
        /// The out-of-box global index.
        index: Vec<i64>,
    },
    /// The staged box needs more elements than the `__shared__`
    /// declaration provides.
    SharedUndersized {
        /// Kernel name.
        kernel: String,
        /// Array name.
        array: String,
        /// Elements the box actually needs.
        box_elems: i64,
        /// Elements the mapping declared.
        declared_elems: i64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnboundParameter(p) => {
                write!(f, "problem-size parameter `{p}` is unbound")
            }
            ExecError::StagedWrite { kernel, array } => write!(
                f,
                "{kernel}: staged array `{array}` is written but staging has no write-back"
            ),
            ExecError::StagedReadOutOfBox { kernel, array, index } => write!(
                f,
                "{kernel}: read of `{array}`{index:?} outside its staged box"
            ),
            ExecError::SharedUndersized {
                kernel,
                array,
                box_elems,
                declared_elems,
            } => write!(
                f,
                "{kernel}: staged box of `{array}` needs {box_elems} elems, \
                 __shared__ declares {declared_elems}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// A staged group prepared for emulation: which read refs route to the
/// buffer, and the representative subscripts the box is derived from.
struct StagedGroup<'a> {
    array: String,
    representative: &'a ArrayRef,
    fastest_offsets: (i64, i64),
    declared_elems: i64,
    /// Current box: per-subscript `(lo, hi)` inclusive global bounds.
    bounds: Vec<(i64, i64)>,
    /// Buffer contents, row-major over the box.
    data: Vec<f64>,
}

impl StagedGroup<'_> {
    fn box_elems(&self) -> i64 {
        self.bounds.iter().map(|(lo, hi)| hi - lo + 1).product()
    }

    /// Flattens a global multi-index into the box, or `None` if outside.
    fn flatten(&self, idx: &[i64]) -> Option<usize> {
        if idx.len() != self.bounds.len() {
            return None;
        }
        let mut flat: i64 = 0;
        for (&i, &(lo, hi)) in idx.iter().zip(&self.bounds) {
            if i < lo || i > hi {
                return None;
            }
            flat = flat * (hi - lo + 1) + (i - lo);
        }
        Some(flat as usize)
    }

    /// Cooperative-load fast path: fills the box from `array` row by row
    /// (last subscript contiguous), with out-of-bounds elements zero —
    /// element-for-element what a per-index `Array::get` loop produces.
    fn load_box(&mut self, array: Option<&Array>) {
        let elems = self.box_elems() as usize;
        self.data.clear();
        self.data.resize(elems, 0.0);
        let array = match array {
            Some(a) if a.extents().len() == self.bounds.len() => a,
            // Missing array or rank mismatch: every read misses → zeros.
            _ => return,
        };
        let n = self.bounds.len();
        if n == 0 {
            self.data[0] = array.data()[0];
            return;
        }
        let extents = array.extents();
        let (last_lo, last_hi) = self.bounds[n - 1];
        let row_len = (last_hi - last_lo + 1) as usize;
        // Overlap of the box row with the array's last dimension.
        let ov_lo = last_lo.max(0);
        let ov_hi = last_hi.min(extents[n - 1] - 1);
        let mut strides = vec![1i64; n];
        for p in (0..n - 1).rev() {
            strides[p] = strides[p + 1] * extents[p + 1];
        }
        let mut idx: Vec<i64> = self.bounds[..n - 1].iter().map(|&(lo, _)| lo).collect();
        for row in 0..elems / row_len {
            let mut base = 0i64;
            let mut oob = false;
            for (p, &v) in idx.iter().enumerate() {
                if v < 0 || v >= extents[p] {
                    oob = true;
                    break;
                }
                base += v * strides[p];
            }
            if !oob && ov_lo <= ov_hi {
                let dst_off = row * row_len + (ov_lo - last_lo) as usize;
                let len = (ov_hi - ov_lo + 1) as usize;
                let src = (base + ov_lo) as usize;
                self.data[dst_off..dst_off + len]
                    .copy_from_slice(&array.data()[src..src + len]);
            }
            for p in (0..idx.len()).rev() {
                idx[p] += 1;
                if idx[p] <= self.bounds[p].1 {
                    break;
                }
                idx[p] = self.bounds[p].0;
            }
        }
    }
}

/// Two refs access the same staged lines iff they agree on everything but
/// the fastest subscript's constant offset — the grouping key of
/// `AccessAnalysis::collect_groups`.
fn same_group(a: &ArrayRef, b: &ArrayRef) -> bool {
    if a.array != b.array || a.subscripts.len() != b.subscripts.len() {
        return false;
    }
    let last = a.subscripts.len().wrapping_sub(1);
    a.subscripts.iter().zip(&b.subscripts).enumerate().all(|(p, (sa, sb))| {
        sa.terms() == sb.terms() && (p == last || sa.offset() == sb.offset())
    })
}

/// The staged route a statement read resolves to, if any — the routing
/// rule shared by plan compilation and the reference hook.
fn route_of(staged: &[StagedGroup<'_>], r: &ArrayRef) -> Option<usize> {
    staged
        .iter()
        .position(|g| g.array == r.array && same_group(g.representative, r))
}

/// Compiled plans shared across a batch of configurations of one kernel,
/// keyed by staged-route signature: a plan embeds the store layout, the
/// trip counts, and — per statement read — the staged route it resolves
/// to. The first two are batch invariants; only the route assignment
/// follows a mapping's staging decisions, so configurations that stage
/// the same reads share one compiled plan. An entry holding `None`
/// caches a kernel the plan compiler cannot lower.
#[derive(Default)]
struct KernelPlanCache {
    entries: Vec<(Vec<Option<usize>>, Option<ExecPlan>)>,
}

impl KernelPlanCache {
    fn lookup_or_compile(
        &mut self,
        kernel: &Kernel,
        trips: &[i64],
        store: &Store,
        staged: &[StagedGroup<'_>],
    ) -> Option<&ExecPlan> {
        let signature: Vec<Option<usize>> = kernel
            .stmts
            .iter()
            .flat_map(|s| s.reads.iter())
            .map(|r| route_of(staged, r))
            .collect();
        let pos = match self.entries.iter().position(|(sig, _)| *sig == signature) {
            Some(pos) => pos,
            None => {
                let plan = ExecPlan::compile_routed(kernel, trips, store, |r| route_of(staged, r));
                self.entries.push((signature, plan));
                self.entries.len() - 1
            }
        };
        self.entries[pos].1.as_ref()
    }
}

/// The error for a staged read outside its box.
fn out_of_box(kernel: &str, array: &str, index: &[i64]) -> ExecError {
    ExecError::StagedReadOutOfBox {
        kernel: kernel.to_owned(),
        array: array.to_owned(),
        index: index.to_vec(),
    }
}

/// Serves the plan's pre-routed staged reads, with the same
/// out-of-box accounting as the reference hook: the first failure is
/// recorded, the read returns 0.
struct StagedRouter<'k, 'a> {
    staged: &'a [StagedGroup<'k>],
    kernel: &'a str,
    failure: Option<ExecError>,
}

impl RouteSource for StagedRouter<'_, '_> {
    fn read(&mut self, route: usize, index: &[i64]) -> f64 {
        let g = &self.staged[route];
        match g.flatten(index) {
            Some(flat) => g.data[flat],
            None => {
                let kernel = self.kernel;
                self.failure.get_or_insert_with(|| out_of_box(kernel, &g.array, index));
                0.0
            }
        }
    }

    fn linearize(&mut self, route: usize, sub_box: &[(i64, i64)], mult: &mut [i64]) -> Option<i64> {
        // A subscript box inside the staged box resolves entirely within
        // the buffer, whose row-major flatten is linear in the subscripts.
        let g = &self.staged[route];
        if sub_box.len() != g.bounds.len() {
            return None;
        }
        let mut base = 0i64;
        let mut stride = 1i64;
        for p in (0..sub_box.len()).rev() {
            let ((slo, shi), (lo, hi)) = (sub_box[p], g.bounds[p]);
            if slo < lo || shi > hi {
                return None;
            }
            mult[p] = stride;
            base -= lo * stride;
            stride *= hi - lo + 1;
        }
        Some(base)
    }

    fn read_flat(&mut self, route: usize, flat: i64) -> f64 {
        self.staged[route].data[flat as usize]
    }
}

/// Executes one compiled kernel over the store.
///
/// # Errors
///
/// See [`ExecError`].
pub fn execute_mapped_kernel(
    kernel: &Kernel,
    mapping: &GpuMapping,
    sizes: &ProblemSizes,
    store: &mut Store,
    opts: &ExecOptions,
) -> Result<ExecStats, ExecError> {
    execute_mapped_kernel_cached(kernel, mapping, sizes, store, opts, None)
}

/// [`execute_mapped_kernel`] with an optional shared plan cache — the
/// batched path's hook (see [`execute_compiled_batch`]).
fn execute_mapped_kernel_cached(
    kernel: &Kernel,
    mapping: &GpuMapping,
    sizes: &ProblemSizes,
    store: &mut Store,
    opts: &ExecOptions,
    cache: Option<&mut KernelPlanCache>,
) -> Result<ExecStats, ExecError> {
    let mut span = eatss_trace::span("exec", "kernel");
    if span.is_active() {
        span.arg("kernel", kernel.name.as_str());
        span.arg("tiles", mapping.tiles.to_string());
    }
    let depth = kernel.depth();
    let trips: Vec<i64> = (0..depth)
        .map(|d| {
            kernel
                .trip_count(d, sizes)
                .map_err(ExecError::UnboundParameter)
        })
        .collect::<Result<_, _>>()?;
    let mut stats = ExecStats::default();
    if trips.iter().any(|&t| t <= 0) {
        return Ok(stats);
    }
    let time_dims: Vec<usize> = (0..depth)
        .filter(|&d| kernel.dims[d].explicit_serial)
        .collect();
    let serial_dims: Vec<usize> = (0..depth)
        .filter(|&d| !mapping.mapped_dims.contains(&d) && !kernel.dims[d].explicit_serial)
        .collect();

    // Prepare staged groups and route each statement read to its buffer.
    let mut staged: Vec<StagedGroup<'_>> = Vec::new();
    for r in &mapping.refs {
        if !r.staged {
            continue;
        }
        if r.group.is_written {
            return Err(ExecError::StagedWrite {
                kernel: kernel.name.clone(),
                array: r.group.array.clone(),
            });
        }
        staged.push(StagedGroup {
            array: r.group.array.clone(),
            representative: &r.group.representative,
            fastest_offsets: r.group.fastest_offsets,
            declared_elems: r.tile_footprint_elems,
            bounds: Vec::new(),
            data: Vec::new(),
        });
    }

    // Choose the execution core once per kernel: staged reads resolve to
    // their route here, at compile time, instead of a group search per
    // read per point.
    let owned: Option<ExecPlan>;
    let exec: Option<&ExecPlan> = if opts.engine == ExecEngine::Reference {
        None
    } else {
        match cache {
            Some(cache) => cache.lookup_or_compile(kernel, &trips, store, &staged),
            None => {
                owned = ExecPlan::compile_routed(kernel, &trips, store, |r| route_of(&staged, r));
                owned.as_ref()
            }
        }
    };
    let mut scratch = match exec {
        Some(plan) => plan.scratch(),
        None => RowScratch::default(),
    };

    // Thread coordinates in linear order, x fastest (CUDA convention) —
    // built once per kernel, shared by every launch and tile step.
    let threads_total: i64 = mapping.thread_extents.iter().product();
    let thread_coords: Vec<Vec<i64>> = {
        let mut all = Vec::with_capacity(threads_total as usize);
        let mut c = vec![0i64; mapping.thread_extents.len()];
        'outer: loop {
            all.push(c.clone());
            for (p, v) in c.iter_mut().enumerate() {
                *v += 1;
                if *v < mapping.thread_extents[p] {
                    continue 'outer;
                }
                *v = 0;
            }
            break;
        }
        all
    };

    // --- launch loop over time-dim values ----------------------------------
    let mut tvals: Vec<i64> = vec![0; time_dims.len()];
    loop {
        stats.absorb(run_launch(
            kernel,
            mapping,
            &trips,
            &time_dims,
            &tvals,
            &serial_dims,
            &thread_coords,
            exec,
            &mut scratch,
            &mut staged,
            store,
            opts,
        )?);
        // Increment the time multi-index (lexicographic, last fastest).
        let mut d = time_dims.len();
        loop {
            if d == 0 {
                if span.is_active() {
                    span.arg("points", stats.points);
                    span.arg("blocks", stats.blocks);
                }
                eatss_trace::counter_add("exec.points", stats.points);
                eatss_trace::counter_add("exec.blocks", stats.blocks);
                return Ok(stats);
            }
            d -= 1;
            tvals[d] += 1;
            if tvals[d] < trips[time_dims[d]] {
                break;
            }
            tvals[d] = 0;
        }
    }
}

/// One grid launch: every block, every serial tile step, staging + compute.
#[allow(clippy::too_many_arguments)]
fn run_launch(
    kernel: &Kernel,
    mapping: &GpuMapping,
    trips: &[i64],
    time_dims: &[usize],
    tvals: &[i64],
    serial_dims: &[usize],
    thread_coords: &[Vec<i64>],
    exec: Option<&ExecPlan>,
    scratch: &mut RowScratch,
    staged: &mut [StagedGroup<'_>],
    store: &mut Store,
    opts: &ExecOptions,
) -> Result<ExecStats, ExecError> {
    let mut stats = ExecStats {
        launches: 1,
        ..ExecStats::default()
    };
    // The tile step's point box: inclusive per-dim value ranges, the
    // `min` boundary guards of the generated code applied.
    let tiles = mapping.tiles.sizes();
    let tile_range = |d: usize, index: i64| {
        let origin = index * tiles[d];
        (origin, (origin + tiles[d]).min(trips[d]) - 1)
    };
    let mut ranges = vec![(0i64, 0i64); kernel.depth()];
    for (&d, &t) in time_dims.iter().zip(tvals) {
        ranges[d] = (t, t);
    }
    let mut block = vec![0i64; mapping.grid_extents.len()];
    'blocks: loop {
        stats.blocks += 1;
        for (&d, &b) in mapping.mapped_dims.iter().zip(&block) {
            ranges[d] = tile_range(d, b);
        }
        // Reset persistent buffers per block (shared memory has block
        // lifetime; contents start undefined — zeros here, which the
        // skip-barrier mode deliberately observes).
        for g in staged.iter_mut() {
            g.bounds.clear();
            g.data.clear();
        }
        // Serial tile loop (lexicographic over serial-dim tile indices).
        let mut step = vec![0i64; serial_dims.len()];
        loop {
            for (&d, &s) in serial_dims.iter().zip(&step) {
                ranges[d] = tile_range(d, s);
            }
            run_step(
                kernel,
                mapping,
                serial_dims,
                &ranges,
                thread_coords,
                exec,
                scratch,
                staged,
                store,
                opts,
                &mut stats,
            )?;
            // Advance the serial step odometer (last dim fastest).
            let mut advanced = false;
            let mut d = serial_dims.len();
            while d > 0 {
                d -= 1;
                step[d] += 1;
                if step[d] * tiles[serial_dims[d]] < trips[serial_dims[d]] {
                    advanced = true;
                    break;
                }
                step[d] = 0;
            }
            if !advanced {
                break;
            }
        }
        // Advance the block index (x fastest, CUDA linear order).
        let mut p = 0;
        loop {
            if p == block.len() {
                break 'blocks;
            }
            block[p] += 1;
            if block[p] < mapping.grid_extents[p] {
                continue 'blocks;
            }
            block[p] = 0;
            p += 1;
        }
    }
    Ok(stats)
}

/// One serial tile step inside one block over its point box `ranges`:
/// staging phase, barrier, compute.
#[allow(clippy::too_many_arguments)]
fn run_step(
    kernel: &Kernel,
    mapping: &GpuMapping,
    serial_dims: &[usize],
    ranges: &[(i64, i64)],
    thread_coords: &[Vec<i64>],
    exec: Option<&ExecPlan>,
    scratch: &mut RowScratch,
    staged: &mut [StagedGroup<'_>],
    store: &mut Store,
    opts: &ExecOptions,
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    // --- staging phase ------------------------------------------------------
    for g in staged.iter_mut() {
        let nsubs = g.representative.subscripts.len();
        let mut bounds = Vec::with_capacity(nsubs);
        for (p, s) in g.representative.subscripts.iter().enumerate() {
            let mut lo = 0i64;
            let mut hi = 0i64;
            for &(d, c) in s.terms() {
                let (rlo, rhi) = ranges[d];
                if c >= 0 {
                    lo += c * rlo;
                    hi += c * rhi;
                } else {
                    lo += c * rhi;
                    hi += c * rlo;
                }
            }
            if p + 1 == nsubs {
                // Fastest subscript: span all member offsets.
                lo += g.fastest_offsets.0;
                hi += g.fastest_offsets.1;
            } else {
                lo += s.offset();
                hi += s.offset();
            }
            bounds.push((lo, hi));
        }
        g.bounds = bounds;
        let elems = g.box_elems();
        if elems > g.declared_elems {
            return Err(ExecError::SharedUndersized {
                kernel: kernel.name.clone(),
                array: g.array.clone(),
                box_elems: elems,
                declared_elems: g.declared_elems,
            });
        }
        stats.staged_elems += elems as u64;
        match opts.barrier_fidelity {
            BarrierFidelity::Faithful => {
                // Cooperative load, then the barrier: the buffer is fully
                // populated before any thread computes.
                g.load_box(store.get(&g.array));
                stats.barriers += 1;
            }
            BarrierFidelity::SkipLoadBarrier => {
                // Loads happen per-thread, interleaved with compute below;
                // keep whatever was in the buffer (stale or zero) and only
                // grow it to the box size.
                g.data.resize(elems as usize, 0.0);
            }
        }
    }

    // --- compute phase ------------------------------------------------------
    // Every thread's points lie in the step's tile box, so each access is
    // proven once here, not once per row.
    if let Some(plan) = exec {
        let mut router = StagedRouter {
            staged,
            kernel: &kernel.name,
            failure: None,
        };
        plan.linearize(ranges, scratch, &mut router);
    }
    // Serial point loops (dim order), then each thread's mapped cyclic
    // point loops (outermost first, x innermost) — the loop structure of
    // the generated kernel — with singleton loops folded into `point`.
    let mut point: Vec<i64> = ranges.iter().map(|&(lo, _)| lo).collect();
    let mut loops: Vec<(usize, i64, i64)> = Vec::with_capacity(point.len());
    for &d in serial_dims {
        let count = ranges[d].1 - ranges[d].0 + 1;
        if count != 1 {
            loops.push((d, count, 1));
        }
    }
    let serial_loops = loops.len();
    let serial_points: i64 = loops.iter().map(|&(_, count, _)| count).product();
    'threads: for (tl, coord) in thread_coords.iter().enumerate() {
        if opts.barrier_fidelity == BarrierFidelity::SkipLoadBarrier {
            // This thread loads only its cyclic share before computing.
            let nthreads = thread_coords.len();
            for g in staged.iter_mut() {
                let array = store.get(&g.array);
                let elems = g.data.len();
                let mut idx: Vec<i64> = g.bounds.iter().map(|&(lo, _)| lo).collect();
                for flat in 0..elems {
                    if flat % nthreads == tl {
                        g.data[flat] = array.map_or(0.0, |a| a.get(&idx));
                    }
                    for p in (0..idx.len()).rev() {
                        idx[p] += 1;
                        if idx[p] <= g.bounds[p].1 {
                            break;
                        }
                        idx[p] = g.bounds[p].0;
                    }
                }
            }
        }
        loops.truncate(serial_loops);
        let mut points = serial_points;
        for pos in (0..mapping.mapped_dims.len()).rev() {
            let d = mapping.mapped_dims[pos];
            let step = mapping.thread_extents[pos];
            let start = ranges[d].0 + coord[pos];
            if start > ranges[d].1 {
                continue 'threads; // this thread has no point in the tile
            }
            let count = (ranges[d].1 - start) / step + 1;
            point[d] = start;
            if count != 1 {
                loops.push((d, count, step));
            }
            points *= count;
        }
        stats.points += points as u64;
        let mut router = StagedRouter {
            staged,
            kernel: &kernel.name,
            failure: None,
        };
        match exec {
            Some(plan) => plan.exec_nest(store, &mut point, &loops, scratch, &mut router),
            None => {
                let (staged, failure) = (router.staged, &mut router.failure);
                let mut hook = |r: &ArrayRef, idx: &[i64]| -> Option<f64> {
                    let g = &staged[route_of(staged, r)?];
                    Some(match g.flatten(idx) {
                        Some(flat) => g.data[flat],
                        None => {
                            failure.get_or_insert_with(|| out_of_box(&kernel.name, &r.array, idx));
                            0.0
                        }
                    })
                };
                walk_nest(&mut point, &loops, &mut |p: &[i64]| {
                    exec_point_hooked(kernel, store, p, &mut hook)
                });
            }
        }
        if let Some(e) = router.failure {
            return Err(e);
        }
    }
    if !staged.is_empty() {
        stats.barriers += 1; // barrier after the compute phase
    }
    Ok(())
}

/// Visits every point of a loop nest in lexicographic order — the
/// reference engine's counterpart of
/// [`ExecPlan::exec_nest`](eatss_affine::plan::ExecPlan::exec_nest),
/// with the same `(dim, count, step)` loops, restoring `point`.
fn walk_nest(point: &mut [i64], loops: &[(usize, i64, i64)], visit: &mut impl FnMut(&[i64])) {
    match *loops {
        [] => visit(point),
        [(dim, count, step), ref inner @ ..] => {
            let start = point[dim];
            for i in 0..count {
                point[dim] = start + i * step;
                walk_nest(point, inner, visit);
            }
            point[dim] = start;
        }
    }
}

/// Executes a whole compiled program (every kernel in order) over the
/// store, mirroring the generated host `main`.
///
/// # Errors
///
/// See [`ExecError`].
pub fn execute_compiled(
    program: &Program,
    mappings: &[GpuMapping],
    sizes: &ProblemSizes,
    store: &mut Store,
    opts: &ExecOptions,
) -> Result<ExecStats, ExecError> {
    let mut stats = ExecStats::default();
    for (kernel, mapping) in program.kernels.iter().zip(mappings) {
        stats.absorb(execute_mapped_kernel(kernel, mapping, sizes, store, opts)?);
    }
    Ok(stats)
}

/// Executes one program under many tile configurations, compiling each
/// distinct per-kernel plan once and sharing it across the batch.
///
/// Within a batch the problem sizes (hence trip counts) and — when every
/// store carries the layout of `stores[0]` — the slot layout are
/// invariant; only the staged-route assignment varies with the tile
/// configuration. Plans are therefore cached per kernel keyed by route
/// signature ([`KernelPlanCache`]), so configs that stage the same reads
/// reuse one compiled plan instead of recompiling per config. A store
/// whose layout diverges from `stores[0]` falls back to the uncached
/// [`execute_compiled`]; results are bitwise-identical to running each
/// config through `execute_compiled` on its own.
pub fn execute_compiled_batch(
    program: &Program,
    configs: &[Vec<GpuMapping>],
    sizes: &ProblemSizes,
    stores: &mut [Store],
    opts: &ExecOptions,
) -> Vec<Result<ExecStats, ExecError>> {
    assert_eq!(
        configs.len(),
        stores.len(),
        "one store per tile configuration"
    );
    let Some(first) = stores.first() else {
        return Vec::new();
    };
    let layout = eatss_affine::interp::store_layout(first);
    let mut caches: Vec<KernelPlanCache> = program
        .kernels
        .iter()
        .map(|_| KernelPlanCache::default())
        .collect();
    configs
        .iter()
        .zip(stores.iter_mut())
        .map(|(mappings, store)| {
            if eatss_affine::interp::store_layout(store) != layout {
                return execute_compiled(program, mappings, sizes, store, opts);
            }
            let mut stats = ExecStats::default();
            for ((kernel, mapping), cache) in
                program.kernels.iter().zip(mappings).zip(&mut caches)
            {
                stats.absorb(execute_mapped_kernel_cached(
                    kernel,
                    mapping,
                    sizes,
                    store,
                    opts,
                    Some(cache),
                )?);
            }
            Ok(stats)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::CompileOptions;
    use crate::oracle::seed_store;
    use eatss_affine::interp::{compare_stores, run_program};
    use eatss_affine::parser::parse_program;
    use eatss_gpusim::GpuArch;

    const MM: &str = "kernel mm(M, N, P) {
        for (i: M) for (j: N) for (k: P)
          C[i][j] += A[i][k] * B[k][j];
      }";

    fn plan_opts() -> ExecOptions {
        ExecOptions {
            engine: ExecEngine::Plan,
            ..ExecOptions::default()
        }
    }

    fn emulate(
        src: &str,
        tiles: Vec<i64>,
        sizes: &[(&str, i64)],
        opts: &ExecOptions,
    ) -> (Store, Store, ExecStats) {
        let p = parse_program(src).unwrap();
        let sizes = ProblemSizes::new(sizes.iter().cloned());
        let compiled = crate::Ppcg::new(GpuArch::ga100())
            .compile(&p, &eatss_affine::tiling::TileConfig::new(tiles), &sizes, &CompileOptions::default())
            .unwrap();
        let mut emul = seed_store(&p, &sizes, 42).unwrap();
        let stats = execute_compiled(&p, &compiled.mappings, &sizes, &mut emul, opts).unwrap();
        let mut reference = seed_store(&p, &sizes, 42).unwrap();
        run_program(&p, &sizes, &mut reference).unwrap();
        (emul, reference, stats)
    }

    #[test]
    fn matmul_agrees_with_interpreter() {
        let (emul, reference, stats) =
            emulate(MM, vec![4, 4, 4], &[("M", 9), ("N", 10), ("P", 7)], &plan_opts());
        assert!(compare_stores(&emul, &reference).is_empty());
        assert_eq!(stats.points, 9 * 10 * 7);
        assert_eq!(stats.launches, 1);
    }

    #[test]
    fn non_divisible_and_unit_tiles_agree() {
        for tiles in [vec![1, 1, 1], vec![3, 5, 2], vec![16, 16, 16]] {
            let (emul, reference, _) =
                emulate(MM, tiles.clone(), &[("M", 7), ("N", 11), ("P", 5)], &plan_opts());
            assert!(
                compare_stores(&emul, &reference).is_empty(),
                "tiles {tiles:?} disagree"
            );
        }
    }

    #[test]
    fn engines_agree_bitwise_with_identical_stats() {
        for tiles in [vec![4, 4, 4], vec![3, 5, 2], vec![1, 1, 1]] {
            let sizes: &[(&str, i64)] = &[("M", 9), ("N", 10), ("P", 7)];
            let plan_opts = plan_opts();
            let ref_opts = ExecOptions {
                engine: ExecEngine::Reference,
                ..ExecOptions::default()
            };
            let (plan_store, _, plan_stats) = emulate(MM, tiles.clone(), sizes, &plan_opts);
            let (ref_store, _, ref_stats) = emulate(MM, tiles.clone(), sizes, &ref_opts);
            assert!(
                compare_stores(&plan_store, &ref_store).is_empty(),
                "tiles {tiles:?}: engines disagree"
            );
            assert_eq!(plan_stats, ref_stats, "tiles {tiles:?}: stats diverge");
        }
    }

    #[test]
    fn default_engine_matches_interpreter_on_small_and_large_domains() {
        // 630 and 2197 points: tiny domains run on the compiled plan too
        // and must match the interpreter bitwise.
        for sizes in [
            &[("M", 9), ("N", 10), ("P", 7)][..],
            &[("M", 13), ("N", 13), ("P", 13)][..],
        ] {
            let points: i64 = sizes.iter().map(|&(_, n)| n).product();
            let (emul, reference, stats) =
                emulate(MM, vec![4, 4, 4], sizes, &ExecOptions::default());
            assert!(
                compare_stores(&emul, &reference).is_empty(),
                "{points} points: default engine diverges from interpreter"
            );
            assert_eq!(stats.points as i64, points);
        }
    }

    #[test]
    fn time_loop_kernel_relaunches_per_step() {
        let (emul, reference, stats) = emulate(
            "kernel sweep(T, N) {
               for seq (t: T) for (i: N)
                 A[i] = A[i] + B[i];
             }",
            vec![1, 4],
            &[("T", 3), ("N", 10)],
            &plan_opts(),
        );
        assert!(compare_stores(&emul, &reference).is_empty());
        assert_eq!(stats.launches, 3);
        assert_eq!(stats.points, 30);
    }

    #[test]
    fn skipping_the_load_barrier_breaks_staged_kernels() {
        // The mapping stages A (matmul's shared-memory candidate). With
        // the barrier honored the oracle agrees; with the load barrier
        // skipped, threads read elements other threads have not staged
        // yet, so results MUST diverge — proving the emulator actually
        // models the barrier phases rather than bypassing the buffers.
        let faithful = plan_opts();
        let skip = ExecOptions {
            barrier_fidelity: BarrierFidelity::SkipLoadBarrier,
            ..plan_opts()
        };
        let sizes: &[(&str, i64)] = &[("M", 8), ("N", 8), ("P", 8)];
        let (emul, reference, stats) = emulate(MM, vec![4, 4, 4], sizes, &faithful);
        assert!(stats.staged_elems > 0, "A must be staged for this test");
        assert!(compare_stores(&emul, &reference).is_empty());
        let (emul, reference, _) = emulate(MM, vec![4, 4, 4], sizes, &skip);
        assert!(
            !compare_stores(&emul, &reference).is_empty(),
            "reordering __syncthreads() phases must be observable"
        );
    }

    #[test]
    fn batched_execution_matches_sequential_bitwise_with_identical_stats() {
        let p = parse_program(MM).unwrap();
        let sizes = ProblemSizes::new([("M", 9), ("N", 10), ("P", 7)]);
        let tile_sets = [
            vec![4, 4, 4],
            vec![3, 5, 2],
            vec![1, 1, 1],
            vec![16, 16, 16],
            vec![4, 4, 4], // duplicate config: exercises plan-cache hits
        ];
        let configs: Vec<Vec<GpuMapping>> = tile_sets
            .iter()
            .map(|tiles| {
                crate::Ppcg::new(GpuArch::ga100())
                    .compile(
                        &p,
                        &eatss_affine::tiling::TileConfig::new(tiles.clone()),
                        &sizes,
                        &CompileOptions::default(),
                    )
                    .unwrap()
                    .mappings
            })
            .collect();
        let ref_opts = ExecOptions {
            engine: ExecEngine::Reference,
            ..ExecOptions::default()
        };
        for opts in [plan_opts(), ref_opts] {
            let mut batched: Vec<Store> = configs
                .iter()
                .map(|_| seed_store(&p, &sizes, 42).unwrap())
                .collect();
            let results = execute_compiled_batch(&p, &configs, &sizes, &mut batched, &opts);
            for ((mappings, store), result) in configs.iter().zip(&batched).zip(results) {
                let mut solo = seed_store(&p, &sizes, 42).unwrap();
                let solo_stats =
                    execute_compiled(&p, mappings, &sizes, &mut solo, &opts).unwrap();
                assert!(
                    compare_stores(store, &solo).is_empty(),
                    "batched run diverges from sequential"
                );
                assert_eq!(result.unwrap(), solo_stats, "stats diverge");
            }
        }
    }

    /// Narrowing a staged group's fastest-subscript span shrinks its box
    /// below the tile's reads: both engines must report the same first
    /// out-of-box read, whichever end of the box is cut.
    #[test]
    fn staged_read_out_of_box_is_reported_identically_by_both_engines() {
        let p = parse_program(MM).unwrap();
        let sizes = ProblemSizes::new([("M", 8), ("N", 8), ("P", 8)]);
        let compiled = crate::Ppcg::new(GpuArch::ga100())
            .compile(&p, &eatss_affine::tiling::TileConfig::new(vec![4, 4, 4]), &sizes, &CompileOptions::default())
            .unwrap();
        for narrow in [(1, 0), (0, -1)] {
            let mut mappings = compiled.mappings.clone();
            let staged = mappings[0].refs.iter_mut().find(|r| r.staged).expect("A is staged");
            let (lo, hi) = staged.group.fastest_offsets;
            staged.group.fastest_offsets = (lo + narrow.0, hi + narrow.1);
            let run = |engine| {
                let mut store = seed_store(&p, &sizes, 42).unwrap();
                let opts = ExecOptions {
                    engine,
                    ..ExecOptions::default()
                };
                execute_compiled(&p, &mappings, &sizes, &mut store, &opts).unwrap_err()
            };
            let plan = run(ExecEngine::Plan);
            assert!(matches!(plan, ExecError::StagedReadOutOfBox { .. }), "{plan}");
            assert_eq!(plan, run(ExecEngine::Reference), "narrowed by {narrow:?}");
        }
    }

    #[test]
    fn zero_trip_is_a_noop() {
        let p = parse_program(MM).unwrap();
        let sizes = ProblemSizes::new([("M", 4), ("N", 4), ("P", 4)]);
        let compiled = crate::Ppcg::new(GpuArch::ga100())
            .compile(
                &p,
                &eatss_affine::tiling::TileConfig::new(vec![2, 2, 2]),
                &sizes,
                &CompileOptions::default(),
            )
            .unwrap();
        let zero = ProblemSizes::new([("M", 0), ("N", 4), ("P", 4)]);
        let mut store = Store::new();
        let stats = execute_compiled(&p, &compiled.mappings, &zero, &mut store, &ExecOptions::default())
            .unwrap();
        assert_eq!(stats.points, 0);
        assert_eq!(stats.blocks, 0);
    }
}
