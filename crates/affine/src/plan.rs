//! Compiled execution plans: the interpreter's fast path.
//!
//! [`ExecPlan::compile`] lowers a [`Kernel`] against a concrete
//! [`Store`] layout and iteration domain into a form with no per-point
//! interpretation overhead:
//!
//! * **Arrays → slots.** Every reference is resolved once to a dense
//!   slot index into the store (no string keys in the hot loop).
//! * **Subscripts → address functions.** A subscript list over
//!   row-major extents is an affine function of the iteration point, so
//!   each access lowers to a precomputed linear address function —
//!   constant base offset plus one stride per loop dimension. When
//!   interval analysis over the iteration domain proves every subscript
//!   in bounds, the access is a single dot product ([`Addr::Linear`]);
//!   otherwise per-subscript bounds checks are kept ([`Addr::Checked`]),
//!   preserving the interpreter's OOB conventions (reads 0, writes
//!   dropped) exactly.
//! * **RHS trees → opcode tapes.** Each statement's expression is
//!   flattened into a postfix [`Op`] tape evaluated over a fixed-size
//!   value stack — no recursion, no `Box` dispatch. Tape order equals
//!   the tree-walker's evaluation order, so reads happen in the same
//!   sequence (observable through routed reads).
//!
//! Executors hand the plan whole loop nests ([`ExecPlan::exec_nest`]);
//! the innermost loop runs as a row of cursor walks. Before a nest, an
//! executor may prove the accesses over the nest's point box
//! ([`ExecPlan::linearize`]): checked reads that stay in bounds there
//! become direct walks too.
//!
//! External executors (the `eatss-ppcg` GPU emulator) can pre-route
//! individual reads to a [`RouteSource`], resolving its
//! staged-shared-memory matching once at compile time instead of per
//! read per point, and linearizing its buffer once per point box.
//! `RouteSource` is the compiled analogue of
//! [`ReadHook`](crate::interp::ReadHook).
//!
//! `compile` returns `None` for shapes outside the plan's fixed buffers
//! (rank above [`MAX_RANK`], expression stack deeper than [`MAX_STACK`],
//! stride overflow); callers fall back to the reference tree-walker.
//! The fast path is differentially tested bitwise against
//! [`interp::reference`](crate::interp::reference) over the whole
//! benchmark suite.

use crate::interp::{Store, MAX_RANK};
use crate::ir::{AffineExpr, ArrayRef, Kernel};
use std::sync::atomic::{AtomicBool, Ordering};

/// Maximum postfix value-stack depth a plan supports; deeper expressions
/// fall back to the reference interpreter.
pub const MAX_STACK: usize = 16;

/// Lanes of the chunked (SIMD-style) row loop.
pub const SIMD_LANES: usize = 4;

/// Runtime switch for the chunked row loop — differential tests flip it
/// to pin the vector path bitwise against the scalar one.
static SIMD_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables the chunked (SIMD-style) row loop globally.
///
/// The vector path is only ever taken where it is provably bitwise
/// identical to the scalar loop (see [`ExecPlan::exec_nest`]), so this
/// switch can never change results — it exists so differential tests
/// can compare both paths on identical inputs.
pub fn set_simd_enabled(enabled: bool) {
    SIMD_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the chunked row loop is currently enabled.
pub fn simd_enabled() -> bool {
    SIMD_ENABLED.load(Ordering::Relaxed)
}

/// Compiled execution state shared across a *batch* of stores with one
/// slot layout: slot-resolved address functions and opcode tapes are
/// compiled once per kernel and reused for every store in the batch.
///
/// Built by [`BatchPlan::compile`](crate::interp) and driven by
/// [`run_program_batch`](crate::interp::run_program_batch); a store whose
/// layout diverges from the compile-time one silently falls back to the
/// per-store path, so sharing is purely a performance property.
#[derive(Debug, Default)]
pub struct BatchPlan {
    /// One entry per kernel: trip counts and the compiled plan (`None`
    /// when the kernel does not lower; the tree-walking reference runs
    /// instead).
    pub(crate) kernels: Vec<(Vec<i64>, Option<ExecPlan>)>,
    /// Layout fingerprint the plans were compiled against:
    /// `(array name, slot, extents)` in name order.
    pub(crate) layout: Vec<(String, usize, Vec<i64>)>,
}

/// A source for pre-routed reads (the compiled analogue of
/// [`ReadHook`](crate::interp::ReadHook)): `read` receives the route id
/// chosen at compile time and the evaluated subscript indices.
pub trait RouteSource {
    /// Produces the value of a routed read.
    fn read(&mut self, route: usize, index: &[i64]) -> f64;

    /// Offers a box of subscript vectors to the source: `sub_box[p]` is
    /// the inclusive range subscript `p` takes over a point box (see
    /// [`ExecPlan::linearize`]). A source that can prove every vector in
    /// the box resolves inside its buffer writes the buffer's row-major
    /// flat multipliers to `mult` and returns the flat offset of the
    /// all-zero index, so `flat = base + Σ mult[p]·index[p]`; reads then
    /// go through [`RouteSource::read_flat`] with no per-point subscript
    /// work. Returning `None` (the default) keeps per-point
    /// [`RouteSource::read`] calls.
    fn linearize(&mut self, _route: usize, _sub_box: &[(i64, i64)], _mult: &mut [i64]) -> Option<i64> {
        None
    }

    /// Reads a flat offset of the form [`RouteSource::linearize`] returned.
    fn read_flat(&mut self, _route: usize, _flat: i64) -> f64 {
        0.0
    }
}

/// The trivial route source for plans compiled without routing.
pub struct NoRoutes;

impl RouteSource for NoRoutes {
    fn read(&mut self, _route: usize, _index: &[i64]) -> f64 {
        0.0
    }
}

/// One postfix opcode.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push a literal.
    Num(f64),
    /// Push the value of read `i` (index into `StmtPlan::reads`).
    Read(u32),
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    /// Unknown binary operator: pop two, push NaN (the tree-walker
    /// evaluates both operands, then yields NaN).
    Nan,
}

/// A lowered affine index function: `Σ coeff·point[dim] + offset`.
#[derive(Debug, Clone)]
struct IndexFn {
    terms: Vec<(u32, i64)>,
    offset: i64,
}

impl IndexFn {
    fn lower(e: &AffineExpr) -> IndexFn {
        IndexFn {
            terms: e.terms().iter().map(|&(d, c)| (d as u32, c)).collect(),
            offset: e.offset(),
        }
    }

    /// The coefficient on `dim` (0 when absent).
    fn coeff(&self, dim: usize) -> i64 {
        self.terms
            .iter()
            .find(|&&(d, _)| d as usize == dim)
            .map_or(0, |&(_, c)| c)
    }

    #[inline]
    fn eval(&self, point: &[i64]) -> i64 {
        let mut v = self.offset;
        for &(d, c) in &self.terms {
            v += c * point[d as usize];
        }
        v
    }

    /// Value interval over the point box `bx[d].0 ≤ point[d] ≤ bx[d].1`.
    /// `None` when a term's dimension lies outside the box.
    fn range(&self, bx: &[(i64, i64)]) -> Option<(i64, i64)> {
        let (mut lo, mut hi) = (self.offset, self.offset);
        for &(d, c) in &self.terms {
            let (min, max) = *bx.get(d as usize)?;
            if c >= 0 {
                lo += c * min;
                hi += c * max;
            } else {
                lo += c * max;
                hi += c * min;
            }
        }
        Some((lo, hi))
    }
}

/// A flat address valid over a point box: `base + Σ coef[d]·point[d]`.
/// Arithmetic wraps: over the box the true value is a valid offset, so
/// wrapping intermediates land on it exactly.
#[derive(Debug, Clone, Copy, Default)]
struct LinearForm {
    base: i64,
    coef: [i64; MAX_RANK],
}

impl LinearForm {
    #[inline]
    fn eval(&self, point: &[i64]) -> i64 {
        let mut flat = self.base;
        for (&c, &v) in self.coef.iter().zip(point) {
            flat = flat.wrapping_add(c.wrapping_mul(v));
        }
        flat
    }

    /// Adds `mult × index` for one subscript's index function.
    fn add(&mut self, index: &IndexFn, mult: i64) {
        self.base = self.base.wrapping_add(index.offset.wrapping_mul(mult));
        for &(d, c) in &index.terms {
            let coef = &mut self.coef[d as usize];
            *coef = coef.wrapping_add(c.wrapping_mul(mult));
        }
    }
}

/// One subscript of a checked access: index function, extent to check
/// against, and the row-major stride it contributes.
#[derive(Debug, Clone)]
struct SubPlan {
    index: IndexFn,
    extent: i64,
    stride: i64,
}

/// A lowered array access.
#[derive(Debug, Clone)]
enum Addr {
    /// Proven in bounds over the iteration domain: one linear form.
    Linear { slot: u32, at: LinearForm },
    /// Per-subscript bounds checks, then stride combination. Any failing
    /// check reads 0 / drops the write.
    Checked { slot: u32, subs: Vec<SubPlan> },
    /// Pre-routed to a [`RouteSource`] (never used for writes).
    Routed { route: u32, subs: Vec<IndexFn> },
    /// Statically resolved to a miss (absent array, rank mismatch):
    /// reads 0, writes dropped.
    Miss,
}

/// One lowered statement: opcode tape, lowered reads, lowered write.
#[derive(Debug, Clone)]
struct StmtPlan {
    tape: Vec<Op>,
    reads: Vec<Addr>,
    write: Addr,
    accumulate: bool,
    /// The tape is exactly `read(0) · read(1)` accumulated into the
    /// write — the dominant PolyBench statement shape, fused into a
    /// dedicated row loop.
    mul_acc: bool,
}

/// A kernel compiled against a store layout and iteration domain. See
/// the module docs.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    stmts: Vec<StmtPlan>,
}

/// Reusable scratch for [`ExecPlan::exec_nest`]: per read, the flat
/// form proven over the current point box (see [`ExecPlan::linearize`])
/// and a `(flat, delta)` row cursor. Create once per kernel launch with
/// [`ExecPlan::scratch`] and reuse across nests — row setup then costs
/// a copy per access instead of an address computation per access *per
/// point*.
#[derive(Debug, Clone, Default)]
pub struct RowScratch {
    stmts: Vec<StmtScratch>,
}

#[derive(Debug, Clone)]
struct StmtScratch {
    /// Per read: its flat form over the box last linearized; `None`
    /// where the proof failed (checked reads then split each row at
    /// their bounds, routed reads go per point).
    forms: Vec<Option<LinearForm>>,
    reads: Vec<RowCursor>,
    write: (i64, i64),
    /// The linear write's flat offset at the nest's current point.
    write_start: i64,
}

/// One access's incremental state along a row. `direct` marks cursors
/// whose flat offset is valid for the whole row — reads with a proven
/// [`LinearForm`], and checked reads inside their in-bounds segment.
/// Everything else is recomputed per point. `start` is a form-bearing
/// read's flat offset at the nest's current point: the outer loops of a
/// nest move it by one stride per step, and each row starts from it.
#[derive(Debug, Clone, Copy, Default)]
struct RowCursor {
    flat: i64,
    delta: i64,
    direct: bool,
    start: i64,
}

impl ExecPlan {
    /// Compiles `kernel` for the iteration domain `0 ≤ point[d] <
    /// trips[d]` against the array layout currently in `store`.
    ///
    /// The plan is only valid while the store keeps those layouts:
    /// replacing an array with different extents invalidates it.
    /// Returns `None` for shapes beyond the plan's fixed buffers — the
    /// caller falls back to the reference interpreter.
    pub fn compile(kernel: &Kernel, trips: &[i64], store: &Store) -> Option<ExecPlan> {
        ExecPlan::compile_routed(kernel, trips, store, |_| None)
    }

    /// Like [`ExecPlan::compile`], but each read is first offered to
    /// `router`: returning `Some(route)` lowers the read to that route
    /// id of the executor's [`RouteSource`] instead of a store access.
    /// Writes are never routed.
    pub fn compile_routed(
        kernel: &Kernel,
        trips: &[i64],
        store: &Store,
        mut router: impl FnMut(&ArrayRef) -> Option<usize>,
    ) -> Option<ExecPlan> {
        let _span = eatss_trace::span("pipeline", "plan_compile");
        if trips.iter().any(|&t| t <= 0) {
            return None;
        }
        let mut stmts = Vec::with_capacity(kernel.stmts.len());
        for stmt in &kernel.stmts {
            let mut tape = Vec::new();
            lower_expr(&stmt.rhs, &mut tape);
            if tape_stack_depth(&tape)? > MAX_STACK {
                return None;
            }
            let reads = stmt
                .reads
                .iter()
                .map(|r| lower_access(r, trips, store, router(r)))
                .collect::<Option<Vec<_>>>()?;
            let write = lower_access(&stmt.write, trips, store, None)?;
            let mul_acc = stmt.is_accumulation
                && matches!(tape.as_slice(), [Op::Read(0), Op::Read(1), Op::Mul]);
            stmts.push(StmtPlan {
                tape,
                reads,
                write,
                accumulate: stmt.is_accumulation,
                mul_acc,
            });
        }
        eatss_trace::counter_add("exec.plan_compiles", 1);
        Some(ExecPlan { stmts })
    }

    /// Creates the nest-execution scratch sized for this plan, holding
    /// the compile-time proofs: every read proven in bounds over the
    /// iteration domain has its form, every other read none — the state
    /// [`ExecPlan::linearize`] leaves for the whole iteration domain with
    /// no routes.
    pub fn scratch(&self) -> RowScratch {
        RowScratch {
            stmts: self
                .stmts
                .iter()
                .map(|s| StmtScratch {
                    forms: s
                        .reads
                        .iter()
                        .map(|r| match r {
                            Addr::Linear { at, .. } => Some(*at),
                            _ => None,
                        })
                        .collect(),
                    reads: vec![RowCursor::default(); s.reads.len()],
                    write: (0, 0),
                    write_start: 0,
                })
                .collect(),
        }
    }

    /// Proves each read once over the point box `bx` (inclusive
    /// `(lo, hi)` per dimension) and stores its flat form in `scratch`:
    /// a checked read whose subscripts all stay in bounds over the box,
    /// and a routed read whose subscript box `routes` accepts
    /// ([`RouteSource::linearize`]), become direct for every row of the
    /// nests run inside the box. Reads whose proof fails keep the per-row
    /// bounds split (checked) or per-point reads (routed), one read at a
    /// time.
    pub fn linearize(&self, bx: &[(i64, i64)], scratch: &mut RowScratch, routes: &mut impl RouteSource) {
        for (stmt, sc) in self.stmts.iter().zip(&mut scratch.stmts) {
            for (read, form) in stmt.reads.iter().zip(&mut sc.forms) {
                *form = match read {
                    Addr::Linear { at, .. } => Some(*at),
                    Addr::Checked { subs, .. } => {
                        let in_bounds = subs.iter().all(|sub| {
                            matches!(sub.index.range(bx), Some((lo, hi)) if lo >= 0 && hi < sub.extent)
                        });
                        in_bounds.then(|| {
                            let mut at = LinearForm::default();
                            for sub in subs {
                                at.add(&sub.index, sub.stride);
                            }
                            at
                        })
                    }
                    Addr::Routed { route, subs } => {
                        let mut sub_box = [(0i64, 0i64); MAX_RANK];
                        let mut mult = [0i64; MAX_RANK];
                        for (b, sub) in sub_box.iter_mut().zip(subs) {
                            *b = sub.range(bx).unwrap_or((i64::MIN, i64::MAX));
                        }
                        let n = subs.len();
                        routes.linearize(*route as usize, &sub_box[..n], &mut mult[..n]).map(|base| {
                            let mut at = LinearForm { base, ..LinearForm::default() };
                            for (sub, &m) in subs.iter().zip(&mult) {
                                at.add(sub, m);
                            }
                            at
                        })
                    }
                    Addr::Miss => None,
                };
            }
        }
    }

    /// Executes a lexicographic loop nest — bit-for-bit equivalent to
    /// [`ExecPlan::exec_point_routed`] at every point in order. `loops`
    /// lists `(dim, count, step)` outermost first; each loop starts at
    /// the current `point[dim]`, and `point` is restored on return. The
    /// innermost loop runs as a plan row: addresses with a proven form
    /// are resolved once per nest, moved by one stride per outer step,
    /// and advanced by `step × stride` per point along a row; the
    /// chunked and fused row loops apply where provably identical (see
    /// [`set_simd_enabled`]).
    ///
    /// Forms come from `scratch`: the compile-time domain's for a fresh
    /// [`ExecPlan::scratch`], else the box last passed to
    /// [`ExecPlan::linearize`] — every point the nest visits must lie in
    /// that box.
    pub fn exec_nest(
        &self,
        store: &mut Store,
        point: &mut [i64],
        loops: &[(usize, i64, i64)],
        scratch: &mut RowScratch,
        routes: &mut impl RouteSource,
    ) {
        if loops.is_empty() {
            self.exec_point_routed(store, point, routes);
            return;
        }
        self.move_starts(scratch, |at, _| at.eval(point));
        self.run_nest(store, point, loops, scratch, routes);
    }

    /// [`ExecPlan::exec_nest`] over a non-empty nest whose row starts are
    /// placed at `point`; restores both.
    fn run_nest(
        &self,
        store: &mut Store,
        point: &mut [i64],
        loops: &[(usize, i64, i64)],
        scratch: &mut RowScratch,
        routes: &mut impl RouteSource,
    ) {
        let [(dim, count, step), ref inner @ ..] = *loops else {
            unreachable!("exec_nest runs empty nests as one point")
        };
        let start = point[dim];
        if inner.is_empty() {
            self.exec_row(store, point, dim, count, step, scratch, routes);
            point[dim] = start;
            return;
        }
        for i in 0..count {
            if i > 0 {
                point[dim] += step;
                self.move_starts(scratch, |at, s| s.wrapping_add(at.coef[dim].wrapping_mul(step)));
            }
            self.run_nest(store, point, inner, scratch, routes);
        }
        if count > 1 {
            point[dim] = start;
            let back = (count - 1).wrapping_mul(step);
            self.move_starts(scratch, |at, s| s.wrapping_sub(at.coef[dim].wrapping_mul(back)));
        }
    }

    /// Applies `f(form, start)` to the row start of every access with a
    /// form: the linear write and the reads proven over the box.
    fn move_starts(&self, scratch: &mut RowScratch, f: impl Fn(&LinearForm, i64) -> i64) {
        for (stmt, sc) in self.stmts.iter().zip(&mut scratch.stmts) {
            for (form, cursor) in sc.forms.iter().zip(&mut sc.reads) {
                if let Some(at) = form {
                    cursor.start = f(at, cursor.start);
                }
            }
            if let Addr::Linear { at, .. } = &stmt.write {
                sc.write_start = f(at, sc.write_start);
            }
        }
    }

    /// Executes `count` iteration points along `dim`, starting from the
    /// current `point` and stepping by `step`, leaving `point[dim]` past
    /// the row.
    #[allow(clippy::too_many_arguments)]
    fn exec_row(
        &self,
        store: &mut Store,
        point: &mut [i64],
        dim: usize,
        count: i64,
        step: i64,
        scratch: &mut RowScratch,
        routes: &mut impl RouteSource,
    ) {
        if count <= 0 {
            return;
        }
        // A checked subscript without a box proof is linear in the row
        // variable, so its in-bounds region is a contiguous interval of
        // points; `dlo..dhi` is the intersection over every such read.
        // Inside it their cursors become direct flat walks, and only the
        // edge points pay the per-point bounds checks.
        let mut dlo = 0i64;
        let mut dhi = count;
        let mut has_checked = false;
        for (stmt, sc) in self.stmts.iter().zip(&mut scratch.stmts) {
            for ((read, form), cursor) in stmt.reads.iter().zip(&sc.forms).zip(&mut sc.reads) {
                (cursor.flat, cursor.delta, cursor.direct) = match (form, read) {
                    (Some(at), _) => (cursor.start, at.coef[dim].wrapping_mul(step), true),
                    (None, Addr::Checked { subs, .. }) => {
                        has_checked = true;
                        let mut flat = 0i64;
                        let mut delta = 0i64;
                        for sub in subs {
                            let s = sub.index.eval(point);
                            let d = step * sub.index.coeff(dim);
                            flat = flat.wrapping_add(s.wrapping_mul(sub.stride));
                            delta = delta.wrapping_add(d.wrapping_mul(sub.stride));
                            let (lo, hi) = inbounds_interval(s, d, sub.extent, count);
                            dlo = dlo.max(lo);
                            dhi = dhi.min(hi);
                        }
                        (flat, delta, false)
                    }
                    (None, _) => (0, 0, false),
                };
            }
            sc.write = match &stmt.write {
                Addr::Linear { at, .. } => (sc.write_start, at.coef[dim].wrapping_mul(step)),
                _ => (0, 0),
            };
        }
        if !has_checked {
            self.run_row_body(store, point, dim, count, step, scratch, routes);
            return;
        }
        let dhi = dhi.clamp(0, count);
        let dlo = dlo.clamp(0, dhi);
        if dlo > 0 {
            self.run_row_body(store, point, dim, dlo, step, scratch, routes);
        }
        if dhi > dlo {
            self.set_checked_direct(scratch, true);
            self.run_row_body(store, point, dim, dhi - dlo, step, scratch, routes);
            self.set_checked_direct(scratch, false);
        }
        if count > dhi {
            self.run_row_body(store, point, dim, count - dhi, step, scratch, routes);
        }
    }

    /// Marks every checked-read cursor without a box proof (in)valid for
    /// direct flat reads — flipped around the in-bounds segment of a row.
    fn set_checked_direct(&self, scratch: &mut RowScratch, direct: bool) {
        for (stmt, sc) in self.stmts.iter().zip(&mut scratch.stmts) {
            for ((read, form), cursor) in stmt.reads.iter().zip(&sc.forms).zip(&mut sc.reads) {
                if form.is_none() && matches!(read, Addr::Checked { .. }) {
                    cursor.direct = direct;
                }
            }
        }
    }

    /// Executes `count` points of a row whose cursors are already set,
    /// leaving every cursor and `point[dim]` advanced past the segment.
    #[allow(clippy::too_many_arguments)]
    fn run_row_body(
        &self,
        store: &mut Store,
        point: &mut [i64],
        dim: usize,
        count: i64,
        step: i64,
        scratch: &mut RowScratch,
        routes: &mut impl RouteSource,
    ) {
        // Chunked (SIMD-style) path: rows where bitwise identity with the
        // scalar loops is provable run in [`SIMD_LANES`]-wide chunks; the
        // scalar loops below take the tail, continuing from the advanced
        // cursors.
        let mut count = count;
        if simd_enabled() && count >= SIMD_LANES as i64 {
            if let Some(wslot) = self.simd_eligible(scratch) {
                let chunks = count / SIMD_LANES as i64;
                self.run_row_simd(store, scratch, chunks, wslot);
                let done = chunks * SIMD_LANES as i64;
                point[dim] += step * done;
                count -= done;
                if count == 0 {
                    return;
                }
            }
        }
        // Fused fast path for the dominant single-statement shape
        // `W += R0 * R1` with every address resolved to a direct cursor:
        // no tape dispatch, no stack, no per-point write resolution.
        if self.stmts.len() == 1 {
            let stmt = &self.stmts[0];
            let sc = &mut scratch.stmts[0];
            if stmt.mul_acc
                && matches!(stmt.write, Addr::Linear { .. })
                && sc.reads.iter().all(|c| c.direct)
            {
                let Addr::Linear { slot: wslot, .. } = stmt.write else {
                    unreachable!("guarded by the matches! above")
                };
                if sc.write.1 == 0 {
                    // The write cell is fixed along the row (a reduction,
                    // e.g. `C[i][j] += A[i][k]·B[k][j]` rowed over `k`):
                    // accumulate in a register and store once. Identical
                    // rounding — the adds happen in the same order.
                    enum Rd<'a> {
                        Slice(&'a [f64]),
                        Route(usize),
                    }
                    let resolve = |addr: &Addr| match addr {
                        Addr::Linear { slot, .. } | Addr::Checked { slot, .. } => {
                            Rd::Slice(store.slot_array(*slot as usize).data())
                        }
                        Addr::Routed { route, .. } => Rd::Route(*route as usize),
                        Addr::Miss => unreachable!("non-direct cursors are excluded above"),
                    };
                    let r0 = resolve(&stmt.reads[0]);
                    let r1 = resolve(&stmt.reads[1]);
                    let (mut fa, da) = (sc.reads[0].flat, sc.reads[0].delta);
                    let (mut fb, db) = (sc.reads[1].flat, sc.reads[1].delta);
                    let wflat = sc.write.0 as usize;
                    let mut acc = store.slot_array(wslot as usize).data()[wflat];
                    for _ in 0..count {
                        let a = match &r0 {
                            Rd::Slice(d) => d[fa as usize],
                            Rd::Route(r) => routes.read_flat(*r, fa),
                        };
                        let b = match &r1 {
                            Rd::Slice(d) => d[fb as usize],
                            Rd::Route(r) => routes.read_flat(*r, fb),
                        };
                        acc += a * b;
                        fa = fa.wrapping_add(da);
                        fb = fb.wrapping_add(db);
                    }
                    store.slot_array_mut(wslot as usize).data_mut()[wflat] = acc;
                    // Persist the cursor advance — a split row's next
                    // segment continues from these.
                    sc.reads[0].flat = fa;
                    sc.reads[1].flat = fb;
                    point[dim] += step * count;
                    return;
                }
                for _ in 0..count {
                    let a = direct_val(&stmt.reads[0], &sc.reads[0], store, routes);
                    let b = direct_val(&stmt.reads[1], &sc.reads[1], store, routes);
                    let cell =
                        &mut store.slot_array_mut(wslot as usize).data_mut()[sc.write.0 as usize];
                    *cell += a * b;
                    for cursor in &mut sc.reads {
                        cursor.flat = cursor.flat.wrapping_add(cursor.delta);
                    }
                    sc.write.0 = sc.write.0.wrapping_add(sc.write.1);
                }
                point[dim] += step * count;
                return;
            }
        }
        let mut stack = [0.0f64; MAX_STACK];
        for _ in 0..count {
            for (stmt, sc) in self.stmts.iter().zip(&mut scratch.stmts) {
                let mut top = 0usize;
                for op in &stmt.tape {
                    match *op {
                        Op::Num(v) => {
                            stack[top] = v;
                            top += 1;
                        }
                        Op::Read(i) => {
                            let i = i as usize;
                            stack[top] = match &stmt.reads[i] {
                                Addr::Linear { slot, .. } => {
                                    store.slot_array(*slot as usize).data()[sc.reads[i].flat as usize]
                                }
                                Addr::Checked { slot, .. } if sc.reads[i].direct => {
                                    store.slot_array(*slot as usize).data()[sc.reads[i].flat as usize]
                                }
                                Addr::Routed { route, .. } if sc.reads[i].direct => {
                                    routes.read_flat(*route as usize, sc.reads[i].flat)
                                }
                                other => read_addr(other, store, point, routes),
                            };
                            top += 1;
                        }
                        Op::Add => {
                            top -= 1;
                            stack[top - 1] += stack[top];
                        }
                        Op::Sub => {
                            top -= 1;
                            stack[top - 1] -= stack[top];
                        }
                        Op::Mul => {
                            top -= 1;
                            stack[top - 1] *= stack[top];
                        }
                        Op::Div => {
                            top -= 1;
                            stack[top - 1] /= stack[top];
                        }
                        Op::Neg => stack[top - 1] = -stack[top - 1],
                        Op::Nan => {
                            top -= 1;
                            stack[top - 1] = f64::NAN;
                        }
                    }
                }
                let value = stack[0];
                match &stmt.write {
                    Addr::Linear { slot, .. } => {
                        let cell =
                            &mut store.slot_array_mut(*slot as usize).data_mut()[sc.write.0 as usize];
                        if stmt.accumulate {
                            *cell += value;
                        } else {
                            *cell = value;
                        }
                    }
                    other => {
                        if let Some((slot, flat)) = resolve_write(other, point) {
                            let data = store.slot_array_mut(slot as usize).data_mut();
                            match data.get_mut(flat) {
                                Some(cell) if stmt.accumulate => *cell += value,
                                Some(cell) => *cell = value,
                                None => {}
                            }
                        }
                    }
                }
                // Advance every cursor once per point. The add past the
                // final point may leave a flat one row outside the array;
                // it is never dereferenced, so wrap instead of trapping.
                for cursor in &mut sc.reads {
                    cursor.flat = cursor.flat.wrapping_add(cursor.delta);
                }
                sc.write.0 = sc.write.0.wrapping_add(sc.write.1);
            }
            point[dim] += step;
        }
    }

    /// Whether the row in flight may take the chunked lane loop with
    /// provable bitwise identity to the scalar loops: a single statement
    /// whose write walks a *distinct* linear cell per point (row delta
    /// ≠ 0), with every read a direct cursor into a store slot other
    /// than the written one. Distinct write cells mean lanes never race;
    /// slot disjointness means no point can observe another point's
    /// write; direct store-backed cursors mean each lane performs
    /// exactly the scalar op sequence on exactly the scalar operands.
    /// Fixed-cell reductions (write delta 0) are deliberately excluded —
    /// reassociating the accumulation would change rounding — as are
    /// routed reads, whose sources may be stateful.
    fn simd_eligible(&self, scratch: &RowScratch) -> Option<u32> {
        if self.stmts.len() != 1 {
            return None;
        }
        let stmt = &self.stmts[0];
        let sc = &scratch.stmts[0];
        let Addr::Linear { slot: wslot, .. } = stmt.write else {
            return None;
        };
        if sc.write.1 == 0 || !sc.reads.iter().all(|c| c.direct) {
            return None;
        }
        let disjoint = stmt.reads.iter().all(|r| match r {
            Addr::Linear { slot, .. } | Addr::Checked { slot, .. } => *slot != wslot,
            Addr::Routed { .. } | Addr::Miss => false,
        });
        disjoint.then_some(wslot)
    }

    /// Executes `chunks × SIMD_LANES` points of a row admitted by
    /// [`ExecPlan::simd_eligible`], evaluating the opcode tape on a
    /// stack of [`SIMD_LANES`]-wide value vectors. Each lane applies the
    /// scalar op sequence to the scalar operands of its point, and the
    /// written cells are pairwise distinct and unobserved by any read,
    /// so the result is bitwise identical to the scalar loop. Cursors
    /// are left advanced past the chunks; `point[dim]` is advanced by
    /// the caller (no checked or routed access remains that needs it).
    fn run_row_simd(&self, store: &mut Store, scratch: &mut RowScratch, chunks: i64, wslot: u32) {
        const L: usize = SIMD_LANES;
        let stmt = &self.stmts[0];
        let sc = &mut scratch.stmts[0];
        let mut stack = [[0.0f64; L]; MAX_STACK];
        for _ in 0..chunks {
            let mut top = 0usize;
            for op in &stmt.tape {
                match *op {
                    Op::Num(v) => {
                        stack[top] = [v; L];
                        top += 1;
                    }
                    Op::Read(i) => {
                        let i = i as usize;
                        let slot = match &stmt.reads[i] {
                            Addr::Linear { slot, .. } | Addr::Checked { slot, .. } => *slot,
                            _ => unreachable!("simd_eligible admits only slot-backed reads"),
                        };
                        let data = store.slot_array(slot as usize).data();
                        let (f, d) = (sc.reads[i].flat, sc.reads[i].delta);
                        for (lane, v) in stack[top].iter_mut().enumerate() {
                            *v = data[f.wrapping_add(d.wrapping_mul(lane as i64)) as usize];
                        }
                        top += 1;
                    }
                    Op::Add => {
                        top -= 1;
                        let rhs = stack[top];
                        for (v, r) in stack[top - 1].iter_mut().zip(rhs) {
                            *v += r;
                        }
                    }
                    Op::Sub => {
                        top -= 1;
                        let rhs = stack[top];
                        for (v, r) in stack[top - 1].iter_mut().zip(rhs) {
                            *v -= r;
                        }
                    }
                    Op::Mul => {
                        top -= 1;
                        let rhs = stack[top];
                        for (v, r) in stack[top - 1].iter_mut().zip(rhs) {
                            *v *= r;
                        }
                    }
                    Op::Div => {
                        top -= 1;
                        let rhs = stack[top];
                        for (v, r) in stack[top - 1].iter_mut().zip(rhs) {
                            *v /= r;
                        }
                    }
                    Op::Neg => {
                        for v in stack[top - 1].iter_mut() {
                            *v = -*v;
                        }
                    }
                    Op::Nan => {
                        top -= 1;
                        stack[top - 1] = [f64::NAN; L];
                    }
                }
            }
            let vals = stack[0];
            let (wf, wd) = (sc.write.0, sc.write.1);
            let data = store.slot_array_mut(wslot as usize).data_mut();
            for (lane, v) in vals.iter().enumerate() {
                let cell = &mut data[wf.wrapping_add(wd.wrapping_mul(lane as i64)) as usize];
                if stmt.accumulate {
                    *cell += *v;
                } else {
                    *cell = *v;
                }
            }
            for cursor in &mut sc.reads {
                cursor.flat = cursor.flat.wrapping_add(cursor.delta.wrapping_mul(L as i64));
            }
            sc.write.0 = sc.write.0.wrapping_add(sc.write.1.wrapping_mul(L as i64));
        }
    }

    /// Executes every statement at one iteration point, in textual
    /// order, with routed reads served by `routes` — the compiled
    /// equivalent of
    /// [`interp::exec_point_hooked`](crate::interp::exec_point_hooked).
    pub fn exec_point_routed(
        &self,
        store: &mut Store,
        point: &[i64],
        routes: &mut impl RouteSource,
    ) {
        for stmt in &self.stmts {
            let mut stack = [0.0f64; MAX_STACK];
            let mut top = 0usize;
            for op in &stmt.tape {
                match *op {
                    Op::Num(v) => {
                        stack[top] = v;
                        top += 1;
                    }
                    Op::Read(i) => {
                        stack[top] = read_addr(&stmt.reads[i as usize], store, point, routes);
                        top += 1;
                    }
                    Op::Add => {
                        top -= 1;
                        stack[top - 1] += stack[top];
                    }
                    Op::Sub => {
                        top -= 1;
                        stack[top - 1] -= stack[top];
                    }
                    Op::Mul => {
                        top -= 1;
                        stack[top - 1] *= stack[top];
                    }
                    Op::Div => {
                        top -= 1;
                        stack[top - 1] /= stack[top];
                    }
                    Op::Neg => stack[top - 1] = -stack[top - 1],
                    Op::Nan => {
                        top -= 1;
                        stack[top - 1] = f64::NAN;
                    }
                }
            }
            let value = stack[0];
            let (slot, flat) = match resolve_write(&stmt.write, point) {
                Some(loc) => loc,
                None => continue,
            };
            let data = store.slot_array_mut(slot as usize).data_mut();
            match data.get_mut(flat) {
                Some(cell) if stmt.accumulate => *cell += value,
                Some(cell) => *cell = value,
                None => {}
            }
        }
    }
}

/// Flattens an RHS tree to postfix (left operand first, matching the
/// tree-walker's evaluation order).
fn lower_expr(e: &crate::ir::RhsExpr, tape: &mut Vec<Op>) {
    use crate::ir::RhsExpr;
    match e {
        RhsExpr::Num(v) => tape.push(Op::Num(*v)),
        RhsExpr::Ref(i) => tape.push(Op::Read(*i as u32)),
        RhsExpr::Bin(op, a, b) => {
            lower_expr(a, tape);
            lower_expr(b, tape);
            tape.push(match op {
                '+' => Op::Add,
                '-' => Op::Sub,
                '*' => Op::Mul,
                '/' => Op::Div,
                _ => Op::Nan,
            });
        }
        RhsExpr::Neg(a) => {
            lower_expr(a, tape);
            tape.push(Op::Neg);
        }
    }
}

/// Maximum value-stack depth the tape reaches (`None` on malformed
/// tapes, which `lower_expr` never produces).
fn tape_stack_depth(tape: &[Op]) -> Option<usize> {
    let mut depth = 0usize;
    let mut max = 0usize;
    for op in tape {
        match op {
            Op::Num(_) | Op::Read(_) => depth += 1,
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Nan => depth = depth.checked_sub(1)?,
            Op::Neg => {}
        }
        max = max.max(depth);
    }
    Some(max)
}

fn lower_access(r: &ArrayRef, trips: &[i64], store: &Store, route: Option<usize>) -> Option<Addr> {
    if r.subscripts.len() > MAX_RANK || trips.len() > MAX_RANK {
        return None;
    }
    if let Some(route) = route {
        return Some(Addr::Routed {
            route: route as u32,
            subs: r.subscripts.iter().map(IndexFn::lower).collect(),
        });
    }
    let slot = match store.slot(&r.array) {
        Some(slot) => slot as u32,
        None => return Some(Addr::Miss),
    };
    let extents = store.slot_array(slot as usize).extents();
    if r.subscripts.is_empty() {
        // Scalar access convention: index `[0]` — a hit only on rank-1
        // arrays, a miss otherwise (matching `Array::get(&[0])`).
        return Some(if extents.len() == 1 {
            Addr::Linear {
                slot,
                at: LinearForm::default(),
            }
        } else {
            Addr::Miss
        });
    }
    if r.subscripts.len() != extents.len() {
        return Some(Addr::Miss);
    }
    // Row-major strides; overflow means the layout is beyond what the
    // plan's i64 address arithmetic can promise, so bail to reference.
    let mut strides = vec![1i64; extents.len()];
    for p in (0..extents.len().saturating_sub(1)).rev() {
        strides[p] = strides[p + 1].checked_mul(extents[p + 1])?;
    }
    let domain: Vec<(i64, i64)> = trips.iter().map(|&t| (0, t - 1)).collect();
    let mut subs = Vec::with_capacity(r.subscripts.len());
    let mut in_bounds = true;
    for (p, s) in r.subscripts.iter().enumerate() {
        let index = IndexFn::lower(s);
        match index.range(&domain) {
            Some((lo, hi)) if lo >= 0 && hi < extents[p] => {}
            _ => in_bounds = false,
        }
        subs.push(SubPlan {
            index,
            extent: extents[p],
            stride: strides[p],
        });
    }
    if !in_bounds {
        return Some(Addr::Checked { slot, subs });
    }
    // Every subscript is proven in bounds over the domain: fold the
    // per-subscript functions into one linear address function.
    let mut at = LinearForm::default();
    for sub in &subs {
        at.base = at.base.checked_add(sub.index.offset.checked_mul(sub.stride)?)?;
        for &(d, c) in &sub.index.terms {
            let coef = &mut at.coef[d as usize];
            *coef = coef.checked_add(c.checked_mul(sub.stride)?)?;
        }
    }
    Some(Addr::Linear { slot, at })
}

/// Reads through a direct row cursor (a read with a proven form).
#[inline]
fn direct_val(addr: &Addr, cur: &RowCursor, store: &Store, routes: &mut impl RouteSource) -> f64 {
    match addr {
        Addr::Linear { slot, .. } | Addr::Checked { slot, .. } => {
            store.slot_array(*slot as usize).data()[cur.flat as usize]
        }
        Addr::Routed { route, .. } => routes.read_flat(*route as usize, cur.flat),
        Addr::Miss => 0.0,
    }
}

/// The contiguous point interval `[lo, hi)` of a `count`-long row on
/// which the subscript value `s + p·d` stays inside `[0, extent)`.
#[inline]
fn inbounds_interval(s: i64, d: i64, extent: i64, count: i64) -> (i64, i64) {
    if d == 0 {
        return if s >= 0 && s < extent { (0, count) } else { (0, 0) };
    }
    // Normalize to a positive slope (negate the value and its bounds),
    // then `p ≥ ⌈(min_v - s)/d⌉` and `p ≤ ⌊(max_v - s)/d⌋`.
    let (s, d, min_v, max_v) = if d > 0 {
        (s, d, 0, extent - 1)
    } else {
        (-s, -d, 1 - extent, 0)
    };
    let lo = -(s - min_v).div_euclid(d);
    let hi = (max_v - s).div_euclid(d) + 1;
    (lo.max(0), hi.min(count))
}

#[inline]
fn read_addr(
    addr: &Addr,
    store: &Store,
    point: &[i64],
    routes: &mut impl RouteSource,
) -> f64 {
    match addr {
        Addr::Linear { slot, at } => store.slot_array(*slot as usize).data()[at.eval(point) as usize],
        Addr::Checked { slot, subs } => match checked_flat(subs, point) {
            Some(flat) => store.slot_array(*slot as usize).data()[flat],
            None => 0.0,
        },
        Addr::Routed { route, subs } => {
            let mut idx = [0i64; MAX_RANK];
            for (slot, s) in idx.iter_mut().zip(subs) {
                *slot = s.eval(point);
            }
            routes.read(*route as usize, &idx[..subs.len()])
        }
        Addr::Miss => 0.0,
    }
}

#[inline]
fn checked_flat(subs: &[SubPlan], point: &[i64]) -> Option<usize> {
    let mut flat = 0i64;
    for sub in subs {
        let v = sub.index.eval(point);
        if v < 0 || v >= sub.extent {
            return None;
        }
        flat += v * sub.stride;
    }
    Some(flat as usize)
}

#[inline]
fn resolve_write(addr: &Addr, point: &[i64]) -> Option<(u32, usize)> {
    match addr {
        Addr::Linear { slot, at } => Some((*slot, at.eval(point) as usize)),
        Addr::Checked { slot, subs } => Some((*slot, checked_flat(subs, point)?)),
        Addr::Routed { .. } | Addr::Miss => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{compare_stores, reference, Array};
    use crate::parser::parse_program;
    use crate::ProblemSizes;
    use proptest::prelude::*;

    fn run_both(src: &str, sizes: &[(&str, i64)], seed_arrays: &[(&str, Vec<i64>)]) {
        let p = parse_program(src).unwrap();
        let sizes = ProblemSizes::new(sizes.iter().map(|&(n, v)| (n, v)));
        let init = |store: &mut Store| {
            store.allocate_for(&p, &sizes).unwrap();
            for (name, extents) in seed_arrays {
                store.insert(
                    *name,
                    Array::from_fn(extents.clone(), |i| {
                        let mut h = 7i64;
                        for &v in i {
                            h = h.wrapping_mul(31).wrapping_add(v);
                        }
                        ((h % 7) - 3) as f64
                    }),
                );
            }
        };
        let mut fast = Store::new();
        init(&mut fast);
        crate::interp::run_program(&p, &sizes, &mut fast).unwrap();
        let mut slow = Store::new();
        init(&mut slow);
        reference::run_program(&p, &sizes, &mut slow).unwrap();
        let mismatches = compare_stores(&fast, &slow);
        assert!(mismatches.is_empty(), "plan != reference: {mismatches:?}");
    }

    #[test]
    fn plan_matches_reference_on_in_bounds_accesses() {
        run_both(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }",
            &[("M", 5), ("N", 6), ("P", 7)],
            &[("A", vec![5, 7]), ("B", vec![7, 6])],
        );
    }

    #[test]
    fn plan_matches_reference_on_halo_accesses() {
        // A is allocated with halo extents by `allocate_for`, so the
        // i-1/i+1 accesses are proven in bounds; B is seeded tight, so
        // the write is bounds-checked. Both modes must match reference.
        run_both(
            "kernel s(N) {
               for (i: N) B[i] = 0.5 * (A[i-1] + A[i+1]) - A[i] / 3.0;
             }",
            &[("N", 9)],
            &[("B", vec![9])],
        );
    }

    #[test]
    fn plan_matches_reference_on_scalars_and_missing_arrays() {
        run_both(
            "kernel ax(N) { for (i: N) y[i] = alpha * x[i] + ghost[i]; }",
            &[("N", 6)],
            &[("alpha", vec![1]), ("x", vec![6])],
        );
    }

    #[test]
    fn checked_access_reads_zero_and_drops_writes() {
        // Force out-of-bounds on both sides: the store arrays are
        // smaller than the domain.
        let p = parse_program("kernel w(N) { for (i: N) B[i] = A[i] + 1.0; }").unwrap();
        let sizes = ProblemSizes::new([("N", 8)]);
        let init = |store: &mut Store| {
            store.insert("A", Array::from_fn(vec![3], |i| i[0] as f64));
            store.insert("B", Array::zeros(vec![4]));
        };
        let mut fast = Store::new();
        init(&mut fast);
        crate::interp::run_program(&p, &sizes, &mut fast).unwrap();
        let mut slow = Store::new();
        init(&mut slow);
        reference::run_program(&p, &sizes, &mut slow).unwrap();
        assert!(compare_stores(&fast, &slow).is_empty());
        let b = fast.get("B").unwrap();
        assert_eq!(b.get(&[2]), 3.0);
        assert_eq!(b.get(&[3]), 1.0, "A[3] is OOB and reads zero");
    }

    #[test]
    fn routed_reads_reach_the_route_source() {
        struct Fixed(f64, Vec<(usize, Vec<i64>)>);
        impl RouteSource for Fixed {
            fn read(&mut self, route: usize, index: &[i64]) -> f64 {
                self.1.push((route, index.to_vec()));
                self.0
            }
        }
        let p = parse_program("kernel r(N) { for (i: N) B[i] = A[i+1] * 2.0; }").unwrap();
        let kernel = &p.kernels[0];
        let mut store = Store::new();
        store.insert("A", Array::zeros(vec![8]));
        store.insert("B", Array::zeros(vec![8]));
        let plan = ExecPlan::compile_routed(kernel, &[4], &store, |r| {
            (r.array == "A").then_some(3)
        })
        .unwrap();
        let mut routes = Fixed(5.0, Vec::new());
        plan.exec_point_routed(&mut store, &[2], &mut routes);
        assert_eq!(routes.1, vec![(3, vec![3])], "route id + evaluated index");
        assert_eq!(store.get("B").unwrap().get(&[2]), 10.0);
    }

    /// Serializes `set_simd_enabled` flips — the flag is global, and the
    /// comparisons below are only meaningful while it holds still.
    static SIMD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs the plan-backed interpreter with the chunked row loop forced
    /// on or off, returning the resulting store. Arrays are seeded with
    /// the same irregular values as [`run_both`]; the division in the
    /// sources below makes them inexact, so any reordering would show.
    fn run_fast(src: &str, n: i64, arrays: &[&str], simd: bool) -> Store {
        let p = parse_program(src).unwrap();
        let sizes = ProblemSizes::new([("N", n)]);
        let mut store = Store::new();
        store.allocate_for(&p, &sizes).unwrap();
        for name in arrays {
            store.insert(
                *name,
                Array::from_fn(vec![n], |i| {
                    ((i[0].wrapping_mul(31) % 7) - 3) as f64 / 3.0
                }),
            );
        }
        set_simd_enabled(simd);
        let result = crate::interp::run_program(&p, &sizes, &mut store);
        set_simd_enabled(true);
        result.unwrap();
        store
    }

    /// The chunked row loop is bitwise identical to the scalar loop on
    /// direct-assign and moving-cell accumulation rows, across every row
    /// length from a pure tail (shorter than a lane) through exact
    /// chunks to chunk-plus-tail.
    #[test]
    fn simd_rows_match_scalar_rows_including_short_tails() {
        let _guard = SIMD_LOCK.lock().unwrap();
        let src = "kernel s(N) { for (i: N) B[i] = 0.5 * A[i] - C[i] / 3.0; }
                   kernel m(N) { for (i: N) W[i] += A[i] * C[i]; }";
        for n in 1..=11 {
            let vector = run_fast(src, n, &["A", "C"], true);
            let scalar = run_fast(src, n, &["A", "C"], false);
            let mismatches = compare_stores(&vector, &scalar);
            assert!(mismatches.is_empty(), "N={n}: simd != scalar: {mismatches:?}");
        }
    }

    /// `A[i+1]` reads the cell written one point earlier: a chunked loop
    /// would read stale lanes, so eligibility must decline rows whose
    /// read slot is the written slot. The reference comparison (with the
    /// chunked loop at its default, enabled) pins the sequential
    /// propagation.
    #[test]
    fn aliased_rows_stay_scalar_and_propagate_sequentially() {
        run_both(
            "kernel chain(N) { for (i: N) A[i+1] = A[i] / 3.0 + 1.0; }",
            &[("N", 9)],
            &[("A", vec![10])],
        );
    }

    #[test]
    fn rank_overflow_bails_to_reference() {
        let mut src = String::from("kernel deep(N) { ");
        for d in 0..9 {
            src.push_str(&format!("for (i{d}: N) "));
        }
        src.push_str("A[i0][i1][i2][i3][i4][i5][i6][i7][i8] = 1.0; }");
        let p = parse_program(&src).unwrap();
        let store = Store::new();
        assert!(ExecPlan::compile(&p.kernels[0], &[2; 9], &store).is_none());
    }

    /// A staged-buffer stand-in: per route, a box of subscript vectors
    /// over seeded values, recording the first out-of-box read as the
    /// emulator's router does.
    #[derive(Clone)]
    struct BoxRoutes {
        boxes: Vec<Vec<(i64, i64)>>,
        failure: Option<(usize, Vec<i64>)>,
    }

    impl BoxRoutes {
        fn flat(&self, route: usize, index: &[i64]) -> Option<i64> {
            let mut flat = 0;
            for (&i, &(lo, hi)) in index.iter().zip(&self.boxes[route]) {
                if i < lo || i > hi {
                    return None;
                }
                flat = flat * (hi - lo + 1) + (i - lo);
            }
            Some(flat)
        }

        /// The buffer value at a flat offset: a hash of route and offset.
        fn value(route: usize, flat: i64) -> f64 {
            ((flat * 7 + route as i64 * 5) % 11 - 5) as f64 / 3.0
        }
    }

    impl RouteSource for BoxRoutes {
        fn read(&mut self, route: usize, index: &[i64]) -> f64 {
            match self.flat(route, index) {
                Some(flat) => BoxRoutes::value(route, flat),
                None => {
                    self.failure.get_or_insert_with(|| (route, index.to_vec()));
                    0.0
                }
            }
        }

        fn linearize(&mut self, route: usize, sub_box: &[(i64, i64)], mult: &mut [i64]) -> Option<i64> {
            let bounds = &self.boxes[route];
            let mut base = 0;
            let mut stride = 1;
            for p in (0..sub_box.len()).rev() {
                let ((slo, shi), (lo, hi)) = (sub_box[p], bounds[p]);
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
            BoxRoutes::value(route, flat)
        }
    }

    /// Kernels over `0 ≤ i, j, k < 6` for the nest property: `B` routes
    /// to route 0 and `E` to route 1; `A` is sized tight, so its halo
    /// reads are checked at the array edges, as is the write `D[j][i+1]`.
    const NEST_KERNELS: [&str; 3] = [
        // One fused reduction row: checked read × routed read.
        "kernel m(N) { for (i: N) for (j: N) for (k: N) C[i][j] += A[i][k-1] * B[k][j+1]; }",
        // Two statements, a checked write, a 1-D routed read.
        "kernel s(N) { for (i: N) for (j: N) for (k: N) {
            C[i][j] += A[i][k-1] * B[k][j+1];
            D[j][i+1] = 0.5 * A[i+1][j] - E[k] / 3.0 + B[k+1][j];
        } }",
        // Chunked-lane rows: store-backed reads only.
        "kernel v(N) { for (i: N) for (j: N) for (k: N) D[i][k] = A[i][k+1] * 2.0 - C[k][j] / 3.0; }",
    ];

    /// Every point of a loop nest, in lexicographic order.
    fn nest_points(point: &mut Vec<i64>, loops: &[(usize, i64, i64)], out: &mut Vec<Vec<i64>>) {
        match loops.split_first() {
            None => out.push(point.clone()),
            Some((&(d, count, step), inner)) => {
                let start = point[d];
                for i in 0..count {
                    point[d] = start + i * step;
                    nest_points(point, inner, out);
                }
                point[d] = start;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `exec_nest` over random nests — any loop order, steps above
        /// one, singleton and empty levels, boxes with slack, routed
        /// boxes that only partly cover the reads — equals
        /// `exec_point_routed` at every point in order: bitwise stores
        /// and the same first out-of-box read.
        #[test]
        fn exec_nest_matches_per_point_execution(
            kernel in 0usize..3,
            order in 0usize..6,
            levels in proptest::collection::vec((0i64..6, 1i64..4, 0i64..5, 0i64..4), 3),
            slack in proptest::collection::vec((0i64..2, 0i64..2), 3),
            routes in proptest::collection::vec((-1i64..3, 2i64..8), 3),
            linearize in 0u8..3,
        ) {
            let p = parse_program(NEST_KERNELS[kernel]).unwrap();
            let mut store = Store::new();
            for (name, salt) in [("A", 1i64), ("C", 2), ("D", 3)] {
                store.insert(name, Array::from_fn(vec![6, 6], |i| ((i[0] * 31 + i[1] * 7 + salt) % 13 - 6) as f64 / 3.0));
            }
            let plan = ExecPlan::compile_routed(&p.kernels[0], &[6, 6, 6], &store, |r| match r.array.as_str() {
                "B" => Some(0),
                "E" => Some(1),
                _ => None,
            })
            .unwrap();
            let source = BoxRoutes {
                boxes: vec![
                    vec![(routes[0].0, routes[0].0 + routes[0].1), (routes[1].0, routes[1].0 + routes[1].1)],
                    vec![(routes[2].0, routes[2].0 + routes[2].1)],
                ],
                failure: None,
            };
            // A level with `keep == 0` is left out of the nest (its dim
            // stays at the start); the others run as many of `count`
            // points as fit the domain, 1 being a singleton level.
            let dims = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]][order];
            let mut start = vec![0i64; 3];
            let mut loops = Vec::new();
            let mut bx = vec![(0i64, 0i64); 3];
            for &d in &dims {
                let (s, step, count, keep) = levels[d];
                start[d] = s;
                let count = if keep == 0 { 1 } else { count.min((5 - s) / step + 1) };
                if keep != 0 {
                    loops.push((d, count, step));
                }
                let last = s + (count - 1).max(0) * step;
                bx[d] = ((s - slack[d].0).max(0), (last + slack[d].1).min(5));
            }

            let mut nest_store = store.clone();
            let mut nest_routes = source.clone();
            let mut scratch = plan.scratch();
            if linearize > 0 {
                plan.linearize(&bx, &mut scratch, &mut nest_routes);
            }
            let mut point = start.clone();
            plan.exec_nest(&mut nest_store, &mut point, &loops, &mut scratch, &mut nest_routes);
            prop_assert_eq!(&point, &start);

            let mut points = Vec::new();
            nest_points(&mut start.clone(), &loops, &mut points);
            let mut point_store = store.clone();
            let mut point_routes = source.clone();
            for pt in &points {
                plan.exec_point_routed(&mut point_store, pt, &mut point_routes);
            }
            let mismatches = compare_stores(&nest_store, &point_store);
            prop_assert!(mismatches.is_empty(), "nest != per-point: {:?}", mismatches);
            prop_assert_eq!(nest_routes.failure, point_routes.failure);
        }
    }
}
