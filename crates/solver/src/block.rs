//! The lockstep BiCGStab core: the one BiCGStab recurrence in the
//! workspace, for every panel width, every place inner products are summed,
//! and every option.
//!
//! `B` independent systems share one operator and iterate in lockstep, so
//! every operator application is one fused block apply. The paper's first
//! parallel dimension is independent illuminations: all `B` transmitter
//! systems share `A = I - G0 diag(O)`, so each Krylov step needs the *same*
//! operator applied to `B` different vectors — exactly what
//! [`BlockLinOp::apply_block`] fuses into one tree traversal.
//!
//! Where the operator is applied and where inner products are summed is a
//! [`KrylovContext`]. Every serial [`BlockLinOp`] is one, with an identity
//! `reduce` and an [`Infallible`] error; `ffw-dist` implements it once over
//! its sub-tree-partitioned operators, with `reduce` an allreduce among the
//! group's ranks (paper Section IV) and a typed fault as the error. Each
//! phase of an iteration packs the scalars of every active column into one
//! `reduce` call, and norms are `sqrt(reduce(‖v‖²))`, which is bitwise
//! `norm2(v)` under the identity reduce — so serial trajectories and
//! distributed message counts are both exactly those of a hand-written
//! solver of either kind.
//!
//! Numerics contract: each column runs its own recurrence — per-column
//! scalars, per-column inner products, one branch structure — so a column's
//! trajectory (iterates, residuals, iteration count) is bit-identical to
//! solving it alone, provided the context's block apply is column-wise
//! identical to a single apply (true for the default loop implementation,
//! for the MLFMA engine's fused panel path, and for the distributed
//! engine). Convergence masking: a column that converges (or breaks down)
//! *freezes* — its iterate is never touched again and it is excluded from
//! subsequent block applies — while the remaining columns keep iterating
//! until all are done.
//!
//! The options ([`LockstepOptions`]) are the choices the entry points
//! differ in: a [`DriftGuard`] auditing the recursive residual, a restart
//! budget for rho/non-finite breakdowns (a broken column is retried by
//! running the same recurrence on that column alone, from its last finite
//! iterate), and a right preconditioner `M` applied as `p̂ = M p`,
//! `ŝ = M s`.

use crate::krylov::{finite_c, BreakdownKind, IterConfig, SolveError, SolveStats};
use crate::op::BlockLinOp;
use crate::precond::Precond;
use crate::verify::DriftGuard;
use ffw_numerics::vecops::{axpy, norm2_sqr, zdotc};
use ffw_numerics::{c64, C64};
use std::convert::Infallible;

/// Where the lockstep core applies its operator and sums its inner products.
pub trait KrylovContext {
    /// What a failed apply or reduction reports.
    type Error;
    /// `ys[c] = A xs[c]` for a panel of columns, as one fused apply.
    fn try_apply_block(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) -> Result<(), Self::Error>;
    /// Sums `vals` elementwise, in place, over every holder of a slice of
    /// the solution vectors (the identity when one holder owns them whole).
    fn reduce(&self, vals: &mut [C64]) -> Result<(), Self::Error>;
}

impl<A: BlockLinOp + ?Sized> KrylovContext for A {
    type Error = Infallible;
    fn try_apply_block(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) -> Result<(), Infallible> {
        self.apply_block(xs, ys);
        Ok(())
    }
    fn reduce(&self, _vals: &mut [C64]) -> Result<(), Infallible> {
        Ok(())
    }
}

/// The choices a lockstep solve takes. The default is the plain solve.
#[derive(Clone, Copy, Default)]
pub struct LockstepOptions<'a> {
    /// Audits every column's recursive residual against the true `b - A x`
    /// (see [`bicgstab_block_guarded`]).
    pub guard: Option<&'a DriftGuard>,
    /// Restarts allowed per column after a rho or non-finite breakdown. A
    /// restart re-derives the residual and shadow residual from the last
    /// finite iterate; the iteration budget is shared across restarts.
    pub restarts: u32,
    /// Right preconditioner `M`, applied to every column: the iterate
    /// advances along `M p` and `M s`, while residuals stay true residuals
    /// of `A x = b` (Templates, ch. 2.3.8).
    pub precond: Option<&'a dyn Precond>,
}

/// One column's outcome of [`solve_lockstep`].
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnSolve {
    /// The column's stats; `converged: false` after a breakdown, an
    /// exhausted iteration budget or a drift escalation.
    pub stats: SolveStats,
    /// Why the column stopped early: a breakdown that survived the restart
    /// budget, or [`BreakdownKind::Drift`] when the drift guard escalated.
    pub breakdown: Option<BreakdownKind>,
    /// Restarts attempted; for a drift escalation, rollbacks attempted.
    pub restarts: u32,
}

impl ColumnSolve {
    /// The column as a typed result: a breakdown becomes
    /// [`SolveError::Breakdown`].
    pub fn into_result(self) -> Result<SolveStats, SolveError> {
        match self.breakdown {
            None => Ok(self.stats),
            Some(kind) => Err(SolveError::Breakdown {
                kind,
                iterations: self.stats.iterations,
                matvecs: self.stats.matvecs,
                rel_residual: self.stats.rel_residual,
                restarts: self.restarts,
            }),
        }
    }
}

/// Solves `A xs[c] = bs[c]` for all `B` columns with lockstep BiCGStab and
/// per-column convergence masking, in the given context. Each `xs[c]`
/// carries its initial guess (zero, or a warm start) and is overwritten
/// with that column's solution.
///
/// A breakdown (rho underflow, NaN/Inf iterate) freezes *only* that
/// column, with its iterate left at the last finite value, and — budget
/// permitting — retries it alone afterwards; sibling columns are
/// unaffected. A context error (a dead peer) aborts the whole solve.
pub fn solve_lockstep<C: KrylovContext + ?Sized>(
    ctx: &C,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
    opts: &LockstepOptions,
) -> Result<Vec<ColumnSolve>, C::Error> {
    let nb = bs.len();
    assert_eq!(xs.len(), nb, "solution block width mismatch");
    if nb == 0 {
        return Ok(Vec::new());
    }
    let n = bs[0].len();
    for (b, x) in bs.iter().zip(xs.iter()) {
        assert_eq!(b.len(), n, "ragged right-hand sides");
        assert_eq!(x.len(), n, "ragged initial guesses");
    }
    let _span = ffw_obs::span("solver.bicgstab");
    if ffw_obs::enabled() {
        ffw_obs::histogram("solver.bicgstab.panel_width").record(nb as u64);
    }

    // One reduction for every column's ‖b‖. Zero right-hand sides are
    // solved exactly by x = 0.
    let mut b_sqr: Vec<C64> = bs.iter().map(|b| c64(norm2_sqr(b), 0.0)).collect();
    ctx.reduce(&mut b_sqr)?;
    let mut st: Vec<Col> = b_sqr.iter().map(|v| Col::new(v.re.sqrt())).collect();
    let mut live = Vec::with_capacity(nb);
    for (c, col) in st.iter_mut().enumerate() {
        if col.b_norm == 0.0 {
            xs[c].iter_mut().for_each(|v| *v = C64::ZERO);
            col.end = End::Converged;
        } else {
            live.push(c);
        }
    }
    cycle(ctx, bs, xs, &live, cfg, opts, &mut st)?;

    // Broken columns restart one at a time from their last finite iterate.
    // Every holder derives `end` from the same reduced scalars, so these
    // cycles stay collective.
    for c in live {
        while let End::Broken(kind) = st[c].end {
            let x_finite = xs[c].iter().all(|v| finite_c(*v));
            if kind == BreakdownKind::Drift
                || st[c].restarts >= opts.restarts
                || st[c].iters >= cfg.max_iters
                || !x_finite
            {
                break;
            }
            st[c].restarts += 1;
            ffw_obs::event(
                "solver.restart",
                &format!(
                    "bicgstab column {c}: restart {} after {kind} at iter {}",
                    st[c].restarts, st[c].iters
                ),
            );
            cycle(ctx, bs, xs, &[c], cfg, opts, &mut st)?;
        }
    }

    let out: Vec<ColumnSolve> = st.into_iter().map(Col::finish).collect();
    if ffw_obs::enabled() {
        for col in &out {
            ffw_obs::counter("solver.bicgstab.solves").inc();
            ffw_obs::counter("solver.bicgstab.iters").add(col.stats.iterations as u64);
            ffw_obs::counter("solver.bicgstab.matvecs").add(col.stats.matvecs as u64);
            ffw_obs::histogram("solver.bicgstab.iters_per_solve")
                .record(col.stats.iterations as u64);
        }
    }
    Ok(out)
}

/// How a column's solve stands.
#[derive(Clone, Copy, PartialEq)]
enum End {
    Running,
    Converged,
    OutOfBudget,
    Broken(BreakdownKind),
}

/// Per-column bookkeeping that survives restarts.
struct Col {
    b_norm: f64,
    iters: usize,
    matvecs: usize,
    verify_mv: usize,
    rolled: usize,
    rollbacks: u32,
    restarts: u32,
    /// Last finite relative residual (NaN if the first one was not finite).
    res: f64,
    end: End,
}

impl Col {
    fn new(b_norm: f64) -> Self {
        Col {
            b_norm,
            iters: 0,
            matvecs: 0,
            verify_mv: 0,
            rolled: 0,
            rollbacks: 0,
            restarts: 0,
            res: 0.0,
            end: End::Running,
        }
    }

    fn break_down(&mut self, c: usize, kind: BreakdownKind) {
        ffw_obs::event(
            "solver.breakdown",
            &format!("bicgstab column {c}: {kind} at iter {}", self.iters),
        );
        self.end = End::Broken(kind);
    }

    fn finish(self) -> ColumnSolve {
        let breakdown = match self.end {
            End::Broken(kind) => Some(kind),
            _ => None,
        };
        ColumnSolve {
            stats: SolveStats {
                iterations: self.iters,
                matvecs: self.matvecs,
                verify_matvecs: self.verify_mv,
                rolled_back: self.rolled,
                rel_residual: self.res,
                converged: self.end == End::Converged,
            },
            restarts: if breakdown == Some(BreakdownKind::Drift) {
                self.rollbacks
            } else {
                self.restarts
            },
            breakdown,
        }
    }
}

/// The recurrence scalars of one column.
#[derive(Clone, Copy)]
struct Scalars {
    rho: C64,
    alpha: C64,
    omega: C64,
}

/// A column's recurrence at a verified top-of-loop state (the next action
/// is the rho inner product), so a rolled-back column resumes the lockstep
/// loop directly.
struct Snap {
    x: Vec<C64>,
    r: Vec<C64>,
    p: Vec<C64>,
    v: Vec<C64>,
    sc: Scalars,
    res: f64,
    iters: usize,
    matvecs: usize,
}

/// One cycle's recurrence vectors, indexed by column (empty for columns
/// outside the cycle; `ph`/`sh` hold `M p`/`M s` and stay empty without a
/// preconditioner).
struct Rec {
    r: Vec<Vec<C64>>,
    r_hat: Vec<Vec<C64>>,
    p: Vec<Vec<C64>>,
    v: Vec<Vec<C64>>,
    s: Vec<Vec<C64>>,
    t: Vec<Vec<C64>>,
    ph: Vec<Vec<C64>>,
    sh: Vec<Vec<C64>>,
    x_prev: Vec<Vec<C64>>,
    sc: Vec<Scalars>,
    rho_new: Vec<C64>,
    snaps: Vec<Option<Snap>>,
}

impl Rec {
    fn new(nb: usize, n: usize, cols: &[usize], precond: bool) -> Self {
        let zeros = |used: bool| {
            let mut vs = vec![Vec::new(); nb];
            if used {
                for &c in cols {
                    vs[c] = vec![C64::ZERO; n];
                }
            }
            vs
        };
        let one = Scalars {
            rho: C64::ONE,
            alpha: C64::ONE,
            omega: C64::ONE,
        };
        Rec {
            r: zeros(true),
            r_hat: vec![Vec::new(); nb],
            p: zeros(true),
            v: zeros(true),
            s: zeros(true),
            t: zeros(true),
            ph: zeros(precond),
            sh: zeros(precond),
            x_prev: zeros(true),
            sc: vec![one; nb],
            rho_new: vec![C64::ZERO; nb],
            snaps: (0..nb).map(|_| None).collect(),
        }
    }

    fn snapshot(&mut self, c: usize, x: &[C64], col: &Col) {
        self.snaps[c] = Some(Snap {
            x: x.to_vec(),
            r: self.r[c].clone(),
            p: self.p[c].clone(),
            v: self.v[c].clone(),
            sc: self.sc[c],
            res: col.res,
            iters: col.iters,
            matvecs: col.matvecs,
        });
    }

    /// Restores column `c` to its last verified snapshot after a failed
    /// audit. Applies spent on the discarded segment move from `matvecs` to
    /// `verify_matvecs`; the discarded steps are counted in `rolled_back`.
    /// Returns `true` if the column may replay (rollback budget left),
    /// `false` if the guard escalated — the column then stays frozen at the
    /// restored, last verified iterate.
    fn roll_back(&mut self, g: &DriftGuard, c: usize, x: &mut [C64], col: &mut Col) -> bool {
        let snap = self.snaps[c]
            .as_ref()
            .expect("guarded columns have a snapshot");
        g.record_detected();
        let steps = col.iters - snap.iters;
        col.verify_mv += col.matvecs - snap.matvecs;
        col.rolled += steps;
        x.copy_from_slice(&snap.x);
        self.r[c].copy_from_slice(&snap.r);
        self.p[c].copy_from_slice(&snap.p);
        self.v[c].copy_from_slice(&snap.v);
        self.sc[c] = snap.sc;
        col.res = snap.res;
        col.iters = snap.iters;
        col.matvecs = snap.matvecs;
        if col.rollbacks < g.max_rollbacks {
            col.rollbacks += 1;
            g.record_rollback(steps as u64);
            true
        } else {
            g.record_escalated();
            ffw_obs::event(
                "solver.breakdown",
                &format!(
                    "bicgstab column {c}: residual drift persisted through {} rollback(s); \
                     surfacing unconverged",
                    col.rollbacks
                ),
            );
            col.end = End::Broken(BreakdownKind::Drift);
            false
        }
    }
}

/// `[‖vs[c]‖²]` over `cols`, packed for one reduction.
fn norms_sqr(cols: &[usize], vs: &[Vec<C64>]) -> Vec<C64> {
    cols.iter().map(|&c| c64(norm2_sqr(&vs[c]), 0.0)).collect()
}

/// One BiCGStab cycle over `cols`: fresh residuals from the current
/// iterates, then lockstep iterations until every column converged, ran
/// out of budget or broke down.
fn cycle<C: KrylovContext + ?Sized>(
    ctx: &C,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cols: &[usize],
    cfg: IterConfig,
    opts: &LockstepOptions,
    st: &mut [Col],
) -> Result<(), C::Error> {
    if cols.is_empty() {
        return Ok(());
    }
    let n = bs[0].len();
    let pre = opts.precond;
    let mut rec = Rec::new(bs.len(), n, cols, pre.is_some());

    // r = b - A x, one fused apply.
    apply_cols(ctx, cols, xs, &mut rec.r)?;
    for &c in cols {
        st[c].matvecs += 1;
        st[c].end = End::Running;
        for (ri, bi) in rec.r[c].iter_mut().zip(bs[c]) {
            *ri = *bi - *ri;
        }
        rec.r_hat[c] = rec.r[c].clone();
    }
    let mut sq = norms_sqr(cols, &rec.r);
    ctx.reduce(&mut sq)?;
    let mut active = Vec::with_capacity(cols.len());
    for (k, &c) in cols.iter().enumerate() {
        let res = sq[k].re.sqrt() / st[c].b_norm;
        if !res.is_finite() {
            st[c].res = f64::NAN;
            st[c].break_down(c, BreakdownKind::NonFinite);
            continue;
        }
        st[c].res = res;
        ffw_obs::series_push("solver.bicgstab.residual", res);
        if res < cfg.tol {
            st[c].end = End::Converged;
            continue;
        }
        if opts.guard.is_some() {
            // The fresh residual *is* the true residual, so the cycle start
            // is verified by construction and is the rollback target until
            // the first periodic audit passes.
            rec.snapshot(c, &xs[c], &st[c]);
        }
        active.push(c);
    }

    while !active.is_empty() {
        // Columns rolled back mid-pass re-enter the lockstep loop here.
        let mut resumed: Vec<usize> = Vec::new();
        'pass: {
            active.retain(|&c| {
                let spent = st[c].iters >= cfg.max_iters;
                if spent {
                    st[c].end = End::OutOfBudget;
                }
                !spent
            });
            if active.is_empty() {
                break 'pass;
            }

            // Phase 1: rho = <r_hat, r>; p = r + beta (p - omega v).
            let mut dots: Vec<C64> = active
                .iter()
                .map(|&c| zdotc(&rec.r_hat[c], &rec.r[c]))
                .collect();
            ctx.reduce(&mut dots)?;
            let mut next = Vec::with_capacity(active.len());
            for (k, &c) in active.iter().enumerate() {
                let rho_new = dots[k];
                if !finite_c(rho_new) {
                    st[c].break_down(c, BreakdownKind::NonFinite);
                    continue;
                }
                if rho_new.abs() < 1e-300 {
                    st[c].break_down(c, BreakdownKind::RhoZero);
                    continue;
                }
                st[c].iters += 1;
                let Scalars { rho, alpha, omega } = rec.sc[c];
                let beta = (rho_new / rho) * (alpha / omega);
                let (p, r, v) = (&mut rec.p[c], &rec.r[c], &rec.v[c]);
                for i in 0..n {
                    p[i] = r[i] + beta * (p[i] - omega * v[i]);
                }
                rec.rho_new[c] = rho_new;
                next.push(c);
            }
            active = next;
            if active.is_empty() {
                break 'pass;
            }

            // Phase 2: v = A M p; alpha; s = r - alpha v; the early s exit.
            if let Some(m) = pre {
                for &c in &active {
                    m.apply(&rec.p[c], &mut rec.ph[c]);
                }
            }
            let dir = if pre.is_some() { &rec.ph } else { &rec.p };
            apply_cols(ctx, &active, dir, &mut rec.v)?;
            let mut dots: Vec<C64> = active
                .iter()
                .map(|&c| zdotc(&rec.r_hat[c], &rec.v[c]))
                .collect();
            ctx.reduce(&mut dots)?;
            for (k, &c) in active.iter().enumerate() {
                st[c].matvecs += 1;
                let alpha = rec.rho_new[c] / dots[k];
                rec.sc[c].alpha = alpha;
                let (s, r, v) = (&mut rec.s[c], &rec.r[c], &rec.v[c]);
                for i in 0..n {
                    s[i] = r[i] - alpha * v[i];
                }
            }
            let mut sq = norms_sqr(&active, &rec.s);
            ctx.reduce(&mut sq)?;
            let mut next = Vec::with_capacity(active.len());
            for (k, &c) in active.iter().enumerate() {
                let s_norm = sq[k].re.sqrt() / st[c].b_norm;
                if s_norm < cfg.tol {
                    let dir = if pre.is_some() { &rec.ph[c] } else { &rec.p[c] };
                    axpy(rec.sc[c].alpha, dir, &mut xs[c]);
                    if let Some(g) = opts.guard {
                        // Audit the would-be convergence: the recursive
                        // residual here is `s`, the candidate x + alpha p̂.
                        if !audit(ctx, g, bs[c], &xs[c], &rec.s[c], &mut st[c])? {
                            if rec.roll_back(g, c, &mut xs[c], &mut st[c]) {
                                resumed.push(c);
                            }
                            continue;
                        }
                    }
                    ffw_obs::series_push("solver.bicgstab.residual", s_norm);
                    st[c].res = s_norm;
                    st[c].end = End::Converged;
                    continue;
                }
                next.push(c);
            }
            active = next;
            if active.is_empty() {
                break 'pass;
            }

            // Phase 3: t = A M s; omega; the x and r updates.
            if let Some(m) = pre {
                for &c in &active {
                    m.apply(&rec.s[c], &mut rec.sh[c]);
                }
            }
            let dir = if pre.is_some() { &rec.sh } else { &rec.s };
            apply_cols(ctx, &active, dir, &mut rec.t)?;
            let mut dots: Vec<C64> = Vec::with_capacity(2 * active.len());
            for &c in &active {
                dots.push(zdotc(&rec.t[c], &rec.s[c]));
                dots.push(zdotc(&rec.t[c], &rec.t[c]));
            }
            ctx.reduce(&mut dots)?;
            for (k, &c) in active.iter().enumerate() {
                st[c].matvecs += 1;
                let omega = dots[2 * k] / dots[2 * k + 1];
                rec.sc[c].omega = omega;
                let alpha = rec.sc[c].alpha;
                // Snapshot x first so a non-finite update rolls back instead
                // of poisoning the iterate: NaN fails every `<` test, so an
                // unchecked loop would run to max_iters and report a NaN x.
                rec.x_prev[c].copy_from_slice(&xs[c]);
                let (pd, sd) = if pre.is_some() {
                    (&rec.ph[c], &rec.sh[c])
                } else {
                    (&rec.p[c], &rec.s[c])
                };
                let (x, r, s, t) = (&mut xs[c], &mut rec.r[c], &rec.s[c], &rec.t[c]);
                for i in 0..n {
                    x[i] += alpha * pd[i] + omega * sd[i];
                    r[i] = s[i] - omega * t[i];
                }
            }
            let mut sq = norms_sqr(&active, &rec.r);
            ctx.reduce(&mut sq)?;
            let mut next = Vec::with_capacity(active.len());
            for (k, &c) in active.iter().enumerate() {
                let res = sq[k].re.sqrt() / st[c].b_norm;
                if !res.is_finite() {
                    // The rolled-back iterate does not contain this step's
                    // update, so the step is not counted (`SolveStats`:
                    // iterations = update steps reflected in the iterate).
                    xs[c].copy_from_slice(&rec.x_prev[c]);
                    st[c].iters -= 1;
                    st[c].break_down(c, BreakdownKind::NonFinite);
                    continue;
                }
                st[c].res = res;
                ffw_obs::series_push("solver.bicgstab.residual", res);
                let converged = res < cfg.tol;
                if !converged {
                    rec.sc[c].rho = rec.rho_new[c];
                }
                if let Some(g) = opts.guard {
                    // Audit every would-be convergence and, periodically, a
                    // top-of-loop state: a pass there refreshes the rollback
                    // snapshot, a failure rolls back (or escalates).
                    if converged || st[c].iters.is_multiple_of(g.period) {
                        if !audit(ctx, g, bs[c], &xs[c], &rec.r[c], &mut st[c])? {
                            if rec.roll_back(g, c, &mut xs[c], &mut st[c]) {
                                resumed.push(c);
                            }
                            continue;
                        }
                        if !converged {
                            rec.snapshot(c, &xs[c], &st[c]);
                        }
                    }
                }
                if converged {
                    st[c].end = End::Converged;
                } else {
                    next.push(c);
                }
            }
            active = next;
        }
        if !resumed.is_empty() {
            active.extend(resumed);
            active.sort_unstable();
        }
    }
    Ok(())
}

/// Applies the context's operator to the selected columns of `input`,
/// writing the matching columns of `output`, via one fused block apply.
pub(crate) fn apply_cols<C: KrylovContext + ?Sized>(
    ctx: &C,
    cols: &[usize],
    input: &[Vec<C64>],
    output: &mut [Vec<C64>],
) -> Result<(), C::Error> {
    if cols.is_empty() {
        return Ok(());
    }
    let xs: Vec<&[C64]> = cols.iter().map(|&c| input[c].as_slice()).collect();
    let mut ys: Vec<Vec<C64>> = cols
        .iter()
        .map(|&c| std::mem::take(&mut output[c]))
        .collect();
    let applied = ctx.try_apply_block(&xs, &mut ys);
    for (&c, y) in cols.iter().zip(ys) {
        output[c] = y;
    }
    applied
}

/// `‖r_rec - (b - A x)‖ / ‖b‖`: how far the recursive residual has drifted
/// from the truth. One extra operator apply and one scalar reduction.
pub(crate) fn residual_drift<C: KrylovContext + ?Sized>(
    ctx: &C,
    b: &[C64],
    x: &[C64],
    r_rec: &[C64],
    b_norm: f64,
) -> Result<f64, C::Error> {
    let mut r_true = vec![vec![C64::ZERO; b.len()]];
    ctx.try_apply_block(&[x], &mut r_true)?;
    let mut diff2 = 0.0f64;
    for ((rr, bi), ti) in r_rec.iter().zip(b).zip(&r_true[0]) {
        diff2 += (*rr - (*bi - *ti)).norm_sqr();
    }
    let mut d = [c64(diff2, 0.0)];
    ctx.reduce(&mut d)?;
    Ok(d[0].re.sqrt() / b_norm)
}

/// One drift audit of column `col`: `true` when the recursive residual
/// `r_rec` agrees with the true residual within the guard's tolerance. The
/// audit apply is charged to `verify_matvecs`.
fn audit<C: KrylovContext + ?Sized>(
    ctx: &C,
    g: &DriftGuard,
    b: &[C64],
    x: &[C64],
    r_rec: &[C64],
    col: &mut Col,
) -> Result<bool, C::Error> {
    col.verify_mv += 1;
    let drift = residual_drift(ctx, b, x, r_rec, col.b_norm)?;
    Ok(drift.is_finite() && drift <= g.rel_tol)
}

/// The stats of a serial lockstep solve.
fn serial_stats<A: BlockLinOp + ?Sized>(
    a: &A,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
    opts: &LockstepOptions,
) -> Vec<SolveStats> {
    let Ok(cols) = solve_lockstep(a, bs, xs, cfg, opts);
    cols.into_iter().map(|c| c.stats).collect()
}

/// Solves `A xs[c] = bs[c]` for all `B` columns with lockstep BiCGStab (see
/// [`solve_lockstep`]). A breakdown freezes only that column, which reports
/// honest unconverged [`SolveStats`] with its iterate left at the last
/// finite value; sibling columns keep iterating.
pub fn bicgstab_block<A: BlockLinOp + ?Sized>(
    a: &A,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
) -> Vec<SolveStats> {
    serial_stats(a, bs, xs, cfg, &LockstepOptions::default())
}

/// [`bicgstab_block`] with a [`DriftGuard`] auditing every column: the true
/// residual `b - A x` is recomputed every [`DriftGuard::period`] update
/// steps *and* at every would-be convergence, and recursive-vs-true
/// divergence beyond [`DriftGuard::rel_tol`] rolls the column back to its
/// last verified snapshot and replays. Transient corruption replays clean
/// (the final iterate is bit-identical to an uncorrupted solve);
/// deterministic corruption re-detects until [`DriftGuard::max_rollbacks`]
/// is exhausted, at which point the guard escalates
/// (`guard.escalated() > 0`) and the column is surfaced unconverged at its
/// last verified iterate — never silently converged.
///
/// On a clean run the audits touch no recurrence state, so every column's
/// trajectory — iterates, residuals, `iterations`, `matvecs` — is
/// bit-identical to the unguarded solve; the audit applies are reported in
/// `verify_matvecs`.
pub fn bicgstab_block_guarded<A: BlockLinOp + ?Sized>(
    a: &A,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
    guard: &DriftGuard,
) -> Vec<SolveStats> {
    let opts = LockstepOptions {
        guard: Some(guard),
        ..LockstepOptions::default()
    };
    serial_stats(a, bs, xs, cfg, &opts)
}

/// Scalar guarded BiCGStab: a width-1 [`bicgstab_block_guarded`], with a
/// drift escalation (or a breakdown) surfaced as a typed
/// [`SolveError::Breakdown`] — kind [`BreakdownKind::Drift`] for
/// escalation — instead of a counter the caller must poll.
pub fn bicgstab_guarded<A: BlockLinOp + ?Sized>(
    a: &A,
    b: &[C64],
    x: &mut [C64],
    cfg: IterConfig,
    guard: &DriftGuard,
) -> Result<SolveStats, SolveError> {
    let opts = LockstepOptions {
        guard: Some(guard),
        ..LockstepOptions::default()
    };
    let mut xs = vec![x.to_vec()];
    let Ok(mut cols) = solve_lockstep(a, &[b], &mut xs, cfg, &opts);
    x.copy_from_slice(&xs[0]);
    cols.pop().expect("one column").into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::bicgstab;
    use crate::op::DiagonalOp;
    use ffw_numerics::c64;
    use ffw_numerics::linalg::Matrix;

    fn random_mat(n: usize, seed: u64, diag_boost: f64) -> Matrix {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Matrix::from_fn(n, n, |r, c| {
            let mut v = c64(next(), next());
            if r == c {
                v += diag_boost;
            }
            v
        })
    }

    fn random_vec(n: usize, seed: u64) -> Vec<C64> {
        let m = random_mat(n, seed, 0.0);
        (0..n).map(|i| m.at(0, i)).collect()
    }

    #[test]
    fn width_one_is_bit_identical_to_scalar_path() {
        let n = 48;
        let a = random_mat(n, 3, 7.0);
        let b = random_vec(n, 11);
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 300,
        };
        let mut x_scalar = vec![C64::ZERO; n];
        let scalar = bicgstab(&a, &b, &mut x_scalar, cfg);
        let mut xs = vec![vec![C64::ZERO; n]];
        let block = bicgstab_block(&a, &[&b], &mut xs, cfg);
        assert_eq!(block.len(), 1);
        assert_eq!(block[0], scalar);
        assert_eq!(xs[0], x_scalar, "B=1 iterates must match bit-for-bit");
    }

    #[test]
    fn breakdown_iteration_count_reproduces_the_returned_iterate() {
        // Same SolveStats contract as the scalar path: a phase-3 rollback
        // must not be counted, so a clean width-1 replay capped at the
        // reported `iterations` lands on the identical iterate.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 24;
        let m = random_mat(n, 77, 6.0);
        let b = random_vec(n, 79);
        let calls = AtomicUsize::new(0);
        let poisoned = crate::op::FnOp::new(n, n, |v: &[C64], out: &mut [C64]| {
            // Applies 1..=5 healthy; apply 6 (the `A p` of iteration 3)
            // poisons the step with NaN, forcing the phase-3 rollback.
            if calls.fetch_add(1, Ordering::Relaxed) + 1 >= 6 {
                out.iter_mut().for_each(|o| *o = c64(f64::NAN, f64::NAN));
            } else {
                use crate::op::LinOp;
                m.apply(v, out);
            }
        });
        let cfg = IterConfig {
            tol: 1e-14,
            max_iters: 50,
        };
        let mut xs = vec![vec![C64::ZERO; n]];
        let stats = bicgstab_block(&poisoned, &[&b], &mut xs, cfg);
        assert!(!stats[0].converged);
        assert_eq!(stats[0].iterations, 2, "rolled-back step must not count");

        let mut xs_replay = vec![vec![C64::ZERO; n]];
        let replay = bicgstab_block(
            &m,
            &[&b],
            &mut xs_replay,
            IterConfig {
                tol: 1e-14,
                max_iters: stats[0].iterations,
            },
        );
        assert_eq!(replay[0].iterations, stats[0].iterations);
        assert_eq!(xs_replay[0], xs[0], "replay at the reported count differs");
    }

    #[test]
    fn every_column_matches_its_own_scalar_solve() {
        let n = 40;
        let a = random_mat(n, 5, 8.0);
        let cfg = IterConfig {
            tol: 1e-8,
            max_iters: 200,
        };
        let bs: Vec<Vec<C64>> = (0..5).map(|i| random_vec(n, 100 + i)).collect();
        let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
        let mut xs = vec![vec![C64::ZERO; n]; 5];
        let block = bicgstab_block(&a, &b_refs, &mut xs, cfg);
        for (c, b) in bs.iter().enumerate() {
            let mut x_scalar = vec![C64::ZERO; n];
            let scalar = bicgstab(&a, b, &mut x_scalar, cfg);
            assert_eq!(block[c], scalar, "column {c} stats");
            assert_eq!(xs[c], x_scalar, "column {c} iterate");
        }
    }

    #[test]
    fn frozen_column_is_never_updated() {
        // One easy RHS (exact solution as the initial guess: converges at
        // iteration 0 and freezes immediately) alongside one hard RHS that
        // needs real iterations. The frozen column's iterate must come out
        // bit-identical to the value it froze at.
        let n = 32;
        let a = random_mat(n, 9, 6.0);
        let cfg = IterConfig {
            tol: 1e-8,
            max_iters: 200,
        };
        let x_true = random_vec(n, 21);
        let mut b_easy = vec![C64::ZERO; n];
        a.matvec(&x_true, &mut b_easy);
        let b_hard = random_vec(n, 23);
        let mut xs = vec![x_true.clone(), vec![C64::ZERO; n]];
        let stats = bicgstab_block(&a, &[&b_easy, &b_hard], &mut xs, cfg);
        assert!(stats[0].converged);
        assert_eq!(stats[0].iterations, 0, "easy column converges up front");
        assert_eq!(xs[0], x_true, "frozen column must not be touched");
        assert!(stats[1].converged, "{:?}", stats[1]);
        assert!(stats[1].iterations > 0, "hard column actually iterated");
    }

    #[test]
    fn breakdown_in_one_column_does_not_poison_siblings() {
        // diag(0, 2, 3, ...) is singular in its first coordinate only: a RHS
        // supported there breaks down (alpha divides by zero), while a RHS in
        // the operator's range solves fine. The sibling must match its scalar
        // solve bit-for-bit and the broken column must stay finite.
        let n = 12;
        let mut d = vec![C64::ZERO; n];
        for (i, v) in d.iter_mut().enumerate().skip(1) {
            *v = c64(1.0 + i as f64, 0.0);
        }
        let a = DiagonalOp(d.clone());
        let cfg = IterConfig {
            tol: 1e-10,
            max_iters: 50,
        };
        let mut b_bad = vec![C64::ZERO; n];
        b_bad[0] = c64(1.0, 0.5);
        let mut b_good = vec![C64::ZERO; n];
        for (i, v) in b_good.iter_mut().enumerate().skip(1) {
            *v = c64(0.3 * i as f64, -0.1);
        }
        let mut xs = vec![vec![C64::ZERO; n], vec![C64::ZERO; n]];
        let stats = bicgstab_block(&a, &[&b_bad, &b_good], &mut xs, cfg);
        assert!(!stats[0].converged, "{:?}", stats[0]);
        assert!(
            xs[0].iter().all(|v| v.re.is_finite() && v.im.is_finite()),
            "broken column's iterate must be rolled back to a finite value"
        );
        let mut x_scalar = vec![C64::ZERO; n];
        let scalar = bicgstab(&a, &b_good, &mut x_scalar, cfg);
        assert_eq!(stats[1], scalar, "sibling stats unaffected by breakdown");
        assert_eq!(xs[1], x_scalar, "sibling iterate unaffected by breakdown");
    }

    #[test]
    fn zero_rhs_column_short_circuits() {
        let n = 10;
        let a = random_mat(n, 13, 5.0);
        let b_zero = vec![C64::ZERO; n];
        let b_live = random_vec(n, 17);
        let mut xs = vec![random_vec(n, 19), vec![C64::ZERO; n]];
        let stats = bicgstab_block(&a, &[&b_zero, &b_live], &mut xs, IterConfig::default());
        assert!(stats[0].converged);
        assert_eq!(stats[0].iterations, 0);
        assert_eq!(stats[0].matvecs, 0);
        assert!(xs[0].iter().all(|v| v.abs() == 0.0));
        assert!(stats[1].converged);
    }

    #[test]
    fn empty_block_is_a_noop() {
        let a = random_mat(4, 1, 5.0);
        let stats = bicgstab_block(&a, &[], &mut [], IterConfig::default());
        assert!(stats.is_empty());
    }

    #[test]
    fn guarded_clean_run_is_bit_identical_and_audited() {
        // Audits read state but never write it, so a corruption-free guarded
        // solve must reproduce the unguarded trajectory exactly — same
        // iterate bits, same per-column iteration/matvec counts — while
        // charging its audit applies to `verify_matvecs`.
        let n = 40;
        let a = random_mat(n, 101, 7.0);
        let bs: Vec<Vec<C64>> = (0..3).map(|i| random_vec(n, 110 + i)).collect();
        let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 300,
        };
        let mut xs_plain = vec![vec![C64::ZERO; n]; 3];
        let plain = bicgstab_block(&a, &b_refs, &mut xs_plain, cfg);
        let guard = DriftGuard::new(4, 1e-8, 2);
        let mut xs_guarded = vec![vec![C64::ZERO; n]; 3];
        let guarded = bicgstab_block_guarded(&a, &b_refs, &mut xs_guarded, cfg, &guard);
        assert_eq!(guard.detected(), 0, "clean run must not trip the guard");
        for c in 0..3 {
            assert_eq!(xs_guarded[c], xs_plain[c], "column {c} iterate");
            assert_eq!(guarded[c].iterations, plain[c].iterations);
            assert_eq!(guarded[c].matvecs, plain[c].matvecs, "column {c}");
            assert_eq!(guarded[c].rel_residual, plain[c].rel_residual);
            assert!(guarded[c].converged);
            assert!(guarded[c].verify_matvecs > 0, "column {c} was audited");
            assert_eq!(guarded[c].rolled_back, 0);
        }
    }

    #[test]
    fn transient_corruption_rolls_back_to_a_bit_identical_solve() {
        // One operator apply returns a wildly wrong panel (a bit-flip stand-in
        // far above audit tolerance); every other apply is clean. The guard
        // must detect the drift, roll back to the last verified snapshot, and
        // replay to the exact iterate of a fully clean solve.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 36;
        let m = random_mat(n, 131, 7.0);
        let b = random_vec(n, 137);
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 300,
        };
        let mut x_clean = vec![vec![C64::ZERO; n]];
        let clean = bicgstab_block(&m, &[&b], &mut x_clean, cfg);
        assert!(clean[0].converged);

        let calls = AtomicUsize::new(0);
        let corrupting = crate::op::FnOp::new(n, n, |v: &[C64], out: &mut [C64]| {
            m.matvec(v, out);
            if calls.fetch_add(1, Ordering::Relaxed) + 1 == 4 {
                out[0] += c64(75.0, -40.0);
            }
        });
        let guard = DriftGuard::new(4, 1e-8, 3);
        let mut xs = vec![vec![C64::ZERO; n]];
        let stats = bicgstab_block_guarded(&corrupting, &[&b], &mut xs, cfg, &guard);
        assert!(guard.detected() >= 1, "corruption must be detected");
        assert!(guard.rolled_back() >= 1, "steps must be discarded");
        assert_eq!(guard.escalated(), 0, "transient fault must recover");
        assert!(stats[0].converged, "{:?}", stats[0]);
        assert!(stats[0].rolled_back >= 1);
        assert_eq!(
            xs[0], x_clean[0],
            "recovered solve must match the clean solve bit-for-bit"
        );
        assert_eq!(stats[0].iterations, clean[0].iterations);
        assert_eq!(stats[0].matvecs, clean[0].matvecs);
    }

    #[test]
    fn persistent_corruption_escalates_typed() {
        // Inconsistent corruption on every apply after the initial residual:
        // the recurrence can never be reconciled with any fixed operator, so
        // each replay re-detects until the rollback budget is spent and the
        // guard escalates instead of reporting convergence.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 24;
        let m = random_mat(n, 151, 6.0);
        let b = random_vec(n, 157);
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 200,
        };
        let calls = AtomicUsize::new(0);
        let corrupting = crate::op::FnOp::new(n, n, |v: &[C64], out: &mut [C64]| {
            m.matvec(v, out);
            let k = calls.fetch_add(1, Ordering::Relaxed) + 1;
            if k >= 2 {
                // call-dependent garbage: no consistent linear system exists
                out[0] += c64(10.0 + k as f64, -(k as f64));
            }
        });
        let guard = DriftGuard::new(4, 1e-8, 2);
        let mut xs = vec![vec![C64::ZERO; n]];
        let stats = bicgstab_block_guarded(&corrupting, &[&b], &mut xs, cfg, &guard);
        assert_eq!(guard.escalated(), 1, "budget exhausted must escalate");
        assert!(
            !stats[0].converged,
            "never report convergence: {:?}",
            stats[0]
        );
        assert!(
            xs[0].iter().all(|v| v.re.is_finite() && v.im.is_finite()),
            "escalated column freezes at the last verified iterate"
        );

        // The scalar wrapper surfaces the same outcome as a typed breakdown.
        calls.store(0, Ordering::Relaxed);
        let guard2 = DriftGuard::new(4, 1e-8, 2);
        let mut x = vec![C64::ZERO; n];
        let err = bicgstab_guarded(&corrupting, &b, &mut x, cfg, &guard2)
            .expect_err("persistent corruption must not yield Ok");
        match err {
            SolveError::Breakdown { kind, .. } => {
                assert_eq!(kind, BreakdownKind::Drift, "typed as drift corruption")
            }
        }
    }
}
