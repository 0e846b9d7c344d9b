//! Krylov-subspace iterative solvers.
//!
//! The paper's forward solver is the biconjugate gradient stabilized method
//! (BiCGStab, Section III-A), terminated at 1e-4 relative residual
//! (Section V-B). CG is provided for Hermitian positive-definite systems and
//! CGNR (CG on the normal equations) solves the least-squares problems of the
//! linear Born inversion baseline.

use crate::block::{solve_lockstep, ColumnSolve, LockstepOptions};
use crate::op::{BlockLinOp, LinOp};
use ffw_numerics::vecops::{norm2, sub_into, zdotc};
use ffw_numerics::C64;
use std::fmt;

/// Outcome of an iterative solve.
///
/// These semantics are shared by every engine in the workspace (scalar and
/// block BiCGStab, the distributed solvers, and the Born-series backend) so
/// cross-backend comparisons are apples-to-apples:
///
/// - `iterations` counts the update steps *reflected in the returned
///   iterate*. A step whose update is rolled back (e.g. a non-finite
///   BiCGStab phase-3 update restores the pre-step `x`) is not counted:
///   re-running the same solve with `max_iters` set to the reported count
///   reproduces the returned iterate bit-for-bit.
/// - `matvecs` counts operator applications whose step survived into the
///   returned trajectory (a single non-finite phase-3 rollback keeps its
///   applies here, matching the historical accounting the BENCH iteration
///   gates pin).
/// - `verify_matvecs` counts operator applications spent on compute
///   integrity instead: drift-guard true-residual audits, plus the applies
///   of iterations a [`crate::DriftGuard`] rollback discarded. Keeping them
///   out of `matvecs` preserves the per-solver `matvecs`/`iterations`
///   invariants (e.g. BiCGStab's `2 i + 1`) that the BENCH gates rely on.
/// - `rolled_back` counts update steps discarded by drift-guard rollbacks
///   (they are also absent from `iterations`).
#[derive(Clone, Debug, PartialEq)]
pub struct SolveStats {
    /// Update steps reflected in the returned iterate (see type docs).
    pub iterations: usize,
    /// Operator applications (matvecs) performed for the returned
    /// trajectory.
    pub matvecs: usize,
    /// Operator applications spent on integrity verification and on
    /// rolled-back trajectory segments (see type docs).
    pub verify_matvecs: usize,
    /// Update steps discarded by drift-guard rollbacks.
    pub rolled_back: usize,
    /// Final relative residual norm `||b - A x|| / ||b||`.
    pub rel_residual: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// What broke a Krylov iteration down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakdownKind {
    /// The BiCGStab rho inner product underflowed to (numerical) zero, so
    /// the recurrence cannot continue.
    RhoZero,
    /// The iterate or residual became NaN/Inf (division by a vanishing
    /// inner product, singular operator, overflow).
    NonFinite,
    /// A [`crate::DriftGuard`] audit found the recursive residual diverged
    /// from the true residual `b - A x` and the rollback budget could not
    /// repair it — suspected compute corruption, surfaced instead of a
    /// silently wrong convergence.
    Drift,
}

impl fmt::Display for BreakdownKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakdownKind::RhoZero => f.write_str("rho underflow"),
            BreakdownKind::NonFinite => f.write_str("non-finite residual"),
            BreakdownKind::Drift => {
                f.write_str("unresolved residual drift (suspected compute corruption)")
            }
        }
    }
}

/// Typed failure of a checked Krylov solve. Surfaced only after the solver
/// has already attempted its automatic restart budget; the iterate `x` is
/// left at the last finite value, never poisoned with NaN.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The iteration broke down and restarts did not recover it.
    Breakdown {
        /// What broke down.
        kind: BreakdownKind,
        /// Iterations completed before the (final) breakdown.
        iterations: usize,
        /// Operator applications performed.
        matvecs: usize,
        /// Last finite relative residual observed.
        rel_residual: f64,
        /// Automatic restarts attempted before giving up.
        restarts: u32,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Breakdown {
                kind,
                iterations,
                rel_residual,
                restarts,
                ..
            } => write!(
                f,
                "Krylov breakdown ({kind}) after {iterations} iterations and \
                 {restarts} restart(s); last finite relative residual {rel_residual:.3e}"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

pub(crate) fn finite_c(v: C64) -> bool {
    v.re.is_finite() && v.im.is_finite()
}

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct IterConfig {
    /// Relative residual tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for IterConfig {
    fn default() -> Self {
        // The paper's forward-solver setting (Section V-B).
        IterConfig {
            tol: 1e-4,
            max_iters: 1000,
        }
    }
}

/// Presents a single-RHS [`LinOp`] as a block operator whose panels loop
/// `apply`, so the lockstep core performs exactly the scalar applies.
struct Columns<'a, A: ?Sized>(&'a A);

impl<A: LinOp + ?Sized> LinOp for Columns<'_, A> {
    fn dim_out(&self) -> usize {
        self.0.dim_out()
    }
    fn dim_in(&self) -> usize {
        self.0.dim_in()
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        self.0.apply(x, y);
    }
}

impl<A: LinOp + ?Sized> BlockLinOp for Columns<'_, A> {}

/// A width-1 [`solve_lockstep`] with `restarts` restarts allowed.
fn solve_one<A: LinOp + ?Sized>(
    a: &A,
    b: &[C64],
    x: &mut [C64],
    cfg: IterConfig,
    restarts: u32,
) -> ColumnSolve {
    assert_eq!(a.dim_in(), b.len());
    assert_eq!(a.dim_out(), b.len());
    let opts = LockstepOptions {
        restarts,
        ..LockstepOptions::default()
    };
    let mut xs = vec![x.to_vec()];
    let Ok(mut cols) = solve_lockstep(&Columns(a), &[b], &mut xs, cfg, &opts);
    x.copy_from_slice(&xs[0]);
    cols.pop().expect("one column")
}

/// Unpreconditioned BiCGStab: solves `A x = b`, starting from the provided
/// `x` (commonly zero). Two matvecs per iteration — the dominant cost the
/// MLFMA accelerates (paper Fig. 4). A width-1 [`solve_lockstep`].
///
/// On a rho-underflow or NaN/Inf breakdown this returns honest unconverged
/// stats with `x` left at the last *finite* iterate (never NaN). Callers
/// that need to distinguish breakdown from slow convergence should use
/// [`bicgstab_checked`], which also retries once before giving up.
pub fn bicgstab<A: LinOp + ?Sized>(a: &A, b: &[C64], x: &mut [C64], cfg: IterConfig) -> SolveStats {
    solve_one(a, b, x, cfg, 0).stats
}

/// BiCGStab with typed breakdown reporting: on rho underflow or a NaN/Inf
/// iterate the solve automatically restarts once from the last finite
/// iterate (fresh residual and shadow residual), and only if the restarted
/// cycle breaks down too does it surface [`SolveError::Breakdown`]. The
/// iteration budget in `cfg` is shared across restarts.
pub fn bicgstab_checked<A: LinOp + ?Sized>(
    a: &A,
    b: &[C64],
    x: &mut [C64],
    cfg: IterConfig,
) -> Result<SolveStats, SolveError> {
    solve_one(a, b, x, cfg, 1).into_result()
}

/// Conjugate gradients for Hermitian positive-definite `A`.
pub fn cg<A: LinOp + ?Sized>(a: &A, b: &[C64], x: &mut [C64], cfg: IterConfig) -> SolveStats {
    let n = b.len();
    assert_eq!(x.len(), n);
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        x.iter_mut().for_each(|v| *v = C64::ZERO);
        return SolveStats {
            verify_matvecs: 0,
            rolled_back: 0,
            iterations: 0,
            matvecs: 0,
            rel_residual: 0.0,
            converged: true,
        };
    }
    let mut r = vec![C64::ZERO; n];
    let mut matvecs = 0usize;
    a.apply(x, &mut r);
    matvecs += 1;
    sub_into(b, &r.clone(), &mut r);
    let mut p = r.clone();
    let mut ap = vec![C64::ZERO; n];
    let mut rs = zdotc(&r, &r);
    let mut res = rs.re.sqrt() / b_norm;
    for iter in 1..=cfg.max_iters {
        if res < cfg.tol {
            return SolveStats {
                verify_matvecs: 0,
                rolled_back: 0,
                iterations: iter - 1,
                matvecs,
                rel_residual: res,
                converged: true,
            };
        }
        a.apply(&p, &mut ap);
        matvecs += 1;
        let alpha = rs / zdotc(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new = zdotc(&r, &r);
        let beta = rs_new / rs;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs = rs_new;
        res = rs.re.sqrt() / b_norm;
    }
    SolveStats {
        verify_matvecs: 0,
        rolled_back: 0,
        iterations: cfg.max_iters,
        matvecs,
        rel_residual: res,
        converged: res < cfg.tol,
    }
}

/// CGNR: least-squares `min ||A x - b||` via CG on `A^H A x = A^H b`.
///
/// `a` maps `n -> m`, `a_adj` maps `m -> n` and must be the true adjoint.
pub fn cgnr<A: LinOp + ?Sized, AH: LinOp + ?Sized>(
    a: &A,
    a_adj: &AH,
    b: &[C64],
    x: &mut [C64],
    cfg: IterConfig,
) -> SolveStats {
    let n = a.dim_in();
    let m = a.dim_out();
    assert_eq!(b.len(), m);
    assert_eq!(x.len(), n);
    let mut rhs = vec![C64::ZERO; n];
    a_adj.apply(b, &mut rhs);
    let normal = crate::op::FnOp::new(n, n, |v: &[C64], out: &mut [C64]| {
        let mut mid = vec![C64::ZERO; m];
        a.apply(v, &mut mid);
        a_adj.apply(&mid, out);
    });
    let mut stats = cg(&normal, &rhs, x, cfg);
    stats.matvecs *= 2; // each normal-equation apply is two operator applies
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_numerics::linalg::Matrix;
    use ffw_numerics::{c64, vecops::rel_diff};

    fn random_mat(n: usize, m: usize, seed: u64, diag_boost: f64) -> Matrix {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Matrix::from_fn(n, m, |r, c| {
            let mut v = c64(next(), next());
            if r == c {
                v += diag_boost;
            }
            v
        })
    }

    fn random_vec(n: usize, seed: u64) -> Vec<C64> {
        let m = random_mat(1, n, seed, 0.0);
        m.as_slice().to_vec()
    }

    #[test]
    fn bicgstab_solves_diagonally_dominant_system() {
        let n = 60;
        let a = random_mat(n, n, 3, 8.0);
        let x_true = random_vec(n, 5);
        let mut b = vec![C64::ZERO; n];
        a.matvec(&x_true, &mut b);
        let mut x = vec![C64::ZERO; n];
        let stats = bicgstab(
            &a,
            &b,
            &mut x,
            IterConfig {
                tol: 1e-10,
                max_iters: 500,
            },
        );
        assert!(stats.converged, "{stats:?}");
        assert!(
            rel_diff(&x, &x_true) < 1e-8,
            "err {}",
            rel_diff(&x, &x_true)
        );
        assert_eq!(stats.matvecs, 2 * stats.iterations + 1);
    }

    #[test]
    fn bicgstab_residual_is_truthful() {
        let n = 40;
        let a = random_mat(n, n, 13, 6.0);
        let b = random_vec(n, 17);
        let mut x = vec![C64::ZERO; n];
        let stats = bicgstab(
            &a,
            &b,
            &mut x,
            IterConfig {
                tol: 1e-8,
                max_iters: 300,
            },
        );
        let mut r = vec![C64::ZERO; n];
        a.matvec(&x, &mut r);
        let resid: f64 = r
            .iter()
            .zip(&b)
            .map(|(ax, bb)| (*ax - *bb).norm_sqr())
            .sum::<f64>()
            .sqrt()
            / ffw_numerics::vecops::norm2(&b);
        assert!(stats.converged);
        assert!(
            (resid - stats.rel_residual).abs() < 1e-6,
            "{resid} vs {stats:?}"
        );
    }

    #[test]
    fn bicgstab_zero_rhs() {
        let a = random_mat(10, 10, 1, 4.0);
        let b = vec![C64::ZERO; 10];
        let mut x = random_vec(10, 2);
        let stats = bicgstab(&a, &b, &mut x, IterConfig::default());
        assert!(stats.converged);
        assert!(x.iter().all(|v| v.abs() == 0.0));
    }

    #[test]
    fn cg_solves_hermitian_pd() {
        // A = B^H B + 2I is Hermitian positive definite.
        let n = 30;
        let b_mat = random_mat(n, n, 7, 0.0);
        let mut a = b_mat.adjoint().matmul(&b_mat);
        for i in 0..n {
            *a.at_mut(i, i) += 2.0;
        }
        let x_true = random_vec(n, 9);
        let mut rhs = vec![C64::ZERO; n];
        a.matvec(&x_true, &mut rhs);
        let mut x = vec![C64::ZERO; n];
        let stats = cg(
            &a,
            &rhs,
            &mut x,
            IterConfig {
                tol: 1e-12,
                max_iters: 500,
            },
        );
        assert!(stats.converged);
        assert!(rel_diff(&x, &x_true) < 1e-9);
    }

    #[test]
    fn cgnr_solves_overdetermined_least_squares() {
        // 50 equations, 20 unknowns: residual must be orthogonal to range(A).
        let m = 50;
        let n = 20;
        let a = random_mat(m, n, 11, 0.0);
        let b = random_vec(m, 13);
        let a_adj = a.adjoint();
        let mut x = vec![C64::ZERO; n];
        let stats = cgnr(
            &a,
            &a_adj,
            &b,
            &mut x,
            IterConfig {
                tol: 1e-12,
                max_iters: 500,
            },
        );
        assert!(stats.converged);
        // optimality: A^H (A x - b) = 0
        let mut ax = vec![C64::ZERO; m];
        a.matvec(&x, &mut ax);
        let r: Vec<C64> = ax.iter().zip(&b).map(|(u, v)| *u - *v).collect();
        let mut grad = vec![C64::ZERO; n];
        a_adj.matvec(&r, &mut grad);
        assert!(
            ffw_numerics::vecops::norm2(&grad) < 1e-8 * ffw_numerics::vecops::norm2(&b),
            "normal-equation residual too large"
        );
    }

    #[test]
    fn max_iters_reports_unconverged() {
        let n = 50;
        let a = random_mat(n, n, 23, 0.3); // poorly conditioned
        let b = random_vec(n, 29);
        let mut x = vec![C64::ZERO; n];
        let stats = bicgstab(
            &a,
            &b,
            &mut x,
            IterConfig {
                tol: 1e-14,
                max_iters: 2,
            },
        );
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 2);
    }

    #[test]
    fn breakdown_on_singular_operator_is_typed_not_silent() {
        // Regression test for the silent-divergence bug: with a singular
        // operator, alpha = rho / <r_hat, A p> divides by zero and poisons
        // the iterate with NaN. NaN fails every `<` comparison, so the old
        // loop ran on and "reported the iterate" even though the residual
        // was NaN. The zero operator is maximally singular.
        let n = 8;
        let zero_op = crate::op::FnOp::new(n, n, |_v: &[C64], out: &mut [C64]| {
            out.iter_mut().for_each(|o| *o = C64::ZERO);
        });
        let b = vec![c64(1.0, 0.5); n];

        let mut x = vec![C64::ZERO; n];
        let err = bicgstab_checked(&zero_op, &b, &mut x, IterConfig::default())
            .expect_err("singular operator must surface a typed breakdown");
        let SolveError::Breakdown { kind, restarts, .. } = err;
        assert_eq!(kind, BreakdownKind::NonFinite);
        assert_eq!(restarts, 1, "one automatic restart before surfacing");
        assert!(
            x.iter().all(|v| v.re.is_finite() && v.im.is_finite()),
            "iterate must be rolled back to the last finite value"
        );

        // The plain entry point must now report honest unconverged stats
        // with a finite residual, instead of a NaN iterate.
        let mut x2 = vec![C64::ZERO; n];
        let stats = bicgstab(&zero_op, &b, &mut x2, IterConfig::default());
        assert!(!stats.converged);
        assert!(stats.rel_residual.is_finite());
        assert!(x2.iter().all(|v| v.re.is_finite() && v.im.is_finite()));
    }

    #[test]
    fn breakdown_iteration_count_reproduces_the_returned_iterate() {
        // SolveStats contract: after a phase-3 rollback, `iterations` must
        // equal the number of update steps actually present in the returned
        // iterate — so a clean re-run capped at that count is bit-identical.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 24;
        let m = random_mat(n, n, 77, 6.0);
        let b = random_vec(n, 79);
        // Applies 1..=5 are healthy (init residual + two full iterations);
        // apply 6 is the `A p` of iteration 3 and poisons it with NaN,
        // forcing the phase-3 rollback.
        let calls = AtomicUsize::new(0);
        let poisoned = crate::op::FnOp::new(n, n, |v: &[C64], out: &mut [C64]| {
            if calls.fetch_add(1, Ordering::Relaxed) + 1 >= 6 {
                out.iter_mut().for_each(|o| *o = c64(f64::NAN, f64::NAN));
            } else {
                m.apply(v, out);
            }
        });
        let cfg = IterConfig {
            tol: 1e-14,
            max_iters: 50,
        };
        let mut x_broken = vec![C64::ZERO; n];
        let stats = bicgstab(&poisoned, &b, &mut x_broken, cfg);
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 2, "rolled-back step must not count");
        assert!(x_broken.iter().all(|v| finite_c(*v)));

        let mut x_replay = vec![C64::ZERO; n];
        let replay = bicgstab(
            &m,
            &b,
            &mut x_replay,
            IterConfig {
                tol: 1e-14,
                max_iters: stats.iterations,
            },
        );
        assert_eq!(replay.iterations, stats.iterations);
        assert_eq!(x_replay, x_broken, "replay at the reported count differs");
    }

    #[test]
    fn checked_solve_matches_plain_on_healthy_system() {
        let n = 40;
        let a = random_mat(n, n, 41, 7.0);
        let b = random_vec(n, 43);
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 300,
        };
        let mut x_plain = vec![C64::ZERO; n];
        let plain = bicgstab(&a, &b, &mut x_plain, cfg);
        let mut x_checked = vec![C64::ZERO; n];
        let checked = bicgstab_checked(&a, &b, &mut x_checked, cfg).expect("healthy system");
        assert_eq!(plain, checked);
        assert_eq!(x_plain, x_checked);
        assert!(checked.converged);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 40;
        let a = random_mat(n, n, 31, 6.0);
        let x_true = random_vec(n, 33);
        let mut b = vec![C64::ZERO; n];
        a.matvec(&x_true, &mut b);
        let mut cold = vec![C64::ZERO; n];
        let cold_stats = bicgstab(
            &a,
            &b,
            &mut cold,
            IterConfig {
                tol: 1e-9,
                max_iters: 300,
            },
        );
        // warm start from a slightly perturbed solution
        let mut warm: Vec<C64> = x_true.iter().map(|v| *v * 1.001).collect();
        let warm_stats = bicgstab(
            &a,
            &b,
            &mut warm,
            IterConfig {
                tol: 1e-9,
                max_iters: 300,
            },
        );
        assert!(warm_stats.iterations <= cold_stats.iterations);
    }
}
