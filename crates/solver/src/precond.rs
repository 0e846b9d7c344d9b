//! Preconditioning for the Krylov solvers — the paper's Section VIII
//! future-work item ("preconditioning of the system to address situations
//! where the problem goes into resonance and near-resonance frequencies").
//!
//! A preconditioner is an option of the lockstep BiCGStab core
//! ([`crate::LockstepOptions::precond`]): right preconditioning advances
//! the iterate along `M p` and `M s` while every residual stays a true
//! residual of `A x = b`, so convergence reporting is comparable to the
//! unpreconditioned solver.

use ffw_numerics::C64;

/// An (approximate) inverse `z ~ A^{-1} r` applied as `z = M r`.
pub trait Precond: Sync {
    /// Applies the preconditioner: `z = M r`.
    fn apply(&self, r: &[C64], z: &mut [C64]);
}

/// The trivial preconditioner `M = I`.
pub struct IdentityPrecond;

impl Precond for IdentityPrecond {
    fn apply(&self, r: &[C64], z: &mut [C64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner `M = diag(d)^{-1}` given the diagonal.
pub struct JacobiPrecond(pub Vec<C64>);

impl Precond for JacobiPrecond {
    fn apply(&self, r: &[C64], z: &mut [C64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.0) {
            *zi = *ri / *di;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{solve_lockstep, LockstepOptions};
    use crate::krylov::{bicgstab, IterConfig, SolveStats};
    use crate::op::BlockLinOp;
    use ffw_numerics::c64;
    use ffw_numerics::linalg::Matrix;
    use ffw_numerics::vecops::{norm2, rel_diff};

    /// One right-preconditioned column through the lockstep core.
    fn solve_pre<A: BlockLinOp>(
        a: &A,
        m: &dyn Precond,
        b: &[C64],
        x: &mut [C64],
        cfg: IterConfig,
    ) -> SolveStats {
        let opts = LockstepOptions {
            precond: Some(m),
            ..LockstepOptions::default()
        };
        let mut xs = vec![x.to_vec()];
        let Ok(mut cols) = solve_lockstep(a, &[b], &mut xs, cfg, &opts);
        x.copy_from_slice(&xs[0]);
        cols.pop().expect("one column").stats
    }

    fn ill_conditioned(n: usize, seed: u64) -> Matrix {
        // strongly varying diagonal + small random coupling
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Matrix::from_fn(n, n, |r, c| {
            if r == c {
                c64(0.02 + 3.0 * (r as f64 / n as f64).powi(3), 0.1)
            } else {
                c64(next(), next()).scale(0.003)
            }
        })
    }

    #[test]
    fn identity_precond_matches_plain_bicgstab() {
        let n = 40;
        let a = ill_conditioned(n, 1);
        let b: Vec<C64> = (0..n).map(|i| c64(1.0, i as f64 * 0.1)).collect();
        let cfg = IterConfig {
            tol: 1e-10,
            max_iters: 800,
        };
        let mut x1 = vec![C64::ZERO; n];
        let s1 = bicgstab(&a, &b, &mut x1, cfg);
        let mut x2 = vec![C64::ZERO; n];
        let s2 = solve_pre(&a, &IdentityPrecond, &b, &mut x2, cfg);
        assert!(s1.converged && s2.converged);
        assert!(rel_diff(&x1, &x2) < 1e-7);
    }

    #[test]
    fn jacobi_precond_cuts_iterations_on_skewed_diagonal() {
        let n = 60;
        let a = ill_conditioned(n, 3);
        let b: Vec<C64> = (0..n).map(|i| c64((i % 7) as f64, 1.0)).collect();
        let cfg = IterConfig {
            tol: 1e-8,
            max_iters: 2000,
        };
        let mut x_plain = vec![C64::ZERO; n];
        let plain = bicgstab(&a, &b, &mut x_plain, cfg);
        let diag: Vec<C64> = (0..n).map(|i| a.at(i, i)).collect();
        let m = JacobiPrecond(diag);
        let mut x_pre = vec![C64::ZERO; n];
        let pre = solve_pre(&a, &m, &b, &mut x_pre, cfg);
        assert!(pre.converged);
        assert!(
            pre.iterations < plain.iterations,
            "precond {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
        // both solve the same system
        assert!(rel_diff(&x_pre, &x_plain) < 1e-5);
    }

    #[test]
    fn preconditioned_residual_is_true_residual() {
        let n = 30;
        let a = ill_conditioned(n, 7);
        let b: Vec<C64> = (0..n).map(|i| c64(0.5, -(i as f64) * 0.05)).collect();
        let diag: Vec<C64> = (0..n).map(|i| a.at(i, i)).collect();
        let mut x = vec![C64::ZERO; n];
        let stats = solve_pre(
            &a,
            &JacobiPrecond(diag),
            &b,
            &mut x,
            IterConfig {
                tol: 1e-9,
                max_iters: 1000,
            },
        );
        assert!(stats.converged);
        let mut ax = vec![C64::ZERO; n];
        a.matvec(&x, &mut ax);
        let true_res = ax
            .iter()
            .zip(&b)
            .map(|(u, v)| (*u - *v).norm_sqr())
            .sum::<f64>()
            .sqrt()
            / norm2(&b);
        assert!(true_res < 1e-8, "true residual {true_res}");
    }

    #[test]
    fn preconditioned_breakdown_rolls_back_to_a_finite_iterate() {
        // Regression test: the preconditioned solver had no finite checks,
        // so on a singular operator alpha = rho / <r_hat, A M p> divided by
        // zero, NaN failed every `<` test, and the solve ran to max_iters
        // and returned a NaN iterate as a plain unconverged result.
        let n = 8;
        let zero_op = crate::op::FnOp::new(n, n, |_v: &[C64], out: &mut [C64]| {
            out.iter_mut().for_each(|o| *o = C64::ZERO);
        });
        let m = JacobiPrecond(vec![c64(2.0, 0.5); n]);
        let b = vec![c64(1.0, 0.5); n];
        let mut x = vec![C64::ZERO; n];
        let stats = solve_pre(&zero_op, &m, &b, &mut x, IterConfig::default());
        assert!(!stats.converged);
        assert!(stats.rel_residual.is_finite(), "{stats:?}");
        assert!(
            x.iter().all(|v| v.re.is_finite() && v.im.is_finite()),
            "iterate must be rolled back to the last finite value"
        );
    }
}
