//! Distributed forward/adjoint solves over sub-tree-partitioned vectors.
//!
//! Vectors are split across the sub-tree communicator members exactly like
//! the MLFMA pixel ranges. The solves are the workspace's one lockstep
//! BiCGStab ([`ffw_solver::solve_lockstep`]) in a rank-group context: local
//! vector arithmetic, fused block applies of a [`DistOp`], and inner
//! products summed among the members by [`try_allreduce_scalars`].

use crate::engine::DistMlfma;
use ffw_mpi::{Comm, FaultError};
use ffw_numerics::{c64, C64};
use ffw_solver::{
    solve_lockstep, IterConfig, KrylovContext, LockstepOptions, SolveError, SolveStats,
};

/// Sum-allreduce of complex scalars among an explicit member list (global
/// rank ids; `members[0]` acts as the root). A dead or unreachable peer
/// surfaces as a typed [`FaultError`] instead of a panic, so fault-tolerant
/// drivers can unwind the rank cleanly and relaunch.
///
/// Misuse is diagnosed rather than hung: the member list is validated up
/// front (every caller must appear in its own list, members must be valid
/// and distinct), and if the member lists *across* ranks disagree — so some
/// rank waits for a contribution that never comes — the `ffw-mpi` deadlock
/// watchdog reconstructs the wait-for graph and fails the run with a report
/// naming the stuck ranks.
pub fn try_allreduce_scalars(
    comm: &Comm,
    members: &[usize],
    vals: &mut [C64],
) -> Result<(), FaultError> {
    if members.len() <= 1 {
        return Ok(());
    }
    let me = comm.rank();
    assert!(
        members.contains(&me),
        "allreduce_scalars: rank {me} called with member list {members:?} that \
         does not include itself"
    );
    for (i, &m) in members.iter().enumerate() {
        assert!(
            m < comm.size(),
            "allreduce_scalars: member {m} out of range (communicator has {} ranks)",
            comm.size()
        );
        assert!(
            !members[..i].contains(&m),
            "allreduce_scalars: member {m} listed twice in {members:?}"
        );
    }
    let mut packed: Vec<(f64, f64)> = vals.iter().map(|v| (v.re, v.im)).collect();
    const TAG_UP: u32 = 0x200;
    const TAG_DOWN: u32 = 0x201;
    // Every hop carries an ABFT checksum lane (the element sum) next to the
    // data. The per-message CRC already rejects in-flight bit flips; the
    // lane additionally lets the *result* of the reduction be verified: the
    // root folds the contribution lanes into the lane of the reduced vector,
    // so a receiver of the DOWN broadcast re-derives the sum and catches
    // corruption inside the reduction arithmetic itself.
    if me == members[0] {
        let mut lane = ffw_fault::abft_lane_c64(&packed);
        for &peer in &members[1..] {
            let (part, part_lane) = comm.recv_checked_laned(peer, TAG_UP)?;
            let part = part.into_c64();
            if let Some((lr, li)) = part_lane {
                lane.0 += lr;
                lane.1 += li;
            }
            for (p, q) in packed.iter_mut().zip(part) {
                p.0 += q.0;
                p.1 += q.1;
            }
        }
        for &peer in &members[1..] {
            comm.send_checked_laned(peer, TAG_DOWN, ffw_mpi::Payload::C64(packed.clone()), lane)?;
        }
    } else {
        let lane = ffw_fault::abft_lane_c64(&packed);
        comm.send_checked_laned(
            members[0],
            TAG_UP,
            ffw_mpi::Payload::C64(packed.clone()),
            lane,
        )?;
        let (down, _lane) = comm.recv_checked_laned(members[0], TAG_DOWN)?;
        packed = down.into_c64();
    }
    for (v, p) in vals.iter_mut().zip(packed) {
        *v = c64(p.0, p.1);
    }
    Ok(())
}

/// A distributed operator: applies to local slices, communicating
/// internally.
pub trait DistOp {
    /// Checked block apply: `ys[b] = (A xs[b])_local` for a panel of `B`
    /// columns, with the panel's communication fused into one message per
    /// peer. Communication failure surfaces as a typed error.
    fn try_apply_block_local(
        &self,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), FaultError>;
}

/// Distributed `A = I - G0 diag(O)` over a [`DistMlfma`].
pub struct DistScatteringOp<'a, 'c> {
    /// The distributed Green's operator.
    pub g0: &'a DistMlfma<'c>,
    /// Local slice of the object vector.
    pub object_local: &'a [C64],
}

impl DistOp for DistScatteringOp<'_, '_> {
    fn try_apply_block_local(
        &self,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), FaultError> {
        assert_eq!(xs_local.len(), ys_local.len(), "block width mismatch");
        // Per-column scaling, one fused G0 traversal for the whole panel.
        let oxs: Vec<Vec<C64>> = xs_local
            .iter()
            .map(|x| {
                self.object_local
                    .iter()
                    .zip(*x)
                    .map(|(o, xi)| *o * *xi)
                    .collect()
            })
            .collect();
        let ox_refs: Vec<&[C64]> = oxs.iter().map(|v| v.as_slice()).collect();
        self.g0.try_apply_block(&ox_refs, ys_local)?;
        for (y, x) in ys_local.iter_mut().zip(xs_local) {
            for (yi, xi) in y.iter_mut().zip(*x) {
                *yi = *xi - *yi;
            }
        }
        Ok(())
    }
}

/// Distributed adjoint `A^H = I - diag(conj O) G0^H` (conjugation trick).
pub struct DistAdjointScatteringOp<'a, 'c> {
    /// The distributed Green's operator.
    pub g0: &'a DistMlfma<'c>,
    /// Local slice of the object vector.
    pub object_local: &'a [C64],
}

impl DistOp for DistAdjointScatteringOp<'_, '_> {
    fn try_apply_block_local(
        &self,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), FaultError> {
        assert_eq!(xs_local.len(), ys_local.len(), "block width mismatch");
        let xcs: Vec<Vec<C64>> = xs_local
            .iter()
            .map(|x| x.iter().map(|v| v.conj()).collect())
            .collect();
        let xc_refs: Vec<&[C64]> = xcs.iter().map(|v| v.as_slice()).collect();
        self.g0.try_apply_block(&xc_refs, ys_local)?;
        for (y, x) in ys_local.iter_mut().zip(xs_local) {
            for ((yi, xi), o) in y.iter_mut().zip(*x).zip(self.object_local) {
                *yi = *xi - o.conj() * yi.conj();
            }
        }
        Ok(())
    }
}

/// The lockstep core's rank-group context: block applies of a [`DistOp`]
/// on local slices, inner products summed among `members`.
struct RankGroup<'a, A: ?Sized> {
    op: &'a A,
    comm: &'a Comm,
    members: &'a [usize],
}

impl<A: DistOp + ?Sized> KrylovContext for RankGroup<'_, A> {
    type Error = FaultError;
    fn try_apply_block(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) -> Result<(), FaultError> {
        self.op.try_apply_block_local(xs, ys)
    }
    fn reduce(&self, vals: &mut [C64]) -> Result<(), FaultError> {
        try_allreduce_scalars(self.comm, self.members, vals)
    }
}

/// Batched distributed BiCGStab: the lockstep core over local slices, with
/// every operator apply a fused [`DistOp::try_apply_block_local`] over the
/// still-active columns and every phase's inner products for the panel
/// riding in ONE allreduce among `members` — the paper's message-fusion
/// idea extended along the illumination dimension.
///
/// Each column's trajectory (iterates, residuals, stats) is bit-identical
/// to solving it alone, and every freeze decision is made from *reduced*
/// scalars, which are bit-identical on all member ranks, so ranks narrow
/// the active set identically and stay in lockstep. A column that breaks
/// down is retried once from its last finite iterate; if it breaks down
/// again the solve surfaces [`FaultError::KrylovBreakdown`]. A
/// communication failure aborts the whole batch with the originating error.
pub fn try_dist_bicgstab_block<A: DistOp + ?Sized>(
    a: &A,
    comm: &Comm,
    members: &[usize],
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
) -> Result<Vec<SolveStats>, FaultError> {
    let ctx = RankGroup {
        op: a,
        comm,
        members,
    };
    let opts = LockstepOptions {
        restarts: 1,
        ..LockstepOptions::default()
    };
    let cols = solve_lockstep(&ctx, bs, xs, cfg, &opts)?;
    cols.into_iter()
        .map(|col| {
            col.into_result().map_err(|e| {
                let SolveError::Breakdown {
                    kind,
                    iterations,
                    rel_residual,
                    restarts,
                    ..
                } = e;
                FaultError::KrylovBreakdown {
                    rank: comm.rank(),
                    iterations,
                    rel_residual,
                    detail: format!("{kind} ({restarts} restart(s) attempted)"),
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DistMlfma;
    use ffw_geometry::Domain;
    use ffw_mlfma::{Accuracy, MlfmaPlan};
    use ffw_numerics::vecops::{rel_diff, zdotc};
    use std::sync::Arc;

    /// `(A x)_local` for one column.
    fn apply1<A: DistOp>(a: &A, x: &[C64]) -> Vec<C64> {
        let mut ys = vec![vec![C64::ZERO; x.len()]];
        a.try_apply_block_local(&[x], &mut ys).expect("apply");
        ys.pop().expect("one column")
    }

    fn random_x(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                c64(a, b)
            })
            .collect()
    }

    #[test]
    fn allreduce_scalars_sums_across_members() {
        let (results, _) = ffw_mpi::run(4, |comm| {
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut vals = [
                c64(comm.rank() as f64, 1.0),
                c64(2.0, -(comm.rank() as f64)),
            ];
            try_allreduce_scalars(&comm, &members, &mut vals).expect("allreduce");
            vals
        });
        for r in results {
            assert_eq!(r[0], c64(6.0, 4.0));
            assert_eq!(r[1], c64(8.0, -6.0));
        }
    }

    #[test]
    fn allreduce_scalars_subset_only_touches_members() {
        // ranks {0, 2} reduce; ranks {1, 3} reduce; results independent
        let (results, _) = ffw_mpi::run(4, |comm| {
            let group = comm.rank() % 2;
            let members: Vec<usize> = vec![group, group + 2];
            let mut v = [c64((comm.rank() + 1) as f64, 0.0)];
            try_allreduce_scalars(&comm, &members, &mut v).expect("allreduce");
            v[0].re
        });
        assert_eq!(results, vec![4.0, 6.0, 4.0, 6.0]); // 1+3, 2+4
    }

    #[test]
    fn allreduce_scalars_rejects_nonmember_caller() {
        // A rank reducing over a member list it is not part of is a protocol
        // bug that previously manifested as a hang; it must now fail fast
        // with a diagnostic (the rank's own assert, propagated by ffw-mpi).
        let result = std::panic::catch_unwind(|| {
            let _ = ffw_mpi::run_with_timeout(3, std::time::Duration::from_millis(80), |comm| {
                // Ranks 0 and 1 reduce correctly; rank 2 passes a member list
                // it does not belong to.
                let members = vec![0, 1];
                let mut v = [c64(1.0, 0.0)];
                try_allreduce_scalars(&comm, &members, &mut v).expect("allreduce");
            });
        });
        let msg = result
            .expect_err("must panic")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("does not include itself"), "got: {msg}");
    }

    #[test]
    fn dist_bicgstab_solves_distributed_scattering_system() {
        let domain = Domain::new(32, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
        let n = plan.n_pixels();
        let object: Vec<C64> = random_x(n, 3).iter().map(|v| v.scale(5.0)).collect();
        let b = random_x(n, 5);
        let n_ranks = 4;
        let per = n / n_ranks;
        let plan2 = Arc::clone(&plan);
        let (obj_ref, b_ref) = (&object, &b);
        let (slices, _) = ffw_mpi::run(n_ranks, move |comm| {
            let members: Vec<usize> = (0..comm.size()).collect();
            let r = comm.rank();
            let g0 = DistMlfma::new(&comm, Arc::clone(&plan2), members.clone(), true);
            let a = DistScatteringOp {
                g0: &g0,
                object_local: &obj_ref[r * per..(r + 1) * per],
            };
            let mut xs = vec![vec![C64::ZERO; per]];
            let stats = try_dist_bicgstab_block(
                &a,
                &comm,
                &members,
                &[&b_ref[r * per..(r + 1) * per]],
                &mut xs,
                ffw_solver::IterConfig {
                    tol: 1e-9,
                    max_iters: 500,
                },
            )
            .expect("solve");
            assert!(stats[0].converged, "{stats:?}");
            xs.pop().expect("one column")
        });
        let x: Vec<C64> = slices.into_iter().flatten().collect();
        // verify the residual with an independent single-rank apply
        let plan3 = Arc::clone(&plan);
        let x_ref = &x;
        let (ys, _) = ffw_mpi::run(1, move |comm| {
            let g0 = DistMlfma::new(&comm, Arc::clone(&plan3), vec![0], true);
            let a = DistScatteringOp {
                g0: &g0,
                object_local: obj_ref,
            };
            apply1(&a, x_ref)
        });
        assert!(rel_diff(&ys[0], &b) < 1e-7, "{}", rel_diff(&ys[0], &b));
    }

    /// The batched distributed solver must reproduce a width-1 solve of
    /// each column bit-for-bit — iterates AND stats — at width 1 and at a
    /// width that exercises real lockstep narrowing, including a zero
    /// right-hand side column riding along.
    #[test]
    fn block_solver_bit_identical_to_scalar_per_column() {
        let domain = Domain::new(32, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
        let n = plan.n_pixels();
        let object: Vec<C64> = random_x(n, 21).iter().map(|v| v.scale(3.0)).collect();
        let cfg = ffw_solver::IterConfig {
            tol: 1e-8,
            max_iters: 400,
        };
        for width in [1usize, 3] {
            let bs_full: Vec<Vec<C64>> = (0..width)
                .map(|c| {
                    if width > 1 && c == 1 {
                        vec![C64::ZERO; n] // zero column must short-circuit
                    } else {
                        random_x(n, 60 + c as u64)
                    }
                })
                .collect();
            let n_ranks = 2;
            let per = n / n_ranks;
            let plan2 = Arc::clone(&plan);
            let (obj_ref, bs_ref) = (&object, &bs_full);
            let (results, _) = ffw_mpi::run(n_ranks, move |comm| {
                let members: Vec<usize> = (0..comm.size()).collect();
                let r = comm.rank();
                let g0 = DistMlfma::new(&comm, Arc::clone(&plan2), members.clone(), true);
                let a = DistScatteringOp {
                    g0: &g0,
                    object_local: &obj_ref[r * per..(r + 1) * per],
                };
                let b_locals: Vec<&[C64]> =
                    bs_ref.iter().map(|b| &b[r * per..(r + 1) * per]).collect();
                // batched solve
                let mut xs = vec![vec![C64::ZERO; per]; width];
                let stats = try_dist_bicgstab_block(&a, &comm, &members, &b_locals, &mut xs, cfg)
                    .expect("block solve");
                // scalar reference, one column at a time
                for (c, b_local) in b_locals.iter().enumerate() {
                    let mut x1 = vec![vec![C64::ZERO; per]];
                    let s1 = try_dist_bicgstab_block(&a, &comm, &members, &[b_local], &mut x1, cfg)
                        .expect("scalar solve")
                        .remove(0);
                    assert_eq!(xs[c], x1[0], "column {c} of width {width} drifted");
                    assert_eq!(
                        (stats[c].iterations, stats[c].matvecs, stats[c].converged),
                        (s1.iterations, s1.matvecs, s1.converged),
                        "column {c} stats mismatch"
                    );
                    assert_eq!(
                        stats[c].rel_residual.to_bits(),
                        s1.rel_residual.to_bits(),
                        "column {c} residual not bit-identical"
                    );
                }
                stats.iter().map(|s| s.converged).collect::<Vec<_>>()
            });
            for per_rank in results {
                assert!(per_rank.iter().all(|&ok| ok), "width {width} not converged");
            }
        }
    }

    #[test]
    fn adjoint_op_consistent_with_forward() {
        // <A x, y> == <x, A^H y> on distributed slices (2 ranks)
        let domain = Domain::new(32, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
        let n = plan.n_pixels();
        let object = random_x(n, 9);
        let x = random_x(n, 11);
        let y = random_x(n, 13);
        let per = n / 2;
        let plan2 = Arc::clone(&plan);
        let (o_ref, x_ref, y_ref) = (&object, &x, &y);
        let (dots, _) = ffw_mpi::run(2, move |comm| {
            let members: Vec<usize> = vec![0, 1];
            let r = comm.rank();
            let g0 = DistMlfma::new(&comm, Arc::clone(&plan2), members.clone(), true);
            let ol = &o_ref[r * per..(r + 1) * per];
            let a = DistScatteringOp {
                g0: &g0,
                object_local: ol,
            };
            let ah = DistAdjointScatteringOp {
                g0: &g0,
                object_local: ol,
            };
            let ax = apply1(&a, &x_ref[r * per..(r + 1) * per]);
            let ahy = apply1(&ah, &y_ref[r * per..(r + 1) * per]);
            let mut d = [
                zdotc(&ax, &y_ref[r * per..(r + 1) * per]),
                zdotc(&x_ref[r * per..(r + 1) * per], &ahy),
            ];
            try_allreduce_scalars(&comm, &members, &mut d).expect("allreduce");
            d
        });
        let (lhs, rhs) = (dots[0][0], dots[0][1]);
        // The adjoint reuses G0^T = G0, which the MLFMA *approximation*
        // satisfies only to its own accuracy (~1e-3 at Accuracy::low); the
        // identity must hold at that level, not machine precision.
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs:?} vs {rhs:?}"
        );
    }
}
