//! The benchmark's timing adapter must not perturb what it measures: a
//! 32² DBIM run through it gives a bit-identical object and residual
//! history to the bare `MlfmaG0`, at batch 1 and at batch 8.

use ffw_geometry::Point2;
use ffw_inverse::{dbim, DbimConfig};
use ffw_perfbench::adapter::TimedG0;
use ffw_phantom::Cylinder;
use ffw_solver::VerifyConfig;
use ffw_tomo::{Reconstruction, SceneConfig};

fn check_batch(batch: usize) {
    let recon = Reconstruction::new(&SceneConfig::new(32, 8, 16));
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: 0.25 * recon.domain().side(),
        contrast: 0.05,
    };
    let measured = recon.synthesize(&truth);
    let cfg = DbimConfig {
        iterations: 3,
        batch: Some(batch),
        verify: Some(VerifyConfig::with_rel_tol(
            recon.plan.accuracy.checksum_rel_tol(),
        )),
        ..Default::default()
    };
    let bare = dbim(&recon.setup, recon.g0(), &measured, &cfg).expect("bare run");
    let timed = TimedG0::new(recon.g0());
    let wrapped = dbim(&recon.setup, &timed, &measured, &cfg).expect("wrapped run");

    let bits = |v: &[ffw_numerics::C64]| {
        v.iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&wrapped.object),
        bits(&bare.object),
        "batch {batch}: object"
    );
    let history = |r: &ffw_inverse::DbimResult| {
        r.history
            .iter()
            .map(|h| (h.rel_residual.to_bits(), h.cost.to_bits(), h.solver_iters))
            .collect::<Vec<_>>()
    };
    assert_eq!(history(&wrapped), history(&bare), "batch {batch}: history");
    assert_eq!(
        wrapped.final_residual.to_bits(),
        bare.final_residual.to_bits()
    );
    assert_eq!(wrapped.forward_solves, bare.forward_solves);
    // The adapter sits below the ABFT wrapper, so it also sees the
    // checksum applies on top of the ones the program counts.
    let stats = timed.stats();
    assert!(
        stats.columns as usize >= bare.g0_applies,
        "batch {batch}: columns"
    );
    assert!(stats.calls > 0 && stats.busy_s > 0.0);
}

#[test]
fn adapter_is_transparent_at_batch_1() {
    check_batch(1);
}

#[test]
fn adapter_is_transparent_at_batch_8() {
    check_batch(8);
}
