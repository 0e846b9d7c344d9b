//! The lockstep BiCGStab core records its `solver.bicgstab.*` counters on
//! rank threads too: a traced rank-grid run counts every distributed solve
//! once per member rank of the group that performed it.
//!
//! This file holds a single test on purpose: the metrics recorder is
//! process-global, so a concurrently traced test would blend its counts in.

use ffw_dist::{run_dbim_ft, FtConfig};
use ffw_geometry::{Domain, TransducerArray};
use ffw_inverse::{synthesize_measurements, DbimConfig, ImagingSetup, MlfmaG0};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
use ffw_solver::IterConfig;
use std::sync::Arc;

#[test]
fn rank_grid_solves_are_counted_per_rank() {
    let domain = Domain::new(32, 1.0);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
    let ring = 2.0 * domain.side();
    let n_tx = 2;
    let setup = ImagingSetup::new(
        domain.clone(),
        TransducerArray::ring(n_tx, ring),
        TransducerArray::ring(8, ring),
    );
    let object: Vec<C64> = (0..setup.n_pixels())
        .map(|i| c64(0.05 * (i % 5) as f64, 0.0))
        .collect();
    let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(
        Arc::clone(&plan),
        Arc::new(Pool::new(1)),
    )));
    let measured = synthesize_measurements(&setup, &g0, &object, IterConfig::default());
    let (groups, subtree) = (1, 2);
    let ft = FtConfig {
        dbim: DbimConfig {
            iterations: 1,
            ..Default::default()
        },
        ..FtConfig::new(groups, subtree)
    };

    ffw_obs::reset();
    ffw_obs::set_enabled(true);
    let result = run_dbim_ft(&setup, plan, &measured, &ft);
    let snap = ffw_obs::snapshot();
    ffw_obs::set_enabled(false);
    result.expect("clean run");
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };

    // One outer iteration is three solves per transmitter (fields, gradient,
    // step), plus the final residual's fields solve: four per transmitter.
    // Each of the group's sub-tree ranks runs every solve on its own slice
    // and records it, so the count is per rank, not per group.
    let per_group = 4 * n_tx as u64;
    assert_eq!(
        counter("solver.bicgstab.solves"),
        per_group * subtree as u64
    );
    let iters = counter("solver.bicgstab.iters");
    assert!(iters > 0, "rank-grid solves must record their iterations");
    assert_eq!(
        iters % subtree as u64,
        0,
        "every member rank records the same solves"
    );
    assert!(counter("solver.bicgstab.matvecs") > iters);
}
