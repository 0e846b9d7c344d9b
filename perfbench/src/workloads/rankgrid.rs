//! `rankgrid-64`: fault-tolerant distributed DBIM (`run_dbim_ft`) on a 1x2
//! rank grid — one illumination group, two sub-tree ranks — with an
//! outer-iteration checkpoint. The only workload where the dist engine's
//! halo exchange, the mpi allreduces and the checkpoint gather/save work.

use super::recon::{prepare, Prepared};
use super::{repeat_for, repeat_setup, single_job_metrics};
use crate::report::Report;
use crate::stats::{rel_diff, timed};
use crate::{trace, RunOpts};
use ffw_dist::{run_dbim_ft, FtConfig, FtDbimResult};
use ffw_inverse::DbimConfig;
use ffw_phantom::image_rel_error;
use ffw_solver::VerifyConfig;
use ffw_tomo::SceneConfig;
use std::path::Path;
use std::sync::Arc;

const SIZE: usize = 64;
const TX: usize = 16;
const RX: usize = 32;
const CONTRAST: f64 = 0.05;
const ITERATIONS: usize = 6;
const GROUPS: usize = 1;
const SUBTREE: usize = 2;
/// Solves per run at least; rank-thread scheduling makes single solves
/// vary more than serial ones, so the median takes three.
const MIN_SOLVES: usize = 3;
/// The repository's serial-vs-distributed agreement invariant.
const SERIAL_TOL: f64 = 1e-12;

fn dbim_config(p: &Prepared) -> DbimConfig {
    DbimConfig {
        iterations: ITERATIONS,
        verify: Some(VerifyConfig::with_rel_tol(
            p.recon.plan.accuracy.checksum_rel_tol(),
        )),
        ..Default::default()
    }
}

fn solve(p: &Prepared, ckpt: &Path) -> FtDbimResult {
    let _ = std::fs::remove_file(ckpt);
    let cfg = FtConfig {
        dbim: dbim_config(p),
        checkpoint: Some(ckpt.to_path_buf()),
        ..FtConfig::new(GROUPS, SUBTREE)
    };
    run_dbim_ft(&p.recon.setup, Arc::clone(&p.recon.plan), &p.measured, &cfg)
        .expect("clean fault-tolerant run")
}

fn check(report: &mut Report, p: &Prepared, r: &FtDbimResult) -> f64 {
    report.check(
        r.lost_txs.is_empty() && r.restarts == 0 && r.interrupted.is_none(),
        || {
            format!(
                "rankgrid-64: lost_txs {:?}, restarts {}, interrupted {:?}",
                r.lost_txs, r.restarts, r.interrupted
            )
        },
    );
    let err = image_rel_error(&p.recon.image(&r.object), &p.truth);
    report.check(
        err.is_finite() && r.residual_history.len() == ITERATIONS && r.final_residual < 1.0,
        || {
            format!(
                "rankgrid-64: image error {err}, residual {}",
                r.final_residual
            )
        },
    );
    err
}

/// Untraced run.
pub fn run(opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let scene = SceneConfig::new(SIZE, TX, RX);
    let (p, setups) = repeat_setup(|| prepare(&scene, CONTRAST, opts.seed));
    let ckpt = opts.tmp.join("rankgrid.ckpt");
    let solves = repeat_for(opts.seconds, MIN_SOLVES, || solve(&p, &ckpt));
    let mut err = f64::NAN;
    for (r, _) in &solves.runs {
        err = check(&mut report, &p, r);
    }
    let last = solves.last();
    single_job_metrics(&mut report, &setups, &solves, (err, last.final_residual, 1));
    report
}

/// Traced run: the distributed solve with the recorder on, its checkpoint
/// file, and the same data solved serially on a 1-thread pool.
pub fn run_traced(opts: &RunOpts) -> Report {
    let mut report = super::traced_report();
    super::host_probes(&mut report, opts.seed);
    let scene = SceneConfig::new(SIZE, TX, RX);
    let p = prepare(&scene, CONTRAST, opts.seed);
    report.set("inverse.synthesize_s", p.synthesize_s, 1);
    super::plan_build_probe(&mut report, p.recon.domain(), scene.accuracy, 3);
    super::par_probe(&mut report, &p.recon.plan, opts.seed);
    let ckpt = opts.tmp.join("rankgrid.ckpt");
    let (_, untraced_s) = timed(|| solve(&p, &ckpt));
    trace::start();
    let (r, traced_s) = timed(|| solve(&p, &ckpt));
    let snap = trace::finish();
    check(&mut report, &p, &r);
    if let Err(e) = super::checkpoint_probe(&mut report, &ckpt) {
        report.check(false, || format!("rankgrid-64: {e}"));
    }
    super::solver_layers(&mut report, &snap);
    let bytes = trace::counter(&snap, "mpi.bytes.total") as f64;
    report.set("mpi.bytes", bytes, 1);
    report.set(
        "mpi.messages",
        trace::counter(&snap, "mpi.messages.total") as f64,
        1,
    );
    report.set("mpi.bytes_per_iter", bytes / ITERATIONS as f64, 1);
    report.set("dist.run_s", untraced_s, 1);
    super::overhead(&mut report, traced_s, untraced_s);

    let serial_scene = SceneConfig {
        threads: 1,
        ..SceneConfig::new(SIZE, TX, RX)
    };
    let serial = prepare(&serial_scene, CONTRAST, opts.seed);
    let cfg = dbim_config(&serial);
    let (s, serial_s) = timed(|| {
        serial
            .recon
            .run_dbim_with(&serial.measured, &cfg)
            .expect("clean serial DBIM run")
    });
    report.set("dist.speedup_vs_serial1", serial_s / untraced_s, 1);
    let diff = rel_diff(&r.object, &s.object);
    report.check(diff < SERIAL_TOL, || {
        format!("rankgrid-64: distributed vs serial object differ by {diff:e} (> {SERIAL_TOL:e})")
    });
    report
}
