//! `recon-128`: serial DBIM at ROADMAP's M tier, the equivalent of
//! `ffw-reconstruct --size 128 --tx 16 --rx 32 --phantom shepp-logan
//! --contrast 0.05 --iterations 4` with its defaults (BiCGStab, batch 8,
//! ABFT verification on) plus seeded 40 dB measurement noise.

use super::{repeat_for, repeat_setup, single_job_metrics};
use crate::adapter::TimedG0;
use crate::report::Report;
use crate::stats::timed;
use crate::{seed, trace, RunOpts, SNR_DB};
use ffw_inverse::{add_noise, dbim, DbimConfig, DbimResult};
use ffw_numerics::C64;
use ffw_phantom::{image_rel_error, Phantom, SheppLogan};
use ffw_solver::VerifyConfig;
use ffw_tomo::{Reconstruction, SceneConfig};

const SIZE: usize = 128;
const TX: usize = 16;
const RX: usize = 32;
const CONTRAST: f64 = 0.05;
const ITERATIONS: usize = 4;
const BATCH: usize = 8;
/// Solves per run at least; their median is `solve_s`.
const MIN_SOLVES: usize = 2;

/// A built pipeline with its noisy measurements and ground truth.
pub struct Prepared {
    /// The pipeline.
    pub recon: Reconstruction,
    /// Noisy measurements.
    pub measured: Vec<Vec<C64>>,
    /// Ground-truth contrast raster.
    pub truth: Vec<f64>,
    /// Seconds the measurement synthesis took.
    pub synthesize_s: f64,
}

/// Builds the plan and synthesizes noisy data for a Shepp–Logan scene;
/// `threads = 0` uses the global pool size.
pub fn prepare(scene: &SceneConfig, contrast: f64, seed: u64) -> Prepared {
    let recon = Reconstruction::new(scene);
    let phantom = SheppLogan::new(0.45 * recon.domain().side(), contrast);
    let (mut measured, synthesize_s) = timed(|| recon.synthesize(&phantom));
    add_noise(&mut measured, SNR_DB, seed::noise_seed(seed));
    let truth = phantom.rasterize(recon.domain());
    Prepared {
        recon,
        measured,
        truth,
        synthesize_s,
    }
}

fn scene() -> SceneConfig {
    SceneConfig::new(SIZE, TX, RX)
}

fn config(recon: &Reconstruction) -> DbimConfig {
    DbimConfig {
        iterations: ITERATIONS,
        batch: Some(BATCH),
        verify: Some(VerifyConfig::with_rel_tol(
            recon.plan.accuracy.checksum_rel_tol(),
        )),
        ..Default::default()
    }
}

fn check(report: &mut Report, p: &Prepared, r: &DbimResult) -> f64 {
    let expected = TX * (3 * ITERATIONS + 1);
    report.check(r.forward_solves == expected, || {
        format!(
            "recon-128: forward_solves {} != T(3K+1) = {expected}",
            r.forward_solves
        )
    });
    let err = image_rel_error(&p.recon.image(&r.object), &p.truth);
    report.check(
        err.is_finite() && r.final_residual.is_finite() && r.final_residual < 1.0,
        || {
            format!(
                "recon-128: image error {err}, residual {}",
                r.final_residual
            )
        },
    );
    err
}

/// Untraced run: set-up repeated, then solves until the budget is spent.
pub fn run(opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let (p, setups) = repeat_setup(|| prepare(&scene(), CONTRAST, opts.seed));
    let cfg = config(&p.recon);
    let solves = repeat_for(opts.seconds, MIN_SOLVES, || {
        dbim(&p.recon.setup, p.recon.g0(), &p.measured, &cfg).expect("clean DBIM run")
    });
    let mut err = f64::NAN;
    for (r, _) in &solves.runs {
        err = check(&mut report, &p, r);
    }
    let last = solves.last();
    single_job_metrics(&mut report, &setups, &solves, (err, last.final_residual, 1));
    report
}

/// Traced run: host probes, plan build, synthesis, the 1- vs 2-thread
/// apply probe, and one untraced plus one traced solve.
pub fn run_traced(opts: &RunOpts) -> Report {
    let mut report = super::traced_report();
    let peak = super::host_probes(&mut report, opts.seed);
    let scene = scene();
    let p = prepare(&scene, CONTRAST, opts.seed);
    report.set("inverse.synthesize_s", p.synthesize_s, 1);
    super::plan_build_probe(&mut report, p.recon.domain(), scene.accuracy, 1);
    super::par_probe(&mut report, &p.recon.plan, opts.seed);
    let cfg = config(&p.recon);
    let (plain, untraced_s) =
        timed(|| dbim(&p.recon.setup, p.recon.g0(), &p.measured, &cfg).expect("clean DBIM run"));
    check(&mut report, &p, &plain);
    trace::start();
    let g0 = TimedG0::new(p.recon.g0());
    let (r, traced_s) =
        timed(|| dbim(&p.recon.setup, &g0, &p.measured, &cfg).expect("clean DBIM run"));
    let snap = trace::finish();
    check(&mut report, &p, &r);
    report.check(r.object == plain.object, || {
        "recon-128: the traced solve differs from the untraced one".into()
    });
    let applies = g0.stats();
    let flops = super::plan_flops(&p.recon.plan, applies.columns);
    super::serial_layers(&mut report, &snap, applies, flops, peak);
    report.set("inverse.forward_solves", r.forward_solves as f64, 1);
    report.set("inverse.g0_applies", r.g0_applies as f64, 1);
    super::overhead(&mut report, traced_s, untraced_s);
    report
}
