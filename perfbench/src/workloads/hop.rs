//! `hop-limited`: the limited-aperture frequency-hopping scene pinned by
//! `BENCH_pr10.json` (32², T=8, R=16, 210° arc, contrast-0.25 cylinder,
//! hops `2.0,1.0`, `wgcv-lsqr:12:0.8`, 8 iterations) plus seeded 40 dB
//! noise: per run one noise-free solve, which must pass `hop_quality`'s
//! absolute gate, and six noisy realisations. The only workload
//! where the regularizer (Golub–Kahan + SVD) and the multi-frequency
//! stages do the work.

use super::{repeat_for, repeat_setup, single_job_metrics};
use crate::adapter::{ApplyStats, TimedG0};
use crate::report::Report;
use crate::stats::{mean, timed};
use crate::{seed, trace, RunOpts, SNR_DB};
use ffw_geometry::Point2;
use ffw_inverse::{
    multi_frequency_dbim_with, DbimConfig, FrequencyHop, MultiFreqConfig, MultiFreqResult,
};
use ffw_numerics::C64;
use ffw_phantom::{image_rel_error, Cylinder, Phantom};
use ffw_tomo::{HopPipeline, HopSchedule, Regularizer, SceneConfig};

const SIZE: usize = 32;
const TX: usize = 8;
const RX: usize = 16;
const ARC_DEG: f64 = 210.0;
const CONTRAST: f64 = 0.25;
const RADIUS_FACTOR: f64 = 0.35;
const ITERATIONS: usize = 8;
/// Solves per run at least, one per data set; their median is `solve_s`.
const MIN_SOLVES: usize = REALISATIONS + 1;
const SCHEDULE: &str = "2.0,1.0";
const REGULARIZER: Regularizer = Regularizer::WgcvLsqr {
    steps: 12,
    omega: 0.8,
};
/// `hop_quality`'s absolute image-error gate, applied to the noise-free
/// solve of the pinned scene.
const ERROR_GATE: f64 = 0.30;
/// Noise realisations per run, solved in turn; `image_error` and
/// `final_residual` are their means.
const REALISATIONS: usize = 6;

struct Prepared {
    scene: SceneConfig,
    pipeline: HopPipeline,
    /// Per-stage measurements: the noise-free set, then one set per noise
    /// realisation.
    datasets: Vec<Vec<Vec<Vec<C64>>>>,
    truth: Vec<f64>,
    synthesize_s: f64,
}

fn scene() -> SceneConfig {
    let span = ARC_DEG.to_radians();
    SceneConfig::new(SIZE, TX, RX).with_arc(-span / 2.0, span)
}

fn phantom(pipeline: &HopPipeline) -> Cylinder {
    Cylinder {
        center: Point2::ZERO,
        radius: RADIUS_FACTOR * pipeline.final_stage().domain().side(),
        contrast: CONTRAST,
    }
}

fn prepare(seed: u64) -> Prepared {
    let scene = scene();
    let schedule = HopSchedule::parse(SCHEDULE).expect("pinned schedule");
    let pipeline = HopPipeline::new(&scene, &schedule);
    let truth_phantom = phantom(&pipeline);
    let (clean, synthesize_s) = timed(|| pipeline.synthesize(&truth_phantom));
    let noisy: Vec<_> = seed::noise_seeds(seed, REALISATIONS)
        .into_iter()
        .map(|noise| {
            let mut measured = clean.clone();
            HopPipeline::add_noise(&mut measured, SNR_DB, noise);
            measured
        })
        .collect();
    let datasets = std::iter::once(clean).chain(noisy).collect();
    let truth = truth_phantom.rasterize(pipeline.final_stage().domain());
    Prepared {
        scene,
        pipeline,
        datasets,
        truth,
        synthesize_s,
    }
}

fn config() -> DbimConfig {
    DbimConfig {
        regularizer: REGULARIZER,
        ..Default::default()
    }
}

/// Solves data set `i` (0 is the noise-free one), cycling over the sets.
fn solve(p: &Prepared, i: usize) -> MultiFreqResult {
    let fp = p.pipeline.fingerprint(&p.scene, ITERATIONS);
    let measured = &p.datasets[i % p.datasets.len()];
    p.pipeline
        .run(measured, ITERATIONS, &config(), None, false, fp, None)
        .expect("clean hop run")
}

/// The image error of `r`, after checking that it is finite and that every
/// stage chose finite, positive lambdas.
fn check(report: &mut Report, p: &Prepared, r: &MultiFreqResult) -> f64 {
    let err = image_rel_error(&p.pipeline.final_stage().image(&r.object), &p.truth);
    report.check(err.is_finite(), || {
        format!("hop-limited: image error {err}")
    });
    let lambdas_ok = r.stages.len() == p.pipeline.stages.len()
        && r.stages
            .iter()
            .all(|s| !s.lambdas.is_empty() && s.lambdas.iter().all(|l| l.is_finite() && *l > 0.0));
    report.check(lambdas_ok, || {
        let l: Vec<&Vec<f64>> = r.stages.iter().map(|s| &s.lambdas).collect();
        format!("hop-limited: lambdas not finite and positive in every stage: {l:?}")
    });
    err
}

fn final_residual(r: &MultiFreqResult) -> f64 {
    r.stages.last().map_or(f64::NAN, |s| s.final_residual)
}

/// Gates the image error of the noise-free solve, exactly `hop_quality`'s
/// hop leg, at [`ERROR_GATE`].
fn quality_gate(report: &mut Report, err: f64) {
    println!("noise-free solve: image error {err:.4} (gate {ERROR_GATE})");
    report.check(err <= ERROR_GATE, || {
        format!("hop-limited: noise-free image error {err:.4} > {ERROR_GATE}")
    });
}

/// Untraced run.
pub fn run(opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let (p, setups) = repeat_setup(|| prepare(opts.seed));
    let mut next = 0;
    let solves = repeat_for(opts.seconds, MIN_SOLVES, || {
        next += 1;
        solve(&p, next - 1)
    });
    let errors: Vec<f64> = solves
        .runs
        .iter()
        .map(|(r, _)| check(&mut report, &p, r))
        .collect();
    for (i, (e, (r, _))) in errors.iter().zip(&solves.runs).enumerate() {
        println!(
            "solve {i} (data set {}): image error {e:.4}, final residual {:.5}",
            i % p.datasets.len(),
            final_residual(r)
        );
    }
    quality_gate(&mut report, errors[0]);
    // Each noisy realisation once: a solve of the same data repeats exactly.
    let noisy = 1..=REALISATIONS;
    let residuals: Vec<f64> = solves.runs[noisy.clone()]
        .iter()
        .map(|(r, _)| final_residual(r))
        .collect();
    let (err, residual) = (mean(&errors[noisy]), mean(&residuals));
    single_job_metrics(&mut report, &setups, &solves, (err, residual, REALISATIONS));
    report
}

/// Traced run: the same schedule driven through one timing adapter per
/// stage, so each stage's share is measured from outside.
pub fn run_traced(opts: &RunOpts) -> Report {
    let mut report = super::traced_report();
    let peak = super::host_probes(&mut report, opts.seed);
    let p = prepare(opts.seed);
    let final_plan = &p.pipeline.final_stage().plan;
    super::plan_build_probe(
        &mut report,
        p.pipeline.final_stage().domain(),
        p.scene.accuracy,
        5,
    );
    report.set("inverse.synthesize_s", p.synthesize_s, 1);
    super::par_probe(&mut report, final_plan, opts.seed);
    let clean = solve(&p, 0);
    let clean_err = check(&mut report, &p, &clean);
    quality_gate(&mut report, clean_err);
    let (plain, untraced_s) = timed(|| solve(&p, 1));
    check(&mut report, &p, &plain);

    let split = p.pipeline.schedule().split_iterations(ITERATIONS);
    let adapters: Vec<TimedG0<'_, _>> = p
        .pipeline
        .stages
        .iter()
        .map(|s| TimedG0::new(s.g0()))
        .collect();
    let hops: Vec<FrequencyHop<'_, _>> = p
        .pipeline
        .stages
        .iter()
        .zip(&p.datasets[1])
        .zip(&split)
        .zip(&adapters)
        .map(|(((stage, measured), &iterations), g0)| FrequencyHop {
            setup: &stage.setup,
            g0,
            measured,
            iterations,
        })
        .collect();
    let cfg = MultiFreqConfig {
        base: config(),
        fingerprint: p.pipeline.fingerprint(&p.scene, ITERATIONS),
        ..Default::default()
    };
    trace::start();
    let t0 = ffw_obs::monotonic_ns();
    let (r, traced_s) =
        timed(|| multi_frequency_dbim_with(&hops, &cfg, None).expect("clean hop run"));
    let t1 = ffw_obs::monotonic_ns();
    let snap = trace::finish();
    check(&mut report, &p, &r);
    report.check(r.object == plain.object, || {
        "hop-limited: the traced solve differs from the untraced one".into()
    });

    // Stage boundaries from outside: the final stage starts with its
    // operator's first apply.
    let final_start = adapters.last().expect("two stages").stats().first_ns;
    report.set("inverse.hop_low_s", (final_start - t0) as f64 * 1e-9, 1);
    report.set("inverse.hop_final_s", (t1 - final_start) as f64 * 1e-9, 1);
    let mut applies = ApplyStats::default();
    let mut flops = (0.0, 0.0);
    for (stage, a) in p.pipeline.stages.iter().zip(&adapters) {
        let s = a.stats();
        applies.busy_s += s.busy_s;
        applies.calls += s.calls;
        applies.columns += s.columns;
        let (total, near) = super::plan_flops(&stage.plan, s.columns);
        flops.0 += total;
        flops.1 += near;
    }
    super::serial_layers(&mut report, &snap, applies, flops, peak);
    let solves: usize = r.stages.iter().map(|s| s.forward_solves).sum();
    let g0: usize = r.stages.iter().map(|s| s.g0_applies).sum();
    report.set("inverse.forward_solves", solves as f64, 1);
    report.set("inverse.g0_applies", g0 as f64, 1);
    super::overhead(&mut report, traced_s, untraced_s);
    report
}
