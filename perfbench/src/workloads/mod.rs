//! The four workloads and the measurements they share.

pub mod hop;
pub mod rankgrid;
pub mod recon;
pub mod serve_mix;

use crate::adapter::ApplyStats;
use crate::catalogue::{self, Mode};
use crate::report::Report;
use crate::stats::{median, quantile, timed};
use crate::{roofline, seed, trace, SETUP_REPS, SETUP_SECONDS};
use ffw_inverse::MlfmaG0;
use ffw_mlfma::{MlfmaEngine, MlfmaPlan};
use ffw_numerics::{c64, C64};
use ffw_obs::Snapshot;
use ffw_par::Pool;
use ffw_solver::BlockLinOp;
use rand::Rng;
use std::sync::Arc;

/// Busy threads the benchmark may use (the host has two cores).
pub const THREADS: usize = 2;

/// Runs `f` `reps` times and returns the last result with every duration.
pub fn repeat_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (out, secs) = timed(&mut f);
        times.push(secs);
        last = Some(out);
    }
    (last.expect("at least one repetition"), times)
}

/// Runs a workload's set-up until [`SETUP_SECONDS`] have passed and it ran
/// at least [`SETUP_REPS`] times; returns the last result with every
/// duration.
pub fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let sw = ffw_obs::Stopwatch::start();
    let mut times = Vec::new();
    loop {
        let (out, secs) = timed(&mut f);
        times.push(secs);
        if times.len() >= SETUP_REPS && sw.elapsed_secs() >= SETUP_SECONDS {
            return (out, times);
        }
    }
}

/// Solves of one untraced run, each with its duration.
pub struct Solves<T> {
    /// Every result with its duration, in order.
    pub runs: Vec<(T, f64)>,
    /// `VmHWM` right after the first solve: set-up plus one solve. Later
    /// solves start new rank threads whose allocator arenas grow the peak
    /// by a scheduling-dependent amount, so the peak is taken before them.
    pub peak_rss_mb: f64,
}

impl<T> Solves<T> {
    /// The durations.
    pub fn times(&self) -> Vec<f64> {
        self.runs.iter().map(|(_, t)| *t).collect()
    }

    /// The last result.
    pub fn last(&self) -> &T {
        &self.runs.last().expect("at least one solve").0
    }
}

/// Repeats `f` until `seconds` have passed and it ran at least `min_reps`
/// times.
pub fn repeat_for<T>(seconds: f64, min_reps: usize, mut f: impl FnMut() -> T) -> Solves<T> {
    let sw = ffw_obs::Stopwatch::start();
    let mut runs = vec![timed(&mut f)];
    let peak_rss_mb = crate::stats::peak_rss_mb();
    while runs.len() < min_reps || sw.elapsed_secs() < seconds {
        runs.push(timed(&mut f));
    }
    Solves { runs, peak_rss_mb }
}

/// The end-to-end metrics of a workload made of whole reconstructions:
/// each reconstruction is one job whose latency is the set-up median plus
/// its solve. `quality` is the image error and final residual with the
/// number of solves they summarise.
pub fn single_job_metrics<T>(
    report: &mut Report,
    setups: &[f64],
    solves: &Solves<T>,
    quality: (f64, f64, usize),
) {
    let (image_error, final_residual, quality_samples) = quality;
    let setup = median(setups);
    let times = solves.times();
    let jobs: Vec<f64> = times.iter().map(|s| setup + s).collect();
    report.set("setup_s", setup, setups.len());
    report.set("solve_s", median(&times), times.len());
    report.set("image_error", image_error, quality_samples);
    report.set("final_residual", final_residual, quality_samples);
    report.set("jobs_per_s", 1.0 / median(&jobs), jobs.len());
    report.set("job_p50_s", median(&jobs), jobs.len());
    report.set("job_p90_s", quantile(&jobs, 0.9), jobs.len());
    report.set("peak_rss_mb", solves.peak_rss_mb, 1);
}

/// Starts a traced report: every per-layer metric at 0 with 0 samples, so
/// a layer the workload never enters reports that it did no work; the
/// workload then overwrites what it measured.
pub fn traced_report() -> Report {
    let mut r = Report::default();
    for e in catalogue::of_mode(Mode::PerLayer) {
        r.set(e.name, 0.0, 0);
    }
    r
}

/// Host roofline probes; returns the panel-kernel peak in GFLOP/s.
pub fn host_probes(report: &mut Report, seed: u64) -> f64 {
    let t = roofline::triad(THREADS, 3);
    println!(
        "triad arrays: 3 x {:.0} MiB each, last-level cache {:.0} MiB",
        t.array_bytes as f64 / (1 << 20) as f64,
        t.llc_bytes as f64 / (1 << 20) as f64
    );
    report.set("numerics.triad_gbs", t.gbs, 3);
    let peak = roofline::panel_gflops(THREADS, seed);
    report.set("numerics.panel_gflops", peak, 3);
    peak
}

/// One fused width-8 `apply_block` of `plan` on a 1-thread and a 2-thread
/// pool (median of five each); sets `par.apply_speedup_2v1`.
pub fn par_probe(report: &mut Report, plan: &Arc<MlfmaPlan>, seed: u64) {
    const WIDTH: usize = 8;
    const REPS: usize = 5;
    let n = plan.n_pixels();
    let mut rng = seed::stream(seed, seed::PROBE);
    let xs: Vec<Vec<C64>> = (0..WIDTH)
        .map(|_| {
            (0..n)
                .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect()
        })
        .collect();
    let cols: Vec<&[C64]> = xs.iter().map(Vec::as_slice).collect();
    let time_on = |threads: usize| {
        let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(
            Arc::clone(plan),
            Arc::new(Pool::new(threads)),
        )));
        let mut ys = vec![vec![C64::ZERO; n]; WIDTH];
        g0.apply_block(&cols, &mut ys);
        let (_, times) = repeat_timed(REPS, || g0.apply_block(&cols, &mut ys));
        median(&times)
    };
    let t1 = time_on(1);
    let t2 = time_on(THREADS);
    report.set("par.apply_speedup_2v1", t1 / t2, REPS);
}

/// Times `MlfmaPlan::new` for `domain` (median of `reps`).
pub fn plan_build_probe(
    report: &mut Report,
    domain: &ffw_geometry::Domain,
    accuracy: ffw_mlfma::Accuracy,
    reps: usize,
) {
    let (_, times) = repeat_timed(reps, || MlfmaPlan::new(domain, accuracy));
    report.set("mlfma.plan_build_s", median(&times), times.len());
}

/// Computed FLOPs of `columns` applies of `plan`: `(total, near field)`,
/// from the plan's `PlanStats` cost model.
pub fn plan_flops(plan: &MlfmaPlan, columns: u64) -> (f64, f64) {
    let st = plan.stats();
    (
        st.total_flops() * columns as f64,
        st.nearfield_flops * columns as f64,
    )
}

/// MLFMA, solver and inverse metrics of serial DBIM solves run through the
/// timing adapter: `applies` is the adapter's record, `flops` the
/// [`plan_flops`] of those applies, `snap` the program's own spans and
/// counters over the same solves.
pub fn serial_layers(
    report: &mut Report,
    snap: &Snapshot,
    applies: ApplyStats,
    flops: (f64, f64),
    panel_peak: f64,
) {
    let (total_flops, near_flops) = flops;
    let cols = applies.columns as f64;
    let near = trace::span_s(snap, "mlfma.apply/near");
    let agg = trace::span_s(snap, "mlfma.apply/aggregate");
    let tra = trace::span_s(snap, "mlfma.apply/translate");
    let dis = trace::span_s(snap, "mlfma.apply/disaggregate");
    let gflops = total_flops / applies.busy_s * 1e-9;
    report.set("mlfma.apply_s", applies.busy_s, applies.calls as usize);
    report.set("mlfma.block_calls", applies.calls as f64, 1);
    report.set("mlfma.columns", cols, 1);
    report.set("mlfma.gflops", gflops, applies.calls as usize);
    report.set("mlfma.roofline_frac", gflops / panel_peak, 1);
    report.set("mlfma.near_s", near, applies.calls as usize);
    report.set("mlfma.aggregate_s", agg, applies.calls as usize);
    report.set("mlfma.translate_s", tra, applies.calls as usize);
    report.set("mlfma.disaggregate_s", dis, applies.calls as usize);
    report.set("mlfma.near_gflops", near_flops / near * 1e-9, 1);
    let far_flops = total_flops - near_flops;
    report.set("mlfma.far_gflops", far_flops / (agg + tra + dis) * 1e-9, 1);
    solver_layers(report, snap);
    for (name, suffix) in [
        ("inverse.fields_s", "iter/fields"),
        ("inverse.gradient_s", "iter/gradient"),
        ("inverse.step_s", "iter/step"),
        ("inverse.final_s", "dbim/final"),
        ("inverse.wgcv_s", "iter/wgcv"),
    ] {
        report.set(name, trace::span_s(snap, suffix), 1);
    }
    report.set(
        "inverse.self_s",
        trace::span_s(snap, "dbim") - applies.busy_s,
        1,
    );
}

/// Solver metrics from the program's own counters and spans.
pub fn solver_layers(report: &mut Report, snap: &Snapshot) {
    report.set(
        "solver.iters",
        trace::counter(snap, "solver.bicgstab.iters") as f64,
        1,
    );
    let krylov = trace::span_s(snap, "solver.bicgstab");
    let inner = trace::span_within_s(snap, "solver.bicgstab", "mlfma.apply");
    report.set("solver.self_s", krylov - inner, 1);
}

/// `obs.overhead_ratio` with both of its bases.
pub fn overhead(report: &mut Report, traced_s: f64, untraced_s: f64) {
    report.set("obs.traced_solve_s", traced_s, 1);
    report.set("obs.untraced_solve_s", untraced_s, 1);
    report.set("obs.overhead_ratio", traced_s / untraced_s, 1);
}

/// Checkpoint size and `Checkpoint::decode` + `save` time (median of five)
/// for the checkpoint file at `path`.
pub fn checkpoint_probe(report: &mut Report, path: &std::path::Path) -> Result<(), String> {
    const REPS: usize = 5;
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let copy = path.with_extension("probe");
    let mut err = None;
    let (_, times) = repeat_timed(REPS, || {
        let r = ffw_fault::Checkpoint::decode(&bytes).and_then(|c| c.save(&copy));
        if let Err(e) = r {
            err = Some(e.to_string());
        }
    });
    let _ = std::fs::remove_file(&copy);
    if let Some(e) = err {
        return Err(format!("checkpoint decode/save: {e}"));
    }
    report.set("fault.checkpoint_bytes", bytes.len() as f64, 1);
    report.set("fault.checkpoint_save_s", median(&times), REPS);
    Ok(())
}
