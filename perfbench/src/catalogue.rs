//! The metric catalogue: every metric the benchmark reports, with its unit,
//! its layer, whether it is an exact count or a measurement, and which
//! end-to-end metric it should move on which workload. `BENCHMARK.json`
//! lists the same names and units in the same order (checked by
//! `tests/catalogue.rs`); this table carries the descriptions that the
//! fixed `BENCHMARK.json` schema has no field for. `--catalogue` prints it.
//!
//! Every run reports every metric of its mode. A layer a workload never
//! enters (serve on recon-128, mpi on hop-limited, the MLFMA adapter on
//! the rank grid, whose engine has its own operator) reports 0 with 0
//! samples: the measured prediction that the workload does not use it.

/// Whether a metric comes from untraced (end-to-end) or traced
/// (per-layer) runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Reported by `--trace 0` runs.
    EndToEnd,
    /// Reported by `--trace 1` runs.
    PerLayer,
}

/// What kind of number a metric is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A wall-clock measurement.
    Timing,
    /// A rate or ratio derived from wall-clock measurements.
    Rate,
    /// A count that must repeat exactly at a fixed seed.
    ExactCount,
    /// A FLOP count from `PlanStats` divided by a measured time: the
    /// operation count is computed, not measured.
    ComputedRate,
    /// A property of the answer (error, residual).
    Quality,
    /// A size read from the operating system or a file.
    Size,
}

impl Kind {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Timing => "timing",
            Kind::Rate => "rate",
            Kind::ExactCount => "exact-count",
            Kind::ComputedRate => "computed-rate",
            Kind::Quality => "quality",
            Kind::Size => "size",
        }
    }
}

/// One catalogue row.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Untraced or traced.
    pub mode: Mode,
    /// The repository layer (crate name without `ffw-`) it measures;
    /// `end-to-end` for user-visible metrics.
    pub layer: &'static str,
    /// Exact count, timing, ...
    pub kind: Kind,
    /// The end-to-end metric this should move, and on which workload; for
    /// end-to-end metrics, what the number is on each workload.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, kind: Kind, moves: &'static str) -> Entry {
    Entry {
        name,
        unit,
        mode: Mode::EndToEnd,
        layer: "end-to-end",
        kind,
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    kind: Kind,
    moves: &'static str,
) -> Entry {
    Entry {
        name,
        unit,
        mode: Mode::PerLayer,
        layer,
        kind,
        moves,
    }
}

use Kind::*;

/// Every metric, end-to-end first, in `BENCHMARK.json` order.
pub const CATALOGUE: &[Entry] = &[
    e2e("setup_s", "s", Timing, "median set-up: plan build + measurement synthesis (recon-128, rankgrid-64, hop-limited); Engine::open on a fresh state dir + cold builds of the shared geometries (serve-mix)"),
    e2e("solve_s", "s", Timing, "median dbim / run_dbim_ft / HopPipeline::run call; serve-mix: median backlog-burst time, until fewer jobs than workers remain"),
    e2e("peak_rss_mb", "MiB", Size, "VmHWM after the set-ups and the first solve (serve-mix: at the end of the run)"),
    e2e("image_error", "rel", Quality, "relative L2 image error vs the ground truth; hop-limited: mean over its six noise realisations; serve-mix: median over jobs"),
    e2e("final_residual", "rel", Quality, "final relative measurement residual; hop-limited: mean over its six noise realisations; serve-mix: median over jobs"),
    e2e("jobs_per_s", "1/s", Rate, "serve-mix: jobs per second while a backlog keeps both workers busy; others: reconstructions per second of set-up + solve"),
    e2e("job_p50_s", "s", Timing, "serve-mix: median open-loop latency from due time to done; others: median set-up + solve"),
    e2e("job_p90_s", "s", Timing, "serve-mix: p90 open-loop latency from due time to done; others: p90 of set-up + solve"),
    layer("numerics.triad_gbs", "GB/s", "numerics", Rate, "host roofline: STREAM triad over arrays 4x the last-level cache"),
    layer("numerics.panel_gflops", "GFLOP/s", "numerics", Rate, "host roofline: Matrix::matvec_acc_panel at B=8 on one in-cache leaf block"),
    layer("par.apply_speedup_2v1", "x", "par", Rate, "solve_s on recon-128 (one B=8 apply_block of the workload's plan, 1- vs 2-thread Pool)"),
    layer("mlfma.plan_build_s", "s", "mlfma", Timing, "setup_s on recon-128, hop-limited and serve-mix; job_p90_s on serve-mix"),
    layer("mlfma.apply_s", "s", "mlfma", Timing, "solve_s on recon-128 (timing adapter around MlfmaG0)"),
    layer("mlfma.block_calls", "count", "mlfma", ExactCount, "solve_s on recon-128"),
    layer("mlfma.columns", "count", "mlfma", ExactCount, "solve_s on recon-128"),
    layer("mlfma.gflops", "GFLOP/s", "mlfma", ComputedRate, "solve_s on recon-128 (PlanStats FLOPs x columns / adapter time)"),
    layer("mlfma.roofline_frac", "ratio", "mlfma", ComputedRate, "solve_s on recon-128 (mlfma.gflops / numerics.panel_gflops)"),
    layer("mlfma.near_s", "s", "mlfma", Timing, "solve_s on recon-128 (mlfma.apply/near spans)"),
    layer("mlfma.aggregate_s", "s", "mlfma", Timing, "solve_s on recon-128 (mlfma.apply/aggregate spans)"),
    layer("mlfma.translate_s", "s", "mlfma", Timing, "solve_s on recon-128 (mlfma.apply/translate spans)"),
    layer("mlfma.disaggregate_s", "s", "mlfma", Timing, "solve_s on recon-128 (mlfma.apply/disaggregate spans)"),
    layer("mlfma.near_gflops", "GFLOP/s", "mlfma", ComputedRate, "solve_s on recon-128"),
    layer("mlfma.far_gflops", "GFLOP/s", "mlfma", ComputedRate, "solve_s on recon-128"),
    layer("solver.iters", "count", "solver", ExactCount, "solve_s on every workload (solver.bicgstab.iters; the distributed solver does not count, so 0 on rankgrid-64)"),
    layer("solver.self_s", "s", "solver", Timing, "solve_s on recon-128 (BiCGStab spans minus their MLFMA children)"),
    layer("inverse.synthesize_s", "s", "inverse", Timing, "setup_s on recon-128, rankgrid-64 and hop-limited"),
    layer("inverse.forward_solves", "count", "inverse", ExactCount, "solve_s on recon-128 and hop-limited"),
    layer("inverse.g0_applies", "count", "inverse", ExactCount, "solve_s on recon-128 and hop-limited"),
    layer("inverse.self_s", "s", "inverse", Timing, "solve_s on hop-limited (DBIM time outside G0)"),
    layer("inverse.fields_s", "s", "inverse", Timing, "solve_s on recon-128"),
    layer("inverse.gradient_s", "s", "inverse", Timing, "solve_s on recon-128"),
    layer("inverse.step_s", "s", "inverse", Timing, "solve_s on recon-128"),
    layer("inverse.final_s", "s", "inverse", Timing, "solve_s on recon-128"),
    layer("inverse.wgcv_s", "s", "inverse", Timing, "solve_s on hop-limited"),
    layer("inverse.hop_low_s", "s", "inverse", Timing, "solve_s on hop-limited"),
    layer("inverse.hop_final_s", "s", "inverse", Timing, "solve_s on hop-limited"),
    layer("dist.run_s", "s", "dist", Timing, "solve_s on rankgrid-64"),
    layer("dist.speedup_vs_serial1", "x", "dist", Rate, "solve_s on rankgrid-64 (same data solved serially on a 1-thread pool)"),
    layer("mpi.bytes", "B", "mpi", ExactCount, "solve_s on rankgrid-64"),
    layer("mpi.messages", "count", "mpi", ExactCount, "solve_s on rankgrid-64"),
    layer("mpi.bytes_per_iter", "B", "mpi", ExactCount, "solve_s on rankgrid-64"),
    layer("fault.checkpoint_bytes", "B", "fault", ExactCount, "solve_s on rankgrid-64; job_p50_s on serve-mix"),
    layer("fault.checkpoint_save_s", "s", "fault", Timing, "solve_s on rankgrid-64; job_p50_s on serve-mix (Checkpoint::decode + save)"),
    layer("serve.open_s", "s", "serve", Timing, "setup_s on serve-mix"),
    layer("serve.submit_p50_s", "s", "serve", Timing, "job_p50_s on serve-mix (Engine::submit: admission + fsynced append)"),
    layer("serve.submit_p90_s", "s", "serve", Timing, "job_p50_s on serve-mix"),
    layer("serve.first_progress_p50_s", "s", "serve", Timing, "job_p90_s on serve-mix (accepted to first progress)"),
    layer("serve.first_progress_p90_s", "s", "serve", Timing, "job_p90_s on serve-mix"),
    layer("serve.iter_gap_p50_s", "s", "serve", Timing, "job_p50_s on serve-mix"),
    layer("serve.finish_p50_s", "s", "serve", Timing, "job_p50_s on serve-mix (last progress to done)"),
    layer("serve.plan_cache_hit_ratio", "ratio", "serve", ExactCount, "jobs_per_s on serve-mix"),
    layer("serve.plan_cache_hits", "count", "serve", ExactCount, "jobs_per_s on serve-mix"),
    layer("serve.plan_cache_misses", "count", "serve", ExactCount, "jobs_per_s on serve-mix"),
    layer("serve.journal_bytes", "B", "serve", ExactCount, "job_p50_s on serve-mix"),
    layer("serve.generator_lag_max_s", "s", "serve", Timing, "validity of job_p50_s/job_p90_s on serve-mix (how late the open-loop generator ran)"),
    layer("obs.overhead_ratio", "ratio", "obs", Rate, "traced / untraced solve_s of the same workload"),
    layer("obs.traced_solve_s", "s", "obs", Timing, "numerator of obs.overhead_ratio"),
    layer("obs.untraced_solve_s", "s", "obs", Timing, "denominator of obs.overhead_ratio"),
];

/// The catalogue rows reported in `mode`.
pub fn of_mode(mode: Mode) -> impl Iterator<Item = &'static Entry> {
    CATALOGUE.iter().filter(move |e| e.mode == mode)
}

/// The row for `name`.
pub fn entry(name: &str) -> Option<&'static Entry> {
    CATALOGUE.iter().find(|e| e.name == name)
}

/// Renders the catalogue as a table.
pub fn render() -> String {
    let mut out = String::new();
    for e in CATALOGUE {
        out.push_str(&format!(
            "{:<28} {:<8} {:<10} {:<13} {}\n",
            e.name,
            e.unit,
            e.layer,
            e.kind.label(),
            e.moves
        ));
    }
    out
}
