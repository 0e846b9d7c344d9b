//! Seeded end-to-end and per-layer benchmark for the FFW-Tomo workspace.
//!
//! One binary runs one named workload per invocation. The workload builds
//! its own inputs from `--seed`, measures for about `--seconds`, checks the
//! outputs, and prints every metric with its unit and sample count; the last
//! stdout line is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). Untraced runs (`--trace 0`) report the end-to-end metrics;
//! a traced run (`--trace 1`) reports the per-layer metrics, each measured
//! from outside the layer by timing calls into its public functions or by
//! reading the `ffw-obs` counters and stage spans the program already emits.
//! [`catalogue`] names every metric with its unit, layer, kind and the
//! end-to-end metric it should move.

pub mod adapter;
pub mod catalogue;
pub mod mix;
pub mod report;
pub mod roofline;
pub mod seed;
pub mod stats;
pub mod trace;
pub mod workloads;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["recon-128", "rankgrid-64", "serve-mix", "hop-limited"];

/// Least repetitions of a workload's set-up inside one run; `setup_s` is
/// their median, so a one-off stall in a single set-up does not move it.
pub const SETUP_REPS: usize = 3;

/// Least seconds a run spends repeating its set-up. The host's speed swings
/// by a fifth to a third within a second or two, so the median is taken
/// over a window that spans several swings rather than over a fixed count.
pub const SETUP_SECONDS: f64 = 2.0;

/// Measurement SNR applied to every reconstruction workload's data.
pub const SNR_DB: f64 = 40.0;

/// Options every workload runs with.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Seed for every random input (noise, job mix, arrival times).
    pub seed: u64,
    /// Measured time budget: timed solves repeat until it is spent.
    pub seconds: f64,
    /// Scratch directory for checkpoints and service state; removed after
    /// the run.
    pub tmp: std::path::PathBuf,
}
