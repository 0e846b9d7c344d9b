//! Seed plumbing: every random input of a run derives from the one
//! `--seed` value through these streams.

use ffw_phantom::scenario::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream purposes, so the noise, the job mix and the arrival times never
/// share draws.
pub const NOISE: u64 = 1;
/// Serve-mix job order.
pub const MIX: u64 = 2;
/// Serve-mix open-loop arrival times.
pub const ARRIVALS: u64 = 3;
/// Probe inputs (panel kernels, apply probes).
pub const PROBE: u64 = 4;

/// The stream for `seed` and `purpose`.
pub fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ (purpose << 56)))
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = ((rng.gen::<f64>() * (i + 1) as f64) as usize).min(i);
        v.swap(i, j);
    }
}

/// The noise seed handed to the program's own noise models.
pub fn noise_seed(seed: u64) -> u64 {
    noise_seeds(seed, 1)[0]
}

/// `n` noise seeds for `n` independent noise realisations.
pub fn noise_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = stream(seed, NOISE);
    (0..n).map(|_| rng.gen::<u64>()).collect()
}
