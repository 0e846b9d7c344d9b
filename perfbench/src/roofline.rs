//! Host roofline probes: sustainable memory bandwidth (STREAM triad) and
//! the in-cache peak of the panel kernel the MLFMA near field runs on.

use ffw_geometry::LEAF_PIXELS;
use ffw_numerics::linalg::Matrix;
use ffw_numerics::{c64, C64};
use rand::Rng;
use std::hint::black_box;

/// Fallback last-level cache size when sysfs does not report one.
const DEFAULT_LLC_BYTES: usize = 32 << 20;
/// Panel width of the kernel probe (the DBIM batch).
const PANEL_WIDTH: usize = 8;

/// Size in bytes of the largest cache sysfs reports for CPU 0.
fn llc_bytes() -> usize {
    let mut best = 0usize;
    for i in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
        let Ok(s) = std::fs::read_to_string(path) else {
            continue;
        };
        let s = s.trim();
        let (num, mult) = match s.chars().last() {
            Some('K') => (&s[..s.len() - 1], 1 << 10),
            Some('M') => (&s[..s.len() - 1], 1 << 20),
            Some('G') => (&s[..s.len() - 1], 1 << 30),
            _ => (s, 1),
        };
        if let Ok(n) = num.parse::<usize>() {
            best = best.max(n * mult);
        }
    }
    if best == 0 {
        DEFAULT_LLC_BYTES
    } else {
        best
    }
}

/// STREAM-triad result.
#[derive(Clone, Copy, Debug)]
pub struct Triad {
    /// Best-of-reps bandwidth in GB/s (24 bytes moved per element).
    pub gbs: f64,
    /// Bytes per array.
    pub array_bytes: usize,
    /// The last-level cache size the arrays were sized against.
    pub llc_bytes: usize,
}

/// `a = b + s*c` over three arrays each at least four times the last-level
/// cache, split over `threads` threads; best of `reps` passes.
pub fn triad(threads: usize, reps: usize) -> Triad {
    let llc = llc_bytes();
    let n = 4 * llc / std::mem::size_of::<f64>();
    let threads = threads.max(1);
    let chunk = n.div_ceil(threads);
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let sw = ffw_obs::Stopwatch::start();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + s * c;
                    }
                });
            }
        });
        best = best.min(sw.elapsed_secs());
        black_box(&a);
    }
    Triad {
        gbs: (3 * n * std::mem::size_of::<f64>()) as f64 / best * 1e-9,
        array_bytes: n * std::mem::size_of::<f64>(),
        llc_bytes: llc,
    }
}

/// In-cache peak of `Matrix::matvec_acc_panel` on one leaf-sized block at
/// [`PANEL_WIDTH`] columns, running on `threads` threads at once (one block
/// each); GFLOP/s summed over threads, 8 FLOPs per complex multiply-add.
pub fn panel_gflops(threads: usize, seed: u64) -> f64 {
    const CALLS: usize = 4000;
    let threads = threads.max(1);
    let mut rng = crate::seed::stream(seed, crate::seed::PROBE);
    let mut draw = || c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
    let m = Matrix::from_fn(LEAF_PIXELS, LEAF_PIXELS, |_, _| draw());
    let xs: Vec<Vec<C64>> = (0..PANEL_WIDTH)
        .map(|_| (0..LEAF_PIXELS).map(|_| draw()).collect())
        .collect();
    let run = || {
        let cols: Vec<&[C64]> = xs.iter().map(Vec::as_slice).collect();
        let mut ys = vec![C64::ZERO; LEAF_PIXELS * PANEL_WIDTH];
        // Warm the caches before timing.
        m.matvec_acc_panel(&cols, &mut ys);
        let sw = ffw_obs::Stopwatch::start();
        for _ in 0..CALLS {
            m.matvec_acc_panel(black_box(&cols), black_box(&mut ys));
        }
        let secs = sw.elapsed_secs();
        black_box(&ys);
        (8 * LEAF_PIXELS * LEAF_PIXELS * PANEL_WIDTH * CALLS) as f64 / secs * 1e-9
    };
    let mut best = 0.0f64;
    for _ in 0..3 {
        let total: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(run)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("panel probe thread panicked"))
                .sum()
        });
        best = best.max(total);
    }
    best
}
