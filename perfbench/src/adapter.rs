//! The benchmark's timing adapter around a `G0` operator.
//!
//! `dbim` and the multi-frequency loop are generic over [`BlockLinOp`],
//! so wrapping the MLFMA operator measures the MLFMA layer from outside:
//! every apply is timed and counted, and nothing inside the program
//! changes. The adapter forwards each call unchanged, so a run through it
//! is bit-identical to a run on the bare operator (see
//! `tests/adapter_transparency.rs`).

use ffw_numerics::C64;
use ffw_solver::{BlockLinOp, LinOp};
use std::sync::atomic::{AtomicU64, Ordering};

/// Times and counts every apply of the wrapped operator.
pub struct TimedG0<'a, G: BlockLinOp + ?Sized> {
    inner: &'a G,
    busy_ns: AtomicU64,
    calls: AtomicU64,
    columns: AtomicU64,
    first_ns: AtomicU64,
}

/// What a [`TimedG0`] recorded.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ApplyStats {
    /// Seconds spent inside the wrapped operator.
    pub busy_s: f64,
    /// Apply calls (a fused block apply counts once).
    pub calls: u64,
    /// Right-hand-side columns applied.
    pub columns: u64,
    /// `ffw_obs::monotonic_ns` at the first call, 0 if never called.
    pub first_ns: u64,
}

impl<'a, G: BlockLinOp + ?Sized> TimedG0<'a, G> {
    /// Wraps `inner`.
    pub fn new(inner: &'a G) -> Self {
        TimedG0 {
            inner,
            busy_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            columns: AtomicU64::new(0),
            first_ns: AtomicU64::new(0),
        }
    }

    /// What has been recorded so far.
    pub fn stats(&self) -> ApplyStats {
        // The counters are statistics read after the solve returned; no
        // other data is published through them.
        ApplyStats {
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            calls: self.calls.load(Ordering::Relaxed),
            columns: self.columns.load(Ordering::Relaxed),
            first_ns: self.first_ns.load(Ordering::Relaxed),
        }
    }

    fn record(&self, columns: usize, f: impl FnOnce()) {
        let t0 = ffw_obs::monotonic_ns();
        let _ = self
            .first_ns
            .compare_exchange(0, t0.max(1), Ordering::Relaxed, Ordering::Relaxed);
        f();
        self.busy_ns
            .fetch_add(ffw_obs::monotonic_ns() - t0, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.columns.fetch_add(columns as u64, Ordering::Relaxed);
    }
}

impl<G: BlockLinOp + ?Sized> LinOp for TimedG0<'_, G> {
    fn dim_out(&self) -> usize {
        self.inner.dim_out()
    }
    fn dim_in(&self) -> usize {
        self.inner.dim_in()
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        self.record(1, || self.inner.apply(x, y));
    }
}

impl<G: BlockLinOp + ?Sized> BlockLinOp for TimedG0<'_, G> {
    fn apply_block(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) {
        self.record(xs.len(), || self.inner.apply_block(xs, ys));
    }
}
