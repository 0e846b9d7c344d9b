//! Reading the program's own `ffw-obs` recorder: counters and the stage
//! spans it already emits. Spans opened on rank and pool threads start
//! their own roots, so a stage is summed over every path that ends with
//! its name.

use ffw_obs::Snapshot;

/// Total seconds of every span whose path is `suffix` or ends in
/// `/suffix`.
pub fn span_s(snap: &Snapshot, suffix: &str) -> f64 {
    let tail = format!("/{suffix}");
    snap.spans
        .iter()
        .filter(|s| s.path == suffix || s.path.ends_with(&tail))
        .map(|s| s.total_ns)
        .sum::<u64>() as f64
        * 1e-9
}

/// Total seconds of the spans named `name` that run inside a span named
/// `ancestor` (at any depth).
pub fn span_within_s(snap: &Snapshot, ancestor: &str, name: &str) -> f64 {
    snap.spans
        .iter()
        .filter(|s| {
            let mut segments = s.path.rsplit('/');
            segments.next() == Some(name) && segments.any(|a| a == ancestor)
        })
        .map(|s| s.total_ns)
        .sum::<u64>() as f64
        * 1e-9
}

/// A counter's value (0 if it never registered).
pub fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Turns the recorder on with an empty registry.
pub fn start() {
    ffw_obs::reset();
    ffw_obs::set_enabled(true);
}

/// Turns the recorder off and returns what it recorded.
pub fn finish() -> Snapshot {
    ffw_obs::set_enabled(false);
    ffw_obs::snapshot()
}
