//! Order statistics and process measurements.

/// Quantile `q` in `[0, 1]` with linear interpolation between order
/// statistics. NaN for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean. NaN for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Relative L2 difference `||a - b|| / ||b||` of two complex vectors.
pub fn rel_diff(a: &[ffw_numerics::C64], b: &[ffw_numerics::C64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (*x - *y).norm_sqr()).sum();
    let den: f64 = b.iter().map(|y| y.norm_sqr()).sum();
    (num / den).sqrt()
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = ffw_obs::Stopwatch::start();
    let out = f();
    (out, sw.elapsed_secs())
}
