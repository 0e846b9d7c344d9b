//! The run report: attempted and failed operations, the checks that failed,
//! and every metric of the run's mode.

use crate::catalogue::{self, Mode};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured value and how many samples it summarises.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    /// The number as measured.
    pub value: f64,
    /// Samples behind it (1 for a single measurement or a count).
    pub samples: usize,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (reconstructions, served jobs, probes).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Human-readable description of every failed check.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, Value>,
}

impl Report {
    /// Records `value` (summarising `samples` samples) under `name`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(catalogue::entry(name).is_some(), "{name} is not catalogued");
        self.metrics.insert(name, Value { value, samples });
    }

    /// Counts one attempted operation and whether it passed `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Whether every operation passed its check.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Renders the human-readable lines and the final JSON line for the
    /// metrics of `mode`. Fails if a metric of the mode was not measured or
    /// is not a finite number.
    pub fn render(&self, mode: Mode) -> Result<String, String> {
        let mut text = String::new();
        let mut json = String::new();
        for (i, e) in catalogue::of_mode(mode).enumerate() {
            let v = self
                .metrics
                .get(e.name)
                .ok_or_else(|| format!("metric {} was not measured", e.name))?;
            if !v.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", e.name, v.value));
            }
            let _ = writeln!(
                text,
                "{:<28} {:>16} {:<8} ({} sample{}; {}, {})",
                e.name,
                format!("{:.6}", v.value),
                e.unit,
                v.samples,
                if v.samples == 1 { "" } else { "s" },
                e.layer,
                e.kind.label()
            );
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                e.name, v.value, e.unit
            );
        }
        for f in &self.failures {
            let _ = writeln!(text, "FAILED: {f}");
        }
        let _ = write!(
            text,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        Ok(text)
    }
}
