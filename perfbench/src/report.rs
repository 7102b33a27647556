//! The result line: operations attempted and failed, output checks, and
//! the metrics by name with their units.

use std::fmt::Write as _;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, builds and output checks).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Record a metric. Non-finite values are reported as 0.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// A line for humans, printed before the result.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// Keep only the metrics named in `names`, in that order; a name that
    /// was not measured on this workload reads 0.
    pub fn select(&mut self, names: &[(&str, &'static str)]) {
        let measured = std::mem::take(&mut self.metrics);
        for (name, unit) in names {
            let value = measured.iter().find(|(n, _, _)| n == name).map_or(0.0, |(_, v, _)| *v);
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    /// The notes, one per line.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The result as one JSON line.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ =
                write!(metrics, "{comma}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}");
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}
