//! The run's result: named metrics with units, operation counts, the
//! answer checks, and the one-line JSON the benchmark ends with.

use std::fmt::Write as _;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Of those, non-2xx responses, sheds and transport errors.
    pub failed: u64,
    errors: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed answer check; the run is then incorrect.
    pub fn error(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("CHECK FAILED: {msg}");
        self.errors.push(msg);
    }

    /// Records the outcome of a check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(msg) = result {
            self.error(msg);
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// True when every answer check passed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// Prints the human summary, then the result as the last line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.4} {unit}");
        }
        let frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "{:<34} {frac:>16.4} ratio ({} of {} operations)",
            "failed_frac", self.failed, self.attempted
        );
        for e in &self.errors {
            println!("check failed: {e}");
        }
        println!("{}", self.json());
    }

    /// The result object: `correct`, `attempted`, `failed` and every
    /// metric with its unit. A non-finite metric (a bug) is printed as
    /// 0 and makes the run incorrect.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` is Rust's shortest round-trip form: every digit,
            // and always a valid JSON number for a finite value.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_contract_shape() {
        let mut r = Report::default();
        r.metric("latency_ms", 1.2034, "ms");
        r.metric("setup_s", 3.0, "s");
        r.count(10, 1);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
        r.error("mismatch");
        assert!(!r.correct());
    }

    #[test]
    fn non_finite_metrics_make_the_run_incorrect() {
        let mut r = Report::default();
        r.metric("x", f64::NAN, "s");
        assert!(!r.correct());
        assert!(r.json().contains("\"value\": 0.0"));
    }
}
