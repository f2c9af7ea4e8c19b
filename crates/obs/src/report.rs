//! [`ObsReport`] — the deterministic JSON sink for metrics sidecars.
//!
//! A report bundles a merged [`Registry`] and integer scalar fields, and
//! renders them as pretty-printed JSON with **sorted keys and fixed float
//! formatting** (`{:?}`, like every other hand-rolled writer in the
//! workspace), so a sidecar's bytes depend only on the recorded values —
//! never on recording order or platform.
//! Sidecars are written *next to* scenario artefacts, never into them:
//! the TSV/JSON outputs a sweep produces are byte-identical with
//! observation on or off.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::metrics::{Metric, Registry};

/// A metrics sidecar: scalar context fields and a merged metric
/// registry, rendered as deterministic JSON.
///
/// # Example
///
/// ```
/// use pollux_obs::{ObsReport, Registry};
///
/// let mut reg = Registry::new();
/// reg.add("events", 42);
/// let mut report = ObsReport::new("demo");
/// report.set_u64("threads", 2);
/// report.merge_registry(&reg);
/// let json = report.to_json();
/// assert!(json.contains("\"scenario\": \"demo\""));
/// assert!(json.contains("\"events\": 42"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    scenario: String,
    fields: Vec<(String, String)>,
    registry: Registry,
}

impl ObsReport {
    /// An empty report for `scenario`.
    #[must_use]
    pub fn new(scenario: &str) -> Self {
        ObsReport {
            scenario: scenario.to_string(),
            fields: Vec::new(),
            registry: Registry::new(),
        }
    }

    /// Sets (or replaces) a scalar integer field.
    pub fn set_u64(&mut self, key: &str, value: u64) {
        let rendered = value.to_string();
        match self.fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = rendered,
            None => self.fields.push((key.to_string(), rendered)),
        }
    }

    /// Merges `reg` into the report's registry (fixed caller order, as
    /// everywhere).
    pub fn merge_registry(&mut self, reg: &Registry) {
        self.registry.merge(reg);
    }

    /// The merged registry (for assertions in tests).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Renders the report as pretty-printed JSON with sorted keys inside
    /// every object and `{:?}` float formatting.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"scenario\": \"{}\",", self.scenario);

        // Scalar context fields, sorted.
        let mut fields = self.fields.clone();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, v) in &fields {
            let _ = writeln!(s, "  \"{k}\": {v},");
        }

        // Metrics grouped by kind, each group key-sorted.
        s.push_str("  \"metrics\": {\n");
        let sorted = self.registry.sorted();
        for (i, (key, metric)) in sorted.iter().enumerate() {
            let comma = if i + 1 < sorted.len() { "," } else { "" };
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(s, "    \"{key}\": {c}{comma}");
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        s,
                        "    \"{key}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:?}, \"buckets\": [",
                        h.count(),
                        h.sum(),
                        h.max(),
                        h.mean()
                    );
                    for (j, (lo, hi, n)) in h.nonzero_buckets().iter().enumerate() {
                        if j > 0 {
                            s.push_str(", ");
                        }
                        let _ = write!(s, "[{lo}, {hi}, {n}]");
                    }
                    let _ = writeln!(s, "]}}{comma}");
                }
                Metric::Span(sp) => {
                    let _ = writeln!(
                        s,
                        "    \"{key}\": {{\"count\": {}, \"total_s\": {:?}, \"min_s\": {:?}, \"max_s\": {:?}, \"mean_s\": {:?}, \"variance\": {:?}}}{comma}",
                        sp.count(),
                        sp.total(),
                        sp.min(),
                        sp.max(),
                        sp.mean(),
                        sp.variance()
                    );
                }
            }
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ObsReport {
        let mut reg = Registry::new();
        reg.add("z.counter", 7);
        reg.add("a.events", 12);
        reg.observe("m.hist", 5);
        reg.observe("m.hist", 300);
        reg.span("m.span", 0.5);
        let mut report = ObsReport::new("unit");
        report.set_u64("wall_ms", 2250);
        report.set_u64("shards", 4);
        report.set_u64("cells", 3);
        report.merge_registry(&reg);
        report
    }

    #[test]
    fn json_is_deterministic_and_key_sorted() {
        let a = sample_report().to_json();
        let b = sample_report().to_json();
        assert_eq!(a, b);
        // Scalar fields sorted: cells < shards < wall_ms.
        let cells = a.find("\"cells\"").unwrap();
        let shards = a.find("\"shards\"").unwrap();
        let wall = a.find("\"wall_ms\"").unwrap();
        assert!(cells < shards && shards < wall);
        // Metric keys sorted: a.events < m.hist < m.span < z.counter.
        let d = a.find("\"a.events\"").unwrap();
        let h = a.find("\"m.hist\"").unwrap();
        let sp = a.find("\"m.span\"").unwrap();
        let c = a.find("\"z.counter\"").unwrap();
        assert!(d < h && h < sp && sp < c);
    }

    #[test]
    fn scalar_fields_replace_not_duplicate() {
        let mut r = ObsReport::new("x");
        r.set_u64("n", 1);
        r.set_u64("n", 2);
        let json = r.to_json();
        assert_eq!(json.matches("\"n\":").count(), 1);
        assert!(json.contains("\"n\": 2"));
    }

    #[test]
    fn write_json_round_trips_to_disk() {
        let dir = std::env::temp_dir().join("pollux_obs_report_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.metrics.json");
        let report = sample_report();
        report.write_json(&path).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), report.to_json());
        let _ = fs::remove_file(&path);
    }
}
