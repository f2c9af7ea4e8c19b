//! Coverage counters over the generated scenario stream.
//!
//! Every categorical draw (strategy, defense, analysis mode, sweep
//! kind, initial condition, toggle combination) and every edge case the
//! generator deliberately walks into (Δ = 1 raw draws, k = 0 raw draws,
//! extreme μ/d) bumps a named counter. The summary JSON reports the
//! counters so a fuzz run proves *what* it exercised, and the generator
//! tests assert every enum variant is hit within a bounded draw count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named hit counters, ordered (BTreeMap) so the JSON encoding is
/// byte-deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    counts: BTreeMap<String, u64>,
}

impl Coverage {
    /// An empty counter set.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// Bumps `key` by one.
    pub fn hit(&mut self, key: impl Into<String>) {
        *self.counts.entry(key.into()).or_insert(0) += 1;
    }

    /// The count recorded under `key` (0 when never hit).
    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Number of distinct keys hit at least once.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The counters as a JSON object literal (single line, key-ordered).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, count)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{key}\": {count}");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_and_encode_in_key_order() {
        let mut cov = Coverage::new();
        cov.hit("z");
        cov.hit("a");
        cov.hit("z");
        assert_eq!(cov.count("z"), 2);
        assert_eq!(cov.count("a"), 1);
        assert_eq!(cov.count("missing"), 0);
        assert_eq!(cov.distinct(), 2);
        assert_eq!(cov.to_json(), "{\"a\": 1, \"z\": 2}");
    }
}
