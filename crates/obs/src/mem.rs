//! Memory accounting: process-level RSS readings from
//! `/proc/self/status` and exact analytic byte audits of the big
//! simulation data structures.
//!
//! The ROADMAP's scaling note is that *memory, not time, caps overlay
//! size*; this module is what turns that into numbers. Two complementary
//! sources:
//!
//! * [`peak_rss_bytes`] — the kernel's view (`VmHWM`). Peak RSS is
//!   monotonic over the process lifetime, so in a multi-rung bench it
//!   reflects the largest rung run so far; the per-rung numbers come
//!   from the audits below.
//! * [`MemoryAudit`] — an exact, platform-independent byte count built
//!   from the same formulas the allocations use (node arena, hot
//!   records, event queue, membership tables), reported per structure
//!   and as **bytes per node** — the capacity-planning figure.

use std::fs;

/// Parses a `VmHWM:   12345 kB`-style line from `/proc/self/status`.
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let rest = rest.trim_start_matches(':').trim();
            let kb: u64 = rest.split_whitespace().next()?.parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Peak resident set size (`VmHWM`) of this process in bytes, or `None`
/// off-Linux / when `/proc` is unavailable. Monotonic over the process
/// lifetime.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kb("VmHWM")
}

/// An exact byte audit of one run's simulation state, accumulated
/// structure by structure. Every figure is computed from the allocation
/// formulas (length × element size), not sampled, so audits are
/// identical across platforms and runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryAudit {
    entries: Vec<(&'static str, u64)>,
    nodes: u64,
}

impl MemoryAudit {
    /// An empty audit for a simulation over `nodes` nodes.
    #[must_use]
    pub fn new(nodes: u64) -> Self {
        MemoryAudit {
            entries: Vec::new(),
            nodes,
        }
    }

    /// Records `bytes` under `label`, accumulating on repeat labels
    /// (sharded runs add each shard's share).
    pub fn record(&mut self, label: &'static str, bytes: u64) {
        match self.entries.iter_mut().find(|(l, _)| *l == label) {
            Some((_, b)) => *b += bytes,
            None => self.entries.push((label, bytes)),
        }
    }

    /// Number of nodes this audit normalizes by.
    #[must_use]
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Total audited bytes across all structures.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|(_, b)| b).sum()
    }

    /// Audited bytes per node — the capacity-planning figure the
    /// ROADMAP's scaling item asks for (0 when `nodes` is 0).
    #[must_use]
    pub fn bytes_per_node(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.nodes as f64
        }
    }

    /// The audited bytes under `label`, if recorded.
    #[must_use]
    pub fn get(&self, label: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, b)| *b)
    }

    /// All entries sorted by label (the deterministic export order).
    #[must_use]
    pub fn sorted(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.entries.clone();
        out.sort_by_key(|(l, _)| *l);
        out
    }

    /// The audit as a deterministic JSON object string: sorted structure
    /// keys plus `total_bytes`, `nodes` and `bytes_per_node`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (label, bytes) in self.sorted() {
            s.push_str(&format!("\"{label}\":{bytes},"));
        }
        s.push_str(&format!(
            "\"bytes_per_node\":{:?},\"nodes\":{},\"total_bytes\":{}}}",
            self.bytes_per_node(),
            self.nodes,
            self.total_bytes()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_readings_work_on_linux() {
        // On Linux /proc must be readable and the peak plausible.
        let peak = peak_rss_bytes().expect("VmHWM readable");
        assert!(peak > 100 * 1024, "peak RSS implausibly small: {peak}");
    }

    #[test]
    fn audit_accumulates_and_normalizes() {
        let mut audit = MemoryAudit::new(1000);
        audit.record("arena", 5000);
        audit.record("queue", 2400);
        audit.record("arena", 5000); // second shard's share
        assert_eq!(audit.get("arena"), Some(10_000));
        assert_eq!(audit.total_bytes(), 12_400);
        assert!((audit.bytes_per_node() - 12.4).abs() < 1e-12);
        assert_eq!(audit.get("missing"), None);
        assert_eq!(MemoryAudit::new(0).bytes_per_node(), 0.0);
    }

    #[test]
    fn audit_json_is_sorted_and_deterministic() {
        let mut audit = MemoryAudit::new(10);
        audit.record("queue", 240);
        audit.record("arena", 50);
        assert_eq!(
            audit.to_json(),
            "{\"arena\":50,\"queue\":240,\"bytes_per_node\":29.0,\"nodes\":10,\"total_bytes\":290}"
        );
    }
}
