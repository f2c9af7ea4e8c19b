//! A bounded ring-buffer event tracer for the DES.
//!
//! Keeps the **last** `capacity` `(time, cluster, event-kind, x/y state)`
//! records of a run — enough for a post-mortem of a determinism or
//! estimator bug without unbounded memory — and exports them as JSONL
//! (one record per line, sorted keys, `{:?}`-formatted floats, matching
//! the repo's other hand-rolled writers).

/// The DES event taxonomy, mirroring the branches of the engine's
/// `churn_event` (join admitted/rejected, leave from core/spare,
/// self-loops) plus the engine-level transitions (induced eviction,
/// cluster regeneration, absorption).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesEventKind {
    /// A node joined the cluster (admitted to core or spare).
    Join,
    /// A join was rejected (cluster at capacity).
    JoinRejected,
    /// A node left the cluster (core or spare).
    Leave,
    /// A churn event that did not change the observable (x, y) state.
    SelfLoop,
    /// The defense evicted a node (induced churn).
    InducedEviction,
    /// The cluster was regenerated after polluting.
    Regeneration,
    /// The cluster reached an absorbing state and stopped.
    Absorption,
}

impl DesEventKind {
    /// The counter key this kind is tallied under, shared between the
    /// tracer and the per-shard registries so trace and counters agree.
    #[must_use]
    pub fn counter_key(self) -> &'static str {
        match self {
            DesEventKind::Join => "des.events.join",
            DesEventKind::JoinRejected => "des.events.join_rejected",
            DesEventKind::Leave => "des.events.leave",
            DesEventKind::SelfLoop => "des.events.self_loop",
            DesEventKind::InducedEviction => "des.events.induced_eviction",
            DesEventKind::Regeneration => "des.events.regeneration",
            DesEventKind::Absorption => "des.events.absorption",
        }
    }

    /// The JSONL `kind` field value.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DesEventKind::Join => "join",
            DesEventKind::JoinRejected => "join_rejected",
            DesEventKind::Leave => "leave",
            DesEventKind::SelfLoop => "self_loop",
            DesEventKind::InducedEviction => "induced_eviction",
            DesEventKind::Regeneration => "regeneration",
            DesEventKind::Absorption => "absorption",
        }
    }

    /// All kinds, in a fixed order (export/merge order).
    #[must_use]
    pub fn all() -> [DesEventKind; 7] {
        [
            DesEventKind::Join,
            DesEventKind::JoinRejected,
            DesEventKind::Leave,
            DesEventKind::SelfLoop,
            DesEventKind::InducedEviction,
            DesEventKind::Regeneration,
            DesEventKind::Absorption,
        ]
    }
}

/// One traced DES event: simulation time, cluster index, event kind and
/// the cluster's (x, y) composition *after* the event was applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Simulation time of the event.
    pub time: f64,
    /// Global cluster index.
    pub cluster: u32,
    /// What happened.
    pub kind: DesEventKind,
    /// Malicious nodes in the core after the event.
    pub x: u32,
    /// Honest spare nodes after the event.
    pub y: u32,
}

impl TraceRecord {
    /// The record as one JSONL line (no trailing newline), keys sorted.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"cluster\":{},\"kind\":\"{}\",\"time\":{:?},\"x\":{},\"y\":{}}}",
            self.cluster,
            self.kind.as_str(),
            self.time,
            self.x,
            self.y
        )
    }
}

/// A bounded ring buffer of [`TraceRecord`]s keeping the most recent
/// `capacity` events.
///
/// # Example
///
/// ```
/// use pollux_obs::{DesEventKind, TraceRing};
///
/// let mut ring = TraceRing::new(2);
/// for i in 0..5 {
///     ring.push(i as f64, i, DesEventKind::Join, 0, 0);
/// }
/// assert_eq!(ring.total_pushed(), 5);
/// // Only the last two survive, in chronological order.
/// let times: Vec<f64> = ring.iter_in_order().map(|r| r.time).collect();
/// assert_eq!(times, vec![3.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct TraceRing {
    records: Vec<TraceRecord>,
    capacity: usize,
    /// Next write position (wraps at `capacity`).
    head: usize,
    /// Total events ever pushed (so the export can report truncation).
    total: u64,
}

impl TraceRing {
    /// A ring keeping the last `capacity` records (`capacity ≥ 1`).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TraceRing capacity must be at least 1");
        TraceRing {
            records: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            total: 0,
        }
    }

    /// Appends a record, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, time: f64, cluster: u32, kind: DesEventKind, x: u32, y: u32) {
        let rec = TraceRecord {
            time,
            cluster,
            kind,
            x,
            y,
        };
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.records[self.head] = rec;
        }
        self.head = (self.head + 1) % self.capacity;
        self.total += 1;
    }

    /// Records currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The ring's capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records ever pushed (including evicted ones).
    #[must_use]
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// The held records, oldest first.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &TraceRecord> {
        let split = if self.records.len() < self.capacity {
            0 // not yet wrapped: storage order is chronological
        } else {
            self.head
        };
        self.records[split..]
            .iter()
            .chain(self.records[..split].iter())
    }

    /// Merges rings from several shards into one chronological record
    /// list, stable across shard boundaries (ties broken by shard order —
    /// the caller passes shards in shard-index order, the fixed merge
    /// order used everywhere in the workspace).
    #[must_use]
    pub fn merge_in_order(rings: &[&TraceRing]) -> Vec<TraceRecord> {
        let mut all: Vec<(usize, TraceRecord)> = Vec::new();
        for (shard, ring) in rings.iter().enumerate() {
            all.extend(ring.iter_in_order().map(|r| (shard, *r)));
        }
        // Stable sort by time only: equal times keep shard order.
        all.sort_by(|a, b| a.1.time.total_cmp(&b.1.time));
        all.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_before_wraparound_keeps_everything_in_order() {
        let mut ring = TraceRing::new(8);
        for i in 0..5 {
            ring.push(i as f64, i, DesEventKind::Leave, 1, 2);
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.total_pushed(), 5);
        let times: Vec<f64> = ring.iter_in_order().map(|r| r.time).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn ring_wraparound_keeps_last_capacity_records() {
        let mut ring = TraceRing::new(3);
        for i in 0..10 {
            ring.push(i as f64, i, DesEventKind::Join, 0, 0);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_pushed(), 10);
        let times: Vec<f64> = ring.iter_in_order().map(|r| r.time).collect();
        assert_eq!(times, vec![7.0, 8.0, 9.0]);
        // Exactly at a multiple of capacity the head is back at 0.
        let mut ring = TraceRing::new(4);
        for i in 0..8 {
            ring.push(i as f64, 0, DesEventKind::Join, 0, 0);
        }
        let times: Vec<f64> = ring.iter_in_order().map(|r| r.time).collect();
        assert_eq!(times, vec![4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn jsonl_export_is_deterministic_and_sorted_keys() {
        let mut ring = TraceRing::new(2);
        ring.push(0.5, 3, DesEventKind::InducedEviction, 2, 1);
        let lines: Vec<String> = ring.iter_in_order().map(TraceRecord::to_jsonl).collect();
        assert_eq!(
            lines,
            ["{\"cluster\":3,\"kind\":\"induced_eviction\",\"time\":0.5,\"x\":2,\"y\":1}"]
        );
    }

    #[test]
    fn merge_in_order_is_chronological_and_shard_stable() {
        let mut a = TraceRing::new(4);
        a.push(1.0, 0, DesEventKind::Join, 0, 0);
        a.push(3.0, 0, DesEventKind::Leave, 0, 0);
        let mut b = TraceRing::new(4);
        b.push(2.0, 1, DesEventKind::Join, 0, 0);
        b.push(3.0, 1, DesEventKind::Leave, 0, 0);
        let merged = TraceRing::merge_in_order(&[&a, &b]);
        let order: Vec<(f64, u32)> = merged.iter().map(|r| (r.time, r.cluster)).collect();
        // Tie at t=3.0 resolves to shard order (cluster 0 before 1).
        assert_eq!(order, vec![(1.0, 0), (2.0, 1), (3.0, 0), (3.0, 1)]);
    }

    #[test]
    fn counter_keys_are_unique() {
        let keys: Vec<&str> = DesEventKind::all()
            .iter()
            .map(|k| k.counter_key())
            .collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }
}
