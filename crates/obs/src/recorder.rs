//! The [`Recorder`] trait instrumented loops are generic over, its no-op
//! implementation [`NullRecorder`], and the real [`MetricsRecorder`].
//!
//! The zero-cost story is monomorphization: hot loops take
//! `R: Recorder`; with [`NullRecorder`] every call inlines to an empty
//! body and the loop compiles to the uninstrumented machine code. Public
//! entry points that do not ask for observation pass `NullRecorder`, so
//! their callers pay nothing; the observed entry points pass a
//! [`MetricsRecorder`], which always records.
//!
//! Both implementations are inert: no RNG, no effect on control flow,
//! consulted only after an event's effects are committed.

use crate::metrics::Registry;
use crate::trace::{DesEventKind, TraceRing};

/// The instrumentation interface. Every method has an `#[inline]` no-op
/// default body, so implementors override only what they record and
/// [`NullRecorder`] is just `impl Recorder for NullRecorder {}`.
#[allow(unused_variables)]
pub trait Recorder {
    /// Adds `delta` to the monotonic counter `key`.
    #[inline]
    fn add(&mut self, key: &'static str, delta: u64) {}

    /// Records `value` into the log₂ histogram `key`.
    #[inline]
    fn observe(&mut self, key: &'static str, value: u64) {}

    /// Records a completed span of `seconds` under `key`.
    #[inline]
    fn span(&mut self, key: &'static str, seconds: f64) {}

    /// Appends a DES trace record (time, cluster, event kind, post-event
    /// x/y state) to the bounded ring buffer, if one is attached.
    #[inline]
    fn trace(&mut self, time: f64, cluster: u32, kind: DesEventKind, x: u32, y: u32) {}
}

/// The no-op recorder: a zero-sized type whose every call disappears at
/// compile time. Loops monomorphized with it are byte-for-byte the
/// uninstrumented loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// The real recorder: a [`Registry`] of named metrics plus an optional
/// bounded [`TraceRing`].
///
/// One instance is owned per instrumented loop (per DES shard, per sweep
/// worker); the spawning layer merges the registries afterwards in a
/// fixed order via [`Registry::merge`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    registry: Registry,
    trace: Option<TraceRing>,
}

impl MetricsRecorder {
    /// A recorder with an empty registry that keeps the last `capacity`
    /// DES events in a ring buffer (capacity 0 means no tracer).
    #[must_use]
    pub fn with_trace(capacity: usize) -> Self {
        MetricsRecorder {
            registry: Registry::new(),
            trace: if capacity > 0 {
                Some(TraceRing::new(capacity))
            } else {
                None
            },
        }
    }

    /// The metrics recorded so far.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event tracer, if one was attached.
    #[must_use]
    pub fn tracer(&self) -> Option<&TraceRing> {
        self.trace.as_ref()
    }

    /// Consumes the recorder, returning its parts for merging/export.
    #[must_use]
    pub fn into_parts(self) -> (Registry, Option<TraceRing>) {
        (self.registry, self.trace)
    }
}

impl Recorder for MetricsRecorder {
    #[inline]
    fn add(&mut self, key: &'static str, delta: u64) {
        self.registry.add(key, delta);
    }

    #[inline]
    fn observe(&mut self, key: &'static str, value: u64) {
        self.registry.observe(key, value);
    }

    #[inline]
    fn span(&mut self, key: &'static str, seconds: f64) {
        self.registry.span(key, seconds);
    }

    #[inline]
    fn trace(&mut self, time: f64, cluster: u32, kind: DesEventKind, x: u32, y: u32) {
        if let Some(ring) = &mut self.trace {
            ring.push(time, cluster, kind, x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<R: Recorder>(rec: &mut R) -> u64 {
        let mut acc = 0u64;
        for i in 0..10u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
            rec.add("iters", 1);
            rec.observe("acc_low", acc & 0xff);
            rec.trace(i as f64, i as u32, DesEventKind::Join, 1, 0);
        }
        rec.span("drive", 0.25);
        acc
    }

    #[test]
    fn null_and_metrics_recorders_do_not_change_results() {
        let null = drive(&mut NullRecorder);
        let mut rec = MetricsRecorder::with_trace(4);
        let real = drive(&mut rec);
        assert_eq!(null, real);
    }

    #[test]
    fn metrics_recorder_populates_every_metric_kind() {
        let mut rec = MetricsRecorder::with_trace(4);
        drive(&mut rec);
        assert_eq!(rec.registry().counter("iters"), Some(10));
        assert_eq!(rec.registry().histogram("acc_low").unwrap().count(), 10);
        assert_eq!(rec.registry().span_stats("drive").unwrap().count(), 1);
        // Ring capacity 4 keeps only the last 4 of 10 events.
        assert_eq!(rec.tracer().unwrap().len(), 4);
        assert_eq!(rec.tracer().unwrap().total_pushed(), 10);
    }

    #[test]
    fn null_recorder_is_zero_sized_and_disabled() {
        // Zero-sized: there is nowhere for it to record to.
        assert_eq!(std::mem::size_of::<NullRecorder>(), 0);
    }
}
