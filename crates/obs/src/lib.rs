//! `pollux-obs` — a deterministic, zero-cost-when-disabled
//! instrumentation layer for the Pollux reproduction.
//!
//! The workspace's standing guarantee is *byte-identical scenario output
//! at any thread/shard count*; an instrumentation layer must observe the
//! dynamics without perturbing that contract. This crate provides the
//! pieces, all of them **provably inert**: recorders draw no randomness,
//! never reorder events, and are consulted strictly *after* an event's
//! effects are committed, so an observed run produces the same bytes as
//! a plain one.
//!
//! * [`Recorder`] — the trait every instrumented loop is generic over.
//!   All methods have `#[inline]` no-op default bodies, so a loop
//!   monomorphized with [`NullRecorder`] compiles to exactly the
//!   uninstrumented machine code (the 4.5M events/s DES hot loop pays
//!   nothing when observation is off).
//! * [`MetricsRecorder`] — the real implementation: named monotonic
//!   [counters](Registry), log₂-bucketed [`Histogram`]s, [`SpanStats`]
//!   span timers and a bounded ring-buffer [`TraceRing`] event tracer. Which of the two a caller passes is the
//!   only switch for recording: plain entry points pass [`NullRecorder`],
//!   observed ones a [`MetricsRecorder`].
//! * [`mem`] — memory accounting: peak RSS from `/proc/self/status`
//!   plus exact [`mem::MemoryAudit`] byte audits of the DES's per-cluster
//!   state, for the benches' bytes-per-node figure.
//! * [`ObsReport`] — a deterministic JSON sink (sorted keys, fixed
//!   formatting) for metrics sidecars written next to sweep artefacts
//!   and bench trajectories.
//!
//! # Inertness contract
//!
//! Instrumented code must uphold three rules, test-enforced at the
//! repository level (`tests/obs_inertness.rs`):
//!
//! 1. **No randomness** — a recorder never touches an RNG stream.
//! 2. **No reordering** — recording happens after an event's effects are
//!    committed; recorders cannot influence control flow.
//! 3. **No output coupling** — metrics land in sidecar files only;
//!    scenario TSV/JSON bytes are identical whether a run is observed or
//!    not.
//!
//! # Example
//!
//! ```
//! use pollux_obs::{MetricsRecorder, NullRecorder, Recorder};
//!
//! fn hot_loop<R: Recorder>(rec: &mut R) -> u64 {
//!     let mut acc = 0;
//!     for i in 0..100u64 {
//!         acc += i;
//!         rec.add("loop.iterations", 1);
//!         rec.observe("loop.value", i);
//!     }
//!     acc
//! }
//!
//! // Identical results with the no-op and the real recorder…
//! assert_eq!(hot_loop(&mut NullRecorder), 4950);
//! let mut rec = MetricsRecorder::default();
//! assert_eq!(hot_loop(&mut rec), 4950);
//! // …and the real one populates its counters.
//! assert_eq!(rec.registry().counter("loop.iterations"), Some(100));
//! ```

pub mod mem;
mod metrics;
mod recorder;
mod report;
mod trace;

pub use metrics::{Histogram, Metric, Registry, SpanStats, HIST_BUCKETS};
pub use recorder::{MetricsRecorder, NullRecorder, Recorder};
pub use report::ObsReport;
pub use trace::{DesEventKind, TraceRecord, TraceRing};

/// Always `false`: recording is chosen per call, by the [`Recorder`] a
/// caller passes, never at build time. Plain entry points pass
/// [`NullRecorder`], so no build records on them; observed entry points
/// pass a [`MetricsRecorder`], which always records. The benchmark under
/// `perfbench/` still reads this constant to refuse untraced runs from a
/// recording build; it goes away with the next change to that benchmark.
pub const METRICS_ENABLED: bool = false;
