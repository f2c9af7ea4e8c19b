//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A traced run wraps every public call a workload makes in a [`Span`]:
//! name (the layer), start, end, parent span and operation id (the cell,
//! query or DES run the call serves). Spans stay in memory, one buffer
//! per worker thread, and are written out once when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a run: the recording thread in the high bits.
    pub id: u64,
    /// The span that was open on the same thread when this one started.
    pub parent: Option<u64>,
    /// The operation (cell, query or DES run) the call serves.
    pub op: u64,
    /// Layer name, e.g. `transition` or `meanfield.gap`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Spans nest through the closures passed to
/// [`Tracer::span`], so parents are always known when a span opens.
pub struct Tracer {
    epoch: Instant,
    id_base: u64,
    spans: Vec<Span>,
    open: Vec<u64>,
}

impl Tracer {
    /// A recorder for worker `thread`, timing against the shared `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Tracer {
            epoch,
            id_base: u64::from(thread) << 40,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_named(op, f, |_| name)
    }

    /// Runs `f` inside a span whose name is chosen from its result, for
    /// calls whose layer is only known afterwards (the chain analysis
    /// picks its dense or sparse pipeline inside the call).
    pub fn span_named<T>(
        &mut self,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        let index = self.spans.len();
        let id = self.id_base + index as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op,
            name: "",
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        self.spans[index].start_ns = self.now_ns();
        let out = f(self);
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
        self.spans[index].name = name(&out);
        out
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let position: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|id| position.get(&id)) {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// What one layer's spans add up to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Distinct operations that made at least one call.
    pub ops: u64,
    /// Summed self time in seconds.
    pub self_s: f64,
    /// Each span's full duration in seconds, in recording order.
    pub durations_s: Vec<f64>,
}

/// Reduces spans to per-layer counts and self times.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    let mut ops: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let layer = layers.entry(s.name).or_default();
        layer.calls += 1;
        layer.self_s += own as f64 * 1e-9;
        layer.durations_s.push(s.duration_ns() as f64 * 1e-9);
        ops.entry(s.name).or_default().push(s.op);
    }
    for (name, mut list) in ops {
        list.sort_unstable();
        list.dedup();
        layers.get_mut(name).expect("layer recorded").ops = list.len() as u64;
    }
    layers
}

/// Writes spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 7,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // cell [0, 100) holds transition [10, 30), analysis [30, 70) and
        // metrics [60, 80), which overlaps analysis by 10; analysis holds
        // an inner [40, 50).
        let spans = vec![
            span(1, None, "sweep.cell", 0, 100),
            span(2, Some(1), "transition", 10, 30),
            span(3, Some(1), "analysis.dense", 30, 70),
            span(4, Some(3), "inner", 40, 50),
            span(5, Some(1), "analysis.metrics", 60, 80),
        ];
        assert_eq!(self_ns(&spans), vec![100 - 70, 20, 40 - 10, 10, 20]);
        let layers = by_layer(&spans);
        assert_eq!(layers["sweep.cell"].calls, 1);
        assert!((layers["sweep.cell"].self_s - 30e-9).abs() < 1e-18);
        assert!((layers["analysis.dense"].self_s - 30e-9).abs() < 1e-18);
        assert_eq!(layers["transition"].ops, 1);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(1, None, "root", 10, 20),
            span(2, Some(1), "child", 5, 15),
            span(3, None, "other", 0, 50),
        ];
        assert_eq!(self_ns(&spans), vec![5, 10, 50]);
    }

    #[test]
    fn the_tracer_nests_and_names_spans() {
        let mut tr = Tracer::new(Instant::now(), 3);
        let v = tr.span("outer", 1, |tr| {
            tr.span_named(1, |_| 41, |v| if *v > 40 { "big" } else { "small" }) + 1
        });
        assert_eq!(v, 42);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("big", Some(3 << 40)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
