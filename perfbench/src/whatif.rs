//! `whatif_stream`: planet-scale what-if queries served in a closed loop.
//!
//! Each of [`WORKERS`] clients takes the next query of a seeded stream,
//! calls `planet_scale_what_if_with_defense` and only then takes another.
//! Structural keys (C, Δ, k, d, adversary toggles) are Zipf-popular in a
//! fixed order, so a decomposition or result cache would have something
//! to hit; μ, the defense and the node count are drawn uniformly.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pollux::{
    AdversaryToggles, AnalysisMode, ClusterAnalysis, ClusterChain, InitialCondition, ModelParams,
};
use pollux_defense::{Defense, DefenseSpec};
use pollux_des::replication::replication_seed;
use pollux_linalg::SolverOptions;
use pollux_meanfield::{
    planet_scale_what_if_with_defense, FluidModel, MeanFieldError, WhatIfAnswer,
};

use crate::trace::{Span, Tracer};
use crate::WORKERS;

/// The stored reference: the node-independent answer fields of every
/// (structural key, μ, defense) the generator can draw.
const REFERENCE: &str = include_str!("../ref/whatif.tsv");

/// Relative tolerance of an answer against the reference (plus an
/// absolute floor of [`ABS_TOL`]; equal values, infinite settling times
/// included, always agree). The fluid solve is deterministic; only a
/// change of solver or summation order moves the answers.
const REL_TOL: f64 = 1e-6;
/// Absolute tolerance floor; see [`REL_TOL`].
const ABS_TOL: f64 = 1e-12;

const CORE_SIZES: [usize; 2] = [4, 7];
const MAX_SPARES: [usize; 4] = [7, 10, 14, 20];
const SURVIVALS: [f64; 3] = [0.8, 0.9, 0.95];
const TOGGLES: [&str; 3] = ["full", "no-bias", "no-rule2"];
const MUS: [f64; 3] = [0.1, 0.2, 0.3];
const NODES: [f64; 4] = [1e6, 1e7, 1e8, 1e9];
/// Zipf exponent of the structural-key popularity.
const ZIPF_S: f64 = 1.0;
/// Fixed seed of the popularity order among keys of one size. It is not
/// the run's seed, so every seed draws from the same mix of cheap and
/// expensive keys.
const POPULARITY_SEED: u64 = 0x5EED_2011;
/// Churn rate per cluster passed with every query.
const EVENTS_PER_CLUSTER: f64 = 1.0;
/// Power-iteration budget `planet_scale_what_if_with_defense` gives the
/// spectral-gap estimate; the traced run repeats the call split in three.
const GAP_ITERATIONS: u32 = 96;
/// Latency samples each client keeps; beyond that it keeps a uniform
/// sample of this size.
const CLIENT_SAMPLES: usize = 50_000;
/// Leading queries of a window whose answers are kept, to compare the
/// traced window against the untraced one.
const COMPARED_QUERIES: u64 = 2_000;
/// Queries served before timing starts, counted in `setup_s`.
pub const WARMUP_QUERIES: u64 = 200;

fn defenses() -> [DefenseSpec; 5] {
    [
        DefenseSpec::Null,
        DefenseSpec::InducedChurn { rate: 0.1 },
        DefenseSpec::InducedChurn { rate: 0.2 },
        DefenseSpec::IncarnationRefresh {
            period: 10.0,
            detection_prob: 0.8,
        },
        DefenseSpec::AdaptiveClusterSize {
            target_fraction: 0.5,
        },
    ]
}

fn toggles(label: &str) -> AdversaryToggles {
    match label {
        "no-bias" => AdversaryToggles {
            bias: false,
            ..AdversaryToggles::all()
        },
        "no-rule2" => AdversaryToggles {
            rule2: false,
            ..AdversaryToggles::all()
        },
        _ => AdversaryToggles::all(),
    }
}

/// The structural part of a query: what a chain decomposition depends on.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StructKey {
    core: usize,
    max_spare: usize,
    k: usize,
    d: f64,
    toggles: &'static str,
}

/// Every structural key, in enumeration order.
fn struct_keys() -> Vec<StructKey> {
    let mut keys = Vec::new();
    for core in CORE_SIZES {
        for max_spare in MAX_SPARES {
            for k in [1, core] {
                for d in SURVIVALS {
                    for toggles in TOGGLES {
                        keys.push(StructKey {
                            core,
                            max_spare,
                            k,
                            d,
                            toggles,
                        });
                    }
                }
            }
        }
    }
    keys
}

/// One generated query, as indices into the value tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    /// Index into the popularity-ordered structural keys.
    pub key: usize,
    pub mu: usize,
    pub defense: usize,
    pub nodes: usize,
}

/// The seeded query stream and everything a query needs at call time.
pub struct Stream {
    seed: u64,
    /// Structural keys, most popular first.
    keys: Vec<StructKey>,
    /// Cumulative Zipf weights over `keys`.
    cdf: Vec<f64>,
    defenses: Vec<Box<dyn Defense + Send + Sync>>,
    /// The reference's five fields per (key, μ, defense), indexed like
    /// [`Stream::reference`] reads them.
    reference: Vec<[f64; 5]>,
}

impl Stream {
    /// The stream of `seed`: the same seed always yields the same queries.
    pub fn new(seed: u64) -> Result<Stream, String> {
        // Popularity falls with the size of the state space: small
        // clusters are asked about most, the largest ones form the rare,
        // expensive tail that p99 measures. Keys of one size follow in a
        // fixed pseudo-random order.
        let mut order: Vec<(usize, u64, StructKey)> = struct_keys()
            .into_iter()
            .enumerate()
            .map(|(i, k)| {
                let states = (k.core + 1) * (k.max_spare + 1) * (k.max_spare + 2) / 2;
                (states, replication_seed(POPULARITY_SEED, i as u64), k)
            })
            .collect();
        order.sort_by_key(|&(states, rank, _)| (states, rank));
        let keys: Vec<StructKey> = order.into_iter().map(|(_, _, k)| k).collect();
        let mut total = 0.0;
        let cdf = (1..=keys.len())
            .map(|r| {
                total += 1.0 / (r as f64).powf(ZIPF_S);
                total
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|c| c / total)
            .collect();
        let specs = defenses();
        let defenses = specs
            .iter()
            .map(DefenseSpec::build)
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let table = parse_reference(REFERENCE)?;
        let mut reference = Vec::with_capacity(keys.len() * MUS.len() * specs.len());
        for k in &keys {
            for mu in MUS {
                for spec in &specs {
                    let key = format!(
                        "{}\t{}\t{}\t{}\t{}\t{mu}\t{}",
                        k.core,
                        k.max_spare,
                        k.k,
                        k.d,
                        k.toggles,
                        spec.label()
                    );
                    let row = table
                        .get(&key)
                        .ok_or_else(|| format!("no what-if reference entry for {key}"))?;
                    reference.push(*row);
                }
            }
        }
        Ok(Stream {
            seed,
            keys,
            cdf,
            defenses,
            reference,
        })
    }

    /// Query `i` of the stream.
    pub fn query(&self, i: u64) -> Query {
        let base = replication_seed(self.seed, i);
        let unit = |j: u64| (replication_seed(base, j) >> 11) as f64 / (1u64 << 53) as f64;
        let pick = |j: u64, n: usize| ((unit(j) * n as f64) as usize).min(n - 1);
        let u = unit(0);
        Query {
            key: self
                .cdf
                .partition_point(|&c| c <= u)
                .min(self.keys.len() - 1),
            mu: pick(1, MUS.len()),
            defense: pick(2, self.defenses.len()),
            nodes: pick(3, NODES.len()),
        }
    }

    fn params(&self, q: &Query) -> ModelParams {
        let key = &self.keys[q.key];
        ModelParams::new(key.core, key.max_spare, key.k)
            .expect("the key tables hold valid sizes")
            .with_mu(MUS[q.mu])
            .with_d(key.d)
            .with_toggles(toggles(key.toggles))
    }

    /// The stored (safe fraction, polluted fraction, polluted node
    /// fraction, mean cluster size, spectral gap) of `q`.
    fn reference(&self, q: &Query) -> &[f64; 5] {
        &self.reference[(q.key * MUS.len() + q.mu) * self.defenses.len() + q.defense]
    }

    /// Whether `answer` matches the reference within the tolerance; the
    /// node-dependent fields are derived from the reference the way the
    /// library derives them.
    fn agrees(&self, q: &Query, answer: &Answer) -> bool {
        let [safe, polluted, polluted_nodes, mean_size, gap] = *self.reference(q);
        let nodes = NODES[q.nodes];
        let n_clusters = nodes / mean_size;
        let expected = [
            n_clusters,
            mean_size,
            safe,
            polluted,
            polluted_nodes,
            polluted_nodes * nodes,
            gap,
            100f64.ln() / gap,
            1.0 / n_clusters,
        ];
        answer
            .iter()
            .zip(expected)
            .all(|(&g, w)| g == w || (g - w).abs() <= REL_TOL * w.abs() + ABS_TOL)
    }
}

/// The fields of a [`WhatIfAnswer`], in declaration order.
pub type Answer = [f64; 9];

fn fields(a: &WhatIfAnswer) -> Answer {
    [
        a.n_clusters,
        a.mean_cluster_size,
        a.safe_fraction,
        a.polluted_fraction,
        a.polluted_node_fraction,
        a.expected_polluted_nodes,
        a.spectral_gap,
        a.settling_time,
        a.finite_size_band,
    ]
}

/// A kept answer: its stream index and the answer.
pub type Kept = (u64, Result<Answer, String>);

/// When a closed loop stops taking queries.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After the stream index reaches this value.
    At(u64),
    /// Once this many seconds have passed.
    After(f64),
}

/// What a closed loop served. Its memory does not grow with the number
/// of queries, so `peak_rss_mib` does not rise when the program gets
/// faster.
pub struct Window {
    /// Queries served, from the first index on without gaps.
    pub queries: u64,
    /// Queries whose answer failed or missed the reference.
    pub failed: u64,
    /// Latencies of every query, or of a uniform sample of
    /// `WORKERS × CLIENT_SAMPLES` of them when there were more.
    pub latencies_s: Vec<f64>,
    /// Answers of the window's first [`COMPARED_QUERIES`] indices, by
    /// index, for the traced-vs-untraced comparison.
    pub kept: Vec<Kept>,
    pub wall_s: f64,
    pub spans: Vec<Span>,
}

/// One client's share of a window.
#[derive(Default)]
struct Client {
    queries: u64,
    failed: u64,
    latencies_s: Vec<f64>,
    kept: Vec<Kept>,
}

impl Client {
    /// Keeps `latency` in a uniform sample of at most `CLIENT_SAMPLES`
    /// (reservoir sampling, seeded by the client).
    fn sample(&mut self, client: u64, latency: f64) {
        self.queries += 1;
        if self.latencies_s.len() < CLIENT_SAMPLES {
            self.latencies_s.push(latency);
        } else {
            let j = replication_seed(client, self.queries) % self.queries;
            if let Some(slot) = self.latencies_s.get_mut(j as usize) {
                *slot = latency;
            }
        }
    }
}

/// Serves the stream from index `first` with [`WORKERS`] closed-loop
/// clients; with `epoch`, every query is traced. Each answer is checked
/// against the reference (an indexed lookup) after its latency is taken.
fn serve(stream: &Stream, first: u64, stop: Stop, epoch: Option<Instant>) -> Window {
    let cursor = AtomicU64::new(first);
    let mut total = Client::default();
    let mut spans = Vec::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|client| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut tr = epoch.map(|e| Tracer::new(e, client as u32));
                    let mut mine = Client::default();
                    loop {
                        if let Stop::After(s) = stop {
                            if start.elapsed().as_secs_f64() >= s {
                                break;
                            }
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if let Stop::At(end) = stop {
                            if i >= end {
                                break;
                            }
                        }
                        let q = stream.query(i);
                        let params = stream.params(&q);
                        let defense = stream.defenses[q.defense].as_ref();
                        let nodes = NODES[q.nodes];
                        let t = Instant::now();
                        let answer = match tr.as_mut() {
                            None => planet_scale_what_if_with_defense(
                                &params,
                                defense,
                                &InitialCondition::Delta,
                                nodes,
                                EVENTS_PER_CLUSTER,
                            )
                            .map(|a| fields(&a)),
                            Some(tr) => answer_traced(tr, i, &params, defense, nodes),
                        };
                        mine.sample(client as u64, t.elapsed().as_secs_f64());
                        let answer = answer.map_err(|e| e.to_string());
                        let ok = answer.as_ref().is_ok_and(|a| stream.agrees(&q, a));
                        if !ok {
                            mine.failed += 1;
                            eprintln!(
                                "whatif_stream: query {i} ({:?}, {params}, {}) answered {answer:?}, reference {:?}",
                                q,
                                defenses()[q.defense].label(),
                                stream.reference(&q)
                            );
                        }
                        if i < first + COMPARED_QUERIES {
                            mine.kept.push((i, answer));
                        }
                    }
                    (mine, tr.map(Tracer::into_spans).unwrap_or_default())
                })
            })
            .collect();
        for h in handles {
            let (mine, s) = h.join().expect("what-if client panicked");
            total.queries += mine.queries;
            total.failed += mine.failed;
            total.latencies_s.extend(mine.latencies_s);
            total.kept.extend(mine.kept);
            spans.extend(s);
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    total.kept.sort_by_key(|k| k.0);
    Window {
        queries: total.queries,
        failed: total.failed,
        latencies_s: total.latencies_s,
        kept: total.kept,
        wall_s,
        spans,
    }
}

/// `planet_scale_what_if_with_defense`, made of the same public calls
/// with a span around each: the fluid-model build, the open equilibrium
/// and the relaxation gap.
fn answer_traced(
    tr: &mut Tracer,
    op: u64,
    params: &ModelParams,
    defense: &(dyn Defense + Send + Sync),
    nodes: f64,
) -> Result<Answer, MeanFieldError> {
    tr.span("whatif.query", op, |tr| {
        let core = params.core_size() as f64;
        if !nodes.is_finite() || nodes < core {
            return Err(MeanFieldError::InvalidConfig(format!(
                "node count {nodes} cannot host a single {core}-node core"
            )));
        }
        let model = tr.span("meanfield.build", op, |_| {
            Ok::<_, MeanFieldError>(
                FluidModel::build_with_defense(params, defense, &InitialCondition::Delta)?
                    .with_rate(EVENTS_PER_CLUSTER)?
                    .with_solver_options(SolverOptions::force_sparse().with_jacobi(true)),
            )
        })?;
        let eq = tr.span("meanfield.equilibrium", op, |_| model.open_equilibrium())?;
        let mut mean_cluster_size = 0.0;
        let mut polluted_node_mass = 0.0;
        for (i, state) in model.space().iter() {
            let size = core + state.s as f64;
            mean_cluster_size += eq.pi[i] * size;
            if state.classify(params).is_polluted() {
                polluted_node_mass += eq.pi[i] * size;
            }
        }
        let polluted_node_fraction = polluted_node_mass / mean_cluster_size;
        let n_clusters = nodes / mean_cluster_size;
        let spectral_gap = tr.span("meanfield.gap", op, |_| {
            model.relaxation_gap(&eq, GAP_ITERATIONS)
        });
        let settling_time = if spectral_gap > 0.0 {
            100f64.ln() / spectral_gap
        } else {
            f64::INFINITY
        };
        Ok([
            n_clusters,
            mean_cluster_size,
            eq.safe_fraction,
            eq.polluted_fraction,
            polluted_node_fraction,
            polluted_node_fraction * nodes,
            spectral_gap,
            settling_time,
            1.0 / n_clusters,
        ])
    })
}

/// Serves the untimed warm-up prefix.
pub fn warm_up(stream: &Stream, queries: u64) -> Window {
    serve(stream, 0, Stop::At(queries), None)
}

/// Serves queries after the warm-up prefix for `seconds`; with `epoch`,
/// every query is traced.
pub fn run(stream: &Stream, warmup: u64, seconds: f64, epoch: Option<Instant>) -> Window {
    serve(stream, warmup, Stop::After(seconds), epoch)
}

impl Window {
    /// Queries per second.
    pub fn throughput(&self) -> f64 {
        self.queries as f64 / self.wall_s
    }
}

/// Shares of the `served` queries after index `first` whose structural
/// key, and whose whole query, already appeared earlier in the stream
/// (warm-up included).
fn repeat_shares(stream: &Stream, first: u64, served: u64) -> (f64, f64) {
    let (mut keys, mut queries) = (HashSet::new(), HashSet::new());
    let (mut key_repeats, mut query_repeats) = (0u64, 0u64);
    for i in 0..first + served {
        let q = stream.query(i);
        let key_seen = !keys.insert(q.key);
        let query_seen = !queries.insert(q);
        if i >= first {
            key_repeats += u64::from(key_seen);
            query_repeats += u64::from(query_seen);
        }
    }
    let n = served.max(1) as f64;
    (key_repeats as f64 / n, query_repeats as f64 / n)
}

/// Per-layer metrics of one traced window served after index `first`.
pub fn layer_metrics(
    stream: &Stream,
    first: u64,
    window: &Window,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let layers = crate::trace::by_layer(&window.spans);
    for (layer, busy, p50) in [
        (
            "meanfield.build",
            "meanfield.build.busy_s",
            "meanfield.build.p50_ms",
        ),
        (
            "meanfield.equilibrium",
            "meanfield.equilibrium.busy_s",
            "meanfield.equilibrium.p50_ms",
        ),
        (
            "meanfield.gap",
            "meanfield.gap.busy_s",
            "meanfield.gap.p50_ms",
        ),
    ] {
        if let Some(l) = layers.get(layer) {
            out.insert(busy, l.self_s);
            out.insert(p50, crate::stats::median(&l.durations_s) * 1e3);
        }
    }
    out.insert("whatif.queries", window.queries as f64);
    let (key, query) = repeat_shares(stream, first, window.queries);
    out.insert("whatif.struct_key_repeat_share", key);
    out.insert("whatif.full_key_repeat_share", query);
}

/// The reference file's text: every (structural key, μ, defense) answer,
/// each also checked against the exact chain's renewal fractions of the
/// defense-folded chain (sparse pipeline, the fast one at every size
/// here).
pub fn render_reference() -> Result<String, String> {
    let mut out = String::from(
        "C\tDelta\tk\td\tadversary\tmu\tdefense\tsafe_fraction\tpolluted_fraction\tpolluted_node_fraction\tmean_cluster_size\tspectral_gap\n",
    );
    let specs = defenses();
    for key in struct_keys() {
        for mu in MUS {
            for spec in &specs {
                let defense = spec.build().map_err(|e| e.to_string())?;
                let params = ModelParams::new(key.core, key.max_spare, key.k)
                    .map_err(|e| e.to_string())?
                    .with_mu(mu)
                    .with_d(key.d)
                    .with_toggles(toggles(key.toggles));
                let a = planet_scale_what_if_with_defense(
                    &params,
                    defense.as_ref(),
                    &InitialCondition::Delta,
                    NODES[NODES.len() - 1],
                    EVENTS_PER_CLUSTER,
                )
                .map_err(|e| format!("{params}: {e}"))?;
                let exact = ClusterAnalysis::from_chain_with_mode(
                    ClusterChain::build_with_defense(&params, defense.as_ref()),
                    InitialCondition::Delta,
                    AnalysisMode::Sparse,
                )
                .and_then(|x| x.steady_state_fractions())
                .map_err(|e| e.to_string())?;
                if (exact.1 - a.polluted_fraction).abs() > 1e-8
                    || (exact.0 - a.safe_fraction).abs() > 1e-8
                {
                    return Err(format!(
                        "{params} {}: fluid {:?} vs exact {exact:?}",
                        spec.label(),
                        (a.safe_fraction, a.polluted_fraction)
                    ));
                }
                out.push_str(&format!(
                    "{}\t{}\t{}\t{}\t{}\t{mu}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                    key.core,
                    key.max_spare,
                    key.k,
                    key.d,
                    key.toggles,
                    spec.label(),
                    a.safe_fraction,
                    a.polluted_fraction,
                    a.polluted_node_fraction,
                    a.mean_cluster_size,
                    a.spectral_gap
                ));
            }
        }
    }
    Ok(out)
}

fn parse_reference(text: &str) -> Result<HashMap<String, [f64; 5]>, String> {
    let mut out = HashMap::new();
    for line in text.lines().skip(1) {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 12 {
            return Err(format!("malformed what-if reference line: {line}"));
        }
        let mut values = [0.0; 5];
        for (v, f) in values.iter_mut().zip(&fields[7..]) {
            *v = f
                .parse()
                .map_err(|_| format!("malformed what-if reference value: {f}"))?;
        }
        out.insert(fields[..7].join("\t"), values);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_client_keeps_a_bounded_uniform_latency_sample() {
        let mut c = Client::default();
        let n = 3 * CLIENT_SAMPLES as u64;
        for i in 0..n {
            c.sample(1, i as f64);
        }
        assert_eq!(c.queries, n);
        assert_eq!(c.latencies_s.len(), CLIENT_SAMPLES);
        // A uniform sample of 0..n has mean ≈ n/2 and reaches both ends.
        let mean = c.latencies_s.iter().sum::<f64>() / CLIENT_SAMPLES as f64;
        assert!((mean / n as f64 - 0.5).abs() < 0.01, "{mean}");
        assert!(c.latencies_s.iter().any(|&l| l >= (n - n / 100) as f64));
    }
}
