//! `exact_sweep`: the "reproduce the paper" path.
//!
//! The untraced run is `SweepRunner::run_all` over every paper scenario
//! plus `delta_large`, with each report rendered by `to_tsv()`. The traced
//! run evaluates the same cells on the benchmark's own workers through
//! `Scenario::cells` and `OutputKind::evaluate`'s public building blocks,
//! splitting analytic cells into the chain build, the chain analysis and
//! the metric calls.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pollux::overlay_sim::{run_overlay, OverlaySimConfig};
use pollux::{polluted_split_unreachable, simulation, ClusterAnalysis, ClusterChain};
use pollux::{ModelParams, ModelSpace, OverlayModel};
use pollux_adversary::TargetedStrategy;
use pollux_des::replication::replication_seed;
use pollux_prob::tolerance::CI_HALF_WIDTH_FLOOR;
use pollux_resilience::fnv1a64;
use pollux_sweep::SweepReport as Report;
use pollux_sweep::{registry, OutputKind, Scenario, SweepCell, SweepError, SweepRunner, Value};

use crate::trace::{Span, Tracer};
use crate::{Measured, WORKERS};

/// The stored reference: every report of the default-seed sweep as TSV.
const REFERENCE: &str = include_str!("../ref/exact_sweep.tsv");

/// Relative tolerance on the reference's numeric columns (plus an
/// absolute floor of [`ABS_TOL`] for values near zero). The columns are
/// analytic, so only a change of solver or summation order moves them.
const REL_TOL: f64 = 1e-7;
/// Absolute tolerance floor; see [`REL_TOL`].
const ABS_TOL: f64 = 1e-12;

/// Columns that depend on the master seed: the Monte-Carlo estimates of
/// the validators, checked through the row's own `ok` verdict instead of
/// the reference.
fn seed_dependent(column: &str) -> bool {
    column.starts_with("sim_") || column == "censored"
}

/// The scenarios of a tiny smoke run (one cell of each evaluation kind
/// the full run splits into layers, except the large validators).
const TINY_SCENARIOS: [&str; 3] = ["state_space", "table2", "validate_overlay"];

/// The prepared inputs of one sweep.
pub struct Sweep {
    scenarios: Vec<Scenario>,
    cells: Vec<Vec<SweepCell>>,
    reference: HashMap<String, String>,
}

impl Sweep {
    /// Cells per sweep.
    pub fn cell_count(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }
}

/// Builds the scenario list, expands its cells and parses the reference.
pub fn prepare(tiny: bool) -> Result<Sweep, String> {
    let mut scenarios = registry::paper();
    scenarios.push(registry::find("delta_large").map_err(|e| e.to_string())?);
    if tiny {
        scenarios.retain(|s| TINY_SCENARIOS.contains(&s.name.as_str()));
    }
    let cells = scenarios
        .iter()
        .map(Scenario::cells)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Sweep {
        scenarios,
        cells,
        reference: parse_reference(REFERENCE),
    })
}

/// One sweep's output: each report with its TSV rendering.
pub type Rendered = Result<Vec<(Report, String)>, String>;

/// Runs whole sweeps until `seconds` have passed (at least one). Each
/// sweep is checked as soon as it ends, outside the timed sweeps, and
/// only the first sweep's output is kept, so memory does not grow with
/// the number of sweeps. Returns the measurement and the failed cells.
pub fn run(sweep: &Sweep, seed: u64, seconds: f64) -> (Measured<Rendered>, u64) {
    let runner = SweepRunner::new().with_threads(WORKERS).with_seed(seed);
    let start = Instant::now();
    let mut latencies_s = Vec::new();
    let mut outputs = Vec::new();
    let mut failed = 0;
    loop {
        let t = Instant::now();
        let out = runner
            .run_all(&sweep.scenarios)
            .map(|reports| {
                reports
                    .into_iter()
                    .map(|r| {
                        let tsv = r.to_tsv();
                        (r, tsv)
                    })
                    .collect()
            })
            .map_err(|e| e.to_string());
        latencies_s.push(t.elapsed().as_secs_f64());
        failed += check(sweep, &out);
        if outputs.is_empty() {
            outputs.push(out);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let measured = Measured {
        wall_s: latencies_s.iter().sum(),
        work: (latencies_s.len() * sweep.cell_count()) as f64,
        latencies_s,
        outputs,
    };
    (measured, failed)
}

/// Failed cells of one sweep output: cells whose rows miss the
/// reference, or whose validator flagged a mismatch.
pub fn check(sweep: &Sweep, out: &Rendered) -> u64 {
    let reports = match out {
        Ok(reports) if reports.len() == sweep.scenarios.len() => reports,
        _ => return sweep.cell_count() as u64,
    };
    let mut failed = 0;
    for ((scenario, cells), (report, tsv)) in sweep.scenarios.iter().zip(&sweep.cells).zip(reports)
    {
        let failing = match sweep.reference.get(&report.scenario) {
            Some(want) if report.scenario == scenario.name => {
                failing_cells(tsv, want).map_or(cells.len(), |f| f.len())
            }
            _ => cells.len(),
        };
        if failing > 0 {
            eprintln!(
                "exact_sweep: {failing} of {} cells of {} miss the reference or fail validation",
                cells.len(),
                scenario.name
            );
        }
        failed += failing as u64;
    }
    failed
}

/// The key columns of each failing row's cell, or `None` when the
/// tables do not even line up (other header or row count).
fn failing_cells(got: &str, want: &str) -> Option<HashSet<String>> {
    let (mut got, mut want) = (got.lines(), want.lines());
    let header = got.next()?;
    if Some(header) != want.next() {
        return None;
    }
    let columns: Vec<&str> = header.split('\t').collect();
    let keys = SweepCell::key_columns().len();
    let (got, want): (Vec<&str>, Vec<&str>) = (got.collect(), want.collect());
    if got.len() != want.len() {
        return None;
    }
    let mut failing = HashSet::new();
    for (g, w) in got.iter().zip(&want) {
        let (g, w): (Vec<&str>, Vec<&str>) = (g.split('\t').collect(), w.split('\t').collect());
        if g.len() != columns.len() || w.len() != columns.len() {
            return None;
        }
        let row_ok = columns.iter().zip(g.iter().zip(&w)).all(|(c, (g, w))| {
            if *c == "ok" {
                *g == "true"
            } else {
                seed_dependent(c) || agrees(g, w)
            }
        });
        if !row_ok {
            failing.insert(g[..keys].join("\t"));
        }
    }
    Some(failing)
}

/// Numbers agree within the stated tolerance; anything else exactly.
fn agrees(got: &str, want: &str) -> bool {
    match (got.parse::<f64>(), want.parse::<f64>()) {
        (Ok(g), Ok(w)) => {
            (g.is_nan() && w.is_nan()) || (g - w).abs() <= REL_TOL * w.abs() + ABS_TOL
        }
        _ => got == want,
    }
}

fn parse_reference(text: &str) -> HashMap<String, String> {
    let mut out = HashMap::new();
    for section in text.split("## ").filter(|s| !s.is_empty()) {
        if let Some((name, body)) = section.split_once('\n') {
            out.insert(name.to_string(), body.to_string());
        }
    }
    out
}

/// The reference file's text for a set of reports.
pub fn render_reference(reports: &[Report]) -> String {
    reports
        .iter()
        .map(|r| format!("## {}\n{}", r.scenario, r.to_tsv()))
        .collect()
}

/// Counts the traced run gathers outside the spans.
#[derive(Default)]
struct ChainKeys {
    built: Vec<String>,
    states_max: usize,
}

/// One traced sweep: its reports, spans, wall time and the chain-build
/// inputs the per-layer metrics are derived from.
pub struct Traced {
    pub output: Rendered,
    pub spans: Vec<Span>,
    pub wall_s: f64,
    chains: ChainKeys,
}

/// Evaluates every cell once on the benchmark's own workers, with spans.
pub fn run_traced(sweep: &Sweep, seed: u64, epoch: Instant) -> Traced {
    let jobs: Vec<(usize, &SweepCell)> = sweep
        .cells
        .iter()
        .enumerate()
        .flat_map(|(s, cells)| cells.iter().map(move |c| (s, c)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(jobs.len()));
    let mut spans = Vec::new();
    let mut chains = ChainKeys::default();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|worker| {
                let (jobs, cursor, results) = (&jobs, &cursor, &results);
                scope.spawn(move || {
                    let mut tr = Tracer::new(epoch, worker as u32);
                    let mut keys = ChainKeys::default();
                    loop {
                        let slot = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(s, cell)) = jobs.get(slot) else {
                            break;
                        };
                        let scenario = &sweep.scenarios[s];
                        let cell_seed = replication_seed(
                            replication_seed(seed, fnv1a64(scenario.name.as_bytes())),
                            cell.index as u64,
                        );
                        let rows = evaluate_traced(
                            &mut tr,
                            slot as u64,
                            scenario,
                            cell,
                            cell_seed,
                            &mut keys,
                        );
                        results
                            .lock()
                            .expect("no worker panics while holding the results")
                            .push((slot, rows));
                    }
                    (tr.into_spans(), keys)
                })
            })
            .collect();
        for h in handles {
            let (s, k) = h.join().expect("traced sweep worker panicked");
            spans.extend(s);
            chains.built.extend(k.built);
            chains.states_max = chains.states_max.max(k.states_max);
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut results = results.into_inner().expect("workers joined");
    results.sort_by_key(|(slot, _)| *slot);
    let mut reports: Vec<Report> = sweep
        .scenarios
        .iter()
        .map(|s| Report {
            scenario: s.name.clone(),
            columns: s.columns(),
            rows: Vec::new(),
        })
        .collect();
    let mut output = Ok(());
    for ((s, _), (_, rows)) in jobs.iter().zip(results) {
        match rows {
            Ok(rows) => reports[*s].rows.extend(rows),
            Err(e) if output.is_ok() => output = Err(e.to_string()),
            Err(_) => {}
        }
    }
    Traced {
        output: output.map(|()| {
            reports
                .into_iter()
                .map(|r| {
                    let tsv = r.to_tsv();
                    (r, tsv)
                })
                .collect()
        }),
        spans,
        wall_s,
        chains,
    }
}

type Rows = Result<Vec<Vec<Value>>, SweepError>;

fn evaluate_traced(
    tr: &mut Tracer,
    op: u64,
    scenario: &Scenario,
    cell: &SweepCell,
    seed: u64,
    keys: &mut ChainKeys,
) -> Rows {
    tr.span("sweep.cell", op, |tr| {
        let rows = evaluate_kind(tr, op, &scenario.kind, cell, seed, keys)?;
        Ok(rows
            .into_iter()
            .map(|row| {
                let mut full = cell.key_values();
                full.extend(row);
                full
            })
            .collect())
    })
}

/// `ClusterChain::build`, then `ClusterAnalysis::from_chain`, each in its
/// own span.
fn analysis(
    tr: &mut Tracer,
    op: u64,
    cell: &SweepCell,
    keys: &mut ChainKeys,
) -> Result<ClusterAnalysis, SweepError> {
    let chain = build_chain(tr, op, &cell.params, keys);
    Ok(tr.span_named(
        op,
        |_| ClusterAnalysis::from_chain(chain, cell.initial.clone()),
        |a| match a {
            Ok(a) if a.is_sparse() => "analysis.sparse",
            _ => "analysis.dense",
        },
    )?)
}

fn build_chain(
    tr: &mut Tracer,
    op: u64,
    params: &ModelParams,
    keys: &mut ChainKeys,
) -> ClusterChain {
    let chain = tr.span("transition", op, |_| ClusterChain::build(params));
    keys.built.push(format!("{params:?}"));
    keys.states_max = keys.states_max.max(chain.space().len());
    chain
}

fn strategy(params: &ModelParams) -> Result<TargetedStrategy, SweepError> {
    TargetedStrategy::new(params.k(), params.nu()).ok_or_else(|| {
        SweepError::InvalidScenario(format!(
            "no targeted strategy for k = {}, nu = {}",
            params.k(),
            params.nu()
        ))
    })
}

/// The kinds of the paper sweep, split at their layer calls; the rows
/// are built exactly as `OutputKind::evaluate` builds them. Any other
/// kind is evaluated whole inside its cell span.
fn evaluate_kind(
    tr: &mut Tracer,
    op: u64,
    kind: &OutputKind,
    cell: &SweepCell,
    seed: u64,
    keys: &mut ChainKeys,
) -> Rows {
    const METRICS: &str = "analysis.metrics";
    match kind {
        OutputKind::Sojourns => {
            let a = analysis(tr, op, cell, keys)?;
            tr.span(METRICS, op, |_| {
                Ok(vec![vec![
                    a.expected_safe_events()?.into(),
                    a.expected_polluted_events()?.into(),
                ]])
            })
        }
        OutputKind::SojournsWithAbsorption => {
            let a = analysis(tr, op, cell, keys)?;
            tr.span(METRICS, op, |_| {
                Ok(vec![vec![
                    a.expected_safe_events()?.into(),
                    a.expected_polluted_events()?.into(),
                    a.absorption_split()?.polluted_merge.into(),
                ]])
            })
        }
        OutputKind::SuccessiveSojourns { count } => {
            let a = analysis(tr, op, cell, keys)?;
            tr.span(METRICS, op, |_| {
                let mut row: Vec<Value> = a
                    .successive_safe_sojourns(*count)
                    .into_iter()
                    .map(Value::from)
                    .collect();
                row.extend(
                    a.successive_polluted_sojourns(*count)
                        .into_iter()
                        .map(Value::from),
                );
                Ok(vec![row])
            })
        }
        OutputKind::Absorption => {
            let a = analysis(tr, op, cell, keys)?;
            tr.span(METRICS, op, |_| {
                let split = a.absorption_split()?;
                Ok(vec![vec![
                    split.safe_merge.into(),
                    split.safe_split.into(),
                    split.polluted_merge.into(),
                    split.polluted_split.into(),
                    split.total().into(),
                ]])
            })
        }
        OutputKind::StateSpace => {
            let space = ModelSpace::new(&cell.params);
            let chain = build_chain(tr, op, &cell.params, keys);
            let unreachable = tr.span(METRICS, op, |_| polluted_split_unreachable(&chain));
            Ok(vec![vec![
                space.len().into(),
                space.transient_safe().len().into(),
                space.transient_polluted().len().into(),
                space.safe_merge().len().into(),
                space.safe_split().len().into(),
                space.polluted_merge().len().into(),
                space.polluted_split().len().into(),
                unreachable.into(),
            ]])
        }
        OutputKind::OverlayProportions {
            n_clusters,
            sample_points,
        } => tr.span("overlay_analysis", op, |_| {
            let mut rows = Vec::with_capacity(n_clusters.len() * sample_points.len());
            for &n in n_clusters {
                let model = OverlayModel::new(&cell.params, cell.initial.clone(), n)?;
                for point in model.proportion_series(sample_points)? {
                    rows.push(vec![
                        n.into(),
                        point.m.into(),
                        point.safe.into(),
                        point.polluted.into(),
                    ]);
                }
            }
            Ok(rows)
        }),
        OutputKind::McValidation {
            replications,
            sigmas,
        } => {
            let a = analysis(tr, op, cell, keys)?;
            let (e_ts, e_tp, split) = tr.span(METRICS, op, |_| {
                Ok::<_, SweepError>((
                    a.expected_safe_events()?,
                    a.expected_polluted_events()?,
                    a.absorption_split()?,
                ))
            })?;
            let strategy = strategy(&cell.params)?;
            let report = tr.span("simulation", op, |_| {
                simulation::estimate(
                    &cell.params,
                    &cell.initial,
                    &strategy,
                    *replications,
                    seed,
                    1,
                )
            });
            let ok_s = (report.safe_events.mean - e_ts).abs()
                <= sigmas * report.safe_events.ci_half_width.max(CI_HALF_WIDTH_FLOOR);
            let ok_p = (report.polluted_events.mean - e_tp).abs()
                <= sigmas
                    * report
                        .polluted_events
                        .ci_half_width
                        .max(CI_HALF_WIDTH_FLOOR);
            let ok_a = (report.absorption.2 - split.polluted_merge).abs() < 0.01;
            Ok(vec![vec![
                e_ts.into(),
                report.safe_events.mean.into(),
                report.safe_events.ci_half_width.into(),
                e_tp.into(),
                report.polluted_events.mean.into(),
                report.polluted_events.ci_half_width.into(),
                split.polluted_merge.into(),
                report.absorption.2.into(),
                report.censored.into(),
                (ok_s && ok_p && ok_a).into(),
            ]])
        }
        OutputKind::OverlayMcValidation {
            n_clusters,
            runs,
            sample_points,
            tol_safe,
            tol_polluted,
        } => {
            let expect = tr.span("overlay_analysis", op, |_| {
                OverlayModel::new(&cell.params, cell.initial.clone(), *n_clusters as u64)?
                    .proportion_series(sample_points)
            })?;
            let strategy = strategy(&cell.params)?;
            let config = OverlaySimConfig {
                n_clusters: *n_clusters,
                sample_points: sample_points.clone(),
                regenerate: false,
            };
            let (mean_safe, mean_polluted) = tr.span("simulation", op, |_| {
                let mut mean_safe = vec![0.0; sample_points.len()];
                let mut mean_polluted = vec![0.0; sample_points.len()];
                for run in 0..*runs {
                    let tr = run_overlay(
                        &cell.params,
                        &cell.initial,
                        &strategy,
                        &config,
                        replication_seed(seed, run),
                    );
                    for (i, &(_, s, p)) in tr.points.iter().enumerate() {
                        mean_safe[i] += s / *runs as f64;
                        mean_polluted[i] += p / *runs as f64;
                    }
                }
                (mean_safe, mean_polluted)
            });
            Ok(expect
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    let ok = (mean_safe[i] - e.safe).abs() < *tol_safe
                        && (mean_polluted[i] - e.polluted).abs() < *tol_polluted;
                    vec![
                        (*n_clusters).into(),
                        e.m.into(),
                        e.safe.into(),
                        mean_safe[i].into(),
                        e.polluted.into(),
                        mean_polluted[i].into(),
                        ok.into(),
                    ]
                })
                .collect())
        }
        other => other.evaluate(cell, seed, WORKERS),
    }
}

/// Per-layer metrics of one traced sweep.
pub fn layer_metrics(traced: &Traced, out: &mut BTreeMap<&'static str, f64>) {
    let layers = crate::trace::by_layer(&traced.spans);
    let layer = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let cells = layer("sweep.cell");
    let busy: f64 = cells.durations_s.iter().sum();
    out.insert("sweep.cells", cells.calls as f64);
    out.insert("sweep.cell_busy_s", busy);
    if !cells.durations_s.is_empty() {
        out.insert(
            "sweep.cell_p50_ms",
            crate::stats::median(&cells.durations_s) * 1e3,
        );
        out.insert(
            "sweep.cell_tail_ms",
            crate::stats::tail(&cells.durations_s).value * 1e3,
        );
        out.insert(
            "sweep.max_cell_s",
            cells.durations_s.iter().copied().fold(0.0, f64::max),
        );
    }
    out.insert(
        "sweep.pool_idle_share",
        1.0 - busy / (WORKERS as f64 * traced.wall_s),
    );
    let transition = layer("transition");
    out.insert("transition.calls", transition.calls as f64);
    out.insert("transition.busy_s", transition.self_s);
    let distinct: HashSet<&String> = traced.chains.built.iter().collect();
    if !traced.chains.built.is_empty() {
        out.insert(
            "transition.key_repeat_share",
            1.0 - distinct.len() as f64 / traced.chains.built.len() as f64,
        );
    }
    for (name, calls, busy) in [
        (
            "analysis.dense",
            "analysis.dense.calls",
            "analysis.dense.busy_s",
        ),
        (
            "analysis.sparse",
            "analysis.sparse.calls",
            "analysis.sparse.busy_s",
        ),
    ] {
        let l = layer(name);
        out.insert(calls, l.calls as f64);
        out.insert(busy, l.self_s);
    }
    out.insert("analysis.metrics.busy_s", layer("analysis.metrics").self_s);
    out.insert("analysis.states_max", traced.chains.states_max as f64);
    let overlay = layer("overlay_analysis");
    out.insert("overlay_analysis.cells", overlay.ops as f64);
    out.insert("overlay_analysis.busy_s", overlay.self_s);
    let sim = layer("simulation");
    out.insert("simulation.cells", sim.ops as f64);
    out.insert("simulation.busy_s", sim.self_s);
}
