//! `des_absorb` and `des_steady`: the whole-overlay discrete-event
//! simulation in its two regimes.
//!
//! Both run the ladder model (C = Δ = 7, μ = 0.25, d = 0.9, δ initial,
//! targeted adversary) through `run_des_overlay_duel_with_stats` with
//! [`WORKERS`] shards and otherwise default settings (queue `Auto`, no
//! work stealing), so a change of those defaults shows up here.

use std::collections::BTreeMap;
use std::time::Instant;

use pollux::des_overlay::{
    des_memory_audit, run_des_overlay_duel_with_stats, DesOverlayConfig, DesOverlayReport,
    DesShardStats,
};
use pollux::duel::renewal_wilson;
use pollux::{ClusterAnalysis, ClusterChain, InitialCondition, ModelParams};
use pollux_adversary::TargetedStrategy;
use pollux_defense::{Defense, DefenseSpec};
use pollux_prob::tolerance::{AGREEMENT_SIGMAS, CI_HALF_WIDTH_FLOOR};
use pollux_prob::wilson_interval;

use crate::trace::{Span, Tracer};
use crate::{Measured, WORKERS};

/// Slack of the absorption check, in confidence half-widths and Wilson
/// z-quantiles: the `des_validate` scenario's criterion.
const ABSORB_SIGMAS: f64 = 4.0;
/// Per-cluster event cap of the absorption regime. A cluster absorbs
/// after ≈13 events on average, so the cap never binds in practice and
/// costs nothing unused.
const ABSORB_BUDGET: u64 = 3_000;
/// Events per cluster in the steady regime, half of them warm-up.
const STEADY_EVENTS: u64 = 1_000;
/// Induced-churn rate of the steady regime's defense.
const STEADY_CHURN: f64 = 0.1;

/// Which regime a DES workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Run to absorption over 2²¹ clusters: state ≥ 4× a 105 MiB L3.
    Absorb,
    /// Regeneration with induced churn over 2¹⁴ clusters: state in cache.
    Steady,
}

/// What the exact chain predicts for the run.
enum Expected {
    Absorb {
        safe_events: f64,
        polluted_events: f64,
        split: [f64; 4],
    },
    Steady {
        polluted: f64,
    },
}

/// A prepared DES workload.
pub struct Des {
    params: ModelParams,
    strategy: TargetedStrategy,
    defense: Box<dyn Defense + Send + Sync>,
    config: DesOverlayConfig,
    seed: u64,
    expected: Expected,
}

/// One DES run's output.
pub type Output = (DesOverlayReport, DesShardStats);

/// Builds the model, the configuration and the exact chain's prediction.
pub fn prepare(regime: Regime, seed: u64, tiny: bool) -> Result<Des, String> {
    let params = ModelParams::paper_defaults().with_mu(0.25).with_d(0.9);
    let strategy = TargetedStrategy::new(params.k(), params.nu())
        .ok_or("no targeted strategy for the ladder point")?;
    let (spec, config) = match regime {
        Regime::Absorb => {
            let bits = if tiny { 10 } else { 21 };
            (
                DefenseSpec::Null,
                DesOverlayConfig::new(bits, 1.0, ABSORB_BUDGET << bits),
            )
        }
        Regime::Steady => {
            let bits = if tiny { 8 } else { 14 };
            (
                DefenseSpec::InducedChurn { rate: STEADY_CHURN },
                DesOverlayConfig::new(bits, 1.0, STEADY_EVENTS << bits)
                    .with_regeneration()
                    .with_warmup_events(STEADY_EVENTS / 2),
            )
        }
    };
    let defense = spec.build().map_err(|e| e.to_string())?;
    let analysis = ClusterAnalysis::from_chain(
        ClusterChain::build_with_defense(&params, defense.as_ref()),
        InitialCondition::Delta,
    )
    .map_err(|e| e.to_string())?;
    let expected = match regime {
        Regime::Absorb => {
            let s = analysis.absorption_split().map_err(|e| e.to_string())?;
            Expected::Absorb {
                safe_events: analysis.expected_safe_events().map_err(|e| e.to_string())?,
                polluted_events: analysis
                    .expected_polluted_events()
                    .map_err(|e| e.to_string())?,
                split: [
                    s.safe_merge,
                    s.safe_split,
                    s.polluted_merge,
                    s.polluted_split,
                ],
            }
        }
        Regime::Steady => Expected::Steady {
            polluted: analysis
                .steady_state_fractions()
                .map_err(|e| e.to_string())?
                .1,
        },
    };
    Ok(Des {
        params,
        strategy,
        defense,
        config: config.with_shards(WORKERS),
        seed,
        expected,
    })
}

fn simulate(des: &Des) -> Output {
    run_des_overlay_duel_with_stats(
        &des.params,
        &InitialCondition::Delta,
        &des.strategy,
        des.defense.as_ref(),
        &des.config,
        des.seed,
    )
}

/// Repeats the same seeded run until `seconds` have passed (at least
/// once); with `epoch`, each run is traced.
pub fn run(des: &Des, seconds: f64, epoch: Option<Instant>) -> (Measured<Output>, Vec<Span>) {
    let mut tr = epoch.map(|e| Tracer::new(e, 0));
    let start = Instant::now();
    let mut outputs = Vec::new();
    let mut latencies_s = Vec::new();
    loop {
        let t = Instant::now();
        let out = match tr.as_mut() {
            None => simulate(des),
            Some(tr) => tr.span("des.run", outputs.len() as u64, |_| simulate(des)),
        };
        latencies_s.push(t.elapsed().as_secs_f64());
        outputs.push(out);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let measured = Measured {
        wall_s: start.elapsed().as_secs_f64(),
        work: outputs.iter().map(|(r, _)| r.events as f64).sum(),
        latencies_s,
        outputs,
    };
    (measured, tr.map(Tracer::into_spans).unwrap_or_default())
}

/// Whether a run agrees with the exact chain: the absorption split and
/// sojourn means inside their intervals, or the steady polluted event
/// fraction inside the renewal-adjusted Wilson interval.
pub fn passes(des: &Des, (r, _): &Output) -> bool {
    match des.expected {
        Expected::Absorb {
            safe_events,
            polluted_events,
            split,
        } => {
            let within = |mean: f64, half: f64, want: f64| {
                (mean - want).abs() <= ABSORB_SIGMAS * half.max(CI_HALF_WIDTH_FLOOR)
            };
            within(r.safe_events.mean, r.safe_events.ci_half_width, safe_events)
                && within(
                    r.polluted_events.mean,
                    r.polluted_events.ci_half_width,
                    polluted_events,
                )
                && r.absorption_counts.iter().zip(split).all(|(&count, want)| {
                    let (lo, hi) = wilson_interval(count, r.absorbed, ABSORB_SIGMAS);
                    (lo..=hi).contains(&want)
                })
        }
        Expected::Steady { polluted } => {
            let (lo, hi) = renewal_wilson(
                r.polluted_event_total,
                r.events - r.warmup_events,
                r.measured_cycles,
                AGREEMENT_SIGMAS,
            );
            (lo..=hi).contains(&polluted)
        }
    }
}

/// Runs that fail the chain's check or differ from the first run of the
/// same seed.
pub fn check(des: &Des, outputs: &[Output]) -> u64 {
    outputs
        .iter()
        .filter(|o| {
            let failed = !passes(des, o) || o.0 != outputs[0].0;
            if failed {
                eprintln!(
                    "des: run disagrees with the exact chain or with the first run: {:?}",
                    o.0
                );
            }
            failed
        })
        .count() as u64
}

/// Per-layer metrics, from the run with the median wall time.
pub fn layer_metrics(
    des: &Des,
    m: &Measured<Output>,
    l3_bytes: Option<u64>,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let mut order: Vec<usize> = (0..m.outputs.len()).collect();
    order.sort_by(|&a, &b| m.latencies_s[a].total_cmp(&m.latencies_s[b]));
    let i = order[(order.len() - 1) / 2];
    let ((report, stats), wall) = (&m.outputs[i], m.latencies_s[i]);
    let busy_max = stats.shard_seconds.iter().copied().fold(0.0, f64::max);
    let busy_sum: f64 = stats.shard_seconds.iter().sum();
    let shards = stats.shards() as f64;
    let audit = des_memory_audit(&des.params, &des.config);
    out.insert("des.events", report.events as f64);
    out.insert(
        "des.events_per_cluster",
        report.events as f64 / report.n_clusters as f64,
    );
    out.insert("des.shard_busy_max_s", busy_max);
    out.insert("des.imbalance", busy_max / (busy_sum / shards));
    out.insert("des.parallel_efficiency", busy_sum / (shards * wall));
    out.insert("des.outside_loop_s", wall - busy_max);
    out.insert("des.audit_bytes_per_node", audit.bytes_per_node());
    if let Some(l3) = l3_bytes {
        out.insert(
            "des.working_set_over_llc",
            audit.total_bytes() as f64 / l3 as f64,
        );
    }
}
