//! Perf trajectory of the mean-field (fluid-limit) layer, serialized to
//! `BENCH_meanfield.json` at the repository root — the N→∞ counterpart
//! of `BENCH_markov.json` and `BENCH_des.json`.
//!
//! Three sections:
//!
//! * **equilibrium ladder** — `FluidModel::build` + `open_equilibrium`
//!   across a Δ ladder: the cost of pricing one stationary profile on
//!   the sparse renewal path, per state-space size.
//! * **planet-scale what-if** — `planet_scale_what_if` at 10⁸ and 10⁹
//!   nodes (equilibrium + node-weighted pollution + spectral-gap
//!   stability in one call). `cell_s` is the cold path: the 25th
//!   percentile of [`COLD_CELLS`] cells, each asking a μ the process has
//!   not asked before, so the what-if memo misses and the whole
//!   computation runs. The acceptance bar is < 1 ms per cold cell: the
//!   fluid limit answers questions no finite-state engine can even
//!   represent, in microseconds. `warm_cell_s` repeats one question the
//!   memo already holds (a fold plus a lookup).
//! * **control tuning vs legacy grid** — `tune_induced_churn`
//!   (mean-field bisection + one exact-chain verification) against the
//!   pre-PR `defense_frontier` idiom: an exact-chain scan over an
//!   equal-resolution rate grid with the same early-exit at the first
//!   passing rate. The recorded speedup is the number EXPERIMENTS.md
//!   cites.
//!
//! Environment switches:
//!
//! * `POLLUX_BENCH_QUICK=1` — CI smoke: smallest ladder, two samples.
//!
//! The other timings are min-of-N (N = 3): every section is
//! deterministic, so the fastest run is the least-perturbed one. The
//! cold what-if, which carries the only wall-clock assertion, uses a low
//! percentile of many fresh cells instead: a min of 3 read anywhere from
//! 0.80 to 1.40 ms on one commit, so the machine's load could flip the
//! gate, while the 25th percentile of 33 (about the quantile a min of 3
//! estimates) holds still.

use std::time::Instant;

use pollux::{AnalysisMode, ClusterAnalysis, ClusterChain, InitialCondition, ModelParams};
use pollux_defense::InducedChurn;
use pollux_meanfield::{
    planet_scale_what_if, tune_induced_churn, FluidModel, TuningConfig, WhatIfAnswer,
};

fn params_for(delta: usize) -> ModelParams {
    ModelParams::new(7, delta, 1)
        .expect("valid ladder parameters")
        .with_mu(0.2)
        .with_d(0.9)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Seconds-resolution formatting loses the microsecond story; emit the
/// raw seconds with enough digits for sub-microsecond cells.
fn json_secs(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".to_string()
    }
}

/// Cold what-if cells timed per node count.
const COLD_CELLS: usize = 33;

/// Min-of-`samples` wall clock of `f`, returning the last result too.
fn time_best<T>(samples: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..samples {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (out.expect("at least one sample"), best)
}

struct LadderPoint {
    delta: usize,
    states: usize,
    build_s: f64,
    solve_s: f64,
    residual: f64,
}

struct WhatIfPoint {
    nodes: f64,
    cell_s: f64,
    warm_cell_s: f64,
    answer: WhatIfAnswer,
}

fn main() {
    let quick = std::env::var_os("POLLUX_BENCH_QUICK").is_some();
    let samples = if quick { 2 } else { 3 };
    let deltas: &[usize] = if quick { &[7, 20] } else { &[7, 20, 48, 100] };

    // ── 1. equilibrium ladder ────────────────────────────────────────
    let mut ladder = Vec::new();
    for &delta in deltas {
        let params = params_for(delta);
        let (model, build_s) = time_best(samples, || {
            FluidModel::build(&params, &InitialCondition::Delta).expect("ladder model builds")
        });
        let states = model.alpha().len();
        let (eq, solve_s) = time_best(samples, || {
            model.open_equilibrium().expect("open equilibrium solves")
        });
        println!(
            "equilibrium delta={delta} ({states} states): build {build_s:.6} s, \
             solve {solve_s:.6} s, residual {:.3e}",
            eq.residual,
        );
        ladder.push(LadderPoint {
            delta,
            states,
            build_s,
            solve_s,
            residual: eq.residual,
        });
    }

    // ── 2. planet-scale what-if ──────────────────────────────────────
    let paper = ModelParams::paper_defaults().with_mu(0.2).with_d(0.9);
    // Cold cells perturb μ by a step no other cell uses, so the memo
    // (keyed by every parameter's bits, not by the node count) misses.
    let mut fresh = 0u32;
    let mut what_ifs = Vec::new();
    for &nodes in &[1e8, 1e9] {
        let mut cold_s: Vec<f64> = (0..COLD_CELLS)
            .map(|_| {
                fresh += 1;
                let cold = paper.with_mu(0.2 + f64::from(fresh) * 1e-7);
                let start = Instant::now();
                planet_scale_what_if(&cold, &InitialCondition::Delta, nodes, 1.0)
                    .expect("planet-scale cell answers");
                start.elapsed().as_secs_f64()
            })
            .collect();
        cold_s.sort_by(f64::total_cmp);
        let cell_s = cold_s[(COLD_CELLS - 1) / 4];
        let answer = planet_scale_what_if(&paper, &InitialCondition::Delta, nodes, 1.0)
            .expect("planet-scale cell answers");
        let (_, warm_cell_s) = time_best(samples, || {
            planet_scale_what_if(&paper, &InitialCondition::Delta, nodes, 1.0)
                .expect("planet-scale cell answers")
        });
        println!(
            "what-if nodes={nodes:.0e}: {:.1} polluted nodes expected \
             (node fraction {:.3e}), settling time {:.2}, {:.1} µs/cell cold \
             (25th percentile of {COLD_CELLS}), {:.2} µs warm",
            answer.expected_polluted_nodes,
            answer.polluted_node_fraction,
            answer.settling_time,
            cell_s * 1e6,
            warm_cell_s * 1e6,
        );
        what_ifs.push(WhatIfPoint {
            nodes,
            cell_s,
            warm_cell_s,
            answer,
        });
    }
    let billion = what_ifs.last().expect("what-if ladder is non-empty");
    let sub_ms = billion.cell_s < 1e-3;
    println!(
        "headline: cold 10⁹-node what-if (equilibrium + stability) in {:.1} µs \
         — {} the 1 ms acceptance bar; memo hit in {:.2} µs",
        billion.cell_s * 1e6,
        if sub_ms { "under" } else { "OVER" },
        billion.warm_cell_s * 1e6,
    );

    // ── 3. control tuning vs the legacy exact-chain grid ─────────────
    let cfg = TuningConfig {
        threshold: 0.01,
        max_rate: 0.5,
        rate_tol: 0.01,
    };
    let (outcome, bisection_s) = time_best(samples, || {
        tune_induced_churn(&paper, &InitialCondition::Delta, &cfg).expect("tuning succeeds")
    });

    // The pre-PR `defense_frontier` idiom at the same resolution: an
    // exact-chain evaluation per grid rate (spacing = `rate_tol`),
    // stopping at the first rate under the threshold — exactly the old
    // sweep arm, minus the engine plumbing around it.
    let grid_points = (cfg.max_rate / cfg.rate_tol).round() as usize;
    let ((grid_rate, grid_scanned), grid_s) = time_best(samples, || {
        let baseline =
            ClusterAnalysis::new(&paper, InitialCondition::Delta).expect("baseline chain analyzes");
        let (_, baseline_polluted) = baseline
            .steady_state_fractions()
            .expect("baseline fractions");
        let mut scanned = 1u64;
        if baseline_polluted <= cfg.threshold {
            return (0.0, scanned);
        }
        for i in 1..=grid_points {
            scanned += 1;
            let rate = i as f64 * cfg.rate_tol;
            let defense = InducedChurn::new(rate).expect("grid rate is in domain");
            let chain = ClusterChain::build_with_defense(&paper, &defense);
            let a = ClusterAnalysis::from_chain_with_mode(
                chain,
                InitialCondition::Delta,
                AnalysisMode::Sparse,
            )
            .expect("grid chain analyzes");
            let (_, polluted) = a.steady_state_fractions().expect("grid fractions");
            if polluted <= cfg.threshold {
                return (rate, scanned);
            }
        }
        (-1.0, scanned)
    });
    let speedup = grid_s / bisection_s;
    println!(
        "control tuning: bisection {:.4} s ({} fluid evaluations, frontier rate \
         {:.4}, verified_ok={}) vs legacy exact grid {:.4} s ({} chain solves, \
         frontier rate {:.4}) — {speedup:.1}x",
        bisection_s,
        outcome.evaluations,
        outcome.rate,
        outcome.verified_ok,
        grid_s,
        grid_scanned,
        grid_rate,
    );

    // ── serialize ────────────────────────────────────────────────────
    let ladder_rows: Vec<String> = ladder
        .iter()
        .map(|p| {
            format!(
                "    {{\"delta\": {}, \"states\": {}, \"build_s\": {}, \"solve_s\": {}, \
                 \"residual\": {}}}",
                p.delta,
                p.states,
                json_secs(p.build_s),
                json_secs(p.solve_s),
                format_args!("{:.3e}", p.residual),
            )
        })
        .collect();
    let what_if_rows: Vec<String> = what_ifs
        .iter()
        .map(|p| {
            format!(
                "    {{\"nodes\": {:.0}, \"cell_s\": {}, \"warm_cell_s\": {}, \
                 \"n_clusters\": {}, \"mean_cluster_size\": {}, \
                 \"polluted_node_fraction\": {}, \"expected_polluted_nodes\": {}, \
                 \"spectral_gap\": {}, \"settling_time\": {}, \"finite_size_band\": {}}}",
                p.nodes,
                json_secs(p.cell_s),
                json_secs(p.warm_cell_s),
                json_f64(p.answer.n_clusters),
                json_f64(p.answer.mean_cluster_size),
                format_args!("{:.6e}", p.answer.polluted_node_fraction),
                json_f64(p.answer.expected_polluted_nodes),
                json_f64(p.answer.spectral_gap),
                json_f64(p.answer.settling_time),
                format_args!("{:.6e}", p.answer.finite_size_band),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"suite\": \"mean_field\",\n  \"mode\": \"{}\",\n  \
         \"model\": \"C=7, k=1, mu=0.2, d=0.9, initial=delta\",\n  \
         \"headline\": {{\"what_if_nodes\": 1e9, \"cell_s\": {}, \"warm_cell_s\": {}, \
         \"under_1ms\": {}, \"tuning_speedup\": {}}},\n  \
         \"tuning\": {{\"threshold\": {}, \"max_rate\": {}, \"rate_tol\": {}, \
         \"bisection_s\": {}, \"fluid_evaluations\": {}, \"tuned_rate\": {}, \
         \"verified_ok\": {}, \"grid_s\": {}, \"grid_solves\": {}, \
         \"grid_rate\": {}, \"speedup\": {}}},\n  \
         \"what_if\": [\n{}\n  ],\n  \
         \"equilibrium_ladder\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "default" },
        json_secs(billion.cell_s),
        json_secs(billion.warm_cell_s),
        sub_ms,
        json_f64(speedup),
        json_f64(cfg.threshold),
        json_f64(cfg.max_rate),
        json_f64(cfg.rate_tol),
        json_secs(bisection_s),
        outcome.evaluations,
        json_f64(outcome.rate),
        outcome.verified_ok,
        json_secs(grid_s),
        grid_scanned,
        json_f64(grid_rate),
        json_f64(speedup),
        what_if_rows.join(",\n"),
        ladder_rows.join(",\n"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_meanfield.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }

    assert!(
        outcome.verified_ok,
        "the exact chain disagrees with the tuned frontier"
    );
    // The budget is enforced in the default/full modes only: the quick
    // (CI smoke) mode runs on shared runners where wall-clock asserts
    // flake; the JSON still records the measurement either way.
    assert!(
        sub_ms || quick,
        "cold 10⁹-node what-if took {:.3} ms at the 25th percentile of {COLD_CELLS} \
         (budget: 1 ms)",
        billion.cell_s * 1e3
    );
}
