//! Quickstart: build the paper's model for one parameter set, compute the
//! headline metrics, and cross-check them with a quick Monte-Carlo run.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pollux::simulation;
use pollux::{ClusterAnalysis, InitialCondition, ModelParams};
use pollux_adversary::TargetedStrategy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A cluster-based overlay with core size C = 7 (tolerating c = 2
    // malicious core members), spare bound Δ = 7, under a 20 % adversary,
    // with identifier lifetimes calibrated so a peer survives each event
    // with probability d = 0.9, and protocol_1 (shuffle one peer per
    // core departure).
    let params = ModelParams::paper_defaults()
        .with_mu(0.20)
        .with_d(0.90)
        .with_k(1)?;
    println!("model: {params}");
    if let Some(l) = params.lifetime_l() {
        println!("incarnation lifetime L = {l:.2} time units (paper calibration)");
    }

    // --- analytical metrics (Relations 5-9) -----------------------------
    let analysis = ClusterAnalysis::new(&params, InitialCondition::Delta)?;
    let e_safe = analysis.expected_safe_events()?;
    let e_polluted = analysis.expected_polluted_events()?;
    let split = analysis.absorption_split()?;
    println!("\nanalytical (initially clean cluster, alpha = delta):");
    println!("  E(T_S) = {e_safe:.3} events spent safe before the cluster merges/splits");
    println!("  E(T_P) = {e_polluted:.3} events spent polluted");
    println!(
        "  absorption: merge-safe {:.1}%  split-safe {:.1}%  merge-polluted {:.2}%",
        100.0 * split.safe_merge,
        100.0 * split.safe_split,
        100.0 * split.polluted_merge,
    );

    // --- Monte-Carlo cross-check ----------------------------------------
    let strategy = TargetedStrategy::new(params.k(), params.nu()).expect("validated parameters");
    let report = simulation::estimate(&params, &InitialCondition::Delta, &strategy, 20_000, 42, 1);
    println!("\nevent-level simulation (20k replications):");
    println!("  T_S  = {}", report.safe_events);
    println!("  T_P  = {}", report.polluted_events);
    println!(
        "  absorption: merge-safe {:.1}%  split-safe {:.1}%  merge-polluted {:.2}%",
        100.0 * report.absorption.0,
        100.0 * report.absorption.1,
        100.0 * report.absorption.2,
    );

    let agree = (report.safe_events.mean - e_safe).abs() < 3.0 * report.safe_events.ci_half_width;
    println!(
        "\nmodel and simulation {}",
        if agree {
            "agree"
        } else {
            "DISAGREE (unexpected)"
        }
    );
    Ok(())
}
