//! Shared helpers for the reproduction harness binaries.
//!
//! Each binary under `src/bin` regenerates one artefact of the DSN'11
//! paper by running the matching named `pollux-sweep` scenario (see the
//! experiment index in the repository `README.md`):
//!
//! | binary             | scenario(s)        | paper artefact                                   |
//! |--------------------|--------------------|--------------------------------------------------|
//! | `state_space`      | `state_space`      | Figure 1 (state partition, 288 states)           |
//! | `fig3`             | `fig3`             | Figure 3 (E(T_S), E(T_P) bar panels)             |
//! | `table1`           | `table1`           | Table I                                          |
//! | `table2`           | `table2`           | Table II                                         |
//! | `fig4`             | `fig4`             | Figure 4 (absorption probabilities)              |
//! | `fig5`             | `fig5`             | Figure 5 (overlay-level proportions)             |
//! | `validate_model`   | `validate_model`   | Figure 2 (matrix vs event-level Monte-Carlo)     |
//! | `validate_overlay` | `validate_overlay` | Theorem 2 vs the n-cluster simulation            |
//! | `des_validate`     | `des_validate`, `des_validate_wide` | Markov chain vs the whole-overlay DES at 10^4–10^5 nodes (`des_scale` reaches 10^6) |
//! | `ablation_k`       | `ablation_k`       | k-sweep behind the "protocol₁ wins" lesson       |
//! | `ablation_rules`   | `ablation_rules`, `ablation_nu` | Rule-1/Rule-2/bias toggles, ν sweep |
//! | `pollution_risk`   | `risk_decomposition` | beyond-paper pollution decomposition           |
//! | `duel`             | `des_steady_state`, `duel_matrix` | adversary-vs-defense duels (beyond-paper countermeasures) |
//! | `mean_field`       | `meanfield_validate`, `meanfield_equilibrium`, `defense_frontier` | fluid-limit cross-validation, equilibrium/stability map, mean-field-guided defense tuning |
//! | `reproduce_all`    | every paper artefact | one parallel run writing all TSVs              |
//!
//! Every binary accepts the common sweep flags (`--threads N`,
//! `--out-dir DIR`, `--seed S`, `--format tsv|json|both`, `--list`) plus
//! positional scenario names overriding its default set.

use std::process::exit;

use pollux_sweep::{registry, SweepArgs, SweepError, SweepReport, USAGE};

pub mod des_ladder;

/// Prints a section header.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Parses the common CLI for a harness binary, handling `--help`,
/// `--list` and parse errors (which all terminate the process).
pub fn parse_cli_or_exit(binary: &str, about: &str) -> SweepArgs {
    match SweepArgs::parse(std::env::args().skip(1)) {
        Ok(args) if args.list => {
            println!("available scenarios:");
            for s in registry::all() {
                println!("  {:<18} {}", s.name, s.description);
            }
            exit(0);
        }
        Ok(args) => args,
        Err(msg) if msg == "help" => {
            println!("{binary} — {about}\n\nusage: {binary} [options] [SCENARIO…]\n{USAGE}");
            exit(0);
        }
        Err(msg) => {
            eprintln!("{binary}: {msg}\n{USAGE}");
            exit(2);
        }
    }
}

/// Resolves the scenarios a binary should run: positional names when
/// given, otherwise its defaults (plus the beyond-paper set under
/// `--extended`).
///
/// # Errors
///
/// [`SweepError::UnknownScenario`] for an unrecognized name.
pub fn resolve_scenarios(
    args: &SweepArgs,
    defaults: &[&str],
) -> Result<Vec<pollux_sweep::Scenario>, SweepError> {
    if !args.scenarios.is_empty() {
        return args.scenarios.iter().map(|n| registry::find(n)).collect();
    }
    let mut scenarios: Vec<_> = defaults
        .iter()
        .map(|n| registry::find(n))
        .collect::<Result<Vec<_>, _>>()?;
    if args.extended {
        let extras: Vec<_> = registry::extended()
            .into_iter()
            .filter(|e| scenarios.iter().all(|s| s.name != e.name))
            .collect();
        scenarios.extend(extras);
    }
    Ok(scenarios)
}

/// Prints the binary's curated banner for its default scenario, and the
/// scenario's own name for anything selected via positional names or
/// `--extended`, so reports are never mislabeled.
pub fn report_banner(report: &SweepReport, default_name: &str, title: &str) {
    if report.scenario == default_name {
        banner(title);
    } else {
        banner(&format!("scenario '{}'", report.scenario));
    }
}

/// Terminates a binary with the run-failure exit code (1) after a
/// structured `binary: message` line on stderr — the harness replacement
/// for panicking when a report invariant does not hold. (Usage errors
/// exit 2, clean runs 0; see `parse_cli_or_exit`.)
pub fn fail_run(binary: &str, msg: &str) -> ! {
    eprintln!("{binary}: {msg}");
    exit(1);
}

/// Runs a binary's scenarios as one pooled sweep and emits artefacts to
/// `--out-dir` when set. Under `--metrics-dir` each scenario also gets a
/// `<name>.metrics.json` instrumentation sidecar (sidecars carry wall
/// times, which is why they live outside the determinism-diffed
/// `--out-dir`).
///
/// The runner comes from [`SweepArgs::runner_from_env`], so the
/// `POLLUX_MEM_BUDGET_BYTES` budget and `POLLUX_FAULT` injection plan
/// apply; a malformed variable is a usage error (exit 2) like any bad
/// flag, never a silently ignored one. Run failures exit 1.
pub fn run_and_emit(args: &SweepArgs, defaults: &[&str]) -> Vec<SweepReport> {
    let runner = match args.runner_from_env() {
        Ok(runner) => runner,
        Err(msg) => {
            eprintln!("sweep configuration: {msg}\n{USAGE}");
            exit(2);
        }
    };
    let run = || -> Result<Vec<SweepReport>, SweepError> {
        let scenarios = resolve_scenarios(args, defaults)?;
        let (reports, obs) = runner.run_all_observed(&scenarios)?;
        if let Some(dir) = &args.out_dir {
            for report in &reports {
                for path in pollux_sweep::write_report(report, dir, args.format)? {
                    println!("wrote {}", path.display());
                }
            }
        }
        if let Some(dir) = &args.metrics_dir {
            std::fs::create_dir_all(dir)?;
            for sidecar in &obs {
                let mut report = pollux_obs::ObsReport::new(&sidecar.scenario);
                report.set_u64("threads", runner.threads() as u64);
                report.set_u64("seed", args.seed.unwrap_or(pollux_sweep::DEFAULT_SEED));
                report.merge_registry(&sidecar.registry);
                let path = dir.join(format!("{}.metrics.json", sidecar.scenario));
                report.write_json(&path)?;
                println!("wrote {}", path.display());
            }
        }
        Ok(reports)
    };
    match run() {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenarios_resolve() {
        let args = SweepArgs::default();
        let scenarios = resolve_scenarios(&args, &["fig3", "table1"]).unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].name, "fig3");
    }

    #[test]
    fn positional_names_override_defaults() {
        let args = SweepArgs {
            scenarios: vec!["table2".into()],
            ..SweepArgs::default()
        };
        let scenarios = resolve_scenarios(&args, &["fig3"]).unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].name, "table2");
        assert!(resolve_scenarios(
            &SweepArgs {
                scenarios: vec!["nope".into()],
                ..SweepArgs::default()
            },
            &["fig3"]
        )
        .is_err());
    }

    #[test]
    fn extended_flag_appends_beyond_paper_set() {
        let args = SweepArgs {
            extended: true,
            ..SweepArgs::default()
        };
        let scenarios = resolve_scenarios(&args, &["fig3"]).unwrap();
        assert!(scenarios.len() > 1);
        assert!(scenarios.iter().any(|s| s.name == "mu_extreme"));
    }

    #[test]
    fn extended_never_duplicates_a_default() {
        // pollution_risk's default is itself in the extended set; with
        // --extended it must still run exactly once.
        let args = SweepArgs {
            extended: true,
            ..SweepArgs::default()
        };
        let scenarios = resolve_scenarios(&args, &["risk_decomposition"]).unwrap();
        let hits = scenarios
            .iter()
            .filter(|s| s.name == "risk_decomposition")
            .count();
        assert_eq!(hits, 1);
    }
}
