//! The reproduction front-end: every artefact of the DSN'11 evaluation
//! and every beyond-paper grid is a named `pollux-sweep` scenario, and
//! this binary runs any set of them as **one pooled parallel sweep**.
//!
//! ```text
//! reproduce_all                               # every paper artefact, printed
//! reproduce_all --out-dir results             # … written as TSV files
//! reproduce_all table1 fig4                   # a subset (--list names them all)
//! reproduce_all --extended --out-dir results  # plus the beyond-paper grids
//! ```
//!
//! Without `--out-dir` each report prints as an aligned table; with it
//! the artefacts are written under the directory (`--format tsv|json|both`).
//! All cells of all scenarios share one worker pool (`--threads N`), and
//! per-cell seeding is deterministic, so the artefacts are byte-identical
//! regardless of the thread count.
//!
//! | scenario(s)                         | artefact                                          |
//! |-------------------------------------|---------------------------------------------------|
//! | `state_space`                       | Figure 1 (state partition, 288 states)            |
//! | `fig3`                              | Figure 3 (E(T_S), E(T_P) bar panels)              |
//! | `table1`, `table2`                  | Tables I and II                                   |
//! | `fig4`                              | Figure 4 (absorption probabilities)               |
//! | `fig5`                              | Figure 5 (overlay-level proportions)              |
//! | `validate_model`                    | Figure 2 (matrix vs event-level Monte-Carlo)      |
//! | `validate_overlay`                  | Theorem 2 vs the n-cluster simulation             |
//! | `ablation_k`, `ablation_rules`, `ablation_nu` | k-sweep, adversary levers, ν sweep      |
//! | `des_validate`, `des_validate_wide` | Markov chain vs the whole-overlay DES (`des_scale` reaches 10⁶ nodes) |
//! | `risk_decomposition`                | beyond-paper pollution decomposition              |
//! | `des_steady_state`, `duel_matrix`   | adversary-vs-defense duels                        |
//! | `meanfield_validate`, `meanfield_equilibrium`, `defense_frontier` | fluid-limit cross-validation, equilibrium map, defense tuning |
//!
//! The run has one verdict, [`SweepReport::all_ok`] over every report:
//! the process exits 1 when a validation or verification column holds a
//! `false` or a cell fails, 2 on a usage error, and 0 otherwise. A reader
//! that closes stdout early (`reproduce_all --list | head -3`) only cuts
//! the printing short: the run goes on and keeps its verdict.
//! `POLLUX_FAULT` injects faults for the crash-safety smoke tests (see
//! `pollux_resilience::fault`).

use std::io::{ErrorKind, Write};
use std::process::exit;

use pollux_sweep::registry::{self, PAPER_ARTEFACTS};
use pollux_sweep::{Scenario, SweepArgs, SweepError, SweepReport, SweepRunner, USAGE};

const ABOUT: &str = "reproduce_all — every paper artefact (or the named scenarios) as one \
                     parallel sweep\n\nusage: reproduce_all [options] [SCENARIO…]";

/// `println!` that survives a closed stdout: once the reader has gone
/// (`EPIPE`), the rest of the output is dropped instead of panicking.
/// Any other write failure ends the run with status 1.
macro_rules! outln {
    ($($arg:tt)*) => {
        out(format_args!($($arg)*))
    };
}

fn out(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("reproduce_all: cannot write to stdout: {e}");
            exit(1);
        }
    }
}

fn main() {
    let args = match SweepArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) if msg == "help" => {
            outln!("{ABOUT}\n{USAGE}");
            return;
        }
        Err(msg) => usage_error(&msg),
    };
    if args.list {
        outln!("available scenarios:");
        for s in registry::all() {
            outln!("  {:<18} {}", s.name, s.description);
        }
        return;
    }
    let runner = args.runner().unwrap_or_else(|msg| usage_error(&msg));
    let reports = run(&args, &runner).unwrap_or_else(|e| {
        eprintln!("reproduce_all: sweep failed: {e}");
        exit(1);
    });
    let failed = mismatches(&reports);
    if failed.is_empty() {
        outln!("\nverdict: every validation AGREES");
    } else {
        eprintln!("reproduce_all: MISMATCH in {}", failed.join(", "));
        exit(1);
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("reproduce_all: {msg}\n{USAGE}");
    exit(2);
}

/// The scenarios to run: the positional names when given, otherwise
/// every paper artefact, plus the beyond-paper set under `--extended`
/// (a scenario already selected is never run twice).
fn resolve_scenarios(args: &SweepArgs) -> Result<Vec<Scenario>, SweepError> {
    let names: Vec<&str> = if args.scenarios.is_empty() {
        PAPER_ARTEFACTS.to_vec()
    } else {
        args.scenarios.iter().map(String::as_str).collect()
    };
    let mut scenarios = names
        .into_iter()
        .map(registry::find)
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

/// Runs the scenarios as one pooled sweep, then prints each report or,
/// under `--out-dir`, writes its artefacts. Under `--metrics-dir` each
/// scenario also gets a `<name>.metrics.json` instrumentation sidecar
/// (sidecars carry wall times, which is why they live outside the
/// determinism-diffed `--out-dir`).
fn run(args: &SweepArgs, runner: &SweepRunner) -> Result<Vec<SweepReport>, SweepError> {
    let scenarios = resolve_scenarios(args)?;
    let (reports, obs) = runner.run_all_observed(&scenarios)?;
    for (scenario, report) in scenarios.iter().zip(&reports) {
        match &args.out_dir {
            Some(dir) => {
                for path in pollux_sweep::write_report(report, dir, args.format)? {
                    outln!("wrote {}", path.display());
                }
            }
            None => outln!(
                "\n=== {} — {} ===\n{}",
                scenario.name,
                scenario.description,
                report.render_text()
            ),
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
            outln!("wrote {}", path.display());
        }
    }
    Ok(reports)
}

/// The scenarios whose verdict failed; the run exits 1 unless none did.
fn mismatches(reports: &[SweepReport]) -> Vec<&str> {
    reports
        .iter()
        .filter(|r| !r.all_ok())
        .map(|r| r.scenario.as_str())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_sweep::Value;

    #[test]
    fn default_scenarios_resolve() {
        let scenarios = resolve_scenarios(&SweepArgs::default()).unwrap();
        let names: Vec<_> = scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, PAPER_ARTEFACTS);
    }

    #[test]
    fn positional_names_override_defaults() {
        let args = SweepArgs {
            scenarios: vec!["table2".into()],
            ..SweepArgs::default()
        };
        let scenarios = resolve_scenarios(&args).unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].name, "table2");
        assert!(resolve_scenarios(&SweepArgs {
            scenarios: vec!["nope".into()],
            ..SweepArgs::default()
        })
        .is_err());
    }

    #[test]
    fn extended_flag_appends_beyond_paper_set() {
        let args = SweepArgs {
            extended: true,
            ..SweepArgs::default()
        };
        let scenarios = resolve_scenarios(&args).unwrap();
        assert!(scenarios.len() > PAPER_ARTEFACTS.len());
        assert!(scenarios.iter().any(|s| s.name == "mu_extreme"));
    }

    #[test]
    fn extended_never_duplicates_a_named_scenario() {
        // risk_decomposition is itself in the extended set; named and
        // run with --extended, it must still run exactly once.
        let args = SweepArgs {
            extended: true,
            scenarios: vec!["risk_decomposition".into()],
            ..SweepArgs::default()
        };
        let scenarios = resolve_scenarios(&args).unwrap();
        let hits = scenarios
            .iter()
            .filter(|s| s.name == "risk_decomposition")
            .count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn a_failed_verification_fails_the_run() {
        // defense_frontier's only verdict column is verified_ok.
        let frontier = SweepReport {
            scenario: "defense_frontier".into(),
            columns: vec!["rate".into(), "verified_ok".into()],
            rows: vec![
                vec![Value::F64(0.25), Value::Bool(true)],
                vec![Value::F64(0.5), Value::Bool(false)],
            ],
        };
        let map = SweepReport {
            scenario: "meanfield_equilibrium".into(),
            columns: vec!["amplification".into()],
            rows: vec![vec![Value::F64(1.0)]],
        };
        assert_eq!(mismatches(&[map.clone(), frontier]), ["defense_frontier"]);
        assert!(mismatches(&[map]).is_empty());
    }
}
