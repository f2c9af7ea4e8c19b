//! `pollux-fuzz` — a scenario fuzzer and differential oracle over every
//! Pollux evaluation path.
//!
//! The repo's correctness claim rests on three independent evaluation
//! paths — dense analytics, sparse analytics and the sharded
//! whole-overlay DES — agreeing wherever they overlap, plus a defense
//! layer and a sweep engine that must be deterministic across thread
//! and shard counts. The unit suites pin that agreement on hand-picked
//! grids; this crate random-walks the **joint configuration space** and
//! cross-examines every applicable path pair per sampled point, in the
//! fuzzer / value-generator / runner / metrics module shape:
//!
//! * [`generator`] — the seeded value generator ([`ScenarioGen`]):
//!   byte-reproducible scenario streams from one `u64` seed, walking
//!   the constructor-invalid edges (`Δ = 1`, `k = 0`) and extreme-rate
//!   corners deliberately, with [`Coverage`] counters per variant.
//! * [`runner`] — the differential oracle ([`DiffRunner`]): five pair
//!   checks per scenario (dense-vs-sparse to 1e-9, analytic-vs-DES via
//!   the shared Wilson criteria, 1-vs-N-shard byte-identity, recorder
//!   inertness, sweep thread-identity), all tolerances pinned to
//!   [`pollux_prob::tolerance`].
//! * [`mod@shrink`] — greedy minimization of a disagreeing scenario while
//!   the same pair keeps failing.
//! * [`corpus`] — shrunk failures as JSON under `tests/regressions/`,
//!   replayed forever by `cargo test` and by the `fuzz` binary.
//! * [`metrics`] — the coverage counters surfaced in the summary JSON.
//!
//! The `fuzz` binary drives [`run_fuzz`] with `--seed`, `--iterations`
//! and `--time-budget-ms`; its summary JSON contains no wall-clock
//! values, so two runs with the same seed and iteration count are
//! byte-identical (CI diffs them).

pub mod corpus;
pub mod generator;
pub mod metrics;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use generator::{ScenarioGen, DENSE_STATE_CAP};
pub use metrics::Coverage;
pub use runner::{DiffRunner, PairOutcome, PairStatus, Verdict, PAIR_NAMES};
pub use scenario::{AnyStrategy, FuzzScenario, StrategyChoice, SweepKindChoice};
pub use shrink::{shrink, ShrinkOutcome};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use pollux_resilience::json;

/// Predicate-evaluation budget per shrink (see [`shrink()`]).
pub const SHRINK_BUDGET: usize = 300;

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Seed of the scenario stream.
    pub seed: u64,
    /// Scenario count target.
    pub iterations: u64,
    /// Optional wall-clock budget; the loop stops *between* scenarios
    /// once it is exhausted (summary JSON never contains timings, so a
    /// binding budget changes `scenarios_run` but nothing else).
    pub time_budget: Option<Duration>,
}

/// Per-pair tallies over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairTally {
    /// Scenarios on which the pair reached a verdict.
    pub checked: u64,
    /// … and agreed.
    pub agreed: u64,
    /// … and disagreed.
    pub disagreed: u64,
    /// Scenarios on which the pair's preconditions were unmet.
    pub skipped: u64,
}

/// One shrunk disagreement.
#[derive(Debug, Clone, PartialEq)]
pub struct Disagreement {
    /// Stream index of the original scenario.
    pub scenario_id: u64,
    /// The failing pair (one of [`PAIR_NAMES`]).
    pub pair: &'static str,
    /// The original failure detail.
    pub detail: String,
    /// The shrunk minimal scenario.
    pub shrunk: FuzzScenario,
    /// Predicate evaluations the shrink spent.
    pub attempts: usize,
}

/// Everything a fuzz run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// The stream seed.
    pub seed: u64,
    /// Requested scenario count.
    pub iterations_requested: u64,
    /// Scenarios actually run (lower only when the time budget bound).
    pub scenarios_run: u64,
    /// Whether the time budget stopped the loop early.
    pub budget_exhausted: bool,
    /// Tallies per oracle pair, keyed by [`PAIR_NAMES`] entries.
    pub pair_tallies: BTreeMap<&'static str, PairTally>,
    /// Generator coverage counters.
    pub coverage: Coverage,
    /// Shrunk disagreements, in discovery order.
    pub disagreements: Vec<Disagreement>,
}

impl FuzzReport {
    /// `true` when no pair disagreed on any scenario.
    pub fn ok(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// Total pair verdicts reached (`checked` over all pairs).
    pub fn pairs_checked(&self) -> u64 {
        self.pair_tallies.values().map(|t| t.checked).sum()
    }

    /// The summary as deterministic JSON: fixed field order, ordered
    /// maps, no wall-clock values. Two runs with the same seed and
    /// iteration count produce byte-identical summaries.
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(
            out,
            "  \"iterations_requested\": {},",
            self.iterations_requested
        );
        let _ = writeln!(out, "  \"scenarios_run\": {},", self.scenarios_run);
        let _ = writeln!(out, "  \"budget_exhausted\": {},", self.budget_exhausted);
        let _ = writeln!(out, "  \"pairs_checked\": {},", self.pairs_checked());
        let _ = writeln!(out, "  \"disagreements\": {},", self.disagreements.len());
        out.push_str("  \"pairs\": {\n");
        for (i, (name, t)) in self.pair_tallies.iter().enumerate() {
            let comma = if i + 1 < self.pair_tallies.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    \"{name}\": {{\"checked\": {}, \"agreed\": {}, \"disagreed\": {}, \
                 \"skipped\": {}}}{comma}",
                t.checked, t.agreed, t.disagreed, t.skipped
            );
        }
        out.push_str("  },\n");
        let _ = writeln!(out, "  \"coverage\": {},", self.coverage.to_json());
        out.push_str("  \"failures\": [\n");
        for (i, d) in self.disagreements.iter().enumerate() {
            let comma = if i + 1 < self.disagreements.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"scenario_id\": {}, \"pair\": \"{}\", \"detail\": \"{}\", \
                 \"shrink_attempts\": {}}}{comma}",
                d.scenario_id,
                d.pair,
                json::escape(&d.detail),
                d.attempts
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs the fuzz loop: generate → run every oracle pair → on
/// disagreement, shrink and record.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    run_fuzz_inner(config, DiffRunner::new())
}

/// Test-only entry point with a fault-injected runner (the oracle
/// self-check).
#[cfg(test)]
pub(crate) fn run_fuzz_with_fault(config: &FuzzConfig, fault: runner::Fault) -> FuzzReport {
    run_fuzz_inner(config, DiffRunner::with_fault(fault))
}

fn run_fuzz_inner(config: &FuzzConfig, runner: DiffRunner) -> FuzzReport {
    let start = Instant::now();
    let mut gen = ScenarioGen::new(config.seed);
    let mut pair_tallies: BTreeMap<&'static str, PairTally> = PAIR_NAMES
        .iter()
        .map(|&n| (n, PairTally::default()))
        .collect();
    let mut disagreements = Vec::new();
    let mut scenarios_run = 0u64;
    let mut budget_exhausted = false;

    while scenarios_run < config.iterations {
        if let Some(budget) = config.time_budget {
            if start.elapsed() >= budget {
                budget_exhausted = true;
                break;
            }
        }
        let scenario = gen.next_scenario();
        let verdict = runner.run(&scenario);
        for pair in &verdict.pairs {
            let tally = pair_tallies.entry(pair.name).or_default();
            match pair.status {
                PairStatus::Agree => {
                    tally.checked += 1;
                    tally.agreed += 1;
                }
                PairStatus::Disagree => {
                    tally.checked += 1;
                    tally.disagreed += 1;
                }
                PairStatus::Skip => tally.skipped += 1,
            }
        }
        if let Some(failure) = verdict.failure() {
            let out = shrink(&runner, &scenario, failure.name, SHRINK_BUDGET);
            disagreements.push(Disagreement {
                scenario_id: scenario.id,
                pair: failure.name,
                detail: failure.detail.clone(),
                shrunk: out.scenario,
                attempts: out.attempts,
            });
        }
        scenarios_run += 1;
    }

    FuzzReport {
        seed: config.seed,
        iterations_requested: config.iterations,
        scenarios_run,
        budget_exhausted,
        pair_tallies,
        coverage: gen.coverage().clone(),
        disagreements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Fault;
    use std::path::Path;

    fn quick_config(iterations: u64) -> FuzzConfig {
        FuzzConfig {
            seed: 2011,
            iterations,
            time_budget: None,
        }
    }

    /// The oracle self-check, CSR half: a 1e-3 perturbation of one CSR
    /// entry on the sparse path is detected within a handful of
    /// scenarios, shrunk within the budget, and the minimal config is
    /// exactly the one committed under `tests/regressions/`.
    #[test]
    fn csr_fault_is_detected_shrunk_and_matches_the_corpus() {
        let report = run_fuzz_with_fault(&quick_config(4), Fault::SparseCsrEntry);
        let hit = report
            .disagreements
            .iter()
            .find(|d| d.pair == "dense_vs_sparse")
            .expect("a 1e-3 CSR fault must be caught within 4 scenarios");
        assert!(
            hit.attempts <= SHRINK_BUDGET,
            "shrink must stay within budget (spent {})",
            hit.attempts
        );
        let committed = corpus_file("fault_sparse_csr_entry.json");
        assert_eq!(
            hit.shrunk.to_json(),
            committed,
            "the committed corpus entry must be the shrinker's minimal config"
        );
    }

    /// The oracle self-check, DES half: a `λ · (1 + 1e-3)` rate fault
    /// in the sharded run breaks byte-identity, is shrunk, and matches
    /// the committed corpus entry.
    #[test]
    fn lambda_fault_is_detected_shrunk_and_matches_the_corpus() {
        let report = run_fuzz_with_fault(&quick_config(2), Fault::DesLambdaRate);
        let hit = report
            .disagreements
            .iter()
            .find(|d| d.pair == "shard_identity")
            .expect("a 1e-3 λ fault must be caught within 2 scenarios");
        assert!(hit.attempts <= SHRINK_BUDGET);
        let committed = corpus_file("fault_des_lambda_rate.json");
        assert_eq!(hit.shrunk.to_json(), committed);
    }

    /// Same seed → byte-identical summary JSON (the CI reproducibility
    /// contract), and a healthy run over a small slice stays green.
    #[test]
    fn healthy_slice_is_green_and_reproducible() {
        let a = run_fuzz(&quick_config(3));
        let b = run_fuzz(&quick_config(3));
        assert!(a.ok(), "unexpected disagreement:\n{}", a.summary_json());
        assert_eq!(a.summary_json(), b.summary_json());
        assert_eq!(a.scenarios_run, 3);
        assert!(a.pairs_checked() > 0);
    }

    /// A zero time budget stops before the first scenario and says so.
    #[test]
    fn zero_budget_stops_early() {
        let report = run_fuzz(&FuzzConfig {
            seed: 2011,
            iterations: 10,
            time_budget: Some(Duration::ZERO),
        });
        assert!(report.budget_exhausted);
        assert_eq!(report.scenarios_run, 0);
        assert!(report.summary_json().contains("\"budget_exhausted\": true"));
    }

    /// Regenerates the committed fault-corpus entries from the shrinker
    /// itself. Run manually after an intentional oracle change:
    /// `cargo test -p pollux-fuzz -- --ignored regenerate_fault_corpus`
    #[test]
    #[ignore = "writes tests/regressions/; run manually to regenerate the fault corpus"]
    fn regenerate_fault_corpus() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/regressions");
        let report = run_fuzz_with_fault(&quick_config(4), Fault::SparseCsrEntry);
        let hit = report
            .disagreements
            .iter()
            .find(|d| d.pair == "dense_vs_sparse")
            .expect("CSR fault caught");
        corpus::write_failure(&dir, "fault_sparse_csr_entry", &hit.shrunk).expect("write");
        let report = run_fuzz_with_fault(&quick_config(2), Fault::DesLambdaRate);
        let hit = report
            .disagreements
            .iter()
            .find(|d| d.pair == "shard_identity")
            .expect("λ fault caught");
        corpus::write_failure(&dir, "fault_des_lambda_rate", &hit.shrunk).expect("write");
    }

    fn corpus_file(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/regressions")
            .join(name);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("corpus file {} must exist: {e}", path.display()))
    }
}
