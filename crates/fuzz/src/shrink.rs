//! Greedy scenario minimization: shrink a disagreeing scenario while
//! the **same oracle pair** keeps disagreeing.
//!
//! The shrinker applies a fixed list of moves (drop the defense, drop
//! the toggles, shrink `C`/`Δ`/`k`, halve the DES budget, …) in order,
//! repeating each move while it preserves the failure, and loops over
//! the list until a full pass accepts nothing. Every accepted candidate
//! re-runs only the failing pair ([`DiffRunner::run_pair`]), so a
//! shrink is much cheaper than a full verdict per step. The process is
//! fully deterministic — same scenario, same fault, same minimal
//! config.

use crate::runner::{DiffRunner, PairStatus};
use crate::scenario::{FuzzScenario, StrategyChoice, SweepKindChoice};
use pollux::InitialCondition;
use pollux_defense::DefenseSpec;

/// Result of a shrink: the minimal scenario and how many predicate
/// evaluations ([`DiffRunner::run_pair`] calls) it took.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkOutcome {
    /// The smallest scenario still failing the pair.
    pub scenario: FuzzScenario,
    /// Predicate evaluations spent.
    pub attempts: usize,
}

/// One shrinking move: a strictly-smaller candidate, or `None` when the
/// field is already minimal.
type Move = fn(&FuzzScenario) -> Option<FuzzScenario>;

/// The move list, cheapest/most-structural first. Order matters only
/// for determinism and speed, not correctness — the outer loop runs to
/// a fixpoint.
const MOVES: [Move; 16] = [
    // Structural simplifications.
    |s| {
        (s.defense != DefenseSpec::Null).then(|| {
            let mut c = s.clone();
            c.defense = DefenseSpec::Null;
            c
        })
    },
    |s| {
        (s.strategy != StrategyChoice::Passive).then(|| {
            let mut c = s.clone();
            c.strategy = StrategyChoice::Passive;
            c
        })
    },
    |s| {
        (s.rule1 || s.rule2 || s.bias).then(|| {
            let mut c = s.clone();
            c.rule1 = false;
            c.rule2 = false;
            c.bias = false;
            c
        })
    },
    |s| {
        (s.initial != InitialCondition::Delta).then(|| {
            let mut c = s.clone();
            c.initial = InitialCondition::Delta;
            c
        })
    },
    |s| {
        (!s.sample_times.is_empty()).then(|| {
            let mut c = s.clone();
            c.sample_times.clear();
            c
        })
    },
    |s| {
        (s.warmup_events != 0).then(|| {
            let mut c = s.clone();
            c.warmup_events = 0;
            c
        })
    },
    |s| {
        (s.kind != SweepKindChoice::Sojourns).then(|| {
            let mut c = s.clone();
            c.kind = SweepKindChoice::Sojourns;
            c
        })
    },
    |s| {
        s.regenerate.then(|| {
            let mut c = s.clone();
            c.regenerate = false;
            c
        })
    },
    // Size minimization (the ISSUE's C, Δ, k, budget axes).
    |s| {
        (s.delta > 2).then(|| {
            let mut c = s.clone();
            c.delta -= 1;
            c
        })
    },
    |s| {
        (s.c > 1).then(|| {
            let mut c = s.clone();
            c.c -= 1;
            c.k = c.k.min(c.c);
            c
        })
    },
    |s| {
        (s.k > 1).then(|| {
            let mut c = s.clone();
            c.k -= 1;
            c
        })
    },
    |s| {
        (s.events_per_cluster > 50).then(|| {
            let mut c = s.clone();
            c.events_per_cluster = (c.events_per_cluster / 2).max(50);
            c.warmup_events = c.warmup_events.min(c.events_per_cluster / 2);
            c
        })
    },
    |s| {
        (s.cluster_bits > 2).then(|| {
            let mut c = s.clone();
            c.cluster_bits -= 1;
            c
        })
    },
    |s| {
        (s.shards > 2).then(|| {
            let mut c = s.clone();
            c.shards -= 1;
            c
        })
    },
    // Rate normalization.
    |s| {
        (s.mu != 0.0 || s.d != 0.0).then(|| {
            let mut c = s.clone();
            c.mu = 0.0;
            c.d = 0.0;
            c
        })
    },
    |s| {
        (s.nu != 0.1 || s.lambda != 1.0).then(|| {
            let mut c = s.clone();
            c.nu = 0.1;
            c.lambda = 1.0;
            c
        })
    },
];

/// Greedily minimizes `scenario` while `pair` (one of
/// [`crate::runner::PAIR_NAMES`]) still disagrees, spending at most
/// `max_attempts` predicate evaluations.
pub fn shrink(
    runner: &DiffRunner,
    scenario: &FuzzScenario,
    pair: &'static str,
    max_attempts: usize,
) -> ShrinkOutcome {
    let mut current = scenario.clone();
    let mut attempts = 0usize;
    let still_fails = |cand: &FuzzScenario, attempts: &mut usize| {
        *attempts += 1;
        runner.run_pair(cand, pair).status == PairStatus::Disagree
    };
    loop {
        let mut accepted_any = false;
        for mv in MOVES {
            while let Some(cand) = mv(&current) {
                if attempts >= max_attempts {
                    return ShrinkOutcome {
                        scenario: current,
                        attempts,
                    };
                }
                if still_fails(&cand, &mut attempts) {
                    current = cand;
                    accepted_any = true;
                } else {
                    break;
                }
            }
        }
        if !accepted_any {
            return ShrinkOutcome {
                scenario: current,
                attempts,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ScenarioGen;
    use crate::runner::{DiffRunner, Fault, PAIR_NAMES};

    /// The CSR fault fails `dense_vs_sparse` whenever it is injectable,
    /// so the shrinker must land on a local minimum that still fails,
    /// deterministically and within a bounded attempt count. The exact
    /// floor depends on the chain: below a certain size the sojourn
    /// metrics stop depending on any transition probability and the
    /// fault becomes uninjectable, so the shrinker is expected to stop
    /// just above that degeneracy line rather than at (1, 2, 1).
    #[test]
    fn shrinks_the_csr_fault_to_a_failing_minimum() {
        let runner = DiffRunner::with_fault(Fault::SparseCsrEntry);
        let mut gen = ScenarioGen::new(2011);
        let seed_scenario = loop {
            let s = gen.next_scenario();
            if runner.run_pair(&s, PAIR_NAMES[0]).status == PairStatus::Disagree {
                break s;
            }
        };
        let out = shrink(&runner, &seed_scenario, PAIR_NAMES[0], 300);
        assert!(out.attempts <= 300);
        let m = &out.scenario;
        // Every size axis shrank or held — never grew.
        assert!(m.c <= seed_scenario.c);
        assert!(m.delta <= seed_scenario.delta);
        assert!(m.k <= seed_scenario.k);
        assert!(m.events_per_cluster <= seed_scenario.events_per_cluster);
        assert!(m.cluster_bits <= seed_scenario.cluster_bits);
        assert!(m.shards <= seed_scenario.shards);
        // DES-side structure is irrelevant to this analytic pair, so the
        // structural moves must all have been accepted.
        assert_eq!(m.kind, SweepKindChoice::Sojourns);
        assert!(m.sample_times.is_empty());
        assert_eq!(m.warmup_events, 0);
        assert!(!m.regenerate);
        // And the minimum still fails.
        assert_eq!(
            runner.run_pair(m, PAIR_NAMES[0]).status,
            PairStatus::Disagree
        );
        // It is minimal: no single move produces a still-failing
        // scenario.
        let again = shrink(&runner, m, PAIR_NAMES[0], 300);
        assert_eq!(again.scenario, *m);
        // Determinism: shrinking again lands on the same minimum.
        let repeat = shrink(&runner, &seed_scenario, PAIR_NAMES[0], 300);
        assert_eq!(repeat, out);
    }
}
