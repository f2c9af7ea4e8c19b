//! The failure taxonomy: what went wrong in one unit of work, and
//! whether re-running it could possibly help.

use std::error::Error;
use std::fmt;

/// Why one unit of work (a sweep cell) failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FailureKind {
    /// The unit panicked; carries the panic message. Transient: a panic
    /// may be injected (fault harness) or environmental, and the retry
    /// contract guarantees a successful re-run is byte-identical.
    Panic(String),
    /// An iterative solver exhausted its budget
    /// (`LinalgError::NoConvergence` or an error wrapping it).
    /// Transient by the ISSUE's contract: the retry ladder may re-run
    /// under degraded settings that converge.
    NoConvergence(String),
    /// The memory-budget pre-flight rejected the unit: its predicted
    /// footprint exceeds the configured budget even after shedding
    /// every sheddable shard.
    MemoryBudget {
        /// Predicted footprint in bytes.
        needed_bytes: u64,
        /// The configured budget in bytes.
        budget_bytes: u64,
    },
    /// A non-transient evaluation error (invalid grid, singular system,
    /// IO failure, …). Retrying a deterministic evaluation of the same
    /// `(config, seed)` would fail identically, so the failure surfaces
    /// immediately.
    Fatal(String),
}

impl FailureKind {
    /// `true` when the bounded-retry ladder should re-run the unit.
    ///
    /// Panics, solver non-convergence and memory-budget rejections are
    /// transient (the ladder may change *how* the unit runs — e.g. shed
    /// shards — but never its seed, so output bytes are invariant);
    /// everything else is fatal.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            FailureKind::Panic(_)
                | FailureKind::NoConvergence(_)
                | FailureKind::MemoryBudget { .. }
        )
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic(msg) => write!(f, "panic: {msg}"),
            FailureKind::NoConvergence(msg) => write!(f, "solver gave up: {msg}"),
            FailureKind::MemoryBudget {
                needed_bytes,
                budget_bytes,
            } => write!(
                f,
                "memory budget exceeded: needs {needed_bytes} B, budget {budget_bytes} B"
            ),
            FailureKind::Fatal(msg) => write!(f, "{msg}"),
        }
    }
}

/// One cell's structured failure record: which cell of which scenario
/// failed, with which seed, after how many attempts, and why. This is
/// what a resilient sweep surfaces instead of a second-hand panic — the
/// originating cell is always named.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// The owning scenario's name.
    pub scenario: String,
    /// The cell's index in the scenario's canonical expansion order.
    pub cell_index: usize,
    /// The cell's deterministic seed (replaying `(scenario, cell_index,
    /// seed)` reproduces the failure).
    pub seed: u64,
    /// Evaluation attempts made (1 = no retry).
    pub attempts: u32,
    /// The final attempt's failure.
    pub kind: FailureKind,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} of scenario '{}' (seed {:#x}) failed after {} attempt(s): {}",
            self.cell_index, self.scenario, self.seed, self.attempts, self.kind
        )
    }
}

impl Error for CellFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_follows_the_taxonomy() {
        assert!(FailureKind::Panic("boom".into()).is_transient());
        assert!(FailureKind::NoConvergence("200k sweeps".into()).is_transient());
        assert!(FailureKind::MemoryBudget {
            needed_bytes: 2,
            budget_bytes: 1
        }
        .is_transient());
        assert!(!FailureKind::Fatal("singular".into()).is_transient());
    }

    #[test]
    fn display_names_the_originating_cell() {
        let failure = CellFailure {
            scenario: "duel_matrix".into(),
            cell_index: 17,
            seed: 0xD51,
            attempts: 3,
            kind: FailureKind::Panic("index out of bounds".into()),
        };
        let msg = failure.to_string();
        assert!(msg.contains("cell 17"));
        assert!(msg.contains("duel_matrix"));
        assert!(msg.contains("3 attempt(s)"));
        assert!(msg.contains("index out of bounds"));
    }
}
