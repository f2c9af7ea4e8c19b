//! The failure taxonomy: the two ways one unit of work fails that the
//! resilience layer itself handles. Every other evaluation error is the
//! caller's own error type and surfaces after one attempt.

use std::error::Error;
use std::fmt;

/// Why one unit of work (a sweep cell) failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FailureKind {
    /// The unit panicked; carries the panic message. The only failure a
    /// retry can change: a panic may be injected (fault harness) or
    /// environmental, and the retry contract guarantees a successful
    /// re-run is byte-identical.
    Panic(String),
    /// The memory-budget pre-flight rejected the unit: its predicted
    /// footprint exceeds the configured budget even after shedding
    /// every sheddable shard. The footprint is a function of the unit
    /// and the budget, so a retry would be refused the same way.
    MemoryBudget {
        /// Predicted footprint in bytes.
        needed_bytes: u64,
        /// The configured budget in bytes.
        budget_bytes: u64,
    },
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic(msg) => write!(f, "panic: {msg}"),
            FailureKind::MemoryBudget {
                needed_bytes,
                budget_bytes,
            } => write!(
                f,
                "memory budget exceeded: needs {needed_bytes} B, budget {budget_bytes} B"
            ),
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
