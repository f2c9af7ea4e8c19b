//! Memory-budget pre-flight: admit a unit's *predicted* footprint
//! against an explicit budget before anything is allocated.
//!
//! Large DES cells know their footprint in advance (`des_memory_audit`
//! sums every table from the run parameters), so running out of memory
//! is a planning failure, not fate. The pre-flight turns OOM death into
//! a choice made up front: run as planned, degrade along an
//! output-invariant ladder (shedding DES shards never changes output
//! bytes — contiguous shards partition the same tables), or refuse with
//! a structured [`FailureKind::MemoryBudget`] naming both numbers.

use crate::FailureKind;

/// A byte budget that predicted footprints are admitted against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    budget_bytes: Option<u64>,
}

impl MemoryBudget {
    /// No budget: every footprint is admitted (the default).
    #[must_use]
    pub fn unlimited() -> Self {
        MemoryBudget { budget_bytes: None }
    }

    /// A hard budget of `budget_bytes`.
    #[must_use]
    pub fn bytes(budget_bytes: u64) -> Self {
        MemoryBudget {
            budget_bytes: Some(budget_bytes),
        }
    }

    /// The configured limit, if any.
    #[must_use]
    pub fn limit_bytes(&self) -> Option<u64> {
        self.budget_bytes
    }

    /// Admits or rejects a predicted footprint.
    ///
    /// # Errors
    ///
    /// [`FailureKind::MemoryBudget`] when `needed_bytes` exceeds the
    /// budget.
    pub fn admit(&self, needed_bytes: u64) -> Result<(), FailureKind> {
        match self.budget_bytes {
            Some(budget_bytes) if needed_bytes > budget_bytes => Err(FailureKind::MemoryBudget {
                needed_bytes,
                budget_bytes,
            }),
            _ => Ok(()),
        }
    }

    /// Walks a degradation ladder: returns the first candidate whose
    /// predicted footprint fits the budget. Candidates are tried in the
    /// caller's order, which should go from most to least preferred
    /// (e.g. requested shard count down to one shard).
    ///
    /// # Errors
    ///
    /// [`FailureKind::MemoryBudget`] carrying the *smallest* footprint
    /// on the ladder when nothing fits — the number that tells the
    /// operator what budget would have been enough.
    pub fn admit_degrading<C>(
        &self,
        candidates: impl IntoIterator<Item = (C, u64)>,
    ) -> Result<C, FailureKind> {
        let mut smallest: Option<u64> = None;
        for (candidate, needed_bytes) in candidates {
            if self.admit(needed_bytes).is_ok() {
                return Ok(candidate);
            }
            smallest = Some(smallest.map_or(needed_bytes, |s| s.min(needed_bytes)));
        }
        Err(FailureKind::MemoryBudget {
            needed_bytes: smallest.unwrap_or(0),
            budget_bytes: self.budget_bytes.unwrap_or(0),
        })
    }
}

impl Default for MemoryBudget {
    fn default() -> Self {
        MemoryBudget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_admits_everything() {
        assert_eq!(MemoryBudget::unlimited().admit(u64::MAX), Ok(()));
        assert_eq!(MemoryBudget::default().limit_bytes(), None);
    }

    #[test]
    fn bounded_budget_rejects_with_both_numbers() {
        let budget = MemoryBudget::bytes(1 << 20);
        assert_eq!(budget.admit(1 << 20), Ok(()));
        assert_eq!(
            budget.admit((1 << 20) + 1),
            Err(FailureKind::MemoryBudget {
                needed_bytes: (1 << 20) + 1,
                budget_bytes: 1 << 20,
            })
        );
    }

    #[test]
    fn degradation_ladder_picks_first_fit() {
        let budget = MemoryBudget::bytes(100);
        let picked = budget
            .admit_degrading([(8u32, 250u64), (4, 120), (2, 90), (1, 60)])
            .unwrap();
        assert_eq!(picked, 2);
    }

    #[test]
    fn exhausted_ladder_reports_smallest_footprint() {
        let budget = MemoryBudget::bytes(10);
        let err = budget
            .admit_degrading([(8u32, 250u64), (1, 60)])
            .unwrap_err();
        assert_eq!(
            err,
            FailureKind::MemoryBudget {
                needed_bytes: 60,
                budget_bytes: 10,
            }
        );
    }
}
