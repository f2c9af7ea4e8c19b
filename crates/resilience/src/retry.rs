//! Deterministic bounded retry.
//!
//! A unit of work in Pollux is a pure function of `(config, seed)`;
//! the retry ladder therefore re-runs a panicked unit *from the same
//! seed*. The consequence is the central determinism guarantee of the
//! failure model (test-enforced end to end): a retry can change
//! **whether** output exists, never **what** it contains — a run that
//! recovers from injected faults is byte-identical to a fault-free run.

use crate::FailureKind;

/// How many times a panicking unit is attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (≥ 1); `1` means no retry.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// Two attempts: the original run plus one retry — enough to absorb
    /// a one-off panic without masking a deterministic one for long (a
    /// genuinely broken cell panics on every attempt identically).
    fn default() -> Self {
        RetryPolicy { max_attempts: 2 }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts (clamped to ≥ 1).
    #[must_use]
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
        }
    }
}

/// Runs `attempt(n)` for `n = 1, 2, …` until it succeeds, fails with
/// anything but a panic, or the policy's attempt budget is spent.
/// Returns the result together with the number of attempts made.
///
/// Only a [`FailureKind::Panic`] is retried: a memory-budget refusal
/// depends on the unit and the budget alone, so a second attempt would
/// be refused the same way. The attempt index is passed through so a
/// fault plan can key on it, but the unit's seed, and thus its output
/// bytes, must not depend on it.
///
/// # Errors
///
/// The last attempt's [`FailureKind`], with the attempt count.
pub fn run_with_retry<T>(
    policy: RetryPolicy,
    mut attempt: impl FnMut(u32) -> Result<T, FailureKind>,
) -> Result<(T, u32), (FailureKind, u32)> {
    let mut n = 0;
    loop {
        n += 1;
        match attempt(n) {
            Ok(value) => return Ok((value, n)),
            Err(FailureKind::Panic(_)) if n < policy.max_attempts => continue,
            Err(kind) => return Err((kind, n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attempt_success_is_one_attempt() {
        let r = run_with_retry(RetryPolicy::new(5), |_| Ok::<_, FailureKind>(7));
        assert_eq!(r, Ok((7, 1)));
    }

    #[test]
    fn transient_failures_retry_up_to_budget() {
        let r = run_with_retry(RetryPolicy::new(3), |n| {
            if n < 3 {
                Err(FailureKind::Panic(format!("attempt {n}")))
            } else {
                Ok(n)
            }
        });
        assert_eq!(r, Ok((3, 3)));
    }

    #[test]
    fn budget_exhaustion_surfaces_the_last_failure() {
        let r: Result<(u32, u32), _> = run_with_retry(RetryPolicy::new(2), |n| {
            Err(FailureKind::Panic(format!("attempt {n}")))
        });
        assert_eq!(r, Err((FailureKind::Panic("attempt 2".into()), 2)));
    }

    #[test]
    fn fatal_failures_never_retry() {
        // A memory refusal is the same on every attempt.
        let refused = FailureKind::MemoryBudget {
            needed_bytes: 2,
            budget_bytes: 1,
        };
        let mut calls = 0;
        let r: Result<(u32, u32), _> = run_with_retry(RetryPolicy::new(10), |_| {
            calls += 1;
            Err(refused.clone())
        });
        assert_eq!(calls, 1);
        assert_eq!(r, Err((refused, 1)));
    }

    #[test]
    fn policy_clamps_to_at_least_one_attempt() {
        assert_eq!(RetryPolicy::new(0).max_attempts, 1);
        assert_eq!(RetryPolicy::new(1).max_attempts, 1);
        assert_eq!(RetryPolicy::default().max_attempts, 2);
    }
}
