//! Fault injection: a declarative plan of deliberate failures, used by
//! the test suite and CI to prove every recovery path actually fires.
//!
//! A [`FaultPlan`] says *which* global cell slots panic on *which*
//! attempt, and after how many journaled completions the process should
//! simulate a kill. Plans flow through explicit configuration (the
//! sweep runner takes one by value — no process globals, so parallel
//! tests cannot interfere); `reproduce_all` additionally accepts the
//! textual form via the `POLLUX_FAULT` environment variable so CI can
//! inject faults without a dedicated CLI surface:
//!
//! ```text
//! POLLUX_FAULT="panic-cell=3@1,panic-cell=7@1,exit-after=5"
//! ```
//!
//! * `panic-cell=SLOT@ATTEMPT` — the evaluation of global cell `SLOT`
//!   panics on attempt `ATTEMPT` (attempts are 1-based; `@1` fails the
//!   first run so deterministic retry recovers it, `@1` on every attempt
//!   up to the retry budget makes the cell surface as a failure).
//!   `panic-cell=SLOT` alone is shorthand for `SLOT@1`.
//! * `exit-after=N` — after `N` cells have been durably journaled, the
//!   process exits immediately (`exit(42)`), simulating `SIGKILL`
//!   between units; a subsequent `--resume` must complete the run
//!   byte-identically.

use std::fmt;

/// Exit code used by the simulated kill, distinct from real failure
/// codes (0 ok / 1 failure / 2 usage) so CI can assert the kill fired.
pub const SIMULATED_KILL_EXIT_CODE: i32 = 42;

/// Environment variable consulted by [`FaultPlan::from_env`].
pub const FAULT_ENV: &str = "POLLUX_FAULT";

/// A declarative fault-injection plan (empty by default: no faults).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(global cell slot, 1-based attempt)` pairs that panic.
    pub panic_cells: Vec<(usize, u32)>,
    /// Simulate a kill after this many journaled completions.
    pub exit_after_cells: Option<u64>,
}

impl FaultPlan {
    /// The empty plan — injects nothing.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan injects no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.panic_cells.is_empty() && self.exit_after_cells.is_none()
    }

    /// Should the evaluation of `slot` on `attempt` (1-based) panic?
    #[must_use]
    pub fn should_panic(&self, slot: usize, attempt: u32) -> bool {
        self.panic_cells
            .iter()
            .any(|&(s, a)| s == slot && a == attempt)
    }

    /// The simulated-kill threshold, if any.
    #[must_use]
    pub fn exit_after(&self) -> Option<u64> {
        self.exit_after_cells
    }

    /// Parses the textual plan format (see module docs). The empty
    /// string is the empty plan.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending directive — a typo
    /// in a fault plan must not silently inject nothing.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for directive in spec.split(',').map(str::trim).filter(|d| !d.is_empty()) {
            let (key, value) = directive
                .split_once('=')
                .ok_or_else(|| format!("fault directive '{directive}' is missing '='"))?;
            match key {
                "panic-cell" => {
                    let (slot, attempt) = match value.split_once('@') {
                        Some((slot, attempt)) => (
                            parse_num::<usize>("panic-cell slot", slot)?,
                            parse_num::<u32>("panic-cell attempt", attempt)?,
                        ),
                        None => (parse_num::<usize>("panic-cell slot", value)?, 1),
                    };
                    if attempt == 0 {
                        return Err(format!(
                            "fault directive '{directive}': attempts are 1-based"
                        ));
                    }
                    plan.panic_cells.push((slot, attempt));
                }
                "exit-after" => {
                    plan.exit_after_cells = Some(parse_num::<u64>("exit-after count", value)?);
                }
                other => {
                    return Err(format!(
                        "unknown fault directive '{other}' \
                         (expected panic-cell=SLOT[@ATTEMPT] or exit-after=N)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Reads the plan from `POLLUX_FAULT` (unset/empty → empty plan).
    ///
    /// # Errors
    ///
    /// As [`FaultPlan::parse`].
    pub fn from_env() -> Result<Self, String> {
        match std::env::var(FAULT_ENV) {
            Err(_) => Ok(FaultPlan::none()),
            Ok(raw) => FaultPlan::parse(&raw).map_err(|e| format!("{FAULT_ENV}: {e}")),
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = self
            .panic_cells
            .iter()
            .map(|(s, a)| format!("panic-cell={s}@{a}"))
            .collect();
        if let Some(n) = self.exit_after_cells {
            parts.push(format!("exit-after={n}"));
        }
        write!(f, "{}", parts.join(","))
    }
}

fn parse_num<T: std::str::FromStr>(what: &str, raw: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    raw.trim()
        .parse()
        .map_err(|e| format!("{what} '{raw}' is not a number: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_the_empty_plan() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn full_spec_round_trips_through_display() {
        let plan = FaultPlan::parse("panic-cell=3@1, panic-cell=7@2,exit-after=5").unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                panic_cells: vec![(3, 1), (7, 2)],
                exit_after_cells: Some(5),
            }
        );
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn bare_panic_cell_defaults_to_attempt_one() {
        let plan = FaultPlan::parse("panic-cell=9").unwrap();
        assert!(plan.should_panic(9, 1));
        assert!(!plan.should_panic(9, 2));
        assert!(!plan.should_panic(8, 1));
    }

    #[test]
    fn typos_fail_loudly() {
        assert!(FaultPlan::parse("panic-cel=3")
            .unwrap_err()
            .contains("panic-cel"));
        assert!(FaultPlan::parse("panic-cell=x")
            .unwrap_err()
            .contains("not a number"));
        assert!(FaultPlan::parse("panic-cell=3@0")
            .unwrap_err()
            .contains("1-based"));
        assert!(FaultPlan::parse("exit-after")
            .unwrap_err()
            .contains("missing '='"));
    }

    #[test]
    fn repeated_attempts_model_a_persistently_failing_cell() {
        let plan = FaultPlan::parse("panic-cell=4@1,panic-cell=4@2,panic-cell=4@3").unwrap();
        for attempt in 1..=3 {
            assert!(plan.should_panic(4, attempt));
        }
        assert!(!plan.should_panic(4, 4));
    }
}
