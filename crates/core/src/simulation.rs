//! Event-level Monte-Carlo simulation of a single cluster under attack.
//!
//! This simulator is an *independent implementation* of the process whose
//! transition matrix [`crate::ClusterChain`] builds analytically: it plays
//! the join/leave events, the Property-1 expiries, the randomized
//! maintenance draws and the adversary's decisions (through a pluggable
//! [`Strategy`]) with explicit random draws. Agreement between the two is
//! the reproduction's main internal validity check (the `validate_model`
//! scenario and the integration suite).

use pollux_adversary::{ClusterView, JoinDecision, Strategy};
use pollux_des::replication;
use pollux_des::stats::{Summary, Welford};
use pollux_prob::{AliasTable, Hypergeometric};
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::{ClusterState, InitialCondition, ModelParams, ModelSpace, StateClass};

/// Where a simulated cluster ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsorbedIn {
    /// Merged while safe (`AmS`).
    SafeMerge,
    /// Split while safe (`AℓS`).
    SafeSplit,
    /// Merged while polluted (`AmP`).
    PollutedMerge,
    /// Split while polluted — reachable only when Rule 2 is ablated.
    PollutedSplit,
    /// The event cap was reached before absorption.
    Censored,
}

/// Outcome of one replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Events observed in transient safe states (`T_S`).
    pub safe_events: u64,
    /// Events observed in transient polluted states (`T_P`).
    pub polluted_events: u64,
    /// Length of the first safe sojourn (`T_{S,1}`).
    pub first_safe_sojourn: u64,
    /// Length of the first polluted sojourn (`T_{P,1}`).
    pub first_polluted_sojourn: u64,
    /// Terminal class.
    pub absorbed: AbsorbedIn,
}

/// Simulates one cluster trajectory per replication.
#[derive(Debug, Clone)]
pub struct ClusterSimulator<'a, S: Strategy> {
    params: &'a ModelParams,
    strategy: &'a S,
    /// Safety cap on events per replication (absorption is almost sure but
    /// can be astronomically slow for `d` near 1 — see Table I).
    max_events: u64,
}

impl<'a, S: Strategy> ClusterSimulator<'a, S> {
    /// Creates a simulator with the default event cap of 10⁶ per
    /// replication.
    pub fn new(params: &'a ModelParams, strategy: &'a S) -> Self {
        ClusterSimulator {
            params,
            strategy,
            max_events: 1_000_000,
        }
    }

    /// Overrides the per-replication event cap.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Applies exactly one join/leave event to a transient `state` and
    /// returns the successor.
    ///
    /// # Panics
    ///
    /// Panics when `state` is absorbing or inconsistent with the
    /// parameters.
    pub fn step<R: rand::Rng + ?Sized>(&self, state: ClusterState, rng: &mut R) -> ClusterState {
        assert!(state.is_consistent(self.params), "state {state} outside Ω");
        assert!(
            state.classify(self.params).is_transient(),
            "cannot step an absorbed cluster ({state})"
        );
        let (s, x, y) = apply_event(self.params, self.strategy, state.s, state.x, state.y, rng);
        ClusterState::new(s, x, y)
    }

    /// Runs one trajectory from `start`.
    ///
    /// # Panics
    ///
    /// Panics when `start` is inconsistent with the parameters.
    pub fn run<R: rand::Rng + ?Sized>(&self, start: ClusterState, rng: &mut R) -> RunOutcome {
        assert!(
            start.is_consistent(self.params),
            "start state {start} outside Ω"
        );
        let p = self.params;
        let delta = p.max_spare();
        let quorum = p.quorum();

        let (mut s, mut x, mut y) = (start.s, start.x, start.y);
        let mut safe_events = 0u64;
        let mut polluted_events = 0u64;
        let mut first_safe = 0u64;
        let mut first_polluted = 0u64;
        let mut safe_sojourns_closed = false;
        let mut polluted_sojourns_closed = false;

        let absorbed = loop {
            // Classify the current state.
            if s == 0 {
                break if x > quorum {
                    AbsorbedIn::PollutedMerge
                } else {
                    AbsorbedIn::SafeMerge
                };
            }
            if s == delta {
                break if x > quorum {
                    AbsorbedIn::PollutedSplit
                } else {
                    AbsorbedIn::SafeSplit
                };
            }
            let polluted = x > quorum;
            if polluted {
                polluted_events += 1;
                if !polluted_sojourns_closed {
                    first_polluted += 1;
                }
                safe_sojourns_closed = safe_events > 0;
            } else {
                safe_events += 1;
                if !safe_sojourns_closed {
                    first_safe += 1;
                }
                polluted_sojourns_closed = polluted_events > 0;
            }
            if safe_events + polluted_events >= self.max_events {
                break AbsorbedIn::Censored;
            }

            let (ns, nx, ny) = apply_event(p, self.strategy, s, x, y, rng);
            s = ns;
            x = nx;
            y = ny;
        };

        RunOutcome {
            safe_events,
            polluted_events,
            first_safe_sojourn: first_safe,
            first_polluted_sojourn: first_polluted,
            absorbed,
        }
    }
}

/// Plays one join/leave event from transient state `(s, x, y)` and returns
/// the successor counts. This is the single source of truth for the event
/// semantics, shared by [`ClusterSimulator::run`], [`ClusterSimulator::step`]
/// and the overlay simulator.
fn apply_event<S: Strategy, R: rand::Rng + ?Sized>(
    p: &ModelParams,
    strategy: &S,
    s: usize,
    x: usize,
    y: usize,
    rng: &mut R,
) -> (usize, usize, usize) {
    let (c_size, delta) = (p.core_size(), p.max_spare());
    let (mu, d, k) = (p.mu(), p.d(), p.k());
    let toggles = p.toggles();
    let quorum = p.quorum();
    let polluted = x > quorum;
    let (mut s, mut x, mut y) = (s, x, y);

    if rng.random_bool(0.5) {
        // Join event.
        let malicious = mu > 0.0 && rng.random_bool(mu);
        let accept = if polluted && toggles.rule2 {
            let view =
                ClusterView::new(c_size, delta, s, x, y).expect("simulated states stay consistent");
            strategy.join_decision(&view, malicious) == JoinDecision::Accept
        } else {
            true
        };
        if accept {
            s += 1;
            if malicious {
                y += 1;
            }
        }
    } else {
        // Leave event.
        let hits_core = rng.random_range(0..c_size + s) < c_size;
        if !hits_core {
            // Spare selected.
            let malicious = rng.random_range(0..s) < y;
            if !malicious {
                s -= 1;
            } else if !survives(d, y, rng) {
                s -= 1;
                y -= 1;
            }
        } else {
            // Core selected.
            let malicious = rng.random_range(0..c_size) < x;
            if !malicious {
                // Honest core member leaves.
                if polluted && toggles.bias {
                    if y > 0 {
                        x += 1;
                        y -= 1;
                    }
                    s -= 1;
                } else {
                    let (nx, ny) = maintenance(c_size, k, s, x, y, rng);
                    x = nx;
                    y = ny;
                    s -= 1;
                }
            } else if !survives(d, x, rng) {
                // Forced out by Property 1.
                if x - 1 > quorum && toggles.bias {
                    if y > 0 {
                        y -= 1; // malicious replacement keeps x
                    } else {
                        x -= 1; // honest replacement
                    }
                    s -= 1;
                } else {
                    let (nx, ny) = maintenance(c_size, k, s, x - 1, y, rng);
                    x = nx;
                    y = ny;
                    s -= 1;
                }
            } else if !polluted && toggles.rule1 {
                // Valid malicious core member: Rule 1?
                let view = ClusterView::new(c_size, delta, s, x, y)
                    .expect("simulated states stay consistent");
                if strategy.voluntary_core_leave(&view) {
                    let (nx, ny) = maintenance(c_size, k, s, x - 1, y, rng);
                    x = nx;
                    y = ny;
                    s -= 1;
                }
            }
        }
    }
    (s, x, y)
}

/// `true` when none of the `count` malicious identifiers expired at this
/// event (probability `d^count`).
fn survives<R: rand::Rng + ?Sized>(d: f64, count: usize, rng: &mut R) -> bool {
    if d <= 0.0 {
        return false;
    }
    rng.random_bool(d.powi(count as i32).clamp(0.0, 1.0))
}

/// Plays the `protocol_k` maintenance draw after a core departure left
/// `x_rem` malicious members in the core: demote `k−1` of `C−1`, promote
/// `k` from the pool of `s+k−1`. Returns the new `(x, y)`; the caller
/// shrinks `s`.
fn maintenance<R: rand::Rng + ?Sized>(
    c_size: usize,
    k: usize,
    s: usize,
    x_rem: usize,
    y: usize,
    rng: &mut R,
) -> (usize, usize) {
    debug_assert!(s >= 1);
    let a = Hypergeometric::new(c_size as u64 - 1, x_rem as u64, k as u64 - 1)
        .expect("parameters bounded by C")
        .sample(rng) as usize;
    let pool_mal = y + a;
    let b = Hypergeometric::new((s + k - 1) as u64, pool_mal as u64, k as u64)
        .expect("pool holds at least k members when s >= 1")
        .sample(rng) as usize;
    (x_rem - a + b, pool_mal - b)
}

/// Aggregated Monte-Carlo estimates over many replications.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Estimate of `E(T_S)`.
    pub safe_events: Summary,
    /// Estimate of `E(T_P)`.
    pub polluted_events: Summary,
    /// Estimate of `E(T_{S,1})`.
    pub first_safe_sojourn: Summary,
    /// Estimate of `E(T_{P,1})`.
    pub first_polluted_sojourn: Summary,
    /// Empirical absorption frequencies
    /// `(AmS, AℓS, AmP, AℓP)`.
    pub absorption: (f64, f64, f64, f64),
    /// Replications that hit the event cap (excluded from the absorption
    /// frequencies, included in the sojourn estimates as censored values).
    pub censored: u64,
    /// Total replications.
    pub replications: u64,
}

/// Runs `replications` independent trajectories with starts drawn from
/// `initial`, and aggregates the estimates.
///
/// Replication `i` draws from the stream seeded by
/// [`replication::replication_seed`]`(master_seed, i)`. The replications
/// run in order on the calling thread, each outcome folded into the
/// accumulators as it finishes. The last argument, a thread count, is
/// unused; it stays for the callers that pass one.
///
/// # Panics
///
/// Panics on an invalid initial condition for these parameters, or when
/// `replications == 0`.
pub fn estimate<S: Strategy + Sync>(
    params: &ModelParams,
    initial: &InitialCondition,
    strategy: &S,
    replications: usize,
    master_seed: u64,
    _threads: usize,
) -> SimReport {
    assert!(replications > 0, "need at least one replication");
    let space = ModelSpace::new(params);
    let alpha = initial
        .distribution(&space)
        .expect("initial condition must be valid for the parameters");
    let start_table = AliasTable::new(&alpha).expect("alpha is a distribution");
    let start_states: Vec<ClusterState> = space.iter().map(|(_, st)| *st).collect();

    let replicate = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = start_states[start_table.sample(&mut rng)];
        // A start on an absorbing state is legal (β never produces one,
        // δ never either, but Custom may): it absorbs immediately.
        if start.classify(params).is_absorbing() {
            return RunOutcome {
                safe_events: 0,
                polluted_events: 0,
                first_safe_sojourn: 0,
                first_polluted_sojourn: 0,
                absorbed: match start.classify(params) {
                    StateClass::SafeMerge => AbsorbedIn::SafeMerge,
                    StateClass::SafeSplit => AbsorbedIn::SafeSplit,
                    StateClass::PollutedMerge => AbsorbedIn::PollutedMerge,
                    _ => AbsorbedIn::PollutedSplit,
                },
            };
        }
        ClusterSimulator::new(params, strategy).run(start, &mut rng)
    };

    let mut safe = Welford::new();
    let mut polluted = Welford::new();
    let mut first_s = Welford::new();
    let mut first_p = Welford::new();
    let mut counts = [0u64; 4];
    let mut censored = 0u64;
    let mut fold = |o: RunOutcome| {
        safe.push(o.safe_events as f64);
        polluted.push(o.polluted_events as f64);
        first_s.push(o.first_safe_sojourn as f64);
        first_p.push(o.first_polluted_sojourn as f64);
        match o.absorbed {
            AbsorbedIn::SafeMerge => counts[0] += 1,
            AbsorbedIn::SafeSplit => counts[1] += 1,
            AbsorbedIn::PollutedMerge => counts[2] += 1,
            AbsorbedIn::PollutedSplit => counts[3] += 1,
            AbsorbedIn::Censored => censored += 1,
        }
    };
    for i in 0..replications as u64 {
        fold(replicate(replication::replication_seed(master_seed, i)));
    }
    let absorbed_total = (replications as u64 - censored).max(1) as f64;
    SimReport {
        safe_events: safe.summary(1.96),
        polluted_events: polluted.summary(1.96),
        first_safe_sojourn: first_s.summary(1.96),
        first_polluted_sojourn: first_p.summary(1.96),
        absorption: (
            counts[0] as f64 / absorbed_total,
            counts[1] as f64 / absorbed_total,
            counts[2] as f64 / absorbed_total,
            counts[3] as f64 / absorbed_total,
        ),
        censored,
        replications: replications as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_adversary::TargetedStrategy;

    fn params(mu: f64, d: f64, k: usize) -> ModelParams {
        ModelParams::paper_defaults()
            .with_mu(mu)
            .with_d(d)
            .with_k(k)
            .unwrap()
    }

    #[test]
    fn mu_zero_matches_random_walk_closed_form() {
        let p = params(0.0, 0.9, 1);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let report = estimate(&p, &InitialCondition::Delta, &strategy, 20_000, 1, 4);
        // E(T_S) = 12, split 4/7 merge vs 3/7 split.
        assert!(
            (report.safe_events.mean - 12.0).abs() < 0.3,
            "{}",
            report.safe_events
        );
        assert_eq!(report.polluted_events.mean, 0.0);
        assert!((report.absorption.0 - 4.0 / 7.0).abs() < 0.02);
        assert!((report.absorption.1 - 3.0 / 7.0).abs() < 0.02);
        assert_eq!(report.absorption.2, 0.0);
        assert_eq!(report.censored, 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = params(0.2, 0.8, 1);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let one = estimate(&p, &InitialCondition::Delta, &strategy, 500, 7, 1);
        for threads in [2, 4] {
            let many = estimate(&p, &InitialCondition::Delta, &strategy, 500, 7, threads);
            assert_eq!(one, many, "{threads} threads");
            for (a, b) in [
                (one.safe_events, many.safe_events),
                (one.polluted_events, many.polluted_events),
                (one.first_safe_sojourn, many.first_safe_sojourn),
                (one.first_polluted_sojourn, many.first_polluted_sojourn),
            ] {
                assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{threads} threads");
                assert_eq!(a.variance.to_bits(), b.variance.to_bits());
                assert_eq!(a.ci_half_width.to_bits(), b.ci_half_width.to_bits());
            }
        }
    }

    #[test]
    fn pollution_appears_with_adversary() {
        let p = params(0.3, 0.9, 1);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let report = estimate(&p, &InitialCondition::Beta, &strategy, 4000, 3, 4);
        assert!(
            report.polluted_events.mean > 0.5,
            "{}",
            report.polluted_events
        );
        assert!(report.absorption.2 > 0.05);
    }

    #[test]
    fn event_cap_censors() {
        let p = params(0.3, 0.99, 1);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let sim = ClusterSimulator::new(&p, &strategy).with_max_events(50);
        let mut rng = StdRng::seed_from_u64(5);
        let mut censored = 0;
        for _ in 0..200 {
            let out = sim.run(ClusterState::new(3, 0, 0), &mut rng);
            if out.absorbed == AbsorbedIn::Censored {
                censored += 1;
                assert_eq!(out.safe_events + out.polluted_events, 50);
            }
        }
        assert!(censored > 0);
    }

    #[test]
    fn first_sojourns_bounded_by_totals() {
        let p = params(0.25, 0.9, 1);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let sim = ClusterSimulator::new(&p, &strategy);
        for _ in 0..500 {
            let o = sim.run(ClusterState::new(3, 0, 0), &mut rng);
            assert!(o.first_safe_sojourn <= o.safe_events);
            assert!(o.first_polluted_sojourn <= o.polluted_events);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn inconsistent_start_panics() {
        let p = params(0.1, 0.5, 1);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        ClusterSimulator::new(&p, &strategy).run(ClusterState::new(9, 0, 0), &mut rng);
    }
}
