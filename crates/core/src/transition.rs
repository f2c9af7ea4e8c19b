//! The transition matrix of Figure 2.
//!
//! From a transient state `(s, x, y)` (with `0 < s < Δ`) the chain moves
//! according to the protocol (`protocol_k`) and the adversary's strategy:
//!
//! **Join event** (probability `p_j = 1/2`; joiner malicious w.p. `μ`):
//! safe clusters always execute the join (into the spare set); polluted
//! clusters apply Rule 2 — discard everything at `s = Δ − 1`, discard
//! honest joins while `s > 1`, accept everyone at `s = 1`.
//!
//! **Leave event** (probability `p_ℓ = 1/2`): the event hits a core member
//! w.p. `C/(C+s)`, a spare otherwise; within a set the member is malicious
//! proportionally to its composition. Honest members comply; malicious
//! members leave only when forced by Property 1 (an identifier of the set
//! expired, probability `1 − d^x` resp. `1 − d^y`) or when Rule 1 makes a
//! voluntary departure profitable. A core departure triggers maintenance:
//! the honest randomized procedure with kernel
//! `τ(x, a, b) = q(k−1, C−1, a, x) · q(k, s+k−1, b, y+a)`
//! in safe clusters, the adversary-biased replacement in polluted ones.

use std::sync::OnceLock;

use pollux_adversary::{rules, ClusterView};
use pollux_defense::{Defense, NullDefense};
use pollux_markov::{Dtmc, SparseDtmc};
use pollux_prob::hypergeometric_q;

use crate::fold::StateHooks;
use crate::{ClusterState, DefenseFold, ModelParams, ModelSpace, StateClass};

/// The cluster chain: the enumerated space `Ω` plus the validated
/// transition matrix `M` of Figure 2.
///
/// The matrix is built and stored **sparse-first**: the builder emits
/// `(state, successor, probability)` triplets straight into a
/// [`SparseDtmc`] (each state reaches a handful of successors, so the
/// chain holds O(n) non-zeros). The dense [`Dtmc`] bridge is materialized
/// lazily, only for consumers that genuinely need the O(n²)
/// representation (per-row alias samplers, the Theorem-1 competing-chain
/// construction) — the analytical pipeline never does.
///
/// # Example
///
/// ```
/// use pollux::{ClusterChain, ModelParams};
///
/// let chain = ClusterChain::build(&ModelParams::paper_defaults().with_mu(0.2).with_d(0.8));
/// assert!(chain.dtmc().matrix().is_stochastic(1e-9));
/// assert!(chain.sparse_dtmc().matrix().nnz() < 288 * 16);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterChain {
    space: ModelSpace,
    sparse: SparseDtmc,
    dense: OnceLock<Dtmc>,
}

impl ClusterChain {
    /// Builds the chain for `params`.
    ///
    /// # Panics
    ///
    /// Panics if the constructed matrix fails stochasticity validation —
    /// that would be a bug in the builder, not a user error, and the
    /// builder is exhaustively tested against closed forms.
    pub fn build(params: &ModelParams) -> Self {
        Self::build_with_defense(params, &NullDefense::new())
    }

    /// Builds the chain for `params` with a [`Defense`] folded into the
    /// transition probabilities — the analytical half of an
    /// adversary-vs-defense duel.
    ///
    /// The defense's hooks are Markovian (per-event probabilities against
    /// the `(s, x, y)` view), so they compose with Figure 2 exactly:
    ///
    /// * a fraction [`Defense::induced_churn`] of every transient row's
    ///   mass moves to the forced-eviction kernel (a uniformly chosen
    ///   member is expelled; valid malicious members cannot refuse, so
    ///   the honest maintenance redraw runs unless the cluster stays
    ///   polluted and biased);
    /// * join outcomes are scaled by the
    ///   [`effective_join_admission`](pollux_defense::effective_join_admission)
    ///   probability (join-rate shaping and the cluster-size-adaptation
    ///   taper), the remainder self-looping;
    /// * every survival probability `d^count` uses
    ///   [`effective_survival`](pollux_defense::effective_survival)'s
    ///   `d_eff` instead of `d` (incarnation refresh shortens the
    ///   adversary's lifetimes).
    ///
    /// The hooks are read once per transient state into a
    /// [`DefenseFold`], and the chain is built from the fold
    /// ([`ClusterChain::build_with_fold`]).
    ///
    /// With [`NullDefense`] every fold is the exact neutral element and
    /// the matrix is **bit-identical** to [`ClusterChain::build`]
    /// (test-enforced), so defended and undefended analyses share one
    /// code path. The triplets still go straight into the [`SparseDtmc`],
    /// so duels ride the sparse pipeline at 10⁴–10⁵-state spaces.
    ///
    /// # Panics
    ///
    /// As [`ClusterChain::build`]; a defense hook returning values
    /// outside its documented range (NaN included) surfaces here as a
    /// stochasticity failure.
    pub fn build_with_defense<D: Defense + ?Sized>(params: &ModelParams, defense: &D) -> Self {
        Self::build_with_fold(params, &DefenseFold::new(params, defense))
    }

    /// Builds the chain for `params` from a defense already folded by
    /// [`DefenseFold::new`]. The fold is the only place the builder reads
    /// a defense, so equal folds give bit-identical chains.
    ///
    /// # Panics
    ///
    /// As [`ClusterChain::build_with_defense`], and when `fold` was made
    /// for another core size or maximal spare size than `params`.
    pub fn build_with_fold(params: &ModelParams, fold: &DefenseFold) -> Self {
        assert!(
            (fold.core_size(), fold.max_spare()) == (params.core_size(), params.max_spare()),
            "fold made for C = {}, Δ = {} cannot build a chain with C = {}, Δ = {}",
            fold.core_size(),
            fold.max_spare(),
            params.core_size(),
            params.max_spare()
        );
        let space = ModelSpace::new(params);
        let n = space.len();
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(n * 16);
        let mut hooks = fold.states();

        for (i, state) in space.iter() {
            if state.classify(params).is_absorbing() {
                triplets.push((i, i, 1.0));
                continue;
            }
            let at = hooks.next().expect("a fold covers every transient state");
            for (target, prob) in transitions_from(params, state, at) {
                debug_assert!(
                    target.is_consistent(params),
                    "builder produced {target} outside Ω from {state}"
                );
                triplets.push((i, space.index(&target), prob));
            }
        }

        let sparse =
            SparseDtmc::from_triplets(n, triplets).expect("Figure-2 rows must be stochastic");
        ClusterChain {
            space,
            sparse,
            dense: OnceLock::new(),
        }
    }

    /// The enumerated state space.
    pub fn space(&self) -> &ModelSpace {
        &self.space
    }

    /// The validated chain in sparse (CSR) form — the representation the
    /// analytical pipeline runs on.
    pub fn sparse_dtmc(&self) -> &SparseDtmc {
        &self.sparse
    }

    /// The validated chain in dense form, materialized on first use (an
    /// O(n²) bridge kept for simulation samplers and the dense analyses;
    /// carries bit-identical probabilities to [`ClusterChain::sparse_dtmc`]).
    pub fn dtmc(&self) -> &Dtmc {
        self.dense.get_or_init(|| self.sparse.to_dense())
    }

    /// Convenience: transition probability between explicit states.
    ///
    /// # Panics
    ///
    /// Panics when either state lies outside `Ω`.
    pub fn prob(&self, from: &ClusterState, to: &ClusterState) -> f64 {
        self.sparse
            .prob(self.space.index(from), self.space.index(to))
    }
}

/// The bits of every [`ModelParams`] field [`ClusterChain::build`] reads:
/// the sizes `C`, `Δ` and `k`, the bits of `μ`, `d` and `ν`, and the
/// adversary toggles. The builder is a function of these alone, so equal
/// keys build bit-identical chains, and a key names everything derived
/// from an undefended chain. Bits are compared, not values, so `-0.0`
/// and `0.0` are different keys.
///
/// ```
/// use pollux::{ChainKey, ModelParams};
///
/// let params = ModelParams::paper_defaults().with_mu(0.2).with_d(0.9);
/// assert_eq!(ChainKey::new(&params), ChainKey::new(&params.clone()));
/// assert_ne!(ChainKey::new(&params), ChainKey::new(&params.with_nu(0.2)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainKey {
    sizes: [usize; 3],
    bits: [u64; 3],
    toggles: [bool; 3],
}

impl ChainKey {
    /// The key of the chain [`ClusterChain::build`] builds for `params`.
    pub fn new(params: &ModelParams) -> Self {
        let t = params.toggles();
        ChainKey {
            sizes: [params.core_size(), params.max_spare(), params.k()],
            bits: [params.mu(), params.d(), params.nu()].map(f64::to_bits),
            toggles: [t.rule1, t.rule2, t.bias],
        }
    }
}

/// Enumerates the outgoing transitions of one transient state as
/// `(target, probability)` pairs (targets may repeat; the builder sums).
///
/// The defense's hook values at this state enter exactly three places:
/// the per-event induced-churn preemption (weight `eta`), the
/// join-admission scaling `g`, and the effective survival probability
/// `d_eff`. All three are neutral no-ops (bit-identical weights) under
/// [`NullDefense`].
fn transitions_from(
    params: &ModelParams,
    st: &ClusterState,
    hooks: StateHooks,
) -> Vec<(ClusterState, f64)> {
    let mut out = Vec::with_capacity(32);
    let (s, x, y) = (st.s, st.x, st.y);
    let c_size = params.core_size();
    let delta = params.max_spare();
    let quorum = params.quorum();
    let mu = params.mu();
    let k = params.k();
    let toggles = params.toggles();
    let polluted = x > quorum;

    let view =
        ClusterView::new(c_size, delta, s, x, y).expect("transient states are consistent views");
    let StateHooks {
        eta,
        admission: g,
        refresh,
    } = hooks;
    // `effective_survival`'s expression, so `d_eff` keeps its bits.
    let d = params.d() * (1.0 - refresh);

    // The normal join/leave event carries the mass the defense does not
    // preempt; `1 − 0 = 1` and `0.5 · 1 = 0.5` exactly, so the undefended
    // weights are reproduced bit-for-bit.
    let p_join = 0.5 * (1.0 - eta);
    let p_leave = 0.5 * (1.0 - eta);

    // ---- Induced churn: forced eviction of a uniform member ------------
    if eta > 0.0 {
        let p_core = c_size as f64 / (c_size + s) as f64;
        let p_spare = 1.0 - p_core;
        let p_mal_spare = y as f64 / s as f64;
        // Evicted spare (honest or malicious — no survival roll: the
        // protocol revokes the membership).
        let w = eta * p_spare * (1.0 - p_mal_spare);
        if w > 0.0 {
            out.push((ClusterState::new(s - 1, x, y), w));
        }
        let w = eta * p_spare * p_mal_spare;
        if w > 0.0 {
            out.push((ClusterState::new(s - 1, x, y - 1), w));
        }
        let p_mal_core = x as f64 / c_size as f64;
        // Evicted honest core member: the usual replacement machinery.
        let w = eta * p_core * (1.0 - p_mal_core);
        if w > 0.0 {
            if polluted && toggles.bias {
                if y > 0 {
                    out.push((ClusterState::new(s - 1, x + 1, y - 1), w));
                } else {
                    out.push((ClusterState::new(s - 1, x, y), w));
                }
            } else {
                push_maintenance(&mut out, params, s, x, y, w);
            }
        }
        // Evicted malicious core member: expelled regardless of identifier
        // validity — this is the channel that drains captured cores.
        let w = eta * p_core * p_mal_core;
        if w > 0.0 {
            if x - 1 > quorum && toggles.bias {
                if y > 0 {
                    out.push((ClusterState::new(s - 1, x, y - 1), w));
                } else {
                    out.push((ClusterState::new(s - 1, x - 1, y), w));
                }
            } else {
                push_maintenance(&mut out, params, s, x - 1, y, w);
            }
        }
    }

    // ---- Join event ----------------------------------------------------
    // Join-rate shaping: only a `g` share of join events reaches the
    // cluster; the rest are dropped by the defense (self-loop).
    let p_adm = p_join * g;
    if g < 1.0 {
        out.push((*st, p_join - p_adm));
    }
    if polluted && toggles.rule2 {
        if s == delta - 1 {
            // Rule 2: dodge the split — discard every join.
            out.push((*st, p_adm));
        } else {
            // Malicious joins always execute.
            out.push((ClusterState::new(s + 1, x, y + 1), p_adm * mu));
            if s > 1 {
                // Honest joins are silently discarded.
                out.push((*st, p_adm * (1.0 - mu)));
            } else {
                // s = 1: keep a merge buffer — accept the honest join.
                out.push((ClusterState::new(s + 1, x, y), p_adm * (1.0 - mu)));
            }
        }
    } else {
        // Safe cluster (or Rule 2 ablated): joins always execute.
        out.push((ClusterState::new(s + 1, x, y + 1), p_adm * mu));
        out.push((ClusterState::new(s + 1, x, y), p_adm * (1.0 - mu)));
    }

    // ---- Leave event ---------------------------------------------------
    let p_core = c_size as f64 / (c_size + s) as f64;
    let p_spare = 1.0 - p_core;

    // Spare member selected.
    let p_mal_spare = y as f64 / s as f64;
    // Honest spare: leaves.
    let w = p_leave * p_spare * (1.0 - p_mal_spare);
    if w > 0.0 {
        out.push((ClusterState::new(s - 1, x, y), w));
    }
    // Malicious spare: only an expiry forces it out (Property 1).
    let w = p_leave * p_spare * p_mal_spare;
    if w > 0.0 {
        let survive = d.powi(y as i32);
        out.push((*st, w * survive));
        out.push((ClusterState::new(s - 1, x, y - 1), w * (1.0 - survive)));
    }

    // Core member selected.
    let p_mal_core = x as f64 / c_size as f64;
    // Honest core member: leaves; maintenance runs.
    let w = p_leave * p_core * (1.0 - p_mal_core);
    if w > 0.0 {
        if polluted && toggles.bias {
            // Adversary-biased replacement.
            if y > 0 {
                out.push((ClusterState::new(s - 1, x + 1, y - 1), w));
            } else {
                out.push((ClusterState::new(s - 1, x, y), w));
            }
        } else {
            push_maintenance(&mut out, params, s, x, y, w);
        }
    }
    // Malicious core member: Property 1 / Rule 1.
    let w = p_leave * p_core * p_mal_core;
    if w > 0.0 {
        let survive = d.powi(x as i32);
        // Forced departure: some malicious core identifier expired.
        let w_expired = w * (1.0 - survive);
        if w_expired > 0.0 {
            if x - 1 > quorum && toggles.bias {
                if y > 0 {
                    out.push((ClusterState::new(s - 1, x, y - 1), w_expired));
                } else {
                    out.push((ClusterState::new(s - 1, x - 1, y), w_expired));
                }
            } else {
                push_maintenance(&mut out, params, s, x - 1, y, w_expired);
            }
        }
        // Still valid: leave only when Rule 1 says the gamble pays.
        let w_valid = w * survive;
        if w_valid > 0.0 {
            let voluntary = toggles.rule1 && rules::rule1_triggers(&view, k, params.nu());
            if voluntary {
                push_maintenance(&mut out, params, s, x - 1, y, w_valid);
            } else {
                out.push((*st, w_valid));
            }
        }
    }

    out
}

/// Adds the randomized-maintenance outcomes: from a core now holding
/// `x_rem` malicious members (after the departure) and a spare set with
/// `y` malicious of `s`, `protocol_k` demotes `a` malicious (of `k − 1`
/// drawn from `C − 1`) and promotes `b` malicious (of `k` drawn from the
/// pool of `s + k − 1` with `y + a` malicious), landing in
/// `(s − 1, x_rem − a + b, y + a − b)` with probability `weight · τ`.
fn push_maintenance(
    out: &mut Vec<(ClusterState, f64)>,
    params: &ModelParams,
    s: usize,
    x_rem: usize,
    y: usize,
    weight: f64,
) {
    let c_size = params.core_size();
    let k = params.k();
    debug_assert!(s >= 1, "maintenance requires a non-empty spare pool");

    let a_lo = (k as i64 - 1 - (c_size as i64 - 1 - x_rem as i64)).max(0) as usize;
    let a_hi = (k - 1).min(x_rem);
    for a in a_lo..=a_hi {
        let p_demote = hypergeometric_q(k as u64 - 1, c_size as u64 - 1, a as u64, x_rem as u64);
        if p_demote == 0.0 {
            continue;
        }
        let pool_mal = y + a;
        let pool_size = s + k - 1;
        let b_lo = (k as i64 - (pool_size as i64 - pool_mal as i64)).max(0) as usize;
        let b_hi = k.min(pool_mal);
        for b in b_lo..=b_hi {
            let p_promote = hypergeometric_q(k as u64, pool_size as u64, b as u64, pool_mal as u64);
            if p_promote == 0.0 {
                continue;
            }
            let target = ClusterState::new(s - 1, x_rem - a + b, pool_mal - b);
            out.push((target, weight * p_demote * p_promote));
        }
    }
}

/// `true` when no transition in the chain enters a polluted-split state
/// (the Rule-2 guarantee the paper notes below Figure 1).
pub fn polluted_split_unreachable(chain: &ClusterChain) -> bool {
    let mut is_target = vec![false; chain.space().len()];
    for &j in chain.space().polluted_split() {
        is_target[j] = true;
    }
    for (i, state) in chain.space().iter() {
        if state.classify(chain.space().params()) == StateClass::PollutedSplit {
            continue; // its own self-loop does not count as entering
        }
        if chain
            .sparse_dtmc()
            .successors(i)
            .any(|(j, p)| is_target[j] && p > 0.0)
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdversaryToggles;

    fn chain(mu: f64, d: f64, k: usize) -> ClusterChain {
        ClusterChain::build(
            &ModelParams::paper_defaults()
                .with_mu(mu)
                .with_d(d)
                .with_k(k)
                .unwrap(),
        )
    }

    #[test]
    fn rows_are_stochastic_across_parameter_grid() {
        for &mu in &[0.0, 0.1, 0.3] {
            for &d in &[0.0, 0.5, 0.99] {
                for &k in &[1usize, 3, 7] {
                    let ch = chain(mu, d, k);
                    assert!(
                        ch.dtmc().matrix().is_stochastic(1e-9),
                        "mu={mu} d={d} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn absorbing_states_self_loop() {
        let ch = chain(0.2, 0.8, 1);
        for (i, st) in ch.space().iter() {
            if st.classify(ch.space().params()).is_absorbing() {
                assert_eq!(ch.dtmc().prob(i, i), 1.0, "state {st}");
            }
        }
    }

    #[test]
    fn polluted_split_states_unreachable() {
        for &k in &[1usize, 7] {
            let ch = chain(0.3, 0.9, k);
            assert!(polluted_split_unreachable(&ch), "k={k}");
        }
    }

    #[test]
    fn polluted_split_reachable_when_rule2_ablated() {
        let params = ModelParams::paper_defaults()
            .with_mu(0.3)
            .with_d(0.9)
            .with_toggles(AdversaryToggles {
                rule2: false,
                ..AdversaryToggles::all()
            });
        let ch = ClusterChain::build(&params);
        assert!(!polluted_split_unreachable(&ch));
    }

    #[test]
    fn mu_zero_reduces_to_simple_random_walk() {
        let ch = chain(0.0, 0.9, 1);
        for s in 1..7usize {
            let from = ClusterState::new(s, 0, 0);
            assert!((ch.prob(&from, &ClusterState::new(s + 1, 0, 0)) - 0.5).abs() < 1e-12);
            assert!((ch.prob(&from, &ClusterState::new(s - 1, 0, 0)) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn join_transitions_from_safe_state() {
        let ch = chain(0.25, 0.5, 1);
        let from = ClusterState::new(3, 1, 1);
        assert!((ch.prob(&from, &ClusterState::new(4, 1, 2)) - 0.5 * 0.25).abs() < 1e-12);
        assert!((ch.prob(&from, &ClusterState::new(4, 1, 1)) - 0.5 * 0.75).abs() < 1e-12);
    }

    #[test]
    fn rule2_blocks_honest_joins_in_polluted_midband() {
        let ch = chain(0.25, 0.5, 1);
        // Polluted: x = 3 > c = 2; s = 3 (1 < s < Δ-1).
        let from = ClusterState::new(3, 3, 1);
        // Malicious join accepted.
        assert!((ch.prob(&from, &ClusterState::new(4, 3, 2)) - 0.5 * 0.25).abs() < 1e-12);
        // Honest join discarded: no mass on (4, 3, 1) from the join branch.
        assert_eq!(ch.prob(&from, &ClusterState::new(4, 3, 1)), 0.0);
    }

    #[test]
    fn rule2_blocks_all_joins_near_split() {
        let ch = chain(0.25, 0.5, 1);
        let from = ClusterState::new(6, 3, 1); // s = Δ - 1
        assert_eq!(ch.prob(&from, &ClusterState::new(7, 3, 2)), 0.0);
        assert_eq!(ch.prob(&from, &ClusterState::new(7, 3, 1)), 0.0);
        // The join mass sits on the self-loop (plus valid-malicious stay
        // from the leave branch).
        assert!(ch.prob(&from, &from) >= 0.5);
    }

    #[test]
    fn rule2_accepts_honest_join_at_merge_boundary() {
        let ch = chain(0.25, 0.5, 1);
        let from = ClusterState::new(1, 3, 0); // polluted, s = 1
        assert!((ch.prob(&from, &ClusterState::new(2, 3, 0)) - 0.5 * 0.75).abs() < 1e-12);
        assert!((ch.prob(&from, &ClusterState::new(2, 3, 1)) - 0.5 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn honest_spare_leave_probability() {
        let ch = chain(0.2, 0.5, 1);
        let from = ClusterState::new(4, 0, 1);
        // Two branches land on (3, 0, 1): the honest spare leave,
        // 1/2 · 4/11 · (1 − 1/4), and the honest core leave whose k = 1
        // maintenance promotes an honest spare, 1/2 · 7/11 · (3/4).
        let want = 0.5 * (4.0 / 11.0) * 0.75 + 0.5 * (7.0 / 11.0) * 0.75;
        assert!((ch.prob(&from, &ClusterState::new(3, 0, 1)) - want).abs() < 1e-12);
    }

    #[test]
    fn malicious_spare_needs_expiry() {
        // d = 1 would keep malicious spares forever; with d close to 1 the
        // departure mass shrinks accordingly.
        let ch = chain(0.2, 0.9, 1);
        let from = ClusterState::new(4, 0, 2);
        // P = 1/2 · 4/11 · (2/4) · (1 - 0.9²).
        let want = 0.5 * (4.0 / 11.0) * 0.5 * (1.0 - 0.81);
        assert!((ch.prob(&from, &ClusterState::new(3, 0, 1)) - want).abs() < 1e-12);
    }

    #[test]
    fn biased_maintenance_in_polluted_cluster() {
        let ch = chain(0.2, 0.5, 1);
        // Polluted with a malicious spare available: honest core leave
        // promotes it.
        let from = ClusterState::new(3, 3, 2);
        // P(honest core selected) = 1/2 · 7/10 · (1 - 3/7) = 1/2 · 4/10.
        let want = 0.5 * (7.0 / 10.0) * (4.0 / 7.0);
        assert!((ch.prob(&from, &ClusterState::new(2, 4, 1)) - want).abs() < 1e-12);
    }

    #[test]
    fn k1_maintenance_kernel_from_safe_state() {
        // For k = 1 no core member is demoted and exactly one pool member
        // is promoted: from (s, x, y) after an honest core leave the new
        // core has x (+1 iff a malicious spare was drawn, w.p. y/s).
        let ch = chain(0.2, 0.5, 1);
        let from = ClusterState::new(4, 1, 2);
        // Honest core leave weight: 1/2 · 7/11 · 6/7 = 3/11.
        let w = 0.5 * (7.0 / 11.0) * (6.0 / 7.0);
        // (3, 2, 1) is reached only by promoting a malicious spare
        // (w.p. 2/4).
        assert!((ch.prob(&from, &ClusterState::new(3, 2, 1)) - w * 0.5).abs() < 1e-12);
        // (3, 1, 2) is reached by promoting an honest spare OR by the
        // honest spare leave branch, 1/2 · 4/11 · (1 − 2/4).
        let want = w * 0.5 + 0.5 * (4.0 / 11.0) * 0.5;
        assert!((ch.prob(&from, &ClusterState::new(3, 1, 2)) - want).abs() < 1e-12);
    }

    #[test]
    fn expired_malicious_core_in_polluted_cluster_is_replaced_in_kind() {
        let ch = chain(0.2, 0.8, 1);
        // x = 4: after the expiry x - 1 = 3 > c, bias still applies.
        let from = ClusterState::new(3, 4, 1);
        // Expired malicious core member replaced by the malicious spare:
        // 1/2 · 7/10 · 4/7 · (1 − 0.8⁴) → (2, 4, 0); the expired malicious
        // spare branch, 1/2 · 3/10 · 1/3 · (1 − 0.8), lands there too.
        let want = 0.5 * (7.0 / 10.0) * (4.0 / 7.0) * (1.0 - 0.8f64.powi(4))
            + 0.5 * (3.0 / 10.0) * (1.0 / 3.0) * (1.0 - 0.8);
        assert!((ch.prob(&from, &ClusterState::new(2, 4, 0)) - want).abs() < 1e-12);
    }

    #[test]
    fn rule1_changes_k7_transitions_only() {
        // In the favourable state (s=3, x=1, y=3), Rule 1 triggers for
        // k = 7 (Relation 2 = 11/12 > 0.9): the valid-malicious-core mass
        // moves from the self-loop into maintenance outcomes.
        let with_rule1 = chain(0.2, 0.9, 7);
        let params_no_r1 = ModelParams::paper_defaults()
            .with_mu(0.2)
            .with_d(0.9)
            .with_k(7)
            .unwrap()
            .with_toggles(AdversaryToggles {
                rule1: false,
                ..AdversaryToggles::all()
            });
        let without_rule1 = ClusterChain::build(&params_no_r1);
        let from = ClusterState::new(3, 1, 3);
        let self_with = with_rule1.prob(&from, &from);
        let self_without = without_rule1.prob(&from, &from);
        assert!(
            self_with < self_without,
            "Rule 1 should drain the self-loop: {self_with} vs {self_without}"
        );
        // For k = 1 the two chains coincide.
        let a = chain(0.2, 0.9, 1);
        let params_b = ModelParams::paper_defaults()
            .with_mu(0.2)
            .with_d(0.9)
            .with_toggles(AdversaryToggles {
                rule1: false,
                ..AdversaryToggles::all()
            });
        let b = ClusterChain::build(&params_b);
        for (i, _) in a.space().iter() {
            for j in 0..a.space().len() {
                assert!((a.dtmc().prob(i, j) - b.dtmc().prob(i, j)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn nu_is_inert_for_k1() {
        // Relation (2) can never hold for k = 1, so the whole matrix must
        // be bit-identical across nu.
        let a = ClusterChain::build(
            &ModelParams::paper_defaults()
                .with_mu(0.3)
                .with_d(0.9)
                .with_nu(0.01),
        );
        let b = ClusterChain::build(
            &ModelParams::paper_defaults()
                .with_mu(0.3)
                .with_d(0.9)
                .with_nu(0.5),
        );
        assert_eq!(a.dtmc().matrix().as_slice(), b.dtmc().matrix().as_slice());
    }

    #[test]
    fn join_mass_is_exactly_half_everywhere() {
        // Every transient row must allocate exactly p_j = 1/2 to the join
        // event (however it resolves) and 1/2 to the leave event.
        let ch = chain(0.25, 0.9, 3);
        for (i, st) in ch.space().iter() {
            if !st.classify(ch.space().params()).is_transient() {
                continue;
            }
            // Join outcomes either grow s by one or self-loop; leave
            // outcomes shrink s by one or self-loop. Identify the join
            // share as mass on s+1 targets plus the join part of the
            // self-loop; easier: total mass on s-1 targets must be <= 1/2
            // and mass on s+1 targets <= 1/2.
            let mut up = 0.0;
            let mut down = 0.0;
            for j in 0..ch.space().len() {
                let p = ch.dtmc().prob(i, j);
                if p == 0.0 {
                    continue;
                }
                let tgt = ch.space().state(j);
                if tgt.s == st.s + 1 {
                    up += p;
                } else if tgt.s + 1 == st.s {
                    down += p;
                }
            }
            assert!(up <= 0.5 + 1e-12, "state {st}: up mass {up}");
            assert!(down <= 0.5 + 1e-12, "state {st}: down mass {down}");
        }
    }

    #[test]
    fn null_defense_chain_is_bit_identical() {
        use pollux_defense::NullDefense;
        for &(mu, d, k) in &[(0.0, 0.9, 1usize), (0.3, 0.9, 7), (0.2, 0.5, 3)] {
            let plain = chain(mu, d, k);
            let defended = ClusterChain::build_with_defense(
                &ModelParams::paper_defaults()
                    .with_mu(mu)
                    .with_d(d)
                    .with_k(k)
                    .unwrap(),
                &NullDefense::new(),
            );
            // Same sparsity structure and the same bits in every entry.
            assert_eq!(
                plain.sparse_dtmc().matrix().nnz(),
                defended.sparse_dtmc().matrix().nnz(),
                "mu={mu} d={d} k={k}"
            );
            for (i, _) in plain.space().iter() {
                let a: Vec<(usize, u64)> = plain
                    .sparse_dtmc()
                    .successors(i)
                    .map(|(j, p)| (j, p.to_bits()))
                    .collect();
                let b: Vec<(usize, u64)> = defended
                    .sparse_dtmc()
                    .successors(i)
                    .map(|(j, p)| (j, p.to_bits()))
                    .collect();
                assert_eq!(a, b, "row {i} differs at mu={mu} d={d} k={k}");
            }
        }
    }

    #[test]
    fn defended_chains_stay_stochastic() {
        use pollux_defense::{
            AdaptiveClusterSize, Defense, IncarnationRefresh, InducedChurn, NullDefense,
        };
        let params = ModelParams::paper_defaults()
            .with_mu(0.3)
            .with_d(0.9)
            .with_k(3)
            .unwrap();
        let defenses: Vec<Box<dyn Defense>> = vec![
            Box::new(NullDefense::new()),
            Box::new(InducedChurn::new(0.15).unwrap()),
            Box::new(IncarnationRefresh::new(5.0, 0.8).unwrap()),
            Box::new(AdaptiveClusterSize::new(0.5).unwrap()),
        ];
        for defense in &defenses {
            let ch = ClusterChain::build_with_defense(&params, defense.as_ref());
            assert!(
                ch.dtmc().matrix().is_stochastic(1e-9),
                "defense {}",
                defense.name()
            );
        }
    }

    #[test]
    fn induced_churn_drains_the_valid_malicious_self_loop() {
        use pollux_defense::InducedChurn;
        let params = ModelParams::paper_defaults().with_mu(0.3).with_d(0.9);
        let plain = ClusterChain::build(&params);
        let defended = ClusterChain::build_with_defense(&params, &InducedChurn::new(0.2).unwrap());
        // A fully captured core at d = 0.9 self-loops heavily without the
        // defense; induced churn moves 20% of that row's mass into forced
        // evictions.
        let from = ClusterState::new(3, 7, 0);
        assert!(defended.prob(&from, &from) < plain.prob(&from, &from) - 0.1);
        // Forced eviction of a malicious core member lands mass on x = 6
        // territory that the undefended chain cannot reach from here
        // (valid members never leave a polluted biased cluster at y = 0
        // except via expiry, which also exists — compare magnitudes).
        let evicted = ClusterState::new(2, 6, 0);
        assert!(defended.prob(&from, &evicted) > plain.prob(&from, &evicted));
    }

    #[test]
    fn refresh_defense_equals_reduced_survival_probability() {
        use pollux_defense::IncarnationRefresh;
        // d_eff = d (1 − q/period) — the defended chain at d must equal
        // the undefended chain at d_eff (the fold is exactly a d shift).
        let d = 0.9;
        let refresh = IncarnationRefresh::new(10.0, 0.5).unwrap();
        let defended = ClusterChain::build_with_defense(
            &ModelParams::paper_defaults().with_mu(0.3).with_d(d),
            &refresh,
        );
        let shifted = ClusterChain::build(
            &ModelParams::paper_defaults()
                .with_mu(0.3)
                .with_d(d * (1.0 - 0.05)),
        );
        for (i, _) in defended.space().iter() {
            for j in 0..defended.space().len() {
                let a = defended.dtmc().prob(i, j);
                let b = shifted.dtmc().prob(i, j);
                assert!((a - b).abs() < 1e-12, "({i}, {j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn adaptive_size_moves_join_mass_to_the_self_loop() {
        use pollux_defense::AdaptiveClusterSize;
        let params = ModelParams::paper_defaults().with_mu(0.2).with_d(0.8);
        let defense = AdaptiveClusterSize::new(0.5).unwrap(); // setpoint 4
        let defended = ClusterChain::build_with_defense(&params, &defense);
        let plain = ClusterChain::build(&params);
        // Safe state above the setpoint: s = 6 admits joins w.p. 1/3.
        let from = ClusterState::new(6, 0, 0);
        let up = ClusterState::new(7, 0, 0);
        let want = 0.5 * (1.0 / 3.0) * 0.8; // p_join · taper · (1 − μ)
        assert!((defended.prob(&from, &up) - want).abs() < 1e-12);
        // Below the setpoint nothing changes.
        let low = ClusterState::new(2, 0, 0);
        let low_up = ClusterState::new(3, 0, 0);
        assert_eq!(
            defended.prob(&low, &low_up).to_bits(),
            plain.prob(&low, &low_up).to_bits()
        );
    }

    /// FNV-1a over a chain's CSR, word by word: every entry's row,
    /// column and value bits, in storage order.
    fn csr_digest(chain: &ClusterChain) -> (usize, u64) {
        let m = chain.sparse_dtmc().matrix();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..m.rows() {
            for (j, v) in m.row_entries(i) {
                for word in [i as u64, j as u64, v.to_bits()] {
                    h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        (m.nnz(), h)
    }

    #[test]
    fn defended_chains_match_the_per_state_hook_builder() {
        // Pinned to the bits of the builder that called the defense
        // hooks inline at every state, before the chain was built from a
        // `DefenseFold`: the fold must reproduce every CSR value.
        use pollux_defense::DefenseSpec;
        let specs = [
            DefenseSpec::Null,
            DefenseSpec::InducedChurn { rate: 0.15 },
            DefenseSpec::IncarnationRefresh {
                period: 5.0,
                detection_prob: 0.8,
            },
            DefenseSpec::AdaptiveClusterSize {
                target_fraction: 0.5,
            },
        ];
        let paper = ModelParams::paper_defaults()
            .with_mu(0.3)
            .with_d(0.9)
            .with_k(3)
            .unwrap();
        let ablated = ModelParams::new(4, 10, 4)
            .unwrap()
            .with_mu(0.2)
            .with_d(0.8)
            .with_toggles(AdversaryToggles {
                rule2: false,
                ..AdversaryToggles::all()
            });
        let golden: [(usize, u64); 8] = [
            (1354, 0x6796_3c3c_4094_859c),
            (1354, 0x4002_611d_85df_c0e0),
            (1354, 0x5571_8ff3_4dd0_afc9),
            (1356, 0xe1b6_4a3b_cf78_cb28),
            (1969, 0x2036_7c27_8264_3c52),
            (1969, 0xd306_39b3_8ae0_7dcf),
            (1969, 0x2d15_4199_8276_c953),
            (1973, 0x9ba0_afa1_69ec_2ebc),
        ];
        let mut want = golden.iter();
        for params in [paper, ablated] {
            for spec in &specs {
                let defense = spec.build().unwrap();
                let chain = ClusterChain::build_with_defense(&params, defense.as_ref());
                assert_eq!(
                    csr_digest(&chain),
                    *want.next().unwrap(),
                    "{params} {}",
                    spec.label()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "fold made for C = 4")]
    fn a_fold_of_another_shape_is_refused() {
        let fold = DefenseFold::new(&ModelParams::new(4, 7, 1).unwrap(), &NullDefense::new());
        ClusterChain::build_with_fold(&ModelParams::paper_defaults(), &fold);
    }

    #[test]
    fn transitions_stay_in_omega_small_params() {
        // Exhaustive consistency check on a small parameter set.
        let params = ModelParams::new(4, 3, 2).unwrap();
        let params = params.with_mu(0.3).with_d(0.7);
        let ch = ClusterChain::build(&params);
        assert!(ch.dtmc().matrix().is_stochastic(1e-9));
        assert_eq!(ch.space().len(), params.state_count());
    }
}
