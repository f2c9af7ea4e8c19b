//! The defense as the chain builder reads it.
//!
//! [`ClusterChain`](crate::ClusterChain) reads a [`Defense`] at every
//! transient state `(s, x, y)` through three numbers: the induced-churn
//! weight `eta`, the effective join admission `g` (join-rate shaping
//! times the spare-setpoint taper, [`effective_join_admission`]) and the
//! refresh-eviction hazard `q` that turns `d` into `d · (1 − q)`
//! ([`effective_survival`](pollux_defense::effective_survival)'s
//! expression). A [`DefenseFold`] evaluates them once per state, in the
//! builder's order, and keeps their bits; the builder reads nothing
//! else of a defense. Two defenses with equal folds therefore build
//! bit-identical chains for the same parameters, which makes a fold an
//! exact cache key for anything computed from the chain.

use pollux_adversary::ClusterView;
use pollux_defense::{effective_join_admission, Defense};

use crate::ModelParams;

/// A defense's hook values at every transient state of one `(C, Δ)`,
/// stored as runs of states with equal bits.
///
/// States follow the chain's index order: `s` from 1 to `Δ − 1`, then
/// `x` from 0 to `C`, then `y` from 0 to `s`. The null, induced-churn
/// and refresh defenses give one run; the spare-setpoint taper gives at
/// most `Δ − t + 1`. Equality, hashing and ordering compare bits, so
/// `-0.0` and `0.0` are different folds.
///
/// ```
/// use pollux::{ClusterChain, DefenseFold, ModelParams};
/// use pollux_defense::{InducedChurn, NullDefense};
///
/// let params = ModelParams::paper_defaults().with_mu(0.2).with_d(0.9);
/// let open = DefenseFold::new(&params, &NullDefense::new());
/// assert_eq!(open.run_count(), 1);
/// assert_ne!(open, DefenseFold::new(&params, &InducedChurn::new(0.1).unwrap()));
/// // The fold is all the builder reads of the defense.
/// let chain = ClusterChain::build_with_fold(&params, &open);
/// assert_eq!(chain.space().len(), 288);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DefenseFold {
    core_size: usize,
    max_spare: usize,
    runs: Vec<Run>,
}

/// `len` consecutive transient states sharing the bits of `(eta, g, q)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Run {
    len: usize,
    bits: [u64; 3],
}

/// The hook values the builder reads at one transient state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StateHooks {
    /// [`Defense::induced_churn`].
    pub eta: f64,
    /// [`effective_join_admission`].
    pub admission: f64,
    /// [`Defense::refresh_eviction`].
    pub refresh: f64,
}

impl DefenseFold {
    /// Evaluates `defense`'s hooks at every transient state of
    /// `params`' `(C, Δ)`, in the chain's index order. Only `C` and `Δ`
    /// are read: the hooks see the cluster view, never μ, d, k, ν or
    /// the toggles, so one fold serves every chain of that shape.
    pub fn new<D: Defense + ?Sized>(params: &ModelParams, defense: &D) -> Self {
        let (core_size, max_spare) = (params.core_size(), params.max_spare());
        let mut runs: Vec<Run> = Vec::new();
        for s in 1..max_spare {
            for x in 0..=core_size {
                for y in 0..=s {
                    let view = ClusterView::new(core_size, max_spare, s, x, y)
                        .expect("transient states are consistent views");
                    let eta = defense.induced_churn(&view);
                    debug_assert!((0.0..1.0).contains(&eta), "induced_churn = {eta}");
                    let g = effective_join_admission(defense, &view);
                    let q = defense.refresh_eviction(&view);
                    debug_assert!(
                        (0.0..=1.0).contains(&q),
                        "refresh_eviction = {q} outside [0, 1]"
                    );
                    let bits = [eta.to_bits(), g.to_bits(), q.to_bits()];
                    match runs.last_mut() {
                        Some(run) if run.bits == bits => run.len += 1,
                        _ => runs.push(Run { len: 1, bits }),
                    }
                }
            }
        }
        DefenseFold {
            core_size,
            max_spare,
            runs,
        }
    }

    /// The core size `C` the fold was made for.
    pub(crate) fn core_size(&self) -> usize {
        self.core_size
    }

    /// The maximal spare size `Δ` the fold was made for.
    pub(crate) fn max_spare(&self) -> usize {
        self.max_spare
    }

    /// Number of runs of equal hook values (the fold's memory is
    /// proportional to it).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The hook values of every transient state, in the chain's index
    /// order.
    pub(crate) fn states(&self) -> impl Iterator<Item = StateHooks> + '_ {
        self.runs.iter().flat_map(|run| {
            let [eta, admission, refresh] = run.bits.map(f64::from_bits);
            std::iter::repeat_n(
                StateHooks {
                    eta,
                    admission,
                    refresh,
                },
                run.len,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelSpace;
    use pollux_defense::{AdaptiveClusterSize, IncarnationRefresh, InducedChurn, NullDefense};

    /// A defense whose induced churn encodes the state it is asked about.
    struct Probe;

    impl Defense for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn induced_churn(&self, view: &ClusterView) -> f64 {
            let (s, x, y) = (
                view.spare_size(),
                view.malicious_core(),
                view.malicious_spare(),
            );
            (1 + y + 32 * x + 1024 * s) as f64 * 1e-6
        }
    }

    #[test]
    fn states_follow_the_chain_index_order() {
        let params = ModelParams::new(4, 6, 2).unwrap();
        let fold = DefenseFold::new(&params, &Probe);
        let space = ModelSpace::new(&params);
        let transient: Vec<_> = space
            .iter()
            .filter(|(_, st)| st.classify(&params).is_transient())
            .map(|(_, st)| *st)
            .collect();
        let hooks: Vec<StateHooks> = fold.states().collect();
        assert_eq!(hooks.len(), transient.len());
        assert_eq!(fold.run_count(), transient.len());
        for (st, h) in transient.iter().zip(&hooks) {
            let view = ClusterView::new(4, 6, st.s, st.x, st.y).unwrap();
            assert_eq!(
                h.eta.to_bits(),
                Probe.induced_churn(&view).to_bits(),
                "{st}"
            );
            assert_eq!(h.admission, 1.0);
            assert_eq!(h.refresh, 0.0);
        }
    }

    #[test]
    fn stateless_defenses_fold_to_one_run() {
        let params = ModelParams::paper_defaults();
        assert_eq!(
            DefenseFold::new(&params, &NullDefense::new()).run_count(),
            1
        );
        let churn = InducedChurn::new(0.1).unwrap();
        assert_eq!(DefenseFold::new(&params, &churn).run_count(), 1);
        let refresh = IncarnationRefresh::new(10.0, 0.8).unwrap();
        assert_eq!(DefenseFold::new(&params, &refresh).run_count(), 1);
    }

    #[test]
    fn the_setpoint_taper_folds_to_a_few_runs() {
        // Δ = 20, setpoint t = 10: one run per spare size above t, plus
        // the untouched prefix.
        let params = ModelParams::new(7, 20, 1).unwrap();
        let fold = DefenseFold::new(&params, &AdaptiveClusterSize::new(0.5).unwrap());
        assert_eq!(fold.run_count(), 10);
        let expanded: Vec<StateHooks> = fold.states().collect();
        assert_eq!(expanded.len(), 8 * (2..=20).sum::<usize>());
    }

    #[test]
    fn folds_of_other_shapes_differ() {
        let null = NullDefense::new();
        let a = DefenseFold::new(&ModelParams::new(4, 7, 1).unwrap(), &null);
        let b = DefenseFold::new(&ModelParams::new(7, 7, 1).unwrap(), &null);
        assert_ne!(a, b);
        assert_eq!((a.core_size(), a.max_spare()), (4, 7));
    }
}
