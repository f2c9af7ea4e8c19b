//! Planet-scale what-if scenarios answered from the fluid limit.
//!
//! The exact chain tops out near Δ≈156 and the sharded DES near 10⁷
//! nodes; above that, the fluid limit is the only evaluation path —
//! and the natural one, since its O(1/M) finite-size error *shrinks*
//! with system scale. A cold what-if cell (10⁸–10⁹ nodes) costs two
//! chain builds, a sparse renewal solve and a fixed number of
//! power-iteration steps: well under a millisecond, which
//! `BENCH_meanfield.json` records as `cell_s`.
//!
//! # The memo
//!
//! A serving workload asks the same questions again and again, often
//! for another node count only. Everything of an answer but the fields
//! derived from the node count is a pure function of what the
//! computation reads: every [`ModelParams`] field, the event rate, the
//! initial condition and the defense as the chain builder reads it, its
//! [`DefenseFold`]. A bounded, process-wide memo keeps that part of
//! every successful answer under exactly that key: the bits of every
//! number, the initial condition's tag and state, and an interned fold.
//! A repeat then costs a fold and a lookup, microseconds
//! (`warm_cell_s` in `BENCH_meanfield.json`), and returns the bits a
//! fresh computation would.
//!
//! * Errors are never stored; every invalid input fails in the checks
//!   and the order of a fresh computation.
//! * `Custom` initial conditions bypass the memo, as do sizes or states
//!   over 16 bits and folds of more than 1024 runs.
//! * The memo holds at most 4096 answers and 1024 interned fold runs,
//!   about 0.7 MiB when full. When either is full it is cleared: a hit
//!   never changes a result, so eviction costs speed only.
//! * One mutex guards it, and computations run outside the lock: two
//!   callers missing the same key both compute it and store equal bits.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::error::MeanFieldError;
use crate::fluid::FluidModel;
use pollux::{DefenseFold, InitialCondition, ModelParams};
use pollux_defense::{Defense, NullDefense};
use pollux_linalg::SolverOptions;

/// Fixed power-iteration budget for the spectral-gap estimate: with
/// the Aitken-accelerated tail this lands within a few percent of the
/// exact abscissa on paper-scale chains, while keeping the per-cell
/// cost inside the sub-millisecond budget and deterministic.
const GAP_ITERATIONS: u32 = 96;

/// Answers the memo holds before it is cleared (a full memo, folds
/// included, measured about 0.7 MiB resident).
const CAPACITY: usize = 4096;

/// Fold runs (32 bytes each) the memo interns before it is cleared; a
/// fold with more runs is never stored.
const FOLD_RUNS: usize = 1024;

static MEMO: Mutex<Memo> = Mutex::new(Memo::new(CAPACITY, FOLD_RUNS));

/// Answer to one planet-scale what-if cell.
#[derive(Debug, Clone)]
pub struct WhatIfAnswer {
    /// Fluid cluster count `M = nodes / E[cluster size]`.
    pub n_clusters: f64,
    /// Expected stationary cluster size `Σ π_i (C + s_i)`.
    pub mean_cluster_size: f64,
    /// Stationary fraction of clusters in transient-safe states.
    pub safe_fraction: f64,
    /// Stationary fraction of clusters in transient-polluted states.
    pub polluted_fraction: f64,
    /// Stationary fraction of *nodes* residing in polluted clusters
    /// (size-weighted, which is what an end user samples).
    pub polluted_node_fraction: f64,
    /// `polluted_node_fraction · nodes`.
    pub expected_polluted_nodes: f64,
    /// Lower bound on the linearized decay rate at the equilibrium
    /// (per time unit; see `FluidModel::relaxation_gap`).
    pub spectral_gap: f64,
    /// Time for perturbations to decay by 100× at that gap.
    pub settling_time: f64,
    /// The documented O(1/M) finite-size band: `1 / n_clusters`.
    /// Finite-system fractions are expected within ~this of the fluid
    /// prediction (cross-validated by the DES pair at small M).
    pub finite_size_band: f64,
}

/// Answers a planet-scale what-if with no defense deployed.
///
/// # Errors
///
/// As [`planet_scale_what_if_with_defense`].
pub fn planet_scale_what_if(
    params: &ModelParams,
    initial: &InitialCondition,
    nodes: f64,
    events_per_cluster: f64,
) -> Result<WhatIfAnswer, MeanFieldError> {
    planet_scale_what_if_with_defense(
        params,
        &NullDefense::new(),
        initial,
        nodes,
        events_per_cluster,
    )
}

/// Answers "N nodes, this parameterization, this defense: how much of
/// the system is polluted at equilibrium, and how fast does it settle?"
///
/// Routing: the renewal solve is forced onto the sparse iterative path
/// (the dense LU would dominate the sub-millisecond budget) and the
/// stability check uses the capped power-iteration estimate rather
/// than a dense spectrum.
///
/// Memoized: the node-independent fields of every successful answer are
/// kept under the bits of `params`, `events_per_cluster`, `initial` and
/// the defense's [`DefenseFold`], and a repeat returns them (bit for bit
/// what a fresh computation gives) with the node-dependent fields
/// derived again. `Custom` initial conditions are always computed; see
/// the [module docs](self) for the bound.
///
/// # Errors
///
/// * [`MeanFieldError::InvalidConfig`] when `nodes` is not enough for
///   one core (`< C`), or `events_per_cluster` is not positive.
/// * Propagated solver failures.
pub fn planet_scale_what_if_with_defense<D: Defense + ?Sized>(
    params: &ModelParams,
    defense: &D,
    initial: &InitialCondition,
    nodes: f64,
    events_per_cluster: f64,
) -> Result<WhatIfAnswer, MeanFieldError> {
    let core = params.core_size() as f64;
    if !nodes.is_finite() || nodes < core {
        return Err(MeanFieldError::InvalidConfig(format!(
            "node count {nodes} cannot host a single {core}-node core"
        )));
    }

    let fold = DefenseFold::new(params, defense);
    let key = key(params, initial, events_per_cluster);
    let hit = key.and_then(|k| memo().get(&k, &fold));
    let cells = match hit {
        Some(cells) => cells,
        None => {
            let cells = solve(params, &fold, initial, events_per_cluster)?;
            if let Some(k) = key {
                memo().insert(k, fold, cells);
            }
            cells
        }
    };
    Ok(cells.answer(nodes))
}

/// The node-independent fields of a what-if, computed from scratch.
fn solve(
    params: &ModelParams,
    fold: &DefenseFold,
    initial: &InitialCondition,
    events_per_cluster: f64,
) -> Result<Cells, MeanFieldError> {
    let model = FluidModel::build_with_fold(params, fold, initial)?
        .with_rate(events_per_cluster)?
        .with_solver_options(SolverOptions::force_sparse().with_jacobi(true));
    let eq = model.open_equilibrium()?;

    let core = params.core_size() as f64;
    let mut mean_cluster_size = 0.0;
    let mut polluted_node_mass = 0.0;
    for (i, state) in model.space().iter() {
        let size = core + state.s as f64;
        mean_cluster_size += eq.pi[i] * size;
        if state.classify(params).is_polluted() {
            polluted_node_mass += eq.pi[i] * size;
        }
    }

    let spectral_gap = model.relaxation_gap(&eq, GAP_ITERATIONS);
    let settling_time = if spectral_gap > 0.0 {
        100f64.ln() / spectral_gap
    } else {
        f64::INFINITY
    };

    Ok(Cells {
        mean_cluster_size,
        safe_fraction: eq.safe_fraction,
        polluted_fraction: eq.polluted_fraction,
        polluted_node_fraction: polluted_node_mass / mean_cluster_size,
        spectral_gap,
        settling_time,
    })
}

/// The fields of a [`WhatIfAnswer`] that do not depend on the node count.
#[derive(Debug, Clone, Copy)]
struct Cells {
    mean_cluster_size: f64,
    safe_fraction: f64,
    polluted_fraction: f64,
    polluted_node_fraction: f64,
    spectral_gap: f64,
    settling_time: f64,
}

impl Cells {
    /// The whole answer for `nodes` nodes.
    fn answer(self, nodes: f64) -> WhatIfAnswer {
        let n_clusters = nodes / self.mean_cluster_size;
        WhatIfAnswer {
            n_clusters,
            mean_cluster_size: self.mean_cluster_size,
            safe_fraction: self.safe_fraction,
            polluted_fraction: self.polluted_fraction,
            polluted_node_fraction: self.polluted_node_fraction,
            expected_polluted_nodes: self.polluted_node_fraction * nodes,
            spectral_gap: self.spectral_gap,
            settling_time: self.settling_time,
            finite_size_band: 1.0 / n_clusters,
        }
    }
}

/// A what-if's inputs other than the defense and the node count, as
/// bits: `C | Δ << 16 | k << 32 | toggles << 48 | initial tag << 51`,
/// the initial state's `s | x << 16 | y << 32` (0 for δ and β), then μ,
/// d, ν and the event rate.
type Key = [u64; 6];

/// The key of a what-if, or `None` when it bypasses the memo: a
/// `Custom` initial condition, or a size or state over 16 bits.
fn key(params: &ModelParams, initial: &InitialCondition, rate: f64) -> Option<Key> {
    let small = |v: usize| u16::try_from(v).ok().map(u64::from);
    let (tag, state) = match initial {
        InitialCondition::Delta => (0, 0),
        InitialCondition::Beta => (1, 0),
        InitialCondition::State(st) => (
            2,
            small(st.s)? | (small(st.x)? << 16) | (small(st.y)? << 32),
        ),
        InitialCondition::Custom(_) => return None,
    };
    let t = params.toggles();
    let toggles = u64::from(t.rule1) | (u64::from(t.rule2) << 1) | (u64::from(t.bias) << 2);
    Some([
        small(params.core_size())?
            | (small(params.max_spare())? << 16)
            | (small(params.k())? << 32)
            | (toggles << 48)
            | (tag << 51),
        state,
        params.mu().to_bits(),
        params.d().to_bits(),
        params.nu().to_bits(),
        rate.to_bits(),
    ])
}

/// Successful what-if answers keyed by their inputs, folds interned.
#[derive(Debug)]
struct Memo {
    /// Answers held before the memo is cleared.
    capacity: usize,
    /// Fold runs interned before the memo is cleared; a fold with more
    /// is never stored.
    run_budget: usize,
    /// Every fold an answer refers to, with its id.
    folds: BTreeMap<DefenseFold, u32>,
    /// Runs held by `folds`.
    fold_runs: usize,
    answers: BTreeMap<(Key, u32), Cells>,
}

impl Memo {
    const fn new(capacity: usize, run_budget: usize) -> Self {
        Memo {
            capacity,
            run_budget,
            folds: BTreeMap::new(),
            fold_runs: 0,
            answers: BTreeMap::new(),
        }
    }

    fn get(&self, key: &Key, fold: &DefenseFold) -> Option<Cells> {
        let id = *self.folds.get(fold)?;
        self.answers.get(&(*key, id)).copied()
    }

    /// Stores `cells`, clearing the memo first when it is full.
    fn insert(&mut self, key: Key, fold: DefenseFold, cells: Cells) {
        let runs = fold.run_count();
        if runs > self.run_budget {
            return;
        }
        let new_fold = !self.folds.contains_key(&fold);
        if self.answers.len() >= self.capacity
            || (new_fold && self.fold_runs + runs > self.run_budget)
        {
            self.answers.clear();
            self.folds.clear();
            self.fold_runs = 0;
        }
        // Ids stay dense, as folds are only ever dropped all at once, and
        // number at most `run_budget`, as every fold holds a run or more.
        let next = self.folds.len() as u32;
        let id = *self.folds.entry(fold).or_insert_with(|| {
            self.fold_runs += runs;
            next
        });
        self.answers.insert((key, id), cells);
    }
}

/// The process-wide memo. Every step of an update leaves it valid
/// (answers are cleared before the folds they refer to, and no caller
/// code runs under the lock), so a poisoned lock is taken as is.
fn memo() -> MutexGuard<'static, Memo> {
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux::ClusterState;
    use pollux_defense::{AdaptiveClusterSize, DefenseSpec, InducedChurn};

    // Tests sharing the process-wide memo use event rates no other test
    // uses, so a first call is a miss whatever order the tests run in.

    fn params() -> ModelParams {
        ModelParams::paper_defaults().with_mu(0.2).with_d(0.9)
    }

    fn specs() -> [DefenseSpec; 4] {
        [
            DefenseSpec::Null,
            DefenseSpec::InducedChurn { rate: 0.1 },
            DefenseSpec::IncarnationRefresh {
                period: 10.0,
                detection_prob: 0.8,
            },
            DefenseSpec::AdaptiveClusterSize {
                target_fraction: 0.5,
            },
        ]
    }

    fn bits(a: &WhatIfAnswer) -> [u64; 9] {
        [
            a.n_clusters,
            a.mean_cluster_size,
            a.safe_fraction,
            a.polluted_fraction,
            a.polluted_node_fraction,
            a.expected_polluted_nodes,
            a.spectral_gap,
            a.settling_time,
            a.finite_size_band,
        ]
        .map(f64::to_bits)
    }

    /// The answer composed from the public `FluidModel` calls, with no
    /// memo: the uncached path an outside caller (or a tracer) takes.
    fn direct(
        params: &ModelParams,
        defense: &dyn Defense,
        initial: &InitialCondition,
        nodes: f64,
        rate: f64,
    ) -> [u64; 9] {
        let model = FluidModel::build_with_defense(params, defense, initial)
            .unwrap()
            .with_rate(rate)
            .unwrap()
            .with_solver_options(SolverOptions::force_sparse().with_jacobi(true));
        let eq = model.open_equilibrium().unwrap();
        let core = params.core_size() as f64;
        let mut mean_cluster_size = 0.0;
        let mut polluted_node_mass = 0.0;
        for (i, state) in model.space().iter() {
            let size = core + state.s as f64;
            mean_cluster_size += eq.pi[i] * size;
            if state.classify(params).is_polluted() {
                polluted_node_mass += eq.pi[i] * size;
            }
        }
        let polluted_node_fraction = polluted_node_mass / mean_cluster_size;
        let n_clusters = nodes / mean_cluster_size;
        let spectral_gap = model.relaxation_gap(&eq, GAP_ITERATIONS);
        let settling_time = if spectral_gap > 0.0 {
            100f64.ln() / spectral_gap
        } else {
            f64::INFINITY
        };
        [
            n_clusters,
            mean_cluster_size,
            eq.safe_fraction,
            eq.polluted_fraction,
            polluted_node_fraction,
            polluted_node_fraction * nodes,
            spectral_gap,
            settling_time,
            1.0 / n_clusters,
        ]
        .map(f64::to_bits)
    }

    /// Whether the process-wide memo holds this what-if.
    fn stored(
        params: &ModelParams,
        defense: &dyn Defense,
        initial: &InitialCondition,
        rate: f64,
    ) -> bool {
        let key = key(params, initial, rate).expect("memoizable inputs");
        memo()
            .get(&key, &DefenseFold::new(params, defense))
            .is_some()
    }

    fn cells() -> Cells {
        Cells {
            mean_cluster_size: 10.0,
            safe_fraction: 0.9,
            polluted_fraction: 0.1,
            polluted_node_fraction: 0.1,
            spectral_gap: 0.05,
            settling_time: 92.1,
        }
    }

    /// A defense with every hook neutral, under another name.
    struct Inert;

    impl Defense for Inert {
        fn name(&self) -> &'static str {
            "inert"
        }
    }

    #[test]
    fn misses_hits_and_the_uncached_composition_agree_bit_for_bit() {
        let params = ModelParams::new(4, 7, 2)
            .unwrap()
            .with_mu(0.25)
            .with_d(0.85);
        let initials = [
            InitialCondition::Delta,
            InitialCondition::Beta,
            InitialCondition::State(ClusterState::new(2, 1, 1)),
        ];
        for spec in specs() {
            let defense = spec.build().unwrap();
            let defense = defense.as_ref();
            for initial in &initials {
                for rate in [0.75, 1.5] {
                    let what = format!("{} {} rate {rate}", spec.label(), initial.label());
                    assert!(!stored(&params, defense, initial, rate), "{what}");
                    for nodes in [1e6, 1e9] {
                        let first = planet_scale_what_if_with_defense(
                            &params, defense, initial, nodes, rate,
                        )
                        .unwrap();
                        assert!(stored(&params, defense, initial, rate), "{what}");
                        let second = planet_scale_what_if_with_defense(
                            &params, defense, initial, nodes, rate,
                        )
                        .unwrap();
                        let want = direct(&params, defense, initial, nodes, rate);
                        assert_eq!(bits(&first), want, "{what} nodes {nodes}");
                        assert_eq!(bits(&second), want, "{what} nodes {nodes}");
                    }
                }
            }
        }
    }

    #[test]
    fn defenses_sharing_a_name_keep_their_own_answers() {
        let (p, rate) = (params(), 1.125);
        let low = InducedChurn::new(0.1).unwrap();
        let high = InducedChurn::new(0.2).unwrap();
        assert_eq!(low.name(), high.name());
        let call = |d: &dyn Defense| {
            bits(
                &planet_scale_what_if_with_defense(&p, d, &InitialCondition::Delta, 1e9, rate)
                    .unwrap(),
            )
        };
        let (first_low, first_high) = (call(&low), call(&high));
        assert_ne!(first_low, first_high);
        assert!(stored(&p, &low, &InitialCondition::Delta, rate));
        assert!(stored(&p, &high, &InitialCondition::Delta, rate));
        assert_eq!(call(&low), first_low);
        assert_eq!(call(&high), first_high);
        assert_eq!(
            first_high,
            direct(&p, &high, &InitialCondition::Delta, 1e9, rate)
        );
    }

    #[test]
    fn defenses_with_equal_folds_share_one_entry() {
        let (p, rate) = (params(), 1.375);
        assert_eq!(
            DefenseFold::new(&p, &NullDefense::new()),
            DefenseFold::new(&p, &Inert)
        );
        let open = planet_scale_what_if(&p, &InitialCondition::Delta, 1e8, rate).unwrap();
        // The inert defense finds the entry the null defense stored.
        assert!(stored(&p, &Inert, &InitialCondition::Delta, rate));
        let inert =
            planet_scale_what_if_with_defense(&p, &Inert, &InitialCondition::Delta, 1e8, rate)
                .unwrap();
        assert_eq!(bits(&inert), bits(&open));
    }

    #[test]
    fn errors_are_not_stored() {
        let (p, rate) = (params(), 1.875);
        let null = NullDefense::new();
        // The node check comes first and stores nothing.
        assert!(planet_scale_what_if(&p, &InitialCondition::Delta, 1.0, rate).is_err());
        assert!(!stored(&p, &null, &InitialCondition::Delta, rate));
        // A state outside Ω fails in the model build, every time.
        let outside = InitialCondition::State(ClusterState::new(3, 9, 1));
        for _ in 0..2 {
            assert!(planet_scale_what_if(&p, &outside, 1e9, rate).is_err());
        }
        assert!(!stored(&p, &null, &outside, rate));
        // So does a non-positive rate.
        for _ in 0..2 {
            assert!(matches!(
                planet_scale_what_if(&p, &InitialCondition::Delta, 1e9, 0.0),
                Err(MeanFieldError::InvalidConfig(_))
            ));
        }
        assert!(!stored(&p, &null, &InitialCondition::Delta, 0.0));
    }

    #[test]
    fn custom_initial_conditions_bypass_the_memo() {
        let (p, rate) = (params(), 2.125);
        let alpha = InitialCondition::Delta
            .distribution(&pollux::ModelSpace::new(&p))
            .unwrap();
        let custom = InitialCondition::Custom(alpha);
        assert!(key(&p, &custom, rate).is_none());
        let answer = planet_scale_what_if(&p, &custom, 1e9, rate).unwrap();
        assert_eq!(
            bits(&answer),
            direct(&p, &NullDefense::new(), &custom, 1e9, rate)
        );
        // The same distribution named δ is computed afresh: same bits.
        assert!(!stored(
            &p,
            &NullDefense::new(),
            &InitialCondition::Delta,
            rate
        ));
        let delta = planet_scale_what_if(&p, &InitialCondition::Delta, 1e9, rate).unwrap();
        assert_eq!(bits(&delta), bits(&answer));
    }

    #[test]
    fn the_memo_never_exceeds_its_bounds() {
        let shape = ModelParams::new(1, 2, 1).unwrap();
        let null = DefenseFold::new(&shape, &NullDefense::new());
        let key_of = |i: u64| [0, 0, i, 0, 0, 0];

        let mut memo = Memo::new(CAPACITY, FOLD_RUNS);
        for i in 0..CAPACITY as u64 + 10 {
            memo.insert(key_of(i), null.clone(), cells());
            assert!(memo.answers.len() <= CAPACITY);
            assert!(memo.get(&key_of(i), &null).is_some());
        }
        // The insert past capacity cleared the memo.
        assert_eq!(memo.answers.len(), 10);
        assert!(memo.get(&key_of(0), &null).is_none());

        // Distinct one-run folds fill the run budget, then clear it.
        let mut memo = Memo::new(CAPACITY, FOLD_RUNS);
        for i in 0..FOLD_RUNS + 10 {
            let churn = InducedChurn::new(i as f64 * 1e-6).unwrap();
            let fold = DefenseFold::new(&shape, &churn);
            memo.insert(key_of(0), fold.clone(), cells());
            assert!(memo.fold_runs <= FOLD_RUNS);
            assert!(memo.folds.len() <= FOLD_RUNS);
            assert!(memo.get(&key_of(0), &fold).is_some());
        }
        assert_eq!(memo.folds.len(), 10);
        assert_eq!(memo.answers.len(), 10);

        // A fold over the run budget is never stored, and a fold that
        // does not fit beside the interned ones clears them.
        let taper = DefenseFold::new(
            &ModelParams::new(7, 20, 1).unwrap(),
            &AdaptiveClusterSize::new(0.5).unwrap(),
        );
        assert_eq!(taper.run_count(), 10);
        let mut memo = Memo::new(CAPACITY, 9);
        memo.insert(key_of(1), taper.clone(), cells());
        assert!(memo.get(&key_of(1), &taper).is_none());
        assert!(memo.answers.is_empty() && memo.folds.is_empty());
        let mut memo = Memo::new(CAPACITY, 10);
        memo.insert(key_of(2), null.clone(), cells());
        memo.insert(key_of(1), taper.clone(), cells());
        assert_eq!(memo.fold_runs, 10);
        assert!(memo.get(&key_of(2), &null).is_none());
        assert!(memo.get(&key_of(1), &taper).is_some());
    }

    #[test]
    fn concurrent_clients_read_identical_bits() {
        let rate = 2.25;
        let mut queries = Vec::new();
        for mu in [0.1, 0.3] {
            for spec in specs() {
                for nodes in [1e6, 1e9] {
                    queries.push((params().with_mu(mu), spec.clone(), nodes));
                }
            }
        }
        let start = std::sync::Barrier::new(4);
        let replay = || {
            start.wait();
            queries
                .iter()
                .map(|(p, spec, nodes)| {
                    let defense = spec.build().unwrap();
                    let answer = planet_scale_what_if_with_defense(
                        p,
                        defense.as_ref(),
                        &InitialCondition::Delta,
                        *nodes,
                        rate,
                    )
                    .unwrap();
                    bits(&answer)
                })
                .collect::<Vec<_>>()
        };
        let runs: Vec<Vec<[u64; 9]>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..4).map(|_| scope.spawn(replay)).collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for (run, (p, spec, nodes)) in runs[0].iter().zip(&queries) {
            let defense = spec.build().unwrap();
            assert_eq!(
                *run,
                direct(p, defense.as_ref(), &InitialCondition::Delta, *nodes, rate)
            );
        }
        for other in &runs[1..] {
            assert_eq!(other, &runs[0]);
        }
    }

    #[test]
    fn a_billion_node_cell_is_internally_consistent() {
        let nodes = 1e9;
        let ans = planet_scale_what_if(&params(), &InitialCondition::Delta, nodes, 1.0).unwrap();
        assert!(ans.mean_cluster_size >= params().core_size() as f64);
        assert!(ans.mean_cluster_size <= (params().core_size() + params().max_spare()) as f64);
        assert!((ans.n_clusters * ans.mean_cluster_size - nodes).abs() < 1.0);
        assert!(ans.polluted_node_fraction >= 0.0 && ans.polluted_node_fraction <= 1.0);
        assert!((ans.expected_polluted_nodes - ans.polluted_node_fraction * nodes).abs() < 1e-3);
        assert!(ans.spectral_gap > 0.0);
        assert!(ans.settling_time.is_finite());
        assert!(ans.finite_size_band > 0.0 && ans.finite_size_band < 1e-7);
    }

    #[test]
    fn defense_reduces_the_polluted_node_count() {
        let nodes = 1e8;
        let open = planet_scale_what_if(&params(), &InitialCondition::Delta, nodes, 1.0).unwrap();
        let defended = planet_scale_what_if_with_defense(
            &params(),
            &InducedChurn::new(0.2).unwrap(),
            &InitialCondition::Delta,
            nodes,
            1.0,
        )
        .unwrap();
        assert!(
            defended.expected_polluted_nodes < open.expected_polluted_nodes,
            "defense did not help: {} vs {}",
            defended.expected_polluted_nodes,
            open.expected_polluted_nodes
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(planet_scale_what_if(&params(), &InitialCondition::Delta, 1.0, 1.0).is_err());
        assert!(planet_scale_what_if(&params(), &InitialCondition::Delta, 1e9, 0.0).is_err());
    }
}
