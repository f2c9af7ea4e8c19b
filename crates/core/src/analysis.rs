use std::sync::{Arc, OnceLock};

use pollux_linalg::SolverOptions;
use pollux_markov::{
    AbsorbingChain, MarkovError, PartitionSolvers, SojournAnalysis, SojournPartition,
};

use crate::{ClusterChain, InitialCondition, ModelParams, StateClass};

/// Which analytical pipeline a [`ClusterAnalysis`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMode {
    /// The dense reference pipeline (O(n²) memory, O(n³) solves): dense
    /// censored matrices and a full structural classification, kept as
    /// the independent oracle the sparse pipeline is checked against.
    Dense,
    /// The default: the factor-once sparse pipeline (O(nnz) memory and
    /// per-sweep cost) at every state count. Its solvers still LU-factor
    /// blocks under the solver crossover, so small chains get direct
    /// solves.
    #[default]
    Sparse,
}

/// Absorption probabilities split over the Figure-1 classes
/// (Relation 9 evaluated per class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsorptionSplit {
    /// `p(AmS)` — the cluster eventually merges while safe.
    pub safe_merge: f64,
    /// `p(AℓS)` — the cluster eventually splits while safe.
    pub safe_split: f64,
    /// `p(AmP)` — the cluster eventually merges while polluted (the
    /// pollution-propagation channel).
    pub polluted_merge: f64,
    /// `p(AℓP)` — always 0 under Rule 2; reported for the ablations.
    pub polluted_split: f64,
}

impl AbsorptionSplit {
    /// Total mass (1 up to numeric error, given a transient start).
    pub fn total(&self) -> f64 {
        self.safe_merge + self.safe_split + self.polluted_merge + self.polluted_split
    }
}

/// Cluster-level analysis: every metric of Section VII for one parameter
/// set and one initial condition.
///
/// # Example
///
/// ```
/// use pollux::{ClusterAnalysis, InitialCondition, ModelParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // μ = 0 closed form: E(T_S) + E(T_P) = s₀ (Δ − s₀) = 12, and the
/// // absorption split is 4/7 merge vs 3/7 split.
/// let analysis = ClusterAnalysis::new(
///     &ModelParams::paper_defaults(),
///     InitialCondition::Delta,
/// )?;
/// assert!((analysis.expected_safe_events()? - 12.0).abs() < 1e-9);
/// let split = analysis.absorption_split()?;
/// assert!((split.safe_merge - 4.0 / 7.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ClusterAnalysis {
    chain: Arc<ClusterChain>,
    alpha: Vec<f64>,
    sojourn: SojournAnalysis,
    absorbing: AbsorptionEngine,
}

/// The absorption-side engine behind a [`ClusterAnalysis`].
#[derive(Debug, Clone)]
enum AbsorptionEngine {
    /// Full structural classification + per-closed-class solves.
    Dense(Box<AbsorbingChain>),
    /// Figure-1-bucket solves on the CSR transient block (the sparse
    /// pipeline needs 4 solves, not one per absorbing state).
    Sparse(SparseAbsorption),
}

/// Absorption metrics computed directly from the Figure-1 partition on
/// the sparse representation: `ModelSpace` already knows the absorbing
/// sets, so no Tarjan pass and no per-singleton-class solve is needed.
/// Each metric is solved on its first read.
#[derive(Debug, Clone)]
struct SparseAbsorption {
    /// The pipeline's shared solver bundle (sojourn, absorption and
    /// hitting all run on it, and so do the analyses of other initial
    /// conditions made by [`ClusterAnalysis::with_initial`]).
    solvers: PartitionSolvers,
    /// `α N 1` — expected events to absorption.
    expected_steps: OnceLock<Result<f64, MarkovError>>,
    /// Relation 9 aggregated per Figure-1 class.
    split: OnceLock<Result<AbsorptionSplit, MarkovError>>,
}

impl SparseAbsorption {
    fn new(solvers: PartitionSolvers) -> Self {
        SparseAbsorption {
            solvers,
            expected_steps: OnceLock::new(),
            split: OnceLock::new(),
        }
    }

    /// `α N 1`, on the partition's **shared** `T`-block solver.
    fn expected_steps(&self, alpha: &[f64]) -> Result<f64, MarkovError> {
        self.expected_steps
            .get_or_init(|| {
                let transient = self.solvers.t_indices();
                let steps = self.solvers.solver_t().solve(&vec![1.0; transient.len()])?;
                Ok(transient
                    .iter()
                    .enumerate()
                    .map(|(t, &g)| alpha[g] * steps[t])
                    .sum())
            })
            .clone()
    }

    /// Relation 9 per Figure-1 class, on the same `T`-block solver.
    fn split(&self, chain: &ClusterChain, alpha: &[f64]) -> Result<AbsorptionSplit, MarkovError> {
        self.split
            .get_or_init(|| {
                let space = chain.space();
                let transient = self.solvers.t_indices();
                // bucket[j] = Figure-1 class of absorbing state j (or MAX).
                const BUCKETS: usize = 4;
                let mut bucket = vec![usize::MAX; space.len()];
                let sets = [
                    space.safe_merge(),
                    space.safe_split(),
                    space.polluted_merge(),
                    space.polluted_split(),
                ];
                for (b, set) in sets.iter().enumerate() {
                    for &j in *set {
                        bucket[j] = b;
                    }
                }
                // r[b][t] = P(transient[t] → bucket b in one step), one pass.
                let mut rhs = vec![vec![0.0; transient.len()]; BUCKETS];
                for (t, &g) in transient.iter().enumerate() {
                    for (j, v) in chain.sparse_dtmc().successors(g) {
                        if bucket[j] != usize::MAX {
                            rhs[bucket[j]][t] += v;
                        }
                    }
                }
                let sols = self.solvers.solver_t().solve_many(&rhs)?;
                let mut masses = [0.0f64; BUCKETS];
                for (b, sol) in masses.iter_mut().zip(sols.iter()) {
                    *b = transient
                        .iter()
                        .enumerate()
                        .map(|(t, &g)| alpha[g] * sol[t])
                        .sum();
                }
                // Initial mass already sitting on an absorbing state stays there.
                for (j, &a) in alpha.iter().enumerate() {
                    if a > 0.0 && bucket[j] != usize::MAX {
                        masses[bucket[j]] += a;
                    }
                }
                Ok(AbsorptionSplit {
                    safe_merge: masses[0],
                    safe_split: masses[1],
                    polluted_merge: masses[2],
                    polluted_split: masses[3],
                })
            })
            .clone()
    }
}

impl ClusterAnalysis {
    /// Builds the chain for `params` and prepares all analyses under
    /// `initial` on the default pipeline ([`AnalysisMode::Sparse`]).
    ///
    /// # Errors
    ///
    /// Propagates initial-distribution validation and linear-algebra
    /// failures.
    pub fn new(params: &ModelParams, initial: InitialCondition) -> Result<Self, MarkovError> {
        let chain = ClusterChain::build(params);
        Self::from_chain(chain, initial)
    }

    /// As [`ClusterAnalysis::new`] with an explicit pipeline choice
    /// (benchmarks and equivalence tests force one side).
    ///
    /// # Errors
    ///
    /// As [`ClusterAnalysis::new`].
    pub fn new_with_mode(
        params: &ModelParams,
        initial: InitialCondition,
        mode: AnalysisMode,
    ) -> Result<Self, MarkovError> {
        let chain = ClusterChain::build(params);
        Self::from_chain_with_mode(chain, initial, mode)
    }

    /// Prepares the analyses on an already-built chain (avoids rebuilding
    /// the matrix when sweeping initial conditions).
    ///
    /// # Errors
    ///
    /// Propagates initial-distribution validation and linear-algebra
    /// failures.
    pub fn from_chain(chain: ClusterChain, initial: InitialCondition) -> Result<Self, MarkovError> {
        Self::from_chain_with_mode(chain, initial, AnalysisMode::Sparse)
    }

    /// As [`ClusterAnalysis::from_chain`] with an explicit pipeline
    /// choice.
    ///
    /// The sparse pipeline factors the transient block `T` here, so a
    /// singular chain fails in the constructor, and computes every
    /// metric on its first read: `E(T_S)`, `E(T_P)`, the variances and
    /// the absorption metrics solve against `T` alone, and only the
    /// sojourn series, the time distributions and the pollution
    /// probability set up the `S` and `P` blocks. Each value is kept, so
    /// a second read costs nothing, and the bits do not depend on the
    /// order of the reads (see [`SojournAnalysis::new_sparse`] for the
    /// iterative solver's one exception).
    ///
    /// # Errors
    ///
    /// As [`ClusterAnalysis::from_chain`].
    pub fn from_chain_with_mode(
        chain: ClusterChain,
        initial: InitialCondition,
        mode: AnalysisMode,
    ) -> Result<Self, MarkovError> {
        Self::on_chain(Arc::new(chain), initial, mode)
    }

    fn on_chain(
        chain: Arc<ClusterChain>,
        initial: InitialCondition,
        mode: AnalysisMode,
    ) -> Result<Self, MarkovError> {
        let alpha = initial.distribution(chain.space())?;
        let partition = SojournPartition::new(
            chain.space().transient_safe().to_vec(),
            chain.space().transient_polluted().to_vec(),
        )?;
        let (sojourn, absorbing) = if mode == AnalysisMode::Sparse {
            // One solver bundle serves all three stages: the T block
            // (sojourn totals + absorption) and the S block (sojourn side
            // + pollution hitting) are each factored at most once.
            let options = SolverOptions::default();
            let solvers = PartitionSolvers::build(chain.sparse_dtmc(), &partition, options)?;
            let sojourn =
                SojournAnalysis::new_sparse_shared(chain.sparse_dtmc(), &alpha, &solvers)?;
            (
                sojourn,
                AbsorptionEngine::Sparse(SparseAbsorption::new(solvers)),
            )
        } else {
            let sojourn = SojournAnalysis::new(chain.dtmc(), &partition, &alpha)?;
            let absorbing = AbsorptionEngine::Dense(Box::new(AbsorbingChain::new(chain.dtmc())?));
            (sojourn, absorbing)
        };
        Ok(ClusterAnalysis {
            chain,
            alpha,
            sojourn,
            absorbing,
        })
    }

    /// The same chain analysed under another initial condition. On the
    /// sparse pipeline the new analysis shares this one's factored
    /// blocks, including the `S` and `P` factors either sets up later.
    /// Where the blocks are LU-factored (below the solver crossover) it
    /// gives the bits a fresh [`ClusterAnalysis::from_chain`] would.
    /// Above the crossover a block solves iteratively, and once BiCGSTAB
    /// breaks down, the SOR fallback starts from the relaxation factor
    /// that earlier solves on the shared block learned, so the bits then
    /// depend on which solves ran first (see
    /// [`SojournAnalysis::new_sparse`]).
    ///
    /// # Errors
    ///
    /// Propagates initial-distribution validation failures (and, on the
    /// dense pipeline, linear-algebra failures).
    pub fn with_initial(&self, initial: InitialCondition) -> Result<Self, MarkovError> {
        let AbsorptionEngine::Sparse(absorption) = &self.absorbing else {
            return Self::on_chain(Arc::clone(&self.chain), initial, AnalysisMode::Dense);
        };
        let alpha = initial.distribution(self.chain.space())?;
        let sojourn = SojournAnalysis::new_sparse_shared(
            self.chain.sparse_dtmc(),
            &alpha,
            &absorption.solvers,
        )?;
        Ok(ClusterAnalysis {
            chain: Arc::clone(&self.chain),
            alpha,
            sojourn,
            absorbing: AbsorptionEngine::Sparse(SparseAbsorption::new(absorption.solvers.clone())),
        })
    }

    /// `true` when this analysis runs on the sparse pipeline.
    pub fn is_sparse(&self) -> bool {
        matches!(self.absorbing, AbsorptionEngine::Sparse(_))
    }

    /// The underlying chain.
    pub fn chain(&self) -> &ClusterChain {
        &self.chain
    }

    /// The parameters of the model.
    pub fn params(&self) -> &ModelParams {
        self.chain.space().params()
    }

    /// `E(T_S)` — expected number of events spent in safe transient states
    /// before absorption (Relation 5).
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures.
    pub fn expected_safe_events(&self) -> Result<f64, MarkovError> {
        self.sojourn.expected_total_s()
    }

    /// `E(T_P)` — expected number of events spent in polluted transient
    /// states before absorption (Relation 6).
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures.
    pub fn expected_polluted_events(&self) -> Result<f64, MarkovError> {
        self.sojourn.expected_total_p()
    }

    /// Expected number of events until absorption (equals
    /// `E(T_S) + E(T_P)`).
    ///
    /// # Errors
    ///
    /// Propagates distribution validation failures.
    pub fn expected_absorption_events(&self) -> Result<f64, MarkovError> {
        match &self.absorbing {
            AbsorptionEngine::Dense(abs) => abs.expected_steps(&self.alpha),
            AbsorptionEngine::Sparse(abs) => abs.expected_steps(&self.alpha),
        }
    }

    /// `E(T_{S,n})` for `n = 1..=count` (Relation 7).
    ///
    /// # Panics
    ///
    /// On the sparse pipeline the `S` and `P` solvers are set up on the
    /// first series or distribution read, so a failure to set them up
    /// panics here instead of failing the constructor, and so does an
    /// iterative solve that exhausts its budget (see
    /// [`SojournAnalysis::expected_sojourns_s`]). A sweep retries a
    /// panicking cell, then reports it as a panic.
    pub fn successive_safe_sojourns(&self, count: usize) -> Vec<f64> {
        self.sojourn.expected_sojourns_s(count)
    }

    /// `E(T_{P,n})` for `n = 1..=count` (Relation 8).
    ///
    /// # Panics
    ///
    /// As [`ClusterAnalysis::successive_safe_sojourns`].
    pub fn successive_polluted_sojourns(&self, count: usize) -> Vec<f64> {
        self.sojourn.expected_sojourns_p(count)
    }

    /// Distribution `P(T_S = j)`, `j = 0..=j_max` (beyond-paper extension
    /// from the same censored-chain construction).
    ///
    /// # Panics
    ///
    /// As [`ClusterAnalysis::successive_safe_sojourns`].
    pub fn safe_time_distribution(&self, j_max: usize) -> Vec<f64> {
        self.sojourn.distribution_s(j_max)
    }

    /// Distribution `P(T_P = j)`, `j = 0..=j_max`.
    ///
    /// # Panics
    ///
    /// As [`ClusterAnalysis::successive_safe_sojourns`].
    pub fn polluted_time_distribution(&self, j_max: usize) -> Vec<f64> {
        self.sojourn.distribution_p(j_max)
    }

    /// Variance of `T_S`.
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures.
    pub fn variance_safe_events(&self) -> Result<f64, MarkovError> {
        self.sojourn.variance_s()
    }

    /// Variance of `T_P`.
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures.
    pub fn variance_polluted_events(&self) -> Result<f64, MarkovError> {
        self.sojourn.variance_p()
    }

    /// Probability that the cluster is **ever** polluted during its
    /// lifetime: the chance of hitting the polluted transient states or
    /// the polluted-merge class before dissolution.
    ///
    /// Sharper than `E(T_P)`: a small expected pollution time could hide
    /// either rare-but-long or frequent-but-short pollution episodes; this
    /// metric separates the "how often" from the "how long"
    /// (`E(T_P) = P(ever polluted) · E(T_P | polluted)`).
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures.
    pub fn pollution_probability(&self) -> Result<f64, MarkovError> {
        let space = self.chain.space();
        if let AbsorptionEngine::Sparse(SparseAbsorption { solvers, .. }) = &self.absorbing {
            // Hitting mass on the shared S-block solver: a trajectory
            // started in the safe transient band S gets polluted exactly
            // when it leaves S into P ∪ AmP ∪ AℓP, so with
            // r[i] = P(i → P ∪ AmP ∪ AℓP in one step),
            //   P(ever polluted | start i ∈ S) = [(I − M_S)⁻¹ r]_i
            // — one solve on the factorization the sojourn series share,
            // instead of a dedicated hitting system. Solving for
            // the hitting mass itself (not 1 − P(never)) keeps full
            // relative precision for small probabilities.
            let s_idx = solvers.s_indices();
            let mut is_polluted = vec![false; space.len()];
            for &j in space
                .transient_polluted()
                .iter()
                .chain(space.polluted_merge())
                .chain(space.polluted_split())
            {
                is_polluted[j] = true;
            }
            let mut r = vec![0.0; s_idx.len()];
            for (t, &g) in s_idx.iter().enumerate() {
                for (j, v) in self.chain.sparse_dtmc().successors(g) {
                    if is_polluted[j] {
                        r[t] += v;
                    }
                }
            }
            let p_hit = solvers.solver_s()?.solve(&r)?;
            let mut ever: f64 = s_idx
                .iter()
                .enumerate()
                .map(|(t, &g)| self.alpha[g] * p_hit[t])
                .sum();
            // Initial mass already sitting on a polluted class is
            // polluted from the start.
            for (j, &a) in self.alpha.iter().enumerate() {
                if a > 0.0 && is_polluted[j] {
                    ever += a;
                }
            }
            Ok(ever.clamp(0.0, 1.0))
        } else {
            let mut targets: Vec<usize> = space.transient_polluted().to_vec();
            targets.extend_from_slice(space.polluted_merge());
            targets.extend_from_slice(space.polluted_split());
            pollux_markov::hitting::hitting_probability_from(
                self.chain.dtmc(),
                &self.alpha,
                &targets,
            )
        }
    }

    /// Long-run safe/polluted fractions of a *regenerating* cluster: when
    /// an absorbed cluster is immediately replaced by a fresh one drawn
    /// from the initial condition (the split/merge successors of a live
    /// overlay), renewal–reward gives
    ///
    /// ```text
    /// fraction polluted = E(T_P) / (E(T_S) + E(T_P) + 1)
    /// ```
    ///
    /// (each cycle spends `T_S + T_P` events transient plus one event on
    /// the regeneration itself). Returns `(safe, polluted)`. This is the
    /// beyond-paper extension validated against the regenerate-mode
    /// overlay simulator.
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures.
    pub fn steady_state_fractions(&self) -> Result<(f64, f64), MarkovError> {
        let ts = self.expected_safe_events()?;
        let tp = self.expected_polluted_events()?;
        let cycle = ts + tp + 1.0;
        Ok((ts / cycle, tp / cycle))
    }

    /// Absorption probabilities per Figure-1 class (Relation 9).
    ///
    /// # Errors
    ///
    /// Propagates distribution validation failures.
    pub fn absorption_split(&self) -> Result<AbsorptionSplit, MarkovError> {
        let abs = match &self.absorbing {
            AbsorptionEngine::Sparse(sparse) => return sparse.split(&self.chain, &self.alpha),
            AbsorptionEngine::Dense(abs) => abs,
        };
        let probs = abs.absorption_probabilities(&self.alpha)?;
        let mut split = AbsorptionSplit {
            safe_merge: 0.0,
            safe_split: 0.0,
            polluted_merge: 0.0,
            polluted_split: 0.0,
        };
        let params = self.params();
        for (class_pos, &class_id) in abs.closed_classes().iter().enumerate() {
            let members = abs.class_members(class_id);
            // Absorbing classes of this chain are singleton self-loop
            // states; classify the representative.
            let state = self.chain.space().state(members[0]);
            let bucket = match state.classify(params) {
                StateClass::SafeMerge => &mut split.safe_merge,
                StateClass::SafeSplit => &mut split.safe_split,
                StateClass::PollutedMerge => &mut split.polluted_merge,
                StateClass::PollutedSplit => &mut split.polluted_split,
                transient => unreachable!("closed class in {transient}"),
            };
            *bucket += probs[class_pos];
        }
        Ok(split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdversaryToggles;

    fn analysis(mu: f64, d: f64, k: usize, initial: InitialCondition) -> ClusterAnalysis {
        let params = ModelParams::paper_defaults()
            .with_mu(mu)
            .with_d(d)
            .with_k(k)
            .unwrap();
        ClusterAnalysis::new(&params, initial).unwrap()
    }

    #[test]
    fn mu_zero_closed_forms() {
        // Section VII-C: for μ = 0, E(T_S) + E(T_P) = ⌊Δ²/4⌋ = 12 and
        // E(T_P) = 0; Section VII-E: p(merge) = 1 − 3/7, p(split) = 3/7.
        let a = analysis(0.0, 0.9, 1, InitialCondition::Delta);
        assert!((a.expected_safe_events().unwrap() - 12.0).abs() < 1e-9);
        assert!(a.expected_polluted_events().unwrap().abs() < 1e-12);
        let split = a.absorption_split().unwrap();
        assert!((split.safe_merge - 4.0 / 7.0).abs() < 1e-9);
        assert!((split.safe_split - 3.0 / 7.0).abs() < 1e-9);
        assert_eq!(split.polluted_merge, 0.0);
        assert_eq!(split.polluted_split, 0.0);
        assert!((split.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn totals_decompose_absorption_time() {
        for (mu, d, k) in [(0.1, 0.8, 1), (0.3, 0.9, 7), (0.2, 0.3, 3)] {
            let a = analysis(mu, d, k, InitialCondition::Delta);
            let ts = a.expected_safe_events().unwrap();
            let tp = a.expected_polluted_events().unwrap();
            let tot = a.expected_absorption_events().unwrap();
            assert!(
                (ts + tp - tot).abs() < 1e-8 * tot.max(1.0),
                "mu={mu} d={d} k={k}: {ts} + {tp} != {tot}"
            );
        }
    }

    #[test]
    fn sojourn_series_converges_to_totals() {
        let a = analysis(0.2, 0.9, 1, InitialCondition::Delta);
        let series = a.successive_safe_sojourns(300);
        let total = a.expected_safe_events().unwrap();
        let sum: f64 = series.iter().sum();
        assert!((sum - total).abs() < 1e-6 * total, "{sum} vs {total}");
    }

    #[test]
    fn beta_start_is_worse_than_delta_start() {
        // Section VII-B's first lesson: a pre-polluted start (β) gives the
        // adversary a head start.
        let delta = analysis(0.2, 0.8, 1, InitialCondition::Delta);
        let beta = analysis(0.2, 0.8, 1, InitialCondition::Beta);
        assert!(
            beta.expected_polluted_events().unwrap() > delta.expected_polluted_events().unwrap()
        );
        let split_delta = delta.absorption_split().unwrap();
        let split_beta = beta.absorption_split().unwrap();
        assert!(split_beta.polluted_merge > split_delta.polluted_merge);
    }

    #[test]
    fn pollution_grows_with_mu_and_d() {
        let base = analysis(0.1, 0.8, 1, InitialCondition::Delta);
        let more_mu = analysis(0.3, 0.8, 1, InitialCondition::Delta);
        let more_d = analysis(0.1, 0.95, 1, InitialCondition::Delta);
        let tp_base = base.expected_polluted_events().unwrap();
        assert!(more_mu.expected_polluted_events().unwrap() > tp_base);
        assert!(more_d.expected_polluted_events().unwrap() > tp_base);
    }

    #[test]
    fn distribution_mass_and_mean() {
        let a = analysis(0.2, 0.5, 1, InitialCondition::Delta);
        let dist = a.safe_time_distribution(3000);
        let mass: f64 = dist.iter().sum();
        assert!((mass - 1.0).abs() < 1e-8, "mass {mass}");
        let mean: f64 = dist.iter().enumerate().map(|(j, p)| j as f64 * p).sum();
        assert!((mean - a.expected_safe_events().unwrap()).abs() < 1e-5);
        // Variance is non-negative and consistent with a spot Monte-Carlo
        // magnitude (tested against simulation in the integration suite).
        assert!(a.variance_safe_events().unwrap() >= 0.0);
        assert!(a.variance_polluted_events().unwrap() >= 0.0);
    }

    #[test]
    fn accessors() {
        let a = analysis(0.1, 0.5, 1, InitialCondition::Delta);
        assert_eq!(a.params().mu(), 0.1);
        assert_eq!(a.chain().space().len(), 288);
    }

    #[test]
    fn pollution_probability_bounds_and_edge_cases() {
        // mu = 0: never polluted.
        let clean = analysis(0.0, 0.9, 1, InitialCondition::Delta);
        assert_eq!(clean.pollution_probability().unwrap(), 0.0);
        // Grows with mu; bounded by 1.
        let a10 = analysis(0.1, 0.9, 1, InitialCondition::Delta);
        let a30 = analysis(0.3, 0.9, 1, InitialCondition::Delta);
        let p10 = a10.pollution_probability().unwrap();
        let p30 = a30.pollution_probability().unwrap();
        assert!(p10 > 0.0 && p10 < p30 && p30 < 1.0);
        // E(T_P) = P(ever polluted) * E(T_P | ever polluted) >= ... so
        // P(ever) >= E(T_P)/E(T_P|polluted) — sanity: P(ever polluted)
        // must exceed the probability of ending in a polluted merge.
        let amp = a30.absorption_split().unwrap().polluted_merge;
        assert!(p30 >= amp - 1e-12, "{p30} < {amp}");
    }

    #[test]
    fn pollution_probability_matches_simulation() {
        use pollux_adversary::TargetedStrategy;
        use rand::{rngs::StdRng, SeedableRng};
        let params = ModelParams::paper_defaults().with_mu(0.3).with_d(0.9);
        let a = ClusterAnalysis::new(&params, InitialCondition::Delta).unwrap();
        let want = a.pollution_probability().unwrap();
        let strategy = TargetedStrategy::new(1, params.nu()).unwrap();
        let sim = crate::simulation::ClusterSimulator::new(&params, &strategy);
        let mut rng = StdRng::seed_from_u64(99);
        let reps = 30_000;
        let mut hits = 0usize;
        for _ in 0..reps {
            let out = sim.run(crate::ClusterState::new(3, 0, 0), &mut rng);
            if out.polluted_events > 0
                || out.absorbed == crate::simulation::AbsorbedIn::PollutedMerge
            {
                hits += 1;
            }
        }
        let got = hits as f64 / reps as f64;
        let sigma = (want * (1.0 - want) / reps as f64).sqrt();
        assert!(
            (got - want).abs() < 5.0 * sigma + 1e-4,
            "sim {got} vs analytic {want}"
        );
    }

    /// Every metric a sweep row reports, in a fixed order.
    fn sweep_metrics(a: &ClusterAnalysis) -> Vec<f64> {
        let split = a.absorption_split().unwrap();
        let (safe, polluted) = a.steady_state_fractions().unwrap();
        let mut out = vec![
            a.expected_safe_events().unwrap(),
            a.expected_polluted_events().unwrap(),
            a.expected_absorption_events().unwrap(),
            a.pollution_probability().unwrap(),
            a.variance_safe_events().unwrap(),
            a.variance_polluted_events().unwrap(),
            split.safe_merge,
            split.safe_split,
            split.polluted_merge,
            split.polluted_split,
            safe,
            polluted,
        ];
        out.extend(a.successive_safe_sojourns(5));
        out.extend(a.successive_polluted_sojourns(5));
        out
    }

    #[test]
    fn sparse_pipeline_agrees_with_dense() {
        // Force both pipelines across cluster sizes, both initials and
        // both protocols, and compare every sweep-visible metric.
        for (c, delta) in [(4, 4), (7, 7), (10, 10), (7, 14)] {
            for k in [1, c] {
                let params = ModelParams::new(c, delta, k)
                    .unwrap()
                    .with_mu(0.25)
                    .with_d(0.9);
                let chain = ClusterChain::build(&params);
                for initial in [InitialCondition::Delta, InitialCondition::Beta] {
                    let label = format!("C={c} Delta={delta} k={k} {}", initial.label());
                    let dense = ClusterAnalysis::from_chain_with_mode(
                        chain.clone(),
                        initial.clone(),
                        AnalysisMode::Dense,
                    )
                    .unwrap();
                    let sparse = ClusterAnalysis::from_chain_with_mode(
                        chain.clone(),
                        initial,
                        AnalysisMode::Sparse,
                    )
                    .unwrap();
                    assert!(!dense.is_sparse());
                    assert!(sparse.is_sparse());
                    for (i, (a, b)) in sweep_metrics(&dense)
                        .into_iter()
                        .zip(sweep_metrics(&sparse))
                        .enumerate()
                    {
                        assert!(
                            (a - b).abs() < 1e-9 * a.abs().max(1.0),
                            "{label} metric {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_dense_sibling_matches_a_fresh_dense_analysis() {
        let params = ModelParams::paper_defaults().with_mu(0.25).with_d(0.9);
        let dense = |initial| {
            ClusterAnalysis::new_with_mode(&params, initial, AnalysisMode::Dense).unwrap()
        };
        let sibling = dense(InitialCondition::Delta)
            .with_initial(InitialCondition::Beta)
            .unwrap();
        assert!(!sibling.is_sparse());
        let bits = |a: &ClusterAnalysis| -> Vec<u64> {
            sweep_metrics(a).into_iter().map(f64::to_bits).collect()
        };
        assert_eq!(bits(&sibling), bits(&dense(InitialCondition::Beta)));
    }

    #[test]
    fn sparse_pollution_probability_keeps_relative_precision() {
        // 1 − P(never polluted) would round a 1e-17 probability away;
        // solving for the hitting mass keeps it to the last digits.
        let params = ModelParams::paper_defaults().with_mu(1e-6).with_d(0.9);
        for initial in [InitialCondition::Delta, InitialCondition::Beta] {
            let p = |mode| {
                ClusterAnalysis::new_with_mode(&params, initial.clone(), mode)
                    .unwrap()
                    .pollution_probability()
                    .unwrap()
            };
            let (dense, sparse) = (p(AnalysisMode::Dense), p(AnalysisMode::Sparse));
            assert!(dense > 0.0, "{}: {dense}", initial.label());
            assert!(
                (sparse - dense).abs() <= 1e-12 * dense,
                "{}: sparse {sparse} vs dense {dense}",
                initial.label()
            );
        }
        let clean = ModelParams::paper_defaults().with_mu(0.0).with_d(0.9);
        let sparse =
            ClusterAnalysis::new_with_mode(&clean, InitialCondition::Delta, AnalysisMode::Sparse)
                .unwrap();
        assert_eq!(sparse.pollution_probability().unwrap(), 0.0);
    }

    #[test]
    fn default_mode_goes_sparse_at_every_size() {
        assert_eq!(AnalysisMode::default(), AnalysisMode::Sparse);
        // Δ = 4, 7 and 20 at C = 7: 120 and 288 states (LU-factored
        // blocks) and 1848 states (iterative solves).
        for delta in [4, 7, 20] {
            let params = ModelParams::new(7, delta, 1)
                .unwrap()
                .with_mu(0.2)
                .with_d(0.8);
            let default = ClusterAnalysis::new(&params, InitialCondition::Delta).unwrap();
            assert!(default.is_sparse(), "Delta = {delta}");
            // The sojourn totals stay finite and positive, and absorption
            // masses form a distribution.
            let ts = default.expected_safe_events().unwrap();
            let tp = default.expected_polluted_events().unwrap();
            assert!(ts > 0.0 && tp >= 0.0);
            let split = default.absorption_split().unwrap();
            assert!((split.total() - 1.0).abs() < 1e-8, "{}", split.total());
            let tot = default.expected_absorption_events().unwrap();
            assert!((ts + tp - tot).abs() < 1e-7 * tot, "{ts} + {tp} != {tot}");
        }
    }

    /// `(C, Δ, k, μ, d)`.
    type GoldenParams = (usize, usize, usize, f64, f64);

    /// E(T_S), E(T_P), the expected absorption events, the absorption
    /// split (AmS, AℓS, AmP, AℓP), Var(T_S), Var(T_P), E(T_S,1..3),
    /// E(T_P,1..3), the pollution probability and the steady-state
    /// (safe, polluted) fractions, as bits, per (C, Δ, k, μ, d) and
    /// initial condition. Captured from the eager pipeline that
    /// computed every metric at construction; the C = 4 set ablates
    /// Rule 2 so AℓP is not 0.
    #[rustfmt::skip]
    const GOLDEN: [(GoldenParams, &str, [u64; 18]); 8] = [
        ((7, 7, 1, 0.2, 0.9), "delta", [
            0x4027d9afb2b7467b, 0x3fe2bd704c3ab372, 0x40290586b77af1b6, 0x3fdf6dfe8ff6ff69,
            0x3fde2affce999843, 0x3fa3380d0b7b42fc, 0x0000000000000000, 0x40549d71905dc16a,
            0x40353e5dd4cd182b, 0x4027c7c9499f3eb5, 0x3fa12c32ec5a7b3b, 0x3f56515d5a69b03e,
            0x3fe1dba0758a0a39, 0x3f9b0386e9b7512d, 0x3f52974eefd2a3de, 0x3fa5b26b46877512,
            0x3fec3e96887c9f99, 0x3fa6314f9a2394d8,
        ]),
        ((7, 7, 1, 0.2, 0.9), "beta", [
            0x401cc882194850ff, 0x4014996baa876c70, 0x4028b0f6e1e7deb9, 0x3fd12fa77a65e6ff,
            0x3fddac25098231c6, 0x3fd124337c17e75a, 0x0000000000000000, 0x404ec6bdf3a2f2b4,
            0x406594009f59d3d4, 0x401c380d2a8b50a1, 0x3fc150cf8cd2aa0b, 0x3f76bf47b2ab2dde,
            0x4013bd9b571d7a20, 0x3fca45df66c30af7, 0x3f82734cd447b07d, 0x3fd36f3efec97a96,
            0x3fe14107b6c1c299, 0x3fd8b245b41e28a3,
        ]),
        ((7, 7, 7, 0.3, 0.8), "delta", [
            0x40269db5171c7988, 0x3ff82aeeebec0baa, 0x4029a312f499faf8, 0x3fde48763defc914,
            0x3fdc466f044eb49f, 0x3fb5c46af7060948, 0x0000000000000000, 0x40500fa21260ca1b,
            0x40455d019996828d, 0x4026510871befe49, 0x3fc202f2226706b0, 0x3f816422e9d23890,
            0x3ff62c306ed3a701, 0x3fbdd83605e31626, 0x3f7f313775fe41ac, 0x3fbb4ec6dc7b637e,
            0x3fea2fb724ff0469, 0x3fbbfba6850d3a22,
        ]),
        ((7, 7, 7, 0.3, 0.8), "beta", [
            0x401235a11185af51, 0x402269bd6d97d28e, 0x402b848df65aaa3b, 0x3fc9814d867bd051,
            0x3fd31cfd45cbf528, 0x3fe0112dfb7b1152, 0x0000000000000000, 0x404262dc66de788c,
            0x40696e6dc240641c, 0x4011301272899b2f, 0x3fcea86d07daac02, 0x3f8e9be5acfcd7f2,
            0x402171d98f9b07de, 0x3fdd10af174355dc, 0x3f9cdd49fc299656, 0x3fe287640fbad132,
            0x3fd3bda27b4a676b, 0x3fe3f620a88036e4,
        ]),
        ((4, 4, 2, 0.25, 0.5), "delta", [
            0x400ff2f439f3773b, 0x3fa202683b7dc621, 0x40101d7eed70b72a, 0x3fdedba0f591f722,
            0x3fe0371cdc6f1018, 0x3f7d78c81de77425, 0x3f70108c4612b787, 0x401f6001c7fbf236,
            0x3fc6f57701b71c11, 0x400fe5deec2b2ca5, 0x3f79c38f5bb9706c, 0x3f19570dfeaba3c2,
            0x3fa1b03ed7e993b2, 0x3f4432537b902f82, 0x3ee5a3ca2fd75bc4, 0x3f8d576ca27e7a89,
            0x3fe969af4252178b, 0x3f7ca66611f07eb9,
        ]),
        ((4, 4, 2, 0.25, 0.5), "beta", [
            0x4003b2be6bdc455a, 0x3ff07afe29ac192b, 0x400bf03d80b251ee, 0x3fd47174f0ea3c2c,
            0x3fd8a5f2aa7d03fa, 0x3fc1e9132222dcb6, 0x3fc3e81da70ea2fe, 0x401d5d0cdd4e4285,
            0x401179723cd59888, 0x400364e05e0fc5c3, 0x3fa324ce2ea7712a, 0x3f44558685fcad0a,
            0x3ff031a7e7766ad1, 0x3f9207fe2bc9872c, 0x3f331250f71bbbf7, 0x3fd71ed201c59db8,
            0x3fe18a1e047ba136, 0x3fcd59479b7d220d,
        ]),
        ((7, 14, 1, 0.3, 0.9), "delta", [
            0x404103263b913986, 0x40325b3c156e79a7, 0x404a30c446487659, 0x3fc341be711e67f0,
            0x3fdfea4cf0c53370, 0x3fd674d3d6ab989e, 0x0000000000000000, 0x40735fb78c426f0c,
            0x409845e7dd093fb2, 0x4040c7b41916570b, 0x3fdbd11e606aae20, 0x3f9c91bf232f9d0f,
            0x4030f50c0989cd4c, 0x3ff4da00df955342, 0x3fb6f7762aabd675, 0x3fd776b8aafb37c4,
            0x3fe4658373b57568, 0x3fd6020c1b0b6858,
        ]),
        ((7, 14, 1, 0.3, 0.9), "beta", [
            0x40244e79a5fed160, 0x40425118aca82881, 0x404764b71627dcd7, 0x3fb461ac391bd7e3,
            0x3fd0a9fe4f5379e1, 0x3fe51ecb5132c807, 0x0000000000000000, 0x406651cd0b137ed9,
            0x40a4067be420c985, 0x4023745b0a495af8, 0x3fd985fac471d86f, 0x3f9a1b16d4dbe0cf,
            0x40413ad1c68d3fa2, 0x400032b7ad7be6fe, 0x3fc1dd003ca44d17, 0x3fe5ffcd466adc3c,
            0x3fcb3237fbf39dbd, 0x3fe888047248e0c5,
        ]),
    ];

    /// Each read fills its slots of the golden layout.
    type Read = fn(&ClusterAnalysis, &mut [f64; 18]);
    const READS: [Read; 10] = [
        |a, v| v[0] = a.expected_safe_events().unwrap(),
        |a, v| v[1] = a.expected_polluted_events().unwrap(),
        |a, v| v[2] = a.expected_absorption_events().unwrap(),
        |a, v| {
            let s = a.absorption_split().unwrap();
            v[3..7].copy_from_slice(&[
                s.safe_merge,
                s.safe_split,
                s.polluted_merge,
                s.polluted_split,
            ]);
        },
        |a, v| v[7] = a.variance_safe_events().unwrap(),
        |a, v| v[8] = a.variance_polluted_events().unwrap(),
        |a, v| v[9..12].copy_from_slice(&a.successive_safe_sojourns(3)),
        |a, v| v[12..15].copy_from_slice(&a.successive_polluted_sojourns(3)),
        |a, v| v[15] = a.pollution_probability().unwrap(),
        |a, v| (v[16], v[17]) = a.steady_state_fractions().unwrap(),
    ];

    fn golden_read(a: &ClusterAnalysis, reversed: bool) -> [u64; 18] {
        let mut values = [f64::NAN; 18];
        let mut reads = READS.to_vec();
        if reversed {
            reads.reverse();
        }
        for read in reads {
            read(a, &mut values);
        }
        values.map(f64::to_bits)
    }

    #[test]
    fn lazy_reads_keep_the_eager_bits_in_any_order() {
        for ((c, delta, k, mu, d), label, want) in GOLDEN {
            let mut params = ModelParams::new(c, delta, k).unwrap().with_mu(mu).with_d(d);
            if c == 4 {
                params = params.with_toggles(AdversaryToggles {
                    rule2: false,
                    ..AdversaryToggles::all()
                });
            }
            let initial = match label {
                "delta" => InitialCondition::Delta,
                _ => InitialCondition::Beta,
            };
            let name = format!("C={c} Delta={delta} k={k} mu={mu} d={d} {label}");
            for reversed in [false, true] {
                let a = ClusterAnalysis::new(&params, initial.clone()).unwrap();
                assert_eq!(
                    golden_read(&a, reversed),
                    want,
                    "{name} reversed={reversed}"
                );
            }
            // A sibling made for this initial condition from an analysis
            // of the other one shares its blocks and keeps the bits, read
            // before or after the analysis it came from.
            let other = match initial {
                InitialCondition::Delta => InitialCondition::Beta,
                _ => InitialCondition::Delta,
            };
            let first = ClusterAnalysis::new(&params, other.clone()).unwrap();
            let sibling = first.with_initial(initial.clone()).unwrap();
            assert!(sibling.is_sparse());
            assert_eq!(golden_read(&sibling, true), want, "{name} sibling");
            let reread = first.with_initial(initial).unwrap();
            golden_read(&first, false);
            assert_eq!(golden_read(&reread, false), want, "{name} sibling after");
        }
    }

    #[test]
    fn steady_state_fractions_are_consistent() {
        let a = analysis(0.3, 0.9, 1, InitialCondition::Delta);
        let (safe, polluted) = a.steady_state_fractions().unwrap();
        let ts = a.expected_safe_events().unwrap();
        let tp = a.expected_polluted_events().unwrap();
        assert!((safe + polluted - (ts + tp) / (ts + tp + 1.0)).abs() < 1e-12);
        assert!(polluted > 0.0 && polluted < 0.2);
        assert!(safe > 0.8);
    }
}
