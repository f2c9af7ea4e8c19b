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
    chain: ClusterChain,
    alpha: Vec<f64>,
    sojourn: SojournAnalysis,
    absorbing: AbsorptionEngine,
    /// The sparse pipeline's shared solver bundle (sojourn, absorption
    /// and hitting all run on it); `None` on the dense pipeline.
    solvers: Option<PartitionSolvers>,
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
#[derive(Debug, Clone)]
struct SparseAbsorption {
    /// `α N 1` — expected events to absorption.
    expected_steps: f64,
    /// Relation 9 aggregated per Figure-1 class.
    split: AbsorptionSplit,
}

impl SparseAbsorption {
    /// Builds the absorption metrics on the partition's **shared**
    /// `T`-block solver — the block is never factored a second time.
    fn build(
        chain: &ClusterChain,
        alpha: &[f64],
        solvers: &PartitionSolvers,
    ) -> Result<Self, MarkovError> {
        let space = chain.space();
        let transient = solvers.t_indices();
        let solver = solvers.solver_t();

        let steps = solver.solve(&vec![1.0; transient.len()])?;
        let expected_steps = transient
            .iter()
            .enumerate()
            .map(|(t, &g)| alpha[g] * steps[t])
            .sum();

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
        let sols = solver.solve_many(&rhs)?;
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
        Ok(SparseAbsorption {
            expected_steps,
            split: AbsorptionSplit {
                safe_merge: masses[0],
                safe_split: masses[1],
                polluted_merge: masses[2],
                polluted_split: masses[3],
            },
        })
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
    /// # Errors
    ///
    /// As [`ClusterAnalysis::from_chain`].
    pub fn from_chain_with_mode(
        chain: ClusterChain,
        initial: InitialCondition,
        mode: AnalysisMode,
    ) -> Result<Self, MarkovError> {
        let sparse = mode == AnalysisMode::Sparse;
        let alpha = initial.distribution(chain.space())?;
        let partition = SojournPartition::new(
            chain.space().transient_safe().to_vec(),
            chain.space().transient_polluted().to_vec(),
        )?;
        let (sojourn, absorbing, solvers) = if sparse {
            // One solver bundle serves all three stages: the T block
            // (sojourn totals + absorption) and the S block (sojourn side
            // + pollution hitting) are each factored exactly once.
            let options = SolverOptions::default();
            let solvers = PartitionSolvers::build(chain.sparse_dtmc(), &partition, options)?;
            let sojourn =
                SojournAnalysis::new_sparse_shared(chain.sparse_dtmc(), &alpha, &solvers)?;
            let absorbing =
                AbsorptionEngine::Sparse(SparseAbsorption::build(&chain, &alpha, &solvers)?);
            (sojourn, absorbing, Some(solvers))
        } else {
            let sojourn = SojournAnalysis::new(chain.dtmc(), &partition, &alpha)?;
            let absorbing = AbsorptionEngine::Dense(Box::new(AbsorbingChain::new(chain.dtmc())?));
            (sojourn, absorbing, None)
        };
        Ok(ClusterAnalysis {
            chain,
            alpha,
            sojourn,
            absorbing,
            solvers,
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
            AbsorptionEngine::Sparse(abs) => Ok(abs.expected_steps),
        }
    }

    /// `E(T_{S,n})` for `n = 1..=count` (Relation 7).
    pub fn successive_safe_sojourns(&self, count: usize) -> Vec<f64> {
        self.sojourn.expected_sojourns_s(count)
    }

    /// `E(T_{P,n})` for `n = 1..=count` (Relation 8).
    pub fn successive_polluted_sojourns(&self, count: usize) -> Vec<f64> {
        self.sojourn.expected_sojourns_p(count)
    }

    /// Distribution `P(T_S = j)`, `j = 0..=j_max` (beyond-paper extension
    /// from the same censored-chain construction).
    pub fn safe_time_distribution(&self, j_max: usize) -> Vec<f64> {
        self.sojourn.distribution_s(j_max)
    }

    /// Distribution `P(T_P = j)`, `j = 0..=j_max`.
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
        if let Some(solvers) = &self.solvers {
            // Hitting mass on the shared S-block solver: a trajectory
            // started in the safe transient band S gets polluted exactly
            // when it leaves S into P ∪ AmP ∪ AℓP, so with
            // r[i] = P(i → P ∪ AmP ∪ AℓP in one step),
            //   P(ever polluted | start i ∈ S) = [(I − M_S)⁻¹ r]_i
            // — one solve on a factorization the sojourn stage already
            // set up, instead of a dedicated hitting system. Solving for
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
            let p_hit = solvers.solver_s().solve(&r)?;
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
            AbsorptionEngine::Sparse(sparse) => return Ok(sparse.split),
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
