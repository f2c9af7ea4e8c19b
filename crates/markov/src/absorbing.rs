use pollux_linalg::{Matrix, SolverOptions, TransientSolver};

use crate::classify::{classify, classify_sparse, Classification};
use crate::sparse_chain::sparse_block;
use crate::{Dtmc, MarkovError, SparseDtmc};

/// Absorbing-chain analysis: expected steps to absorption and absorption
/// probabilities per closed class, both solved on the fundamental system
/// `(I − Q) x = b` once at construction.
///
/// States are classified automatically; "absorption" means entering any
/// closed communicating class (for the DSN'11 chain these are the safe
/// merge, safe split and polluted merge sets of Figure 1).
///
/// # Example
///
/// ```
/// use pollux_markov::{AbsorbingChain, Dtmc};
///
/// # fn main() -> Result<(), pollux_markov::MarkovError> {
/// let p = Dtmc::from_rows(&[
///     &[1.0, 0.0, 0.0],
///     &[0.25, 0.5, 0.25],
///     &[0.0, 0.0, 1.0],
/// ])?;
/// let abs = AbsorbingChain::new(&p)?;
/// assert!((abs.expected_steps_from(1)? - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AbsorbingChain {
    n_states: usize,
    classification: Classification,
    /// Global indices of transient states, increasing.
    transient: Vec<usize>,
    /// Position of each global state inside `transient` (or `None`).
    transient_pos: Vec<Option<usize>>,
    /// Expected steps to absorption from each transient state.
    steps: Vec<f64>,
    /// Ids of closed classes, in classification order.
    closed_classes: Vec<usize>,
    /// `b[c][t]`: probability of absorbing into closed class
    /// `closed_classes[c]` starting from `transient[t]`.
    absorption: Vec<Vec<f64>>,
}

impl AbsorbingChain {
    /// Builds the analysis for a dense chain (always by dense LU — the
    /// historical bit-exact path for paper-scale chains).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NoTransientStates`] when every state is
    /// recurrent (nothing to analyze), or a [`MarkovError::Linalg`] if the
    /// fundamental system is singular (cannot happen for a genuinely
    /// sub-stochastic transient block, but surfaced honestly).
    pub fn new(chain: &Dtmc) -> Result<Self, MarkovError> {
        let classification = classify(chain);
        let transient = classification.transient_states();
        if transient.is_empty() {
            return Err(MarkovError::NoTransientStates);
        }
        let n = chain.n_states();
        let q = chain.matrix().submatrix(&transient, &transient);
        let i_minus_q = &Matrix::identity(transient.len()) - &q;
        let solver = TransientSolver::from_dense_system(&i_minus_q)?;

        let closed_classes = classification.closed_classes();
        let mut rhs = Vec::with_capacity(closed_classes.len());
        for &c in &closed_classes {
            // r[t] = P(transient[t] -> class c in one step).
            let members = &classification.classes[c];
            let r: Vec<f64> = transient
                .iter()
                .map(|&g| members.iter().map(|&j| chain.prob(g, j)).sum())
                .collect();
            rhs.push(r);
        }
        Self::finish(n, classification, transient, solver, rhs)
    }

    /// Builds the analysis for a sparse chain: classification runs on the
    /// CSR adjacency in O(nnz), the fundamental systems go through the
    /// crossover-aware [`TransientSolver`] (dense LU below
    /// `options.crossover` states, batched SOR sweeps above), and the
    /// per-class entry vectors are accumulated in a single pass over the
    /// transient rows instead of one dense column scan per class.
    ///
    /// Per-class absorption still costs one solve per closed class; chains
    /// with many absorbing states (like the large-Δ cluster chains, where
    /// every split state is its own class) should aggregate classes before
    /// asking, as `pollux`'s scaling analysis does.
    ///
    /// # Errors
    ///
    /// As [`AbsorbingChain::new`], plus [`MarkovError::Linalg`] carrying
    /// [`pollux_linalg::LinalgError::NoConvergence`] if an iterative solve
    /// exhausts its sweep budget.
    pub fn new_sparse(chain: &SparseDtmc, options: SolverOptions) -> Result<Self, MarkovError> {
        let classification = classify_sparse(chain);
        let transient = classification.transient_states();
        if transient.is_empty() {
            return Err(MarkovError::NoTransientStates);
        }
        let n = chain.n_states();
        let q = sparse_block(chain.matrix(), &transient, &transient);
        let solver = TransientSolver::new(&q, options)?;

        let closed_classes = classification.closed_classes();
        // class_slot[j] = position of j's closed class in `closed_classes`
        // (or MAX for transient / open-class states).
        let mut class_slot = vec![usize::MAX; n];
        for (slot, &c) in closed_classes.iter().enumerate() {
            for &j in &classification.classes[c] {
                class_slot[j] = slot;
            }
        }
        let mut rhs = vec![vec![0.0; transient.len()]; closed_classes.len()];
        for (t, &g) in transient.iter().enumerate() {
            for (j, v) in chain.successors(g) {
                let slot = class_slot[j];
                if slot != usize::MAX {
                    rhs[slot][t] += v;
                }
            }
        }
        Self::finish(n, classification, transient, solver, rhs)
    }

    /// Shared tail of both constructors: solve for the expected steps and
    /// the per-class absorption probabilities (batched) on the transient
    /// block's solver — dense LU when built from a [`Dtmc`],
    /// crossover-aware when built from a [`SparseDtmc`] — which is then
    /// dropped.
    fn finish(
        n: usize,
        classification: Classification,
        transient: Vec<usize>,
        solver: TransientSolver,
        rhs: Vec<Vec<f64>>,
    ) -> Result<Self, MarkovError> {
        let mut transient_pos = vec![None; n];
        for (t, &g) in transient.iter().enumerate() {
            transient_pos[g] = Some(t);
        }
        let steps = solver.solve(&vec![1.0; transient.len()])?;
        let absorption = solver.solve_many(&rhs)?;
        let closed_classes = classification.closed_classes();
        Ok(AbsorbingChain {
            n_states: n,
            classification,
            transient,
            transient_pos,
            steps,
            closed_classes,
            absorption,
        })
    }

    /// Number of states of the underlying chain.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// The structural classification computed for the chain.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// Global indices of the transient states, in increasing order.
    pub fn transient_states(&self) -> &[usize] {
        &self.transient
    }

    /// Ids of the closed (absorbing) classes, aligned with the rows of
    /// [`AbsorbingChain::absorption_probabilities_from`].
    pub fn closed_classes(&self) -> &[usize] {
        &self.closed_classes
    }

    /// The member states of closed class `c` (a classification class id).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a valid class id.
    pub fn class_members(&self, c: usize) -> &[usize] {
        &self.classification.classes[c]
    }

    /// Expected number of steps until absorption starting from state `i`
    /// (0 when `i` is already recurrent).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidState`] when `i` is out of range.
    pub fn expected_steps_from(&self, i: usize) -> Result<f64, MarkovError> {
        if i >= self.n_states {
            return Err(MarkovError::InvalidState {
                index: i,
                states: self.n_states,
            });
        }
        Ok(match self.transient_pos[i] {
            Some(t) => self.steps[t],
            None => 0.0,
        })
    }

    /// Validates `alpha` as a distribution over this chain's states (the
    /// same contract as [`Dtmc::check_distribution`]).
    fn check_distribution(&self, alpha: &[f64]) -> Result<(), MarkovError> {
        crate::chain::validate_distribution(alpha, self.n_states)
    }

    /// Expected number of steps until absorption from an initial
    /// distribution over all states.
    ///
    /// # Errors
    ///
    /// Propagates distribution validation failures.
    pub fn expected_steps(&self, alpha: &[f64]) -> Result<f64, MarkovError> {
        self.check_distribution(alpha)?;
        Ok(self
            .transient
            .iter()
            .enumerate()
            .map(|(t, &g)| alpha[g] * self.steps[t])
            .sum())
    }

    /// Probability of being absorbed in each closed class, starting from
    /// state `i`. Entries align with [`AbsorbingChain::closed_classes`].
    ///
    /// A recurrent start state is absorbed in its own class with
    /// probability 1.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidState`] when `i` is out of range.
    pub fn absorption_probabilities_from(&self, i: usize) -> Result<Vec<f64>, MarkovError> {
        if i >= self.n_states {
            return Err(MarkovError::InvalidState {
                index: i,
                states: self.n_states,
            });
        }
        Ok(match self.transient_pos[i] {
            Some(t) => self.absorption.iter().map(|b| b[t]).collect(),
            None => {
                let class = self.classification.class_of[i];
                self.closed_classes
                    .iter()
                    .map(|&c| if c == class { 1.0 } else { 0.0 })
                    .collect()
            }
        })
    }

    /// Probability of being absorbed in each closed class from an initial
    /// distribution over all states (the paper's Relation (9) when the
    /// classes are `AmS`, `AℓS`, `AmP`).
    ///
    /// # Errors
    ///
    /// Propagates distribution validation failures.
    pub fn absorption_probabilities(&self, alpha: &[f64]) -> Result<Vec<f64>, MarkovError> {
        self.check_distribution(alpha)?;
        let mut out = vec![0.0; self.closed_classes.len()];
        for (g, &a) in alpha.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let probs = self.absorption_probabilities_from(g)?;
            for (o, p) in out.iter_mut().zip(probs.iter()) {
                *o += a * p;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gamblers_ruin(p_win: f64, n: usize) -> Dtmc {
        // States 0..=n, 0 and n absorbing.
        let mut rows = vec![vec![0.0; n + 1]; n + 1];
        rows[0][0] = 1.0;
        rows[n][n] = 1.0;
        for i in 1..n {
            rows[i][i + 1] = p_win;
            rows[i][i - 1] = 1.0 - p_win;
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dtmc::from_rows(&refs).unwrap()
    }

    #[test]
    fn fair_ruin_expected_steps() {
        // E[steps from i] = i (n - i) for the fair game.
        let n = 10;
        let chain = gamblers_ruin(0.5, n);
        let abs = AbsorbingChain::new(&chain).unwrap();
        for i in 0..=n {
            let want = (i * (n - i)) as f64;
            let got = abs.expected_steps_from(i).unwrap();
            assert!((got - want).abs() < 1e-9, "i={i}: {got} vs {want}");
        }
    }

    #[test]
    fn fair_ruin_absorption_probabilities() {
        // P(reach n from i) = i/n for the fair game.
        let n = 8;
        let chain = gamblers_ruin(0.5, n);
        let abs = AbsorbingChain::new(&chain).unwrap();
        // Identify which closed class is state n.
        let classes = abs.closed_classes().to_vec();
        let idx_of_n = classes
            .iter()
            .position(|&c| abs.class_members(c).contains(&n))
            .unwrap();
        for i in 1..n {
            let p = abs.absorption_probabilities_from(i).unwrap();
            assert!((p[idx_of_n] - i as f64 / n as f64).abs() < 1e-10);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn biased_ruin_absorption_matches_closed_form() {
        // P(reach n from i) = (1 - r^i)/(1 - r^n) with r = q/p.
        let n = 6;
        let p_win = 0.6;
        let r: f64 = 0.4 / 0.6;
        let chain = gamblers_ruin(p_win, n);
        let abs = AbsorbingChain::new(&chain).unwrap();
        let classes = abs.closed_classes().to_vec();
        let idx_of_n = classes
            .iter()
            .position(|&c| abs.class_members(c).contains(&n))
            .unwrap();
        for i in 1..n {
            let want = (1.0 - r.powi(i as i32)) / (1.0 - r.powi(n as i32));
            let got = abs.absorption_probabilities_from(i).unwrap()[idx_of_n];
            assert!((got - want).abs() < 1e-10, "i={i}");
        }
    }

    #[test]
    fn distribution_start() {
        let chain = gamblers_ruin(0.5, 4);
        let abs = AbsorbingChain::new(&chain).unwrap();
        let alpha = [0.0, 0.5, 0.0, 0.5, 0.0];
        let steps = abs.expected_steps(&alpha).unwrap();
        assert!((steps - 3.0).abs() < 1e-10); // (3 + 3)/2
        let p = abs.absorption_probabilities(&alpha).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn recurrent_start_state() {
        let chain = gamblers_ruin(0.5, 4);
        let abs = AbsorbingChain::new(&chain).unwrap();
        assert_eq!(abs.expected_steps_from(0).unwrap(), 0.0);
        let p = abs.absorption_probabilities_from(0).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.contains(&1.0));
    }

    #[test]
    fn errors_for_bad_inputs() {
        let chain = gamblers_ruin(0.5, 4);
        let abs = AbsorbingChain::new(&chain).unwrap();
        assert!(abs.expected_steps_from(99).is_err());
        assert!(abs.absorption_probabilities(&[1.0]).is_err());
        // A chain with no transient states is rejected.
        let irr = Dtmc::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        assert!(matches!(
            AbsorbingChain::new(&irr),
            Err(MarkovError::NoTransientStates)
        ));
    }

    #[test]
    fn sparse_constructor_agrees_with_dense() {
        let n = 10;
        let chain = gamblers_ruin(0.55, n);
        let sparse = SparseDtmc::from_dense(&chain);
        let dense_abs = AbsorbingChain::new(&chain).unwrap();
        for options in [SolverOptions::force_dense(), SolverOptions::force_sparse()] {
            let sparse_abs = AbsorbingChain::new_sparse(&sparse, options).unwrap();
            assert_eq!(sparse_abs.closed_classes(), dense_abs.closed_classes());
            assert_eq!(sparse_abs.transient_states(), dense_abs.transient_states());
            for i in 0..=n {
                let a = dense_abs.expected_steps_from(i).unwrap();
                let b = sparse_abs.expected_steps_from(i).unwrap();
                assert!((a - b).abs() < 1e-9, "steps i={i}: {a} vs {b}");
                let pa = dense_abs.absorption_probabilities_from(i).unwrap();
                let pb = sparse_abs.absorption_probabilities_from(i).unwrap();
                for (x, y) in pa.iter().zip(pb.iter()) {
                    assert!((x - y).abs() < 1e-9, "absorption i={i}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn absorbing_class_with_multiple_states() {
        // 0 <-> 1 is a closed class of two states; 2 is transient.
        let chain =
            Dtmc::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.25, 0.25, 0.5]]).unwrap();
        let abs = AbsorbingChain::new(&chain).unwrap();
        assert_eq!(abs.closed_classes().len(), 1);
        let p = abs.absorption_probabilities_from(2).unwrap();
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!((abs.expected_steps_from(2).unwrap() - 2.0).abs() < 1e-12);
    }
}
