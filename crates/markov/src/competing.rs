use pollux_linalg::sparse::CsrMatrix;
use pollux_linalg::vec_ops;
use pollux_prob::Binomial;

use crate::chain::validate_distribution;
use crate::classify::classify_sparse;
use crate::sparse_chain::sparse_block;
use crate::{MarkovError, SparseDtmc};

/// Each side of a sample point's binomial window leaves out at most
/// `e^{-TAIL_LN}` ≈ 4.2e-18 of the `Bin(m, 1/n)` mass, so a truncated
/// Theorem-2 proportion is within 8.5e-18 (times the initial mass) of
/// the full mixture — below the resolution of an `f64` probability.
const TAIL_LN: f64 = 40.0;

/// `n` statistically identical Markov chains of which exactly one — chosen
/// uniformly at random — makes a transition at each instant.
///
/// This is the overlay-level model of the DSN'11 paper (Section VIII,
/// following Anceaume, Castella, Ludinard & Sericola): each of the `n`
/// clusters evolves by the same per-cluster chain, and each overlay event
/// hits one uniformly chosen cluster. The marginal distribution of one
/// chain after `m` global events is a binomial mixture of the single-chain
/// transient distributions (Theorem 1), and the expected number of chains
/// inside a state subset `U` is
///
/// ```text
/// E(N_U(m)) / n = α (T/n + (1 − 1/n) I)^m 1_U        (Theorem 2)
/// ```
///
/// where `T` is the (sub-stochastic) transient block of the single-chain
/// matrix. Because `I` and `T` commute, the power expands into the same
/// binomial mixture, `Σ_ℓ Bin(m, 1/n)(ℓ) · α T^ℓ 1_U`, which is how
/// [`CompetingChains::proportion_series`] evaluates it: `α` is pushed
/// through `T` only about `m/n + O(√(m/n))` times instead of `m`.
///
/// # Example
///
/// ```
/// use pollux_markov::{CompetingChains, SparseDtmc};
///
/// # fn main() -> Result<(), pollux_markov::MarkovError> {
/// let chain = SparseDtmc::from_triplets(
///     3,
///     vec![(0, 0, 1.0), (1, 0, 0.25), (1, 1, 0.5), (1, 2, 0.25), (2, 2, 1.0)],
/// )?;
/// let comp = CompetingChains::new(&chain, 10)?;
/// let alpha = vec![0.0, 1.0, 0.0];
/// // Proportion of chains still in the transient state 1 after 20 events.
/// let series = comp.proportion_series(&alpha, &[&[1]], &[0, 20])?;
/// assert!(series[1][0] < series[0][0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompetingChains {
    chain: SparseDtmc,
    n: u64,
    /// Global indices of transient states, increasing.
    transient: Vec<usize>,
    /// Position of each global state in `transient`.
    transient_pos: Vec<Option<usize>>,
    /// The transient block `T` of the single-chain matrix, sparse.
    t_block: CsrMatrix,
}

impl CompetingChains {
    /// Builds the model for `n` copies of `chain`. Classification and
    /// the cut of `T` read only the stored transitions, so the cost is
    /// O(nnz), never O(n²).
    ///
    /// # Errors
    ///
    /// * [`MarkovError::InvalidPartition`] when `n == 0`.
    /// * [`MarkovError::NoTransientStates`] when the chain has no transient
    ///   states.
    pub fn new(chain: &SparseDtmc, n: u64) -> Result<Self, MarkovError> {
        if n == 0 {
            return Err(MarkovError::InvalidPartition(
                "need at least one competing chain".into(),
            ));
        }
        let transient = classify_sparse(chain).transient_states();
        if transient.is_empty() {
            return Err(MarkovError::NoTransientStates);
        }
        let mut transient_pos = vec![None; chain.n_states()];
        for (t, &g) in transient.iter().enumerate() {
            transient_pos[g] = Some(t);
        }
        let t_block = sparse_block(chain.matrix(), &transient, &transient);
        Ok(CompetingChains {
            chain: chain.clone(),
            n,
            transient,
            transient_pos,
            t_block,
        })
    }

    /// Restriction of a full-chain distribution to the transient block.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidDistribution`] for wrong length or
    /// negative mass.
    fn restrict(&self, alpha: &[f64]) -> Result<Vec<f64>, MarkovError> {
        if alpha.len() != self.chain.n_states() {
            return Err(MarkovError::InvalidDistribution(format!(
                "length {} does not match {} states",
                alpha.len(),
                self.chain.n_states()
            )));
        }
        if alpha.iter().any(|&a| a < -1e-12) {
            return Err(MarkovError::InvalidDistribution(
                "negative probability mass".into(),
            ));
        }
        Ok(vec_ops::gather(alpha, &self.transient))
    }

    /// Theorem 2: expected proportion `E(N_U(m))/n` for each subset `U`
    /// (given by global state indices) at each requested event count.
    ///
    /// `sample_points` must be sorted increasing. The result has one row
    /// per sample point, one column per subset.
    ///
    /// Evaluated as the binomial mixture
    /// `Σ_ℓ Bin(m, 1/n)(ℓ) · α T^ℓ 1_U`: `α` is pushed through `T` once
    /// per `ℓ` up to the largest window end any sample point needs, and
    /// each point sums the per-subset masses of its window with
    /// renormalized binomial weights. The window of a point drops at most
    /// `e^{-40}` of binomial mass on each side (Bernstein's inequality), so
    /// a Figure-5 series (`m ≤ 10⁵`, `n = 500`) costs about 340 pushes
    /// instead of `10⁵`; with `n = 1` the window is exactly `ℓ = m`.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::InvalidDistribution`] for a bad `alpha`.
    /// * [`MarkovError::InvalidPartition`] when `sample_points` is not
    ///   sorted, or a subset contains an out-of-range or non-transient
    ///   index (non-transient indices would always contribute 0 and are
    ///   almost certainly a caller bug).
    pub fn proportion_series(
        &self,
        alpha: &[f64],
        subsets: &[&[usize]],
        sample_points: &[u64],
    ) -> Result<Vec<Vec<f64>>, MarkovError> {
        if sample_points.windows(2).any(|w| w[0] > w[1]) {
            return Err(MarkovError::InvalidPartition(
                "sample points must be sorted increasing".into(),
            ));
        }
        // Translate subsets to transient-block positions.
        let mut masks: Vec<Vec<usize>> = Vec::with_capacity(subsets.len());
        for subset in subsets {
            let mut positions = Vec::with_capacity(subset.len());
            for &g in *subset {
                match self.transient_pos.get(g) {
                    Some(Some(t)) => positions.push(*t),
                    Some(None) => {
                        return Err(MarkovError::InvalidPartition(format!(
                            "state {g} is not transient"
                        )))
                    }
                    None => {
                        return Err(MarkovError::InvalidState {
                            index: g,
                            states: self.chain.n_states(),
                        })
                    }
                }
            }
            masks.push(positions);
        }

        let mut y = self.restrict(alpha)?;
        let p = 1.0 / self.n as f64;
        let windows: Vec<BinomialWindow> = sample_points
            .iter()
            .map(|&m| BinomialWindow::new(m, p))
            .collect();
        let pushes = windows.iter().map(BinomialWindow::last).max().unwrap_or(0);
        let mut out = vec![vec![0.0; masks.len()]; sample_points.len()];
        let mut scratch = vec![0.0; y.len()];
        for l in 0..=pushes {
            // y = α_T T^ℓ; only its per-subset masses are kept.
            let masses: Vec<f64> = masks
                .iter()
                .map(|pos| pos.iter().map(|&t| y[t]).sum())
                .collect();
            for (row, window) in out.iter_mut().zip(&windows) {
                if let Some(w) = window.weight(l) {
                    for (acc, mass) in row.iter_mut().zip(&masses) {
                        *acc += w * mass;
                    }
                }
            }
            if l < pushes {
                self.t_block.vec_mul_into(&y, &mut scratch);
                std::mem::swap(&mut y, &mut scratch);
            }
        }
        Ok(out)
    }

    /// Theorem 1: marginal probability that one designated chain is in
    /// global state `j` after `m` overlay events, evaluated directly as the
    /// binomial mixture `Σ_ℓ C(m,ℓ) (1/n)^ℓ (1−1/n)^{m−ℓ} P(X_ℓ = j)`.
    ///
    /// Cost is `O(m)` single-chain pushes; intended for cross-checking
    /// [`CompetingChains::proportion_series`] on small `m`.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::InvalidState`] for an out-of-range state.
    /// * [`MarkovError::InvalidDistribution`] for a bad `alpha`.
    pub fn theorem1_state_probability(
        &self,
        alpha: &[f64],
        j: usize,
        m: u64,
    ) -> Result<f64, MarkovError> {
        if j >= self.chain.n_states() {
            return Err(MarkovError::InvalidState {
                index: j,
                states: self.chain.n_states(),
            });
        }
        validate_distribution(alpha, self.chain.n_states())?;
        let binom =
            Binomial::new(m, 1.0 / self.n as f64).expect("1/n is a valid probability for n >= 1");
        let mut dist = alpha.to_vec();
        let mut total = binom.pmf(0) * dist[j];
        for l in 1..=m {
            dist = self.chain.matrix().vec_mul(&dist);
            total += binom.pmf(l) * dist[j];
        }
        Ok(total)
    }
}

/// The `Bin(m, p)` weights one sample point mixes, kept on the window
/// `[lo, lo + weights.len())` and renormalized over it.
///
/// Bernstein's inequality bounds each tail of `X ~ Bin(m, p)` by
/// `P(±(X − mp) ≥ t) ≤ exp(−t² / (2 (σ² + t/3)))` with `σ² = mp(1 − p)`;
/// the window is `mp ± t` for the `t` that makes this `e^{-TAIL_LN}`.
/// The weights come from the ratio recurrence
/// `pmf(ℓ+1) / pmf(ℓ) = (m − ℓ) / (ℓ + 1) · p / (1 − p)` walked out from
/// the mode and divided by their sum, so no log-gamma is evaluated and
/// the relative error of a weight is a few ulps per step from the mode
/// (≈ 1e-13 across a Figure-5 window).
struct BinomialWindow {
    lo: u64,
    weights: Vec<f64>,
}

impl BinomialWindow {
    fn new(m: u64, p: f64) -> Self {
        if p >= 1.0 {
            // One chain moves at every event: ((1 − p)I + pT)^m = T^m.
            return BinomialWindow {
                lo: m,
                weights: vec![1.0],
            };
        }
        let mean = m as f64 * p;
        let var = mean * (1.0 - p);
        let t = TAIL_LN / 3.0 + (TAIL_LN * TAIL_LN / 9.0 + 2.0 * TAIL_LN * var).sqrt();
        let lo = (mean - t).ceil().max(0.0) as u64;
        let hi = ((mean + t).floor() as u64).min(m);
        let mode = (((m as f64 + 1.0) * p).floor() as u64).clamp(lo, hi);
        let odds = p / (1.0 - p);
        let at = |l: u64| (l - lo) as usize;
        let mut weights = vec![0.0; at(hi) + 1];
        weights[at(mode)] = 1.0;
        for l in mode..hi {
            weights[at(l + 1)] = weights[at(l)] * ((m - l) as f64 / (l + 1) as f64) * odds;
        }
        for l in (lo + 1..=mode).rev() {
            weights[at(l - 1)] = weights[at(l)] * (l as f64 / (m - l + 1) as f64) / odds;
        }
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        BinomialWindow { lo, weights }
    }

    /// The largest `ℓ` with a weight.
    fn last(&self) -> u64 {
        self.lo + self.weights.len() as u64 - 1
    }

    /// The weight of `T^ℓ`, `None` outside the window.
    fn weight(&self, l: u64) -> Option<f64> {
        let i = usize::try_from(l.checked_sub(self.lo)?).ok()?;
        self.weights.get(i).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chain over `rows.len()` states with the given dense rows.
    fn sparse_rows(rows: &[&[f64]]) -> SparseDtmc {
        let triplets = rows
            .iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .filter(|&(_, &p)| p > 0.0)
                    .map(move |(j, &p)| (i, j, p))
            })
            .collect();
        SparseDtmc::from_triplets(rows.len(), triplets).unwrap()
    }

    fn ruin_chain() -> SparseDtmc {
        sparse_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.5, 0.0, 0.5, 0.0],
            &[0.0, 0.5, 0.0, 0.5],
            &[0.0, 0.0, 0.0, 1.0],
        ])
    }

    #[test]
    fn n_equal_one_reduces_to_single_chain() {
        let chain = ruin_chain();
        let comp = CompetingChains::new(&chain, 1).unwrap();
        let alpha = vec![0.0, 1.0, 0.0, 0.0];
        // With one chain every event moves it, so the "proportion" in
        // {1, 2} equals P(X_m transient).
        let series = comp
            .proportion_series(&alpha, &[&[1, 2]], &[0, 1, 2, 3])
            .unwrap();
        // m=0: in state 1 with certainty.
        assert!((series[0][0] - 1.0).abs() < 1e-12);
        // m=1: absorbed at 0 w.p. 1/2, at state 2 w.p. 1/2.
        assert!((series[1][0] - 0.5).abs() < 1e-12);
        // m=2: from state 2 -> 1 w.p. 1/2, so P(transient) = 1/4... times
        // the mass that survived: 0.5 * 0.5 = 0.25.
        assert!((series[2][0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn proportions_decay_to_zero() {
        let chain = ruin_chain();
        let comp = CompetingChains::new(&chain, 50).unwrap();
        let alpha = vec![0.0, 0.5, 0.5, 0.0];
        let series = comp
            .proportion_series(&alpha, &[&[1, 2]], &[0, 100, 1000, 10_000])
            .unwrap();
        assert!((series[0][0] - 1.0).abs() < 1e-12);
        assert!(series[1][0] < series[0][0]);
        assert!(series[2][0] < series[1][0]);
        assert!(series[3][0] < 1e-6);
    }

    #[test]
    fn larger_n_slows_the_decay() {
        let chain = ruin_chain();
        let alpha = vec![0.0, 1.0, 0.0, 0.0];
        let small = CompetingChains::new(&chain, 10).unwrap();
        let large = CompetingChains::new(&chain, 1000).unwrap();
        let at = [200u64];
        let s = small.proportion_series(&alpha, &[&[1, 2]], &at).unwrap();
        let l = large.proportion_series(&alpha, &[&[1, 2]], &at).unwrap();
        assert!(
            l[0][0] > s[0][0],
            "n=1000 should retain more transient mass ({} vs {})",
            l[0][0],
            s[0][0]
        );
    }

    #[test]
    fn theorem1_and_theorem2_agree() {
        // E(N_U(m))/n = sum_{j in U} P(X^h_m = j) by symmetry, so the
        // Theorem 1 evaluation must match the Theorem 2 iteration.
        let chain = ruin_chain();
        let comp = CompetingChains::new(&chain, 7).unwrap();
        let alpha = vec![0.0, 1.0, 0.0, 0.0];
        for m in [0u64, 1, 5, 20, 60] {
            let t2 = comp.proportion_series(&alpha, &[&[1], &[2]], &[m]).unwrap()[0].clone();
            let p1 = comp.theorem1_state_probability(&alpha, 1, m).unwrap();
            let p2 = comp.theorem1_state_probability(&alpha, 2, m).unwrap();
            assert!((t2[0] - p1).abs() < 1e-10, "m={m}: {} vs {p1}", t2[0]);
            assert!((t2[1] - p2).abs() < 1e-10, "m={m}: {} vs {p2}", t2[1]);
        }
    }

    #[test]
    fn validation_errors() {
        let chain = ruin_chain();
        assert!(CompetingChains::new(&chain, 0).is_err());
        let comp = CompetingChains::new(&chain, 5).unwrap();
        let alpha = vec![0.0, 1.0, 0.0, 0.0];
        // Unsorted sample points.
        assert!(comp.proportion_series(&alpha, &[&[1]], &[5, 1]).is_err());
        // Non-transient subset member.
        assert!(comp.proportion_series(&alpha, &[&[0]], &[1]).is_err());
        // Out-of-range subset member.
        assert!(comp.proportion_series(&alpha, &[&[9]], &[1]).is_err());
        // Bad alpha length.
        assert!(comp.proportion_series(&[1.0], &[&[1]], &[1]).is_err());
        // Irreducible chain has no transient states.
        let irr = sparse_rows(&[&[0.5, 0.5], &[0.5, 0.5]]);
        assert!(CompetingChains::new(&irr, 5).is_err());
    }

    /// The step-by-step evaluation of Theorem 2: push `α_T` through
    /// `T/n + (1 − 1/n) I` once per overlay event.
    fn stepwise_reference(
        comp: &CompetingChains,
        alpha: &[f64],
        subsets: &[&[usize]],
        sample_points: &[u64],
    ) -> Vec<Vec<f64>> {
        let inv_n = 1.0 / comp.n as f64;
        let step = comp.t_block.affine(inv_n, 1.0 - inv_n).unwrap();
        let mut y = comp.restrict(alpha).unwrap();
        let mut scratch = vec![0.0; y.len()];
        let mut m_cur = 0;
        let mut out = Vec::new();
        for &m in sample_points {
            while m_cur < m {
                step.vec_mul_into(&y, &mut scratch);
                std::mem::swap(&mut y, &mut scratch);
                m_cur += 1;
            }
            out.push(
                subsets
                    .iter()
                    .map(|u| u.iter().map(|&g| y[comp.transient_pos[g].unwrap()]).sum())
                    .collect(),
            );
        }
        out
    }

    /// A random absorbing chain of `t` transient states followed by `a`
    /// absorbing ones, each transient row leaking only `leak` of its mass
    /// towards absorption so proportions stay visible at large `m`.
    fn slow_chain(t: usize, a: usize, leak: f64, weights: &[f64]) -> SparseDtmc {
        let n = t + a;
        let mut rows = Vec::with_capacity(n);
        for i in 0..t {
            let w = &weights[i * n..(i + 1) * n];
            let stay: f64 = w[..t].iter().sum();
            let go: f64 = w[t..].iter().sum();
            let mut row: Vec<f64> = w[..t].iter().map(|x| x / stay * (1.0 - leak)).collect();
            row.extend(w[t..].iter().map(|x| x / go * leak));
            rows.push(row);
        }
        for i in 0..a {
            let mut row = vec![0.0; n];
            row[t + i] = 1.0;
            rows.push(row);
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        sparse_rows(&refs)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn mixture_matches_stepwise_recursion(
            t in 2usize..=5,
            a in 1usize..=2,
            leak in 1e-4f64..0.3,
            weights in proptest::collection::vec(0.01f64..1.0, 35),
            raw_points in proptest::collection::vec(0u64..=100_000, 1..6),
            mask in 1u32..32,
        ) {
            let chain = slow_chain(t, a, leak, &weights);
            let mut alpha = vec![0.0; t + a];
            for (i, x) in alpha.iter_mut().take(t).enumerate() {
                *x = weights[30 + i % 5];
            }
            let total: f64 = alpha.iter().sum();
            alpha.iter_mut().for_each(|x| *x /= total);
            // Sample points include 0, a repeat and m = 10⁵.
            let mut points = raw_points.clone();
            points.extend([0, raw_points[0], 100_000]);
            points.sort_unstable();
            let picked: Vec<usize> = (0..t).filter(|i| mask >> i & 1 == 1).collect();
            let first = [0usize];
            let subset: &[usize] = if picked.is_empty() { &first } else { &picked };
            let all: Vec<usize> = (0..t).collect();
            let subsets: [&[usize]; 2] = [subset, &all];
            for n in [1u64, 2, 7, 500, 1500] {
                let comp = CompetingChains::new(&chain, n).unwrap();
                let got = comp.proportion_series(&alpha, &subsets, &points).unwrap();
                let want = stepwise_reference(&comp, &alpha, &subsets, &points);
                for ((m, g), w) in points.iter().zip(&got).zip(&want) {
                    for (x, y) in g.iter().zip(w) {
                        proptest::prop_assert!(
                            (x - y).abs() <= 1e-10 * y.abs() + 1e-15,
                            "n={n} m={m}: mixture {x} vs stepwise {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn binomial_windows_hold_the_mass_and_match_the_pmf() {
        // One chain: exactly T^m.
        let one = BinomialWindow::new(12, 1.0);
        assert_eq!((one.lo, one.last(), one.weight(12)), (12, 12, Some(1.0)));
        assert_eq!(one.weight(11), None);
        // m = 0: the identity.
        let zero = BinomialWindow::new(0, 0.5);
        assert_eq!((zero.lo, zero.weights.as_slice()), (0, &[1.0][..]));
        // The Figure-5 window is 200 ± 140, not 10⁵ wide.
        let fig5 = BinomialWindow::new(100_000, 1.0 / 500.0);
        let (lo, last) = (fig5.lo, fig5.last());
        assert!(lo >= 55 && last <= 345, "window [{lo}, {last}]");
        let mass: f64 = fig5.weights.iter().sum();
        assert!((mass - 1.0).abs() < 1e-14, "{mass}");
        // Weights agree with the exact pmf wherever it is exact.
        for (m, p) in [(60u64, 1.0 / 7.0), (100, 0.5), (120, 1.0 / 1500.0)] {
            let w = BinomialWindow::new(m, p);
            let binom = Binomial::new(m, p).unwrap();
            for l in 0..=m {
                let got = w.weight(l).unwrap_or(0.0);
                assert!(
                    (got - binom.pmf(l)).abs() <= 1e-13 * binom.pmf(l) + 1e-17,
                    "m={m} p={p} l={l}: {got} vs {}",
                    binom.pmf(l)
                );
            }
        }
    }

    #[test]
    fn repeated_sample_points_allowed() {
        let chain = ruin_chain();
        let comp = CompetingChains::new(&chain, 3).unwrap();
        let alpha = vec![0.0, 1.0, 0.0, 0.0];
        let series = comp.proportion_series(&alpha, &[&[1, 2]], &[4, 4]).unwrap();
        assert_eq!(series[0], series[1]);
    }
}
