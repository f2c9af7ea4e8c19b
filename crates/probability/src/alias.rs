use rand::RngExt;

use crate::ProbError;

/// Walker's alias method: O(1) sampling from a fixed finite distribution
/// after O(n) preprocessing.
///
/// The Monte-Carlo simulators repeatedly sample the successor state of a
/// cluster from per-state categorical distributions; alias tables keep those
/// draws constant-time regardless of support size.
///
/// # Example
///
/// ```
/// use pollux_prob::AliasTable;
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let table = AliasTable::new(&[0.2, 0.3, 0.5]).unwrap();
/// let mut rng = StdRng::seed_from_u64(1);
/// let idx = table.sample(&mut rng);
/// assert!(idx < 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    /// Acceptance probability of each column.
    prob: Vec<f64>,
    /// Alias index taken when the column rejects.
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from non-negative weights (not necessarily
    /// normalized).
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidWeights`] when the slice is empty,
    /// contains a negative or non-finite weight, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, ProbError> {
        if weights.is_empty() {
            return Err(ProbError::InvalidWeights("empty weight vector".into()));
        }
        if let Some(w) = weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return Err(ProbError::InvalidWeights(format!(
                "weight {w} is negative or not finite"
            )));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(ProbError::InvalidWeights("total weight is zero".into()));
        }
        let n = weights.len();
        let normalized: Vec<f64> = weights.iter().map(|w| w / total).collect();

        // Scale to mean 1 and split into under/over-full columns.
        let scaled: Vec<f64> = normalized.iter().map(|p| p * n as f64).collect();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let mut small: Vec<(usize, f64)> = Vec::new();
        let mut large: Vec<(usize, f64)> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push((i, s));
            } else {
                large.push((i, s));
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let (si, sv) = small.pop().expect("checked non-empty");
            let (li, lv) = large.pop().expect("checked non-empty");
            prob[si] = sv;
            alias[si] = li;
            let rest = lv - (1.0 - sv);
            if rest < 1.0 {
                small.push((li, rest));
            } else {
                large.push((li, rest));
            }
        }
        // Remaining columns are exactly full up to rounding.
        for (i, _) in small.into_iter().chain(large) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Ok(AliasTable { prob, alias })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// `true` when the table has no categories (never constructible; kept
    /// for API completeness).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a category index in O(1).
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let col = rng.random_range(0..self.len());
        if rng.random_bool(self.prob[col].clamp(0.0, 1.0)) {
            col
        } else {
            self.alias[col]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn rejects_bad_weights() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[0.0, 0.0]).is_err());
        assert!(AliasTable::new(&[1.0, -0.5]).is_err());
        assert!(AliasTable::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn normalizes_weights() {
        // Weights 2 : 6 sample as 1/4 : 3/4 (σ ≈ 0.003 at n = 20 000).
        let t = AliasTable::new(&[2.0, 6.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let zeros = (0..n).filter(|_| t.sample(&mut rng) == 0).count();
        let freq = zeros as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.02, "freq {freq}");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn single_category_always_sampled() {
        let t = AliasTable::new(&[3.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zero_weight_categories_never_sampled() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..2000 {
            let i = t.sample(&mut rng);
            assert!(i == 1 || i == 3, "sampled zero-weight category {i}");
        }
    }

    #[test]
    fn empirical_frequencies_match_weights() {
        let weights = [0.1, 0.2, 0.3, 0.15, 0.25];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 200_000usize;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let freq = counts[i] as f64 / n as f64;
            // 5-sigma bound on a Bernoulli proportion.
            let sigma = (w * (1.0 - w) / n as f64).sqrt();
            assert!(
                (freq - w).abs() < 5.0 * sigma + 1e-4,
                "category {i}: freq {freq} vs weight {w}"
            );
        }
    }

    #[test]
    fn handles_extreme_ratios() {
        let t = AliasTable::new(&[1e-12, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| t.sample(&mut rng) == 0).count();
        assert!(hits < 5, "tiny weight sampled {hits} times");
    }
}
