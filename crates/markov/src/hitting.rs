//! Hitting probabilities: the chance of ever visiting a target set.
//!
//! For the DSN'11 model this answers "with what probability does a cluster
//! *ever* get polluted during its lifetime?" — a sharper statement than
//! the expected pollution time, because a tiny `E(T_P)` could hide either
//! rare-but-long or frequent-but-short pollution episodes.

use pollux_linalg::{Lu, Matrix};

use crate::{Dtmc, MarkovError};

/// Computes `h[i] = P(the chain started at i ever visits `targets`)` for
/// every state.
///
/// States inside `targets` have `h = 1`. States that cannot reach the
/// target set (no directed path) have `h = 0`; the remaining states are
/// solved by first-step analysis `(I − Q) h = r`, which is non-singular
/// exactly because every state kept in the system has a positive-
/// probability escape path into `targets` or the unreachable region.
///
/// # Errors
///
/// * [`MarkovError::InvalidState`] for an out-of-range target index.
/// * [`MarkovError::InvalidPartition`] for an empty target set.
pub fn hitting_probabilities(chain: &Dtmc, targets: &[usize]) -> Result<Vec<f64>, MarkovError> {
    let n = chain.n_states();
    if targets.is_empty() {
        return Err(MarkovError::InvalidPartition(
            "target set must be non-empty".into(),
        ));
    }
    let mut is_target = vec![false; n];
    for &t in targets {
        if t >= n {
            return Err(MarkovError::InvalidState {
                index: t,
                states: n,
            });
        }
        is_target[t] = true;
    }

    // Reverse reachability from the targets over positive-probability
    // edges: states outside this set can never hit.
    let mut can_reach = is_target.clone();
    let mut stack: Vec<usize> = targets.to_vec();
    // Precompute reverse adjacency on demand (n is small in this crate's
    // applications; O(n²) scan is fine and allocation-free).
    while let Some(j) = stack.pop() {
        for (i, reach) in can_reach.iter_mut().enumerate() {
            if !*reach && chain.prob(i, j) > 0.0 {
                *reach = true;
                stack.push(i);
            }
        }
    }

    // Unknowns: states that can reach the targets but are not targets.
    let unknowns: Vec<usize> = (0..n).filter(|&i| can_reach[i] && !is_target[i]).collect();
    let mut h = vec![0.0; n];
    for &t in targets {
        h[t] = 1.0;
    }
    if unknowns.is_empty() {
        return Ok(h);
    }
    let m = unknowns.len();
    let mut pos = vec![usize::MAX; n];
    for (p, &i) in unknowns.iter().enumerate() {
        pos[i] = p;
    }
    // (I - Q) h_u = r with Q the unknown-to-unknown block and
    // r[i] = P(i -> targets).
    let mut a = Matrix::identity(m);
    let mut r = vec![0.0; m];
    for (p, &i) in unknowns.iter().enumerate() {
        for j in 0..n {
            let pij = chain.prob(i, j);
            if pij == 0.0 {
                continue;
            }
            if is_target[j] {
                r[p] += pij;
            } else if pos[j] != usize::MAX {
                a[(p, pos[j])] -= pij;
            }
        }
    }
    let solution = Lu::decompose(&a)?.solve(&r)?;
    for (p, &i) in unknowns.iter().enumerate() {
        h[i] = solution[p].clamp(0.0, 1.0);
    }
    Ok(h)
}

/// Hitting probability from an initial distribution.
///
/// # Errors
///
/// Propagates [`hitting_probabilities`] failures and distribution
/// validation.
pub fn hitting_probability_from(
    chain: &Dtmc,
    alpha: &[f64],
    targets: &[usize],
) -> Result<f64, MarkovError> {
    chain.check_distribution(alpha)?;
    let h = hitting_probabilities(chain, targets)?;
    Ok(alpha.iter().zip(h.iter()).map(|(a, p)| a * p).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gamblers_ruin() -> Dtmc {
        Dtmc::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0, 0.0],
            &[0.5, 0.0, 0.5, 0.0, 0.0],
            &[0.0, 0.5, 0.0, 0.5, 0.0],
            &[0.0, 0.0, 0.5, 0.0, 0.5],
            &[0.0, 0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap()
    }

    #[test]
    fn ruin_hitting_probabilities_are_linear() {
        // P(hit state 4 from i) = i/4 for the fair walk.
        let chain = gamblers_ruin();
        let h = hitting_probabilities(&chain, &[4]).unwrap();
        for (i, want) in [(0usize, 0.0), (1, 0.25), (2, 0.5), (3, 0.75), (4, 1.0)] {
            assert!((h[i] - want).abs() < 1e-10, "state {i}: {} vs {want}", h[i]);
        }
    }

    #[test]
    fn hitting_a_transient_state() {
        // P(ever visit state 2 from 1) for the fair walk: first-step from 1:
        // h1 = 1/2 + 1/2 * 0 (absorbed at 0) = 1/2.
        let chain = gamblers_ruin();
        let h = hitting_probabilities(&chain, &[2]).unwrap();
        assert!((h[1] - 0.5).abs() < 1e-10);
        assert_eq!(h[2], 1.0);
        assert_eq!(h[0], 0.0); // absorbed, cannot reach
        assert!((h[3] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn distribution_version() {
        let chain = gamblers_ruin();
        let alpha = [0.0, 0.5, 0.0, 0.5, 0.0];
        let p = hitting_probability_from(&chain, &alpha, &[4]).unwrap();
        assert!((p - 0.5).abs() < 1e-10);
    }

    #[test]
    fn multiple_targets_union() {
        let chain = gamblers_ruin();
        let h = hitting_probabilities(&chain, &[0, 4]).unwrap();
        // Absorption in {0,4} is certain from everywhere.
        for (i, &hi) in h.iter().enumerate() {
            assert!((hi - 1.0).abs() < 1e-10, "state {i}");
        }
    }

    #[test]
    fn validation_errors() {
        let chain = gamblers_ruin();
        assert!(hitting_probabilities(&chain, &[]).is_err());
        assert!(hitting_probabilities(&chain, &[9]).is_err());
        assert!(hitting_probability_from(&chain, &[1.0], &[0]).is_err());
    }

    #[test]
    fn unreachable_targets_give_zero() {
        // Two disjoint absorbing islands: from the left island the right
        // target is unreachable.
        let chain =
            Dtmc::from_rows(&[&[1.0, 0.0, 0.0], &[0.5, 0.5, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let h = hitting_probabilities(&chain, &[2]).unwrap();
        assert_eq!(h[0], 0.0);
        assert_eq!(h[1], 0.0);
        assert_eq!(h[2], 1.0);
    }
}
