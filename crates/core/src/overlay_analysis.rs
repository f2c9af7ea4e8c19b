use pollux_markov::{CompetingChains, MarkovError};

use crate::{ClusterChain, InitialCondition, ModelParams};

/// One point of the overlay-level trajectories of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionPoint {
    /// Number of overlay events `m`.
    pub m: u64,
    /// `E(N_S(m))/n` — expected proportion of safe (transient) clusters.
    pub safe: f64,
    /// `E(N_P(m))/n` — expected proportion of polluted (transient)
    /// clusters.
    pub polluted: f64,
}

/// The overlay-level model of Section VIII: `n` clusters evolving as
/// competing Markov chains (each overlay event hits one uniformly chosen
/// cluster).
///
/// # Example
///
/// ```
/// use pollux::{InitialCondition, ModelParams, OverlayModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = ModelParams::paper_defaults().with_mu(0.2).with_d(0.9);
/// let model = OverlayModel::new(&params, InitialCondition::Delta, 500)?;
/// let series = model.proportion_series(&[0, 1000, 10_000])?;
/// assert!((series[0].safe - 1.0).abs() < 1e-12);
/// assert!(series[2].safe < series[1].safe);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OverlayModel {
    chain: ClusterChain,
    competing: CompetingChains,
    alpha: Vec<f64>,
}

impl OverlayModel {
    /// Builds the model for `n` clusters under `params` and `initial`.
    ///
    /// # Errors
    ///
    /// Propagates chain-construction and distribution failures; `n` must
    /// be at least 1.
    pub fn new(
        params: &ModelParams,
        initial: InitialCondition,
        n: u64,
    ) -> Result<Self, MarkovError> {
        let chain = ClusterChain::build(params);
        let alpha = initial.distribution(chain.space())?;
        let competing = CompetingChains::new(chain.sparse_dtmc(), n)?;
        Ok(OverlayModel {
            chain,
            competing,
            alpha,
        })
    }

    /// Theorem 2 evaluated at the given (sorted, increasing) event counts.
    ///
    /// # Errors
    ///
    /// Propagates validation failures of the competing-chain evaluation.
    pub fn proportion_series(
        &self,
        sample_points: &[u64],
    ) -> Result<Vec<ProportionPoint>, MarkovError> {
        let space = self.chain.space();
        let safe: Vec<usize> = space.transient_safe().to_vec();
        let polluted: Vec<usize> = space.transient_polluted().to_vec();
        let rows =
            self.competing
                .proportion_series(&self.alpha, &[&safe, &polluted], sample_points)?;
        Ok(sample_points
            .iter()
            .zip(rows)
            .map(|(&m, row)| ProportionPoint {
                m,
                safe: row[0],
                polluted: row[1],
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(mu: f64, d: f64, n: u64) -> OverlayModel {
        let params = ModelParams::paper_defaults().with_mu(mu).with_d(d);
        OverlayModel::new(&params, InitialCondition::Delta, n).unwrap()
    }

    #[test]
    fn starts_fully_safe_and_decays() {
        let m = model(0.2, 0.9, 100);
        let series = m.proportion_series(&[0, 100, 1000, 50_000]).unwrap();
        assert!((series[0].safe - 1.0).abs() < 1e-12);
        assert_eq!(series[0].polluted, 0.0);
        assert!(series[1].safe <= 1.0);
        assert!(series[3].safe < series[2].safe);
        // Everything is eventually absorbed.
        let tail = m.proportion_series(&[2_000_000]).unwrap();
        assert!(tail[0].safe < 1e-3);
        assert!(tail[0].polluted < 1e-3);
    }

    #[test]
    fn polluted_proportion_is_small_for_delta_start() {
        // Figure 5's headline: the expected proportion of polluted
        // clusters stays low (the paper reports < 2.2 % for its settings).
        let m = model(0.3, 0.9, 500);
        let points: Vec<u64> = (0..=40).map(|i| i * 2500).collect();
        let series = m.proportion_series(&points).unwrap();
        let peak = series.iter().map(|p| p.polluted).fold(0.0, f64::max);
        assert!(peak < 0.05, "peak polluted proportion {peak}");
        assert!(peak > 0.0);
    }

    #[test]
    fn larger_n_stretches_time() {
        let small = model(0.2, 0.9, 500);
        let large = model(0.2, 0.9, 1500);
        let at = [30_000u64];
        let s = small.proportion_series(&at).unwrap();
        let l = large.proportion_series(&at).unwrap();
        assert!(l[0].safe > s[0].safe);
    }

    #[test]
    fn theorem1_cross_check() {
        let m = model(0.2, 0.8, 7);
        let space = m.chain.space();
        let idx = space.transient_safe()[0];
        let via_t2 = {
            let series = m
                .competing
                .proportion_series(&m.alpha, &[&[idx]], &[25])
                .unwrap();
            series[0][0]
        };
        let via_t1 = m
            .competing
            .theorem1_state_probability(&m.alpha, idx, 25)
            .unwrap();
        assert!((via_t1 - via_t2).abs() < 1e-10, "{via_t1} vs {via_t2}");
    }
}
