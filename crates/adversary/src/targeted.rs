use crate::rules;
use crate::{ClusterView, JoinDecision, Strategy};

/// The paper's targeted-attack strategy (Section V): Rule 1 + Rule 2 +
/// biased maintenance, parameterized by the protocol's randomization
/// amount `k` and the Rule-1 confidence threshold `ν`.
///
/// # Example
///
/// ```
/// use pollux_adversary::{ClusterView, Strategy, TargetedStrategy};
///
/// let s = TargetedStrategy::new(7, 0.1).unwrap();
/// // Safe cluster with one malicious core member and a malicious-heavy
/// // spare set: the adversary gambles on the k = 7 reshuffle.
/// let view = ClusterView::new(7, 7, 3, 1, 3).unwrap();
/// assert!(s.voluntary_core_leave(&view));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetedStrategy {
    k: usize,
    nu: f64,
}

impl TargetedStrategy {
    /// Creates the strategy for `protocol_k` with threshold `ν ∈ (0, 1)`.
    ///
    /// Returns `None` when `k == 0` or `ν` is outside `(0, 1)`.
    pub fn new(k: usize, nu: f64) -> Option<Self> {
        if k == 0 || !(0.0 < nu && nu < 1.0) {
            return None;
        }
        Some(TargetedStrategy { k, nu })
    }
}

impl Strategy for TargetedStrategy {
    fn name(&self) -> &'static str {
        "targeted"
    }

    fn join_decision(&self, view: &ClusterView, joiner_malicious: bool) -> JoinDecision {
        if rules::rule2_discards(view, joiner_malicious) {
            JoinDecision::Discard
        } else {
            JoinDecision::Accept
        }
    }

    fn voluntary_core_leave(&self, view: &ClusterView) -> bool {
        rules::rule1_triggers(view, self.k, self.nu)
    }

    fn biases_maintenance(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(TargetedStrategy::new(0, 0.1).is_none());
        assert!(TargetedStrategy::new(1, 0.0).is_none());
        assert!(TargetedStrategy::new(1, 1.0).is_none());
        let s = TargetedStrategy::new(3, 0.2).unwrap();
        assert_eq!(s.name(), "targeted");
        assert!(s.biases_maintenance());
    }

    #[test]
    fn rule2_wiring() {
        let s = TargetedStrategy::new(1, 0.1).unwrap();
        let polluted_midband = ClusterView::new(7, 7, 3, 3, 0).unwrap();
        assert_eq!(
            s.join_decision(&polluted_midband, false),
            JoinDecision::Discard
        );
        assert_eq!(
            s.join_decision(&polluted_midband, true),
            JoinDecision::Accept
        );
        let near_split = ClusterView::new(7, 7, 6, 3, 0).unwrap();
        assert_eq!(s.join_decision(&near_split, true), JoinDecision::Discard);
        let safe = ClusterView::new(7, 7, 3, 1, 0).unwrap();
        assert_eq!(s.join_decision(&safe, false), JoinDecision::Accept);
    }

    #[test]
    fn rule1_wiring_depends_on_k() {
        let favourable = ClusterView::new(7, 7, 3, 1, 3).unwrap();
        assert!(!TargetedStrategy::new(1, 0.1)
            .unwrap()
            .voluntary_core_leave(&favourable));
        assert!(TargetedStrategy::new(7, 0.1)
            .unwrap()
            .voluntary_core_leave(&favourable));
    }
}
