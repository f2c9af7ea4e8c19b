/// The `(s, x, y)` abstraction of a cluster as observed by the colluding
/// adversary: spare size `s`, malicious core count `x`, malicious spare
/// count `y`, together with the size parameters `C` and `Δ`.
///
/// The adversary coordinates its peers globally (Section V), so it always
/// knows these counts exactly; honest peers do not.
///
/// # Example
///
/// ```
/// use pollux_adversary::ClusterView;
///
/// let view = ClusterView::new(7, 7, 2, 3, 1).unwrap();
/// assert_eq!(view.quorum(), 2);
/// assert!(view.is_polluted()); // x = 3 > c = 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterView {
    core_size: usize,
    max_spare: usize,
    spare_size: usize,
    malicious_core: usize,
    malicious_spare: usize,
}

impl ClusterView {
    /// Creates a view; returns `None` when the counts are inconsistent
    /// (`x > C`, `y > s`, or `s > Δ`).
    pub fn new(
        core_size: usize,
        max_spare: usize,
        spare_size: usize,
        malicious_core: usize,
        malicious_spare: usize,
    ) -> Option<Self> {
        if core_size == 0
            || malicious_core > core_size
            || malicious_spare > spare_size
            || spare_size > max_spare
        {
            return None;
        }
        Some(ClusterView {
            core_size,
            max_spare,
            spare_size,
            malicious_core,
            malicious_spare,
        })
    }

    /// Core size `C`.
    pub fn core_size(&self) -> usize {
        self.core_size
    }

    /// Maximal spare size `Δ`.
    pub fn max_spare(&self) -> usize {
        self.max_spare
    }

    /// Spare size `s`.
    pub fn spare_size(&self) -> usize {
        self.spare_size
    }

    /// Malicious core count `x`.
    pub fn malicious_core(&self) -> usize {
        self.malicious_core
    }

    /// Malicious spare count `y`.
    pub fn malicious_spare(&self) -> usize {
        self.malicious_spare
    }

    /// Quorum threshold `c = ⌊(C−1)/3⌋`.
    pub fn quorum(&self) -> usize {
        (self.core_size - 1) / 3
    }

    /// `true` when `x > c`.
    pub fn is_polluted(&self) -> bool {
        self.malicious_core > self.quorum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(ClusterView::new(0, 7, 0, 0, 0).is_none());
        assert!(ClusterView::new(7, 7, 2, 8, 0).is_none()); // x > C
        assert!(ClusterView::new(7, 7, 2, 0, 3).is_none()); // y > s
        assert!(ClusterView::new(7, 7, 8, 0, 0).is_none()); // s > Δ
        assert!(ClusterView::new(7, 7, 7, 7, 7).is_some());
    }

    #[test]
    fn pollution_and_quorum() {
        let v = ClusterView::new(7, 7, 0, 2, 0).unwrap();
        assert!(!v.is_polluted());
        let v = ClusterView::new(7, 7, 0, 3, 0).unwrap();
        assert!(v.is_polluted());
        assert_eq!(ClusterView::new(10, 7, 0, 0, 0).unwrap().quorum(), 3);
    }
}
