//! Limited-lifetime identifier calibration (Section III-D of the paper).
//!
//! `d` is the per-event probability that an identifier has *not* expired,
//! the half-life is `t½ = ln 2 / (1 − d)`, and `L = 6.65 · t½` guarantees
//! ≥ 99 % of a population has re-keyed within one lifetime
//! (`6.65 ≥ ln 100 / ln 2`).

/// Factor relating the half-life to the lifetime so that 99 % of a
/// population decays within `L` (the paper sets `L = 6.65 · t½`).
pub const LIFETIME_HALFLIFE_FACTOR: f64 = 6.65;

/// The paper's calibration `L = 6.65 · t½` with `t½ = ln 2 / (1 − d)`.
///
/// ```
/// use pollux_overlay::incarnation::lifetime_from_survival;
/// // Figure 5's caption: d = 30% ⇒ L ≈ 6.58, d = 90% ⇒ L ≈ 46.09.
/// assert!((lifetime_from_survival(0.3) - 6.585).abs() < 0.01);
/// assert!((lifetime_from_survival(0.9) - 46.09).abs() < 0.05);
/// ```
pub fn lifetime_from_survival(d: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&d) && d > 0.0,
        "survival probability must lie in (0,1), got {d}"
    );
    LIFETIME_HALFLIFE_FACTOR * std::f64::consts::LN_2 / (1.0 - d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_calibration_matches_paper_captions() {
        // Figure 5: d = 30% ⇒ L = 6.58; d = 90% ⇒ L = 46.05 (paper rounds).
        assert!((lifetime_from_survival(0.3) - 6.58).abs() < 0.05);
        assert!((lifetime_from_survival(0.9) - 46.05).abs() < 0.1);
    }

    #[test]
    fn ninety_nine_percent_decay_within_lifetime() {
        // With per-unit-time survival d, survival over L units is d^L ≤ 1%.
        for d in [0.3, 0.8, 0.9, 0.99] {
            let l = lifetime_from_survival(d);
            let survive = d.powf(l);
            assert!(survive <= 0.0101, "d={d}: {survive}");
        }
        // The paper's linearization 1 − d ≈ −ln d makes the bound tight
        // only for d near 1.
        for d in [0.9, 0.99] {
            let l = lifetime_from_survival(d);
            assert!(d.powf(l) >= 0.005, "d={d}");
        }
    }
}
