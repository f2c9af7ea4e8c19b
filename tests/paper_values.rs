//! Regression tests pinning the reproduction to the paper's published
//! numbers (Anceaume, Sericola, Ludinard, Tronel — DSN 2011).
//!
//! Every constant below is either printed verbatim in the paper or is an
//! exact closed form the paper states; see the "Paper vs measured" note
//! in the repository README for the two documented typos in the original
//! (Table I's `1518` and Table II's `0.26`).

use pollux::{ClusterAnalysis, InitialCondition, ModelParams, ModelSpace};
use pollux_sweep::{registry, OutputKind, SweepReport, SweepRunner};

fn analysis(mu: f64, d: f64, k: usize) -> ClusterAnalysis {
    let params = ModelParams::paper_defaults()
        .with_mu(mu)
        .with_d(d)
        .with_k(k)
        .expect("valid k");
    ClusterAnalysis::new(&params, InitialCondition::Delta).expect("paper parameters")
}

/// Runs a registry scenario, so its grid comes from the one place that
/// defines it.
fn sweep(name: &str) -> SweepReport {
    let scenario = registry::find(name).expect("registered scenario");
    SweepRunner::new().run(&scenario).expect("scenario runs")
}

/// Row indices of the δ-initial panel of `report`.
fn delta_rows(report: &SweepReport) -> Vec<usize> {
    let initial = report.column("initial").expect("initial column");
    (0..report.rows.len())
        .filter(|&r| report.rows[r][initial].to_string() == "delta")
        .collect()
}

#[test]
fn figure1_caption_288_states() {
    let space = ModelSpace::new(&ModelParams::paper_defaults());
    assert_eq!(space.len(), 288);
}

#[test]
fn section_vii_mu0_constants() {
    // "in a failure free environment (mu = 0), E(T_S)+E(T_P) = ⌊Δ²/4⌋ = 12"
    // and "p(AmS) = 0.57 and p(AlS) = 0.43".
    let a = analysis(0.0, 0.9, 1);
    assert!((a.expected_safe_events().unwrap() - 12.0).abs() < 1e-9);
    assert!(a.expected_polluted_events().unwrap() < 1e-12);
    let split = a.absorption_split().unwrap();
    assert!((split.safe_merge - 4.0 / 7.0).abs() < 1e-9);
    assert!((split.safe_split - 3.0 / 7.0).abs() < 1e-9);
}

#[test]
fn table1_magnitudes_match_paper() {
    // Paper's Table I (k = 1, alpha = delta): at mu = 0 every column reads
    // E(T_S) = 12, E(T_P) = 0; pollution time explodes with d.
    let report = sweep("table1");
    let at = |r: usize, col: &str| report.f64(r, col).unwrap();
    assert_eq!(report.rows.len(), 12);
    let mut mu0_cells = 0;
    for r in 0..report.rows.len() {
        if at(r, "mu") != 0.0 {
            continue;
        }
        mu0_cells += 1;
        let d = at(r, "d");
        assert!((at(r, "E_T_S") - 12.0).abs() < 1e-6, "d={d}");
        assert!(at(r, "E_T_P").abs() < 1e-9, "d={d}");
    }
    assert_eq!(mu0_cells, 3);
    // mu = 30 %, d = 0.999 is the paper's 9.3e9 corner.
    let corner = (0..report.rows.len())
        .find(|&r| at(r, "mu") == 0.30 && at(r, "d") == 0.999)
        .expect("mu = 0.30, d = 0.999 cell");
    let tp = at(corner, "E_T_P");
    assert!(tp > 1e8, "{tp}");
}

#[test]
fn table1_row_mu10() {
    // Paper: E(T_S) = 12.09, 12.08, 12.08; E(T_P) = 0.15, 2.6 (d=.95,.99).
    let a = analysis(0.10, 0.95, 1);
    assert!((a.expected_safe_events().unwrap() - 12.09).abs() < 0.01);
    assert!((a.expected_polluted_events().unwrap() - 0.15).abs() < 0.01);
    let a = analysis(0.10, 0.99, 1);
    assert!((a.expected_safe_events().unwrap() - 12.08).abs() < 0.01);
    assert!((a.expected_polluted_events().unwrap() - 2.6).abs() < 0.05);
}

#[test]
fn table1_row_mu20() {
    // Paper: 11.88 / 1.14 (d=.95), 11.84 / 699.7 (d=.99),
    // 11.83 / 511810822 (d=.999).
    let a = analysis(0.20, 0.95, 1);
    assert!((a.expected_safe_events().unwrap() - 11.88).abs() < 0.01);
    assert!((a.expected_polluted_events().unwrap() - 1.14).abs() < 0.01);
    let a = analysis(0.20, 0.99, 1);
    assert!((a.expected_polluted_events().unwrap() - 699.7).abs() < 0.5);
    let a = analysis(0.20, 0.999, 1);
    let tp = a.expected_polluted_events().unwrap();
    assert!((tp / 511_810_822.0 - 1.0).abs() < 1e-3, "E(T_P) = {tp}");
}

#[test]
fn table1_row_mu30() {
    // Paper: 11.54 / 5.96 (d=.95), 11.48 / 12597 (d=.99),
    // 11.47 / 9299884149 (d=.999).
    let a = analysis(0.30, 0.95, 1);
    assert!((a.expected_safe_events().unwrap() - 11.54).abs() < 0.02);
    assert!((a.expected_polluted_events().unwrap() - 5.96).abs() < 0.02);
    let a = analysis(0.30, 0.99, 1);
    assert!((a.expected_polluted_events().unwrap() - 12_597.0).abs() < 5.0);
    let a = analysis(0.30, 0.999, 1);
    let tp = a.expected_polluted_events().unwrap();
    assert!((tp / 9_299_884_149.0 - 1.0).abs() < 1e-3, "E(T_P) = {tp}");
}

#[test]
fn table1_mu10_d999_paper_typo() {
    // The paper prints 1518 here, which breaks its own d-scaling trend
    // (the mu=20% and mu=30% columns scale by ~7e5 from d=.99 to d=.999);
    // our value continues the trend and every other cell matches exactly.
    let a = analysis(0.10, 0.999, 1);
    let tp = a.expected_polluted_events().unwrap();
    assert!((tp / 1.488e6 - 1.0).abs() < 1e-2, "E(T_P) = {tp}");
}

#[test]
fn table2_successive_sojourns() {
    // Paper (d = 90%): columns mu = 0, 10, 20, 30 %:
    // E(T_S1): 12, 12.085, 11.890, 11.570
    // E(T_S2): 0, 0.013, 0.033, 0.043
    // E(T_P1): 0, 0.099, 0.558, 1.611
    // E(T_P2): 0, 0.004, 0.26 [documented typo, see README], 0.075
    let cases = [
        (0.0, 12.0, 0.0, 0.0, 0.0),
        (0.10, 12.085, 0.013, 0.099, 0.004),
        (0.20, 11.890, 0.033, 0.558, 0.026),
        (0.30, 11.570, 0.043, 1.611, 0.075),
    ];
    for (mu, s1, s2, p1, p2) in cases {
        let a = analysis(mu, 0.9, 1);
        let s = a.successive_safe_sojourns(2);
        let p = a.successive_polluted_sojourns(2);
        assert!((s[0] - s1).abs() < 0.005, "mu={mu}: T_S1 {} vs {s1}", s[0]);
        assert!((s[1] - s2).abs() < 0.002, "mu={mu}: T_S2 {} vs {s2}", s[1]);
        assert!((p[0] - p1).abs() < 0.002, "mu={mu}: T_P1 {} vs {p1}", p[0]);
        assert!((p[1] - p2).abs() < 0.002, "mu={mu}: T_P2 {} vs {p2}", p[1]);
    }
}

#[test]
fn figure4_polluted_merge_below_8_percent() {
    // Section VII-E: "strictly less than 8%" for alpha = delta, even at
    // mu = 30%, d = 90%.
    let a = analysis(0.30, 0.90, 1);
    let split = a.absorption_split().unwrap();
    assert!(split.polluted_merge < 0.08);
    assert!(split.polluted_merge > 0.06); // and it is close to the bound
    assert_eq!(split.polluted_split, 0.0);
}

#[test]
fn figure4_delta_panel_bounds_and_mu0_split() {
    // Section VII-E on every (d, mu) of the delta panel: p(AmP) stays
    // under 8 %, and at mu = 0 the split is 4/7 merge vs 3/7 split.
    let report = sweep("fig4");
    let rows = delta_rows(&report);
    assert_eq!(rows.len(), 28);
    let mut mu0_cells = 0;
    for r in rows {
        let (d, mu) = (report.f64(r, "d").unwrap(), report.f64(r, "mu").unwrap());
        let amp = report.f64(r, "p_polluted_merge").unwrap();
        assert!(amp < 0.08, "d={d} mu={mu}: p(AmP) = {amp}");
        if mu == 0.0 {
            mu0_cells += 1;
            let ams = report.f64(r, "p_safe_merge").unwrap();
            let als = report.f64(r, "p_safe_split").unwrap();
            assert!((ams - 4.0 / 7.0).abs() < 1e-9, "d={d}: p(AmS) = {ams}");
            assert!((als - 3.0 / 7.0).abs() < 1e-9, "d={d}: p(AlS) = {als}");
        }
    }
    assert_eq!(mu0_cells, 4);
}

#[test]
fn figure3_protocol1_dominates_protocol7() {
    // "protocol_1 outperforms protocol_C" on every (d, mu) of the delta
    // panel: E(T_S^(1)) >= E(T_S^(7)) and E(T_P^(1)) <= E(T_P^(7)).
    let report = sweep("fig3");
    let at = |r: usize, col: &str| report.f64(r, col).unwrap();
    let rows = delta_rows(&report);
    let (k1, k7): (Vec<usize>, Vec<usize>) = rows.iter().partition(|&&r| at(r, "k") == 1.0);
    assert_eq!((k1.len(), k7.len()), (28, 28));
    for &r1 in &k1 {
        let (d, mu) = (at(r1, "d"), at(r1, "mu"));
        let r7 = *k7
            .iter()
            .find(|&&r| at(r, "d") == d && at(r, "mu") == mu)
            .unwrap_or_else(|| panic!("no k = 7 cell at d={d} mu={mu}"));
        let (s1, s7) = (at(r1, "E_T_S"), at(r7, "E_T_S"));
        let (p1, p7) = (at(r1, "E_T_P"), at(r7, "E_T_P"));
        assert!(s1 >= s7 - 1e-9, "d={d} mu={mu}: E(T_S) {s1} < {s7}");
        assert!(p1 <= p7 + 1e-9, "d={d} mu={mu}: E(T_P) {p1} > {p7}");
    }
}

#[test]
fn figure3_protocols_bound_the_family() {
    // "protocol_1 and protocol_C bound the performance of the other ones".
    let mu = 0.25;
    let d = 0.9;
    let e_p: Vec<f64> = (1..=7)
        .map(|k| analysis(mu, d, k).expected_polluted_events().unwrap())
        .collect();
    for k in 0..6 {
        assert!(
            e_p[k] <= e_p[k + 1] + 1e-9,
            "E(T_P) not monotone at k={}",
            k + 1
        );
    }
}

#[test]
fn rule1_threshold_is_inert_for_protocol1() {
    // The paper never fixes nu. It gates only what a randomized (k > 1)
    // maintenance does, so every k = 1 row of the nu sweep reports the
    // same E(T_P), while the k = 7 rows move with nu.
    let report = sweep("ablation_nu");
    let polluted = |k: f64| -> Vec<f64> {
        (0..report.rows.len())
            .filter(|&r| report.f64(r, "k") == Some(k))
            .map(|r| report.f64(r, "E_T_P").unwrap())
            .collect()
    };
    let (k1, k7) = (polluted(1.0), polluted(7.0));
    assert_eq!((k1.len(), k7.len()), (5, 5));
    assert!(k1.iter().all(|p| (p - k1[0]).abs() < 1e-12), "{k1:?}");
    assert!(k7.iter().any(|p| (p - k7[0]).abs() > 1e-6), "{k7:?}");
}

#[test]
fn figure5_inferred_mu25_peak() {
    // The paper reports E(N_P(m))/n < 2.2%; mu = 25% reproduces that
    // ceiling (peak ~2.17% at n=500, d=90%).
    let params = ModelParams::paper_defaults().with_mu(0.25).with_d(0.9);
    let model = pollux::OverlayModel::new(&params, InitialCondition::Delta, 500).unwrap();
    let points: Vec<u64> = (0..=50).map(|i| i * 2000).collect();
    let series = model.proportion_series(&points).unwrap();
    let peak = series.iter().map(|p| p.polluted).fold(0.0, f64::max);
    assert!(peak < 0.022, "peak {peak}");
    assert!(peak > 0.020, "peak {peak}");
}

#[test]
fn figure5_samples_the_papers_axis() {
    let scenario = registry::find("fig5").expect("registered scenario");
    let OutputKind::OverlayProportions { sample_points, .. } = &scenario.kind else {
        panic!("fig5 reports overlay proportions");
    };
    assert_eq!(sample_points.len(), 51);
    assert_eq!(sample_points.last(), Some(&100_000));
}

#[test]
fn figure5_caption_lifetimes() {
    // Captions: d = 30% ⇒ L = 6.58; d = 90% ⇒ L = 46.05 (paper rounding).
    let l30 = ModelParams::paper_defaults()
        .with_d(0.3)
        .lifetime_l()
        .unwrap();
    let l90 = ModelParams::paper_defaults()
        .with_d(0.9)
        .lifetime_l()
        .unwrap();
    assert!((l30 - 6.58).abs() < 0.02, "L(30%) = {l30}");
    assert!((l90 - 46.05).abs() < 0.1, "L(90%) = {l90}");
}
