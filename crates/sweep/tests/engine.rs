//! End-to-end tests of the sweep engine: thread-count determinism,
//! registry completeness over the paper's artefacts, and a small
//! grid-to-artefact smoke test.

use std::fs;

use pollux_sweep::{
    registry, OutputFormat, OutputKind, ParamGrid, Scenario, SweepRunner, ToggleSpec,
};

/// A scenario mixing analytical and Monte-Carlo work, small enough for
/// debug-mode CI but wide enough to exercise the worker pool.
fn mixed_scenario() -> Scenario {
    Scenario::new(
        "determinism_probe",
        "analytic + MC grid for the determinism test",
        ParamGrid::paper()
            .k(vec![1, 3])
            .mu(vec![0.1, 0.3])
            .d(vec![0.5, 0.9]),
        OutputKind::McValidation {
            replications: 400,
            sigmas: 5.0,
        },
    )
}

#[test]
fn tsv_bytes_identical_across_thread_counts() {
    let scenario = mixed_scenario();
    let base = SweepRunner::new()
        .with_threads(1)
        .run(&scenario)
        .expect("runs")
        .to_tsv();
    for threads in [2, 4, 8] {
        let tsv = SweepRunner::new()
            .with_threads(threads)
            .run(&scenario)
            .expect("runs")
            .to_tsv();
        assert_eq!(tsv, base, "thread count {threads} changed output bytes");
    }
}

#[test]
fn pooled_multi_scenario_run_is_deterministic_too() {
    let scenarios = vec![
        Scenario::new(
            "probe_sojourns",
            "analytic",
            ParamGrid::paper().mu(vec![0.0, 0.2]).d(vec![0.9]),
            OutputKind::Sojourns,
        ),
        Scenario::new(
            "probe_overlay",
            "overlay MC",
            ParamGrid::paper().mu(vec![0.25]).d(vec![0.9]),
            OutputKind::OverlayMcValidation {
                n_clusters: 30,
                runs: 3,
                sample_points: vec![0, 200, 400],
                tol_safe: 1.0,
                tol_polluted: 1.0,
            },
        ),
    ];
    let one: Vec<String> = SweepRunner::new()
        .with_threads(1)
        .run_all(&scenarios)
        .expect("runs")
        .iter()
        .map(|r| r.to_tsv())
        .collect();
    let many: Vec<String> = SweepRunner::new()
        .with_threads(6)
        .run_all(&scenarios)
        .expect("runs")
        .iter()
        .map(|r| r.to_tsv())
        .collect();
    assert_eq!(one, many);
}

#[test]
fn des_validation_bytes_identical_across_thread_counts() {
    // A scaled-down twin of the registry's `des_validate` scenario
    // (same kind, same axes, smaller overlays) so debug-mode CI proves
    // the whole-overlay DES keeps the byte-identity contract.
    let scenario = Scenario::new(
        "des_probe",
        "DES validation grid for the determinism test",
        ParamGrid::paper().mu(vec![0.1, 0.25]).d(vec![0.8, 0.9]),
        OutputKind::DesValidation {
            cluster_bits: vec![5, 7],
            lambda: 1.0,
            max_events_per_cluster: 100,
            sigmas: 6.0,
        },
    );
    let base = SweepRunner::new()
        .with_threads(1)
        .run(&scenario)
        .expect("runs");
    assert_eq!(base.rows.len(), 8); // 4 cells x 2 overlay sizes
    for threads in [2, 8] {
        let report = SweepRunner::new()
            .with_threads(threads)
            .run(&scenario)
            .expect("runs");
        assert_eq!(report.to_tsv(), base.to_tsv(), "{threads} threads");
        assert_eq!(report.to_json(), base.to_json(), "{threads} threads");
    }
}

#[test]
fn registry_covers_every_paper_artefact() {
    // The paper's evaluation consists of these artefacts; each must be
    // reachable as a named scenario.
    for name in [
        "state_space", // Figure 1
        "fig3",        // Figure 3
        "table1",      // Table I
        "table2",      // Table II
        "fig4",        // Figure 4
        "fig5",        // Figure 5
        "ablation_k",  // the k-sweep lesson
        "ablation_rules",
        "ablation_nu",
        "validate_model",   // Figure 2 validation
        "validate_overlay", // Theorem 2 validation
    ] {
        let scenario = registry::find(name)
            .unwrap_or_else(|_| panic!("paper artefact '{name}' missing from registry"));
        assert!(
            !scenario.description.is_empty(),
            "'{name}' needs a description"
        );
        assert!(
            !scenario.cells().expect("expands").is_empty(),
            "'{name}' expands to zero cells"
        );
    }
    assert_eq!(registry::paper().len(), registry::PAPER_ARTEFACTS.len());
}

#[test]
fn registry_grids_match_the_papers_tables() {
    // Figure 3: 2 initials x 2 protocols x 4 d x 7 mu = 112 cells.
    assert_eq!(registry::find("fig3").unwrap().cells().unwrap().len(), 112);
    // Table I: 4 mu x 3 d.
    assert_eq!(registry::find("table1").unwrap().cells().unwrap().len(), 12);
    // Table II: one row per mu.
    assert_eq!(registry::find("table2").unwrap().cells().unwrap().len(), 4);
    // Figure 4: 2 initials x 4 d x 7 mu.
    assert_eq!(registry::find("fig4").unwrap().cells().unwrap().len(), 56);
    // The (7, 7) caption point of Figure 1 is on the state-space grid.
    assert!(registry::find("state_space")
        .unwrap()
        .cells()
        .unwrap()
        .iter()
        .any(|c| c.params.core_size() == 7 && c.params.max_spare() == 7));
}

#[test]
fn smoke_tiny_grid_end_to_end() {
    let scenario = Scenario::new(
        "smoke",
        "tiny end-to-end grid",
        ParamGrid::paper()
            .mu(vec![0.0, 0.2])
            .d(vec![0.9])
            .toggles(vec![ToggleSpec::full()]),
        OutputKind::Sojourns,
    );
    let report = SweepRunner::new()
        .with_threads(2)
        .run(&scenario)
        .expect("runs");

    // Two cells, one row each, key + measure columns.
    assert_eq!(report.rows.len(), 2);
    assert_eq!(report.columns.len(), 10);

    // The mu = 0 cell is the paper's attack-free anchor: E(T_S) = 12,
    // E(T_P) = 0.
    assert!((report.f64(0, "E_T_S").unwrap() - 12.0).abs() < 1e-6);
    assert!(report.f64(0, "E_T_P").unwrap().abs() < 1e-9);
    // Under attack the cluster spends time polluted.
    assert!(report.f64(1, "E_T_P").unwrap() > 0.0);

    // Artefacts land on disk and round-trip.
    let dir = std::env::temp_dir().join(format!("pollux-sweep-smoke-{}", std::process::id()));
    let paths = pollux_sweep::write_report(&report, &dir, OutputFormat::Both).expect("writes");
    assert_eq!(paths.len(), 2);
    let tsv = fs::read_to_string(&paths[0]).expect("readable");
    assert_eq!(tsv, report.to_tsv());
    assert_eq!(tsv.lines().count(), 3);
    let header = tsv.lines().next().unwrap();
    assert!(header.starts_with("C\tDelta\tk\tmu\td\tnu\tadversary\tinitial"));
    assert!(header.ends_with("E_T_S\tE_T_P"));
    fs::remove_dir_all(&dir).expect("cleanup");
}
