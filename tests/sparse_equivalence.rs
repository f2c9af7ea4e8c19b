//! Dense-LU vs sparse-solver equivalence: the two analytical pipelines
//! must agree to [`pollux_prob::tolerance::ANALYTIC_REL_TOL`] on every
//! sweep-visible metric across a random `(μ, d, Δ, k)` grid, plus direct
//! dense/sparse agreement of the lower-level Markov analyses and CSR edge
//! cases. The agreement predicate is the shared
//! [`pollux_prob::tolerance::analytic_close`], so this suite and the
//! `pollux-fuzz` differential oracle can never drift apart.

use pollux_prob::tolerance::analytic_close as close;
use proptest::prelude::*;

use pollux::{AnalysisMode, ClusterAnalysis, InitialCondition, ModelParams};
use pollux_linalg::sparse::CsrMatrix;
use pollux_linalg::SolverOptions;
use pollux_markov::{Dtmc, SojournAnalysis, SojournPartition, SparseDtmc};

/// Random model parameters kept small enough for debug-build dense LU.
fn params_strategy() -> impl Strategy<Value = ModelParams> {
    (
        3usize..=7,
        3usize..=8,
        0.0f64..0.6,
        0.0f64..0.95,
        0.01f64..0.5,
    )
        .prop_flat_map(|(c, delta, mu, d, nu)| {
            (1usize..=c).prop_map(move |k| {
                ModelParams::new(c, delta, k)
                    .expect("generated sizes are valid")
                    .with_mu(mu)
                    .with_d(d)
                    .with_nu(nu)
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The full pipeline: every metric the sweep engine can emit agrees
    /// between the forced-dense and forced-sparse `ClusterAnalysis`.
    #[test]
    fn pipelines_agree_on_random_grid(params in params_strategy()) {
        for initial in [InitialCondition::Delta, InitialCondition::Beta] {
            let dense =
                ClusterAnalysis::new_with_mode(&params, initial.clone(), AnalysisMode::Dense)
                    .expect("dense pipeline");
            let sparse =
                ClusterAnalysis::new_with_mode(&params, initial.clone(), AnalysisMode::Sparse)
                    .expect("sparse pipeline");
            let pairs = [
                ("E_T_S", dense.expected_safe_events(), sparse.expected_safe_events()),
                ("E_T_P", dense.expected_polluted_events(), sparse.expected_polluted_events()),
                (
                    "E_T",
                    dense.expected_absorption_events(),
                    sparse.expected_absorption_events(),
                ),
                ("var_S", dense.variance_safe_events(), sparse.variance_safe_events()),
                ("var_P", dense.variance_polluted_events(), sparse.variance_polluted_events()),
                ("p_ever", dense.pollution_probability(), sparse.pollution_probability()),
            ];
            for (name, a, b) in pairs {
                let a = a.expect("dense metric");
                let b = b.expect("sparse metric");
                prop_assert!(close(a, b), "{name} ({initial:?}): {a} vs {b}");
            }
            let sd = dense.absorption_split().expect("dense split");
            let ss = sparse.absorption_split().expect("sparse split");
            prop_assert!(close(sd.safe_merge, ss.safe_merge), "AmS: {sd:?} vs {ss:?}");
            prop_assert!(close(sd.safe_split, ss.safe_split), "AlS: {sd:?} vs {ss:?}");
            prop_assert!(
                close(sd.polluted_merge, ss.polluted_merge),
                "AmP: {sd:?} vs {ss:?}"
            );
            prop_assert!(
                close(sd.polluted_split, ss.polluted_split),
                "AlP: {sd:?} vs {ss:?}"
            );
            for (a, b) in dense
                .successive_safe_sojourns(4)
                .iter()
                .zip(sparse.successive_safe_sojourns(4).iter())
            {
                prop_assert!(close(*a, *b), "sojourn series: {a} vs {b}");
            }
            for (a, b) in dense
                .safe_time_distribution(64)
                .iter()
                .zip(sparse.safe_time_distribution(64).iter())
            {
                prop_assert!(close(*a, *b), "distribution: {a} vs {b}");
            }
        }
    }

    /// The Markov layer in isolation: `SojournAnalysis` sojourns on the
    /// same chain, dense vs forced-iterative sparse. (Sparse absorption
    /// runs inside `ClusterAnalysis`, pinned by
    /// `sparse_pipeline_agrees_with_dense`.)
    #[test]
    fn markov_analyses_agree_on_random_grid(params in params_strategy()) {
        let chain = pollux::ClusterChain::build(&params);
        let dense_chain = chain.dtmc();
        let sparse_chain = chain.sparse_dtmc();

        let partition = SojournPartition::new(
            chain.space().transient_safe().to_vec(),
            chain.space().transient_polluted().to_vec(),
        )
        .expect("disjoint partition");
        let alpha = InitialCondition::Delta
            .distribution(chain.space())
            .expect("valid initial");
        let dense_soj =
            SojournAnalysis::new(dense_chain, &partition, &alpha).expect("dense sojourns");
        let sparse_soj = SojournAnalysis::new_sparse(
            sparse_chain,
            &partition,
            &alpha,
            SolverOptions::force_sparse(),
        )
        .expect("sparse sojourns");
        for (a, b) in [
            (dense_soj.expected_total_s(), sparse_soj.expected_total_s()),
            (dense_soj.expected_total_p(), sparse_soj.expected_total_p()),
            (dense_soj.variance_s(), sparse_soj.variance_s()),
            (dense_soj.variance_p(), sparse_soj.variance_p()),
        ] {
            let a = a.expect("dense sojourn metric");
            let b = b.expect("sparse sojourn metric");
            prop_assert!(close(a, b), "{a} vs {b}");
        }
        for (a, b) in dense_soj
            .expected_sojourns_p(4)
            .iter()
            .zip(sparse_soj.expected_sojourns_p(4).iter())
        {
            prop_assert!(close(*a, *b), "P-sojourns: {a} vs {b}");
        }
    }

    /// CSR construction invariants under adversarial triplet streams:
    /// duplicates, explicit zeros and empty rows must round-trip exactly
    /// like a dense scatter-accumulate.
    #[test]
    fn csr_matches_dense_scatter(
        triplets in proptest::collection::vec(
            (0usize..6, 0usize..6, -2.0f64..2.0),
            0..40,
        ),
        zero_coords in proptest::collection::vec((0usize..6, 0usize..6), 0..8),
    ) {
        let mut all = triplets.clone();
        for &(i, j) in &zero_coords {
            all.push((i, j, 0.0));
        }
        let m = CsrMatrix::from_triplet_vec(6, 6, all.to_vec()).expect("in-bounds triplets");
        // Dense scatter-accumulate reference.
        let mut dense = [[0.0f64; 6]; 6];
        for &(i, j, v) in &all {
            dense[i][j] += v;
        }
        for (i, row) in dense.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                prop_assert_eq!(m.get(i, j), want, "({}, {})", i, j);
            }
        }
        // Stored entries are sorted, deduplicated and non-zero.
        for i in 0..6 {
            let cols: Vec<usize> = m.row_entries(i).map(|(j, _)| j).collect();
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(m.row_entries(i).all(|(_, v)| v != 0.0));
        }
        // Transpose round-trips.
        prop_assert_eq!(m.transpose().transpose(), m);
    }
}

/// Dense/sparse `Dtmc` bridges carry bit-identical probabilities, so the
/// pipelines genuinely analyze the same chain.
#[test]
fn representations_carry_identical_probabilities() {
    let params = ModelParams::paper_defaults().with_mu(0.3).with_d(0.9);
    let chain = pollux::ClusterChain::build(&params);
    let dense = chain.dtmc();
    let sparse = chain.sparse_dtmc();
    for i in 0..dense.n_states() {
        for j in 0..dense.n_states() {
            assert_eq!(dense.prob(i, j), sparse.prob(i, j), "({i}, {j})");
        }
    }
    let rebuilt = SparseDtmc::from_dense(dense);
    assert_eq!(&rebuilt, sparse);
}

/// A singular transient block (subset containing a closed class) fails
/// loudly on both pipelines rather than returning garbage.
#[test]
fn singular_systems_error_on_both_paths() {
    let chain = Dtmc::from_rows(&[&[1.0, 0.0, 0.0], &[0.5, 0.0, 0.5], &[0.0, 0.0, 1.0]]).unwrap();
    let sparse = SparseDtmc::from_dense(&chain);
    // Subset {0, 1} contains the absorbing state 0.
    let partition = SojournPartition::new(vec![0, 1], vec![]).unwrap();
    let alpha = [0.0, 1.0, 0.0];
    assert!(SojournAnalysis::new(&chain, &partition, &alpha).is_err());
    assert!(SojournAnalysis::new_sparse(
        &sparse,
        &partition,
        &alpha,
        SolverOptions::force_sparse()
    )
    .is_err());
}
