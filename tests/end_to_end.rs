//! Cross-crate integration tests: the full SlimCodeML pipeline from
//! simulated data to LRT verdicts.

use proptest::prelude::*;
use slimcodeml::core::{Analysis, AnalysisOptions, Backend, BranchSiteModel, Hypothesis};
use slimcodeml::opt::GradMode;
use slimcodeml::sim::{simulate_alignment, yule_tree};

fn quick_options(backend: Backend) -> AnalysisOptions {
    AnalysisOptions {
        backend,
        max_iterations: 40,
        grad_mode: GradMode::Forward,
        ..Default::default()
    }
}

/// Simulate with strong positive selection on the longest branch.
fn selection_dataset() -> (
    slimcodeml::bio::Tree,
    slimcodeml::bio::CodonAlignment,
    BranchSiteModel,
) {
    let mut tree = yule_tree(6, 0.25, 17);
    let longest = tree
        .branch_nodes()
        .into_iter()
        .max_by(|a, b| {
            tree.node(*a)
                .branch_length
                .partial_cmp(&tree.node(*b).branch_length)
                .unwrap()
        })
        .unwrap();
    tree.set_foreground(longest).unwrap();
    let truth = BranchSiteModel {
        kappa: 2.0,
        omega0: 0.1,
        omega2: 8.0,
        p0: 0.45,
        p1: 0.2,
    };
    let pi = vec![1.0 / 61.0; 61];
    let aln = simulate_alignment(&tree, &truth, &pi, 300, 99);
    (tree, aln, truth)
}

#[test]
fn detects_simulated_positive_selection() {
    let (tree, aln, _truth) = selection_dataset();
    let analysis = Analysis::new(&tree, &aln, quick_options(Backend::Slim)).unwrap();
    let result = analysis.test_positive_selection().unwrap();
    assert!(
        result.lrt.statistic > 3.0,
        "expected a clear LRT signal, got {}",
        result.lrt.statistic
    );
    assert!(result.lrt.significant_at(0.05));
    assert!(
        result.h1.model.omega2 > 1.5,
        "w2 estimate {}",
        result.h1.model.omega2
    );
    // Some sites should be flagged.
    let flagged = result.site_posteriors.iter().filter(|&&p| p > 0.95).count();
    assert!(
        flagged > 0,
        "no sites flagged despite strong simulated selection"
    );
}

#[test]
fn null_data_yields_no_signal() {
    let tree = yule_tree(6, 0.25, 23);
    let truth = BranchSiteModel {
        kappa: 2.0,
        omega0: 0.1,
        omega2: 1.0,
        p0: 0.45,
        p1: 0.2,
    };
    let pi = vec![1.0 / 61.0; 61];
    let aln = simulate_alignment(&tree, &truth, &pi, 300, 31);
    let analysis = Analysis::new(&tree, &aln, quick_options(Backend::Slim)).unwrap();
    let result = analysis.test_positive_selection().unwrap();
    // 2ΔlnL should be tiny when the null generated the data.
    assert!(
        result.lrt.statistic < 4.0,
        "spurious LRT signal {} on null data",
        result.lrt.statistic
    );
}

#[test]
fn all_backends_agree_on_a_fixed_evaluation() {
    let (tree, aln, truth) = selection_dataset();
    let bl = tree.branch_lengths();
    let mut lnls = Vec::new();
    for backend in Backend::ALL {
        let analysis = Analysis::new(&tree, &aln, quick_options(backend)).unwrap();
        lnls.push(analysis.log_likelihood(&truth, &bl).unwrap());
    }
    for pair in lnls.windows(2) {
        let d = ((pair[0] - pair[1]) / pair[0]).abs();
        assert!(d < 1e-10, "backends disagree: {lnls:?}");
    }
}

#[test]
fn mle_beats_truth_and_truth_beats_null_params() {
    // The MLE must dominate the generating parameters, which must dominate
    // a deliberately wrong parameter set.
    let (tree, aln, truth) = selection_dataset();
    let analysis = Analysis::new(&tree, &aln, quick_options(Backend::Slim)).unwrap();
    let bl = tree.branch_lengths();
    let lnl_truth = analysis.log_likelihood(&truth, &bl).unwrap();
    let wrong = BranchSiteModel {
        kappa: 9.0,
        omega0: 0.9,
        omega2: 1.0,
        p0: 0.1,
        p1: 0.8,
    };
    let lnl_wrong = analysis.log_likelihood(&wrong, &bl).unwrap();
    assert!(
        lnl_truth > lnl_wrong,
        "truth {lnl_truth} should beat wrong {lnl_wrong}"
    );
    let fit = analysis.fit(Hypothesis::H1).unwrap();
    assert!(
        fit.lnl > lnl_truth - 1e-6,
        "MLE {} should beat truth {lnl_truth}",
        fit.lnl
    );
}

#[test]
fn iteration_accounting_is_populated() {
    let (tree, aln, _) = selection_dataset();
    let analysis = Analysis::new(&tree, &aln, quick_options(Backend::Slim)).unwrap();
    let fit = analysis.fit(Hypothesis::H0).unwrap();
    assert!(fit.iterations > 0);
    assert!(fit.f_evals > fit.iterations);
    assert!(fit.wall_time.as_nanos() > 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// lnL1 ≥ lnL0 by construction: H0's point (ω2 = 1) is feasible in
    /// H1, so the reported H1 fit never lies below H0 on any data or
    /// jittered start — here small simulated genes with and without
    /// positive selection.
    #[test]
    fn h1_never_fits_worse_than_h0(
        tree_seed in 0u64..1000,
        aln_seed in 0u64..1000,
        start_seed in 0u64..1000,
        omega2 in 1.0f64..4.0,
    ) {
        let tree = yule_tree(4, 0.15, tree_seed);
        let truth = BranchSiteModel {
            kappa: 2.5,
            omega0: 0.15,
            omega2,
            p0: 0.65,
            p1: 0.25,
        };
        let aln = simulate_alignment(&tree, &truth, &[1.0 / 61.0; 61], 30, aln_seed);
        let options = AnalysisOptions {
            seed: start_seed,
            max_iterations: 30,
            ..Default::default()
        };
        let result = Analysis::new(&tree, &aln, options)
            .unwrap()
            .test_positive_selection()
            .unwrap();
        prop_assert!(
            result.h1.lnl >= result.h0.lnl,
            "lnL1 {} < lnL0 {}",
            result.h1.lnl,
            result.h0.lnl
        );
    }
}
