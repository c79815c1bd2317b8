//! Empirical-Bayes identification of positively-selected sites.
//!
//! After a significant LRT, "Bayesian approaches are used to assess the
//! posterior probability of a particular codon … to be evolving under
//! positive selection" (§I-A, citing Yang, Wong & Nielsen 2005). This
//! module implements the *naive* empirical Bayes (NEB) posterior at the
//! MLE: `P(class c | site) ∝ p_c · L_c(site)`. The full BEB additionally
//! integrates over a prior grid of (p0, p1, ω0, ω2); the `slim-core`
//! driver approximates that by averaging NEB posteriors over a small grid
//! around the MLE.

/// Posterior probability of each site class at each pattern, from
/// per-class per-pattern **log**-likelihoods and class proportions.
///
/// Returns `[pattern][class]` posteriors, each row summing to 1 (or all
/// zeros for a pattern with zero likelihood in every class).
///
/// # Panics
/// Panics if shapes are inconsistent.
pub fn class_posteriors(per_class_lnl: &[Vec<f64>], proportions: &[f64]) -> Vec<Vec<f64>> {
    let n_classes = per_class_lnl.len();
    assert_eq!(n_classes, proportions.len(), "class count mismatch");
    assert!(n_classes > 0);
    let n_pat = per_class_lnl[0].len();
    for c in per_class_lnl {
        assert_eq!(c.len(), n_pat, "ragged per-class likelihoods");
    }

    let mut out = vec![vec![0.0; n_classes]; n_pat];
    for p in 0..n_pat {
        // log-sum-exp across classes.
        let mut max = f64::NEG_INFINITY;
        for c in 0..n_classes {
            if proportions[c] > 0.0 {
                let v = proportions[c].ln() + per_class_lnl[c][p];
                if v > max {
                    max = v;
                }
            }
        }
        if !max.is_finite() {
            continue;
        }
        let mut denom = 0.0;
        for c in 0..n_classes {
            if proportions[c] > 0.0 {
                out[p][c] = (proportions[c].ln() + per_class_lnl[c][p] - max).exp();
                denom += out[p][c];
            }
        }
        for v in &mut out[p] {
            *v /= denom;
        }
    }
    out
}

/// Posterior probability that each pattern belongs to the
/// positively-selected classes (2a + 2b, indices 2 and 3 in the Table I
/// ordering).
///
/// The sum is clamped to 1: when classes 0 and 1 are negligible, the two
/// rounded terms can add up to one ulp above it.
pub fn positive_selection_posteriors(per_class_lnl: &[Vec<f64>], proportions: &[f64]) -> Vec<f64> {
    assert!(per_class_lnl.len() >= 4, "branch-site model has 4 classes");
    class_posteriors(per_class_lnl, proportions)
        .into_iter()
        .map(|row| (row[2] + row[3]).min(1.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posterior_proportional_to_prior_times_lik() {
        // Two classes, one pattern, equal likelihoods → posterior = prior.
        let per_class = vec![vec![-10.0], vec![-10.0]];
        let post = class_posteriors(&per_class, &[0.3, 0.7]);
        assert!((post[0][0] - 0.3).abs() < 1e-12);
        assert!((post[0][1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn likelihood_dominance() {
        // Class 1 likelihood e^10 times larger.
        let per_class = vec![vec![-20.0], vec![-10.0]];
        let post = class_posteriors(&per_class, &[0.5, 0.5]);
        assert!(post[0][1] > 0.9999);
    }

    #[test]
    fn rows_sum_to_one() {
        let per_class = vec![
            vec![-5.0, -100.0, -3.0],
            vec![-6.0, -90.0, -3.5],
            vec![-7.0, -80.0, -4.0],
            vec![-8.0, -85.0, -2.0],
        ];
        let post = class_posteriors(&per_class, &[0.4, 0.3, 0.2, 0.1]);
        for row in &post {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_proportion_class_excluded() {
        let per_class = vec![vec![-1.0], vec![-1.0]];
        let post = class_posteriors(&per_class, &[1.0, 0.0]);
        assert_eq!(post[0][1], 0.0);
        assert!((post[0][0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn positive_selection_sums_classes_2a_2b() {
        let per_class = vec![vec![-10.0], vec![-10.0], vec![-10.0], vec![-10.0]];
        let ps = positive_selection_posteriors(&per_class, &[0.25, 0.25, 0.25, 0.25]);
        assert!((ps[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn positive_selection_posterior_never_exceeds_one() {
        // Classes 0 and 1 are negligible here, and the rounded 2a and 2b
        // posteriors alone sum to 1.0000000000000002.
        let per_class = vec![
            vec![-841.5044301889393],
            vec![-860.7047449894833],
            vec![-15.070721793838864],
            vec![-25.828945544668624],
        ];
        let props = [
            0.06574606775605439,
            0.2885133233570967,
            0.5635740769989804,
            0.0821665318878684,
        ];
        let ps = positive_selection_posteriors(&per_class, &props);
        assert!(ps[0] <= 1.0, "posterior {:e} above 1", ps[0]);
    }

    #[test]
    fn underflow_safe_with_extreme_logs() {
        // Log-likelihoods around −10⁵ must not underflow the posteriors.
        let per_class = vec![
            vec![-100000.0],
            vec![-100001.0],
            vec![-100002.0],
            vec![-99999.0],
        ];
        let ps = positive_selection_posteriors(&per_class, &[0.25, 0.25, 0.25, 0.25]);
        assert!(ps[0].is_finite());
        assert!(ps[0] > 0.0 && ps[0] < 1.0);
    }
}
