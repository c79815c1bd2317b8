//! Marginal ancestral sequence reconstruction.
//!
//! CodeML's `RateAncestor` feature: after fitting, infer the posterior
//! distribution of the codon at every internal node and site. Uses the
//! standard up/down (inside/outside) algorithm:
//!
//! * **up** pass = Felsenstein pruning: `up_v[s]` is the likelihood of the
//!   data below `v` given state `s` at `v`;
//! * **down** pass (preorder): `down_v[s]` is the likelihood of all data
//!   *outside* `v`'s subtree given state `s` at `v`, built from the
//!   parent's `down` and the siblings' branch-propagated `up`s;
//! * posterior at `v` ∝ `up_v[s] · down_v[s]`, mixed over the four
//!   branch-site classes with their proportions.
//!
//! Both passes rescale every column to maximum 1 and carry the log of the
//! factors divided out, and the class mixture is accumulated against a
//! per-column log offset, so deep trees do not underflow.
//!
//! Reconstruction runs once per fitted model (not in the optimization hot
//! loop), so this implementation favors clarity over kernel tuning — it
//! always uses the Slim Eq. 10 expm path.

use crate::engine::EngineConfig;
use crate::problem::LikelihoodProblem;
use slim_bio::Codon;
use slim_expm::EigenSystem;
use slim_linalg::{LinalgError, Mat};
use slim_model::{build_rate_matrix, rate_components, BranchSiteModel, ScalePolicy};

/// Posterior codon distributions at the internal nodes.
#[derive(Debug, Clone)]
pub struct AncestralReconstruction {
    /// For each node (arena index): `Some(post)` for internal nodes where
    /// `post` is `61 × n_patterns` with columns summing to 1.
    pub posteriors: Vec<Option<Mat>>,
    /// Pattern index per alignment site (copied from the problem for
    /// convenient expansion).
    site_to_pattern: Vec<usize>,
}

/// One reconstructed state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructedCodon {
    /// Most probable codon.
    pub codon: Codon,
    /// Its posterior probability.
    pub posterior: f64,
}

impl AncestralReconstruction {
    /// The most probable codon (and its posterior) at `node` for every
    /// alignment site.
    ///
    /// # Panics
    /// Panics if `node` is a leaf (leaves are observed, not
    /// reconstructed).
    pub fn most_probable_codons(
        &self,
        node: usize,
        code: &slim_bio::GeneticCode,
    ) -> Vec<ReconstructedCodon> {
        let post = self.posteriors[node]
            .as_ref()
            .expect("ancestral reconstruction exists only for internal nodes");
        self.site_to_pattern
            .iter()
            .map(|&p| {
                let mut best = 0usize;
                let mut best_p = 0.0f64;
                for s in 0..post.rows() {
                    if post[(s, p)] > best_p {
                        best_p = post[(s, p)];
                        best = s;
                    }
                }
                ReconstructedCodon {
                    codon: code.sense_codon(best),
                    posterior: best_p,
                }
            })
            .collect()
    }
}

/// Reconstruct ancestral codon posteriors under the branch-site model at
/// fixed parameters (typically the H1 MLE).
///
/// # Errors
/// Propagates eigensolver failures.
///
/// # Panics
/// Panics on branch-length length mismatch.
pub fn ancestral_reconstruction(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    model: &BranchSiteModel,
    branch_lengths: &[f64],
) -> Result<AncestralReconstruction, LinalgError> {
    assert_eq!(branch_lengths.len(), problem.n_branches());
    let n = problem.pi.len();
    let n_pat = problem.n_patterns();
    let n_nodes = problem.children.len();

    // Eigensystems per distinct ω, shared-scale convention (same as the
    // likelihood engine).
    let omegas = model.omegas();
    let (syn, nonsyn) = rate_components(&problem.code, model.kappa, &problem.pi);
    let scale = model.shared_scale(syn, nonsyn);
    let eigensystems: Vec<EigenSystem> = omegas
        .iter()
        .map(|&w| {
            let rm = build_rate_matrix(
                &problem.code,
                model.kappa,
                w,
                &problem.pi,
                ScalePolicy::External(scale),
            );
            EigenSystem::from_rate_matrix(&rm, config.eigen)
        })
        .collect::<Result<_, _>>()?;

    // Dense P(t) per (node, needed ω).
    let mut pmats: Vec<[Option<Mat>; 3]> = (0..n_nodes).map(|_| [None, None, None]).collect();
    for node in 0..n_nodes {
        let Some(bi) = problem.branch_index[node] else {
            continue;
        };
        let t = branch_lengths[bi];
        let needed: &[usize] = if problem.is_foreground[node] {
            &[0, 1, 2]
        } else {
            &[0, 1]
        };
        for &w in needed {
            pmats[node][w] = Some(eigensystems[w].transition_matrix_eq10(t));
        }
    }

    let classes = model.site_classes();

    // Accumulate joint (unnormalized) posteriors over classes. Column `p`
    // of `joint[v]` times `exp(offset[v][p])` is the mixture; the offset is
    // the largest class log-weight seen so far, so no class underflows the
    // others away before it is compared with them.
    let mut joint: Vec<Option<Mat>> = (0..n_nodes)
        .map(|i| {
            if problem.children[i].is_empty() {
                None
            } else {
                Some(Mat::zeros(n, n_pat))
            }
        })
        .collect();
    let mut offset = vec![vec![f64::NEG_INFINITY; n_pat]; n_nodes];

    for class in &classes {
        if class.proportion <= 0.0 {
            continue;
        }
        let omega_of = |node: usize| -> usize {
            if problem.is_foreground[node] {
                class.foreground_omega
            } else {
                class.background_omega
            }
        };

        // ---- up pass (postorder). Every internal column is rescaled to
        // maximum 1; `up_log[v][p]` is the log of all factors divided out
        // in v's subtree. ----
        let mut up: Vec<Mat> = (0..n_nodes).map(|_| Mat::zeros(n, n_pat)).collect();
        let mut up_log = vec![vec![0.0f64; n_pat]; n_nodes];
        // `up_branch[v]` = P(t_v) · up[v] — v's message to its parent.
        let mut up_branch: Vec<Mat> = (0..n_nodes).map(|_| Mat::zeros(n, n_pat)).collect();

        for &node in &problem.postorder {
            if let Some(taxon) = problem.leaf_taxon[node] {
                for p in 0..n_pat {
                    let codon = problem.patterns.pattern(p)[taxon];
                    if codon == slim_bio::patterns::MISSING {
                        for s in 0..n {
                            up[node][(s, p)] = 1.0;
                        }
                    } else {
                        up[node][(codon, p)] = 1.0;
                    }
                }
            } else {
                for s in 0..n {
                    for p in 0..n_pat {
                        up[node][(s, p)] = 1.0;
                    }
                }
                for &child in &problem.children[node] {
                    for s in 0..n {
                        for p in 0..n_pat {
                            up[node][(s, p)] *= up_branch[child][(s, p)];
                        }
                    }
                    let child_log = up_log[child].clone();
                    add_logs(&mut up_log[node], &child_log);
                }
                rescale_columns(&mut up[node], &mut up_log[node]);
            }
            if problem.branch_index[node].is_some() {
                let pm = pmats[node][omega_of(node)].as_ref().expect("P built");
                slim_expm::cpv::apply_dense(
                    slim_expm::CpvStrategy::BundledGemm,
                    pm,
                    &up[node],
                    &mut up_branch[node],
                );
            }
        }

        // ---- down pass (preorder), rescaled like the up pass. ----
        let mut down: Vec<Mat> = (0..n_nodes).map(|_| Mat::zeros(n, n_pat)).collect();
        let mut down_log = vec![vec![0.0f64; n_pat]; n_nodes];
        let preorder: Vec<usize> = problem.postorder.iter().rev().copied().collect();
        for &node in &preorder {
            if node == problem.root {
                for s in 0..n {
                    for p in 0..n_pat {
                        down[node][(s, p)] = problem.pi[s];
                    }
                }
            }
            // Push down to children: down_child = P_childᵀ · (down_node ·
            // Π_{siblings} up_branch_sibling).
            let children = problem.children[node].clone();
            for &child in &children {
                let mut outside = down[node].clone();
                let mut outside_log = down_log[node].clone();
                for &sib in &children {
                    if sib != child {
                        for s in 0..n {
                            for p in 0..n_pat {
                                outside[(s, p)] *= up_branch[sib][(s, p)];
                            }
                        }
                        add_logs(&mut outside_log, &up_log[sib]);
                    }
                }
                // down_child[s] = Σ_{s'} P(s'→s) outside[s'] — a transposed
                // product.
                let pm = pmats[child][omega_of(child)].as_ref().expect("P built");
                let mut result = Mat::zeros(n, n_pat);
                slim_linalg::gemm(
                    1.0,
                    pm,
                    slim_linalg::Transpose::Yes,
                    &outside,
                    slim_linalg::Transpose::No,
                    0.0,
                    &mut result,
                );
                rescale_columns(&mut result, &mut outside_log);
                down[child] = result;
                down_log[child] = outside_log;
            }
        }

        // ---- joint accumulation for internal nodes. ----
        for node in 0..n_nodes {
            if problem.children[node].is_empty() {
                continue;
            }
            let j = joint[node].as_mut().expect("internal joint allocated");
            for p in 0..n_pat {
                let w = class.proportion.ln() + up_log[node][p] + down_log[node][p];
                let o = &mut offset[node][p];
                if w > *o {
                    let shrink = (*o - w).exp();
                    for s in 0..n {
                        j[(s, p)] *= shrink;
                    }
                    *o = w;
                }
                let f = (w - *o).exp();
                for s in 0..n {
                    j[(s, p)] += f * up[node][(s, p)] * down[node][(s, p)];
                }
            }
        }
    }

    // Normalize columns.
    let mut posteriors: Vec<Option<Mat>> = Vec::with_capacity(n_nodes);
    for j in joint {
        posteriors.push(j.map(|mut m| {
            for p in 0..n_pat {
                let total: f64 = (0..n).map(|s| m[(s, p)]).sum();
                if total > 0.0 {
                    for s in 0..n {
                        m[(s, p)] /= total;
                    }
                }
            }
            m
        }));
    }

    Ok(AncestralReconstruction {
        posteriors,
        site_to_pattern: (0..problem.n_sites())
            .map(|s| problem.patterns.pattern_of_site(s))
            .collect(),
    })
}

/// Divide every column of `m` by its maximum, adding the log of each
/// divisor to `log`.
fn rescale_columns(m: &mut Mat, log: &mut [f64]) {
    for p in 0..m.cols() {
        let max = (0..m.rows()).map(|s| m[(s, p)]).fold(0.0, f64::max);
        if max > 0.0 {
            for s in 0..m.rows() {
                m[(s, p)] /= max;
            }
            // check: allow(det-float-accum) one rescale term per node, in fixed tree order
            log[p] += max.ln();
        }
    }
}

/// `acc[p] += add[p]` for every column.
fn add_logs(acc: &mut [f64], add: &[f64]) {
    for (a, b) in acc.iter_mut().zip(add) {
        // check: allow(det-float-accum) one subtree's rescale log per child, in fixed tree order
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_bio::{parse_newick, CodonAlignment, FreqModel, GeneticCode};
    use slim_model::Hypothesis;

    fn reconstruct(
        newick: &str,
        fasta: &str,
        bl: Option<Vec<f64>>,
    ) -> (LikelihoodProblem, AncestralReconstruction) {
        let tree = parse_newick(newick).unwrap();
        let aln = CodonAlignment::from_fasta(fasta).unwrap();
        let code = GeneticCode::universal();
        let problem = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::Equal).unwrap();
        let model = BranchSiteModel::default_start(Hypothesis::H1);
        let lengths = bl.unwrap_or_else(|| tree.branch_lengths());
        let rec =
            ancestral_reconstruction(&problem, &EngineConfig::slim(), &model, &lengths).unwrap();
        (problem, rec)
    }

    #[test]
    fn posteriors_are_distributions() {
        let (problem, rec) = reconstruct(
            "((A:0.1,B:0.2)#1:0.05,C:0.3);",
            ">A\nATGCCCTTT\n>B\nATGCCATTT\n>C\nATGCCCTTC\n",
            None,
        );
        for node in 0..problem.children.len() {
            if let Some(post) = &rec.posteriors[node] {
                for p in 0..problem.n_patterns() {
                    let total: f64 = (0..61).map(|s| post[(s, p)]).sum();
                    assert!(
                        (total - 1.0).abs() < 1e-10,
                        "node {node} pattern {p}: {total}"
                    );
                }
            } else {
                assert!(problem.children[node].is_empty());
            }
        }
    }

    #[test]
    fn identical_leaves_reconstruct_to_observed() {
        // Short branches + identical sequences: ancestors must match with
        // high confidence.
        let (problem, rec) = reconstruct(
            "((A:0.01,B:0.01)#1:0.01,C:0.01);",
            ">A\nATGTGG\n>B\nATGTGG\n>C\nATGTGG\n",
            None,
        );
        let code = GeneticCode::universal();
        for node in 0..problem.children.len() {
            if rec.posteriors[node].is_some() {
                let best = rec.most_probable_codons(node, &code);
                assert_eq!(best[0].codon.to_string_repr(), "ATG");
                assert_eq!(best[1].codon.to_string_repr(), "TGG");
                assert!(best[0].posterior > 0.99, "{}", best[0].posterior);
            }
        }
    }

    #[test]
    fn two_leaf_root_posterior_matches_manual() {
        // Root of (A, B): post[s] ∝ mix over classes of
        // prop_c π_s P_c(s→a) P_c(s→b).
        let newick = "(A#1:0.3,B:0.6);";
        let fasta = ">A\nATG\n>B\nCTG\n";
        let (problem, rec) = reconstruct(newick, fasta, None);
        let code = GeneticCode::universal();
        let model = BranchSiteModel::default_start(Hypothesis::H1);

        // Manual computation.
        let (syn, nonsyn) = rate_components(&code, model.kappa, &problem.pi);
        let scale = model.shared_scale(syn, nonsyn);
        let omegas = model.omegas();
        let ess: Vec<EigenSystem> = omegas
            .iter()
            .map(|&w| {
                let rm = build_rate_matrix(
                    &code,
                    model.kappa,
                    w,
                    &problem.pi,
                    ScalePolicy::External(scale),
                );
                EigenSystem::from_rate_matrix(&rm, slim_linalg::EigenMethod::HouseholderQl).unwrap()
            })
            .collect();
        let a_idx = code.sense_index(Codon::from_str("ATG").unwrap()).unwrap();
        let b_idx = code.sense_index(Codon::from_str("CTG").unwrap()).unwrap();
        // Identify which leaf has which branch length via the problem.
        // Leaf A is foreground (length 0.3), B background (0.6).
        let mut expected = vec![0.0f64; 61];
        for class in model.site_classes() {
            let p_fg = ess[class.foreground_omega].transition_matrix_eq10(0.3);
            let p_bg = ess[class.background_omega].transition_matrix_eq10(0.6);
            for (s, e) in expected.iter_mut().enumerate() {
                *e += class.proportion * problem.pi[s] * p_fg[(s, a_idx)] * p_bg[(s, b_idx)];
            }
        }
        let total: f64 = expected.iter().sum();
        let root = problem.root;
        let post = rec.posteriors[root].as_ref().unwrap();
        for s in 0..61 {
            assert!(
                (post[(s, 0)] - expected[s] / total).abs() < 1e-10,
                "state {s}: {} vs {}",
                post[(s, 0)],
                expected[s] / total
            );
        }
    }

    #[test]
    fn missing_data_leaf_does_not_break_reconstruction() {
        let (problem, rec) = reconstruct(
            "((A:0.1,B:0.2)#1:0.05,C:0.3);",
            ">A\nATGCCC\n>B\n------\n>C\nATGCCA\n",
            None,
        );
        let code = GeneticCode::universal();
        for node in 0..problem.children.len() {
            if rec.posteriors[node].is_some() {
                let best = rec.most_probable_codons(node, &code);
                assert_eq!(best.len(), 2);
                assert!(best.iter().all(|r| r.posterior > 0.0 && r.posterior <= 1.0));
            }
        }
    }

    #[test]
    fn deep_tree_posteriors_stay_finite() {
        // 400 species × 20 codons: without rescaling the up and down
        // vectors underflow and some columns come out 0 or NaN, while the
        // likelihood engine stays finite on the same input.
        let tree = slim_sim::yule_tree(400, 0.15, 3);
        let model = BranchSiteModel::default_start(Hypothesis::H1);
        let pi = vec![1.0 / 61.0; 61];
        let aln = slim_sim::simulate_alignment(&tree, &model, &pi, 20, 7);
        let code = GeneticCode::universal();
        let problem = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::Equal).unwrap();
        let bl = problem.branch_order_of(&tree);
        let lnl = crate::log_likelihood(&problem, &EngineConfig::slim(), &model, &bl).unwrap();
        assert!(lnl.is_finite());
        let rec = ancestral_reconstruction(&problem, &EngineConfig::slim(), &model, &bl).unwrap();
        let mut bad = 0;
        for post in rec.posteriors.iter().flatten() {
            for p in 0..problem.n_patterns() {
                let column: Vec<f64> = (0..61).map(|s| post[(s, p)]).collect();
                let total: f64 = column.iter().sum();
                if !column.iter().all(|v| v.is_finite()) || (total - 1.0).abs() > 1e-9 {
                    bad += 1;
                }
            }
        }
        assert_eq!(bad, 0, "{bad} internal-node columns are not distributions");
    }
}
