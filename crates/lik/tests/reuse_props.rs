//! Property tests on the cross-evaluation reuse engine's bit-identity
//! contract.
//!
//! The reuse engine ([`slim_lik::ReuseEvaluator`]) promises that for
//! *any* sequence of parameter updates — the optimizer-shaped mix of
//! single-coordinate finite-difference probes, multi-branch line-search
//! moves, global model steps, and exact repeats — every evaluation
//! returns the same log-likelihood **bits** as a fresh one-shot
//! evaluation of the same point, regardless of how much of the previous
//! evaluation it reused. Proptest drives that promise over random
//! sequences on every Table II dataset analog, at 1 and 4 threads, with
//! SIMD forced scalar and forced native, and with deliberately *sloppy*
//! hints (the evaluator's bitwise self-diff, not the caller's hint, is
//! the ground truth; a hint that is too narrow must be caught, never
//! believed).
//!
//! The deterministic work counters (`lik.eigen.decompositions`,
//! `lik.expm.ops_built`, `lik.reuse.units_recomputed`) of one replayed
//! central-difference gradient are pinned as well. Counters are
//! process-wide, so every test here holds [`SERIAL`] while it evaluates.

use proptest::prelude::*;
use slim_bio::{FreqModel, GeneticCode};
use slim_lik::{
    site_class_log_likelihoods, EngineConfig, LikelihoodProblem, ReuseEvaluator, ReuseHint,
    SimdMode,
};
use slim_model::BranchSiteModel;
use slim_sim::{dataset, DatasetId};
use std::sync::{Mutex, MutexGuard};

/// Serializes this file's tests so the counter deltas of
/// [`gradient_work_counts_are_pinned`] see its evaluations only.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// One optimizer-like step applied to the current point.
#[derive(Debug, Clone)]
enum Step {
    /// Central-difference probe: nudge one branch length and restore it
    /// next step (the dominant evaluation shape in a numgrad fit).
    BranchProbe { branch: usize, eps: f64 },
    /// Line-search move: scale several branch lengths at once.
    BranchMove { branches: Vec<(usize, f64)> },
    /// Global model step (κ / ω0 / ω2 / p0 / p1).
    Global { which: usize, delta: f64 },
    /// Central-difference probe on one global (restored by a later probe
    /// or step, as in a numgrad sweep).
    GlobalProbe { which: usize, eps: f64 },
    /// Move to an H0-shaped point: ω2 = 1 exactly, so the ω2 slot shares
    /// the ω1 decomposition.
    NullOmega2,
    /// Mixed step: a global change plus a branch change in one move.
    Mixed { which: usize, branch: usize },
    /// Re-evaluate the unchanged point (hit path).
    Repeat,
}

/// Weighted mix of step kinds (the vendored proptest has no `prop_oneof`,
/// so the choice is an explicit flat-map over a weight range): 3 parts
/// single-branch probes — the numgrad-dominant shape — 2 parts
/// line-search moves, 2 parts global steps, 2 parts single-global
/// probes, 1 part mixed, 1 part repeat, 1 part H0-shaped point.
fn step_strategy(n_branches: usize) -> impl Strategy<Value = Step> {
    (0usize..12).prop_flat_map(move |kind| match kind {
        0..=2 => (0..n_branches, 0usize..3)
            .prop_map(|(branch, e)| Step::BranchProbe {
                branch,
                eps: [1e-6, -1e-6, 1e-4][e],
            })
            .boxed(),
        3..=4 => proptest::collection::vec((0..n_branches, 0.8f64..1.25), 1..4)
            .prop_map(|branches| Step::BranchMove { branches })
            .boxed(),
        5..=6 => (0usize..5, 0usize..2)
            .prop_map(|(which, d)| Step::Global {
                which,
                delta: [0.0625, -0.03125][d],
            })
            .boxed(),
        7 => (0usize..5, 0..n_branches)
            .prop_map(|(which, branch)| Step::Mixed { which, branch })
            .boxed(),
        8..=9 => (0usize..5, 0usize..2)
            .prop_map(|(which, e)| Step::GlobalProbe {
                which,
                eps: [1e-6, -1e-6][e],
            })
            .boxed(),
        10 => Just(Step::NullOmega2).boxed(),
        _ => Just(Step::Repeat).boxed(),
    })
}

/// Apply `step` to the point, returning the honest hint for it.
fn apply(step: &Step, model: &mut BranchSiteModel, bl: &mut [f64]) -> ReuseHint {
    let global = |m: &mut BranchSiteModel, which: usize, delta: f64| match which {
        0 => m.kappa = (m.kappa + delta).max(0.5),
        1 => m.omega0 = (m.omega0 + delta).clamp(0.01, 0.9),
        2 => m.omega2 = (m.omega2 + delta).max(1.0),
        3 => m.p0 = (m.p0 + delta).clamp(0.05, 0.6),
        _ => m.p1 = (m.p1 + delta).clamp(0.05, 0.3),
    };
    match step {
        Step::BranchProbe { branch, eps } => {
            bl[*branch] = (bl[*branch] + eps).max(1e-7);
            ReuseHint::Sparse {
                globals: false,
                branches: vec![*branch],
            }
        }
        Step::BranchMove { branches } => {
            let mut touched: Vec<usize> = Vec::new();
            for &(b, factor) in branches {
                bl[b] *= factor;
                touched.push(b);
            }
            touched.sort_unstable();
            touched.dedup();
            ReuseHint::Sparse {
                globals: false,
                branches: touched,
            }
        }
        Step::Global { which, delta } => {
            global(model, *which, *delta);
            ReuseHint::Sparse {
                globals: true,
                branches: Vec::new(),
            }
        }
        Step::GlobalProbe { which, eps } => {
            match which {
                0 => model.kappa += eps,
                1 => model.omega0 += eps,
                2 => model.omega2 += eps,
                3 => model.p0 += eps,
                _ => model.p1 += eps,
            }
            ReuseHint::Sparse {
                globals: true,
                branches: Vec::new(),
            }
        }
        Step::NullOmega2 => {
            model.omega2 = 1.0;
            ReuseHint::Sparse {
                globals: true,
                branches: Vec::new(),
            }
        }
        Step::Mixed { which, branch } => {
            global(model, *which, 0.015625);
            bl[*branch] = (bl[*branch] * 1.0625).max(1e-7);
            ReuseHint::Sparse {
                globals: true,
                branches: vec![*branch],
            }
        }
        Step::Repeat => ReuseHint::Sparse {
            globals: false,
            branches: Vec::new(),
        },
    }
}

/// Run a random update sequence through the reuse evaluator and a fresh
/// one-shot evaluation per step, asserting bit identity throughout.
fn check_sequence(
    id: DatasetId,
    config: &EngineConfig,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let _serial = serial();
    let d = dataset(id);
    let problem = LikelihoodProblem::new(
        &d.tree,
        &d.alignment,
        &GeneticCode::universal(),
        FreqModel::F3x4,
    )
    .expect("preset dataset is well-formed");
    let mut model = d.true_model;
    let mut bl = d.tree.branch_lengths();

    let mut evaluator = ReuseEvaluator::new(&problem, config.clone());
    let mut hint = ReuseHint::Full;
    for (i, step) in std::iter::once(None)
        .chain(steps.iter().map(Some))
        .enumerate()
    {
        if let Some(step) = step {
            hint = apply(step, &mut model, &mut bl);
        }
        let reused = evaluator
            .evaluate(&model, &bl, &hint, None)
            .expect("reuse evaluation");
        let fresh =
            site_class_log_likelihoods(&problem, config, &model, &bl).expect("fresh evaluation");
        prop_assert_eq!(
            reused.lnl.to_bits(),
            fresh.lnl.to_bits(),
            "step {} ({:?}): reused lnL {} != fresh lnL {}",
            i,
            step,
            reused.lnl,
            fresh.lnl
        );
        for (p, (a, b)) in reused
            .per_pattern
            .iter()
            .zip(&fresh.per_pattern)
            .enumerate()
        {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "step {} pattern {} differs", i, p);
        }
        for (c, (a, b)) in reused.per_class.iter().zip(&fresh.per_class).enumerate() {
            for (p, (x, y)) in a.iter().zip(b).enumerate() {
                prop_assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "step {} class {} pattern {} differs",
                    i,
                    c,
                    p
                );
            }
        }
    }
    Ok(())
}

/// Cheap-enough analogs for the per-case proptest loop. Datasets ii
/// (2431 patterns) and iv (188 branches) run one fixed sequence each in
/// the deterministic test below instead.
const PROPTEST_IDS: [DatasetId; 2] = [DatasetId::I, DatasetId::III];

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Random optimizer-like sequences on the small analogs, random
    /// (threads, SIMD, block) schedule.
    #[test]
    fn reuse_is_bit_identical_over_random_sequences(
        dataset_ix in 0usize..PROPTEST_IDS.len(),
        threads_four in (0usize..2).prop_map(|b| b == 1),
        force_scalar in (0usize..2).prop_map(|b| b == 1),
        block in (0usize..3).prop_map(|i| [7usize, 64, 256][i]),
        steps in proptest::collection::vec(step_strategy(10), 2..7),
    ) {
        let id = PROPTEST_IDS[dataset_ix];
        // Branch indices from the strategy are modulo the real count.
        let n_branches = dataset(id).tree.branch_lengths().len();
        let steps: Vec<Step> = steps
            .into_iter()
            .map(|s| match s {
                Step::BranchProbe { branch, eps } => Step::BranchProbe { branch: branch % n_branches, eps },
                Step::BranchMove { branches } => Step::BranchMove {
                    branches: branches.into_iter().map(|(b, f)| (b % n_branches, f)).collect(),
                },
                Step::Mixed { which, branch } => Step::Mixed { which, branch: branch % n_branches },
                other => other,
            })
            .collect();
        let config = EngineConfig::slim()
            .with_threads(if threads_four { 4 } else { 1 })
            .with_pattern_block(block)
            .with_simd(if force_scalar { SimdMode::ForceScalar } else { SimdMode::Auto });
        check_sequence(id, &config, &steps)?;
    }
}

/// Every Table II analog, both thread counts, both SIMD modes, on one
/// fixed optimizer-shaped sequence — the coverage matrix the random test
/// samples from, run deterministically so the big analogs (ii, iv) are
/// exercised exactly once per mode — plus the CodeML-style, Slim+ and
/// Eq. 12 presets on the small analogs.
#[test]
fn reuse_is_bit_identical_on_every_dataset_shape() {
    let steps = [
        Step::BranchProbe {
            branch: 0,
            eps: 1e-6,
        },
        Step::BranchProbe {
            branch: 0,
            eps: -1e-6,
        },
        Step::BranchMove {
            branches: vec![(1, 1.25), (3, 0.8)],
        },
        Step::Repeat,
        Step::Global {
            which: 0,
            delta: 0.0625,
        },
        Step::Mixed {
            which: 3,
            branch: 2,
        },
        Step::GlobalProbe {
            which: 2,
            eps: 1e-6,
        },
        Step::NullOmega2,
        Step::GlobalProbe {
            which: 1,
            eps: -1e-6,
        },
    ];
    for id in DatasetId::ALL {
        for threads in [1usize, 4] {
            for simd in [SimdMode::ForceScalar, SimdMode::Auto] {
                let config = EngineConfig::slim().with_threads(threads).with_simd(simd);
                check_sequence(id, &config, &steps)
                    .unwrap_or_else(|e| panic!("{} threads={threads} {simd:?}: {e}", id.label()));
            }
        }
    }
    // Every preset runs the same kernel; the other CPV strategies and
    // reconstruction paths on the small analogs.
    for id in PROPTEST_IDS {
        for preset in [
            EngineConfig::codeml_style(),
            EngineConfig::slim_plus(),
            EngineConfig::slim_symmetric(),
        ] {
            for threads in [1usize, 4] {
                let config = preset.clone().with_threads(threads);
                check_sequence(id, &config, &steps).unwrap_or_else(|e| {
                    panic!("{} {} threads={threads}: {e}", id.label(), config.label)
                });
            }
        }
    }
}

/// The deterministic work counters named in the module docs.
fn work_counts() -> [u64; 3] {
    [
        "lik.eigen.decompositions",
        "lik.expm.ops_built",
        "lik.reuse.units_recomputed",
    ]
    .map(|name| slim_obs::counter(name).get())
}

/// Replay one central-difference gradient (probe order κ, ω0, ω2, p0,
/// p1, then every branch length; H0 fixes ω2) from an evaluated base
/// point, returning the work-counter deltas over the sweep.
fn gradient_work(
    evaluator: &mut ReuseEvaluator,
    model: &BranchSiteModel,
    bl: &[f64],
    omega2_free: bool,
) -> [u64; 3] {
    evaluator
        .evaluate(model, bl, &ReuseHint::Full, None)
        .expect("base point");
    let before = work_counts();
    let mut globals = vec![0usize, 1, 2, 3, 4];
    if !omega2_free {
        globals.retain(|&g| g != 2);
    }
    fn global(m: &mut BranchSiteModel, which: usize) -> &mut f64 {
        match which {
            0 => &mut m.kappa,
            1 => &mut m.omega0,
            2 => &mut m.omega2,
            3 => &mut m.p0,
            _ => &mut m.p1,
        }
    }
    for which in globals {
        for eps in [1e-6, -1e-6] {
            let mut probe = *model;
            *global(&mut probe, which) += eps;
            let hint = ReuseHint::Sparse {
                globals: true,
                branches: Vec::new(),
            };
            evaluator.evaluate(&probe, bl, &hint, None).expect("probe");
        }
    }
    for branch in 0..bl.len() {
        for eps in [1e-6, -1e-6] {
            let mut probe = bl.to_vec();
            probe[branch] += eps;
            let hint = ReuseHint::Sparse {
                globals: true,
                branches: (0..bl.len()).collect(),
            };
            evaluator
                .evaluate(model, &probe, &hint, None)
                .expect("probe");
        }
    }
    let after = work_counts();
    [0, 1, 2].map(|i| after[i] - before[i])
}

/// One gradient costs 14 decompositions in H1 (κ± 3 + 3, ω0± 3 + 1,
/// ω2± 2 + 1, p0+ 1 to restore ω2) and 8 in H0 (ω2 = ω1 share one slot);
/// an ω2 probe rebuilds one operator and recomputes only classes 2a/2b
/// on the foreground-to-root path.
#[test]
fn gradient_work_counts_are_pinned() {
    let _serial = serial();
    slim_obs::set_enabled(true);
    let d = dataset(DatasetId::I);
    let problem = LikelihoodProblem::new(
        &d.tree,
        &d.alignment,
        &GeneticCode::universal(),
        FreqModel::F3x4,
    )
    .expect("preset dataset is well-formed");
    let config = EngineConfig::slim();
    let bl = d.tree.branch_lengths();
    let h1 = d.true_model;
    assert!(
        h1.omega2 > 1.0,
        "the analog's generating model is H1-shaped"
    );
    let h0 = BranchSiteModel { omega2: 1.0, ..h1 };

    let mut evaluator = ReuseEvaluator::new(&problem, config.clone());
    assert_eq!(gradient_work(&mut evaluator, &h1, &bl, true)[0], 14);
    let mut evaluator = ReuseEvaluator::new(&problem, config.clone());
    assert_eq!(gradient_work(&mut evaluator, &h0, &bl, false)[0], 8);

    // A lone ω2 probe from an evaluated H1 point.
    let mut evaluator = ReuseEvaluator::new(&problem, config.clone());
    evaluator
        .evaluate(&h1, &bl, &ReuseHint::Full, None)
        .expect("base point");
    let before = work_counts();
    let probe = BranchSiteModel {
        omega2: h1.omega2 + 1e-6,
        ..h1
    };
    let hint = ReuseHint::Sparse {
        globals: true,
        branches: Vec::new(),
    };
    evaluator.evaluate(&probe, &bl, &hint, None).expect("probe");
    let after = work_counts();
    let fg = (0..problem.children.len())
        .find(|&v| problem.is_foreground[v])
        .expect("a foreground branch");
    let mut fg_path = 0u64;
    let mut cur = problem.parent[fg];
    while let Some(v) = cur {
        fg_path += 1;
        cur = problem.parent[v];
    }
    let blocks = problem.n_patterns().div_ceil(config.pattern_block) as u64;
    assert_eq!(after[0] - before[0], 1, "one decomposition (the ω2 slot)");
    assert_eq!(after[1] - before[1], 1, "one operator (the foreground ω2)");
    assert_eq!(
        after[2] - before[2],
        2 * blocks * fg_path,
        "classes 2a/2b on the foreground-to-root path only"
    );
}
