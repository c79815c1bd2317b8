//! `slim-par`: the parallel phase helpers of one likelihood evaluation
//! (§V-B's FastCodeML direction).
//!
//! One branch-site likelihood evaluation, run by the one driver in
//! [`crate::reuse`], has four phases:
//!
//! 1. **eigen** — the unscaled rate matrix of each distinct ω is built and
//!    decomposed, each independent, fanned one-per-thread
//!    ([`build_eigensystems`]);
//! 2. **expm** — one transition operator per (branch, needed ω) pair at
//!    the branch length divided by the shared rate scale, all
//!    independent, chunked across threads ([`op_items`], [`build_ops`]);
//! 3. **pruning** — units of (site class × pattern block) stream through a
//!    crossbeam channel to workers running [`crate::pruning::prune_block`]
//!    (the slim-batch pool conventions, applied within a gene);
//! 4. **reduction** — per-pattern class mixing and the weighted total, on
//!    the calling thread, in fixed pattern order with Neumaier compensated
//!    summation ([`mix_and_reduce`]).
//!
//! The auxiliary models (M0, two-ratio, M1a/M2a) share [`decompose`] and
//! [`build_op`] through [`aux_ops`].
//!
//! ## Why every thread count gives the same bits
//!
//! Phases 1–2 compute each item identically regardless of which thread
//! runs it. Phase 3's block boundaries depend only on
//! [`EngineConfig::pattern_block`], never on the thread count, and each
//! block's values are bit-identical to a full-width pass (see
//! [`crate::pruning`]). Phase 4 is the only order-sensitive step — a sum
//! over patterns — and it always runs serially in pattern order. Hence
//! `threads = 1` and `threads = N` agree to the last bit, which the
//! thread-determinism test layer locks down.

use crate::engine::{EngineConfig, ExpmPath};
use crate::problem::LikelihoodProblem;
use crate::pruning::{TransOp, N_OMEGA};
use slim_expm::{CpvStrategy, EigenSystem, PtCache, PtKey};
use slim_linalg::{simd, LinalgError, NeumaierSum};
use slim_model::{build_rate_matrix, BranchSiteModel, ScalePolicy, N_SITE_CLASSES};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Wall-clock time spent in each phase of one (or more, when accumulated)
/// likelihood evaluations — the `--timing` breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTiming {
    /// Rate-matrix construction + eigendecomposition (§III-A steps 1–2).
    pub eigen: Duration,
    /// Transition-operator reconstruction `P(t) = e^{Qt}` per branch × ω.
    pub expm: Duration,
    /// Felsenstein pruning over (site class × pattern block) units.
    pub pruning: Duration,
    /// Class mixing + fixed-order compensated total.
    pub reduction: Duration,
}

impl PhaseTiming {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.eigen + self.expm + self.pruning + self.reduction
    }

    /// Accumulate another breakdown (e.g. across evaluations of a fit).
    pub fn accumulate(&mut self, other: &PhaseTiming) {
        self.eigen += other.eigen;
        self.expm += other.expm;
        self.pruning += other.pruning;
        self.reduction += other.reduction;
    }
}

/// The shared branch-site rate scale of `model` (see
/// [`BranchSiteModel::shared_scale`]), by which every branch length is
/// divided before reconstruction.
///
/// # Errors
/// [`LinalgError::Domain`] when the scale is non-finite or not positive,
/// κ is not finite and positive, or an ω is non-finite or negative — the
/// inputs `build_rate_matrix` would panic on. NaN parameters from an
/// optimizer probe land here, and the fit objective maps the error to +∞.
pub(crate) fn checked_scale(
    problem: &LikelihoodProblem,
    model: &BranchSiteModel,
) -> Result<f64, LinalgError> {
    let (syn_flux, nonsyn_flux) =
        slim_model::codon_model::rate_components(&problem.code, model.kappa, &problem.pi);
    let scale = model.shared_scale(syn_flux, nonsyn_flux);
    let rates_ok = model.kappa.is_finite()
        && model.kappa > 0.0
        && model.omegas().iter().all(|w| w.is_finite() && *w >= 0.0);
    if scale.is_finite() && scale > 0.0 && rates_ok {
        Ok(scale)
    } else {
        Err(LinalgError::Domain {
            op: "branch-site rate scale",
            detail: format!("scale {scale} at {model:?}"),
        })
    }
}

/// Phase 1 as a reusable step: one eigensystem per ω slot of `model`,
/// decomposing each distinct (κ, ω) once (one-per-spawn when
/// `threads >= 2`). A slot whose ω bits equal an earlier slot's shares
/// its decomposition (H0's ω2 = ω1 = 1), and a slot whose (κ, ω) bits
/// match a slot of `prev` — the previous evaluation's model and systems —
/// reuses that decomposition: a decomposition is a deterministic function
/// of (κ, ω, π), so either way the bits are those of a fresh one. The
/// rest of `prev` is released before anything is decomposed.
pub(crate) fn build_eigensystems(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    model: &BranchSiteModel,
    prev: Option<(BranchSiteModel, Vec<Arc<EigenSystem>>)>,
    threads: usize,
) -> Result<Vec<Arc<EigenSystem>>, LinalgError> {
    /// Where a slot's system comes from.
    enum Source {
        /// An earlier slot of this evaluation with the same ω bits.
        Slot(usize),
        /// The previous evaluation's system for the same (κ, ω) bits.
        Prev(Arc<EigenSystem>),
        /// The `i`-th fresh decomposition.
        Fresh(usize),
    }
    let kappa = model.kappa;
    let omegas = model.omegas();
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    let prev = prev.filter(|(m, _)| same(m.kappa, kappa));
    let reused = |omega: f64| {
        let (m, systems) = prev.as_ref()?;
        let k = m.omegas().iter().position(|&o| same(o, omega))?;
        Some(systems[k].clone())
    };
    let mut todo: Vec<f64> = Vec::new();
    let sources: Vec<Source> = omegas
        .iter()
        .enumerate()
        .map(|(w, &omega)| {
            if let Some(j) = omegas[..w].iter().position(|&o| same(o, omega)) {
                Source::Slot(j)
            } else if let Some(es) = reused(omega) {
                Source::Prev(es)
            } else {
                todo.push(omega);
                Source::Fresh(todo.len() - 1)
            }
        })
        .collect();
    drop(prev);
    crate::obsm::metrics().decompositions.add(todo.len() as u64);
    let fresh: Vec<Arc<EigenSystem>> = if threads >= 2 && todo.len() >= 2 {
        let simd_mode = config.simd;
        let mut slots: Vec<Option<Result<Arc<EigenSystem>, LinalgError>>> =
            todo.iter().map(|_| None).collect();
        crossbeam::thread::scope(|scope| {
            for (slot, &omega) in slots.iter_mut().zip(todo.iter()) {
                scope.spawn(move |_| {
                    simd::with_forced(simd_mode, || {
                        *slot = Some(decompose(problem, config, kappa, omega, ScalePolicy::None));
                    });
                    // Scoped thread: flush cache-probe instants before
                    // the scope unblocks (see slim_trace::flush_thread).
                    if slim_trace::enabled() {
                        slim_trace::flush_thread();
                    }
                });
            }
        })
        .expect("eigen scope");
        slots
            .into_iter()
            .map(|s| s.expect("eigen thread filled its slot"))
            .collect::<Result<_, _>>()?
    } else {
        todo.iter()
            .map(|&omega| decompose(problem, config, kappa, omega, ScalePolicy::None))
            .collect::<Result<_, _>>()?
    };
    let mut systems: Vec<Arc<EigenSystem>> = Vec::with_capacity(omegas.len());
    for source in sources {
        let es = match source {
            Source::Slot(j) => systems[j].clone(),
            Source::Prev(es) => es,
            Source::Fresh(i) => fresh[i].clone(),
        };
        systems.push(es);
    }
    Ok(systems)
}

/// Every (node, needed ω slot, reconstruction time) of one evaluation:
/// background branches need ω0 and ω1, the foreground branch also ω2,
/// and each reconstructs at its branch length divided by the shared
/// rate `scale`.
pub(crate) fn op_items(
    problem: &LikelihoodProblem,
    branch_lengths: &[f64],
    scale: f64,
) -> Vec<(usize, usize, f64)> {
    let mut items = Vec::new();
    for node in 0..problem.children.len() {
        let Some(bi) = problem.branch_index[node] else {
            continue;
        };
        let t = branch_lengths[bi] / scale;
        let needed: &[usize] = if problem.is_foreground[node] {
            &[0, 1, 2]
        } else {
            &[0, 1]
        };
        items.extend(needed.iter().map(|&w| (node, w, t)));
    }
    items
}

/// Phase 2 as a reusable step: reconstruct one operator per
/// `(node, ω slot, t)` item. Each reconstruction is an independent
/// dsyrk/gemm; threads take contiguous chunks of the item list
/// (ownership via chunks_mut — no locks, no unsafe).
pub(crate) fn build_ops(
    config: &EngineConfig,
    eigensystems: &[Arc<EigenSystem>],
    items: &[(usize, usize, f64)],
    threads: usize,
) -> Vec<TransOp> {
    crate::obsm::metrics().ops_built.add(items.len() as u64);
    let simd_mode = config.simd;
    let expm_threads = threads.min(items.len()).max(1);
    if expm_threads < 2 {
        return items
            .iter()
            .map(|&(_, w, t)| build_op(&eigensystems[w], config, t))
            .collect();
    }
    let per = items.len().div_ceil(expm_threads);
    let mut parts: Vec<Vec<TransOp>> = items.chunks(per).map(|_| Vec::new()).collect();
    crossbeam::thread::scope(|scope| {
        for (chunk, part) in items.chunks(per).zip(parts.iter_mut()) {
            scope.spawn(move |_| {
                simd::with_forced(simd_mode, || {
                    *part = chunk
                        .iter()
                        .map(|&(_, w, t)| build_op(&eigensystems[w], config, t))
                        .collect();
                });
            });
        }
    })
    .expect("expm scope");
    parts.into_iter().flatten().collect()
}

/// Phase 4 as a reusable step: per-pattern class mixing (log-sum-exp) and
/// the weighted total — always serial, fixed pattern order, Neumaier
/// compensated, so every thread count, one-shot or reused, produces the
/// same bits. `threads` is reported in the sanitize
/// context only.
pub(crate) fn mix_and_reduce(
    problem: &LikelihoodProblem,
    props: [f64; N_SITE_CLASSES],
    per_class: &[Vec<f64>],
    threads: usize,
) -> (f64, Vec<f64>) {
    let n_pat = problem.n_patterns();
    let mut per_pattern = vec![0.0f64; n_pat];
    let mut acc = NeumaierSum::new();
    for p in 0..n_pat {
        let mut max = f64::NEG_INFINITY;
        for c in 0..N_SITE_CLASSES {
            if props[c] > 0.0 {
                let v = props[c].ln() + per_class[c][p];
                if v > max {
                    max = v;
                }
            }
        }
        let value = if max.is_finite() {
            let mut sum = 0.0;
            for c in 0..N_SITE_CLASSES {
                if props[c] > 0.0 {
                    sum += (props[c].ln() + per_class[c][p] - max).exp();
                }
            }
            max + sum.ln()
        } else {
            f64::NEG_INFINITY
        };
        per_pattern[p] = value;
        acc.add(problem.patterns.weight(p) * value);
    }
    let lnl = acc.total();
    #[cfg(feature = "sanitize")]
    slim_linalg::sanitize::check_log_value("total lnL", lnl, || {
        format!(
            "fixed-order reduction over {n_pat} patterns (threads {threads}, \
             proportions {props:?})"
        )
    });
    #[cfg(not(feature = "sanitize"))]
    let _ = threads;
    (lnl, per_pattern)
}

/// Build (or fetch from the cross-evaluation cache) the eigensystem of
/// the rate matrix for one (κ, ω) under `policy`: unscaled for the
/// branch-site engine, scaled for the auxiliary models.
pub(crate) fn decompose(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    kappa: f64,
    omega: f64,
    policy: ScalePolicy,
) -> Result<Arc<EigenSystem>, LinalgError> {
    let rm = build_rate_matrix(&problem.code, kappa, omega, &problem.pi, policy);
    match &config.eigen_cache {
        Some(cache) => cache.get_or_compute(kappa, omega, &rm, config.eigen),
        None => Ok(Arc::new(EigenSystem::from_rate_matrix(&rm, config.eigen)?)),
    }
}

/// The operator table of an auxiliary model: `systems[w]` reconstructed
/// at each branch's length for every ω slot `w` in `slots(node)`. These
/// models scale their rate matrices, so no time is divided, and their
/// operators do not count in `lik.expm.ops_built`.
///
/// # Panics
/// Panics if `branch_lengths.len()` mismatches the problem.
pub(crate) fn aux_ops(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    systems: &[Arc<EigenSystem>],
    branch_lengths: &[f64],
    slots: impl Fn(usize) -> Range<usize>,
) -> PtCache<TransOp> {
    assert_eq!(
        branch_lengths.len(),
        problem.n_branches(),
        "branch length vector has wrong length"
    );
    let mut ops = PtCache::new(problem.children.len() * N_OMEGA);
    for node in 0..problem.children.len() {
        let Some(bi) = problem.branch_index[node] else {
            continue;
        };
        let t = branch_lengths[bi];
        for w in slots(node) {
            let es = &systems[w];
            ops.insert(
                node * N_OMEGA + w,
                PtKey::new(es, t),
                build_op(es, config, t),
            );
        }
    }
    ops
}

/// Reconstruct one branch's transition operator in the representation the
/// engine's CPV strategy needs.
pub(crate) fn build_op(es: &EigenSystem, config: &EngineConfig, t: f64) -> TransOp {
    match config.cpv {
        CpvStrategy::SymmetricSymv => TransOp::Sym(es.symmetric_transition(t)),
        _ => TransOp::Dense(match config.expm {
            ExpmPath::Eq9Naive => es.transition_matrix_eq9_naive(t),
            ExpmPath::Eq9Tuned => es.transition_matrix_eq9(t),
            ExpmPath::Eq10Syrk => es.transition_matrix_eq10(t),
        }),
    }
}
