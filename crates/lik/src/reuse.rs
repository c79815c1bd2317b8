//! The likelihood evaluator, and its dirty-path reuse across optimizer
//! evaluations.
//!
//! Every branch-site evaluation runs through [`ReuseEvaluator`]: the four
//! phases of [`crate::par`] (eigen, expm, pruning, reduction) with one
//! pruning kernel, [`crate::pruning::prune_block`]. Who owns the CPVs
//! decides what a call can reuse:
//!
//! * a **persistent** evaluator ([`ReuseEvaluator::new`], one per fit)
//!   keeps one unit cache per (site class × pattern block) unit and the
//!   previous evaluation's decompositions and operators;
//! * a **one-shot** evaluation ([`crate::site_class_log_likelihoods`],
//!   [`crate::log_likelihood`]) computes everything once and keeps
//!   nothing: each pruning worker owns one transient unit cache, reused
//!   across its units, that holds only O(depth) CPVs at a time. One-shot
//!   calls count in `lik.evaluations` and `lik.pruning.units` but not in
//!   `lik.reuse.*`.
//!
//! A derivative-based fit evaluates the likelihood hundreds of times, and
//! most evaluations change *one* parameter (a finite-difference probe) or
//! a handful (a line-search step along a sparse direction). A persistent
//! evaluator keeps the previous evaluation's intermediates and recomputes
//! only what the parameter delta actually touches:
//!
//! * an **eigendecomposition** is kept per ω slot while that slot's
//!   (κ, ω) bits are unchanged — the rate matrices are unscaled, and the
//!   shared rate scale is folded into each operator's time `t / scale`;
//! * a **transition operator** is rebuilt iff its [`PtKey`] (decomposition
//!   identity, `t / scale` bits) moved;
//! * a **CPV** of (site class, node) is recomputed iff an operator that
//!   class applies below the node was rebuilt.
//!
//! So a branch-length probe recomputes that branch's operators and every
//! class's CPVs on the path to the root; an ω2 probe rebuilds one
//! operator (the foreground branch's ω2) and recomputes only classes
//! 2a/2b on the foreground-to-root path; κ, ω0, p0 and p1 probes move the
//! scale (κ also every decomposition), so every operator and CPV is
//! rebuilt, but ω0, p0 and p1 keep the untouched decompositions.
//!
//! ## The invalidation contract
//!
//! The optimizer's `ParamDelta` (crate `slim-opt`) is a *hint*: an
//! upper bound on which coordinates changed. The evaluator does not trust
//! it — decompositions and operators are keyed on the exact bits of their
//! inputs and the CPV dirty set follows the operators actually rebuilt.
//! The hint is only cross-checked against a bitwise parameter diff; a
//! hint that failed to cover an observed change increments
//! `lik.reuse.hint_violations` (and panics under the `sanitize` feature)
//! but cannot produce a wrong likelihood.
//!
//! ## Why reuse is bit-identical
//!
//! Every cached object is keyed on the exact bits of its inputs
//! ((κ, ω) for decompositions, [`PtKey`] for operators, the operators
//! below a node for CPVs), and a recompute runs the same kernel on the
//! same inputs as a one-shot evaluation (see [`crate::pruning`] for the
//! per-unit argument, including the rescale bookkeeping). The final
//! reduction is the same serial fixed-order compensated sum. So reuse-on
//! and reuse-off agree to the last bit — which the identity test layer
//! replays optimizer-like update sequences to enforce.

use crate::engine::EngineConfig;
use crate::par::{
    build_eigensystems, build_ops, checked_scale, mix_and_reduce, op_items, PhaseTiming,
};
use crate::problem::LikelihoodProblem;
use crate::pruning::{
    prune_block, ClassBlock, LikelihoodValue, PruneScratch, TransOp, UnitCache, N_OMEGA,
};
use slim_expm::{EigenSystem, PtCache, PtKey};
use slim_linalg::{simd, LinalgError};
use slim_model::BranchSiteModel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the caller believes changed since the previous evaluation —
/// translated from the optimizer's coordinate delta by the analysis
/// layer. Advisory only: see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReuseHint {
    /// Anything may have changed (first call, restart, unknown caller).
    Full,
    /// Only the listed pieces may have changed.
    Sparse {
        /// Whether any global (κ, ω0, ω2, p0, p1) may have changed.
        globals: bool,
        /// Branch indices whose lengths may have changed.
        branches: Vec<usize>,
    },
}

/// The previous evaluation's reusable intermediates.
struct EvalState {
    /// Globals the caches were computed under (compared bitwise).
    model: BranchSiteModel,
    /// Branch lengths the caches were computed under (compared bitwise).
    branch_lengths: Vec<f64>,
    /// The shared rate scale every operator's time was divided by.
    scale: f64,
    /// One eigendecomposition per ω slot (equal ω slots share one).
    eigensystems: Vec<Arc<EigenSystem>>,
    /// Per-(node × ω) transition operators, validity-keyed on
    /// (decomposition id, branch-length bits).
    ops: PtCache<TransOp>,
    /// (class index, block start, block width) of each pruning unit — a
    /// geometry fingerprint; any change drops every unit cache.
    unit_shape: Vec<(usize, usize, usize)>,
    /// Cached CPVs + rescale records, one per unit in `unit_shape` order.
    units: Vec<UnitCache>,
    /// The full previous result, for the nothing-changed shortcut.
    value: LikelihoodValue,
}

/// A stateful likelihood evaluator that reuses the previous evaluation's
/// operators and CPVs along clean paths. One per fit (per hypothesis);
/// owns its caches, no sharing, no locking.
pub struct ReuseEvaluator<'p> {
    problem: &'p LikelihoodProblem,
    config: EngineConfig,
    /// Number of internal (non-leaf) nodes — the per-unit CPV count.
    n_internal: usize,
    /// Whether evaluations keep their intermediates for the next call
    /// (`false` for a one-shot evaluation; see the module docs).
    persistent: bool,
    state: Option<EvalState>,
    #[cfg(feature = "sanitize")]
    rng_state: u64,
}

impl<'p> ReuseEvaluator<'p> {
    /// A fresh evaluator for `problem` under `config`; the first
    /// [`evaluate`](ReuseEvaluator::evaluate) computes everything.
    pub fn new(problem: &'p LikelihoodProblem, config: EngineConfig) -> ReuseEvaluator<'p> {
        let n_internal = problem
            .children
            .iter()
            .filter(|kids| !kids.is_empty())
            .count();
        ReuseEvaluator {
            problem,
            config,
            n_internal,
            persistent: true,
            state: None,
            #[cfg(feature = "sanitize")]
            rng_state: 0x9e3779b97f4a7c15,
        }
    }

    /// An evaluator for one stateless evaluation: every CPV is computed
    /// through per-worker transient caches and nothing is kept.
    pub(crate) fn one_shot(
        problem: &'p LikelihoodProblem,
        config: EngineConfig,
    ) -> ReuseEvaluator<'p> {
        ReuseEvaluator {
            persistent: false,
            ..ReuseEvaluator::new(problem, config)
        }
    }

    /// Evaluate the branch-site likelihood, reusing whatever the bitwise
    /// parameter diff against the previous call proves unchanged.
    ///
    /// # Errors
    /// Propagates eigensolver failures.
    pub fn evaluate(
        &mut self,
        model: &BranchSiteModel,
        branch_lengths: &[f64],
        hint: &ReuseHint,
        timing: Option<&mut PhaseTiming>,
    ) -> Result<LikelihoodValue, LinalgError> {
        // The SIMD dispatch override is thread-local; this call covers the
        // calling thread, and each spawned worker re-installs it.
        simd::with_forced(self.config.simd, || {
            self.evaluate_inner(model, branch_lengths, hint, timing)
        })
    }

    /// (hits, misses) of the per-branch operator cache since construction.
    pub fn op_cache_stats(&self) -> (u64, u64) {
        self.state.as_ref().map_or((0, 0), |s| s.ops.stats())
    }

    fn evaluate_inner(
        &mut self,
        model: &BranchSiteModel,
        branch_lengths: &[f64],
        hint: &ReuseHint,
        mut timing: Option<&mut PhaseTiming>,
    ) -> Result<LikelihoodValue, LinalgError> {
        let problem = self.problem;
        let config = self.config.clone();
        let persistent = self.persistent;
        assert_eq!(
            branch_lengths.len(),
            problem.n_branches(),
            "branch length vector has wrong length"
        );
        let n_pat = problem.n_patterns();
        let n_nodes = problem.children.len();
        let threads = config.resolved_threads().max(1);
        let simd_mode = config.simd;
        let obs = crate::obsm::metrics();
        obs.evaluations.inc();
        if persistent {
            obs.reuse_evaluations.inc();
        }
        obs.threads.set(threads as f64);
        obs.simd_lanes.set(simd::resolve(simd_mode).lanes() as f64);
        let mut eval_span = slim_trace::span("lik.evaluate", "lik");
        eval_span.arg_u64("threads", threads as u64);
        eval_span.arg_u64("patterns", n_pat as u64);

        // The shared rate scale, validated before the previous state is
        // touched: an invalid point returns an error and keeps it intact.
        let scale = checked_scale(problem, model)?;

        // --- Bitwise diff against the previous evaluation: the ground
        // truth the hint is checked against. ---
        let prev = self.state.take();
        let (globals_changed, dirty_branches): (bool, Vec<usize>) = match &prev {
            None => (true, Vec::new()),
            Some(s) => {
                let g = [
                    (model.kappa, s.model.kappa),
                    (model.omega0, s.model.omega0),
                    (model.omega2, s.model.omega2),
                    (model.p0, s.model.p0),
                    (model.p1, s.model.p1),
                ]
                .iter()
                .any(|&(a, b)| a.to_bits() != b.to_bits());
                let dirty: Vec<usize> = branch_lengths
                    .iter()
                    .zip(s.branch_lengths.iter())
                    .enumerate()
                    .filter(|(_, (a, b))| a.to_bits() != b.to_bits())
                    .map(|(i, _)| i)
                    .collect();
                (g, dirty)
            }
        };

        // Cross-check the optimizer's hint against the observed diff. A
        // violation is an optimizer bug, not a correctness problem here —
        // invalidation follows the operators actually rebuilt below.
        if prev.is_some() {
            let violated = match hint {
                ReuseHint::Full => false,
                ReuseHint::Sparse { globals, branches } => {
                    (globals_changed && !globals)
                        || dirty_branches.iter().any(|b| !branches.contains(b))
                }
            };
            if violated {
                obs.reuse_hint_violations.inc();
                #[cfg(feature = "sanitize")]
                // check: allow(rob-unwrap) sanitize tripwire: a hint that failed to cover the observed change must abort
                panic!(
                    "sanitize: reuse hint {hint:?} failed to cover the observed parameter \
                     change (globals_changed {globals_changed}, dirty branches \
                     {dirty_branches:?})"
                );
            }
        }

        // --- Nothing changed: serve the previous result outright. ---
        if let Some(s) = &prev {
            if !globals_changed && dirty_branches.is_empty() {
                obs.reuse_units_reused
                    .add((s.unit_shape.len() * self.n_internal) as u64);
                slim_trace::instant_with("lik.reuse.hit", "lik", || {
                    vec![("units", slim_trace::Value::U64(s.unit_shape.len() as u64))]
                });
                let value = s.value.clone();
                self.state = prev;
                return Ok(value);
            }
        }

        // Every operator is keyed on its decomposition and on t / scale,
        // so when κ or the scale moves every operator is rebuilt (bar a
        // rounding tie in t / scale) and no CPV is worth keeping: release
        // the CPVs (and the stale value) before decomposing, to keep the
        // peak footprint at one set. Released caches count as fresh below.
        let (prev_es, mut ops, mut units, prev_shape) = match prev {
            Some(s) => {
                let moved = s.model.kappa.to_bits() != model.kappa.to_bits()
                    || s.scale.to_bits() != scale.to_bits();
                let units = if moved { Vec::new() } else { s.units };
                (Some((s.model, s.eigensystems)), s.ops, units, s.unit_shape)
            }
            None => (None, PtCache::new(0), Vec::new(), Vec::new()),
        };

        // --- Phase 1: eigendecompositions — only the ω slots whose
        // (κ, ω) bits moved are decomposed again. The matrices are
        // unscaled: all classes share one rate scale (the background
        // mixture average, so ω2 > 1 genuinely accelerates foreground
        // evolution — see BranchSiteModel::shared_scale), folded into each
        // operator's time instead. ---
        // check: allow(det-wallclock) feeds the obs phase-timing histogram only
        let start = Instant::now();
        let phase_span = slim_trace::span("lik.eigen", "lik");
        let eigensystems = build_eigensystems(problem, &config, model, prev_es, threads)?;
        drop(phase_span);
        let elapsed = start.elapsed();
        obs.eigen.observe(elapsed);
        if let Some(t) = timing.as_deref_mut() {
            // check: allow(det-float-accum) Duration phase-timing accumulation, not an f64 reduction
            t.eigen += elapsed;
        }

        // --- Phase 2: transition operators — probe every (branch, needed
        // ω) slot, rebuild only the key misses. ---
        // check: allow(det-wallclock) feeds the obs phase-timing histogram only
        let start = Instant::now();
        let phase_span = slim_trace::span("lik.expm", "lik");
        ops.resize(n_nodes * N_OMEGA);
        let stale: Vec<(usize, usize, f64)> = op_items(problem, branch_lengths, scale)
            .into_iter()
            .filter(|&(node, w, t)| !ops.probe(node * N_OMEGA + w, PtKey::new(&eigensystems[w], t)))
            .collect();
        let built = build_ops(&config, &eigensystems, &stale, threads);
        let mut rebuilt = vec![false; n_nodes * N_OMEGA];
        for (&(node, w, t), op) in stale.iter().zip(built) {
            rebuilt[node * N_OMEGA + w] = true;
            ops.insert(node * N_OMEGA + w, PtKey::new(&eigensystems[w], t), op);
        }
        drop(phase_span);
        let elapsed = start.elapsed();
        obs.expm.observe(elapsed);
        if let Some(t) = timing.as_deref_mut() {
            // check: allow(det-float-accum) Duration phase-timing accumulation, not an f64 reduction
            t.expm += elapsed;
        }

        // --- Unit geometry + dirty set. ---
        let classes = model.site_classes();
        let block = config.pattern_block.max(1);
        let mut unit_shape: Vec<(usize, usize, usize)> = Vec::new();
        for (ci, class) in classes.iter().enumerate() {
            if class.proportion <= 0.0 {
                continue;
            }
            let mut lo = 0usize;
            while lo < n_pat {
                let bw = block.min(n_pat - lo);
                unit_shape.push((ci, lo, bw));
                // check: allow(det-float-accum) usize block cursor, not a float accumulation
                lo += bw;
            }
        }
        // Fresh unit caches (one-shot, first call, released above, or a
        // geometry change such as a proportion hitting exactly 0) hold
        // nothing to reuse. Otherwise a (class, node) CPV is recomputed iff
        // an operator that class applies below the node was rebuilt: child
        // u contributes its foreground or background ω slot, and dirt
        // propagates up in postorder. A one-shot call keeps no caches: its
        // workers bring their own.
        let fresh = !persistent || units.len() != unit_shape.len() || prev_shape != unit_shape;
        if fresh && persistent {
            units = unit_shape.iter().map(|_| UnitCache::new()).collect();
        }
        let dirty: Vec<Vec<bool>> = classes
            .iter()
            .map(|class| {
                let mut d = vec![false; n_nodes];
                for &v in &problem.postorder {
                    d[v] = !problem.children[v].is_empty()
                        && (fresh
                            || problem.children[v].iter().any(|&u| {
                                let w = if problem.is_foreground[u] {
                                    class.foreground_omega
                                } else {
                                    class.background_omega
                                };
                                d[u] || rebuilt[u * N_OMEGA + w]
                            }));
                }
                d
            })
            .collect();
        let n_dirty: Vec<usize> = dirty
            .iter()
            .map(|d| d.iter().filter(|&&x| x).count())
            .collect();
        let n_units = unit_shape.len();
        // check: allow(det-float-accum) usize unit count, not a float reduction
        let recomputed: usize = unit_shape.iter().map(|&(ci, _, _)| n_dirty[ci]).sum();
        let reused = n_units * self.n_internal - recomputed;
        obs.units.add(n_units as u64);
        if persistent {
            if reused == 0 {
                obs.reuse_full_invalidations.inc();
            }
            obs.reuse_dirty_branches.add(dirty_branches.len() as u64);
            obs.reuse_units_recomputed.add(recomputed as u64);
            obs.reuse_units_reused.add(reused as u64);
            if reused > 0 {
                slim_trace::instant_with("lik.reuse.hit", "lik", || {
                    vec![("cpv_blocks", slim_trace::Value::U64(reused as u64))]
                });
            }
            if recomputed > 0 {
                slim_trace::instant_with("lik.reuse.miss", "lik", || {
                    vec![
                        ("cpv_blocks", slim_trace::Value::U64(recomputed as u64)),
                        ("full", slim_trace::Value::U64((reused == 0) as u64)),
                    ]
                });
            }
        }

        // --- Phase 3: pruning over (site class × pattern block) units. ---
        // Block boundaries are fixed by config.pattern_block alone; which
        // worker computes which block cannot affect any value (see
        // crate::pruning), so the channel's nondeterministic scheduling is
        // harmless.
        // check: allow(det-wallclock) feeds the obs phase-timing histogram only
        let start = Instant::now();
        let phase_span = slim_trace::span("lik.pruning", "lik");
        let mut per_class: Vec<Vec<f64>> = classes
            .iter()
            .map(|class| {
                if class.proportion <= 0.0 {
                    vec![f64::NEG_INFINITY; n_pat]
                } else {
                    vec![0.0f64; n_pat]
                }
            })
            .collect();
        // Carve the per-class buffers into per-unit output slices in
        // `unit_shape` order, pairing each with its persistent cache (none
        // for a one-shot call: the worker's transient cache serves it).
        struct Unit<'a> {
            bg: usize,
            fg: usize,
            lo: usize,
            dirty: &'a [bool],
            out: &'a mut [f64],
            cache: Option<&'a mut UnitCache>,
        }
        let mut work: Vec<Unit> = Vec::with_capacity(n_units);
        {
            let mut caches = units.iter_mut();
            let mut chunkers: Vec<Option<std::slice::ChunksMut<f64>>> = per_class
                .iter_mut()
                .zip(classes.iter())
                .map(|(buf, class)| (class.proportion > 0.0).then(|| buf.chunks_mut(block)))
                .collect();
            for &(ci, lo, _bw) in &unit_shape {
                let chunk = chunkers[ci]
                    .as_mut()
                    .and_then(|c| c.next())
                    // check: allow(rob-unwrap) unit_shape was derived from the same class/block walk that drives the chunkers
                    .expect("unit_shape matches class chunking");
                work.push(Unit {
                    bg: classes[ci].background_omega,
                    fg: classes[ci].foreground_omega,
                    lo,
                    dirty: &dirty[ci],
                    out: chunk,
                    cache: caches.next(),
                });
            }
        }
        let class_block = |unit: &Unit| ClassBlock {
            problem,
            config: &config,
            ops: &ops,
            bg: unit.bg,
            fg: unit.fg,
            lo: unit.lo,
        };
        let prune_threads = threads.min(work.len()).max(1);
        // Per-worker busy time is only clocked while collection is on, so
        // the disabled path takes no Instant reads per unit.
        let obs_on = slim_obs::enabled();
        if prune_threads >= 2 {
            let (tx, rx) = crossbeam::channel::unbounded::<Unit>();
            for unit in work {
                // Unbounded channel with both endpoints alive: send cannot fail.
                let _ = tx.send(unit);
            }
            drop(tx);
            let class_block = &class_block;
            crossbeam::thread::scope(|scope| {
                for _ in 0..prune_threads {
                    let rx = rx.clone();
                    scope.spawn(move |_| {
                        simd::with_forced(simd_mode, || {
                            let worker_span = slim_trace::span("lik.worker", "lik");
                            let mut own = UnitCache::transient();
                            let mut ws = PruneScratch::new();
                            let mut busy = Duration::ZERO;
                            while let Ok(unit) = rx.recv() {
                                // check: allow(det-wallclock) feeds the obs worker-busy gauge only
                                let t0 = obs_on.then(Instant::now);
                                // Per-unit block span: which (class ω-pair ×
                                // pattern block) this worker ran, and when.
                                let mut block_span = slim_trace::span("lik.block", "lik");
                                block_span.arg_u64("bg", unit.bg as u64);
                                block_span.arg_u64("fg", unit.fg as u64);
                                block_span.arg_u64("lo", unit.lo as u64);
                                let cb = class_block(&unit);
                                let cache = unit.cache.unwrap_or(&mut own);
                                prune_block(cb, unit.dirty, unit.out, cache, &mut ws);
                                drop(block_span);
                                if let Some(t0) = t0 {
                                    // check: allow(det-float-accum) Duration worker-busy accumulation, not an f64 reduction
                                    busy += t0.elapsed();
                                }
                            }
                            obs.worker_busy.observe(busy);
                            drop(worker_span);
                        });
                        // Scoped thread: flush before the scope unblocks.
                        if slim_trace::enabled() {
                            slim_trace::flush_thread();
                        }
                    });
                }
            })
            // check: allow(rob-unwrap) scope join fails only if a worker panicked; propagate the abort
            .expect("pruning scope");
        } else {
            let mut own = UnitCache::transient();
            let mut ws = PruneScratch::new();
            // check: allow(det-wallclock) feeds the obs worker-busy gauge only
            let t0 = obs_on.then(Instant::now);
            for unit in work {
                let cb = class_block(&unit);
                let cache = unit.cache.unwrap_or(&mut own);
                prune_block(cb, unit.dirty, unit.out, cache, &mut ws);
            }
            if let Some(t0) = t0 {
                obs.worker_busy.observe(t0.elapsed());
            }
        }

        // Sanitize tripwire: recompute one randomly chosen *reused* CPV
        // block from its cached children and demand bit equality — a
        // stale-serve is caught at the evaluation that commits it.
        #[cfg(feature = "sanitize")]
        if reused > 0 {
            let mut next = || {
                self.rng_state = self
                    .rng_state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (self.rng_state >> 33) as usize
            };
            let with_clean: Vec<usize> = (0..n_units)
                .filter(|&ui| n_dirty[unit_shape[ui].0] < self.n_internal)
                .collect();
            let ui = with_clean[next() % with_clean.len()];
            let (ci, lo, _) = unit_shape[ui];
            let clean: Vec<usize> = (0..n_nodes)
                .filter(|&v| !problem.children[v].is_empty() && !dirty[ci][v])
                .collect();
            let node = clean[next() % clean.len()];
            let unit = ClassBlock {
                problem,
                config: &config,
                ops: &ops,
                bg: classes[ci].background_omega,
                fg: classes[ci].foreground_omega,
                lo,
            };
            crate::pruning::sanitize_recheck_node(unit, node, &units[ui]);
        }
        drop(phase_span);
        let elapsed = start.elapsed();
        obs.pruning.observe(elapsed);
        if let Some(t) = timing.as_deref_mut() {
            // check: allow(det-float-accum) Duration phase-timing accumulation, not an f64 reduction
            t.pruning += elapsed;
        }

        // --- Phase 4: mix classes per pattern (log-sum-exp), then the
        // weighted total — serial, fixed pattern order, compensated. This
        // is the only order-sensitive reduction in the evaluation, which is
        // what makes the whole pipeline thread-count invariant. ---
        // check: allow(det-wallclock) feeds the obs phase-timing histogram only
        let start = Instant::now();
        let phase_span = slim_trace::span("lik.reduction", "lik");
        let props = [
            classes[0].proportion,
            classes[1].proportion,
            classes[2].proportion,
            classes[3].proportion,
        ];
        let (lnl, per_pattern) = mix_and_reduce(problem, props, &per_class, threads);
        drop(phase_span);
        let elapsed = start.elapsed();
        obs.reduction.observe(elapsed);
        if let Some(t) = timing {
            // check: allow(det-float-accum) Duration phase-timing accumulation, not an f64 reduction
            t.reduction += elapsed;
        }

        let value = LikelihoodValue {
            lnl,
            per_pattern,
            per_class,
            proportions: props,
        };
        if persistent {
            self.state = Some(EvalState {
                model: *model,
                branch_lengths: branch_lengths.to_vec(),
                scale,
                eigensystems,
                ops,
                unit_shape,
                units,
                value: value.clone(),
            });
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::site_class_log_likelihoods;
    use slim_bio::{parse_newick, CodonAlignment, FreqModel, GeneticCode};
    use slim_model::Hypothesis;

    fn toy_problem() -> LikelihoodProblem {
        let tree = parse_newick("(((A:0.1,B:0.2):0.05,C:0.3)#1:0.1,(D:0.25,E:0.15):0.2);").unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nCCCTACTGCCCCAAGGAG\n>B\nCCCTACTGCCCCAAGGAG\n>C\nCCCTACTGCCCCAAGGAG\n>D\nCCCTATTGCCCCAAGGAG\n>E\nCCCTACTGCACCAAGGAG\n",
        )
        .unwrap();
        let code = GeneticCode::universal();
        LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).unwrap()
    }

    fn assert_bits_equal(a: &LikelihoodValue, b: &LikelihoodValue, step: usize) {
        assert_eq!(
            a.lnl.to_bits(),
            b.lnl.to_bits(),
            "lnL bits diverge at step {step}: reuse {} vs fresh {}",
            a.lnl,
            b.lnl
        );
        for (p, (x, y)) in a.per_pattern.iter().zip(b.per_pattern.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "per-pattern bits diverge at step {step}, pattern {p}"
            );
        }
        for (c, (xs, ys)) in a.per_class.iter().zip(b.per_class.iter()).enumerate() {
            for (p, (x, y)) in xs.iter().zip(ys.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "per-class bits diverge at step {step}, class {c}, pattern {p}"
                );
            }
        }
    }

    /// An optimizer-shaped update script: finite-difference probes on
    /// single branches, a sparse line-search move, a global bump, and an
    /// exact repeat — each step checked bit-for-bit against a fresh
    /// stateless evaluation.
    fn run_script(config: EngineConfig) {
        let problem = toy_problem();
        let mut ev = ReuseEvaluator::new(&problem, config.clone());
        let mut model = BranchSiteModel::default_start(Hypothesis::H1);
        let mut bl: Vec<f64> = (0..problem.n_branches())
            .map(|i| 0.08 + 0.03 * i as f64)
            .collect();
        let n_br = bl.len();

        let mut step = 0usize;
        let mut check =
            |ev: &mut ReuseEvaluator, model: &BranchSiteModel, bl: &[f64], hint: &ReuseHint| {
                let reuse = ev.evaluate(model, bl, hint, None).unwrap();
                let fresh = site_class_log_likelihoods(&problem, &config, model, bl).unwrap();
                assert_bits_equal(&reuse, &fresh, step);
                step += 1;
            };

        check(&mut ev, &model, &bl, &ReuseHint::Full);
        // Single-branch finite-difference probes (the numgrad pattern).
        for i in 0..n_br {
            let saved = bl[i];
            bl[i] += 1e-6;
            let hint = ReuseHint::Sparse {
                globals: false,
                branches: vec![i],
            };
            check(&mut ev, &model, &bl, &hint);
            bl[i] = saved;
            check(&mut ev, &model, &bl, &hint);
        }
        // Exact repeat: the nothing-changed shortcut.
        check(
            &mut ev,
            &model,
            &bl,
            &ReuseHint::Sparse {
                globals: false,
                branches: Vec::new(),
            },
        );
        // Sparse line-search step over two branches.
        bl[0] *= 1.25;
        bl[n_br - 1] *= 0.75;
        check(
            &mut ev,
            &model,
            &bl,
            &ReuseHint::Sparse {
                globals: false,
                branches: vec![0, n_br - 1],
            },
        );
        // Global move: everything invalidates.
        model.kappa += 0.125;
        check(
            &mut ev,
            &model,
            &bl,
            &ReuseHint::Sparse {
                globals: true,
                branches: Vec::new(),
            },
        );
        // Mixed move after the full invalidation.
        model.p0 -= 0.0625;
        bl[1] += 0.01;
        check(
            &mut ev,
            &model,
            &bl,
            &ReuseHint::Sparse {
                globals: true,
                branches: vec![1],
            },
        );
        let (hits, misses) = ev.op_cache_stats();
        assert!(hits > 0, "the script must exercise operator reuse");
        assert!(misses > 0, "the script must exercise operator rebuilds");
    }

    #[test]
    fn reuse_matches_stateless_bit_identically_serial() {
        // Small blocks force several units per class so root-path
        // invalidation crosses block boundaries.
        run_script(EngineConfig::slim().with_pattern_block(2));
    }

    #[test]
    fn reuse_matches_stateless_bit_identically_threaded() {
        run_script(EngineConfig::slim().with_pattern_block(2).with_threads(4));
    }

    #[test]
    fn reuse_matches_stateless_with_eigen_cache_profile() {
        run_script(EngineConfig::slim_plus().with_pattern_block(3));
    }

    #[test]
    fn nan_parameters_are_errors_in_both_evaluators() {
        let problem = toy_problem();
        let config = EngineConfig::slim().with_pattern_block(2);
        let good = BranchSiteModel::default_start(Hypothesis::H1);
        let bl = vec![0.1; problem.n_branches()];
        let mut ev = ReuseEvaluator::new(&problem, config.clone());
        let before = ev.evaluate(&good, &bl, &ReuseHint::Full, None).unwrap();
        for bad in [
            BranchSiteModel {
                kappa: f64::NAN,
                ..good
            },
            BranchSiteModel {
                p0: f64::NAN,
                ..good
            },
        ] {
            let stateless = site_class_log_likelihoods(&problem, &config, &bad, &bl);
            assert!(matches!(stateless, Err(LinalgError::Domain { .. })));
            let reused = ev.evaluate(&bad, &bl, &ReuseHint::Full, None);
            assert!(matches!(reused, Err(LinalgError::Domain { .. })));
        }
        // The rejected points left the previous state intact.
        let after = ev.evaluate(&good, &bl, &ReuseHint::Full, None).unwrap();
        assert_bits_equal(&after, &before, 0);
    }

    // Under `sanitize` a deliberately wrong hint panics instead.
    #[cfg(not(feature = "sanitize"))]
    #[test]
    fn too_narrow_hint_cannot_corrupt_the_likelihood() {
        let problem = toy_problem();
        let config = EngineConfig::slim().with_pattern_block(2);
        let mut ev = ReuseEvaluator::new(&problem, config.clone());
        let model = BranchSiteModel::default_start(Hypothesis::H0);
        let mut bl = vec![0.1; problem.n_branches()];
        ev.evaluate(&model, &bl, &ReuseHint::Full, None).unwrap();
        // Change branch 2 but claim nothing changed: the bitwise self-diff
        // must still invalidate the right paths.
        bl[2] = 0.17;
        let lying_hint = ReuseHint::Sparse {
            globals: false,
            branches: Vec::new(),
        };
        let reuse = ev.evaluate(&model, &bl, &lying_hint, None).unwrap();
        let fresh = site_class_log_likelihoods(&problem, &config, &model, &bl).unwrap();
        assert_bits_equal(&reuse, &fresh, 1);
    }
}
