//! The traced run behind the per-layer metrics.
//!
//! Spans are recorded in this file, around each public call the
//! benchmark makes, never inside the program; the program's own
//! `slim_obs` registry is switched on and read as deltas. Probes run at
//! the traced test's H1 maximum, a fixed point, so they repeat.

use crate::gen::Workload;
use crate::report::Report;
use crate::run::{
    analysis, check_job, check_test, measure_setup, options, parse, run_batch_genes, run_test,
    BatchRun, Branches, Input, TestRun, MAX_ITERATIONS,
};
use crate::stats::{busy_frac, clock, cpu_s, hit_rate, median, ratio, tail_idle_s};
use slim_core::{Analysis, Backend};
use slim_expm::EigenSystem;
use slim_lik::{ReuseEvaluator, ReuseHint};
use slim_linalg::{gemv, syrk, Mat};
use slim_model::{build_rate_matrix, codon_model::rate_components, ScalePolicy};
use slim_obs::Snapshot;
use slim_opt::TerminationReason;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One span: a call the benchmark made, with the span that caused it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// In-memory span recorder, written out when the run ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: clock(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        let start_s = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_s = self.now();
        r
    }

    /// Record a span timed elsewhere, as a child of the open span.
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64();
        let (start_s, end_s) = (at(start), at(end));
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            parent,
            start_s,
            end_s,
        });
    }

    /// Self time per span name: duration minus the time its children
    /// cover, summed, largest first.
    fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_s - s.start_s;
            }
        }
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let own = (s.end_s - s.start_s - c).max(0.0);
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some(e) => e.1 += own,
                None => by_name.push((s.name, own)),
            }
        }
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_name
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                    s.name, s.start_s, s.end_s
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Registry movement between two snapshots.
struct Delta<'a>(&'a Snapshot, &'a Snapshot);

impl Delta<'_> {
    fn count(&self, name: &str) -> u64 {
        let get = |s: &Snapshot| s.counter(name).unwrap_or(0);
        get(self.1).saturating_sub(get(self.0))
    }

    fn seconds(&self, name: &str) -> f64 {
        let get = |s: &Snapshot| s.histogram(name).map_or(0.0, |h| h.sum_seconds);
        get(self.1) - get(self.0)
    }
}

/// Counters that two traced runs of one seed must repeat exactly.
const REPEATED_COUNTERS: [&str; 9] = [
    "lik.evaluations",
    "lik.pruning.units",
    "lik.reuse.evaluations",
    "lik.reuse.full_invalidations",
    "lik.reuse.dirty_branches",
    "lik.reuse.units_reused",
    "lik.reuse.units_recomputed",
    "opt.iterations",
    "opt.f_evals",
];

/// The unit of work the traced run repeats: one direct test, or one batch.
enum Unit {
    Test(Box<TestRun>),
    Batch(BatchRun),
}

impl Unit {
    fn wall_s(&self) -> f64 {
        match self {
            Unit::Test(t) => t.seconds,
            Unit::Batch(b) => b.run_s,
        }
    }

    /// Every lnL the unit produced, as bits, in a fixed order.
    fn lnl_bits(&self) -> Vec<u64> {
        match self {
            Unit::Test(t) => vec![t.result.h0.lnl.to_bits(), t.result.h1.lnl.to_bits()],
            Unit::Batch(b) => b
                .records
                .iter()
                .flat_map(|r| match &r.outcome {
                    Ok(o) => vec![o.lnl0.to_bits(), o.lnl1.to_bits()],
                    Err(_) => vec![u64::MAX],
                })
                .collect(),
        }
    }
}

/// Run the workload traced and report its per-layer metrics.
pub fn traced(w: Workload, seed: u64, seconds: f64, work: &Path) -> Report {
    let mut report = Report::new();
    let mut spans = Spans::new();
    match traced_inner(w, seed, seconds, work, &mut report, &mut spans) {
        Ok(()) => {}
        Err(e) => report.error(e),
    }
    let path = work.join(format!("spans-{}-{seed}.json", w.name()));
    let written =
        std::fs::create_dir_all(work).and_then(|()| std::fs::write(&path, spans.to_json()));
    match written {
        Ok(()) => report.note(format!(
            "spans: {} written to {}",
            spans.spans.len(),
            path.display()
        )),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
    for (name, s) in spans.self_times().into_iter().take(12) {
        report.note(format!("self time {name:<34} {s:.4} s"));
    }
    report
}

fn traced_inner(
    w: Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    report: &mut Report,
    spans: &mut Spans,
) -> Result<(), String> {
    let spec = w.spec();
    let panel = w.panel(seed, seconds);
    let gene = &panel[0];
    let input = parse(gene)?;

    // slim-bio and Analysis::new: the set-up path.
    let setup = spans.time("setup", |sp| {
        measure_setup(
            &panel,
            spec.engine_threads,
            crate::SETUP_REPS,
            &mut |name, a, b| {
                sp.record(name, a, b);
            },
        )
    });
    let setup = setup?;
    report.metric("bio.parse_s", setup.parse_s, "s", setup.totals.len());
    report.metric("bio.patterns", setup.patterns as f64, "count", 1);
    report.metric("lik.problem_s", setup.problem_s, "s", setup.totals.len());

    // The repeated unit: untraced once, then traced twice.
    let unit_dir = work.join(format!("unit-{}", std::process::id()));
    let run_unit = |sp: &mut Spans, name: &'static str| -> Result<Unit, String> {
        sp.time(name, |sp| match w {
            Workload::BranchScan => sp
                .time("batch.run_batch", |_| {
                    run_batch_genes(
                        std::slice::from_ref(gene),
                        Branches::All,
                        spec.clients,
                        &unit_dir,
                    )
                })
                .map(Unit::Batch),
            _ => sp
                .time("core.test_positive_selection", |_| {
                    run_test(&input, spec.engine_threads)
                })
                .map(|t| Unit::Test(Box::new(t))),
        })
    };
    slim_obs::set_enabled(false);
    let untraced = run_unit(spans, "unit.untraced")?;
    check_unit(&input, &untraced, report);
    slim_obs::set_enabled(true);
    slim_lik::register_metrics();
    slim_opt::register_metrics();
    slim_expm::register_metrics();
    slim_batch::register_metrics();

    let s0 = slim_obs::snapshot();
    let cpu0 = cpu_s();
    let first = run_unit(spans, "unit.traced")?;
    let cpu1 = cpu_s();
    let s1 = slim_obs::snapshot();
    let second = run_unit(spans, "unit.traced_repeat")?;
    let s2 = slim_obs::snapshot();
    check_unit(&input, &first, report);
    check_unit(&input, &second, report);
    let (d1, d2) = (Delta(&s0, &s1), Delta(&s1, &s2));
    if first.lnl_bits() != second.lnl_bits() {
        report.wrong("repeat: lnL bits differ between two traced runs of one seed".into());
    }
    for name in REPEATED_COUNTERS {
        if d1.count(name) != d2.count(name) {
            report.wrong(format!(
                "repeat: {name} {} vs {} between two traced runs of one seed",
                d1.count(name),
                d2.count(name)
            ));
        }
    }
    report.metric(
        "obs.overhead_frac",
        ratio(first.wall_s(), untraced.wall_s()) - 1.0,
        "ratio",
        1,
    );

    // The traced test: the first traced unit, or for the scan one direct
    // test of the first gene (its marked branch, one engine thread).
    let (test, snaps, cpu) = match first {
        Unit::Test(t) => (*t, (s0, s1), (cpu0, cpu1)),
        Unit::Batch(ref b) => {
            batch_metrics(b, &d1, report);
            let t0 = slim_obs::snapshot();
            let c0 = cpu_s();
            let t = spans.time("core.test_positive_selection", |_| {
                run_test(&input, spec.engine_threads)
            });
            let c1 = cpu_s();
            let t1 = slim_obs::snapshot();
            let t = t?;
            report.count(check_test(&input, &t));
            (t, (t0, t1), (c0, c1))
        }
    };
    test_metrics(&test, &Delta(&snaps.0, &snaps.1), cpu, report);

    if w != Workload::BranchScan {
        // Single-gene workloads do not use the pool; its layer is measured
        // on one job of the scan's first gene (its marked branch), which
        // costs a fraction of this workload's test.
        let job = Workload::BranchScan.gene(seed, 0);
        let b0 = slim_obs::snapshot();
        let b = spans.time("batch.run_batch", |_| {
            run_batch_genes(std::slice::from_ref(&job), Branches::Marked, 1, &unit_dir)
        });
        let b1 = slim_obs::snapshot();
        let b = b?;
        for rec in &b.records {
            report.count(check_job(rec));
        }
        batch_metrics(&b, &Delta(&b0, &b1), report);
    }

    // Probes at the H1 maximum of the traced test.
    probes(&input, &test, report, spans)
}

/// Check a unit's outputs into the report.
fn check_unit(input: &Input, unit: &Unit, report: &mut Report) {
    match unit {
        Unit::Test(t) => report.count(check_test(input, t)),
        Unit::Batch(b) => {
            for rec in &b.records {
                report.count(check_job(rec));
            }
        }
    }
}

/// Layer metrics of one traced test from its registry deltas.
fn test_metrics(t: &TestRun, d: &Delta<'_>, cpu: (Option<f64>, Option<f64>), report: &mut Report) {
    let (h0, h1) = (&t.result.h0, &t.result.h1);
    let phases = [
        ("lik.phase.eigen_s", "lik.phase.eigen_seconds"),
        ("lik.phase.expm_s", "lik.phase.expm_seconds"),
        ("lik.phase.pruning_s", "lik.phase.pruning_seconds"),
        ("lik.phase.reduction_s", "lik.phase.reduction_seconds"),
    ];
    let mut phase_sum = 0.0;
    for (metric, hist) in phases {
        let s = d.seconds(hist);
        phase_sum += s;
        report.metric(metric, s, "s", 1);
    }
    let evaluations = d.count("lik.evaluations");
    report.metric("lik.evaluations", evaluations as f64, "count", 1);
    report.metric(
        "lik.pruning.units",
        d.count("lik.pruning.units") as f64,
        "count",
        1,
    );
    let iterations = d.count("opt.iterations");
    let f_evals = d.count("opt.f_evals");
    report.metric("opt.iterations", iterations as f64, "count", 1);
    report.metric("opt.f_evals", f_evals as f64, "count", 1);
    report.metric(
        "opt.evals_per_iter",
        ratio(f_evals as f64, iterations as f64),
        "ratio",
        1,
    );
    // A discarded H1 attempt's termination is not returned; it hit the cap
    // if the iterations no Fit reports reach it.
    let reported_iterations = (h0.iterations + h1.iterations) as u64;
    let capped = [h0, h1]
        .iter()
        .filter(|f| f.termination == TerminationReason::MaxIterations)
        .count()
        + usize::from(iterations.saturating_sub(reported_iterations) >= MAX_ITERATIONS as u64);
    report.metric("opt.capped", capped as f64, "count", 1);
    report.metric("opt.overhead_s", t.seconds - phase_sum, "s", 1);
    let fit_wall = (h0.wall_time + h1.wall_time).as_secs_f64();
    report.metric("core.unreported_s", t.seconds - fit_wall, "s", 1);
    report.metric(
        "core.unreported_evals",
        evaluations as f64 - (h0.f_evals + h1.f_evals) as f64,
        "count",
        1,
    );
    match cpu {
        (Some(a), Some(b)) => report.metric("proc.cpu_s", b - a, "s", 1),
        _ => report.wrong("proc.cpu_s: /proc/self/stat unreadable".into()),
    }
}

/// Batch-layer metrics of one traced `run_batch` call.
fn batch_metrics(b: &BatchRun, d: &Delta<'_>, report: &mut Report) {
    let jobs: Vec<f64> = b.records.iter().map(|r| r.seconds).collect();
    report.metric("batch.run_s", b.run_s, "s", 1);
    report.metric(
        "batch.busy_frac",
        busy_frac(&jobs, b.workers, b.run_s),
        "ratio",
        jobs.len(),
    );
    report.metric(
        "batch.queue_wait_s",
        d.seconds("batch.queue_wait_seconds"),
        "s",
        jobs.len(),
    );
    report.metric(
        "batch.tail_idle_s",
        tail_idle_s(&b.completions, b.workers, b.run_s),
        "s",
        1,
    );
    report.metric("batch.journal_bytes", b.journal_bytes as f64, "B", 1);
    report.metric(
        "batch.retries",
        d.count("batch.jobs.retries") as f64,
        "count",
        1,
    );
}

/// Seconds each probe is repeated for.
const PROBE_S: f64 = 0.25;

/// Median seconds per call of `f`, over batches of `per` calls, repeated
/// for `PROBE_S` seconds (at least 5 batches).
fn time_calls(per: usize, mut f: impl FnMut(usize)) -> (f64, usize) {
    let started = clock();
    let mut samples = Vec::new();
    let mut i = 0;
    while samples.len() < 5 || started.elapsed().as_secs_f64() < PROBE_S {
        let t = clock();
        for _ in 0..per {
            f(i);
            i += 1;
        }
        samples.push(t.elapsed().as_secs_f64() / per as f64);
    }
    (median(&samples), samples.len())
}

/// Per-layer probes at the traced test's H1 maximum.
fn probes(
    input: &Input,
    test: &TestRun,
    report: &mut Report,
    spans: &mut Spans,
) -> Result<(), String> {
    let h1 = &test.result.h1;
    let (model, bl) = (&h1.model, &h1.branch_lengths);
    let a = &test.analysis;
    let eval = |an: &Analysis| -> Result<f64, String> {
        an.log_likelihood(model, bl)
            .map_err(|e| format!("log_likelihood: {e}"))
    };
    let time_eval = |an: &Analysis| -> Result<(f64, usize), String> {
        eval(an)?;
        Ok(time_calls(1, |_| {
            black_box(eval(an).ok());
        }))
    };

    // Stateless evaluation at the workload's thread count; CPV bytes are
    // computed from the shapes, not measured.
    let (full_s, n_full) = spans.time("lik.log_likelihood", |_| time_eval(a))?;
    report.metric("lik.eval_full_s", full_s, "s", n_full);
    let p = a.problem();
    let internal = p.children.iter().filter(|c| !c.is_empty()).count();
    let edges = p.children.iter().map(Vec::len).sum::<usize>();
    let states = p.pi.len();
    // Per site class: each internal node's CPV written once and each
    // child's CPV (or tip vector) read once.
    let cpv_bytes = 4 * (internal + edges) * p.n_patterns() * states * 8;
    report.metric("lik.cpv_bytes", cpv_bytes as f64, "B-computed", 1);

    // One engine thread against two, and the paper's like-for-like ratio:
    // CodeML-style against Slim, both serial with reuse off.
    let serial = analysis(input, options(Backend::Slim, 1, false))?;
    let (serial_s, _) = spans.time("lik.log_likelihood_1t", |_| time_eval(&serial))?;
    let two = analysis(input, options(Backend::Slim, 2, false))?;
    let (two_s, _) = spans.time("lik.log_likelihood_2t", |_| time_eval(&two))?;
    report.metric("lik.par_speedup", ratio(serial_s, two_s), "ratio", 1);
    let codeml = analysis(input, options(Backend::CodeMlStyle, 1, false))?;
    let (codeml_s, _) = spans.time("lik.log_likelihood_codeml", |_| time_eval(&codeml))?;
    report.metric("paper.eval_speedup", ratio(codeml_s, serial_s), "ratio", 1);

    // Reuse engine: one-branch probes sweep every branch out and back;
    // global probes move κ out and back.
    let mut ev = ReuseEvaluator::new(p, a.engine_config().clone());
    ev.evaluate(model, bl, &ReuseHint::Full, None)
        .map_err(|e| format!("ReuseEvaluator::evaluate: {e}"))?;
    let nb = bl.len();
    let mut moved = bl.clone();
    let before = slim_obs::snapshot();
    let (probe_s, probe_batches) = spans.time("lik.reuse_evaluate_branch", |_| {
        time_calls(2 * nb, |i| {
            let b = (i / 2) % nb;
            moved[b] = if i % 2 == 0 { bl[b] * 1.001 } else { bl[b] };
            let hint = ReuseHint::Sparse {
                globals: false,
                branches: vec![b],
            };
            black_box(ev.evaluate(model, &moved, &hint, None).ok());
        })
    });
    let after = slim_obs::snapshot();
    let probes_run = (probe_batches * 2 * nb) as f64;
    let dp = Delta(&before, &after);
    let (reused, recomputed) = (
        dp.count("lik.reuse.units_reused"),
        dp.count("lik.reuse.units_recomputed"),
    );
    report.metric("lik.eval_probe_s", probe_s, "s", probe_batches);
    report.metric(
        "lik.reuse.units_reused",
        reused as f64 / probes_run,
        "count",
        1,
    );
    report.metric(
        "lik.reuse.units_recomputed",
        recomputed as f64 / probes_run,
        "count",
        1,
    );
    report.metric(
        "lik.reuse.hit_rate",
        hit_rate(reused, recomputed),
        "ratio",
        1,
    );
    report.note(format!(
        "lik.reuse.hit_rate base: {} units over {probes_run} probes",
        reused + recomputed
    ));
    let mut kappa = *model;
    let (global_s, global_n) = spans.time("lik.reuse_evaluate_global", |_| {
        time_calls(2, |i| {
            kappa.kappa = if i % 2 == 0 {
                model.kappa * 1.001
            } else {
                model.kappa
            };
            let hint = ReuseHint::Sparse {
                globals: true,
                branches: Vec::new(),
            };
            black_box(ev.evaluate(&kappa, bl, &hint, None).ok());
        })
    });
    report.metric("lik.eval_global_s", global_s, "s", global_n);

    // slim-expm at the maximum: one decomposition per ω class, and P(t)
    // over the fitted branch lengths.
    let (syn, nonsyn) = rate_components(&p.code, model.kappa, &p.pi);
    let scale = model.shared_scale(syn, nonsyn);
    let rms: Vec<_> = model
        .omegas()
        .iter()
        .map(|&om| {
            build_rate_matrix(
                &p.code,
                model.kappa,
                om,
                &p.pi,
                ScalePolicy::External(scale),
            )
        })
        .collect();
    let method = a.engine_config().eigen;
    let systems = rms
        .iter()
        .map(|rm| EigenSystem::from_rate_matrix(rm, method))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("EigenSystem::from_rate_matrix: {e}"))?;
    let (eigen_s, eigen_n) = spans.time("expm.from_rate_matrix", |_| {
        time_calls(rms.len(), |i| {
            black_box(EigenSystem::from_rate_matrix(&rms[i % rms.len()], method).ok());
        })
    });
    report.metric("expm.eigen_s", eigen_s, "s", eigen_n);
    let (pt_s, pt_n) = spans.time("expm.transition_matrix_eq10", |_| {
        time_calls(nb, |i| {
            black_box(systems[i % systems.len()].transition_matrix_eq10(bl[i % nb]));
        })
    });
    report.metric("expm.pt_s", pt_s, "s", pt_n);

    // slim-linalg kernels at the codon order n = 61.
    let n = 61;
    let am = Mat::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.4);
    let mut c = Mat::zeros(n, n);
    let (syrk_s, syrk_n) = spans.time("linalg.syrk", |_| {
        time_calls(20, |_| {
            syrk(1.0, black_box(&am), 0.0, &mut c);
            black_box(&c);
        })
    });
    let nf = n as f64;
    report.metric(
        "linalg.syrk_gflops",
        nf * nf * (nf + 1.0) / syrk_s / 1e9,
        "GFLOP/s",
        syrk_n,
    );
    let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.1).collect();
    let mut y = vec![0.0; n];
    let (gemv_s, gemv_n) = spans.time("linalg.gemv", |_| {
        time_calls(200, |_| {
            gemv(1.0, black_box(&am), black_box(&x), 0.0, &mut y);
            black_box(&y);
        })
    });
    report.metric(
        "linalg.gemv_gflops",
        2.0 * nf * nf / gemv_s / 1e9,
        "GFLOP/s",
        gemv_n,
    );
    // 2n² flops over the 8n² bytes of the matrix.
    report.metric("linalg.gemv_flops_per_byte", 0.25, "flop/B", 1);
    Ok(())
}
