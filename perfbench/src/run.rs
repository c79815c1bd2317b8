//! Calls into the program, timed from outside, and the checks on what
//! they return.

use crate::gen::Gene;
use crate::stats::{clock, median, rel_diff};
use slim_batch::{run_batch_with, BatchRecord, RunConfig};
use slim_bio::{parse_newick, CodonAlignment, FreqModel, GeneticCode, Tree};
use slim_core::{Analysis, AnalysisOptions, Backend, GradMode, Optimizer, TestResult};
use slim_lik::SimdMode;
use slim_model::{BranchSiteModel, Hypothesis};
use slim_opt::TerminationReason;
use std::hint::black_box;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// BFGS iteration cap per hypothesis; a fit that stops here did not
/// converge and fails its test.
pub const MAX_ITERATIONS: usize = 500;

/// The paper's bound on the relative lnL difference D between the
/// CodeML-style and Slim engines (§IV-1).
pub const PAPER_D: f64 = 5.5e-8;

/// Every `AnalysisOptions` field, pinned, so no default or environment
/// variable can change what a workload runs.
pub fn options(backend: Backend, threads: usize, reuse: bool) -> AnalysisOptions {
    AnalysisOptions {
        backend,
        freq_model: FreqModel::F3x4,
        seed: 1,
        max_iterations: MAX_ITERATIONS,
        grad_mode: GradMode::Central,
        initial_branch_length: None,
        jitter: 0.05,
        optimizer: Optimizer::DenseBfgs,
        genetic_code: GeneticCode::universal(),
        threads: Some(threads),
        simd: SimdMode::Auto,
        reuse: Some(reuse),
    }
}

/// The Slim preset as the workloads run it: reuse on (its default).
pub fn slim_options(threads: usize) -> AnalysisOptions {
    options(Backend::Slim, threads, true)
}

/// A parsed gene.
pub struct Input {
    /// Foreground-marked tree.
    pub tree: Tree,
    /// Codon alignment.
    pub aln: CodonAlignment,
}

/// Parse a gene's text.
pub fn parse(gene: &Gene) -> Result<Input, String> {
    let tree = parse_newick(&gene.newick).map_err(|e| format!("{}: newick: {e}", gene.id))?;
    let aln =
        CodonAlignment::from_fasta(&gene.fasta).map_err(|e| format!("{}: fasta: {e}", gene.id))?;
    Ok(Input { tree, aln })
}

/// Build an analysis of a parsed gene.
pub fn analysis(input: &Input, options: AnalysisOptions) -> Result<Analysis, String> {
    Analysis::new(&input.tree, &input.aln, options).map_err(|e| format!("Analysis::new: {e}"))
}

/// One positive-selection test and its wall time.
pub struct TestRun {
    /// The analysis the test ran on.
    pub analysis: Analysis,
    /// What the test returned.
    pub result: TestResult,
    /// Wall seconds of the `test_positive_selection` call alone.
    pub seconds: f64,
}

/// Run the full H0 + H1 test on a parsed gene, timed around the call. A
/// panic inside the program is an error of this test, as the batch pool
/// treats it, not the end of the run.
pub fn run_test(input: &Input, threads: usize) -> Result<TestRun, String> {
    let analysis = analysis(input, slim_options(threads))?;
    let started = clock();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        black_box(analysis.test_positive_selection())
    }));
    let seconds = started.elapsed().as_secs_f64();
    let result = result
        .map_err(|_| "test_positive_selection panicked".to_string())?
        .map_err(|e| format!("test_positive_selection: {e}"))?;
    Ok(TestRun {
        analysis,
        result,
        seconds,
    })
}

/// The verdict on one test's outputs.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Why the test failed; empty when it passed.
    pub failures: Vec<String>,
}

impl Verdict {
    /// A test the program could not run at all.
    pub fn error(message: String) -> Verdict {
        Verdict {
            failures: vec![message],
        }
    }

    fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Whether the test failed.
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// Check a direct test: finite lnLs, lnL1 ≥ lnL0, posteriors in [0, 1],
/// both fits converged, and a CodeML-style re-evaluation at the H1 MLE
/// within the paper's D of the fitted lnL.
pub fn check_test(input: &Input, run: &TestRun) -> Verdict {
    let mut v = Verdict::default();
    let (h0, h1) = (&run.result.h0, &run.result.h1);
    if !h0.lnl.is_finite() || !h1.lnl.is_finite() {
        v.fail(format!("non-finite lnL (H0 {}, H1 {})", h0.lnl, h1.lnl));
        return v;
    }
    if h1.lnl < h0.lnl {
        v.fail(format!("lnL1 {} < lnL0 {}", h1.lnl, h0.lnl));
    }
    if let Some(p) = run
        .result
        .site_posteriors
        .iter()
        .find(|p| !(0.0..=1.0).contains(*p))
    {
        v.fail(format!("posterior {p} outside [0, 1]"));
    }
    for fit in [h0, h1] {
        if fit.termination == TerminationReason::MaxIterations {
            v.fail(format!(
                "{:?} fit stopped at the {MAX_ITERATIONS}-iteration cap",
                fit.hypothesis
            ));
        }
    }
    match codeml_lnl(input, &h1.model, &h1.branch_lengths) {
        Ok(reference) => {
            let d = rel_diff(reference, h1.lnl);
            if d.is_nan() || d > PAPER_D {
                v.fail(format!(
                    "CodeML-style lnL {reference} vs Slim {} (D = {d:e})",
                    h1.lnl
                ));
            }
        }
        Err(e) => v.fail(e),
    }
    v
}

/// The CodeML-style engine's lnL at given parameters (reuse off, serial).
fn codeml_lnl(input: &Input, model: &BranchSiteModel, bl: &[f64]) -> Result<f64, String> {
    analysis(input, options(Backend::CodeMlStyle, 1, false))?
        .log_likelihood(model, bl)
        .map_err(|e| format!("CodeML-style log_likelihood: {e}"))
}

/// Check one batch job: it completed, its lnLs are finite, lnL1 ≥ lnL0,
/// and it did not reach the iteration cap. A job reports only H0 + H1
/// iterations together, so reaching `MAX_ITERATIONS` in total is taken
/// as capped.
pub fn check_job(rec: &BatchRecord) -> Verdict {
    let mut v = Verdict::default();
    match &rec.outcome {
        Err(f) => v.fail(format!(
            "{}: job failed after {} attempts: {}",
            rec.key, rec.attempts, f.error
        )),
        Ok(o) => {
            if !o.lnl0.is_finite() || !o.lnl1.is_finite() {
                v.fail(format!(
                    "{}: non-finite lnL (H0 {}, H1 {})",
                    rec.key, o.lnl0, o.lnl1
                ));
            } else if o.lnl1 < o.lnl0 {
                v.fail(format!("{}: lnL1 {} < lnL0 {}", rec.key, o.lnl1, o.lnl0));
            }
            if o.iterations >= MAX_ITERATIONS {
                v.fail(format!(
                    "{}: {} iterations reach the cap",
                    rec.key, o.iterations
                ));
            }
        }
    }
    v
}

/// Set-up cost of a panel of genes: text to first finished evaluation.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// The panel's summed set-up seconds, one per repetition.
    pub totals: Vec<f64>,
    /// Same, parsing only (`slim_bio`).
    pub parse_s: f64,
    /// Same, `Analysis::new` only.
    pub problem_s: f64,
    /// Site patterns summed over the panel.
    pub patterns: usize,
}

/// Measure set-up `reps` times over `genes`: parse the text, build the
/// analysis, evaluate lnL once at the default H1 start with the tree's
/// branch lengths. `span` wraps each phase for the traced run.
pub fn measure_setup(
    genes: &[Gene],
    threads: usize,
    reps: usize,
    span: &mut dyn FnMut(&'static str, Instant, Instant),
) -> Result<Setup, String> {
    let mut totals = Vec::with_capacity(reps);
    let mut parses = Vec::with_capacity(reps);
    let mut problems = Vec::with_capacity(reps);
    let mut patterns = 0;
    let start_model = BranchSiteModel::default_start(Hypothesis::H1);
    for _ in 0..reps {
        let (mut total, mut parse_sum, mut problem_sum) = (0.0, 0.0, 0.0);
        patterns = 0;
        for gene in genes {
            let t0 = clock();
            let input = black_box(parse(gene)?);
            let t1 = clock();
            let a = black_box(analysis(&input, slim_options(threads))?);
            let t2 = clock();
            let lnl = a
                .log_likelihood(&start_model, &input.tree.branch_lengths())
                .map_err(|e| format!("log_likelihood at start: {e}"))?;
            let t3 = clock();
            black_box(lnl);
            span("bio.parse", t0, t1);
            span("core.analysis_new", t1, t2);
            span("core.log_likelihood", t2, t3);
            parse_sum += (t1 - t0).as_secs_f64();
            problem_sum += (t2 - t1).as_secs_f64();
            total += (t3 - t0).as_secs_f64();
            patterns += a.problem().n_patterns();
        }
        totals.push(total);
        parses.push(parse_sum);
        problems.push(problem_sum);
    }
    Ok(Setup {
        parse_s: median(&parses),
        problem_s: median(&problems),
        patterns,
        totals,
    })
}

/// One `run_batch` call and what the benchmark saw of it.
pub struct BatchRun {
    /// Job records, sorted by job id.
    pub records: Vec<BatchRecord>,
    /// Wall seconds of the `run_batch` call.
    pub run_s: f64,
    /// Completion time of each job, seconds after the call started, as
    /// the observer saw them.
    pub completions: Vec<f64>,
    /// Size of the journal the run wrote.
    pub journal_bytes: u64,
    /// Pool size.
    pub workers: usize,
}

/// A `branches` entry of a manifest.
pub enum Branches {
    /// Every branch: the scan.
    All,
    /// Only the branch marked `#1` in the gene's tree.
    Marked,
}

/// Write `genes` and a manifest under `dir`, run the batch, time it from
/// outside, and remove the files again. Manifest fields other than the
/// branches keep their defaults.
pub fn run_batch_genes(
    genes: &[Gene],
    branches: Branches,
    workers: usize,
    dir: &Path,
) -> Result<BatchRun, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for gene in genes {
        let write = |name: String, text: &str| -> Result<(), String> {
            std::fs::write(dir.join(&name), text).map_err(|e| format!("write {name}: {e}"))
        };
        write(format!("{}.nwk", gene.id), &gene.newick)?;
        write(format!("{}.fasta", gene.id), &gene.fasta)?;
        let branches = match branches {
            Branches::All => "\"all\"".to_string(),
            Branches::Marked => {
                let tree = parse_newick(&gene.newick).map_err(|e| e.to_string())?;
                let fg = tree.foreground_branch().map_err(|e| e.to_string())?;
                format!("[{}]", fg.0)
            }
        };
        entries.push(format!(
            "{{\"id\":\"{0}\",\"alignment\":\"{0}.fasta\",\"tree\":\"{0}.nwk\",\"branches\":{branches}}}",
            gene.id
        ));
    }
    let manifest = dir.join("manifest.json");
    std::fs::write(
        &manifest,
        format!("{{\"version\":1,\"genes\":[{}]}}", entries.join(",")),
    )
    .map_err(|e| format!("write manifest: {e}"))?;
    let journal: PathBuf = dir.join("journal.jsonl");
    let config = RunConfig {
        workers,
        journal_path: journal.clone(),
        ..RunConfig::default()
    };
    let mut completions = Vec::new();
    let started = clock();
    let report = run_batch_with(&manifest, &config, |_| {
        completions.push(started.elapsed().as_secs_f64());
    });
    let run_s = started.elapsed().as_secs_f64();
    let report = report.map_err(|e| format!("run_batch: {e}"))?;
    let journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(BatchRun {
        records: report.records,
        run_s,
        completions,
        journal_bytes,
        workers,
    })
}
