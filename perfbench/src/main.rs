//! Benchmark of the branch-site positive-selection test.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload gene_long|gene_deep|branch_scan --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its genes from `--seed` with `slim_sim`, hands the
//! program only their Newick/FASTA text, and drives the public API of the
//! workspace crates, timing every call from outside. `--trace 0` runs the
//! workload as a closed loop over a fixed panel of genes, sized from
//! `--seconds` so that it takes about that long on a 2-vCPU machine, and
//! reports the end-to-end metrics; `--trace 1` runs one test of it traced
//! and reports the per-layer metrics. Human-readable lines (`# ...`, `metric ...`)
//! come first; the last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! A test fails when an lnL is non-finite, lnL1 < lnL0, a posterior
//! leaves [0, 1], a fit stops at the iteration cap, the CodeML-style
//! engine disagrees with Slim at the H1 maximum by more than the paper's
//! D = 5.5e-8, or a test or batch job returns an error. Failures are
//! counted in `failed` (`failed / attempted` is the fail fraction);
//! `correct` is false when the benchmark cannot vouch for its own
//! figures: no test completed, a measurement could not be taken, or two
//! traced runs of one seed did not repeat exactly.

mod gen;
mod loops;
mod report;
mod run;
mod stats;
mod traced;

use gen::Workload;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-up repetitions `setup_s` is the median of. The untraced run makes
/// half of them before its tests and half after, so the median spans the
/// run rather than one moment of it.
pub const SETUP_REPS: usize = 60;

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [&str; 4] = ["test_s", "tests_per_s", "setup_s", "peak_rss_mb"];

/// Per-layer metrics, reported by every traced run.
const PER_LAYER: [&str; 38] = [
    "bio.parse_s",
    "bio.patterns",
    "lik.problem_s",
    "linalg.syrk_gflops",
    "linalg.gemv_gflops",
    "linalg.gemv_flops_per_byte",
    "expm.eigen_s",
    "expm.pt_s",
    "lik.eval_full_s",
    "lik.cpv_bytes",
    "lik.eval_probe_s",
    "lik.reuse.units_reused",
    "lik.reuse.units_recomputed",
    "lik.reuse.hit_rate",
    "lik.eval_global_s",
    "lik.par_speedup",
    "lik.evaluations",
    "lik.pruning.units",
    "lik.phase.eigen_s",
    "lik.phase.expm_s",
    "lik.phase.pruning_s",
    "lik.phase.reduction_s",
    "opt.iterations",
    "opt.f_evals",
    "opt.evals_per_iter",
    "opt.capped",
    "opt.overhead_s",
    "core.unreported_s",
    "core.unreported_evals",
    "batch.run_s",
    "batch.busy_frac",
    "batch.queue_wait_s",
    "batch.tail_idle_s",
    "batch.journal_bytes",
    "batch.retries",
    "proc.cpu_s",
    "obs.overhead_frac",
    "paper.eval_speedup",
];

/// Environment variables the program reads for defaults
/// (`AnalysisOptions::default`, `reuse_enabled`, manifest defaults, SIMD
/// dispatch, metrics and trace switches). Any of them would change what a
/// workload runs, so the benchmark refuses to run while one is set.
const REFUSED_ENV: [&str; 5] = [
    "SLIMCODEML_THREADS",
    "SLIMCODEML_REUSE",
    "SLIMCODEML_SIMD",
    "SLIMCODEML_METRICS",
    "SLIMCODEML_TRACE",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("duration"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace switch")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The untraced closed loop: the end-to-end metrics.
fn untraced(args: &Args, work: &std::path::Path) -> Report {
    let w = args.workload;
    let mut report = Report::new();
    let panel = w.panel(args.seed, args.seconds);
    let setup = || {
        let threads = w.spec().engine_threads;
        run::measure_setup(&panel, threads, SETUP_REPS / 2, &mut |_, _, _| {})
    };
    let before = setup();
    let result = match w {
        Workload::BranchScan => loops::scan_loop(&panel, work),
        _ => loops::gene_loop(w, &panel, args.seconds),
    };
    match before.and_then(|b| Ok([b.totals, setup()?.totals].concat())) {
        Ok(totals) => report.metric("setup_s", stats::median(&totals), "s", totals.len()),
        Err(e) => report.error(e),
    }
    for v in result.verdicts {
        report.count(v);
    }
    if result.skipped > 0 {
        report.note(format!(
            "{} of {} genes not started: the run passed its time limit or its client stopped on errors",
            result.skipped,
            panel.len()
        ));
    }
    let n = result.test_s.len();
    if n == 0 {
        report.wrong("no test completed".into());
    }
    // The mean, not the median: a run completes a dozen tests (30 jobs on
    // the scan), and test times are bimodal (a test whose jittered H1 fit
    // lands below H0 runs a second H1 fit), so the run median jumps between
    // modes while the mean does not. The median is printed too.
    report.metric("test_s", stats::mean(&result.test_s), "s", n);
    report.metric("tests_per_s", result.tests_per_s, "1/s", n);
    report.note(format!(
        "fail_frac {} ({} of {} tests failed)",
        stats::fail_frac(report.failed, report.attempted),
        report.failed,
        report.attempted
    ));
    let samples: Vec<String> = result.test_s.iter().map(|t| format!("{t:.4}")).collect();
    report.note(format!(
        "test_s median {:.4} s (n={n})",
        stats::median(&result.test_s)
    ));
    report.note(format!("test_s samples: {}", samples.join(" ")));
    match stats::peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB", 1),
        None => report.error("VmHWM unreadable".into()),
    }
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run while {} is set", set.join(", "));
        return ExitCode::from(2);
    }
    // One line per panic, never a backtrace: the pool and `run_test`
    // recover from panics in the program, and symbolizing a backtrace
    // (when RUST_BACKTRACE is set) would add its time and memory to the
    // run's figures.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: {info}")));
    let w = args.workload;
    let spec = w.spec();
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# machine nproc={} cpu=\"{}\" simd={} engine_threads={} clients={} shape={}x{}",
        std::thread::available_parallelism().map_or(0, usize::from),
        cpu_model(),
        slim_lik::simd::resolve(slim_lik::SimdMode::Auto).name(),
        spec.engine_threads,
        spec.clients,
        spec.species,
        spec.codons
    );
    if args.trace {
        traced::traced(w, args.seed, args.seconds, &work).print(&PER_LAYER);
    } else {
        untraced(&args, &work).print(&END_TO_END);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names here and in BENCHMARK.json are the same lists, and
    /// it lists every workload but gene_deep.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let named = json.matches("\"name\"").count();
        assert!(!json.contains("gene_deep"));
        let workloads = ["gene_long", "branch_scan"];
        assert_eq!(named, workloads.len() + END_TO_END.len() + PER_LAYER.len());
        for name in workloads.iter().chain(&END_TO_END).chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
    }
}
