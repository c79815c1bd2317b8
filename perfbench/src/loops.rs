//! The untraced, closed-loop runs behind the end-to-end metrics.

use crate::gen::{Gene, Workload};
use crate::run::{check_job, check_test, parse, run_batch_genes, run_test, Branches, Verdict};
use crate::stats::{clock, ratio};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What a closed-loop run measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Wall seconds of each completed test.
    pub test_s: Vec<f64>,
    /// Tests completed per second.
    pub tests_per_s: f64,
    /// The checks on every attempted test.
    pub verdicts: Vec<Verdict>,
    /// Genes of the panel that no client started, because the run passed
    /// its time limit or a client stopped on errors.
    pub skipped: usize,
}

/// Errors in a row after which a client stops: each gene is different
/// data, so one error is counted and the next gene tried, but a program
/// that fails on everything ends the run early.
const MAX_ERRORS_IN_A_ROW: usize = 3;

/// Multiple of `--seconds` after which no new test starts. The panel is
/// sized to fill less than `--seconds`, so only a much slower program
/// reaches this; it bounds the length of such a run.
const OVERRUN: f64 = 2.0;

/// Single-gene workloads: `clients` threads each take the next gene of the
/// panel and test it, until every gene is tested.
///
/// `tests_per_s` is the tests completed over the loop's wall time.
pub fn gene_loop(w: Workload, panel: &[Gene], seconds: f64) -> LoopResult {
    let spec = w.spec();
    let next = AtomicUsize::new(0);
    let start = clock();
    let client = || {
        let (mut done, mut runs, mut errors) = (Vec::new(), Vec::new(), Vec::new());
        let mut in_a_row = 0;
        while in_a_row < MAX_ERRORS_IN_A_ROW && start.elapsed().as_secs_f64() < OVERRUN * seconds {
            // Relaxed: the ticket publishes no other data.
            let Some(gene) = panel.get(next.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            match parse(gene).and_then(|input| Ok((run_test(&input, spec.engine_threads)?, input)))
            {
                Ok((run, input)) => {
                    in_a_row = 0;
                    done.push(run.seconds);
                    runs.push((input, run));
                }
                Err(e) => {
                    in_a_row += 1;
                    errors.push(Verdict::error(format!("{}: {e}", gene.id)));
                }
            }
        }
        // Checks run after the timed loop, so their cost (a CodeML-style
        // evaluation per test) stays out of the throughput.
        let mut verdicts: Vec<Verdict> = runs.iter().map(|(i, r)| check_test(i, r)).collect();
        verdicts.extend(errors);
        (done, verdicts)
    };
    let clients: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.clients).map(|_| s.spawn(client)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut result = LoopResult::default();
    for c in clients {
        match c {
            Ok((done, verdicts)) => {
                result.test_s.extend(done);
                result.verdicts.extend(verdicts);
            }
            Err(_) => result
                .verdicts
                .push(Verdict::error("a client thread panicked".into())),
        }
    }
    result.skipped = panel.len().saturating_sub(next.load(Ordering::Relaxed));
    result.tests_per_s = ratio(result.test_s.len() as f64, wall_s);
    result
}

/// Branch scan: one `run_batch` call over a manifest of the panel's genes,
/// every branch of each tested as the foreground. `test_s` holds the
/// pool's per-job seconds; `tests_per_s` is jobs over the call's wall
/// time, straggling tail included. The manifest and journal live in a
/// directory of their own under `work`, removed again after the call.
pub fn scan_loop(panel: &[Gene], work: &Path) -> LoopResult {
    let workers = Workload::BranchScan.spec().clients;
    let mut result = LoopResult::default();
    let dir = work.join(format!("scan-{}", std::process::id()));
    match run_batch_genes(panel, Branches::All, workers, &dir) {
        Ok(run) => {
            for rec in &run.records {
                result.test_s.push(rec.seconds);
                result.verdicts.push(check_job(rec));
            }
            result.tests_per_s = ratio(run.records.len() as f64, run.run_s);
        }
        Err(e) => result.verdicts.push(Verdict::error(e)),
    }
    result
}
