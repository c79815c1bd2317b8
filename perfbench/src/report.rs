//! Collects a run's metrics and verdicts and prints them: one line per
//! metric for people, then the result object as the last line.

use crate::run::Verdict;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// A run's outcome.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    /// Tests (or batch jobs) whose outputs were checked.
    pub attempted: usize,
    /// Checked tests that failed.
    pub failed: usize,
    wrong: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Add a metric measured over `samples` samples.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Count one checked test.
    pub fn count(&mut self, verdict: Verdict) {
        self.attempted += 1;
        if verdict.failed() {
            self.failed += 1;
            self.note(format!("failed: {}", verdict.failures.join("; ")));
        }
    }

    /// A broken invariant of the benchmark (a traced run that does not
    /// repeat, a measurement it could not take): the run is not correct.
    pub fn wrong(&mut self, message: String) {
        self.notes.push(format!("wrong: {message}"));
        self.wrong.push(message);
    }

    /// An error that stopped the run.
    pub fn error(&mut self, message: String) {
        self.wrong(format!("error: {message}"));
    }

    /// A line of context for people.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every output checked was right and every invariant held.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty() && self.attempted > 0
    }

    /// Print the human-readable lines, then the result object.
    pub fn print(&self, names: &[&str]) {
        for n in &self.notes {
            println!("# {n}");
        }
        let mut correct = self.correct();
        let mut fields = Vec::new();
        for &name in names {
            let Some(m) = self.metrics.iter().find(|m| m.name == name) else {
                println!("# missing metric {name}");
                correct = false;
                continue;
            };
            println!(
                "metric {:<28} {:>14.6} {:<14} n={}",
                m.name, m.value, m.unit, m.samples
            );
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                correct = false;
                "0".to_string()
            };
            fields.push(format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            ));
        }
        // A run that checked nothing reports one failed attempt.
        let (attempted, failed) = match self.attempted {
            0 => (1, 1),
            n => (n, self.failed),
        };
        println!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            fields.join(",")
        );
    }
}
