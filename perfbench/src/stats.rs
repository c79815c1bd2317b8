//! The benchmark's own arithmetic: summaries, ratios, the clock and the
//! `/proc` readers. Kept free of program calls so it can be unit-tested
//! alone.

use std::time::Instant;

/// The benchmark's one wall clock; every time it reports is a difference
/// of two readings.
pub fn clock() -> Instant {
    // check: allow(det-wallclock) benchmark timings are its output and feed no program result
    Instant::now()
}

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Arithmetic mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// `num / den`, defined as 0 when `den` is 0, so a ratio over no work
/// (no units, no tests, no iterations) reads 0 rather than NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    // check: allow(det-float-cmp) exactly zero is the one denominator defined as a zero ratio
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Failed tests over attempted tests.
pub fn fail_frac(failed: usize, attempted: usize) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// Reused units over all units the reuse engine processed.
pub fn hit_rate(reused: u64, recomputed: u64) -> f64 {
    ratio(reused as f64, (reused + recomputed) as f64)
}

/// Share of the pool's capacity spent inside jobs: Σ job seconds over
/// (workers × run seconds).
pub fn busy_frac(job_seconds: &[f64], workers: usize, run_s: f64) -> f64 {
    ratio(job_seconds.iter().sum(), workers as f64 * run_s)
}

/// Idle tail of a pool run: from the moment the first worker had no job
/// left to the end of the run. `completions` are the run's job completion
/// times (seconds since the run started, any order). With `workers`
/// workers the last job starts at the completion that leaves `workers`
/// jobs unfinished, so the next completion idles a worker; with fewer
/// jobs than workers a worker idles from the start.
pub fn tail_idle_s(completions: &[f64], workers: usize, run_s: f64) -> f64 {
    let mut done: Vec<f64> = completions.to_vec();
    done.sort_by(f64::total_cmp);
    let n = done.len();
    if n == 0 {
        return 0.0;
    }
    let w = workers.max(1);
    let first_idle = if n < w { 0.0 } else { done[n - w] };
    (run_s - first_idle).max(0.0)
}

/// Peak resident set in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Clock ticks per second of `/proc/<pid>/stat` times. `USER_HZ` is 100 on
/// every Linux architecture this benchmark targets.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces, so fields are counted from the
/// closing parenthesis; utime and stime are fields 14 and 15.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// This process's user + system CPU seconds, all threads.
pub fn cpu_s() -> Option<f64> {
    parse_stat_cpu_s(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Relative difference `|a - b| / |a|`, the paper's accuracy measure D.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    ratio((a - b).abs(), a.abs())
}

/// SplitMix64 finalizer over (seed, index): decorrelated alignment seeds
/// for the genes of a run.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn fail_frac_counts_and_empty() {
        assert_eq!(fail_frac(1, 4), 0.25);
        assert_eq!(fail_frac(0, 7), 0.0);
        assert_eq!(fail_frac(0, 0), 0.0);
    }

    #[test]
    fn hit_rate_zero_over_zero_is_zero() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(3, 1), 0.75);
        assert_eq!(hit_rate(0, 5), 0.0);
    }

    #[test]
    fn busy_frac_of_pool() {
        // Two workers, 10 s run, 15 job-seconds: 75% busy.
        assert_eq!(busy_frac(&[5.0, 4.0, 6.0], 2, 10.0), 0.75);
        assert_eq!(busy_frac(&[], 2, 0.0), 0.0);
    }

    #[test]
    fn tail_idle_starts_when_first_worker_runs_dry() {
        // Two workers; jobs end at 2, 3, 7, 9; run ends at 9.5. The first
        // worker runs dry at 7, when only one job is left running.
        assert_eq!(tail_idle_s(&[9.0, 2.0, 7.0, 3.0], 2, 9.5), 2.5);
        // One job on two workers: a worker idles from the start.
        assert_eq!(tail_idle_s(&[4.0], 2, 4.5), 4.5);
        assert_eq!(tail_idle_s(&[], 2, 1.0), 0.0);
    }

    #[test]
    fn vm_hwm_parses_kib_to_mib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t x kB\n"), None);
    }

    #[test]
    fn stat_cpu_skips_command_with_spaces() {
        let stat = "42 (perf bench) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn rel_diff_is_relative() {
        assert!((rel_diff(-1000.0, -1000.001) - 1e-6).abs() < 1e-15);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }

    #[test]
    fn mix_separates_seeds_and_indices() {
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(5, 3), mix(5, 3));
    }
}
