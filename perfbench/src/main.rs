//! Repository benchmark: runs one workload by name and seed, checks its
//! output, and prints every metric as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-active --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times the workload end to end with tracing off; `--trace 1`
//! runs the traced replica at 1 and 2 threads and reports per-layer
//! metrics.  NOTES.md says why each workload and metric exists.

mod check;
mod proc_stats;
mod trace;
mod workload;

use check::Checks;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Workload, THREADS};

/// Set-ups timed per run, `setup_s` being their median: at least the
/// minimum, and more while they stay within the set-up budget.
const SETUP_REPEATS: (usize, usize) = (3, 9);
const SETUP_BUDGET: Duration = Duration::from_secs(2);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut raw = raw.skip(1);
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(workload::DEFAULT_SEED),
            seconds: seconds.unwrap_or(20).max(1),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let metrics = if args.trace {
        trace::run(args.workload, args.seed, &mut checks)
    } else {
        timed(&args, &mut checks)
    };
    println!("{}", result_line(&checks, &metrics));
    ExitCode::SUCCESS
}

/// The end-to-end measurement: tracing off, `THREADS` workers, workload
/// iterations until the time budget is spent (at least one).
fn timed(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let (workload, seed) = (args.workload, args.seed);

    let mut setups = Vec::new();
    let mut truth = None;
    let setup_started = Instant::now();
    while setups.len() < SETUP_REPEATS.0
        || (setups.len() < SETUP_REPEATS.1 && setup_started.elapsed() < SETUP_BUDGET)
    {
        let start = Instant::now();
        let internet = std::hint::black_box(workload::setup(workload, seed));
        setups.push(start.elapsed().as_secs_f64());
        // Runs that do not keep their Internet score against a set-up one,
        // whose state is the same.
        if workload == Workload::SilentProbing && truth.is_none() {
            truth = Some(internet.ground_truth());
        }
    }

    eprintln!("perfbench: set-up samples (s): {setups:.3?}");

    let budget = Duration::from_secs(args.seconds);
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut first: Option<(String, usize, (f64, f64))> = None;
    let mut peak_rss_mb = 0.0;
    let started = Instant::now();
    loop {
        let (user_before, system_before) = proc_stats::cpu_split_seconds();
        let start = Instant::now();
        let outcome = workload::run(workload, seed, THREADS);
        let digest = std::hint::black_box(workload::digest(&outcome.text));
        walls.push(start.elapsed().as_secs_f64());
        let (user, system) = proc_stats::cpu_split_seconds();
        let (user, system) = (user - user_before, system - system_before);
        cpus.push(user + system);
        eprintln!(
            "perfbench: {} seed {seed} iteration {}: {:.3} s wall, {user:.2} s user, \
             {system:.2} s system, digest {digest}",
            workload.name(),
            walls.len(),
            walls[walls.len() - 1]
        );
        match &first {
            None => {
                // Later iterations reuse the allocator's retained memory,
                // so the peak is read after the first.
                peak_rss_mb = proc_stats::peak_rss_mb();
                let score = match (&outcome.internet, &truth) {
                    (Some(internet), _) => outcome.score(&internet.ground_truth()),
                    (None, Some(truth)) => outcome.score(truth),
                    (None, None) => unreachable!("every workload has a ground truth"),
                };
                first = Some((outcome.text, outcome.addrs, score));
            }
            Some((text, _, _)) => checks.record(
                "repeat iteration renders the same output",
                outcome.text == *text,
            ),
        }
        let elapsed = started.elapsed();
        let per_iteration = elapsed / walls.len() as u32;
        if elapsed + per_iteration > budget {
            break;
        }
    }
    let (text, addrs, (precision, recall)) = first.expect("at least one iteration ran");
    check::output(workload, seed, &text, checks);

    let wall = median(&walls);
    vec![
        metric("wall_s", wall, "s"),
        metric("setup_s", median(&setups), "s"),
        metric("cpu_s", median(&cpus), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("addrs_per_s", addrs as f64 / wall, "1/s"),
        metric("pair_precision", precision, "ratio"),
        metric("pair_recall", recall, "ratio"),
        metric("pass_frac", checks.pass_fraction(), "ratio"),
    ]
}

/// Median of a non-empty sample (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a ratio over nothing reports 0, and so
/// does an empty sum (which floating point makes -0).
fn json_number(value: f64) -> String {
    if value.is_finite() && value != 0.0 {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}
