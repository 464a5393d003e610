//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <converge|churn|serve|lossy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for `--seconds`,
//! checks every output against an oracle, prints one `detail` line (host,
//! sample counts, check breakdown) and, as its last line, the result:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics from
//! the outside-in span trace with `--trace 1`. See `perfbench/README.md`.

mod churn;
mod converge;
mod host;
mod lossy;
mod metrics;
mod oracle;
mod rng;
mod serve;
mod setup;
mod stats;
mod trace;

use metrics::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// Workloads this binary runs.
pub const WORKLOADS: &[&str] = &["converge", "churn", "serve", "lossy"];
/// The seed the recorded baselines use.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed, kept out of tuning, for checking later claims.
pub const HELD_OUT_SEED: u64 = 7;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Duration::from_secs(number()?.max(1)),
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Layer metrics every workload derives the same way from its set-up
/// spans, averaged over its `setups` set-ups, plus the trace's own
/// coverage and overhead.
fn summarize_trace(outcome: &mut Outcome, setups: f64, span_cost_ns: f64, timed_ns: u64) {
    let (spans, windows) = trace::take();
    let selfs = trace::self_times(&spans);
    let per_setup = |names: &[(&str, &str)]| {
        names
            .iter()
            .map(|(layer, name)| trace::self_ms(&spans, &selfs, layer, name))
            .fold(0.0, |a, b| a + b)
            / setups.max(1.0)
    };
    outcome.set(
        "lang.compile_ms",
        per_setup(&[("lang", "parse"), ("lang", "optimize"), ("core", "plan")]),
    );
    outcome.set(
        "net.topology_ms",
        per_setup(&[
            ("net", "gtitm_generate"),
            ("net", "random_neighbors"),
            ("net", "overlay_links"),
        ]),
    );
    outcome.set("core.engine_new_ms", per_setup(&[("core", "engine_new")]));
    outcome.set("core.load_ms", per_setup(&[("core", "insert_base")]));
    outcome.set("trace.spans", spans.len() as f64);
    outcome.set("trace.coverage", trace::coverage(&spans, &windows));
    outcome.set(
        "trace.overhead_share",
        spans.len() as f64 * span_cost_ns / timed_ns.max(1) as f64,
    );
    outcome.note("trace_span_cost_ns", format!("{span_cost_ns:.1}"));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let calibration_ms = host::calibration_ms();
    let span_cost_ns = if args.traced {
        trace::span_cost_ns()
    } else {
        0.0
    };
    if args.traced {
        trace::enable();
    }
    let run = match args.workload.as_str() {
        "converge" => converge::run(&args),
        "churn" => churn::run(&args),
        "serve" => serve::run(&args),
        _ => lossy::run(&args),
    };
    let mut outcome = run.outcome;
    if !outcome.values.contains_key("peak_rss_mb") {
        outcome.set("peak_rss_mb", host::peak_rss_mb());
    }
    if args.traced {
        summarize_trace(&mut outcome, run.setups as f64, span_cost_ns, run.timed_ns);
    }
    let host = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("default_seed", DEFAULT_SEED.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", args.seconds.as_secs().to_string()),
        ("traced", args.traced.to_string()),
        ("cpus", host::cpus().to_string()),
        ("rustc", host::rustc_version().to_string()),
        ("calibration_ms", format!("{calibration_ms:.2}")),
        ("timed_s", format!("{:.3}", run.timed_ns as f64 / 1e9)),
    ];
    println!("{}", metrics::detail_line(&outcome, &host));
    match metrics::result_line(&outcome, args.traced) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A workload's result plus what the trace summary needs.
pub struct Run {
    pub outcome: Outcome,
    /// Set-ups performed (the divisor of the per-set-up layer times).
    pub setups: u64,
    /// Wall time inside the timed windows.
    pub timed_ns: u64,
}
