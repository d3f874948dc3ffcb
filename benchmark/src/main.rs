//! Run one workload of the Dopia benchmark:
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload replay --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the run's context, every metric and any failure, then as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use dopia_benchmark::{run, Options, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: dopia-benchmark --workload replay|cold|sweep|faulted [--seed N] [--seconds S] [--trace 0|1]";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options { workload: Workload::Replay, seed: 1, seconds: 10.0, trace: false };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&opts);
    println!("context {}", result.context);
    for m in result.end_to_end.iter().chain(&result.per_layer) {
        println!("metric {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for s in &result.spans {
        println!(
            "span   {:<24} self median {:>12.0} ns  p99 {:>12.0} ns  count {}",
            s.name, s.median_ns, s.p99_ns, s.count
        );
    }
    for f in &result.failures {
        println!("failed {f}");
    }
    println!("{}", result.json_line(opts.trace));
    ExitCode::SUCCESS
}
