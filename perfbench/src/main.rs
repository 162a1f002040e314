//! The repository benchmark. One invocation runs one workload in-process
//! against the library's public entry points and prints, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|verify|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that records spans and counters and reports the per-layer
//! metrics. The line before the result holds provenance and details.
//! README.md documents the workloads and metrics.

mod calib;
mod layers;
mod pairs;
mod report;
mod serve;
mod spans;
mod stats;
mod sweep;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["sweep", "verify", "serve-mixed"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Scratch directory inside the working directory, removed at exit.
    pub work_dir: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value}; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                traced = Some(match value.as_str() {
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
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.traced,
        work_dir: work_dir.clone(),
    };
    let outcome = match args.workload.as_str() {
        "sweep" => Ok(sweep::run(&ctx)),
        "verify" => Ok(verify::run(&ctx)),
        _ => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok(outcome) => {
            let provenance =
                report::provenance(&args.workload, args.seed, args.seconds, args.traced);
            println!("{}", report::details_line(&provenance, &outcome));
            let extra: &[(&str, &str)] = if args.workload == "serve-mixed" {
                &report::SERVE_LAYER
            } else {
                &[]
            };
            println!("{}", report::result_line(&outcome, args.traced, extra));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "verify",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("verify", 7, 10, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "sweep", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sweep", "--seed"]).is_err());
        assert!(args(&["--workload", "sweep", "--seed", "x"]).is_err());
    }
}
