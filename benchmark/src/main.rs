//! The repo benchmark. See README.md for the protocol, the workloads and
//! the metric definitions, and ../BENCHMARK.json for bounds.
//!
//! ```text
//! mixnn-benchmark run --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! mixnn-benchmark run [--seed N] [--seconds S] [--trace 0|1] [--out FILE]   (session)
//! mixnn-benchmark run --smoke [--seed N]
//! mixnn-benchmark compare A.json B.json
//! ```

mod affinity;
mod alloc;
mod compare;
mod host;
mod json;
mod metrics;
mod procfs;
mod run;
mod stats;
mod trace;
mod workloads;

use run::RunArgs;
use std::process::ExitCode;
use workloads::Kind;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  run --workload W --seed N --seconds S --trace 0|1 [--out FILE]   one block of one workload
  run [--seed N] [--seconds S] [--trace 0|1] [--out FILE]          a session over every workload
  run --smoke [--seed N]                                            every correctness gate, quickly
  compare A.json B.json                                             A is the base, B the change";

/// The seed a session or smoke pass uses when none is given.
const DEFAULT_SEED: u64 = 7;
/// Timed seconds per block when none are given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let kind = Kind::parse(value).ok_or_else(|| {
                    let names = Kind::ALL.map(Kind::name).join(", ");
                    format!("unknown workload {value:?}; the workloads are {names}")
                })?;
                parsed.workload = Some(kind);
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not a whole number"))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && (0.0..=600.0).contains(s))
                    .ok_or_else(|| format!("--seconds {value:?} is not within 0..=600"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--out" => parsed.out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let run_args = parse_run(&args[1..])?;
            if run_args.workload.is_none() && !run_args.smoke {
                // The session only starts blocks; each child pins itself.
                return run::run_session(&run_args);
            }
            // Before any measured thread exists (affinity.rs).
            match affinity::pin_to_one_cpu() {
                Some(cpu) => println!("pinned to cpu {cpu}"),
                None => println!("not pinned: CPU affinity is not available here"),
            }
            match run_args.workload {
                Some(kind) if !run_args.smoke => run::run_block(&run_args, kind),
                _ => Ok(run::run_smoke(run_args.seed)),
            }
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("compare takes exactly two result files".to_string()),
        },
        _ => Err("expected `run` or `compare`".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_flags_parse() {
        let a = parse_run(&args(&[
            "--workload",
            "fl_train",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Some(Kind::FlTrain));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        let d = parse_run(&[]).unwrap();
        assert_eq!(
            (d.workload, d.seed, d.trace, d.smoke),
            (None, 7, false, false)
        );
        assert!(parse_run(&args(&["--smoke"])).unwrap().smoke);
    }

    #[test]
    fn bad_flags_are_refused_with_a_reason() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seed"],
            &["--seconds", "-1"],
            &["--seconds", "inf"],
            &["--trace", "2"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?} parsed");
        }
        assert!(dispatch(&args(&["compare", "only-one.json"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    /// The smoke pass drives every workload through its full correctness
    /// gate (the test profile is optimised for this).
    #[test]
    fn smoke_passes_every_gate() {
        assert!(run::run_smoke(DEFAULT_SEED));
    }
}
