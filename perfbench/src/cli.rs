//! Command line: `--workload NAME [--seed N] [--seconds N] [--trace 0|1]`.
//!
//! Parsing never panics: a bad flag becomes an `Err` with a message, which
//! `main` prints above the usage text before exiting with code 2.

use crate::work::Workload;

/// Seed used when `--seed` is absent. It differs from 42, the seed the fault
/// replay model's error band was calibrated on, so `faults-spec` scores the
/// model on plans it was not tuned on by default.
pub const DEFAULT_SEED: u64 = 7;

/// Measurement window used when `--seconds` is absent.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Usage text, printed by `--help` and after every argument error.
pub const USAGE: &str = "\
usage: perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]

Runs one named workload for the given number of seconds, checks every
output, and prints one JSON result object as the last line of stdout.

  --workload NAME   sort-rack | bdb-traced | faults-spec | live-mr
  --seed N          input seed (default 7); the same seed gives the same inputs
  --seconds N       length of the timed section in seconds (default 10)
  --trace 0|1       0 (default): end-to-end metrics with tracing off;
                    1: the traced run, reporting per-layer metrics and
                    writing its spans as Chrome JSON under .bench_out/
  --traced          same as --trace 1
  --record          print the default-seed makespans and counters as the
                    source of src/expected.rs instead of a JSON result
  -h, --help        print this text
";

/// A fully parsed invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed-section length in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub traced: bool,
    /// Print the expected-value table instead of measuring.
    pub record: bool,
}

/// What the command line asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run a workload.
    Run(Args),
    /// Print usage and exit 0.
    Help,
}

/// Parses the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut record = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        // Accept both `--flag value` and `--flag=value`.
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        let mut value = |name: &str| -> Result<String, String> {
            inline
                .clone()
                .or_else(|| it.next())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--workload" => {
                let v = value("--workload")?;
                workload =
                    Some(Workload::from_name(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants a non-negative integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds wants a number in (0, 3600], got {v:?}"))?;
            }
            "--trace" => {
                traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                };
            }
            "--traced" if inline.is_none() => traced = true,
            "--record" if inline.is_none() => record = true,
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        traced,
        record,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_full_form() {
        let cmd = parse_strs(&[
            "--workload",
            "sort-rack",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            cmd,
            Ok(Command::Run(Args {
                workload: Workload::SortRack,
                seed: 3,
                seconds: 10.0,
                traced: true,
                record: false,
            }))
        );
    }

    #[test]
    fn defaults_and_inline_values() {
        let Ok(Command::Run(a)) = parse_strs(&["--workload=live-mr", "--traced"]) else {
            panic!("should parse");
        };
        assert_eq!(a.seed, DEFAULT_SEED);
        assert_eq!(a.seconds, DEFAULT_SECONDS);
        assert!(a.traced);
        assert_ne!(DEFAULT_SEED, 42, "the default seed must be held out");
    }

    #[test]
    fn help_wins() {
        assert_eq!(parse_strs(&["--help"]), Ok(Command::Help));
        assert_eq!(
            parse_strs(&["--workload", "sort-rack", "-h"]),
            Ok(Command::Help)
        );
        assert_eq!(parse_strs(&["-h"]), Ok(Command::Help));
    }

    #[test]
    fn rejects_bad_input_without_panicking() {
        for bad in [
            &[][..],
            &["--workload"],
            &["--workload", "nope"],
            &["--workload", "sort-rack", "--seed", "-1"],
            &["--workload", "sort-rack", "--seconds", "0"],
            &["--workload", "sort-rack", "--seconds", "NaN"],
            &["--workload", "sort-rack", "--trace", "2"],
            &["--workload", "sort-rack", "--traced=1"],
            &["--workload", "sort-rack", "--bogus"],
            &["stray"],
        ] {
            assert!(parse_strs(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
