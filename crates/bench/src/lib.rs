//! Shared harness utilities for the figure/table benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md §3 for the index) and prints the same series the
//! paper plots, plus the paper's reported values for side-by-side comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;

use cluster::ClusterSpec;
use dataflow::{BlockMap, JobSpec};

/// Runs a job under the monotasks executor with default config.
pub fn run_mono(
    cluster: &ClusterSpec,
    job: JobSpec,
    blocks: BlockMap,
) -> monotasks_core::MonoRunOutput {
    monotasks_core::run(
        cluster,
        &[(job, blocks)],
        &monotasks_core::MonoConfig::default(),
    )
}

/// Runs a job under the Spark-like executor with default config.
pub fn run_spark(
    cluster: &ClusterSpec,
    job: JobSpec,
    blocks: BlockMap,
) -> sparklike::SparkRunOutput {
    sparklike::run(
        cluster,
        &[(job, blocks)],
        &sparklike::SparkConfig::default(),
    )
}

/// Command-line flags of a bench binary, consumed front to back.
///
/// User input never panics: `--help` prints the usage and exits 0; an
/// unknown flag, a missing value, or a malformed value prints the problem
/// and the usage to stderr and exits 2.
pub struct Cli {
    usage: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Cli {
    /// The process arguments (without the program name).
    pub fn from_env(usage: &'static str) -> Cli {
        Cli {
            usage,
            args: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
        }
    }

    /// The next flag, or `None` when the arguments are exhausted. Handles
    /// `--help` / `-h` itself.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.args.next()?;
        if flag == "--help" || flag == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(flag)
    }

    /// The value following `flag`, parsed.
    pub fn value<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let Some(raw) = self.args.next() else {
            self.fail(format!("{flag} needs a value"));
        };
        raw.trim()
            .parse()
            .unwrap_or_else(|_| self.fail(format!("bad value for {flag}: {raw:?}")))
    }

    /// The comma-separated list following `flag`, each entry parsed.
    pub fn list<T: std::str::FromStr>(&mut self, flag: &str) -> Vec<T> {
        let raw: String = self.value(flag);
        raw.split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| self.fail(format!("bad entry in {flag}: {s:?}")))
            })
            .collect()
    }

    /// Reports a usage error and exits with status 2.
    pub fn fail(&self, msg: impl std::fmt::Display) -> ! {
        eprintln!("error: {msg}\n\n{}", self.usage);
        std::process::exit(2);
    }
}

/// Relative difference `(b - a) / a` in percent.
pub fn pct_diff(a: f64, b: f64) -> f64 {
    100.0 * (b - a) / a
}

/// Relative error of `predicted` against `actual`, in percent (absolute).
pub fn pct_err(actual: f64, predicted: f64) -> f64 {
    (100.0 * (predicted - actual) / actual).abs()
}

/// Prints a standard figure header.
pub fn header(id: &str, title: &str, paper_claim: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper: {paper_claim}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_helpers() {
        assert_eq!(pct_diff(100.0, 91.0), -9.0);
        assert_eq!(pct_err(100.0, 128.0), 28.0);
        assert_eq!(pct_err(100.0, 72.0), 28.0);
    }
}
