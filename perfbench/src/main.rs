//! The repository's benchmark: one entry point that sets up a named
//! workload from a seed, runs it for a fixed number of seconds, checks every
//! output, and prints each metric by name with its unit.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sort-rack --seed 7 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics, measured with the
//! span recorder off. With `--trace 1` it alternates untraced and traced
//! iterations, reports the per-layer metrics from the traced ones (span self
//! times next to each run's `SimStats` buckets) and the tracing overhead,
//! and writes the spans as Chrome JSON to
//! `.bench_out/<workload>/perfbench.trace.json`. See `perfbench/NOTES.md`
//! for what each workload stresses and the layer shares measured.

mod checks;
mod cli;
mod expected;
mod report;
mod spans;
mod work;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{median, Samples, Tally, END_TO_END, PER_LAYER};
use spans::Recorder;
use work::{Bench, Cx, Op, Size, Workload};

/// Where workloads write their files, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Set-ups stop once they have taken this long in total (after the
/// workload's minimum count) or after [`MAX_SETUPS`].
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 25;

/// Everything one run produced.
pub struct RunOutcome {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Fingerprints of the first iteration's simulated runs.
    pub fingerprints: Vec<String>,
}

/// What one run measures.
pub struct Plan<'a> {
    /// Workload to run.
    pub workload: Workload,
    /// Input scale.
    pub size: Size,
    /// Input seed.
    pub seed: u64,
    /// Timed-section length.
    pub seconds: f64,
    /// Traced run instead of the end-to-end run.
    pub traced: bool,
    /// Directory for the workload's files.
    pub dir: &'a Path,
    /// Fingerprints every iteration must reproduce exactly, if recorded.
    pub expected: Option<&'a [&'a str]>,
}

/// Settles one iteration's operations into the tally: each operation's own
/// verdict, and for simulated runs its fingerprint against the first
/// iteration's and against the recorded values.
fn settle(
    ops: Vec<Op>,
    first: &mut Option<Vec<String>>,
    expected: Option<&[&str]>,
    tally: &mut Tally,
) {
    let fps: Vec<String> = ops.iter().filter_map(|o| o.fingerprint.clone()).collect();
    let vs_first = first.as_ref().map(|f| {
        let refs: Vec<&str> = f.iter().map(String::as_str).collect();
        checks::compare(&fps, &refs, "differs from the run's first iteration")
    });
    let vs_expected = expected.map(|e| checks::compare(&fps, e, "differs from the recorded value"));
    let mut k = 0;
    for op in ops {
        let mut verdict = op.verdict;
        if op.fingerprint.is_some() {
            for cmp in [&vs_first, &vs_expected].into_iter().flatten() {
                verdict = verdict.and(cmp[k].clone());
            }
            k += 1;
        }
        tally.record(verdict);
    }
    if let Some(e) = expected {
        // A recorded run that did not happen at all (e.g. it panicked before
        // producing a fingerprint) is also a failure.
        for missing in e.iter().skip(fps.len()) {
            tally.record(Err(format!("recorded run `{missing}` is missing")));
        }
    }
    first.get_or_insert(fps);
}

/// Per-layer samples of one traced iteration: span self times plus the
/// counters the program returned.
fn layer_samples(samples: &mut Samples, cx: &Cx, mark: usize, wall: f64) {
    let by_op = cx.rec.self_by_op(mark);
    let op = |name: &str| by_op.get(name).copied().unwrap_or(0.0);
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let core_s = op("core.run") + op("core.run_spec");
    let (m, s) = (&cx.mono, &cx.spark);
    let buckets =
        m.allocator_nanos() + m.control_nanos + m.template_build_nanos + m.instantiate_nanos;
    let mib = 1024.0 * 1024.0;
    let values: Vec<(&'static str, f64)> = vec![
        ("core.run_s", op("core.run")),
        ("core.spec_run_s", op("core.run_spec")),
        ("core.events", m.events as f64),
        ("core.us_per_event", per(core_s * 1e6, m.events as f64)),
        ("core.control_s", m.control_secs()),
        ("core.template_build_s", m.template_build_secs()),
        ("core.instantiate_s", m.instantiate_secs()),
        (
            "core.template_hit_ratio",
            per(
                m.template_hits as f64,
                (m.template_hits + m.template_misses) as f64,
            ),
        ),
        ("core.unattributed_s", core_s - buckets as f64 / 1e9),
        ("core.sim_s_per_wall_s", per(cx.mono_sim_s, core_s)),
        ("core.mono_copies", m.mono_copies as f64),
        (
            "core.mono_copy_win_ratio",
            per(m.mono_copy_wins as f64, m.mono_copies as f64),
        ),
        ("core.wasted_mib", m.wasted_bytes as f64 / mib),
        ("core.tasks_retried", m.tasks_retried as f64),
        ("core.fetch_retries", m.fetch_retries as f64),
        ("core.fetches_replanned", m.fetches_replanned as f64),
        ("cluster.machine_alloc_s", m.machine_alloc_secs()),
        ("simcore.alloc_s", m.alloc_secs()),
        ("simcore.reallocs", m.reallocs as f64),
        ("simcore.drain_s", m.drain_secs()),
        ("simcore.completion_s", m.completion_secs()),
        ("simcore.shard_epochs", m.shard_epochs as f64),
        ("simcore.cross_shard_events", m.cross_shard_events as f64),
        ("simcore.parallel_commits", m.parallel_commits as f64),
        ("sparklike.run_s", op("sparklike.run")),
        ("sparklike.events", s.events as f64),
        ("sparklike.tasks_speculated", s.tasks_speculated as f64),
        ("sparklike.tasks_retried", s.tasks_retried as f64),
        ("sparklike.wasted_mib", s.wasted_bytes as f64 / mib),
        ("trace.export_s", op("trace.export")),
        ("perfmodel.profile_s", op("perfmodel.profile")),
        ("perfmodel.replay_s", op("perfmodel.replay")),
        ("live.run_s", op("live.run")),
        ("bench.check_s", op("bench.check")),
        ("bench.self_s", op("bench.iteration")),
        ("bench.traced_wall_s", wall),
    ];
    for (name, v) in values
        .into_iter()
        .chain(cx.layers.iter().map(|(&n, &v)| (n, v)))
    {
        samples.push(name, v);
    }
}

/// Sets up, runs the timed section, checks, and gathers the metrics.
pub fn run(plan: &Plan) -> Result<RunOutcome, String> {
    let w = plan.workload;
    let mut rec = Recorder::new(plan.traced);
    let mut tally = Tally::default();
    let mut samples = Samples::default();

    // Set-up, several times, so setup_s is a median.
    let mut setup_times = Vec::new();
    let mut bench: Option<Box<dyn Bench>> = None;
    while setup_times.len() < w.min_setups()
        || (setup_times.iter().sum::<f64>() < SETUP_BUDGET_S && setup_times.len() < MAX_SETUPS)
    {
        // Drop the previous set-up first so its files and threads are gone.
        drop(bench.take());
        let t = Instant::now();
        bench = Some(w.setup(plan.size, plan.seed, plan.dir, &mut rec)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up ran");
    let reps = setup_times.len() as f64;
    let setup_ops = rec.self_by_op(0);
    for (op, metric) in [
        ("workloads.gen", "workloads.gen_s"),
        ("live.write_input", "live.write_input_s"),
    ] {
        samples.push(metric, setup_ops.get(op).copied().unwrap_or(0.0) / reps);
    }
    bench.prepare();

    // Timed section. A traced run alternates untraced and traced
    // iterations, so both walls come from the same conditions.
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first = None;
    let start = Instant::now();
    for i in 0.. {
        let traced_iter = plan.traced && i % 2 == 1;
        rec.set_on(traced_iter);
        let mark = rec.spans().len();
        rec.begin("bench", "iteration");
        let t0 = Instant::now();
        let mut cx = Cx::new(&mut rec);
        bench.iterate(&mut cx);
        cx.rec.end();
        let wall = t0.elapsed().as_secs_f64();
        if traced_iter {
            traced_walls.push(wall);
            layer_samples(&mut samples, &cx, mark, wall);
        } else {
            walls.push(wall);
        }
        settle(cx.ops, &mut first, plan.expected, &mut tally);
        let done = start.elapsed().as_secs_f64() >= plan.seconds;
        if done && !walls.is_empty() && (!plan.traced || !traced_walls.is_empty()) {
            break;
        }
    }

    let metrics = if plan.traced {
        samples.push(
            "bench.trace_overhead_s",
            median(&traced_walls) - median(&walls),
        );
        rec.set_on(true);
        let verdict = write_span_trace(&rec, plan);
        tally.record(verdict);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, samples.median(name), unit))
            .collect()
    } else {
        let wall_s = median(&walls);
        let values = [
            ("wall_s", wall_s),
            ("setup_s", median(&setup_times)),
            (
                "input_mib_per_s",
                bench.input_bytes() / (1024.0 * 1024.0) / wall_s,
            ),
            ("peak_rss_mib", report::peak_rss_mib().unwrap_or(0.0)),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (_, v))| (name, v, unit))
            .collect()
    };
    eprintln!(
        "perfbench {}: seed {}, {} set-ups, {} untraced + {} traced iterations in {:.2} s",
        w.name(),
        plan.seed,
        setup_times.len(),
        walls.len(),
        traced_walls.len(),
        start.elapsed().as_secs_f64()
    );
    Ok(RunOutcome {
        tally,
        metrics,
        fingerprints: first.unwrap_or_default(),
    })
}

/// Writes the recorded spans once, as Chrome JSON, and validates the file.
fn write_span_trace(rec: &Recorder, plan: &Plan) -> Result<(), String> {
    let path: PathBuf = plan.dir.join("perfbench.trace.json");
    let json = rec
        .to_doc(&format!(
            "perfbench {} seed {}",
            plan.workload.name(),
            plan.seed
        ))
        .to_json();
    std::fs::create_dir_all(plan.dir).map_err(|e| format!("create {}: {e}", plan.dir.display()))?;
    std::fs::write(&path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    let back =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let stats = mt_trace::validate_chrome_json(&back)
        .map_err(|e| format!("span trace {} is not valid: {e}", path.display()))?;
    if stats.spans != rec.spans().len() {
        return Err(format!(
            "span trace holds {} spans, {} were recorded",
            stats.spans,
            rec.spans().len()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(cli::Command::Help) => {
            print!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Ok(cli::Command::Run(args)) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(OUT_DIR).join(args.workload.name());
    let expected = if args.seed == cli::DEFAULT_SEED && !args.record {
        expected::fingerprints(args.workload)
    } else {
        None
    };
    let plan = Plan {
        workload: args.workload,
        size: Size::Full,
        seed: args.seed,
        // Recording needs one iteration only.
        seconds: if args.record { 1e-9 } else { args.seconds },
        traced: args.traced,
        dir: &dir,
        expected,
    };
    match run(&plan) {
        Ok(out) => {
            for msg in &out.tally.messages {
                eprintln!("perfbench: failed: {msg}");
            }
            if args.record {
                for fp in &out.fingerprints {
                    println!("    \"{fp}\",");
                }
            } else {
                println!("{}", report::result_json(&out.tally, &out.metrics));
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-test directory inside the checkout's ignored output directory.
    pub fn test_dir(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(OUT_DIR)
            .join(format!("test-{name}"))
    }

    fn smoke(workload: Workload, traced: bool) -> RunOutcome {
        let dir = test_dir(&format!("{}-{traced}", workload.name()));
        let out = run(&Plan {
            workload,
            size: Size::Toy,
            seed: 3,
            seconds: 1e-3,
            traced,
            dir: &dir,
            expected: None,
        })
        .expect("toy set-up succeeds");
        assert!(out.tally.attempted > 0);
        assert_eq!(out.tally.failed, 0, "{:?}", out.tally.messages);
        let table = if traced { PER_LAYER } else { END_TO_END };
        assert_eq!(out.metrics.len(), table.len());
        for (name, value, _) in &out.metrics {
            assert!(value.is_finite(), "{name} = {value}");
            if !traced {
                assert!(*value > 0.0, "end-to-end {name} must never be 0");
            }
        }
        out
    }

    #[test]
    fn toy_sort_rack() {
        smoke(Workload::SortRack, false);
        let traced = smoke(Workload::SortRack, true);
        let get = |n: &str| traced.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert!(get("core.events") > 0.0);
        assert!(
            get("simcore.shard_epochs") > 0.0,
            "rack-sharded path is exercised"
        );
    }

    #[test]
    fn toy_bdb_traced() {
        smoke(Workload::BdbTraced, false);
        let traced = smoke(Workload::BdbTraced, true);
        let get = |n: &str| traced.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert!(get("trace.spans") > 0.0);
        assert!(get("cluster.trace_samples") > 0.0);
    }

    #[test]
    fn toy_faults_spec() {
        smoke(Workload::FaultsSpec, false);
        let traced = smoke(Workload::FaultsSpec, true);
        let get = |n: &str| traced.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert!(get("core.spec_run_s") > 0.0);
        assert!(get("perfmodel.replay_s") > 0.0);
    }

    #[test]
    fn toy_live_mr() {
        smoke(Workload::LiveMr, false);
        let traced = smoke(Workload::LiveMr, true);
        let get = |n: &str| traced.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert!(get("live.monotasks") > 0.0);
    }

    #[test]
    fn a_perturbed_expected_makespan_fails_the_run() {
        let dir = test_dir("perturbed");
        let plan = |expected| Plan {
            workload: Workload::SortRack,
            size: Size::Toy,
            seed: 5,
            seconds: 1e-3,
            traced: false,
            dir: &dir,
            expected,
        };
        let clean = run(&plan(None)).expect("set-up");
        assert_eq!(clean.tally.failed, 0);
        let recorded: Vec<&str> = clean.fingerprints.iter().map(String::as_str).collect();
        let again = run(&plan(Some(&recorded))).expect("set-up");
        assert_eq!(again.tally.failed, 0, "same seed reproduces exactly");

        let perturbed: Vec<String> = clean
            .fingerprints
            .iter()
            .map(|f| f.replacen("makespan_ns=", "makespan_ns=1", 1))
            .collect();
        let perturbed: Vec<&str> = perturbed.iter().map(String::as_str).collect();
        let bad = run(&plan(Some(&perturbed))).expect("set-up");
        assert!(bad.tally.failed > 0);
        assert!(bad.tally.messages[0].contains("differs from the recorded value"));
    }

    #[test]
    fn settle_counts_missing_and_diverging_runs() {
        let op = |fp: &str| Op {
            fingerprint: Some(fp.to_string()),
            verdict: Ok(()),
        };
        let mut tally = Tally::default();
        let mut first = None;
        settle(
            vec![op("a"), op("b")],
            &mut first,
            Some(&["a", "b", "c"]),
            &mut tally,
        );
        assert_eq!(
            (tally.attempted, tally.failed),
            (3, 1),
            "run c never happened"
        );
        settle(vec![op("a"), op("x")], &mut first, None, &mut tally);
        assert_eq!(tally.failed, 2, "second iteration diverged from the first");
    }
}
