//! Operation tally, metric tables, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("input_mib_per_s", "MiB/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload in the traced run. A layer
/// a workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.run_s", "s"),
    ("core.events", "count"),
    ("core.us_per_event", "us"),
    ("core.control_s", "s"),
    ("core.template_build_s", "s"),
    ("core.instantiate_s", "s"),
    ("core.template_hit_ratio", "ratio"),
    ("core.unattributed_s", "s"),
    ("core.sim_s_per_wall_s", "s/s"),
    ("core.spec_run_s", "s"),
    ("core.mono_copies", "count"),
    ("core.mono_copy_win_ratio", "ratio"),
    ("core.wasted_mib", "MiB"),
    ("core.tasks_retried", "count"),
    ("core.fetch_retries", "count"),
    ("core.fetches_replanned", "count"),
    ("cluster.machine_alloc_s", "s"),
    ("cluster.trace_samples", "count"),
    ("simcore.alloc_s", "s"),
    ("simcore.reallocs", "count"),
    ("simcore.drain_s", "s"),
    ("simcore.completion_s", "s"),
    ("simcore.shard_epochs", "count"),
    ("simcore.cross_shard_events", "count"),
    ("simcore.parallel_commits", "count"),
    ("sparklike.run_s", "s"),
    ("sparklike.events", "count"),
    ("sparklike.tasks_speculated", "count"),
    ("sparklike.tasks_retried", "count"),
    ("sparklike.wasted_mib", "MiB"),
    ("trace.export_s", "s"),
    ("trace.json_mib", "MiB"),
    ("trace.spans", "count"),
    ("perfmodel.profile_s", "s"),
    ("perfmodel.replay_s", "s"),
    ("perfmodel.replay_err_pct", "%"),
    ("live.run_s", "s"),
    ("live.records_per_s", "1/s"),
    ("live.cpu_busy_frac", "ratio"),
    ("live.disk_busy_frac", "ratio"),
    ("live.cpu_queue_wait_s", "s"),
    ("live.disk_queue_wait_s", "s"),
    ("live.monotasks", "count"),
    ("live.write_input_s", "s"),
    ("workloads.gen_s", "s"),
    ("bench.check_s", "s"),
    ("bench.self_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// Attempted and failed operations. An operation is one engine run, one
/// trace export, or one live job; it fails when it panics, errors where the
/// workload cannot, or produces output a check rejects.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub messages: Vec<String>,
}

impl Tally {
    /// Records one operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(msg);
            }
        }
    }
}

/// Median of `xs` (mean of the two central values for even lengths);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-iteration values keyed by metric name; the report takes medians.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median of `name`'s samples, 0 when there are none.
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map(|v| median(v)).unwrap_or(0.0)
    }
}

/// Host memory high-water mark of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Writes `x` as a JSON number with every digit Rust's shortest round-trip
/// formatter gives; non-finite values (never expected) become 0.
fn num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push('0');
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": ");
        num(&mut out, *value);
        let _ = write!(out, ", \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failures_clear_correct() {
        let mut t = Tally::default();
        t.record(Ok(()));
        let ok = result_json(&t, &[("wall_s", 1.5, "s")]);
        assert!(ok.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(ok.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        t.record(Err("boom".into()));
        let bad = result_json(&t, &[]);
        assert!(bad.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
