//! The four named workloads and what they share.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use dataflow::RunError;
use simcore::SimStats;

use crate::spans::Recorder;

pub mod live;
pub mod sim;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Weak-scaled sort on the rack-hierarchical full-duplex fabric.
    SortRack,
    /// The ten BDB queries as concurrent jobs, both engines traced.
    BdbTraced,
    /// Sort under seeded fault plans, with and without speculation.
    FaultsSpec,
    /// The live single-machine engine: word count and a disk shuffle.
    LiveMr,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SortRack,
        Workload::BdbTraced,
        Workload::FaultsSpec,
        Workload::LiveMr,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SortRack => "sort-rack",
            Workload::BdbTraced => "bdb-traced",
            Workload::FaultsSpec => "faults-spec",
            Workload::LiveMr => "live-mr",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's inputs from `seed`: the untimed set-up.
    pub fn setup(
        self,
        size: Size,
        seed: u64,
        dir: &Path,
        rec: &mut Recorder,
    ) -> Result<Box<dyn Bench>, String> {
        Ok(match self {
            Workload::SortRack => Box::new(sim::SortRack::setup(size, seed, rec)),
            Workload::BdbTraced => Box::new(sim::BdbTraced::setup(size, seed, dir, rec)),
            Workload::FaultsSpec => Box::new(sim::FaultsSpec::setup(size, seed, rec)?),
            Workload::LiveMr => Box::new(live::LiveMr::setup(size, seed, dir, rec)?),
        })
    }

    /// Set-ups repeated per run (at least), so `setup_s` is a median.
    pub fn min_setups(self) -> usize {
        match self {
            Workload::LiveMr => 3,
            _ => 5,
        }
    }
}

/// Input scale: the measured size, or a toy size for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The size `BENCHMARK.json` describes.
    Full,
    /// A few-second version of the same workload.
    Toy,
}

/// One operation of an iteration: an engine run, a trace export, or a live
/// job, with the verdict of its immediate checks and, for simulated runs,
/// its fingerprint for the cross-iteration and expected-value comparisons.
#[derive(Debug)]
pub struct Op {
    /// Fingerprint (see [`crate::checks::fingerprint`]).
    pub fingerprint: Option<String>,
    /// `Err` when the operation failed.
    pub verdict: Result<(), String>,
}

/// Per-iteration state the workloads fill in.
pub struct Cx<'a> {
    /// Span recorder (on in traced iterations only).
    pub rec: &'a mut Recorder,
    /// Operations of this iteration, in a fixed order.
    pub ops: Vec<Op>,
    /// Per-layer counters of this iteration, summed over its operations.
    pub layers: BTreeMap<&'static str, f64>,
    /// `SimStats` of every monotasks run of this iteration, merged.
    pub mono: SimStats,
    /// Simulated seconds those runs covered.
    pub mono_sim_s: f64,
    /// `SimStats` of every Spark-like run of this iteration, merged.
    pub spark: SimStats,
}

impl<'a> Cx<'a> {
    /// Fresh per-iteration state around `rec`.
    pub fn new(rec: &'a mut Recorder) -> Cx<'a> {
        Cx {
            rec,
            ops: Vec::new(),
            layers: BTreeMap::new(),
            mono: SimStats::default(),
            mono_sim_s: 0.0,
            spark: SimStats::default(),
        }
    }

    /// Adds `value` to the per-layer counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_insert(0.0) += value;
    }

    /// Records an operation.
    pub fn op(&mut self, fingerprint: Option<String>, verdict: Result<(), String>) {
        self.ops.push(Op {
            fingerprint,
            verdict,
        });
    }
}

/// A workload after set-up: one call runs one timed iteration.
pub trait Bench {
    /// Input bytes one iteration processes: modeled bytes for simulated
    /// runs (summed over runs), real input-file bytes for live jobs.
    fn input_bytes(&self) -> f64;

    /// Derives what the output checks compare against, after set-up and
    /// before the timed section (neither is counted).
    fn prepare(&mut self) {}

    /// Runs one iteration.
    fn iterate(&mut self, cx: &mut Cx);
}

/// How an engine call ended.
pub enum Ended<T> {
    /// Completed.
    Done(T),
    /// Returned a structured error.
    Error(RunError),
    /// Panicked; the message.
    Panic(String),
}

/// Calls an engine entry point, turning a panic into [`Ended::Panic`].
pub fn guarded<T>(f: impl FnOnce() -> Result<T, RunError>) -> Ended<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ended::Done(v),
        Ok(Err(e)) => Ended::Error(e),
        Err(payload) => Ended::Panic(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into()),
        ),
    }
}

/// SplitMix64: the benchmark's input generator, independent of the
/// program's own random sources.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
