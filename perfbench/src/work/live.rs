//! `live-mr`: the real single-machine engine (`crates/live`) with one CPU
//! core and one disk directory, running a CPU-bound word count and a
//! shuffle-heavy identity job over locally generated input files.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use monotasks_live::{JobResult, LiveEngine, LiveJob, LiveResource, Record};

use super::{Bench, Cx, Rng, Size};
use crate::checks::{check_keys, check_wordcount};
use crate::spans::Recorder;

/// Words per generated line.
const WORDS_PER_LINE: usize = 3;
/// Distinct words in the generated vocabulary.
const VOCABULARY: usize = 2_000;
/// Bytes per shuffle record: an 8-byte key plus the value.
const SHUFFLE_RECORD_BYTES: usize = 1_024;
/// Input blocks per job (one map multitask each).
const BLOCKS: usize = 16;
/// Reduce partitions per job.
const PARTITIONS: usize = 4;

/// Sizes of the two jobs' inputs in records.
fn shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (1_280_000, 256_000),
        Size::Toy => (12_800, 2_560),
    }
}

/// The live workload after set-up.
pub struct LiveMr {
    engine: LiveEngine,
    dir: PathBuf,
    wc_input: Vec<PathBuf>,
    /// Generated lines, kept until [`Bench::prepare`] derives the reference.
    wc_lines: Vec<String>,
    wc_reference: HashMap<String, u64>,
    wc_records: usize,
    shuffle_input: Vec<PathBuf>,
    /// Input keys, sorted by [`Bench::prepare`].
    shuffle_keys: Vec<Vec<u8>>,
    input_bytes: f64,
}

impl LiveMr {
    /// Generates both inputs from `seed` and writes them as block files.
    pub fn setup(size: Size, seed: u64, dir: &Path, rec: &mut Recorder) -> Result<LiveMr, String> {
        let (wc_records, shuffle_records) = shape(size);
        let disk = dir.join("disk0");
        let engine = rec.call("live", "start", || {
            std::panic::catch_unwind(|| LiveEngine::new(1, vec![disk.clone()]))
                .map_err(|_| format!("cannot start the live engine in {}", disk.display()))
        })?;

        let mut rng = Rng::new(seed, 2);
        let vocabulary: Vec<String> = rec.call("workloads", "gen", || {
            (0..VOCABULARY)
                .map(|_| {
                    let len = 3 + rng.below(8) as usize;
                    (0..len)
                        .map(|_| char::from(b'a' + rng.below(26) as u8))
                        .collect()
                })
                .collect()
        });

        let mut input_bytes = 0usize;
        let mut wc_lines = Vec::with_capacity(wc_records);
        let mut wc_input = Vec::with_capacity(BLOCKS);
        for b in 0..BLOCKS {
            let n = wc_records / BLOCKS + usize::from(b < wc_records % BLOCKS);
            let records: Vec<Record> = rec.call("workloads", "gen", || {
                (0..n)
                    .map(|_| {
                        let line = (0..WORDS_PER_LINE)
                            .map(|_| vocabulary[rng.below(VOCABULARY as u64) as usize].as_str())
                            .collect::<Vec<_>>()
                            .join(" ");
                        wc_lines.push(line.clone());
                        Record::new(Vec::new(), line.into_bytes())
                    })
                    .collect()
            });
            input_bytes += records.iter().map(Record::serialized_len).sum::<usize>();
            wc_input.push(write_block(&engine, rec, &format!("wc-{b:02}"), &records)?);
        }

        let mut shuffle_keys = Vec::with_capacity(shuffle_records);
        let mut shuffle_input = Vec::with_capacity(BLOCKS);
        for b in 0..BLOCKS {
            let n = shuffle_records / BLOCKS + usize::from(b < shuffle_records % BLOCKS);
            let records: Vec<Record> = rec.call("workloads", "gen", || {
                (0..n)
                    .map(|_| {
                        let key = rng.next_u64().to_be_bytes().to_vec();
                        let fill = key[7];
                        shuffle_keys.push(key.clone());
                        Record::new(key, vec![fill; SHUFFLE_RECORD_BYTES - 8])
                    })
                    .collect()
            });
            input_bytes += records.iter().map(Record::serialized_len).sum::<usize>();
            shuffle_input.push(write_block(
                &engine,
                rec,
                &format!("shuffle-in-{b:02}"),
                &records,
            )?);
        }

        Ok(LiveMr {
            engine,
            dir: dir.to_path_buf(),
            wc_input,
            wc_lines,
            wc_reference: HashMap::new(),
            wc_records,
            shuffle_input,
            shuffle_keys,
            input_bytes: input_bytes as f64,
        })
    }

    fn wordcount_job(&self) -> LiveJob {
        LiveJob {
            input: self.wc_input.clone(),
            map: Arc::new(|rec: Record| {
                String::from_utf8_lossy(&rec.value)
                    .split_whitespace()
                    .map(|w| Record::new(w.as_bytes().to_vec(), vec![1u8]))
                    .collect()
            }),
            reduce: Arc::new(|key: &[u8], values: Vec<Vec<u8>>| {
                vec![Record::new(
                    key.to_vec(),
                    (values.len() as u64).to_be_bytes().to_vec(),
                )]
            }),
            reduce_partitions: PARTITIONS,
            shuffle_to_disk: false,
            output_dir: self.dir.join("out-wordcount"),
        }
    }

    fn shuffle_job(&self) -> LiveJob {
        LiveJob {
            input: self.shuffle_input.clone(),
            map: Arc::new(|rec: Record| vec![rec]),
            reduce: Arc::new(|key: &[u8], values: Vec<Vec<u8>>| {
                values
                    .into_iter()
                    .map(|v| Record::new(key.to_vec(), v))
                    .collect()
            }),
            reduce_partitions: PARTITIONS,
            shuffle_to_disk: true,
            output_dir: self.dir.join("out-shuffle"),
        }
    }
}

/// Writes one input block through the engine, turning its I/O panic into an
/// error.
fn write_block(
    engine: &LiveEngine,
    rec: &mut Recorder,
    name: &str,
    records: &[Record],
) -> Result<PathBuf, String> {
    rec.call("live", "write_input", || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.write_input_block(0, name, records)
        }))
        .map_err(|_| format!("cannot write input block {name}"))
    })
}

/// Runs a live job, turning a panic (the engine's I/O integrity errors) into
/// an error.
fn run_job(engine: &LiveEngine, job: LiveJob) -> Result<JobResult, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(job)))
        .map_err(|_| "live job panicked".to_string())
}

/// Reads a job's output back one file at a time, handing each record to
/// `f`, so at most one output file is in memory.
fn for_each_output(files: &[PathBuf], mut f: impl FnMut(Record)) -> Result<(), String> {
    for file in files {
        let part = std::panic::catch_unwind(|| LiveEngine::read_output(std::slice::from_ref(file)))
            .map_err(|_| format!("cannot read output {}", file.display()))?;
        part.into_iter().for_each(&mut f);
    }
    Ok(())
}

/// Queue waits of a job's monotasks, summed per resource class.
fn queue_waits(result: &JobResult) -> (Duration, Duration) {
    let mut cpu = Duration::ZERO;
    let mut disk = Duration::ZERO;
    for r in &result.records {
        match r.resource {
            LiveResource::Cpu => cpu += r.queue_wait(),
            LiveResource::Disk(_) => disk += r.queue_wait(),
        }
    }
    (cpu, disk)
}

impl Bench for LiveMr {
    fn input_bytes(&self) -> f64 {
        self.input_bytes
    }

    fn prepare(&mut self) {
        let lines = std::mem::take(&mut self.wc_lines);
        self.wc_reference = workloads::wordcount::wordcount_reference(lines, PARTITIONS);
        self.shuffle_keys.sort_unstable();
    }

    fn iterate(&mut self, cx: &mut Cx) {
        let engine = &self.engine;
        let mut live_wall = 0.0;
        let mut records = 0usize;

        let job = self.wordcount_job();
        let wc = cx.rec.call("live", "run", || run_job(engine, job));
        let verdict = wc.as_ref().map_err(Clone::clone).and_then(|res| {
            cx.rec.call("bench", "check", || {
                let mut out = Vec::new();
                for_each_output(&res.output_files, |r| out.push((r.key, r.value)))?;
                check_wordcount(&out, &self.wc_reference)
            })
        });
        cx.op(None, verdict);
        if let Ok(res) = &wc {
            let (cpu_wait, disk_wait) = queue_waits(res);
            live_wall += res.wall.as_secs_f64();
            records += self.wc_records;
            cx.add(
                "live.cpu_busy_frac",
                res.summary.cpu_busy.as_secs_f64() / res.wall.as_secs_f64(),
            );
            cx.add("live.cpu_queue_wait_s", cpu_wait.as_secs_f64());
            cx.add("live.disk_queue_wait_s", disk_wait.as_secs_f64());
            cx.add("live.monotasks", res.summary.monotasks as f64);
        }

        let job = self.shuffle_job();
        let shuffled = cx.rec.call("live", "run", || run_job(engine, job));
        let verdict = shuffled.as_ref().map_err(Clone::clone).and_then(|res| {
            cx.rec.call("bench", "check", || {
                let mut keys = Vec::with_capacity(self.shuffle_keys.len());
                for_each_output(&res.output_files, |r| keys.push(r.key))?;
                check_keys(keys, &self.shuffle_keys)
            })
        });
        cx.op(None, verdict);
        if let Ok(res) = &shuffled {
            let (cpu_wait, disk_wait) = queue_waits(res);
            live_wall += res.wall.as_secs_f64();
            records += self.shuffle_keys.len();
            cx.add(
                "live.disk_busy_frac",
                res.summary.disk_busy.as_secs_f64() / res.wall.as_secs_f64(),
            );
            cx.add("live.cpu_queue_wait_s", cpu_wait.as_secs_f64());
            cx.add("live.disk_queue_wait_s", disk_wait.as_secs_f64());
            cx.add("live.monotasks", res.summary.monotasks as f64);
        }
        if live_wall > 0.0 {
            cx.add("live.records_per_s", records as f64 / live_wall);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_live_count_fails_its_operation() {
        let dir = crate::tests::test_dir("wrong-count");
        let mut rec = Recorder::new(false);
        let mut bench = LiveMr::setup(Size::Toy, 3, &dir, &mut rec).expect("set-up");
        bench.prepare();
        let mut cx = Cx::new(&mut rec);
        bench.iterate(&mut cx);
        assert!(cx.ops.iter().all(|o| o.verdict.is_ok()), "{:?}", cx.ops);

        let word = bench.wc_reference.keys().next().expect("words").clone();
        *bench.wc_reference.get_mut(&word).unwrap() += 1;
        bench.shuffle_keys.pop();
        let mut cx = Cx::new(&mut rec);
        bench.iterate(&mut cx);
        let verdicts: Vec<_> = cx.ops.iter().map(|o| o.verdict.is_err()).collect();
        assert_eq!(verdicts, vec![true, true], "both live checks must fail");
    }
}
