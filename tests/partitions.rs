//! Network partitions and partition-aware recovery, end to end: a healing
//! mid-shuffle partition ridden out by fetch timeout/retry/backoff, a
//! permanent partition re-planned around via sender quarantine and lineage
//! resubmission, and the fail-fast paths — a structured
//! [`RunError::Unreachable`] instead of a hang when retries are exhausted
//! with no reachable replica, or when no timeout is armed at all. Also a
//! stage gate-blocked twice, and a two-dependency join re-planned on both
//! engines.

mod testsupport;

use cluster::{ClusterSpec, FaultPlan};
use dataflow::RunError;
use monotasks_core::MonoConfig;
use simcore::SimTime;
use sparklike::SparkConfig;
use testsupport::sort4 as sort;

fn cluster() -> ClusterSpec {
    testsupport::cluster(4)
}

/// A partition isolating one machine for a window [lo, hi]·makespan.
fn isolate(machine: usize, makespan_s: f64, lo: f64, hi: f64) -> FaultPlan {
    let others: Vec<usize> = (0..4).filter(|&m| m != machine).collect();
    FaultPlan::new().partition(
        vec![vec![machine], others],
        SimTime::from_secs_f64(makespan_s * lo),
        Some(SimTime::from_secs_f64(makespan_s * hi)),
    )
}

/// A partition isolating one machine forever (never heals).
fn isolate_forever(machine: usize, at_secs: f64) -> FaultPlan {
    let others: Vec<usize> = (0..4).filter(|&m| m != machine).collect();
    FaultPlan::new().partition(
        vec![vec![machine], others],
        SimTime::from_secs_f64(at_secs),
        None,
    )
}

/// A mid-shuffle partition that heals: with fetch timeouts armed, both
/// executors stall, back off, and resume the parked fetches on heal —
/// completing within 1.5× of the fault-free makespan and without any
/// `RunError`.
#[test]
fn both_executors_ride_out_a_healing_mid_shuffle_partition() {
    let (job, blocks) = sort();

    let mono_cfg = MonoConfig {
        fetch_timeout_secs: Some(2.0),
        ..MonoConfig::default()
    };
    let free = monotasks_core::try_run(&cluster(), &[(job.clone(), blocks.clone())], &mono_cfg)
        .expect("fault-free run");
    let free_s = free.makespan.as_secs_f64();
    let plan = isolate(1, free_s, 0.45, 0.70);
    let out = monotasks_core::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &mono_cfg,
        &plan,
    )
    .expect("monotasks run must ride out a healing partition");
    assert!(out.makespan > free.makespan, "partition had no effect");
    assert!(
        out.makespan.as_secs_f64() <= free_s * 1.5,
        "recovery too slow: {:.1}s vs fault-free {free_s:.1}s",
        out.makespan.as_secs_f64()
    );
    let rec = &out.jobs[0].recovery;
    assert!(
        rec.fetch_retries > 0 || rec.stalled_fetch_seconds > 0.0,
        "no partition recovery recorded: {rec:?}"
    );

    let spark_cfg = SparkConfig {
        fetch_timeout_secs: Some(2.0),
        ..SparkConfig::default()
    };
    let free = sparklike::try_run(&cluster(), &[(job.clone(), blocks.clone())], &spark_cfg)
        .expect("fault-free run");
    let free_s = free.makespan.as_secs_f64();
    let plan = isolate(1, free_s, 0.45, 0.70);
    let out = sparklike::run_with_faults(&cluster(), &[(job, blocks)], &spark_cfg, &plan)
        .expect("spark-like run must ride out a healing partition");
    assert!(out.makespan > free.makespan, "partition had no effect");
    assert!(
        out.makespan.as_secs_f64() <= free_s * 1.5,
        "recovery too slow: {:.1}s vs fault-free {free_s:.1}s",
        out.makespan.as_secs_f64()
    );
    let rec = &out.jobs[0].recovery;
    assert!(
        rec.fetch_retries > 0 || rec.stalled_fetch_seconds > 0.0,
        "no partition recovery recorded: {rec:?}"
    );
}

/// A permanent partition with fetch timeouts armed: the spark-like executor
/// exhausts the retries, quarantines the unreachable sender, resubmits its
/// lost map outputs via lineage on the majority side, and completes — every
/// logical task covered, with the re-planning visible in the recovery
/// counters.
#[test]
fn sparklike_replans_around_a_permanent_partition() {
    let (job, blocks) = sort();
    let total_tasks: usize = job.stages.iter().map(|s| s.tasks.len()).sum();
    let cfg = SparkConfig {
        fetch_timeout_secs: Some(1.0),
        ..SparkConfig::default()
    };
    let free = sparklike::try_run(&cluster(), &[(job.clone(), blocks.clone())], &cfg)
        .expect("fault-free run");
    let plan = isolate_forever(1, free.makespan.as_secs_f64() * 0.5);
    let out = sparklike::run_with_faults(&cluster(), &[(job, blocks)], &cfg, &plan)
        .expect("spark-like run must re-plan around a permanent partition");
    let rec = &out.jobs[0].recovery;
    assert!(rec.fetch_retries > 0, "no fetch retries: {rec:?}");
    assert!(rec.fetches_replanned > 0, "no re-planned fetches: {rec:?}");
    assert!(
        rec.recompute_seconds > 0.0,
        "no lineage resubmission: {rec:?}"
    );
    let seen: std::collections::HashSet<_> = out.tasks.iter().map(|t| (t.stage, t.task)).collect();
    assert_eq!(seen.len(), total_tasks);
    // Nothing runs on the quarantined side of the cut after recovery: every
    // post-partition attempt lands on the majority group.
    let cut_at = SimTime::from_secs_f64(free.makespan.as_secs_f64() * 0.5);
    let latest_on_isolated = out
        .tasks
        .iter()
        .filter(|t| t.machine == 1)
        .map(|t| t.start)
        .max();
    if let Some(started) = latest_on_isolated {
        assert!(
            started <= out.makespan && out.makespan > cut_at,
            "sanity: records exist around the cut"
        );
    }
}

/// A permanent partition with *no* replica to re-plan against (replication 1,
/// the isolated machine holds block homes the majority side cannot reach):
/// the monotasks executor must fail fast with the structured
/// [`RunError::Unreachable`] naming the unreachable machine — not hang and
/// not burn the step budget.
#[test]
fn mono_fails_fast_when_no_replica_is_reachable() {
    let (job, blocks) = sort();
    let cfg = MonoConfig {
        fetch_timeout_secs: Some(1.0),
        ..MonoConfig::default()
    };
    let free = monotasks_core::try_run(&cluster(), &[(job.clone(), blocks.clone())], &cfg)
        .expect("fault-free run");
    let plan = isolate_forever(1, free.makespan.as_secs_f64() * 0.5);
    let out = monotasks_core::run_with_faults(&cluster(), &[(job, blocks)], &cfg, &plan);
    match out {
        Err(RunError::Unreachable { machine, .. }) => {
            assert_eq!(machine, 1, "wrong machine blamed");
        }
        other => panic!("expected Unreachable, got {other:?}"),
    }
}

/// With no fetch timeout armed (the default), a permanent partition cannot
/// hang the simulation: when every runnable attempt is parked behind a cut
/// link, the starvation check surfaces a structured
/// [`RunError::Unreachable`] in both executors.
#[test]
fn permanent_partition_without_timeout_is_a_clean_error_not_a_hang() {
    let (job, blocks) = sort();

    let mono_cfg = MonoConfig::default();
    assert!(mono_cfg.fetch_timeout_secs.is_none());
    let free = monotasks_core::try_run(&cluster(), &[(job.clone(), blocks.clone())], &mono_cfg)
        .expect("fault-free run");
    let plan = isolate_forever(1, free.makespan.as_secs_f64() * 0.5);
    let out = monotasks_core::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &mono_cfg,
        &plan,
    );
    assert!(
        matches!(out, Err(RunError::Unreachable { .. })),
        "expected Unreachable, got {out:?}"
    );

    let spark_cfg = SparkConfig::default();
    assert!(spark_cfg.fetch_timeout_secs.is_none());
    let free = sparklike::try_run(&cluster(), &[(job.clone(), blocks.clone())], &spark_cfg)
        .expect("fault-free run");
    let plan = isolate_forever(1, free.makespan.as_secs_f64() * 0.5);
    let out = sparklike::run_with_faults(&cluster(), &[(job, blocks)], &spark_cfg, &plan);
    assert!(
        matches!(out, Err(RunError::Unreachable { .. })),
        "expected Unreachable, got {out:?}"
    );
}

/// A link cut that heals before any shuffle fetch uses the pair is a no-op
/// in the spark-like executor: the makespan is bit-identical to the
/// plan-free run even though the partition machinery was armed.
#[test]
fn heal_before_first_fetch_is_a_noop() {
    let (job, blocks) = sort();
    let cfg = SparkConfig::default();
    let free = sparklike::try_run(&cluster(), &[(job.clone(), blocks.clone())], &cfg)
        .expect("fault-free run");
    // Map tasks read local disk for seconds before the first shuffle byte
    // moves; a 1 ms cut at t=0 heals long before any fetch touches it.
    let plan = FaultPlan::new().cut_link(0, 1, SimTime::ZERO, Some(SimTime::from_secs_f64(1e-3)));
    assert!(plan.has_partitions());
    let out = sparklike::run_with_faults(&cluster(), &[(job, blocks)], &cfg, &plan)
        .expect("healed cut must not fail the run");
    assert_eq!(
        free.makespan.as_secs_f64().to_bits(),
        out.makespan.as_secs_f64().to_bits(),
        "healed-before-use cut changed the makespan"
    );
    assert!(out.jobs[0].recovery.is_zero());
}

/// Overlapping partition windows on the same pair are rejected up front with
/// `InvalidConfig`, mirroring the degrade-window overlap rule.
#[test]
fn overlapping_partition_windows_are_rejected() {
    let (job, blocks) = sort();
    let plan = FaultPlan::new()
        .cut_link(0, 1, SimTime::from_secs(1), Some(SimTime::from_secs(10)))
        .cut_link(0, 1, SimTime::from_secs(5), Some(SimTime::from_secs(15)));
    let mono = monotasks_core::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &MonoConfig::default(),
        &plan,
    );
    assert!(
        matches!(mono, Err(RunError::InvalidConfig(_))),
        "expected InvalidConfig, got {mono:?}"
    );
    let spark =
        sparklike::run_with_faults(&cluster(), &[(job, blocks)], &SparkConfig::default(), &plan);
    assert!(
        matches!(spark, Err(RunError::InvalidConfig(_))),
        "expected InvalidConfig, got {spark:?}"
    );
}

/// Fetch-retry decisions of a traced spark-like run, as `(time, attempt)`.
fn fetch_retries(out: &sparklike::SparkRunOutput) -> Vec<(SimTime, u32)> {
    out.instants
        .iter()
        .filter_map(|i| match i.kind {
            cluster::InstantKind::FetchRetry { attempt, .. } => Some((i.time, attempt)),
            _ => None,
        })
        .collect()
}

/// Two separate cuts each leave the spark-like reduce stage gate-blocked
/// before any of its tasks launches. The first blockage spends the whole
/// retry budget and re-plans; the second must spend the whole budget again
/// (the gate clock resets after re-planning) instead of re-planning at its
/// first deadline. Fault plans reject overlapping cut windows on a machine
/// and a gate-blocking cut touches every machine, so the first cut heals
/// just as the second, permanent one starts.
#[test]
fn sparklike_second_gate_blockage_gets_a_full_retry_budget() {
    let (job, blocks) = sort();
    let cfg = SparkConfig {
        fetch_timeout_secs: Some(1.0),
        trace_path: Some(std::path::PathBuf::from("unused.json")),
        ..SparkConfig::default()
    };
    // Machine 1 is cut off early in the map stage, so the reduce stage is
    // gate-blocked the moment it opens.
    let out = sparklike::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &cfg,
        &isolate_forever(1, 1.0),
    )
    .expect("the first cut alone is re-planned around");
    let budget = cfg.fetch_max_retries + 1;
    let first: Vec<u32> = fetch_retries(&out).into_iter().map(|(_, a)| a).collect();
    assert_eq!(first, (1..=budget).collect::<Vec<_>>(), "first blockage");
    let replanned_at = out
        .instants
        .iter()
        .find(|i| {
            matches!(
                i.kind,
                cluster::InstantKind::TaskRetry {
                    recompute: true,
                    ..
                }
            )
        })
        .expect("lineage resubmission after the first blockage")
        .time;
    // While machine 1's lost map outputs are recomputed, its cut heals and
    // machine 2 is cut off for good.
    let swap = SimTime(replanned_at.0 + 100_000_000);
    let plan = FaultPlan::new()
        .partition(
            vec![vec![1], vec![0, 2, 3]],
            SimTime::from_secs(1),
            Some(swap),
        )
        .partition(vec![vec![2], vec![0, 1, 3]], swap, None);
    let out = sparklike::run_with_faults(&cluster(), &[(job, blocks)], &cfg, &plan)
        .expect("both cuts are re-planned around");
    let second: Vec<u32> = fetch_retries(&out)
        .into_iter()
        .filter(|&(t, _)| t > swap)
        .map(|(_, a)| a)
        .collect();
    assert_eq!(
        second,
        (1..=budget).collect::<Vec<_>>(),
        "second blockage re-planned without spending its retry budget"
    );
}

/// The recovery counters the join test pins: `(tasks_retried,
/// fetch_retries, fetches_replanned, makespan_ns)`.
fn pinned(rec: &dataflow::RecoveryStats, makespan: SimTime) -> (u64, u64, u64, u64) {
    (
        rec.tasks_retried,
        rec.fetch_retries,
        rec.fetches_replanned,
        makespan.0,
    )
}

/// A permanent partition in the middle of a BDB join (query 3a: two scan
/// stages feeding one join stage), on both engines. Every other partition
/// test shuffles from a single dependency; here sender-level re-planning
/// sees shuffle senders of two dependencies and, for the half/half split,
/// two unreachable senders at once. Pins the shared re-planning decisions:
/// senders in machine order, every sender checked before any is acted on.
#[test]
fn join_under_a_permanent_partition_is_replanned_or_fails_fast() {
    let (job, blocks) = workloads::bdb_job(workloads::BdbQuery::Q3a, 4, 2);
    assert_eq!(job.stages[2].deps.len(), 2, "the join reads two stages");
    let mono_cfg = MonoConfig {
        fetch_timeout_secs: Some(1.0),
        ..MonoConfig::default()
    };
    let spark_cfg = SparkConfig {
        fetch_timeout_secs: Some(1.0),
        ..SparkConfig::default()
    };
    let mid_join = |makespan: SimTime, groups: Vec<Vec<usize>>| {
        let at = SimTime::from_secs_f64(makespan.as_secs_f64() * 0.97);
        FaultPlan::new().partition(groups, at, None)
    };
    let halves = || vec![vec![0, 1], vec![2, 3]];
    let run = [(job.clone(), blocks.clone())];

    // Half/half split, no replicas: the monotasks engine cannot re-run the
    // far half's scan tasks anywhere the join receiver reaches.
    let free = monotasks_core::try_run(&cluster(), &run, &mono_cfg).expect("fault-free");
    let out = monotasks_core::run_with_faults(
        &cluster(),
        &run,
        &mono_cfg,
        &mid_join(free.makespan, halves()),
    );
    assert_eq!(
        out.err(),
        Some(RunError::Unreachable {
            job: dataflow::JobId(0),
            stage: dataflow::StageId(2),
            task: dataflow::TaskId(62),
            machine: 2,
            retries: 4,
        })
    );
    // The spark-like engine re-runs whole scan stages on the receiver's
    // side and completes.
    let free = sparklike::try_run(&cluster(), &run, &spark_cfg).expect("fault-free");
    let out = sparklike::run_with_faults(
        &cluster(),
        &run,
        &spark_cfg,
        &mid_join(free.makespan, halves()),
    )
    .expect("spark-like re-plans around both unreachable senders");
    assert_eq!(
        pinned(&out.jobs[0].recovery, out.makespan),
        (316, 100, 32, 324_828_727_813)
    );

    // One machine isolated, 2-way replicated input: the monotasks engine
    // re-runs the isolated machine's scan tasks from reachable replicas.
    let repl = dataflow::BlockMap::round_robin_replicated(blocks.blocks(), 4, 2, 2);
    let run = [(job, repl)];
    let free = monotasks_core::try_run(&cluster(), &run, &mono_cfg).expect("fault-free");
    let plan = mid_join(free.makespan, vec![vec![1], vec![0, 2, 3]]);
    let out = monotasks_core::run_with_faults(&cluster(), &run, &mono_cfg, &plan)
        .expect("monotasks re-plans around the isolated machine");
    assert_eq!(
        pinned(&out.jobs[0].recovery, out.makespan),
        (144, 7, 2, 185_906_448_789)
    );
}
