//! Criterion benchmarks of the simulation engine itself.
//!
//! The figure binaries measure *simulated* time; these measure *wall-clock*
//! cost of the machinery: the fluid allocator's progressive filling, the
//! max-min flow allocator, both executors end-to-end, and the real in-memory
//! reference executor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cluster::{ClusterSpec, DiskId, FluidMachine, MachineSpec, StreamDemand, StreamId};
use dataflow::LocalDataset;
use simcore::{FlowAllocator, FlowId, SimTime};
use workloads::{bdb_job, sort_job, BdbQuery, SortConfig};

/// Insert/advance/drain cycles on one machine's fluid allocator.
fn bench_fluid(c: &mut Criterion) {
    let mut g = c.benchmark_group("fluid_allocator");
    for streams in [4usize, 16, 64, 256] {
        g.bench_with_input(
            BenchmarkId::new("insert_drain", streams),
            &streams,
            |b, &n| {
                b.iter(|| {
                    let mut m = FluidMachine::new(MachineSpec::m2_4xlarge());
                    for i in 0..n as u64 {
                        let mut d = StreamDemand::disk_read_only(DiskId((i % 2) as usize), 1e6, 2);
                        d.cpu = 0.01;
                        m.insert(SimTime::ZERO, StreamId(i), d);
                    }
                    let mut now = SimTime::ZERO;
                    while let Some(t) = m.next_completion(now) {
                        now = t;
                        m.advance(now);
                        black_box(m.take_completed(now));
                    }
                    now
                })
            },
        );
    }
    // Monotask-shaped: 48 single-resource streams (network receives, compute,
    // disk reads and writes), one replaced per step. Each step is a removal
    // and an insert, i.e. two reallocations.
    let monotask = |i: u64| match i % 4 {
        0 | 1 => StreamDemand::rx_only(8e6 + i as f64, 2),
        2 => StreamDemand::cpu_only(0.5, 2),
        _ if i % 8 == 3 => StreamDemand::disk_read_only(DiskId(0), 4e6, 2),
        _ => StreamDemand::disk_write_only(DiskId(1), 4e6, 2),
    };
    g.bench_with_input(BenchmarkId::new("monotask_churn", 48), &48u64, |b, &n| {
        b.iter(|| {
            let mut m = FluidMachine::new(MachineSpec::m2_4xlarge());
            for i in 0..n {
                m.insert(SimTime::ZERO, StreamId(i), monotask(i));
            }
            for i in n..n + 256 {
                let now = SimTime(i * 1_000_000);
                m.remove(now, StreamId(i - n));
                m.insert(now, StreamId(i), monotask(i));
            }
            m.stats().reallocs
        })
    });
    g.finish();
}

/// Max-min fair reallocation under churn.
fn bench_maxmin(c: &mut Criterion) {
    let mut g = c.benchmark_group("maxmin");
    for flows in [8usize, 64, 256, 1024] {
        g.bench_with_input(BenchmarkId::new("churn", flows), &flows, |b, &n| {
            b.iter(|| {
                let mut fab = FlowAllocator::new(20, 1e8, 1e8);
                for i in 0..n as u64 {
                    fab.insert(
                        SimTime::ZERO,
                        FlowId(i),
                        (i % 20) as usize,
                        ((i + 7) % 20) as usize,
                        1e6 + i as f64,
                    );
                }
                let mut now = SimTime::ZERO;
                while fab.active_flows() > 0 {
                    now = fab.next_completion(now).expect("flows active");
                    fab.advance(now);
                    black_box(fab.take_completed(now));
                }
                now
            })
        });
    }
    g.finish();
}

/// Whole-job simulation cost for both executors (Fig 5's q2a shape).
fn bench_executors(c: &mut Criterion) {
    let cluster = ClusterSpec::new(5, MachineSpec::m2_4xlarge());
    let (job, blocks) = bdb_job(BdbQuery::Q2a, 5, 2);
    let mut g = c.benchmark_group("executors");
    g.sample_size(10);
    g.bench_function("monotasks_bdb_q2a", |b| {
        b.iter(|| {
            monotasks_core::run(
                &cluster,
                &[(job.clone(), blocks.clone())],
                &monotasks_core::MonoConfig::default(),
            )
            .makespan
        })
    });
    g.bench_function("sparklike_bdb_q2a", |b| {
        b.iter(|| {
            sparklike::run(
                &cluster,
                &[(job.clone(), blocks.clone())],
                &sparklike::SparkConfig::default(),
            )
            .makespan
        })
    });
    let sort = sort_job(&SortConfig::new(20.0, 10, 5, 2));
    g.bench_function("monotasks_sort_20gib", |b| {
        b.iter(|| {
            monotasks_core::run(
                &cluster,
                &[(sort.0.clone(), sort.1.clone())],
                &monotasks_core::MonoConfig::default(),
            )
            .makespan
        })
    });
    g.finish();
}

/// The real in-memory reference executor on an actual computation.
fn bench_reference(c: &mut Criterion) {
    let words: Vec<String> = (0..20_000)
        .map(|i| format!("w{} x{} y{}", i % 97, i % 31, i % 7))
        .collect();
    c.bench_function("reference_wordcount_20k_lines", |b| {
        b.iter(|| {
            LocalDataset::from_vec(words.clone(), 8)
                .flat_map(|l| l.split(' ').map(str::to_string).collect::<Vec<_>>())
                .map(|w| (w, 1u64))
                .reduce_by_key(8, |a, b| a + b)
                .count()
        })
    });
}

criterion_group!(
    benches,
    bench_fluid,
    bench_maxmin,
    bench_executors,
    bench_reference
);
criterion_main!(benches);
