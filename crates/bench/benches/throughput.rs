//! Criterion version of the Figure 33 throughput comparison: full-trace
//! insertion at 50 KB on a campus-like workload (5-tuple keys), plus the
//! simulated-OVS pipeline of Figure 34.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use heavykeeper::{MinimumTopK, ParallelTopK};
use hk_baselines::{LossyCountingTopK, SpaceSavingTopK};
use hk_common::algorithm::TopKAlgorithm;
use hk_ovs::deployment::run_deployment;
use hk_traffic::flow::FiveTuple;
use hk_traffic::presets::campus_like;

const MEM: usize = 50 * 1024;
const K: usize = 100;

fn bench_full_trace(c: &mut Criterion) {
    // Scale 200 → 50k packets per iteration: enough to exercise caches.
    let trace = campus_like(200, 42);
    let mut g = c.benchmark_group("fig33_throughput_50KB");
    g.throughput(Throughput::Elements(trace.packets.len() as u64));

    macro_rules! bench_algo {
        ($name:literal, $make:expr) => {
            g.bench_function($name, |b| {
                b.iter_batched(
                    || $make,
                    |mut algo| {
                        algo.insert_all(&trace.packets);
                        algo
                    },
                    BatchSize::LargeInput,
                )
            });
        };
    }

    bench_algo!(
        "hk_parallel",
        ParallelTopK::<FiveTuple>::with_memory(MEM, K, 1)
    );
    bench_algo!(
        "hk_minimum",
        MinimumTopK::<FiveTuple>::with_memory(MEM, K, 1)
    );
    bench_algo!(
        "space_saving",
        SpaceSavingTopK::<FiveTuple>::with_memory(MEM, K)
    );
    bench_algo!(
        "lossy_counting",
        LossyCountingTopK::<FiveTuple>::with_memory(MEM, K)
    );
    g.finish();
}

fn bench_ovs_pipeline(c: &mut Criterion) {
    let trace = campus_like(500, 42); // 20k packets per iteration.
    let mut g = c.benchmark_group("fig34_ovs_pipeline");
    g.throughput(Throughput::Elements(trace.packets.len() as u64));
    g.bench_function("ovs_baseline", |b| {
        b.iter(|| {
            run_deployment::<ParallelTopK<FiveTuple>>(&trace.packets, None, 2048)
                .0
                .consumed
        })
    });
    g.bench_function("ovs_hk_parallel", |b| {
        b.iter(|| {
            run_deployment(
                &trace.packets,
                Some(ParallelTopK::<FiveTuple>::with_memory(MEM, K, 1)),
                2048,
            )
            .0
            .consumed
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_full_trace, bench_ovs_pipeline
}
criterion_main!(benches);
