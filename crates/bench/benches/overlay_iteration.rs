//! Benchmarks the Theorem-2 evaluation — the Figure-5 kernel
//! (`α (T/n + (1−1/n) I)^m`, a binomial mixture of pushes through the
//! sparse transient block).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pollux::{InitialCondition, ModelParams, OverlayModel};

fn bench_iteration(c: &mut Criterion) {
    let params = ModelParams::paper_defaults().with_mu(0.25).with_d(0.9);
    let model = OverlayModel::new(&params, InitialCondition::Delta, 500).expect("valid parameters");

    let mut group = c.benchmark_group("overlay_iteration");
    group.sample_size(10);
    for m in [1_000u64, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("events", m), &m, |b, &m| {
            b.iter(|| black_box(model.proportion_series(&[m]).expect("evaluates")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_iteration);
criterion_main!(benches);
