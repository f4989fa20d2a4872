//! Criterion micro-benchmarks for the hot substrate kernels backing the
//! Fig. 8 overhead claims: Δ(g) tracking (per EWMA window), partition
//! construction, the 1-bit flags allgather, the ring allreduce, and the
//! tensor kernels everything sits on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selsync_comm::collectives::{allgather_flags, ring_allreduce};
use selsync_comm::Fabric;
use selsync_data::{partition_indices, PartitionScheme};
use selsync_stats::RelativeGradChange;
use selsync_tensor::{init, matmul};
use std::hint::black_box;
use std::thread;

fn bench_relchange(c: &mut Criterion) {
    // Fig 8a: cost of one Δ(g) update as the window grows
    let mut g = c.benchmark_group("relchange_update");
    for window in [25usize, 50, 100, 200] {
        g.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            let mut tracker = RelativeGradChange::new(w, 0.16);
            for i in 0..w {
                tracker.update(i as f32 + 1.0);
            }
            b.iter(|| black_box(tracker.update(black_box(3.25))));
        });
    }
    g.finish();
}

fn bench_partition(c: &mut Criterion) {
    // Fig 8b: SelDP vs DefDP build cost
    let mut g = c.benchmark_group("partition_build");
    for units in [10_000usize, 100_000] {
        g.bench_with_input(BenchmarkId::new("DefDP", units), &units, |b, &n| {
            b.iter(|| black_box(partition_indices(n, 16, 3, PartitionScheme::DefDp)));
        });
        g.bench_with_input(BenchmarkId::new("SelDP", units), &units, |b, &n| {
            b.iter(|| black_box(partition_indices(n, 16, 3, PartitionScheme::SelDp)));
        });
    }
    g.finish();
}

fn bench_flags_allgather(c: &mut Criterion) {
    // the Alg. 1 line-12 op the paper measured at 2–4 ms on its fabric
    c.bench_function("flags_allgather_4_workers", |b| {
        b.iter(|| {
            let eps = Fabric::new(4);
            let handles: Vec<_> = eps
                .into_iter()
                .map(|mut ep| {
                    thread::spawn(move || {
                        let id = ep.id();
                        allgather_flags(&mut ep, 4, 0, (id % 2) as u8).unwrap()
                    })
                })
                .collect();
            for h in handles {
                black_box(h.join().unwrap());
            }
        });
    });
}

fn bench_ring_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("ring_allreduce_4_workers");
    g.sample_size(20);
    for len in [10_000usize, 100_000] {
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, &l| {
            b.iter(|| {
                let eps = Fabric::new(4);
                let handles: Vec<_> = eps
                    .into_iter()
                    .map(|mut ep| {
                        thread::spawn(move || {
                            let mut v = vec![1.0f32; l];
                            ring_allreduce(&mut ep, 4, 0, &mut v).unwrap();
                            v[0]
                        })
                    })
                    .collect();
                for h in handles {
                    black_box(h.join().unwrap());
                }
            });
        });
    }
    g.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = init::randn([64, 64], 1.0, &mut rng);
    let b_ = init::randn([64, 64], 1.0, &mut rng);
    c.bench_function("matmul_64x64", |bch| {
        bch.iter(|| black_box(matmul::matmul(black_box(&a), black_box(&b_))));
    });
    c.bench_function("matmul_nt_64x64", |bch| {
        bch.iter(|| black_box(matmul::matmul_nt(black_box(&a), black_box(&b_))));
    });
}

fn bench_conv_im2col(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    // a batch of 8 three-channel 8×8 images, channel-major [c, n, h, w]
    let x = init::randn([3, 8, 8, 8], 1.0, &mut rng);
    let g = selsync_tensor::conv::ConvGeom {
        in_ch: 3,
        in_h: 8,
        in_w: 8,
        k_h: 3,
        k_w: 3,
        stride: 1,
        pad: 1,
    };
    // patch-major: 27 tap rows of 8·8·8 output pixels, written in place
    let mut cols = selsync_tensor::Tensor::zeros([3 * 3 * 3, 8 * 8 * 8]);
    c.bench_function("im2col_8x3x8x8_k3", |b| {
        b.iter(|| {
            selsync_tensor::conv::im2col_into(black_box(&x), &g, &mut cols);
            black_box(&cols);
        });
    });
}

criterion_group!(
    benches,
    bench_relchange,
    bench_partition,
    bench_flags_allgather,
    bench_ring_allreduce,
    bench_matmul,
    bench_conv_im2col
);
criterion_main!(benches);
