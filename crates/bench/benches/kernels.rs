//! Criterion benches over the CPU reference kernels (Figure 6/7 CPU-side
//! sanity check: quantized and sparse kernels must move fewer bytes and
//! grouped SBMM must beat the per-request loop).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dz_compress::obs::{compress_matrix, ObsConfig};
use dz_compress::pack::CompressedMatrix;
use dz_compress::quant::QuantSpec;
use dz_kernels::{quant_gemm, sbmm_grouped, sbmm_naive};
use dz_tensor::{Matrix, Rng};

fn packed(d_in: usize, d_out: usize, bits: u32, sparse: bool, seed: u64) -> CompressedMatrix {
    let mut rng = Rng::seeded(seed);
    let w = Matrix::randn(d_in, d_out, 0.02, &mut rng);
    let cfg = ObsConfig {
        spec: QuantSpec::new(bits, 16),
        sparse24: sparse,
        damp: 0.05,
    };
    compress_matrix(&w, &Matrix::identity(d_in), &cfg).packed
}

fn bench_gemm_formats(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_formats");
    let (d_in, d_out) = (256, 256);
    let mut rng = Rng::seeded(1);
    let w = Matrix::randn(d_in, d_out, 0.02, &mut rng);
    let dense4 = packed(d_in, d_out, 4, false, 2);
    let sparse4 = packed(d_in, d_out, 4, true, 3);
    for m in [1usize, 8, 64] {
        let x = Matrix::randn(m, d_in, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("fp16_dense", m), &x, |b, x| {
            b.iter(|| x.matmul(&w))
        });
        group.bench_with_input(BenchmarkId::new("int4_dense", m), &x, |b, x| {
            b.iter(|| quant_gemm(x, &dense4))
        });
        group.bench_with_input(BenchmarkId::new("int4_sparse24", m), &x, |b, x| {
            b.iter(|| quant_gemm(x, &sparse4))
        });
    }
    group.finish();
}

/// The shape wallbench `hot-batch` serves: d=128 projections of 4-bit 2:4
/// deltas with group 16, at the per-delta row counts a 16-row batch over
/// 4 deltas produces (and a prefill-sized block).
fn bench_hot_batch_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_batch");
    let (d_in, d_out) = (128, 128);
    let mut rng = Rng::seeded(5);
    let sparse4 = packed(d_in, d_out, 4, true, 6);
    for m in [1usize, 4, 16] {
        let x = Matrix::randn(m, d_in, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("int4_sparse24", m), &x, |b, x| {
            b.iter(|| quant_gemm(x, &sparse4))
        });
    }
    group.finish();
}

fn bench_sbmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("sbmm");
    let (d_in, d_out) = (128, 128);
    let mut rng = Rng::seeded(4);
    for n_models in [4usize, 16] {
        let deltas: Vec<CompressedMatrix> = (0..n_models)
            .map(|i| packed(d_in, d_out, 4, true, 10 + i as u64))
            .collect();
        let refs: Vec<&CompressedMatrix> = deltas.iter().collect();
        let batch = 32usize;
        let x = Matrix::randn(batch, d_in, 1.0, &mut rng);
        let idx: Vec<usize> = (0..batch).map(|i| i % n_models).collect();
        group.bench_with_input(BenchmarkId::new("naive", n_models), &x, |b, x| {
            b.iter(|| sbmm_naive(x, &idx, &refs))
        });
        group.bench_with_input(BenchmarkId::new("grouped", n_models), &x, |b, x| {
            b.iter(|| sbmm_grouped(x, &idx, &refs))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm_formats,
    bench_hot_batch_shape,
    bench_sbmm
);
criterion_main!(benches);
