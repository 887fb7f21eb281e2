//! Property-based tests: the packed kernels must agree with dense
//! references for arbitrary shapes, formats, and batch assignments, and
//! with the scalar oracle bit for bit.

mod support;

use dz_compress::obs::{compress_matrix, ObsConfig};
use dz_compress::pack::{CompressedMatrix, MatrixFormat};
use dz_compress::quant::QuantSpec;
use dz_kernels::{quant_gemm, sbmm_grouped, sbmm_naive};
use dz_tensor::{Matrix, Rng};
use proptest::prelude::*;
use support::quant_gemm_oracle;

fn packed(seed: u64, d_in: usize, d_out: usize, bits: u32, sparse: bool) -> CompressedMatrix {
    let mut rng = Rng::seeded(seed);
    let w = Matrix::randn(d_in, d_out, 0.03, &mut rng);
    let cfg = ObsConfig {
        spec: QuantSpec::new(bits, 8),
        sparse24: sparse,
        damp: 0.05,
    };
    compress_matrix(&w, &Matrix::identity(d_in), &cfg).packed
}

/// A packed matrix with arbitrary payload: random level words, random
/// (possibly coinciding) 2:4 positions and random signed scales, some of
/// them zero or infinite, so every level and index pattern shows up, and
/// a zero level's weight (`0.0`, or `0 * scale`) is visible through
/// `0 * inf = NaN`.
fn raw_packed(
    seed: u64,
    d_in: usize,
    d_out: usize,
    bits: u32,
    group_size: usize,
    format: MatrixFormat,
) -> CompressedMatrix {
    let mut rng = Rng::seeded(seed);
    let values = match format {
        MatrixFormat::QuantDense => d_in * d_out,
        MatrixFormat::QuantSparse24 => d_in * d_out / 2,
    };
    let qweight = (0..(values * bits as usize).div_ceil(32))
        .map(|_| rng.next_u64() as u32)
        .collect();
    let indices = match format {
        MatrixFormat::QuantDense => Vec::new(),
        MatrixFormat::QuantSparse24 => (0..values.div_ceil(4))
            .map(|_| rng.next_u64() as u8)
            .collect(),
    };
    let scales = (0..d_out * d_in.div_ceil(group_size))
        .map(|_| match rng.below(16) {
            0..=2 => 0.0,
            3 => f32::INFINITY,
            _ => rng.normal() * 0.1,
        })
        .collect();
    CompressedMatrix {
        d_in,
        d_out,
        spec: QuantSpec::new(bits, group_size),
        format,
        qweight,
        indices,
        scales,
    }
}

fn bit_patterns(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quant_gemm_is_bit_identical_to_scalar_oracle(
        seed in any::<u64>(),
        bits in 2u32..=8,
        sparse in any::<bool>(),
        group_pick in 0usize..5,
        width in 1usize..=18,
        d_out in 1usize..=11,
        batch in 1usize..=20,
    ) {
        // 8 and 16 divide the 2:4 groups; 12 is not a multiple of 16; 6
        // makes some 2:4 groups straddle two scale groups, 3 every one.
        let group_size = [8usize, 16, 12, 6, 3][group_pick];
        let (format, d_in) = if sparse {
            (MatrixFormat::QuantSparse24, width * 4)
        } else {
            (MatrixFormat::QuantDense, width * 4 - (seed % 4) as usize)
        };
        let cm = raw_packed(seed, d_in, d_out, bits, group_size, format);
        let mut x = Matrix::randn(batch, d_in, 1.0, &mut Rng::seeded(seed ^ 7));
        // Exact zeros and negative zeros in the activations as well.
        x.data_mut().iter_mut().step_by(5).for_each(|v| *v = 0.0);
        x.data_mut().iter_mut().skip(2).step_by(7).for_each(|v| *v = -0.0);
        prop_assert_eq!(
            bit_patterns(&quant_gemm(&x, &cm)),
            bit_patterns(&quant_gemm_oracle(&x, &cm))
        );
    }

    #[test]
    fn quant_gemm_is_bit_identical_to_oracle_on_compressed_weights(
        seed in any::<u64>(),
        bits in 2u32..=8,
        sparse in any::<bool>(),
        group_pick in 0usize..3,
        blocks in 1usize..=8,
        d_out in 1usize..=11,
        batch in 1usize..=20,
    ) {
        let group_size = [8usize, 16, 24][group_pick];
        let d_in = blocks * 8;
        let mut rng = Rng::seeded(seed);
        let w = Matrix::randn(d_in, d_out, 0.03, &mut rng);
        let cfg = ObsConfig {
            spec: QuantSpec::new(bits, group_size),
            sparse24: sparse,
            damp: 0.05,
        };
        let cm = compress_matrix(&w, &Matrix::identity(d_in), &cfg).packed;
        let x = Matrix::randn(batch, d_in, 1.0, &mut rng);
        prop_assert_eq!(
            bit_patterns(&quant_gemm(&x, &cm)),
            bit_patterns(&quant_gemm_oracle(&x, &cm))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quant_gemm_matches_dense_reference(
        seed in any::<u64>(),
        blocks in 1usize..6,
        d_out in 1usize..24,
        batch in 1usize..12,
        bits in 2u32..8,
        sparse in any::<bool>(),
    ) {
        let d_in = blocks * 8;
        let cm = packed(seed, d_in, d_out, bits, sparse);
        let x = Matrix::randn(batch, d_in, 1.0, &mut Rng::seeded(seed ^ 1));
        let fused = quant_gemm(&x, &cm);
        let dense = x.matmul(&cm.dequantize());
        prop_assert!(fused.max_abs_diff(&dense) < 1e-3,
            "diff {}", fused.max_abs_diff(&dense));
    }

    #[test]
    fn sbmm_grouped_equals_naive_for_any_assignment(
        seed in any::<u64>(),
        n_deltas in 1usize..6,
        assignment in proptest::collection::vec(0usize..6, 1..24),
    ) {
        let assignment: Vec<usize> = assignment.into_iter().map(|a| a % n_deltas).collect();
        let deltas: Vec<CompressedMatrix> = (0..n_deltas)
            .map(|i| packed(seed ^ i as u64, 16, 8, 4, true))
            .collect();
        let refs: Vec<&CompressedMatrix> = deltas.iter().collect();
        let x = Matrix::randn(assignment.len(), 16, 1.0, &mut Rng::seeded(seed ^ 99));
        prop_assert_eq!(
            sbmm_naive(&x, &assignment, &refs),
            sbmm_grouped(&x, &assignment, &refs)
        );
    }
}
