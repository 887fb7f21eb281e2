//! Scalar oracle for the fused dequantize-GEMM kernels.
//!
//! These are the straightforward loops `quant_gemm` is defined by, built
//! only on the public [`CompressedMatrix::level_at`] / `scale_at`
//! accessors: decode one weight at a time, then accumulate one batch row
//! at a time. They fix the accumulation order of every output element, so
//! the fused kernels must match them bit for bit.

use dz_compress::pack::{CompressedMatrix, MatrixFormat};
use dz_tensor::Matrix;

/// `y = x * dequant(cm)`, computed element by element.
pub fn quant_gemm_oracle(x: &Matrix, cm: &CompressedMatrix) -> Matrix {
    assert_eq!(x.cols(), cm.d_in, "input width mismatch");
    let mut y = Matrix::zeros(x.rows(), cm.d_out);
    match cm.format {
        MatrixFormat::QuantDense => oracle_dense(x, cm, &mut y),
        MatrixFormat::QuantSparse24 => oracle_sparse(x, cm, &mut y),
    }
    y
}

fn oracle_dense(x: &Matrix, cm: &CompressedMatrix, y: &mut Matrix) {
    let mut wrow = vec![0.0f32; cm.d_in];
    for r in 0..cm.d_out {
        for (c, w) in wrow.iter_mut().enumerate() {
            let q = cm.level_at(r, c);
            *w = if q == 0 {
                0.0
            } else {
                q as f32 * cm.scale_at(r, c)
            };
        }
        for bi in 0..x.rows() {
            let mut acc = 0.0f32;
            for (xv, wv) in x.row(bi).iter().zip(wrow.iter()) {
                acc += xv * wv;
            }
            y.set(bi, r, acc);
        }
    }
}

fn oracle_sparse(x: &Matrix, cm: &CompressedMatrix, y: &mut Matrix) {
    // Walk only kept values: each 4-group of a row stores 2 entries.
    for r in 0..cm.d_out {
        let mut cols = [0usize; 2];
        let mut vals = [0.0f32; 2];
        for g4 in 0..cm.d_in / 4 {
            let kept_base = (r * cm.d_in) / 2 + g4 * 2;
            for slot in 0..2 {
                let i = kept_base + slot;
                let pos = (cm.indices[i / 4] >> ((i % 4) * 2)) & 0b11;
                let c = g4 * 4 + pos as usize;
                cols[slot] = c;
                vals[slot] = cm.level_at(r, c) as f32 * cm.scale_at(r, c);
            }
            for bi in 0..x.rows() {
                let xrow = x.row(bi);
                let add = xrow[cols[0]] * vals[0] + xrow[cols[1]] * vals[1];
                y.set(bi, r, y.get(bi, r) + add);
            }
        }
    }
}
