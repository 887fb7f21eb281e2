//! Dense and fused-dequantize GEMM kernels.
//!
//! [`quant_gemm`] computes `y = x * W` straight from the packed
//! representation — the CPU analog of the paper's fused dequantize-GEMM
//! (Figure 5). For the 2:4 format it only touches the kept values, the same
//! work sparse tensor cores skip.
//!
//! # Fused layout
//!
//! * **Activations** are transposed once per call into tiles of `LANES` (4)
//!   batch rows: tile `t` holds `d_in` lane vectors, element `[c][l]` being
//!   `x[t * LANES + l][c]`. Rows past the batch are zero lanes whose
//!   results are never written back, so a batch of any size runs the same
//!   vector loop.
//! * **Weights** are decoded once per call, a strip of `LANES` output
//!   rows at a time. Levels come out of the packed `u32` words a word at a
//!   time (for 4-bit, one word spreads into 8 levels, i.e. four 2:4 groups,
//!   with three shift/mask steps; other widths stream through a shift/mask
//!   reader), and 2:4 positions a byte (two groups) at a time. No value
//!   costs a division: the dense path walks each scale group once, and the
//!   2:4 path looks each kept value's scale up through a column-to-group
//!   table built once per call.
//! * **Multiply**: a `LANES x LANES` block of accumulators (strip rows x
//!   batch lanes) walks the decoded strip once per activation tile; the
//!   inner loop runs across batch lanes, so it vectorises.
//!
//! # Bit-identity contract
//!
//! Every output element `(bi, r)` is summed in a fixed order that does not
//! depend on the batch size or on which lane the row lands in:
//!
//! * dense: `acc += x[c] * w[c]` over columns in order, where `w[c]` is
//!   `0.0` for a zero level and `q as f32 * scale` otherwise;
//! * 2:4: `acc += x[c0] * v0 + x[c1] * v1` per 4-group in order, where
//!   `v = q as f32 * scale` even for `q == 0` (so it can be `-0.0`), and a
//!   pair whose two positions coincide reads the first slot's level twice,
//!   exactly as [`CompressedMatrix::level_at`] resolves it.
//!
//! Rust never reassociates floats, so the result equals the scalar
//! definition over `level_at`/`scale_at` bit for bit; the kernels' tests
//! check this with `to_bits` against such a scalar oracle.

use dz_compress::pack::{CompressedMatrix, MatrixFormat};
use dz_tensor::Matrix;

/// Batch rows per activation tile, and output rows per decoded weight strip.
const LANES: usize = 4;

/// One value per batch lane (or per output row of a strip).
type Lane = [f32; LANES];

/// Plain dense GEMM (the base-model path); thin alias over the tensor crate.
pub fn dense_gemm(x: &Matrix, w: &Matrix) -> Matrix {
    x.matmul(w)
}

/// Fused dequantize-GEMM: `y = x * dequant(cm)` without materializing the
/// dense weight matrix.
///
/// `x` is `(batch, d_in)`, the result `(batch, d_out)`. Each output row is
/// computed on its own: a row's result does not depend on the rest of the
/// batch (see the module's bit-identity contract).
///
/// # Panics
///
/// Panics if `x.cols() != cm.d_in`.
pub fn quant_gemm(x: &Matrix, cm: &CompressedMatrix) -> Matrix {
    assert_eq!(x.cols(), cm.d_in, "input width mismatch");
    let xt = transpose_tiles(x);
    let mut y = Matrix::zeros(x.rows(), cm.d_out);
    match cm.format {
        MatrixFormat::QuantDense => gemm_dense(&xt, cm, &mut y),
        MatrixFormat::QuantSparse24 => gemm_sparse(&xt, cm, &mut y),
    }
    y
}

/// `x` as tiles of [`LANES`] batch rows, transposed within each tile:
/// `xt[t * d_in + c][l] == x[t * LANES + l][c]`, zero past the last row.
fn transpose_tiles(x: &Matrix) -> Vec<Lane> {
    let (b, d) = x.shape();
    let mut xt = vec![[0.0; LANES]; b.div_ceil(LANES) * d];
    for bi in 0..b {
        let tile = &mut xt[(bi / LANES) * d..][..d];
        for (dst, &v) in tile.iter_mut().zip(x.row(bi)) {
            dst[bi % LANES] = v;
        }
    }
    xt
}

/// Runs `dot` on every activation tile and writes the `LANES x LANES`
/// block it returns — `acc[k][l]` is output `(t * LANES + l, r0 + k)` —
/// into `y`, dropping padded batch lanes and padded output rows.
fn for_each_tile(
    xt: &[Lane],
    d_in: usize,
    r0: usize,
    y: &mut Matrix,
    dot: impl Fn(&[Lane]) -> [Lane; LANES],
) {
    let (b, d_out) = y.shape();
    let rows = d_out.min(r0 + LANES) - r0;
    for t in 0..b.div_ceil(LANES) {
        let acc = dot(&xt[t * d_in..(t + 1) * d_in]);
        for (l, bi) in (t * LANES..b.min((t + 1) * LANES)).enumerate() {
            let out = &mut y.row_mut(bi)[r0..r0 + rows];
            for (o, a) in out.iter_mut().zip(&acc) {
                *o = a[l];
            }
        }
    }
}

/// Unpacks `out.len()` biased `bits`-wide levels, starting at the
/// `start`-th packed value, from little-endian `u32` words.
///
/// Word-aligned 4-bit runs spread each word's 8 nibbles into 8 bytes with
/// three shift/mask steps; anything else streams through a shift/mask
/// reader refilled one word at a time. Neither divides per value.
fn unpack_levels(words: &[u32], start: usize, bits: u32, out: &mut [u8]) {
    let mut done = 0;
    if bits == 4 && start.is_multiple_of(8) {
        let (chunks, _) = out.as_chunks_mut::<8>();
        let words = &words[start / 8..][..chunks.len()];
        for (c, &w) in chunks.iter_mut().zip(words) {
            let mut x = w as u64;
            x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
            x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
            x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
            *c = x.to_le_bytes();
        }
        done = chunks.len() * 8;
    }
    let bit = (start + done) * bits as usize;
    let (word, skip) = (bit / 32, (bit % 32) as u32);
    // A row that ends on the last word starts its (empty) tail past it.
    let (mut buf, mut avail) = words
        .get(word)
        .map_or((0, 0), |&w| ((w >> skip) as u64, 32 - skip));
    let mut next = word + 1;
    let mask = (1u64 << bits) - 1;
    for o in &mut out[done..] {
        if avail < bits {
            buf |= (words[next] as u64) << avail;
            avail += 32;
            next += 1;
        }
        *o = (buf & mask) as u8;
        buf >>= bits;
        avail -= bits;
    }
}

/// Unpacks the 2-bit in-group positions of kept values
/// `start..start + out.len()`; a byte-aligned run spreads each index byte
/// (two 2:4 groups) into 4 bytes at once. Returns whether a pair of `out`
/// repeats a position, which only hand-built or corrupt data does.
fn unpack_positions(indices: &[u8], start: usize, out: &mut [u8]) -> bool {
    let mut done = 0;
    let mut repeats = 0u8;
    if start.is_multiple_of(4) {
        let (chunks, _) = out.as_chunks_mut::<4>();
        let bytes = &indices[start / 4..][..chunks.len()];
        for (c, &b) in chunks.iter_mut().zip(bytes) {
            // Bits 0 and 4 of `!(d | d >> 1)` flag the byte's two pairs.
            let d = b ^ (b >> 2);
            repeats |= !(d | (d >> 1)) & 0b0001_0001;
            let mut x = b as u32;
            x = (x | (x << 12)) & 0x000F_000F;
            x = (x | (x << 6)) & 0x0303_0303;
            *c = x.to_le_bytes();
        }
        done = chunks.len() * 4;
    }
    for (i, o) in (start + done..).zip(&mut out[done..]) {
        *o = (indices[i / 4] >> ((i % 4) * 2)) & 0b11;
    }
    let (tail_pairs, _) = out[done..].as_chunks::<2>();
    repeats != 0 || tail_pairs.iter().any(|p| p[0] == p[1])
}

/// The scales of output row `r`, one per scale group.
fn row_scales(cm: &CompressedMatrix, r: usize) -> &[f32] {
    let ng = cm.groups_per_row();
    &cm.scales[r * ng..(r + 1) * ng]
}

fn gemm_dense(xt: &[Lane], cm: &CompressedMatrix, y: &mut Matrix) {
    let (d_in, qmax, gs) = (cm.d_in, cm.spec.qmax(), cm.spec.group_size);
    let mut levels = vec![0u8; d_in];
    // Row k of the strip holds the dequantized weights of output r0 + k.
    let mut strip = vec![0.0f32; LANES * d_in];
    for r0 in (0..cm.d_out).step_by(LANES) {
        for (k, w) in strip.chunks_exact_mut(d_in.max(1)).enumerate() {
            let r = r0 + k;
            if r >= cm.d_out {
                w.fill(0.0);
                continue;
            }
            unpack_levels(&cm.qweight, r * d_in, cm.spec.bits, &mut levels);
            let groups = w.chunks_mut(gs).zip(levels.chunks(gs));
            for ((w, l), &scale) in groups.zip(row_scales(cm, r)) {
                for (w, &l) in w.iter_mut().zip(l) {
                    let q = l as i32 - qmax;
                    *w = if q == 0 { 0.0 } else { q as f32 * scale };
                }
            }
        }
        let [w0, w1, w2, w3] = strip_rows(&strip, d_in);
        for_each_tile(xt, d_in, r0, y, |tile| {
            let mut acc = [[0.0f32; LANES]; LANES];
            let cols = tile.iter().zip(w0).zip(w1).zip(w2).zip(w3);
            for ((((xv, &a), &b), &c), &d) in cols {
                for (acc, w) in acc.iter_mut().zip([a, b, c, d]) {
                    for (al, &xl) in acc.iter_mut().zip(xv) {
                        *al += xl * w;
                    }
                }
            }
            acc
        });
    }
}

/// The [`LANES`] rows of a strip of `n`-wide rows.
fn strip_rows<T>(strip: &[T], n: usize) -> [&[T]; LANES] {
    std::array::from_fn(|k| &strip[k * n..(k + 1) * n])
}

fn gemm_sparse(xt: &[Lane], cm: &CompressedMatrix, y: &mut Matrix) {
    let (d_in, qmax) = (cm.d_in, cm.spec.qmax());
    let kept = d_in / 2;
    let mut col_group = vec![0usize; d_in];
    for (g, cols) in col_group.chunks_mut(cm.spec.group_size).enumerate() {
        cols.fill(g);
    }
    // Runs `(first, end, scale group)` of kept values whose 2:4 group
    // starts in one scale group, and the 2:4 groups that straddle a
    // scale-group boundary (only when the group size is not a multiple of
    // 4) with the scale group of each of their columns. Both are the same
    // for every row.
    let mut runs: Vec<(usize, usize, usize)> = Vec::new();
    let mut straddling = Vec::new();
    for (g, &cols) in col_group.as_chunks::<4>().0.iter().enumerate() {
        if cols[0] != cols[3] {
            straddling.push((g, cols));
        }
        match runs.last_mut() {
            Some(run) if run.2 == cols[0] => run.1 = 2 * g + 2,
            _ => runs.push((2 * g, 2 * g + 2, cols[0])),
        }
    }
    let mut levels = vec![0u8; kept];
    // Row k of each strip holds output r0 + k's kept values: in-group
    // position and dequantized value, two per 4-group.
    let mut pos = vec![0u8; LANES * kept];
    let mut val = vec![0.0f32; LANES * kept];
    for r0 in (0..cm.d_out).step_by(LANES) {
        let rows = pos.chunks_exact_mut(kept.max(1));
        for (k, (p, v)) in rows.zip(val.chunks_exact_mut(kept.max(1))).enumerate() {
            let r = r0 + k;
            if r >= cm.d_out {
                p.fill(0);
                v.fill(0.0);
                continue;
            }
            let first = r * d_in / 2;
            unpack_levels(&cm.qweight, first, cm.spec.bits, &mut levels);
            let repeats = unpack_positions(&cm.indices, first, p);
            let rs = row_scales(cm, r);
            for &(a, b, g) in &runs {
                let s = rs[g];
                for (v, &l) in v[a..b].iter_mut().zip(&levels[a..b]) {
                    *v = (l as i32 - qmax) as f32 * s;
                }
            }
            for &(g, cols) in &straddling {
                for i in [2 * g, 2 * g + 1] {
                    let s = rs[cols[p[i] as usize & 3]];
                    v[i] = (levels[i] as i32 - qmax) as f32 * s;
                }
            }
            if repeats {
                // Coinciding positions resolve to slot 0, as `level_at`
                // does: both read slot 0's level and column.
                let (vals, _) = v.as_chunks_mut::<2>();
                for (v, p) in vals.iter_mut().zip(p.as_chunks::<2>().0) {
                    if p[1] == p[0] {
                        v[1] = v[0];
                    }
                }
            }
        }
        let pos_rows = strip_rows(&pos, kept);
        let val_rows = strip_rows(&val, kept);
        for_each_tile(xt, d_in, r0, y, |tile| {
            let mut acc = [[0.0f32; LANES]; LANES];
            let (groups, _) = tile.as_chunks::<4>();
            let n = groups.len();
            let rows: [_; LANES] = std::array::from_fn(|k| {
                let p = &pos_rows[k].as_chunks::<2>().0[..n];
                (p, &val_rows[k].as_chunks::<2>().0[..n])
            });
            for (g, xg) in groups.iter().enumerate() {
                for (acc, (p, v)) in acc.iter_mut().zip(rows) {
                    let ([p0, p1], [v0, v1]) = (p[g], v[g]);
                    let x0 = &xg[p0 as usize & 3];
                    let x1 = &xg[p1 as usize & 3];
                    for ((al, &a), &b) in acc.iter_mut().zip(x0).zip(x1) {
                        *al += a * v0 + b * v1;
                    }
                }
            }
            acc
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_compress::obs::{compress_matrix, ObsConfig};
    use dz_compress::quant::QuantSpec;
    use dz_tensor::Rng;

    fn packed_fixture(sparse: bool, bits: u32, seed: u64) -> (Matrix, CompressedMatrix) {
        let mut rng = Rng::seeded(seed);
        let w = Matrix::randn(16, 8, 0.05, &mut rng);
        let cfg = ObsConfig {
            spec: QuantSpec::new(bits, 16),
            sparse24: sparse,
            damp: 0.05,
        };
        let res = compress_matrix(&w, &Matrix::identity(16), &cfg);
        (res.reconstructed, res.packed)
    }

    #[test]
    fn dense_quant_gemm_matches_dequantized_matmul() {
        for bits in [2u32, 4, 8] {
            let (rec, cm) = packed_fixture(false, bits, bits as u64);
            let mut rng = Rng::seeded(99);
            let x = Matrix::randn(5, 16, 1.0, &mut rng);
            let fused = quant_gemm(&x, &cm);
            let reference = x.matmul(&rec);
            assert!(
                fused.max_abs_diff(&reference) < 1e-4,
                "bits={bits} diff {}",
                fused.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn sparse_quant_gemm_matches_dequantized_matmul() {
        for bits in [2u32, 4] {
            let (rec, cm) = packed_fixture(true, bits, bits as u64 + 5);
            let mut rng = Rng::seeded(42);
            let x = Matrix::randn(7, 16, 1.0, &mut rng);
            let fused = quant_gemm(&x, &cm);
            let reference = x.matmul(&rec);
            assert!(
                fused.max_abs_diff(&reference) < 1e-4,
                "bits={bits} diff {}",
                fused.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn single_row_batch_works() {
        let (rec, cm) = packed_fixture(true, 4, 11);
        let mut rng = Rng::seeded(3);
        let x = Matrix::randn(1, 16, 1.0, &mut rng);
        let fused = quant_gemm(&x, &cm);
        assert_eq!(fused.shape(), (1, 8));
        assert!(fused.max_abs_diff(&x.matmul(&rec)) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn width_mismatch_panics() {
        let (_, cm) = packed_fixture(false, 4, 13);
        let x = Matrix::zeros(2, 12);
        let _ = quant_gemm(&x, &cm);
    }
}
