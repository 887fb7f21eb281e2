//! Host roofs, memory high-water mark and provenance.

use dz_tensor::gemm::matmul_block;
use std::hint::black_box;
use std::time::Instant;

const COPY_BYTES: usize = 32 << 20;
const GEMM_N: usize = 256;
const PROBE_REPS: usize = 7;

/// Single-thread STREAM-style copy bandwidth, GB/s (read + write bytes),
/// best of several passes.
pub fn copy_gbps() -> f64 {
    let src = vec![1u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    let mut best = 0.0f64;
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.max(2.0 * COPY_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Single-thread GFLOP/s of the blocked `dz_tensor` GEMM kernel the
/// decode path runs, best of several square products.
pub fn gemm_gflops() -> f64 {
    let n = GEMM_N;
    let a: Vec<f32> = (0..n * n).map(|i| (i % 13) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..n * n).map(|i| (i % 7) as f32 * 0.02).collect();
    let mut c = vec![0.0f32; n * n];
    let mut best = 0.0f64;
    for _ in 0..PROBE_REPS {
        c.iter_mut().for_each(|v| *v = 0.0);
        let t = Instant::now();
        matmul_block(black_box(&a), black_box(&b), &mut c, n, n, n);
        black_box(&mut c);
        best = best.max(2.0 * (n * n * n) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Multiply-adds per [`speed_probe_ms`] sample (a few ms of work).
const PROBE_MACS: usize = 4 << 20;

/// Wall milliseconds of a host-speed probe shaped like one decode step of
/// the served model, in code of this benchmark's own (no repository code):
/// `rows` activation rows times a `d_in` x `weights / d_in` f32 weight
/// buffer as large as the model's linear layers, so the probe shares the
/// step's cache footprint. The host's speed drifts between and within runs.
pub fn speed_probe_ms(rows: usize, d_in: usize, weights: usize) -> f64 {
    let d_out = weights / d_in;
    let w: Vec<f32> = (0..d_in * d_out)
        .map(|i| ((i % 17) as f32 - 8.0) * 0.01)
        .collect();
    let x: Vec<f32> = (0..rows * d_in).map(|i| (i % 7) as f32 * 0.1).collect();
    let reps = (PROBE_MACS / (rows * d_in * d_out)).max(1);
    let mut y = vec![0.0f32; rows * d_out];
    let t = Instant::now();
    for _ in 0..reps {
        y.iter_mut().for_each(|v| *v = 0.0);
        // Weight-row outer loop: each weight row is read once per pass and
        // applied to every activation row, as a blocked GEMM does.
        for (k, wrow) in w.chunks_exact(d_out).enumerate() {
            for (r, yrow) in y.chunks_exact_mut(d_out).enumerate() {
                let xv = black_box(x[r * d_in + k]);
                for (yv, &wv) in yrow.iter_mut().zip(wrow) {
                    *yv += xv * wv;
                }
            }
        }
        black_box(&mut y);
    }
    t.elapsed().as_secs_f64() * 1e3
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the kernel's resident-set high-water mark so the next
/// [`peak_rss_mb`] covers only what follows; false where unsupported.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Resident-set high-water mark, MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// The commit the checkout came from, when it is a git work tree.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.into()
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
