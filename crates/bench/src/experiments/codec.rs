//! Codec throughput experiment: the decode fast path measured end to end.
//!
//! `bench-lossless` times the decode paths (serial tree-walk reference,
//! LUT Huffman, and the stored container that `.dza` artifacts hold) on a
//! packed-delta-like corpus and an incompressible one, then drives a
//! `cold-zoo`-shaped `.dza` artifact through cold
//! [`dz_store::TieredDeltaStore::fetch_decoded`] calls, so the measured
//! store-level throughput — the number the serving cost model consumes —
//! appears in the same report with its spread. Alongside the rendered
//! markdown it emits a machine-readable `BENCH_lossless.json` next to the
//! other experiment artifacts.

use super::{json_provenance, md_table, Report, Scale};
use dz_compress::calib::calibration_set;
use dz_compress::codec::{DeltaCodec, SparseGptCodec};
use dz_compress::pipeline::CompressedDelta;
use dz_model::tasks::Corpus;
use dz_model::transformer::{ModelConfig, Params};
use dz_store::{sha256, Registry, TieredDeltaStore};
use dz_tensor::{Matrix, Rng};
use std::time::Instant;

/// Packed-delta-like corpus: quantized deltas are low-entropy integer
/// streams with runs of zero levels; synthesize the same flavor of data.
/// Shared with the criterion `lossless-decode` bench so the acceptance
/// gate and the experiment measure the same corpus.
pub fn packed_delta_like(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::seeded(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if rng.bernoulli(0.6) {
            let run = 1 + rng.below(24);
            out.extend(std::iter::repeat_n(0u8, run.min(n - out.len())));
        } else {
            out.push(rng.below(256) as u8);
        }
    }
    out
}

/// Incompressible corpus (uniform random bytes): exercises the stored-page
/// and CRC path rather than the Huffman decoder.
pub fn incompressible(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::seeded(seed);
    (0..n).map(|_| rng.below(256) as u8).collect()
}

/// Best-of-`iters` wall time of `f`, in seconds.
fn best_of<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct Measurement {
    corpus: &'static str,
    path: &'static str,
    mb_s: f64,
    speedup: f64,
}

/// The `bench-lossless` experiment.
pub fn bench_lossless(scale: Scale, out_dir: &std::path::Path) -> Report {
    let n = match scale {
        Scale::Full => 8usize << 20,
        Scale::Quick => 2usize << 20,
    };
    let iters = match scale {
        Scale::Full => 5,
        Scale::Quick => 3,
    };
    let corpora = [
        ("packed-delta", packed_delta_like(n, 7)),
        ("incompressible", incompressible(n, 11)),
    ];
    type DecodeFn<'a> = Box<dyn Fn() + 'a>;
    let mut measurements: Vec<Measurement> = Vec::new();
    for (corpus, data) in &corpora {
        let compressed = dz_lossless::compress(data);
        let stored = dz_lossless::store(data);
        let paths: [(&'static str, DecodeFn<'_>); 3] = [
            (
                "reference",
                Box::new(|| {
                    dz_lossless::decompress_reference(&compressed).expect("reference");
                }),
            ),
            (
                "lut",
                Box::new(|| {
                    dz_lossless::decompress(&compressed).expect("lut");
                }),
            ),
            (
                "stored",
                Box::new(|| {
                    dz_lossless::decode(&stored).expect("stored");
                }),
            ),
        ];
        let mut reference_mb_s = 0.0;
        for (path, f) in paths {
            let best = best_of(iters, f);
            let mb_s = data.len() as f64 / best / 1e6;
            if path == "reference" {
                reference_mb_s = mb_s;
            }
            measurements.push(Measurement {
                corpus,
                path,
                mb_s,
                speedup: mb_s / reference_mb_s,
            });
        }
    }

    // Store-level: cold fetches of one cold-zoo-shaped artifact.
    let store = measure_store_fetch();

    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.corpus.to_string(),
                m.path.to_string(),
                format!("{:.1}", m.mb_s),
                format!("{:.2}x", m.speedup),
            ]
        })
        .collect();
    let mut body = md_table(&["corpus", "decode path", "MB/s", "vs reference"], &rows);
    match &store {
        Some(f) => body.push_str(&format!(
            "\nstore cold fetch_decoded, cold-zoo-shaped artifact ({} tensors, {} B raw), \
             {} runs: median {:.3} GB/s (quartiles {:.3}–{:.3}, min {:.3}, max {:.3}); \
             stored/raw {:.3}, Huffman pages would be {:.3} of raw\n",
            f.tensors,
            f.raw_bytes,
            f.gbps.len(),
            f.quantile(0.5),
            f.quantile(0.25),
            f.quantile(0.75),
            f.quantile(0.0),
            f.quantile(1.0),
            f.stored_bytes as f64 / f.raw_bytes as f64,
            f.huffman_bytes as f64 / f.raw_bytes as f64,
        )),
        None => body.push_str("\nstore fetch_decoded measurement unavailable\n"),
    }
    match write_json(&measurements, store.as_ref(), n, out_dir) {
        Ok(path) => body.push_str(&format!("json: {path}\n")),
        Err(e) => body.push_str(&format!("json write failed: {e}\n")),
    }
    Report {
        id: "bench-lossless",
        title: "Decode throughput (reference, LUT, stored pages) and cold store fetches",
        body,
    }
}

/// Cold fetches [`measure_store_fetch`] times; 10 give a median and
/// quartiles.
const STORE_FETCH_RUNS: usize = 10;

/// A delta shaped like one `cold-zoo` artifact: SparseGPT* 4-bit on
/// wallbench's cold-zoo model (vocab 240, d_model 64, 4 layers, d_ff
/// 128), so packed linears ride with dense embedding, head and norm
/// tensors — ~220 KB of wire bytes over 69 tensors.
fn cold_zoo_shaped_delta() -> CompressedDelta {
    let cfg = ModelConfig {
        vocab: dz_model::zoo::VOCAB_LARGE,
        d_model: 64,
        n_layers: 4,
        n_heads: 4,
        d_ff: 128,
        max_seq: 16,
    };
    let mut rng = Rng::seeded(0xC01D);
    let base = Params::init(cfg, &mut rng);
    let mut tuned = base.clone();
    for m in tuned.tensors_mut() {
        let bump = Matrix::randn(m.rows(), m.cols(), 0.01, &mut rng);
        m.add_assign(&bump);
    }
    let calib = calibration_set(&Corpus::new(cfg.max_seq), 4, 0xCA11B);
    SparseGptCodec::starred(4).compress(&base, &tuned, &calib).0
}

/// Cold `fetch_decoded` measurements of one published artifact.
pub struct StoreFetch {
    /// Tensors in the artifact.
    pub tensors: usize,
    /// Payload bytes per fetch wall second, in GB/s, one per run, sorted.
    pub gbps: Vec<f64>,
    /// Wire bytes of every tensor.
    pub raw_bytes: u64,
    /// Payload bytes the artifact holds (stored pages).
    pub stored_bytes: u64,
    /// Payload bytes the same tensors take as `dz_lossless::compress`
    /// (Huffman) pages.
    pub huffman_bytes: u64,
}

impl StoreFetch {
    /// The `q` quantile of the per-run rates (nearest rank).
    pub fn quantile(&self, q: f64) -> f64 {
        let i = (q * (self.gbps.len() - 1) as f64).round() as usize;
        self.gbps[i]
    }
}

/// Publishes a `cold-zoo`-shaped delta into a temp registry and times 10
/// cold `fetch_decoded` calls (evicted before each, so each reads the
/// file and decodes it).
pub fn measure_store_fetch() -> Option<StoreFetch> {
    let dir = std::env::temp_dir().join(format!("dz-bench-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::open(&dir).ok()?;
    let id = registry
        .publish_delta("bench-delta", sha256(b"base"), &cold_zoo_shaped_delta())
        .ok()?;
    let mut reader = registry.open_artifact(&id).ok()?;
    let entries = reader.manifest().tensors.clone();
    let mut huffman_bytes = 0u64;
    for t in &entries {
        let raw = reader.read_tensor_bytes(&t.name).ok()?;
        huffman_bytes += dz_lossless::compress(&raw).len() as u64;
    }
    let mut store = TieredDeltaStore::new(registry, 1 << 30);
    let mut gbps = Vec::with_capacity(STORE_FETCH_RUNS);
    for _ in 0..STORE_FETCH_RUNS {
        store.evict(&id);
        let t0 = Instant::now();
        let fetch = store.fetch_decoded(&id).ok()?;
        let wall = t0.elapsed().as_secs_f64();
        let bytes = fetch.decode?.compressed_bytes;
        gbps.push(bytes as f64 / 1e9 / wall);
    }
    gbps.sort_by(f64::total_cmp);
    std::fs::remove_dir_all(&dir).ok();
    Some(StoreFetch {
        tensors: entries.len(),
        gbps,
        raw_bytes: entries.iter().map(|t| t.raw_len).sum(),
        stored_bytes: entries.iter().map(|t| t.comp_len).sum(),
        huffman_bytes,
    })
}

/// Hand-rolled JSON (no serde dependency in this crate): one object per
/// measurement plus the store-level figures.
fn write_json(
    measurements: &[Measurement],
    store: Option<&StoreFetch>,
    corpus_bytes: usize,
    dir: &std::path::Path,
) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let mut json = String::from("{\n");
    json.push_str(&json_provenance(
        "bench-lossless",
        &[
            ("corpus_bytes", corpus_bytes.to_string()),
            ("store_fetch_runs", STORE_FETCH_RUNS.to_string()),
        ],
    ));
    json.push_str("  \"corpus_bytes\": ");
    json.push_str(&corpus_bytes.to_string());
    json.push_str(",\n  \"decode\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"corpus\": \"{}\", \"path\": \"{}\", \"mb_per_s\": {:.1}, \"speedup_vs_reference\": {:.3}}}{}\n",
            m.corpus,
            m.path,
            m.mb_s,
            m.speedup,
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"store_fetch\": ");
    match store {
        Some(f) => json.push_str(&format!(
            "{{\"tensors\": {}, \"raw_bytes\": {}, \"stored_bytes\": {}, \"huffman_bytes\": {}, \
             \"stored_over_raw\": {:.4}, \"gbps_median\": {:.4}, \"gbps_p25\": {:.4}, \
             \"gbps_p75\": {:.4}, \"gbps_min\": {:.4}, \"gbps_max\": {:.4}}}\n",
            f.tensors,
            f.raw_bytes,
            f.stored_bytes,
            f.huffman_bytes,
            f.stored_bytes as f64 / f.raw_bytes as f64,
            f.quantile(0.5),
            f.quantile(0.25),
            f.quantile(0.75),
            f.quantile(0.0),
            f.quantile(1.0),
        )),
        None => json.push_str("null\n"),
    }
    json.push_str("}\n");
    let path = dir.join("BENCH_lossless.json");
    std::fs::write(&path, json)?;
    Ok(path.display().to_string())
}
