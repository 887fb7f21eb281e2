//! Set-up: base model, compressed and published variant zoo, pre-warmed
//! store and the dense output oracle.

use crate::spec::{Codec, Workload};
use crate::tracer::Tracer;
use dz_compress::calib::calibration_set;
use dz_compress::codec::{BitDeltaCodec, DeltaCodec, SparseGptCodec};
use dz_compress::CompressedDelta;
use dz_model::eval::greedy_generate;
use dz_model::tasks::Corpus;
use dz_model::Params;
use dz_store::{ArtifactId, Registry, Sha256, StoreError, TieredDeltaStore};
use dz_tensor::{Matrix, Rng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Spread of the synthetic fine-tuning delta on linear weights and on
/// the parameters that ride along uncompressed (the base uses 0.08).
const LINEAR_DELTA_STD: f32 = 0.01;
const REST_DELTA_STD: f32 = 0.004;
const CALIB_SEQS: usize = 4;

/// Removes the registry directory when dropped.
pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Zoo {
    pub base: Params,
    pub ids: Vec<ArtifactId>,
    pub store: TieredDeltaStore,
    /// Whether each variant is served by the packed (SBMM) path; the rest
    /// take `DecoupledBatch`'s dense fallback.
    pub quant: Vec<bool>,
    /// Bytes one decode step reads per distinct variant: its delta layers
    /// (packed, or dense f32 for the fallback) plus its output head.
    pub variant_step_bytes: Vec<u64>,
    pub prompts: Vec<Vec<usize>>,
    /// Greedy tokens of the reconstructed dense model, by (variant, prompt).
    pub oracle: BTreeMap<(usize, usize), Vec<usize>>,
    pub publish_bytes: u64,
    _dir: TempDir,
}

/// Params hash that names the base in every artifact header.
fn params_hash(params: &Params) -> dz_store::Digest {
    let mut h = Sha256::new();
    params.for_each(|name, m| {
        h.update(name.as_bytes());
        for &v in m.data() {
            h.update(&v.to_le_bytes());
        }
    });
    h.finalize()
}

/// A fine-tuned variant: the base plus a seeded perturbation.
fn tuned_variant(base: &Params, rng: &mut Rng) -> Params {
    let linear: std::collections::BTreeSet<String> =
        base.linear_layer_names().into_iter().collect();
    let mut tuned = base.clone();
    tuned.for_each_mut(|name, m| {
        let std = if linear.contains(name) {
            LINEAR_DELTA_STD
        } else {
            REST_DELTA_STD
        };
        let noise = Matrix::randn(m.rows(), m.cols(), std, rng);
        m.add_assign(&noise);
    });
    tuned
}

fn codec_span(codec: Codec) -> &'static str {
    match codec {
        Codec::SparseGpt(_) => "compress.sparsegpt",
        Codec::BitDelta => "compress.bitdelta",
    }
}

fn compress(codec: Codec, base: &Params, tuned: &Params, calib: &[Vec<usize>]) -> CompressedDelta {
    match codec {
        Codec::SparseGpt(bits) => SparseGptCodec::starred(bits).compress(base, tuned, calib).0,
        Codec::BitDelta => BitDeltaCodec::per_row().compress(base, tuned, calib).0,
    }
}

fn step_bytes(delta: &CompressedDelta) -> u64 {
    let layers: usize = delta
        .layers
        .values()
        .map(|l| match l.as_quant() {
            Some(q) => q.packed_bytes(),
            None => 4 * l.d_in() * l.d_out(),
        })
        .sum();
    let head = delta.rest.get("head").map_or(0, |m| 4 * m.len());
    (layers + head) as u64
}

/// Builds the zoo for `w` under `dir` (created, and removed when the zoo
/// drops). Every call with the same seed builds the same zoo.
pub fn build(w: &Workload, seed: u64, dir: &Path, tr: &mut Tracer) -> Result<Zoo, StoreError> {
    let dir = TempDir(dir.to_path_buf());
    let mut rng = Rng::seeded(seed ^ 0x5EED_0000_BA5E);
    let base = Params::init(w.model, &mut rng);
    let base_hash = params_hash(&base);
    let calib = calibration_set(&Corpus::new(w.model.max_seq), CALIB_SEQS, seed);
    let registry = Registry::open(&dir.0)?;

    let mut ids = Vec::with_capacity(w.codecs.len());
    let mut quant = Vec::with_capacity(w.codecs.len());
    let mut variant_step_bytes = Vec::with_capacity(w.codecs.len());
    let mut reconstructed = Vec::with_capacity(w.codecs.len());
    let mut publish_bytes = 0;
    for (i, &codec) in w.codecs.iter().enumerate() {
        let tuned = tuned_variant(&base, &mut rng);
        let delta = tr.span(codec_span(codec), i as u64, || {
            compress(codec, &base, &tuned, &calib)
        });
        let id = tr.span("store.publish", i as u64, || {
            registry.publish_delta(&format!("variant-{i}"), base_hash, &delta)
        })?;
        publish_bytes += registry.size_of(&id)?;
        quant.push(delta.layers.values().all(|l| l.as_quant().is_some()));
        variant_step_bytes.push(step_bytes(&delta));
        reconstructed.push(delta.reconstruct(&base));
        ids.push(id);
    }

    // Pre-warm: read every artifact once (page cache, and the decoded size
    // the host budget is a share of), then fill the host cache least
    // popular first so the most popular variants end most recently used.
    let warm = tr.begin("setup.prewarm", 0);
    let mut footprint = 0u64;
    for id in &ids {
        let (_, stats) = registry.open_artifact(id)?.read_delta_with_stats()?;
        footprint += registry.size_of(id)? + stats.raw_bytes;
    }
    let budget = (footprint as f64 * w.host_budget_frac) as u64;
    let mut store = TieredDeltaStore::new(registry, budget);
    for id in ids.iter().rev() {
        store.fetch_decoded(id)?;
    }
    tr.end(warm);

    let prompts: Vec<Vec<usize>> = (0..w.prompt_pool)
        .map(|_| {
            (0..w.prompt_len)
                .map(|_| dz_model::vocab::BOS + 1 + rng.below(w.model.vocab - 2))
                .collect()
        })
        .collect();
    let oracle = tr.span("setup.oracle", 0, || {
        let mut oracle = BTreeMap::new();
        for (v, params) in reconstructed.iter().enumerate() {
            for (p, prompt) in prompts.iter().enumerate() {
                oracle.insert((v, p), greedy_generate(params, prompt, w.output_len));
            }
        }
        oracle
    });

    Ok(Zoo {
        base,
        ids,
        store,
        quant,
        variant_step_bytes,
        prompts,
        oracle,
        publish_bytes,
        _dir: dir,
    })
}
