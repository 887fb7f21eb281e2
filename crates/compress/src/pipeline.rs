//! ΔCompress — Algorithm 1 of the paper.
//!
//! For each linear layer, in forward order:
//!
//! 1. extract the delta `Δ = w_f - w_b`,
//! 2. compress `Δ` with the OBS solver calibrated on `X_n`, the inputs the
//!    layer sees under the *progressively reconstructed* model,
//! 3. reconstruct `ŵ = QM + w_b` and substitute it, so `X_{n+1}` for the
//!    next layer reflects compression error incurred so far.
//!
//! Step 3 is the paper's key departure from running SparseGPT on the model:
//! without re-adding the base weights the propagated activations collapse
//! (deltas are tiny) and calibration fails. The ablation test below
//! reproduces that effect.

use crate::calib::inputs_for;
use crate::codec::{CodecId, PackedLayer};
use crate::obs::{compress_matrix, hessian_from_inputs, ObsConfig};
use crate::quant::QuantSpec;
use dz_model::transformer::Params;
use std::collections::BTreeMap;

/// Configuration of the full ΔCompress pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaCompressConfig {
    /// Bits per delta weight (2 or 4 in the paper).
    pub bits: u32,
    /// Quantization group size along the input dimension.
    pub group_size: usize,
    /// Apply 2:4 structured sparsity (the paper's ★ configurations).
    pub sparse24: bool,
    /// Hessian damping fraction.
    pub damp: f32,
    /// Run the optional lossless stage and record its effect.
    pub lossless: bool,
}

impl DeltaCompressConfig {
    /// The paper's `Nbit★` configuration (N-bit + 50% structured sparsity).
    pub fn starred(bits: u32) -> Self {
        DeltaCompressConfig {
            bits,
            group_size: 16,
            sparse24: true,
            damp: 0.05,
            lossless: false,
        }
    }

    fn obs(&self) -> ObsConfig {
        ObsConfig {
            spec: QuantSpec::new(self.bits, self.group_size),
            sparse24: self.sparse24,
            damp: self.damp,
        }
    }
}

/// Byte-level accounting of one compressed artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeReport {
    /// Packed bytes of all compressed linear layers.
    pub compressed_linear_bytes: usize,
    /// FP16 bytes of everything left uncompressed (embeddings, norms, ...).
    pub uncompressed_rest_bytes: usize,
    /// FP16 bytes of the full model.
    pub full_fp16_bytes: usize,
    /// Bytes after the optional lossless stage (packed linears only),
    /// as `dz_lossless::compress` codes them: the paper's figure for
    /// GDeflate, which decodes on the GPU. It is not what a `.dza`
    /// artifact holds — the store writes pages stored, because on a CPU
    /// the decode costs more time than the bytes it saves.
    pub lossless_linear_bytes: Option<usize>,
}

impl SizeReport {
    /// Whole-model compression ratio (the paper's Table 1 metric): full
    /// FP16 size over compressed-linears + uncompressed-rest.
    pub fn model_ratio(&self) -> f64 {
        self.full_fp16_bytes as f64
            / (self.compressed_linear_bytes + self.uncompressed_rest_bytes) as f64
    }

    /// Delta-only compression ratio (what swapping cost scales with).
    pub fn delta_ratio(&self) -> f64 {
        let linear_fp16 = self.full_fp16_bytes - self.uncompressed_rest_bytes;
        linear_fp16 as f64 / self.compressed_linear_bytes.max(1) as f64
    }

    /// Ratio including the lossless stage, if it ran.
    pub fn lossless_delta_ratio(&self) -> Option<f64> {
        self.lossless_linear_bytes.map(|b| {
            let linear_fp16 = self.full_fp16_bytes - self.uncompressed_rest_bytes;
            linear_fp16 as f64 / b.max(1) as f64
        })
    }
}

/// A compressed model delta: packed per-layer matrices plus accounting.
///
/// Besides the packed linear-layer deltas, the artifact carries FP16 copies
/// of every parameter ΔCompress leaves uncompressed (embeddings, biases,
/// norms) — those change during fine-tuning too and must ship with the
/// delta. Their bytes are what `uncompressed_rest_bytes` accounts for.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedDelta {
    /// Packed delta per linear layer, keyed by stable parameter name.
    /// The layer format varies with the codec (see
    /// [`PackedLayer`]).
    pub layers: BTreeMap<String, PackedLayer>,
    /// FP16 parameters outside the compressed set, keyed by stable name.
    pub rest: BTreeMap<String, dz_tensor::Matrix>,
    /// The method-zoo codec that produced the delta.
    pub codec: CodecId,
    /// The configuration that produced it (only fully meaningful for the
    /// OBS pipeline; other codecs record nominal values).
    pub config: DeltaCompressConfig,
    /// Byte accounting.
    pub report: SizeReport,
}

impl CompressedDelta {
    /// Total packed bytes of the delta (what gets swapped at serving time).
    pub fn packed_bytes(&self) -> usize {
        self.report.compressed_linear_bytes
    }

    /// Serves as the on-disk payload for the lossless stage / disk model.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for cm in self.layers.values() {
            out.extend(cm.to_bytes());
        }
        out
    }

    /// Reconstructs full fine-tuned parameters: `base + dequant(delta)` for
    /// compressed layers, stored FP16 values for everything else.
    pub fn reconstruct(&self, base: &Params) -> Params {
        let mut out = base.clone();
        for (name, value) in &self.rest {
            out.set(name, value.clone());
        }
        for (name, cm) in &self.layers {
            let w = base
                .get(name)
                .expect("layer exists in base")
                .add(&cm.dequantize());
            out.set(name, w);
        }
        out
    }
}

/// Collects the FP16 parameters that ride along uncompressed; shared by
/// every method-zoo codec.
pub(crate) fn collect_rest(
    finetuned: &Params,
    compressed: &BTreeMap<String, PackedLayer>,
) -> BTreeMap<String, dz_tensor::Matrix> {
    let mut rest = BTreeMap::new();
    finetuned.for_each(|name, m| {
        if !compressed.contains_key(name) {
            rest.insert(name.to_string(), m.clone());
        }
    });
    rest
}

/// Byte accounting for a set of packed layers against a base model;
/// shared by every method-zoo codec.
pub(crate) fn size_report_for(
    base: &Params,
    layers: &BTreeMap<String, PackedLayer>,
    lossless: bool,
) -> SizeReport {
    let full = base.fp16_bytes();
    let compressed_linear: usize = layers.values().map(|c| c.packed_bytes()).sum();
    let linear_fp16: usize = layers.values().map(|c| c.fp16_bytes()).sum();
    let rest = full - linear_fp16;
    let lossless_linear = if lossless {
        let mut total = 0usize;
        for cm in layers.values() {
            total += dz_lossless::compress(&cm.to_bytes()).len();
        }
        Some(total)
    } else {
        None
    };
    SizeReport {
        compressed_linear_bytes: compressed_linear,
        uncompressed_rest_bytes: rest,
        full_fp16_bytes: full,
        lossless_linear_bytes: lossless_linear,
    }
}

/// Runs ΔCompress (Algorithm 1) and returns the compressed delta together
/// with the reconstructed (servable) parameters.
///
/// # Panics
///
/// Panics if `base` and `finetuned` have different shapes.
pub fn delta_compress(
    base: &Params,
    finetuned: &Params,
    calib: &[Vec<usize>],
    config: DeltaCompressConfig,
) -> (CompressedDelta, Params) {
    assert_eq!(base.config, finetuned.config, "model config mismatch");
    let obs_cfg = config.obs();
    // Work holds the progressively reconstructed model (Line 6-7 of Alg. 1).
    let mut work = finetuned.clone();
    let mut layers = BTreeMap::new();
    for name in base.linear_layer_names() {
        // X_n: inputs under the reconstructed-so-far model.
        let x = inputs_for(&work, calib, &name);
        let h = hessian_from_inputs(&[&x]);
        let w_b = base.get(&name).expect("linear exists");
        let w_f = finetuned.get(&name).expect("linear exists");
        let delta = w_f.sub(w_b);
        let res = compress_matrix(&delta, &h, &obs_cfg);
        // Reconstruct the weight so the next layer calibrates on realistic
        // activations.
        let w_hat = w_b.add(&res.reconstructed);
        work.set(&name, w_hat);
        layers.insert(name, PackedLayer::Quant(res.packed));
    }
    let report = size_report_for(base, &layers, config.lossless);
    let rest = collect_rest(finetuned, &layers);
    (
        CompressedDelta {
            layers,
            rest,
            codec: CodecId::SparseGptStar,
            config,
            report,
        },
        work,
    )
}

/// Ablation: ΔCompress *without* per-layer weight reconstruction — the
/// calibration activations are propagated through the raw deltas instead,
/// which the paper identifies as the failure mode (vanishing activations).
pub fn delta_compress_no_reconstruct(
    base: &Params,
    finetuned: &Params,
    calib: &[Vec<usize>],
    config: DeltaCompressConfig,
) -> (CompressedDelta, Params) {
    assert_eq!(base.config, finetuned.config, "model config mismatch");
    let obs_cfg = config.obs();
    // Delta-only model: activations vanish in deeper layers.
    let mut delta_model = finetuned.clone();
    {
        let base_t = base.tensors();
        for (dm, bm) in delta_model.tensors_mut().into_iter().zip(base_t) {
            *dm = dm.sub(bm);
        }
    }
    let mut layers = BTreeMap::new();
    let mut reconstructed = base.clone();
    for name in base.linear_layer_names() {
        let x = inputs_for(&delta_model, calib, &name);
        let h = hessian_from_inputs(&[&x]);
        let w_b = base.get(&name).expect("linear exists");
        let w_f = finetuned.get(&name).expect("linear exists");
        let delta = w_f.sub(w_b);
        let res = compress_matrix(&delta, &h, &obs_cfg);
        let w_hat = w_b.add(&res.reconstructed);
        reconstructed.set(&name, w_hat);
        layers.insert(name, PackedLayer::Quant(res.packed));
    }
    let report = size_report_for(base, &layers, config.lossless);
    let rest = collect_rest(finetuned, &layers);
    (
        CompressedDelta {
            layers,
            rest,
            codec: CodecId::SparseGptStar,
            config,
            report,
        },
        reconstructed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::calibration_set;
    use dz_model::tasks::{Corpus, SentimentTask};
    use dz_model::train::{finetune_fmt, pretrain, TrainConfig};
    use dz_model::transformer::test_config;
    use dz_tensor::Rng;

    fn trained_pair() -> (Params, Params) {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let mut base = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        pretrain(&mut base, &corpus, TrainConfig::pretrain(60));
        let mut tuned = base.clone();
        finetune_fmt(&mut tuned, &SentimentTask, TrainConfig::finetune(60));
        (base, tuned)
    }

    #[test]
    fn delta_compress_produces_all_linear_layers() {
        let (base, tuned) = trained_pair();
        let corpus = Corpus::new(base.config.max_seq);
        let calib = calibration_set(&corpus, 6, 3);
        let (cd, rec) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
        assert_eq!(cd.layers.len(), base.linear_layer_names().len());
        // Reconstructed parameters only differ from base in linear layers.
        assert_eq!(rec.tok_emb, tuned.tok_emb);
        assert_eq!(rec.layers[0].bq, tuned.layers[0].bq);
        // And the linear layers are near (not equal to) the tuned ones.
        let diff = rec.layers[0].wq.max_abs_diff(&tuned.layers[0].wq);
        assert!(diff > 0.0, "compression should be lossy");
        let drift = rec.layers[0].wq.max_abs_diff(&base.layers[0].wq);
        let delta_mag = tuned.layers[0].wq.max_abs_diff(&base.layers[0].wq);
        assert!(drift <= delta_mag * 1.5 + 1e-4);
    }

    #[test]
    fn reconstruct_matches_returned_params() {
        let (base, tuned) = trained_pair();
        let corpus = Corpus::new(base.config.max_seq);
        let calib = calibration_set(&corpus, 4, 5);
        let (cd, rec) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
        let rebuilt = cd.reconstruct(&base);
        let rect = rec.tensors();
        for (a, b) in rebuilt.tensors().into_iter().zip(rect) {
            assert!(a.max_abs_diff(b) < 1e-5);
        }
    }

    #[test]
    fn ratio_accounting_is_consistent() {
        let (base, tuned) = trained_pair();
        let corpus = Corpus::new(base.config.max_seq);
        let calib = calibration_set(&corpus, 4, 7);
        for bits in [2u32, 4] {
            let (cd, _) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(bits));
            let r = cd.report;
            assert!(r.compressed_linear_bytes > 0);
            assert!(
                r.model_ratio() > 1.0,
                "bits={bits} ratio {}",
                r.model_ratio()
            );
            assert!(r.delta_ratio() > r.model_ratio());
            // 2-bit deltas must pack tighter than 4-bit.
            if bits == 2 {
                let (cd4, _) =
                    delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
                assert!(cd.packed_bytes() < cd4.packed_bytes());
            }
        }
    }

    #[test]
    fn lossless_stage_runs_and_reports() {
        let (base, tuned) = trained_pair();
        let corpus = Corpus::new(base.config.max_seq);
        let calib = calibration_set(&corpus, 4, 9);
        let mut cfg = DeltaCompressConfig::starred(2);
        cfg.lossless = true;
        let (cd, _) = delta_compress(&base, &tuned, &calib, cfg);
        let lb = cd.report.lossless_linear_bytes.expect("lossless ran");
        assert!(lb > 0);
        assert!(cd.report.lossless_delta_ratio().unwrap() > 0.0);
    }

    #[test]
    fn compressed_model_keeps_task_accuracy() {
        // The headline claim at miniature scale: ΔCompress(4bit*) stays
        // close to the FMT model's accuracy.
        let cfg = test_config();
        let mut rng = Rng::seeded(11);
        let mut base = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        pretrain(&mut base, &corpus, TrainConfig::pretrain(80));
        let mut tuned = base.clone();
        finetune_fmt(
            &mut tuned,
            &SentimentTask,
            TrainConfig {
                steps: 150,
                batch: 8,
                lr: 3e-3,
                clip: 1.0,
                seed: 4321,
            },
        );
        let fmt_acc =
            dz_model::eval::task_accuracy(&tuned, &SentimentTask, 200, &mut Rng::seeded(2));
        assert!(fmt_acc > 0.8, "fmt acc {fmt_acc}");
        let calib = calibration_set(&corpus, 8, 13);
        let (_, rec) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
        let rec_acc = dz_model::eval::task_accuracy(&rec, &SentimentTask, 200, &mut Rng::seeded(2));
        assert!(
            rec_acc > fmt_acc - 0.15,
            "compressed acc {rec_acc} vs fmt {fmt_acc}"
        );
    }
}
