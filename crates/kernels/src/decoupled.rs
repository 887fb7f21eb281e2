//! Decoupled base + delta execution (Eq. 2 of the paper), runnable on CPU.
//!
//! `y = w_fine-tuned x = (w_base + Δ) x ≈ w_base x  +  Δ x`
//!
//! The base-model product is shared and batched across *all* requests in
//! flight, regardless of which fine-tuned variant they target; the delta
//! product runs through SBMM over the packed low-precision matrices. The
//! decoupling happens at linear-layer granularity: results merge before
//! every non-linearity, exactly as §5.1 prescribes.
//!
//! [`DecoupledBatch`] is a miniature model runner: it decodes a batch of
//! requests for different variants in lock-step, with per-request KV caches
//! and per-variant uncompressed parameters (biases, norms, embeddings) taken
//! from each variant's delta artifact.

use crate::qgemm::dense_gemm;
use crate::runner::{argmax, attention_one, gelu_assign, layer_norm_row, Slot};
use crate::sbmm::add_group_product;
use dz_compress::pipeline::CompressedDelta;
use dz_model::transformer::Params;
use dz_tensor::Matrix;

/// A batched, decoupled decoder over one base model and many variants.
pub struct DecoupledBatch<'a> {
    base: &'a Params,
    variants: Vec<&'a CompressedDelta>,
    /// Dense delta copies for the variants (and only the variants) that
    /// use a non-quantized method-zoo codec (BitDelta / Delta-CoMe):
    /// those formats have no SBMM kernel, so their layers are dequantized
    /// once here and applied as dense per-request products. Quantized
    /// variants keep the packed SBMM path, also in mixed batches.
    dense_layers: Vec<Option<std::collections::BTreeMap<String, Matrix>>>,
    slots: Vec<Slot>,
}

impl<'a> DecoupledBatch<'a> {
    /// Creates a runner over `base` and the given variant deltas.
    pub fn new(base: &'a Params, variants: Vec<&'a CompressedDelta>) -> Self {
        let dense_layers = variants
            .iter()
            .map(|v| {
                let all_quant = v.layers.values().all(|l| l.as_quant().is_some());
                (!all_quant).then(|| {
                    v.layers
                        .iter()
                        .map(|(name, l)| (name.clone(), l.dequantize()))
                        .collect()
                })
            })
            .collect();
        DecoupledBatch {
            base,
            variants,
            dense_layers,
            slots: Vec::new(),
        }
    }

    /// Admits a request for `variant` and prefills its prompt in one
    /// multi-row pass; returns the slot index.
    ///
    /// Every prompt token but the last runs through a single batched step
    /// as consecutive rows of the new slot (its logits appear at the first
    /// decode step). Each row attends to the rows before it, so the pass is
    /// causal, and since every kernel computes each row on its own the
    /// result is bit-identical to feeding the prompt one token at a time.
    ///
    /// # Panics
    ///
    /// Panics if the variant index is out of range, the prompt is empty or
    /// longer than the model's context.
    pub fn admit(&mut self, variant: usize, prompt: &[usize]) -> usize {
        assert!(variant < self.variants.len(), "variant out of range");
        assert!(!prompt.is_empty(), "empty prompt");
        let (&last, prefix) = prompt.split_last().expect("non-empty");
        self.slots
            .push(Slot::new(variant, self.base.config.n_layers, last));
        let idx = self.slots.len() - 1;
        if !prefix.is_empty() {
            let work: Vec<(usize, usize)> = prefix.iter().map(|&tok| (idx, tok)).collect();
            let _ = self.step_tokens(&work);
        }
        idx
    }

    /// Per-variant parameter lookup: uncompressed params come from the
    /// variant's `rest`, falling back to base for anything absent.
    fn rest_param(&self, variant: usize, name: &str) -> &Matrix {
        self.variants[variant]
            .rest
            .get(name)
            .unwrap_or_else(|| self.base.get(name).expect("param exists"))
    }

    /// Decodes one token for every active slot; returns `(slot, next)` pairs
    /// chosen greedily from the batched logits.
    pub fn decode_step(&mut self) -> Vec<(usize, usize)> {
        let work: Vec<(usize, usize)> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.last_token))
            .collect();
        let logits = self.step_tokens(&work);
        let mut out = Vec::with_capacity(work.len());
        for ((slot, _), row) in work.iter().zip(logits.iter()) {
            let next = argmax(row);
            self.slots[*slot].last_token = next;
            self.slots[*slot].generated.push(next);
            out.push((*slot, next));
        }
        out
    }

    /// Tokens generated so far by a slot.
    pub fn generated(&self, slot: usize) -> &[usize] {
        &self.slots[slot].generated
    }

    /// One decoupled projection over the batch: the shared base GEMM plus,
    /// for each variant, its delta product on the rows (`rows_of[v]`) that
    /// target it.
    ///
    /// A quantized variant's rows are gathered into one fused
    /// [`quant_gemm`](crate::qgemm::quant_gemm) call, as
    /// [`sbmm_grouped`](crate::sbmm::sbmm_grouped) does; a non-quant variant
    /// multiplies its rows against the dense copy made at construction.
    /// Every row's delta product is independent of the other rows, so a
    /// request's output does not depend on what shares its batch.
    fn linear(&self, x: &Matrix, w_base: &Matrix, rows_of: &[Vec<usize>], name: &str) -> Matrix {
        let mut y = dense_gemm(x, w_base);
        for (v, rows) in rows_of.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            match &self.dense_layers[v] {
                Some(dense) => {
                    let d = dense.get(name).expect("delta layer exists");
                    for &bi in rows {
                        let yr = y.row_mut(bi);
                        for (k, &xv) in x.row(bi).iter().enumerate() {
                            if xv == 0.0 {
                                continue;
                            }
                            for (yv, &dv) in yr.iter_mut().zip(d.row(k)) {
                                *yv += xv * dv;
                            }
                        }
                    }
                }
                None => {
                    let cm = self.variants[v]
                        .layers
                        .get(name)
                        .expect("delta layer exists")
                        .as_quant()
                        .expect("variant without dense copy is quant");
                    add_group_product(x, rows, cm, &mut y);
                }
            }
        }
        y
    }

    /// Adds each row's variant bias `name` (a `(1, n)` parameter) to `m`.
    fn add_bias(&self, work: &[(usize, usize)], m: &mut Matrix, name: &str) {
        for (bi, &(slot, _)) in work.iter().enumerate() {
            let bias = self.rest_param(self.slots[slot].variant, name);
            for (val, &b) in m.row_mut(bi).iter_mut().zip(bias.row(0)) {
                *val += b;
            }
        }
    }

    /// Row-wise LayerNorm of `x` with each row's variant gain and bias.
    fn layer_norm(&self, work: &[(usize, usize)], x: &Matrix, gain: &str, bias: &str) -> Matrix {
        let mut h = Matrix::zeros(x.rows(), x.cols());
        for (bi, &(slot, _)) in work.iter().enumerate() {
            let variant = self.slots[slot].variant;
            let (g, b) = (
                self.rest_param(variant, gain),
                self.rest_param(variant, bias),
            );
            layer_norm_row(x.row(bi), g, b, h.row_mut(bi));
        }
        h
    }

    /// Core batched step: advances each `(slot, token)` by one position.
    ///
    /// A slot may appear in several rows (prefill): its rows take
    /// consecutive positions in order, and each attends to the rows before
    /// it. All six linear projections run decoupled (shared base GEMM plus
    /// per-variant delta products); attention and normalization run per
    /// row against its slot's cache and variant parameters.
    fn step_tokens(&mut self, work: &[(usize, usize)]) -> Vec<Vec<f32>> {
        let cfg = self.base.config;
        let d = cfg.d_model;
        let b = work.len();
        let mut rows_of: Vec<Vec<usize>> = vec![Vec::new(); self.variants.len()];
        for (bi, &(slot, _)) in work.iter().enumerate() {
            rows_of[self.slots[slot].variant].push(bi);
        }

        // Embedding lookup per request (token + absolute position).
        let mut x = Matrix::zeros(b, d);
        let mut earlier_rows = vec![0usize; self.slots.len()];
        for (bi, &(slot, token)) in work.iter().enumerate() {
            let pos = self.slots[slot].cache.len() + earlier_rows[slot];
            earlier_rows[slot] += 1;
            assert!(pos < cfg.max_seq, "sequence overflow");
            let variant = self.slots[slot].variant;
            let tok_emb = self.rest_param(variant, "tok_emb");
            let pos_emb = self.rest_param(variant, "pos_emb");
            let row = x.row_mut(bi);
            for (c, v) in row.iter_mut().enumerate() {
                *v = tok_emb.get(token, c) + pos_emb.get(pos, c);
            }
        }

        for li in 0..cfg.n_layers {
            let [ln1_g, ln1_b, wq, wk, wv, bq, bk, bv, wo, bo, ln2_g, ln2_b, w1, b1, w2, b2] = [
                "ln1_g", "ln1_b", "wq", "wk", "wv", "bq", "bk", "bv", "wo", "bo", "ln2_g", "ln2_b",
                "w1", "b1", "w2", "b2",
            ]
            .map(|field| format!("layer{li}.{field}"));
            let base_l = &self.base.layers[li];
            // Attention block: pre-norm, decoupled projections + biases.
            let h = self.layer_norm(work, &x, &ln1_g, &ln1_b);
            let mut q = self.linear(&h, &base_l.wq, &rows_of, &wq);
            let mut k = self.linear(&h, &base_l.wk, &rows_of, &wk);
            let mut v = self.linear(&h, &base_l.wv, &rows_of, &wv);
            self.add_bias(work, &mut q, &bq);
            self.add_bias(work, &mut k, &bk);
            self.add_bias(work, &mut v, &bv);
            // Attention per row against its slot's cache, in row order.
            let mut attn = Matrix::zeros(b, d);
            for (bi, &(slot, _)) in work.iter().enumerate() {
                let cache = &mut self.slots[slot].cache;
                attention_one(&q, &k, &v, bi, cache, li, cfg.n_heads, &mut attn);
            }
            let mut proj = self.linear(&attn, &base_l.wo, &rows_of, &wo);
            self.add_bias(work, &mut proj, &bo);
            x.add_assign(&proj);
            // MLP block.
            let h2 = self.layer_norm(work, &x, &ln2_g, &ln2_b);
            let mut up = self.linear(&h2, &base_l.w1, &rows_of, &w1);
            self.add_bias(work, &mut up, &b1);
            gelu_assign(&mut up);
            let mut down = self.linear(&up, &base_l.w2, &rows_of, &w2);
            self.add_bias(work, &mut down, &b2);
            x.add_assign(&down);
        }
        // Final norm + per-variant head.
        let xf = self.layer_norm(work, &x, "lnf_g", "lnf_b");
        let mut out = Vec::with_capacity(b);
        for (bi, &(slot, _)) in work.iter().enumerate() {
            let head = self.rest_param(self.slots[slot].variant, "head");
            let mut logits = vec![0.0f32; cfg.vocab];
            for (c, l) in logits.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (r, xv) in xf.row(bi).iter().enumerate() {
                    acc += xv * head.get(r, c);
                }
                *l = acc;
            }
            out.push(logits);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_compress::calib::calibration_set;
    use dz_compress::pipeline::{delta_compress, DeltaCompressConfig};
    use dz_model::tasks::{Corpus, SentimentTask};
    use dz_model::train::{finetune_fmt, pretrain, TrainConfig};
    use dz_model::transformer::test_config;
    use dz_tensor::Rng;

    fn setup() -> (Params, CompressedDelta, Params) {
        let cfg = test_config();
        let mut rng = Rng::seeded(1);
        let mut base = Params::init(cfg, &mut rng);
        let corpus = Corpus::new(cfg.max_seq);
        pretrain(&mut base, &corpus, TrainConfig::pretrain(50));
        let mut tuned = base.clone();
        finetune_fmt(&mut tuned, &SentimentTask, TrainConfig::finetune(40));
        let calib = calibration_set(&corpus, 4, 3);
        let (cd, rec) = delta_compress(&base, &tuned, &calib, DeltaCompressConfig::starred(4));
        (base, cd, rec)
    }

    #[test]
    fn decoupled_linear_matches_fused_weights() {
        let (base, cd, _) = setup();
        let name = "layer0.wq";
        let w_base = base.get(name).unwrap();
        let delta = cd.layers.get(name).unwrap().as_quant().unwrap();
        let fused = w_base.add(&delta.dequantize());
        let mut rng = Rng::seeded(2);
        let x = Matrix::randn(5, w_base.rows(), 1.0, &mut rng);
        let batch = DecoupledBatch::new(&base, vec![&cd]);
        let decoupled = batch.linear(&x, w_base, &[(0..5).collect()], name);
        let reference = x.matmul(&fused);
        assert!(
            decoupled.max_abs_diff(&reference) < 1e-3,
            "diff {}",
            decoupled.max_abs_diff(&reference)
        );
    }

    #[test]
    fn batched_decode_matches_reconstructed_model() {
        let (base, cd, rec) = setup();
        let prompt = vec![1usize, 20, 21, 22, 2];
        // Reference: greedy generation on the reconstructed dense model.
        let want = dz_model::eval::greedy_generate(&rec, &prompt, 4);
        // Decoupled path.
        let mut batch = DecoupledBatch::new(&base, vec![&cd]);
        let slot = batch.admit(0, &prompt);
        for _ in 0..4 {
            batch.decode_step();
        }
        assert_eq!(batch.generated(slot), &want[..]);
    }

    #[test]
    fn multi_variant_batch_keeps_requests_separate() {
        let (base, cd, rec) = setup();
        // Second variant: a differently fine-tuned model.
        let cfg = base.config;
        let corpus = Corpus::new(cfg.max_seq);
        let mut tuned2 = base.clone();
        finetune_fmt(
            &mut tuned2,
            &dz_model::tasks::NliTask,
            TrainConfig::finetune(40),
        );
        let calib = calibration_set(&corpus, 4, 9);
        let (cd2, rec2) = delta_compress(&base, &tuned2, &calib, DeltaCompressConfig::starred(4));

        let p1 = vec![1usize, 20, 21, 2];
        let p2 = vec![1usize, 25, 2, 30, 4];
        let w1 = dz_model::eval::greedy_generate(&rec, &p1, 3);
        let w2 = dz_model::eval::greedy_generate(&rec2, &p2, 3);

        let mut batch = DecoupledBatch::new(&base, vec![&cd, &cd2]);
        let s1 = batch.admit(0, &p1);
        let s2 = batch.admit(1, &p2);
        for _ in 0..3 {
            batch.decode_step();
        }
        assert_eq!(batch.generated(s1), &w1[..], "variant 0 output diverged");
        assert_eq!(batch.generated(s2), &w2[..], "variant 1 output diverged");
    }

    /// Token-by-token prefill: one single-row step per prompt token.
    fn admit_token_by_token(batch: &mut DecoupledBatch, variant: usize, prompt: &[usize]) -> usize {
        let (&last, prefix) = prompt.split_last().unwrap();
        let n_layers = batch.base.config.n_layers;
        batch.slots.push(Slot::new(variant, n_layers, last));
        let idx = batch.slots.len() - 1;
        for &tok in prefix {
            batch.step_tokens(&[(idx, tok)]);
        }
        idx
    }

    #[test]
    fn one_pass_prefill_matches_token_by_token_prefill() {
        let (base, cd, _) = setup();
        let corpus = Corpus::new(base.config.max_seq);
        let mut tuned2 = base.clone();
        finetune_fmt(
            &mut tuned2,
            &dz_model::tasks::NliTask,
            TrainConfig::finetune(40),
        );
        let calib = calibration_set(&corpus, 4, 9);
        let (cd2, _) = delta_compress(&base, &tuned2, &calib, DeltaCompressConfig::starred(4));
        let prompts = [vec![1usize], vec![1, 20], vec![1, 25, 2, 30, 4]];
        let requests: Vec<(usize, &[usize])> = (0..2)
            .flat_map(|v| prompts.iter().map(move |p| (v, &p[..])))
            .collect();
        let fill = |one_pass: bool| {
            let mut batch = DecoupledBatch::new(&base, vec![&cd, &cd2]);
            for &(v, p) in &requests {
                if one_pass {
                    batch.admit(v, p);
                } else {
                    admit_token_by_token(&mut batch, v, p);
                }
            }
            batch
        };
        // Next-step logits, bit for bit.
        let (mut one, mut each) = (fill(true), fill(false));
        let work: Vec<(usize, usize)> = requests
            .iter()
            .enumerate()
            .map(|(slot, (_, p))| (slot, *p.last().unwrap()))
            .collect();
        let bits = |logits: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
            logits
                .iter()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(one.step_tokens(&work)), bits(each.step_tokens(&work)));
        // Generated tokens.
        let (mut one, mut each) = (fill(true), fill(false));
        for _ in 0..4 {
            assert_eq!(one.decode_step(), each.decode_step());
        }
        for slot in 0..requests.len() {
            assert_eq!(one.generated(slot), each.generated(slot));
        }
    }

    #[test]
    fn non_quant_codec_variants_serve_through_dense_fallback() {
        use dz_compress::codec::{BitDeltaCodec, DeltaCodec};

        let (base, cd_quant, _) = setup();
        let cfg = base.config;
        let corpus = Corpus::new(cfg.max_seq);
        let mut tuned2 = base.clone();
        finetune_fmt(
            &mut tuned2,
            &dz_model::tasks::NliTask,
            TrainConfig::finetune(40),
        );
        let calib = calibration_set(&corpus, 4, 9);
        // A BitDelta (sign/scale) variant has no SBMM kernel: the batch
        // must fall back to dense delta products and still match the
        // reconstructed model exactly — even mixed with a quantized one.
        let (cd_sign, rec_sign) = BitDeltaCodec::per_row().compress(&base, &tuned2, &calib);
        let p1 = vec![1usize, 20, 21, 2];
        let p2 = vec![1usize, 25, 2, 30, 4];
        let want_quant = {
            let mut solo = DecoupledBatch::new(&base, vec![&cd_quant]);
            let s = solo.admit(0, &p1);
            for _ in 0..3 {
                solo.decode_step();
            }
            solo.generated(s).to_vec()
        };
        let want_sign = dz_model::eval::greedy_generate(&rec_sign, &p2, 3);

        let mut batch = DecoupledBatch::new(&base, vec![&cd_quant, &cd_sign]);
        let s1 = batch.admit(0, &p1);
        let s2 = batch.admit(1, &p2);
        for _ in 0..3 {
            batch.decode_step();
        }
        assert_eq!(batch.generated(s1), &want_quant[..]);
        assert_eq!(batch.generated(s2), &want_sign[..]);
    }
}
