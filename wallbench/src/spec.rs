//! The benchmark's workloads, service-level limits and metric map.

use dz_model::ModelConfig;
use dz_workload::PopularityDist;

/// The codec a variant of the zoo is compressed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// SparseGPT★ (OBS, 2:4 sparse) at the given bit width.
    SparseGpt(u32),
    /// BitDelta, one sign matrix plus one scale per output row.
    BitDelta,
}

#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop: Poisson arrivals at a fixed rate (requests/s).
    Open { rate: f64 },
    /// Closed loop: each client sends its next request when the previous
    /// one finishes.
    Closed { clients: usize },
}

/// Simulator replays that ride along with a workload (see `sims`).
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub cluster_replicas: usize,
    pub cluster_requests: usize,
    pub fleet_replicas: usize,
    pub fleet_requests: usize,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub model: ModelConfig,
    /// One entry per variant of the zoo.
    pub codecs: Vec<Codec>,
    pub popularity: PopularityDist,
    pub load: Load,
    pub prompt_len: usize,
    pub output_len: usize,
    /// Distinct prompts per workload; each request draws one.
    pub prompt_pool: usize,
    /// Static-batch caps: rows, and distinct deltas per batch.
    pub row_cap: usize,
    pub delta_cap: usize,
    /// Host cache budget as a share of the zoo's compressed + decoded bytes.
    pub host_budget_frac: f64,
    /// Service-level limits on time to first token and on a request's mean
    /// gap between output tokens: twice seed 1's TTFT p95 and TPOT p99,
    /// rounded.
    pub slo_ttft_ms: f64,
    pub slo_tpot_ms: f64,
    /// Typical host-speed probe time on a 2-vCPU 2.1 GHz VM: the reference
    /// speed CPU times are scaled to.
    pub ref_probe_ms: f64,
    pub sims: SimSpec,
}

impl Workload {
    /// Rows per decode step the host-speed probe imitates: the closed
    /// loop's batch, or one for the open loop's mostly single-row batches.
    pub fn probe_rows(&self) -> usize {
        match self.load {
            Load::Closed { clients } => clients.min(self.row_cap),
            Load::Open { .. } => 1,
        }
    }

    /// Linear-layer weights of the served model, in f32 values.
    pub fn linear_weights(&self) -> usize {
        let m = &self.model;
        m.n_layers * (4 * m.d_model * m.d_model + 2 * m.d_model * m.d_ff)
    }
}

pub const WORKLOADS: &[&str] = &["cold-zoo", "hot-batch"];

pub fn workload(name: &str) -> Option<Workload> {
    let sims = SimSpec {
        cluster_replicas: 8,
        cluster_requests: 6_000,
        fleet_replicas: 1000,
        fleet_requests: 200_000,
    };
    match name {
        // Most requests miss the host cache: TTFT is the store's read and
        // decode plus the dense fallback for BitDelta variants. The
        // embedding-heavy vocabulary (the Gemma-analog presets') makes the
        // artifacts, not the one-row decode steps, the first-token cost;
        // 150 requests/s keeps the server busy about half the time.
        "cold-zoo" => Some(Workload {
            name: "cold-zoo",
            model: ModelConfig {
                vocab: dz_model::zoo::VOCAB_LARGE,
                d_model: 64,
                n_layers: 4,
                n_heads: 4,
                d_ff: 128,
                max_seq: 16,
            },
            codecs: (0..32)
                .map(|i| match i % 3 {
                    0 => Codec::SparseGpt(4),
                    1 => Codec::SparseGpt(2),
                    _ => Codec::BitDelta,
                })
                .collect(),
            popularity: PopularityDist::Zipf { alpha: 0.6 },
            load: Load::Open { rate: 100.0 },
            prompt_len: 2,
            output_len: 2,
            prompt_pool: 8,
            row_cap: 8,
            delta_cap: 4,
            host_budget_frac: 0.25,
            slo_ttft_ms: 30.0,
            slo_tpot_ms: 7.0,
            ref_probe_ms: 0.7,
            sims,
        }),
        // Every delta stays decoded-resident: the shared base GEMM plus
        // grouped SBMM over 16 rows and 4 deltas does the work.
        "hot-batch" => Some(Workload {
            name: "hot-batch",
            model: ModelConfig {
                vocab: dz_model::zoo::VOCAB_STD,
                d_model: 128,
                n_layers: 4,
                n_heads: 4,
                d_ff: 256,
                max_seq: 40,
            },
            codecs: vec![Codec::SparseGpt(4); 4],
            popularity: PopularityDist::Uniform,
            load: Load::Closed { clients: 16 },
            prompt_len: 4,
            output_len: 32,
            prompt_pool: 8,
            row_cap: 16,
            delta_cap: 4,
            host_budget_frac: 4.0,
            slo_ttft_ms: 400.0,
            slo_tpot_ms: 45.0,
            ref_probe_ms: 1.2,
            sims,
        }),
        _ => None,
    }
}

/// Which end-to-end metric each layer metric should move, and on which
/// workload: the prediction a layer change is judged against.
pub const LAYER_MAP: &[(&str, &str, &str)] = &[
    (
        "store.fetch.*",
        "ttft_p50_ms, ttft_p95_ms",
        "cold-zoo; no change on hot-batch",
    ),
    (
        "kernels.batch_new.*",
        "ttft_p95_ms",
        "cold-zoo; ~0 on hot-batch",
    ),
    ("kernels.prefill.*", "ttft_p50_ms", "both"),
    (
        "kernels.decode.*",
        "tokens_per_s, tpot_p50_ms, tpot_p95_ms",
        "hot-batch; smaller on cold-zoo",
    ),
    (
        "driver.*",
        "ttft_p95_ms (rises first under load)",
        "cold-zoo",
    ),
    (
        "compress.*, store.publish.*, workload.trace.*",
        "setup_s",
        "both",
    ),
    (
        "serve.cluster.*, serve.fleet.*",
        "cluster_sim_req_per_s, fleet_sim_req_per_s",
        "both",
    ),
    (
        "host.copy_gbps, tensor.gemm_gflops",
        "roofs for kernels.decode.roof_frac, store.fetch.gbps",
        "both",
    ),
];
