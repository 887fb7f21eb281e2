//! Differential oracle: the event-driven `ClusterSim::run` must
//! reproduce the retained lockstep front end
//! (`ClusterSim::run_lockstep_reference`) **bit-identically** on every
//! small-fleet configuration — plain, admission + prefetch, chaos with
//! and without tracing, elastic (autoscaler from spares, rollout,
//! brownout), total outage (park, then shed), engine-level prefetch, and
//! store-bound replicas. Reports are compared float by float and the
//! captured traces as Chrome JSON.
//!
//! The two front ends call the same per-event handlers and share the
//! replay stage; they differ only in their queue merge. So any
//! divergence is an event-ordering bug: the unified `(at, class, seq)`
//! heap must pop chaos-before-arrival at equal times and preserve
//! per-class insertion order exactly like the old two-heap loop did. A
//! bug inside a shared handler moves both runs alike and is invisible
//! here; `determinism_pins.rs::cluster_chaos_run_is_pinned` guards the
//! handlers instead, and the elastic and outage configs carry run-side
//! pins of their own (`elastic_run_is_pinned`,
//! `total_outage_run_is_pinned`).

use dz_compress::codec::{CodecId, PackedLayer};
use dz_compress::pack::CompressedMatrix;
use dz_compress::pipeline::{CompressedDelta, DeltaCompressConfig, SizeReport};
use dz_compress::quant::{quantize_slice, QuantSpec};
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::cluster::{
    AdmissionConfig, ClusterConfig, ClusterPrefetch, ClusterReport, ClusterSim, LeastLoadedRouter,
    PlacementAwareRouter, PlacementPlan, RoundRobinRouter,
};
use dz_serve::{
    chrome_trace_json, Autoscaler, Brownout, ChaosConfig, CostModel, DeltaStoreBinding,
    DeltaZipConfig, FaultEvent, FaultKind, FaultPlan, PrefetchPolicy, Rollout, SloPolicy,
    TraceConfig,
};
use dz_store::{sha256, ArtifactId, Registry, TieredDeltaStore};
use dz_tensor::{Matrix, Rng};
use dz_workload::{PopularityDist, Trace, TraceSpec};
use std::collections::BTreeMap;

#[path = "support/pin.rs"]
mod pin;
use pin::{check, Pin};

const N_MODELS: usize = 16;
const PIN_ELASTIC: u64 = 0x32b8d7bd373d333b;
const PIN_OUTAGE: u64 = 0x6905861e0cb735dc;

fn cost() -> CostModel {
    CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b())
}

fn trace(seed: u64, rate: f64, duration_s: f64) -> Trace {
    Trace::generate(TraceSpec {
        n_models: N_MODELS,
        arrival_rate: rate,
        duration_s,
        popularity: PopularityDist::Zipf { alpha: 1.3 },
        seed,
    })
}

/// Asserts the two reports are the same run, down to the bit on every
/// float. Time sums get an explicit 1e-9 re-check first so a genuine
/// divergence fails with a readable aggregate before the per-record
/// bit compare pinpoints it.
fn assert_same_report(a: &ClusterReport, b: &ClusterReport, tag: &str) {
    let sum = |m: &dz_serve::Metrics| -> f64 { m.records.iter().map(|r| r.e2e_s).sum() };
    assert!(
        (sum(&a.merged) - sum(&b.merged)).abs() <= 1e-9,
        "{tag}: e2e sums diverge: {} vs {}",
        sum(&a.merged),
        sum(&b.merged)
    );
    assert_eq!(a.merged.len(), b.merged.len(), "{tag}: merged len");
    for (ra, rb) in a.merged.records.iter().zip(&b.merged.records) {
        assert_eq!(ra.id, rb.id, "{tag}: record id");
        assert_eq!(ra.model, rb.model, "{tag}: model of {}", ra.id);
        assert_eq!(
            ra.arrival.to_bits(),
            rb.arrival.to_bits(),
            "{tag}: arrival of {}",
            ra.id
        );
        assert_eq!(
            ra.e2e_s.to_bits(),
            rb.e2e_s.to_bits(),
            "{tag}: e2e of {} ({} vs {})",
            ra.id,
            ra.e2e_s,
            rb.e2e_s
        );
        assert_eq!(
            ra.ttft_s.to_bits(),
            rb.ttft_s.to_bits(),
            "{tag}: ttft of {}",
            ra.id
        );
        assert_eq!(
            ra.queue_s.to_bits(),
            rb.queue_s.to_bits(),
            "{tag}: queue of {}",
            ra.id
        );
        assert_eq!(
            ra.load_s.to_bits(),
            rb.load_s.to_bits(),
            "{tag}: load of {}",
            ra.id
        );
        assert_eq!(
            ra.output_tokens, rb.output_tokens,
            "{tag}: tokens of {}",
            ra.id
        );
        assert_eq!(
            ra.preemptions, rb.preemptions,
            "{tag}: preemptions of {}",
            ra.id
        );
    }
    assert_eq!(
        a.per_replica.len(),
        b.per_replica.len(),
        "{tag}: replica count"
    );
    for (i, (ma, mb)) in a.per_replica.iter().zip(&b.per_replica).enumerate() {
        assert_eq!(ma.len(), mb.len(), "{tag}: replica {i} len");
        assert_eq!(
            sum(ma).to_bits(),
            sum(mb).to_bits(),
            "{tag}: replica {i} e2e sum"
        );
    }
    assert_eq!(a.shed.len(), b.shed.len(), "{tag}: shed count");
    for (sa, sb) in a.shed.iter().zip(&b.shed) {
        assert_eq!(
            (sa.id, sa.model, sa.class),
            (sb.id, sb.model, sb.class),
            "{tag}: shed"
        );
        assert_eq!(
            sa.arrival.to_bits(),
            sb.arrival.to_bits(),
            "{tag}: shed arrival of {}",
            sa.id
        );
    }
    assert_eq!(
        a.routing.per_replica_requests, b.routing.per_replica_requests,
        "{tag}: per-replica routing"
    );
    assert_eq!(
        a.routing.warm_routed, b.routing.warm_routed,
        "{tag}: warm routed"
    );
    assert_eq!(
        a.routing.cold_routed, b.routing.cold_routed,
        "{tag}: cold routed"
    );
    assert_eq!(
        a.routing.placement_misses, b.routing.placement_misses,
        "{tag}: placement misses"
    );
    assert_eq!(
        a.routing.defer_events, b.routing.defer_events,
        "{tag}: defers"
    );
    assert_eq!(a.routing.shed, b.routing.shed, "{tag}: routing shed");
    assert_eq!(
        a.routing.prefetch_hints, b.routing.prefetch_hints,
        "{tag}: prefetch hints"
    );
    assert_eq!(
        a.routing.prefetch_issued, b.routing.prefetch_issued,
        "{tag}: prefetch issued"
    );
    assert_eq!(
        a.routing.prefetch_hits, b.routing.prefetch_hits,
        "{tag}: prefetch hits"
    );
    assert_eq!(a.store_stats, b.store_stats, "{tag}: store stats");
    assert_eq!(a.chaos, b.chaos, "{tag}: chaos stats");
}

/// Runs `build()`'s sim through both front ends (fresh sim each — the
/// router keeps state) and asserts identical reports and identical
/// captured traces (empty for untraced sims). Returns the event-driven
/// report so a test can check its scenario really fired.
fn differential(tag: &str, tr: &Trace, build: impl Fn() -> ClusterSim) -> ClusterReport {
    let mut event_sim = build();
    let event_driven = event_sim.run(tr);
    let mut lockstep_sim = build();
    let lockstep = lockstep_sim.run_lockstep_reference(tr);
    assert_same_report(&event_driven, &lockstep, tag);
    assert_eq!(
        chrome_trace_json(&event_sim.take_trace()),
        chrome_trace_json(&lockstep_sim.take_trace()),
        "{tag}: traces diverge"
    );
    event_driven
}

#[test]
fn plain_round_robin_matches_lockstep() {
    let tr = trace(31, 3.0, 40.0);
    differential("rr-2x", &tr, || {
        ClusterSim::new(
            vec![cost(); 2],
            ClusterConfig {
                n_replicas: 2,
                ..ClusterConfig::default()
            },
            Box::new(RoundRobinRouter::new()),
        )
    });
}

#[test]
fn placement_prefetch_admission_matches_lockstep() {
    // The busiest healthy path: placement-aware routing with migrations,
    // routing-time prefetch, and admission control (defer re-pushes ride
    // the same heap as arrivals).
    let tr = trace(37, 6.0, 50.0);
    differential("pa-3x-admission", &tr, || {
        ClusterSim::new(
            vec![cost(); 3],
            ClusterConfig {
                n_replicas: 3,
                engine: DeltaZipConfig {
                    host_capacity_deltas: Some(5),
                    ..DeltaZipConfig::default()
                },
                admission: Some(AdmissionConfig {
                    defer_depth: 4,
                    defer_s: 2.0,
                    max_defers: 3,
                    shed_depth: 12,
                    ..AdmissionConfig::new(SloPolicy::tiered(N_MODELS, 4))
                }),
                prefetch: Some(ClusterPrefetch::default()),
                ..ClusterConfig::default()
            },
            Box::new(PlacementAwareRouter::new(PlacementPlan::from_popularity(
                PopularityDist::Zipf { alpha: 1.3 },
                N_MODELS,
                3,
            ))),
        )
    });
}

fn chaos_config() -> ChaosConfig {
    ChaosConfig::faults(
        FaultPlan::scripted(vec![
            FaultEvent {
                at: 10.0,
                kind: FaultKind::Crash {
                    replica: 0,
                    restart_after_s: Some(8.0),
                },
            },
            FaultEvent {
                at: 25.0,
                kind: FaultKind::Crash {
                    replica: 2,
                    restart_after_s: None,
                },
            },
        ]),
        0xD1FF,
    )
}

#[test]
fn chaos_matches_lockstep() {
    // Crashes requeue in-flight work and schedule restarts: the
    // chaos-before-arrival tie rule and the re-push ordering must match
    // the old two-heap loop exactly.
    let tr = trace(41, 4.0, 60.0);
    differential("chaos-3x", &tr, || {
        ClusterSim::new(
            vec![cost(); 3],
            ClusterConfig {
                n_replicas: 3,
                ..ClusterConfig::default()
            },
            Box::new(RoundRobinRouter::new()),
        )
        .with_chaos(chaos_config())
    });
}

#[test]
fn chaos_with_tracing_matches_lockstep() {
    // Tracing rides the front end (gauges at every arrival) but must not
    // perturb the simulation: traced event-driven == traced lockstep.
    let tr = trace(43, 4.0, 60.0);
    differential("chaos-traced-2x", &tr, || {
        ClusterSim::new(
            vec![cost(); 2],
            ClusterConfig {
                n_replicas: 2,
                ..ClusterConfig::default()
            },
            Box::new(PlacementAwareRouter::new(PlacementPlan::from_popularity(
                PopularityDist::Zipf { alpha: 1.3 },
                N_MODELS,
                2,
            ))),
        )
        .with_chaos(chaos_config())
        .with_tracing(TraceConfig::default())
    });
}

#[test]
fn elastic_rollout_brownout_matches_lockstep() {
    // One live replica and two cold spares under an eager autoscaler
    // (scale-ups and drain-downs), a rolling v1 -> v2 remap drawing on
    // the chaos RNG, and a brownout inflating one replica's load
    // estimates. Traced, so the gauge/scale/rollout lane is compared too.
    let report = differential("elastic-3x", &elastic_trace(), elastic_sim);
    let stats = report.chaos.expect("chaos configured");
    assert!(
        stats.scale_ups > 0 && stats.scale_downs > 0,
        "autoscaler did not cycle: {stats:?}"
    );
    assert!(stats.rollout_remapped > 0, "rollout never remapped");
    assert_eq!(stats.brownouts, 1);
}

fn elastic_trace() -> Trace {
    trace(59, 2.0, 60.0)
}

/// Three replicas (one live, two spares) under [`elastic_chaos_config`],
/// placement-aware with routing-time prefetch, traced.
fn elastic_sim() -> ClusterSim {
    ClusterSim::new(
        vec![cost(); 3],
        ClusterConfig {
            n_replicas: 3,
            prefetch: Some(ClusterPrefetch::default()),
            ..ClusterConfig::default()
        },
        Box::new(PlacementAwareRouter::new(PlacementPlan::from_popularity(
            PopularityDist::Zipf { alpha: 1.3 },
            N_MODELS,
            3,
        ))),
    )
    .with_chaos(elastic_chaos_config())
    .with_tracing(TraceConfig::default())
}

/// `run`'s own result on the elastic config, harvested before the
/// autoscaler tick rule moved into `chaos.rs`: the lockstep reference
/// shares that rule, so only this pin sees a change inside it.
#[test]
fn elastic_run_is_pinned() {
    let mut pin = Pin::new();
    pin.cluster_report(&elastic_sim().run(&elastic_trace()));
    check("elastic", pin.0, PIN_ELASTIC);
}

/// Autoscaler from one live replica (two spares), a rollout of model 0
/// onto model 15, and a brownout on replica 0.
fn elastic_chaos_config() -> ChaosConfig {
    let brownout = Brownout {
        start_s: 20.0,
        end_s: 35.0,
        disk_rate: 0.2,
        pcie_rate: 0.5,
    };
    ChaosConfig {
        plan: FaultPlan::scripted(vec![FaultEvent {
            at: brownout.start_s,
            kind: FaultKind::Degrade {
                replica: 0,
                brownout,
            },
        }]),
        autoscaler: Some(Autoscaler {
            up_backlog_s: 1.0,
            down_backlog_s: 0.2,
            interval_s: 2.0,
            cooldown_s: 4.0,
            ..Autoscaler::new(1, 3)
        }),
        rollouts: vec![Rollout {
            model: 0,
            v2: N_MODELS - 1,
            start_s: 15.0,
            duration_s: 20.0,
        }],
        seed: 0xE1A5,
        initial_replicas: Some(1),
    }
}

#[test]
fn total_outage_parks_then_sheds_like_lockstep() {
    // Every replica crashes. Replica 1 restarts once, so requests that
    // arrive while the fleet is dark park until the restart; its second
    // crash has no restart, so later requests shed for lack of capacity.
    let report = differential("outage-2x", &outage_trace(), outage_sim);
    let stats = report.chaos.expect("chaos configured");
    assert_eq!((stats.crashes, stats.restarts), (3, 1));
    assert_eq!(stats.min_live, 0, "the fleet never went dark");
    assert!(
        stats.shed_no_capacity > 0,
        "nothing shed after the last crash"
    );
    assert!(
        report
            .merged
            .records
            .iter()
            .any(|r| r.arrival > 15.0 && r.arrival < 23.0),
        "no request parked through the outage"
    );
}

fn outage_trace() -> Trace {
    trace(61, 0.5, 80.0)
}

/// Two round-robin replicas that both crash; replica 1 restarts once.
/// Traced.
fn outage_sim() -> ClusterSim {
    ClusterSim::new(
        vec![cost(); 2],
        ClusterConfig {
            n_replicas: 2,
            ..ClusterConfig::default()
        },
        Box::new(RoundRobinRouter::new()),
    )
    .with_chaos(ChaosConfig::faults(
        FaultPlan::scripted(vec![
            FaultEvent {
                at: 10.0,
                kind: FaultKind::Crash {
                    replica: 0,
                    restart_after_s: None,
                },
            },
            FaultEvent {
                at: 15.0,
                kind: FaultKind::Crash {
                    replica: 1,
                    restart_after_s: Some(8.0),
                },
            },
            FaultEvent {
                at: 60.0,
                kind: FaultKind::Crash {
                    replica: 1,
                    restart_after_s: None,
                },
            },
        ]),
        0x0D0A,
    ))
    .with_tracing(TraceConfig::default())
}

/// `run`'s own result on the outage config (see [`elastic_run_is_pinned`]).
#[test]
fn total_outage_run_is_pinned() {
    let mut pin = Pin::new();
    pin.cluster_report(&outage_sim().run(&outage_trace()));
    check("outage", pin.0, PIN_OUTAGE);
}

#[test]
fn engine_prefetch_policy_matches_lockstep() {
    let tr = trace(47, 3.0, 40.0);
    differential("ll-prefetch-2x", &tr, || {
        ClusterSim::new(
            vec![cost(); 2],
            ClusterConfig {
                n_replicas: 2,
                prefetch_policy: Some(PrefetchPolicy::Popularity { top_k: 4 }),
                ..ClusterConfig::default()
            },
            Box::new(LeastLoadedRouter::new()),
        )
    });
}

// -- store-bound ----------------------------------------------------------

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dz-fleet-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn tiny_delta(seed: u64, d: usize) -> CompressedDelta {
    let mut rng = Rng::seeded(seed);
    let spec = QuantSpec::new(4, 8);
    let wt = Matrix::randn(d, d, 0.05, &mut rng);
    let mut levels = Vec::new();
    let mut scales = Vec::new();
    for r in 0..d {
        let (l, s) = quantize_slice(wt.row(r), spec);
        levels.extend(l);
        scales.extend(s);
    }
    let cm = CompressedMatrix::from_dense(d, d, &levels, scales, spec);
    let packed = cm.packed_bytes();
    let mut layers = BTreeMap::new();
    layers.insert("w".to_string(), PackedLayer::Quant(cm));
    CompressedDelta {
        layers,
        rest: BTreeMap::new(),
        codec: CodecId::SparseGptStar,
        config: DeltaCompressConfig::starred(4),
        report: SizeReport {
            compressed_linear_bytes: packed,
            uncompressed_rest_bytes: 0,
            full_fp16_bytes: d * d * 2,
            lossless_linear_bytes: None,
        },
    }
}

fn publish_zoo(registry: &Registry, n: usize) -> Vec<ArtifactId> {
    (0..n)
        .map(|i| {
            registry
                .publish_delta(
                    &format!("variant-{i}"),
                    sha256(b"base"),
                    &tiny_delta(900 + i as u64, 16),
                )
                .expect("publish")
        })
        .collect()
}

#[test]
fn store_bound_matches_lockstep() {
    // Store-bound replicas charge real artifact bytes; the replay stage
    // mutates the stores, so each front end gets its own registry copy.
    let tr = trace(53, 3.0, 30.0);
    let build = |tag: &str| {
        let dir = temp_dir(tag);
        let registry = Registry::open(&dir).expect("registry");
        let artifacts = publish_zoo(&registry, N_MODELS);
        let bindings: Vec<DeltaStoreBinding> = (0..2)
            .map(|_| {
                let store = TieredDeltaStore::new(
                    Registry::open(&dir).expect("registry"),
                    64 << 10, // few-delta budget: evictions + disk misses
                );
                DeltaStoreBinding::new(store, artifacts.clone())
            })
            .collect();
        ClusterSim::new(
            vec![cost(); 2],
            ClusterConfig {
                n_replicas: 2,
                prefetch: Some(ClusterPrefetch::default()),
                ..ClusterConfig::default()
            },
            Box::new(PlacementAwareRouter::new(PlacementPlan::from_popularity(
                PopularityDist::Zipf { alpha: 1.3 },
                N_MODELS,
                2,
            ))),
        )
        .with_stores(bindings)
    };
    let event_driven = build("ed").run(&tr);
    let lockstep = build("ls").run_lockstep_reference(&tr);
    assert_same_report(&event_driven, &lockstep, "store-2x");
}
