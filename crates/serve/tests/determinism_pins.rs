//! Golden determinism pins across the HashMap -> BTreeMap container
//! swap (PR 10): each scenario below ran on the pre-swap tree and its
//! per-request floats were folded (via `to_bits`) into one FNV-1a
//! checksum. The constants pin that the deterministic-container
//! conversion in `fleet.rs` / `cluster.rs` / `deltazip.rs` /
//! `predictor.rs` / `tiered.rs` changed **no** simulation result, and
//! that future refactors keep every run replayable bit-for-bit.
//! `cluster_chaos_run_is_pinned` was harvested the same way, before the
//! cluster front end's event handlers became shared by `ClusterSim::run`
//! and its lockstep oracle. `engine_attachments_run_is_pinned` was
//! harvested from the engine's former `with_*` setter chain, before
//! `EngineBuilder` became the only way to attach anything to an engine.
//! `fleet_chaos_run_is_pinned` was harvested before `FleetSim` moved onto
//! `chaos::FaultPlan` and the shared autoscaler tick, from a tree whose
//! only change was the fleet's drain victim (highest id → emptiest, the
//! cluster's rule); the unchanged tree gives a different value.
//! `lora_baseline_run_is_pinned` was harvested from the former
//! stand-alone adapter-serving engine, before the LoRA baseline became an
//! all-LoRA `VariantCatalog` on the DeltaZip engine.
//!
//! If a PR changes one of these values *on purpose* (a scheduling or
//! cost-model change), re-pin deliberately: run with
//! `DZ_PRINT_PINS=1 cargo test -p dz-serve --test determinism_pins -- --nocapture`
//! and paste the printed hashes.

use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_serve::cluster::{
    AdmissionConfig, ClusterConfig, ClusterPrefetch, ClusterSim, PlacementAwareRouter,
    PlacementPlan,
};
use dz_serve::fleet::{FleetConfig, FleetRouter, FleetSim};
use dz_serve::tuning::{DynamicN, DynamicNConfig};
use dz_serve::{
    Autoscaler, Brownout, ChaosConfig, CostModel, DeltaZipConfig, Engine, EngineBuilder,
    FaultEvent, FaultKind, FaultPlan, LengthEstimator, PreemptionPolicy, QueueLookahead, Rollout,
    SloPolicy, TraceConfig, VariantCatalog,
};
use dz_workload::{PopularityDist, Trace, TraceSpec};

#[path = "support/pin.rs"]
mod pin;
use pin::{check, Pin};

const N_MODELS: usize = 16;

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

const PIN_FLEET: u64 = 0x12c99df2cbd0593c;
const PIN_TOPPINGS: u64 = 0x01e21a5090efc51a;
const PIN_CLUSTER: u64 = 0xafbf0b924db84839;
const PIN_CLUSTER_CHAOS: u64 = 0x4a3ae34f6c2b238e;
const PIN_ENGINE_ATTACHMENTS: u64 = 0x8f93cdc7a6db77f4;
const PIN_FLEET_CHAOS: u64 = 0x70fe7e75ba04ee20;
const PIN_LORA_BASELINE: u64 = 0xe2a79f532320b1a9;

/// Fleet-scale event core: p2c routing over 24 replicas exercises the
/// per-replica warm-set LRU (`FleetReplica::warm`) on every request.
#[test]
fn fleet_run_is_pinned() {
    let tr = trace(7, 40.0, 60.0);
    let weights = PopularityDist::Zipf { alpha: 1.3 }.weights(N_MODELS);
    let plan = PlacementPlan::from_weights(&weights, 24);
    let mut cfg = FleetConfig::new(24);
    cfg.warm_capacity = 3; // small cap => constant LRU eviction churn
    let report = FleetSim::new(cfg, plan, FleetRouter::PowerOfTwo { seed: 99 }).run(&tr);
    let mut pin = Pin::new();
    pin.word(report.served as u64);
    pin.word(report.warm_hits);
    pin.word(report.fetches.local_disk);
    pin.word(report.fetches.object_store);
    pin.f64(report.mean_e2e_s);
    pin.f64(report.p99_e2e_s);
    pin.f64(report.makespan_s);
    check("fleet", pin.0, PIN_FLEET);
}

/// Fleet under chaos: two crash/restart faults, a kill aimed at a
/// replica that is already down (a no-op), and an eager autoscaler that
/// drains the idle fleet to its floor, then re-activates replicas for
/// the burst. Folds the whole event log, so any change to the shared
/// autoscaler tick or the fault handlers shows.
#[test]
fn fleet_chaos_run_is_pinned() {
    let n = 8;
    let mut tr = trace(23, 60.0, 40.0);
    // Ten idle seconds first: the autoscaler drains toward its floor.
    for r in &mut tr.requests {
        r.arrival += 10.0;
    }
    let weights = PopularityDist::Zipf { alpha: 1.3 }.weights(N_MODELS);
    let crash = |at, replica, down_s| FaultEvent {
        at,
        kind: FaultKind::Crash {
            replica,
            restart_after_s: Some(down_s),
        },
    };
    let mut cfg = FleetConfig::new(n);
    cfg.faults = FaultPlan::scripted(vec![
        crash(12.0, 7, 6.0),
        crash(14.0, 7, 3.0),
        crash(30.0, 6, 5.0),
    ]);
    cfg.autoscale = Some(Autoscaler {
        up_backlog_s: 0.5,
        down_backlog_s: 0.01,
        interval_s: 1.0,
        cooldown_s: 0.0,
        ..Autoscaler::new(4, n)
    });
    cfg.record_events = true;
    cfg.trace = Some(TraceConfig::default());
    let plan = PlacementPlan::from_weights(&weights, n);
    let report = FleetSim::new(cfg, plan, FleetRouter::PowerOfTwo { seed: 29 }).run(&tr);
    let live: Vec<usize> = report.tracks[0]
        .log
        .gauges()
        .map(|g| g.live_replicas)
        .collect();
    let trough = live.iter().position(|&l| l == 4).expect("idle drain");
    assert!(live[trough..].iter().any(|&l| l > 4), "no re-activation");
    let log = report.event_log.as_deref().expect("recording enabled");
    let mut pin = Pin::new();
    for w in [report.served, report.shed, report.peak_live, report.events] {
        pin.word(w as u64);
    }
    let f = &report.fetches;
    for w in [
        report.warm_hits,
        f.local_disk,
        f.peer_rack,
        f.peer_region,
        f.cross_region,
        f.object_store,
    ] {
        pin.word(w);
    }
    pin.f64(report.mean_e2e_s);
    pin.f64(report.p99_e2e_s);
    pin.f64(report.makespan_s);
    for e in log {
        pin.f64(e.at);
        pin.word(e.class as u64);
        pin.word(e.key);
    }
    check("fleet_chaos", pin.0, PIN_FLEET_CHAOS);
}

/// Toppings engine: interleaved base/LoRA/delta/stacked catalog with a
/// tight host cap exercises `evict_gpu_lru` / `enforce_host_cap` (the
/// LRU scans that used to iterate HashMaps).
#[test]
fn toppings_run_is_pinned() {
    let tr = trace(11, 1.2, 90.0);
    let cfg = DeltaZipConfig {
        max_concurrent_deltas: 3,
        host_capacity_deltas: Some(4),
        max_toppings_per_batch: Some(5),
        ..DeltaZipConfig::default()
    };
    let m = EngineBuilder::new(cost())
        .scheduler(cfg)
        .catalog(VariantCatalog::interleaved(N_MODELS, 16))
        .build()
        .run(&tr);
    let mut pin = Pin::new();
    pin.metrics(&m);
    check("toppings", pin.0, PIN_TOPPINGS);
}

/// Cluster front end: placement-aware routing exercises the predicted
/// warm-set LRU (`ReplicaFrontendState::warm`) on every decision.
#[test]
fn cluster_run_is_pinned() {
    let tr = trace(13, 2.0, 80.0);
    let weights = PopularityDist::Zipf { alpha: 1.3 }.weights(N_MODELS);
    let plan = PlacementPlan::from_weights(&weights, 4);
    let costs = vec![cost(); 4];
    let router = PlacementAwareRouter::new(plan);
    let config = ClusterConfig {
        n_replicas: 4,
        ..ClusterConfig::default()
    };
    let report = ClusterSim::new(costs, config, Box::new(router)).run(&tr);
    let mut pin = Pin::new();
    pin.metrics(&report.merged);
    pin.word(report.routing.per_replica_requests.iter().sum::<usize>() as u64);
    check("cluster", pin.0, PIN_CLUSTER);
}

/// Cluster front end under chaos: crash + restart, a brownout, an
/// autoscaler cycling two spares, a rolling remap, admission control and
/// routing-time prefetch. `run` and its lockstep oracle share these
/// handlers, so the differential suite cannot see a change to them; this
/// pin can.
#[test]
fn cluster_chaos_run_is_pinned() {
    let tr = trace(17, 2.5, 70.0);
    let brownout = Brownout {
        start_s: 30.0,
        end_s: 45.0,
        disk_rate: 0.25,
        pcie_rate: 0.5,
    };
    let chaos = ChaosConfig {
        plan: FaultPlan::scripted(vec![
            FaultEvent {
                at: 12.0,
                kind: FaultKind::Crash {
                    replica: 0,
                    restart_after_s: Some(6.0),
                },
            },
            FaultEvent {
                at: brownout.start_s,
                kind: FaultKind::Degrade {
                    replica: 1,
                    brownout,
                },
            },
        ]),
        autoscaler: Some(Autoscaler {
            up_backlog_s: 1.0,
            down_backlog_s: 0.2,
            interval_s: 2.0,
            cooldown_s: 4.0,
            ..Autoscaler::new(2, 4)
        }),
        rollouts: vec![Rollout {
            model: 0,
            v2: N_MODELS - 1,
            start_s: 20.0,
            duration_s: 25.0,
        }],
        seed: 0xC4A05,
        initial_replicas: Some(2),
    };
    let weights = PopularityDist::Zipf { alpha: 1.3 }.weights(N_MODELS);
    let config = ClusterConfig {
        n_replicas: 4,
        engine: DeltaZipConfig {
            host_capacity_deltas: Some(5),
            ..DeltaZipConfig::default()
        },
        admission: Some(AdmissionConfig {
            defer_depth: 2,
            defer_s: 2.0,
            max_defers: 2,
            shed_depth: 3,
            ..AdmissionConfig::new(SloPolicy::tiered(N_MODELS, 4))
        }),
        prefetch: Some(ClusterPrefetch::default()),
        ..ClusterConfig::default()
    };
    let router = PlacementAwareRouter::new(PlacementPlan::from_weights(&weights, 4));
    let report = ClusterSim::new(vec![cost(); 4], config, Box::new(router))
        .with_chaos(chaos)
        .run(&tr);
    let stats = report.chaos.clone().expect("chaos configured");
    assert!(stats.crashes == 1 && stats.restarts == 1 && stats.brownouts == 1);
    assert!(stats.scale_ups > 0 && stats.rollout_remapped > 0);
    assert!(report.routing.prefetch_issued > 0 && report.routing.defer_events > 0);
    let mut pin = Pin::new();
    pin.cluster_report(&report);
    check("cluster_chaos", pin.0, PIN_CLUSTER_CHAOS);
}

/// One engine carrying every attachment at once: interleaved catalog,
/// lookahead prefetcher, SLO priority scan, a quantile length estimator
/// behind length-aware preemption, online `N`, a brownout window and
/// tracing. A tight host cap over many models keeps deltas swapping.
#[test]
fn engine_attachments_run_is_pinned() {
    let tr = trace(19, 2.0, 80.0);
    let cfg = DeltaZipConfig {
        max_concurrent_deltas: 3,
        host_capacity_deltas: Some(3),
        max_toppings_per_batch: Some(4),
        preemption: PreemptionPolicy::LengthAware { spare_tokens: 16 },
        ..DeltaZipConfig::default()
    };
    let brownout = Brownout {
        start_s: 20.0,
        end_s: 40.0,
        disk_rate: 0.25,
        pcie_rate: 0.5,
    };
    let mut engine = EngineBuilder::new(cost())
        .scheduler(cfg)
        .catalog(VariantCatalog::interleaved(N_MODELS, 16))
        .prefetcher(Box::new(QueueLookahead::new(4)))
        .slo(SloPolicy::tiered(N_MODELS, 4))
        .estimator(LengthEstimator::quantile(0.75))
        .dynamic_n(DynamicN::new(DynamicNConfig::default(), 3))
        .brownouts(vec![brownout])
        .tracing(TraceConfig::default())
        .build();
    let m = engine.run(&tr);
    let log = engine.tracer.take_log().expect("tracing enabled");
    assert!(m.swap.demand_loads > 0, "trace must force delta swaps");
    let mut pin = Pin::new();
    pin.metrics(&m);
    pin.word(m.swap.demand_loads as u64);
    pin.word(m.swap.prefetch_issued as u64);
    pin.word(m.swap.prefetch_hits as u64);
    pin.word(log.len() as u64);
    check("engine_attachments", pin.0, PIN_ENGINE_ATTACHMENTS);
}

/// The adapter-serving baseline of Figures 14/15 on the a800/llama13b
/// cost: fig15's heaviest column (32 uniform models at 4 req/s, ranks 16
/// and 64) and fig14's Zipf-1.5 trace at 0.75 req/s, rank 16.
#[test]
fn lora_baseline_run_is_pinned() {
    let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
    let trace_13b = |rate, popularity, seed| {
        Trace::generate(TraceSpec {
            n_models: 32,
            arrival_rate: rate,
            duration_s: 300.0,
            popularity,
            seed,
        })
    };
    let uniform = trace_13b(4.0, PopularityDist::Uniform, 0x15);
    let zipf = trace_13b(0.75, PopularityDist::Zipf { alpha: 1.5 }, 0x14);
    let mut pin = Pin::new();
    for (tr, rank) in [(&uniform, 16), (&uniform, 64), (&zipf, 16)] {
        let m = EngineBuilder::new(cost)
            .scheduler(DeltaZipConfig::default())
            .catalog(VariantCatalog::all_lora(tr.spec.n_models, rank))
            .build()
            .run(tr);
        pin.metrics(&m);
        let t = &m.toppings;
        for w in [t.batches, t.max_toppings_in_batch, t.lora_reqs] {
            pin.word(w as u64);
        }
    }
    check("lora_baseline", pin.0, PIN_LORA_BASELINE);
}
