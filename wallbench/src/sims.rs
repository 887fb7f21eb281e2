//! Replays of the workload's traffic mix through the cluster and fleet
//! simulators, timed on the wall clock.

use crate::spec::Workload;
use crate::tracer::Tracer;
use dz_gpusim::{ModelShape, NodeSpec};
use dz_serve::{
    ClusterConfig, ClusterSim, CostModel, FleetConfig, FleetRouter, FleetSim, PlacementAwareRouter,
    PlacementPlan,
};
use dz_workload::{Trace, TraceSpec};
use std::time::Instant;

/// Simulated arrival rate per replica, requests/s: the cluster sweep's
/// sustainable load and the fleet sweep's per-replica rate.
const CLUSTER_RATE_PER_REPLICA: f64 = 0.6;
const FLEET_RATE_PER_REPLICA: f64 = 2.0;
const FLEET_ROUTER_SEED: u64 = 0x000F_1EE7;

pub struct SimTraces {
    pub cluster: Trace,
    pub fleet: Trace,
}

/// Exactly `requests` Poisson arrivals at `rate` over the workload's
/// variants and popularity.
pub fn trace_of(w: &Workload, requests: usize, rate: f64, seed: u64) -> Trace {
    // Generous horizon so the count is reached; the surplus is dropped.
    let mut horizon = requests as f64 / rate * 1.2 + 1.0;
    loop {
        let mut trace = Trace::generate(TraceSpec {
            n_models: w.codecs.len(),
            arrival_rate: rate,
            duration_s: horizon,
            popularity: w.popularity,
            seed,
        });
        if trace.requests.len() >= requests {
            trace.requests.truncate(requests);
            return trace;
        }
        horizon *= 2.0;
    }
}

pub fn traces(w: &Workload, seed: u64) -> SimTraces {
    let s = &w.sims;
    SimTraces {
        cluster: trace_of(
            w,
            s.cluster_requests,
            CLUSTER_RATE_PER_REPLICA * s.cluster_replicas as f64,
            seed ^ 0xC105,
        ),
        fleet: trace_of(
            w,
            s.fleet_requests,
            FLEET_RATE_PER_REPLICA * s.fleet_replicas as f64,
            seed ^ 0xF1EE,
        ),
    }
}

/// Wall seconds of each repetition plus what the runs reported; every
/// repetition must report the same outcome.
#[derive(Debug, Default)]
pub struct SimResult {
    pub cluster_wall_s: Vec<f64>,
    pub cluster_requests: usize,
    pub cluster_shed: usize,
    pub fleet_wall_s: Vec<f64>,
    pub fleet_requests: usize,
    pub fleet_events: usize,
    /// Every request accounted for (served + shed) and every repetition
    /// bit-identical to the first.
    pub ok: bool,
}

fn cluster_once(w: &Workload, trace: &Trace) -> (f64, (usize, usize, u64)) {
    let n = w.sims.cluster_replicas;
    let cost = CostModel::new(NodeSpec::rtx3090_node(1), ModelShape::llama7b());
    let plan = PlacementPlan::from_popularity(w.popularity, w.codecs.len(), n);
    let mut sim = ClusterSim::new(
        vec![cost; n],
        ClusterConfig::replicas(n),
        Box::new(PlacementAwareRouter::new(plan)),
    );
    let t = Instant::now();
    let report = sim.run(trace);
    let wall = t.elapsed().as_secs_f64();
    let p99 = report.merged.e2e_percentile(0.99);
    (
        wall,
        (report.merged.len(), report.shed.len(), p99.to_bits()),
    )
}

fn fleet_once(w: &Workload, trace: &Trace) -> (f64, (usize, usize, usize, u64)) {
    let n = w.sims.fleet_replicas;
    let plan = PlacementPlan::from_popularity(w.popularity, w.codecs.len(), n);
    let mut sim = FleetSim::new(
        FleetConfig::new(n),
        plan,
        FleetRouter::PowerOfTwo {
            seed: FLEET_ROUTER_SEED,
        },
    );
    let t = Instant::now();
    let report = sim.run(trace);
    let wall = t.elapsed().as_secs_f64();
    (
        wall,
        (
            report.served,
            report.shed,
            report.events,
            report.p99_e2e_s.to_bits(),
        ),
    )
}

/// Runs one cluster and one fleet replay per [`Replayer::rep`] call and
/// checks every repetition against the first.
pub struct Replayer<'a> {
    w: &'a Workload,
    traces: &'a SimTraces,
    res: SimResult,
    first_cluster: Option<(usize, usize, u64)>,
    first_fleet: Option<(usize, usize, usize, u64)>,
}

impl<'a> Replayer<'a> {
    pub fn new(w: &'a Workload, traces: &'a SimTraces) -> Self {
        Replayer {
            w,
            traces,
            res: SimResult {
                cluster_requests: traces.cluster.len(),
                fleet_requests: traces.fleet.len(),
                ok: true,
                ..SimResult::default()
            },
            first_cluster: None,
            first_fleet: None,
        }
    }

    pub fn rep(&mut self, tr: &mut Tracer) {
        let (w, t, res) = (self.w, self.traces, &mut self.res);
        let (wall, out) = tr.span("serve.cluster", 0, || cluster_once(w, &t.cluster));
        res.cluster_wall_s.push(wall);
        res.ok &= out.0 + out.1 == t.cluster.len() && *self.first_cluster.get_or_insert(out) == out;
        res.cluster_shed = out.1;

        let (wall, out) = tr.span("serve.fleet", 0, || fleet_once(w, &t.fleet));
        res.fleet_wall_s.push(wall);
        res.ok &= out.0 + out.1 == t.fleet.len() && *self.first_fleet.get_or_insert(out) == out;
        res.fleet_events = out.2;
    }

    pub fn finish(self) -> SimResult {
        self.res
    }
}
