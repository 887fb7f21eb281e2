//! Wall-clock serving benchmark for the DeltaZip reproduction.
//!
//! Serves generated requests on the real CPU path — `.dza` artifacts
//! published through `Registry::publish_delta`, fetched through
//! `TieredDeltaStore::fetch_decoded`, decoded by `DecoupledBatch` — and
//! replays the same traffic mix through `ClusterSim` and `FleetSim`.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload cold-zoo --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` serves the first
//! half of the timed phase untraced and the second half traced, prints
//! the per-layer metrics and self-time table, and writes the spans as
//! Chrome-trace JSON under `.wallbench_out/`. The last stdout line is
//! always one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod driver;
mod host;
mod sims;
mod spec;
mod tracer;
mod zoo;

use driver::{Arrival, Run};
use dz_store::FetchTier;
use dz_tensor::Rng;
use spec::{Load, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use tracer::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` spent serving; the simulator replays, spread
/// through the serving schedule, take the rest.
const SERVE_SHARE: f64 = 0.75;
const MIN_SIM_REPS: usize = 3;
/// Serving seconds per simulator replay (one cluster plus one fleet run,
/// about a second on a 2-core host).
const SERVE_S_PER_SIM_REP: f64 = 3.0;
/// Serving seconds between host-speed probes (a few ms each).
const SERVE_S_PER_PROBE: f64 = 0.5;
/// Untraced/traced pairs of one batch behind `trace.overhead_frac`.
const OVERHEAD_MIN_PAIRS: usize = 3;
const OVERHEAD_MAX_PAIRS: usize = 200;
const OVERHEAD_S: f64 = 2.0;
/// Untimed serving before the timed phase, so first-batch allocation and
/// cache warm-up do not land in the latency tail.
const WARMUP_S: f64 = 1.0;
/// Closed-loop request stream length (clients stop when it runs out).
const CLOSED_LOOP_REQUESTS: usize = 100_000;
const TMP_DIR: &str = ".wallbench_tmp";
const OUT_DIR: &str = ".wallbench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = spec::workload(name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", spec::WORKLOADS))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(extra) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Linear-interpolated quantile of unsorted samples (`q` in 0..=1).
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Generated inputs: the served request stream and the simulator traces.
///
/// The open loop sends exactly `rate * serve_s` requests: Poisson arrivals
/// conditioned on their count, so every seed offers the same load.
fn generate_inputs(w: &Workload, seed: u64, serve_s: f64) -> (Vec<Arrival>, sims::SimTraces) {
    let (count, rate) = match w.load {
        Load::Open { rate } => ((rate * serve_s).round() as usize, rate),
        Load::Closed { .. } => (CLOSED_LOOP_REQUESTS, CLOSED_LOOP_REQUESTS as f64),
    };
    let trace = sims::trace_of(w, count + 1, rate, seed);
    let horizon = trace.requests[count].arrival;
    let mut rng = Rng::seeded(seed ^ 0x9E37_79B9);
    let arrivals = trace.requests[..count]
        .iter()
        .map(|r| Arrival {
            at_ns: (r.arrival / horizon * serve_s * 1e9) as u64,
            variant: r.model,
            prompt: rng.below(w.prompt_pool),
        })
        .collect();
    (arrivals, sims::traces(w, seed))
}

/// One metric line: name, value, unit, samples.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn m(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

struct Outcome {
    attempted: usize,
    failed: usize,
    mismatched: usize,
    token_match: f64,
}

/// Compares every served request's greedy tokens with the dense oracle
/// and marks mismatches failed.
fn check_outputs(run: &mut Run, zoo: &zoo::Zoo) -> Outcome {
    let (mut matched, mut total, mut mismatched) = (0usize, 0usize, 0usize);
    for r in run.requests.iter_mut().filter(|r| !r.failed) {
        let want = &zoo.oracle[&(r.variant, r.prompt)];
        total += want.len();
        matched += want.iter().zip(&r.tokens).filter(|(a, b)| a == b).count();
        if r.tokens != *want {
            r.failed = true;
            mismatched += 1;
        }
    }
    Outcome {
        attempted: run.requests.len(),
        failed: run.requests.iter().filter(|r| r.failed).count(),
        mismatched,
        token_match: matched as f64 / total.max(1) as f64,
    }
}

/// End-to-end metrics: the bounded set, then tails and unscaled values
/// reported alongside.
///
/// Times measured on the CPU are multiplied by `scale`: the workload's
/// reference probe time over this run's median speed-probe time. A shared
/// 2-vCPU VM drifted by up to 2x in speed between minutes, which no amount
/// of work inside one run averages out; scaling by a probe that shares the
/// host's state at the time keeps runs comparable. `setup_s` (partly
/// disk-bound) and the unscaled values are reported as measured.
fn end_to_end(
    w: &Workload,
    run: &Run,
    setup_s: &[f64],
    peak_rss_mb: f64,
    sims: &sims::SimResult,
    scale: f64,
) -> (Vec<Metric>, Vec<Metric>) {
    let ok: Vec<&driver::ReqRec> = run.requests.iter().filter(|r| !r.failed).collect();
    let ttft: Vec<f64> = ok.iter().map(|r| ms(r.token_ns[0] - r.due_ns)).collect();
    let tpot: Vec<f64> = ok
        .iter()
        .flat_map(|r| r.token_ns.windows(2).map(|p| ms(p[1] - p[0])))
        .collect();
    let meets = ok
        .iter()
        .filter(|r| {
            let first = ms(r.token_ns[0] - r.due_ns);
            let n = r.token_ns.len();
            let mean_gap = if n > 1 {
                ms(r.token_ns[n - 1] - r.token_ns[0]) / (n - 1) as f64
            } else {
                0.0
            };
            first * scale <= w.slo_ttft_ms && mean_gap * scale <= w.slo_tpot_ms
        })
        .count();
    let tokens: usize = ok.iter().map(|r| r.tokens.len()).sum();
    // Output tokens per second of serving work: the closed loop's
    // throughput, and in the open loop the rate the server sustains while
    // busy (tokens per wall second would only echo the offered load).
    let busy_s = run.batches.iter().map(|b| b.wall_ns).sum::<u64>() as f64 / 1e9;
    let cluster_s = median(&sims.cluster_wall_s);
    let fleet_s = median(&sims.fleet_wall_s);
    let q = |v: &[f64], p: f64| quantile(v, p);
    let bounded = vec![
        m("setup_s", median(setup_s), "s", setup_s.len()),
        m("ttft_p50_ms", q(&ttft, 0.5) * scale, "ms", ttft.len()),
        m("tpot_p50_ms", q(&tpot, 0.5) * scale, "ms", tpot.len()),
        m(
            "tokens_per_s",
            tokens as f64 / (busy_s * scale),
            "1/s",
            tokens,
        ),
        m(
            "slo_attain_frac",
            meets as f64 / run.requests.len().max(1) as f64,
            "frac",
            run.requests.len(),
        ),
        m("peak_rss_mb", peak_rss_mb, "MB", 1),
        m(
            "cluster_sim_req_per_s",
            sims.cluster_requests as f64 / (cluster_s * scale),
            "1/s",
            sims.cluster_wall_s.len(),
        ),
        m(
            "fleet_sim_req_per_s",
            sims.fleet_requests as f64 / (fleet_s * scale),
            "1/s",
            sims.fleet_wall_s.len(),
        ),
    ];
    let wall_s = (run.end_ns - run.start_ns) as f64 / 1e9;
    let paused_s = run.pauses.iter().map(|(a, b)| b - a).sum::<u64>() as f64 / 1e9;
    let reported = vec![
        m("ttft_p95_ms", q(&ttft, 0.95) * scale, "ms", ttft.len()),
        m("tpot_p95_ms", q(&tpot, 0.95) * scale, "ms", tpot.len()),
        m("host_speed_scale", scale, "x", 1),
        m("unscaled.ttft_p50_ms", q(&ttft, 0.5), "ms", ttft.len()),
        m("unscaled.ttft_p95_ms", q(&ttft, 0.95), "ms", ttft.len()),
        m("unscaled.tpot_p50_ms", q(&tpot, 0.5), "ms", tpot.len()),
        m("unscaled.tpot_p95_ms", q(&tpot, 0.95), "ms", tpot.len()),
        m(
            "unscaled.tokens_per_busy_s",
            tokens as f64 / busy_s,
            "1/s",
            tokens,
        ),
        m(
            "unscaled.tokens_per_wall_s",
            tokens as f64 / (wall_s - paused_s),
            "1/s",
            tokens,
        ),
        m(
            "unscaled.cluster_sim_req_per_s",
            sims.cluster_requests as f64 / cluster_s,
            "1/s",
            sims.cluster_wall_s.len(),
        ),
        m(
            "unscaled.fleet_sim_req_per_s",
            sims.fleet_requests as f64 / fleet_s,
            "1/s",
            sims.fleet_wall_s.len(),
        ),
    ];
    (bounded, reported)
}

struct Roofs {
    copy_gbps: f64,
    gemm_gflops: f64,
}

fn per_layer(
    run: &Run,
    tr: &Tracer,
    zoo: &zoo::Zoo,
    setup_from_ns: u64,
    sims: &sims::SimResult,
    roofs: &Roofs,
    overhead: (f64, usize),
) -> Vec<Metric> {
    let from = run.traced_from_ns.unwrap_or(run.end_ns);
    let traced: Vec<&driver::BatchRec> = run.batches.iter().filter(|b| b.traced).collect();
    let reqs: Vec<&driver::ReqRec> = run.requests.iter().filter(|r| r.traced).collect();
    let busy = |name: &str, lo: u64, hi: u64| -> (usize, f64) {
        let spans: Vec<_> = tr
            .spans()
            .iter()
            .filter(|s| s.name == name && s.start_ns >= lo && s.start_ns < hi)
            .collect();
        (
            spans.len(),
            ms(spans.iter().map(|s| s.end_ns - s.start_ns).sum()),
        )
    };
    let serving = |name: &str| busy(name, from, u64::MAX);
    let setup = |name: &str| busy(name, setup_from_ns, run.start_ns);

    let fetches: Vec<&driver::FetchRec> = traced.iter().flat_map(|b| &b.fetches).collect();
    let (fetch_calls, fetch_ms) = serving("store.fetch");
    let count = |f: &dyn Fn(&driver::FetchRec) -> bool| fetches.iter().filter(|x| f(x)).count();
    let disk_miss = count(&|f| f.tier == FetchTier::DiskMiss);
    let host_hit = count(&|f| f.tier == FetchTier::HostHit && f.decoded);
    let decoded_hit = count(&|f| !f.decoded);
    let compressed: u64 = fetches.iter().map(|f| f.compressed_bytes).sum();
    let raw: u64 = fetches.iter().map(|f| f.raw_bytes).sum();
    let read_s: f64 = fetches.iter().map(|f| f.read_s).sum();
    let decode_s: f64 = fetches.iter().map(|f| f.decode_s).sum();

    let (new_calls, new_ms) = serving("kernels.batch_new");
    let (_, prefill_ms) = serving("kernels.prefill");
    let (decode_calls, decode_ms) = serving("kernels.decode");
    let steps: usize = traced.iter().map(|b| b.steps).sum();
    let per_step = |f: &dyn Fn(&driver::BatchRec) -> f64| {
        traced.iter().map(|b| f(b) * b.steps as f64).sum::<f64>() / steps.max(1) as f64
    };
    let bytes: f64 = traced
        .iter()
        .map(|b| (b.step_bytes * b.steps as u64) as f64)
        .sum();
    let flops: f64 = traced
        .iter()
        .map(|b| (b.step_flops * b.steps as u64) as f64)
        .sum();
    let roof_s: f64 = traced
        .iter()
        .map(|b| {
            let mem = b.step_bytes as f64 / (roofs.copy_gbps * 1e9);
            let cpu = b.step_flops as f64 / (roofs.gemm_gflops * 1e9);
            mem.max(cpu) * b.steps as f64
        })
        .sum();
    let decode_s_total = decode_ms / 1e3;

    let wait: Vec<f64> = reqs.iter().map(|r| ms(r.start_ns - r.due_ns)).collect();
    let late: Vec<f64> = reqs.iter().map(|r| ms(r.noticed_ns - r.due_ns)).collect();

    let (_, sparsegpt_ms) = setup("compress.sparsegpt");
    let (_, bitdelta_ms) = setup("compress.bitdelta");
    let (publish_calls, publish_ms) = setup("store.publish");
    let (_, trace_ms) = setup("workload.trace");
    let cluster_ms = median(&sims.cluster_wall_s) * 1e3;
    let fleet_ms = median(&sims.fleet_wall_s) * 1e3;

    let frac = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        m(
            "store.fetch.calls",
            fetch_calls as f64,
            "count",
            fetch_calls,
        ),
        m("store.fetch.busy_ms", fetch_ms, "ms", fetch_calls),
        m(
            "store.fetch.disk_miss",
            disk_miss as f64,
            "count",
            fetch_calls,
        ),
        m(
            "store.fetch.host_hit",
            host_hit as f64,
            "count",
            fetch_calls,
        ),
        m(
            "store.fetch.decoded_hit",
            decoded_hit as f64,
            "count",
            fetch_calls,
        ),
        m(
            "store.fetch.decoded_hit_frac",
            frac(decoded_hit as f64, fetch_calls as f64),
            "frac",
            fetch_calls,
        ),
        m(
            "store.fetch.compressed_bytes",
            compressed as f64,
            "B",
            fetch_calls,
        ),
        m("store.fetch.raw_bytes", raw as f64, "B", fetch_calls),
        m(
            "store.fetch.read_frac",
            frac(read_s * 1e3, fetch_ms),
            "frac",
            fetch_calls,
        ),
        m(
            "store.fetch.decode_cpu_frac",
            frac(decode_s * 1e3, fetch_ms),
            "frac",
            fetch_calls,
        ),
        m(
            "store.fetch.gbps",
            frac(compressed as f64 / 1e6, fetch_ms),
            "GB/s",
            fetch_calls,
        ),
        m(
            "kernels.batch_new.calls",
            new_calls as f64,
            "count",
            new_calls,
        ),
        m("kernels.batch_new.busy_ms", new_ms, "ms", new_calls),
        m(
            "kernels.prefill.tokens",
            traced.iter().map(|b| b.prefill_tokens).sum::<usize>() as f64,
            "count",
            reqs.len(),
        ),
        m("kernels.prefill.busy_ms", prefill_ms, "ms", reqs.len()),
        m("kernels.decode.steps", steps as f64, "count", decode_calls),
        m("kernels.decode.busy_ms", decode_ms, "ms", decode_calls),
        m(
            "kernels.decode.rows_per_step",
            per_step(&|b| b.rows as f64),
            "rows",
            steps,
        ),
        m(
            "kernels.decode.deltas_per_step",
            per_step(&|b| b.deltas as f64),
            "deltas",
            steps,
        ),
        m(
            "kernels.decode.mixed_step_frac",
            per_step(&|b| if b.mixed { 1.0 } else { 0.0 }),
            "frac",
            steps,
        ),
        m("kernels.decode.bytes_moved", bytes, "B", steps),
        m(
            "kernels.decode.gbps",
            frac(bytes / 1e9, decode_s_total),
            "GB/s",
            steps,
        ),
        m(
            "kernels.decode.gflops",
            frac(flops / 1e9, decode_s_total),
            "GFLOP/s",
            steps,
        ),
        m(
            "kernels.decode.roof_frac",
            frac(roof_s, decode_s_total),
            "frac",
            steps,
        ),
        m(
            "driver.queue_wait_p50_ms",
            quantile(&wait, 0.5),
            "ms",
            wait.len(),
        ),
        m(
            "driver.queue_wait_p99_ms",
            quantile(&wait, 0.99),
            "ms",
            wait.len(),
        ),
        m(
            "driver.batch_size_mean",
            traced.iter().map(|b| b.rows).sum::<usize>() as f64 / traced.len().max(1) as f64,
            "rows",
            traced.len(),
        ),
        m(
            "driver.lateness_p99_ms",
            quantile(&late, 0.99),
            "ms",
            late.len(),
        ),
        m("driver.backlog_end", run.backlog_end as f64, "count", 1),
        m(
            "compress.busy_ms",
            sparsegpt_ms + bitdelta_ms,
            "ms",
            zoo.ids.len(),
        ),
        m(
            "compress.sparsegpt.busy_ms",
            sparsegpt_ms,
            "ms",
            zoo.ids.len(),
        ),
        m(
            "store.publish.calls",
            publish_calls as f64,
            "count",
            publish_calls,
        ),
        m("store.publish.busy_ms", publish_ms, "ms", publish_calls),
        m(
            "store.publish.bytes",
            zoo.publish_bytes as f64,
            "B",
            publish_calls,
        ),
        m("workload.trace.busy_ms", trace_ms, "ms", 1),
        m(
            "serve.cluster.busy_ms",
            cluster_ms,
            "ms",
            sims.cluster_wall_s.len(),
        ),
        m(
            "serve.cluster.requests",
            sims.cluster_requests as f64,
            "count",
            1,
        ),
        m("serve.cluster.shed", sims.cluster_shed as f64, "count", 1),
        m(
            "serve.fleet.busy_ms",
            fleet_ms,
            "ms",
            sims.fleet_wall_s.len(),
        ),
        m(
            "serve.fleet.requests",
            sims.fleet_requests as f64,
            "count",
            1,
        ),
        m("serve.fleet.events", sims.fleet_events as f64, "count", 1),
        m(
            "serve.fleet.events_per_s",
            sims.fleet_events as f64 / (fleet_ms / 1e3),
            "1/s",
            sims.fleet_wall_s.len(),
        ),
        m("host.copy_gbps", roofs.copy_gbps, "GB/s", 1),
        m("tensor.gemm_gflops", roofs.gemm_gflops, "GFLOP/s", 1),
        m("trace.overhead_frac", overhead.0, "frac", overhead.1),
    ]
}

/// Prints the traced serving window's self-time table and the share of
/// traced requests' TTFT each span name accounts for.
fn print_self_time(w: &Workload, run: &Run, tr: &Tracer) {
    let Some(from) = run.traced_from_ns else {
        return;
    };
    let spans: Vec<&tracer::Span> = tr
        .spans_since(from)
        .filter(|s| !s.name.starts_with("serve."))
        .collect();
    let table = tracer::self_table(&spans);
    // Windows start at each request's original due time; the schedule
    // pauses inside them are charged to "pause" and left out.
    let mut segments = tracer::self_segments(&spans);
    segments.extend(run.pauses.iter().map(|&(a, b)| (a, b, "pause")));
    segments.sort_by_key(|seg| seg.0);
    let traced: Vec<&driver::ReqRec> = run
        .requests
        .iter()
        .filter(|r| r.traced && !r.failed && r.due_ns >= from)
        .collect();
    let windows: Vec<(u64, u64)> = traced
        .iter()
        .map(|r| (r.due_ns - r.shifted_ns, r.token_ns[0]))
        .collect();
    let mut ttft = tracer::attribute_windows(&segments, &windows);
    ttft.remove("pause");
    let ttft_total: u64 = ttft.values().sum();
    let queued: u64 = traced.iter().map(|r| r.start_ns - r.due_ns).sum();
    let paused: u64 = run
        .pauses
        .iter()
        .map(|&(a, b)| b.saturating_sub(a.max(from)))
        .sum();
    let wall = run.end_ns - from - paused;
    let busy: u64 = table.values().map(|r| r.self_ns).sum();
    println!(
        "self time, {} traced serving window ({:.1} ms wall without simulator pauses, {} TTFT windows):",
        w.name,
        ms(wall),
        windows.len()
    );
    println!(
        "  {:<20} {:>8} {:>11} {:>11} {:>7} {:>7}",
        "span", "calls", "total_ms", "self_ms", "wall%", "ttft%"
    );
    let mut rows: Vec<(&str, u64, u64, u64)> = table
        .iter()
        .map(|(k, r)| (*k, r.calls, r.total_ns, r.self_ns))
        .collect();
    rows.push(("idle", 0, wall - busy.min(wall), wall - busy.min(wall)));
    rows.sort_by_key(|r| std::cmp::Reverse(r.3));
    for (name, calls, total, self_ns) in rows {
        println!(
            "  {:<20} {:>8} {:>11.2} {:>11.2} {:>6.1}% {:>6.1}%",
            name,
            calls,
            ms(total),
            ms(self_ns),
            100.0 * self_ns as f64 / wall.max(1) as f64,
            100.0 * ttft.get(name).copied().unwrap_or(0) as f64 / ttft_total.max(1) as f64
        );
    }
    println!(
        "  ttft% charges queueing to the work that blocked it; {:.1}% of TTFT was queueing",
        100.0 * queued as f64 / ttft_total.max(1) as f64
    );
    println!("layer map (layer metric -> end-to-end metric it should move, on which workload):");
    for (layer, e2e, on) in spec::LAYER_MAP {
        println!("  {layer:<48} -> {e2e} [{on}]");
    }
}

/// Tracing overhead on identical work: the first batch served untraced
/// then traced, in pairs (at least `OVERHEAD_MIN_PAIRS`, then until
/// `OVERHEAD_S` has passed); the median over pairs of traced over
/// untraced wall, minus 1. Pairing cancels the host's slow speed drift.
fn trace_overhead(
    w: &Workload,
    zoo: &mut zoo::Zoo,
    arrivals: &[Arrival],
    tr: &mut Tracer,
    t0: Instant,
) -> (f64, usize) {
    let start = Instant::now();
    let mut ratios = Vec::new();
    while ratios.len() < OVERHEAD_MIN_PAIRS
        || (start.elapsed().as_secs_f64() < OVERHEAD_S && ratios.len() < OVERHEAD_MAX_PAIRS)
    {
        tr.set_enabled(false);
        let off = driver::replay_first_batch(w, zoo, arrivals, tr, t0);
        tr.set_enabled(true);
        let on = driver::replay_first_batch(w, zoo, arrivals, tr, t0);
        ratios.push(on / off - 1.0);
    }
    tr.set_enabled(false);
    (median(&ratios), ratios.len())
}

fn result_json(correct: bool, out: &Outcome, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, mt) in metrics.iter().enumerate() {
        // JSON has no NaN; `correct` is false whenever this applies.
        let value = if mt.value.is_finite() { mt.value } else { 0.0 };
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            mt.name, mt.unit
        );
    }
    s.push_str("}}");
    s
}

fn run(args: Args) -> Result<(), String> {
    let w = &args.workload;
    let t0 = Instant::now();
    let serve_s = args.seconds * SERVE_SHARE;
    let roofs = Roofs {
        copy_gbps: host::copy_gbps(),
        gemm_gflops: host::gemm_gflops(),
    };
    let provenance = [
        ("workload", w.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("cores", host::cores().to_string()),
        ("profile", host::build_profile().to_string()),
        ("git_rev", host::git_rev()),
        ("host.copy_gbps", format!("{:.3}", roofs.copy_gbps)),
        ("tensor.gemm_gflops", format!("{:.3}", roofs.gemm_gflops)),
    ];
    let line: Vec<String> = provenance.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("provenance: {}", line.join(" "));

    std::fs::create_dir_all(TMP_DIR).map_err(|e| format!("{TMP_DIR}: {e}"))?;
    let mut tr = Tracer::new(false, t0);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_from_ns = 0;
    let mut built = None;
    for rep in 0..SETUP_REPS {
        // Only the last set-up is kept, and traced.
        let last = rep + 1 == SETUP_REPS;
        drop(built.take());
        tr.set_enabled(args.trace && last);
        let start = Instant::now();
        setup_from_ns = tr.ns_since_start(start);
        let inputs = tr.span("workload.trace", 0, || {
            generate_inputs(w, args.seed, serve_s)
        });
        let dir = std::path::Path::new(TMP_DIR).join(format!("zoo-{}-{rep}", std::process::id()));
        let zoo = zoo::build(w, args.seed, &dir, &mut tr).map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((inputs, zoo));
    }
    let ((arrivals, sim_traces), mut zoo) = built.expect("at least one set-up");
    tr.set_enabled(false);

    let warm = Instant::now();
    for rep in 0.. {
        if rep >= 2 && warm.elapsed().as_secs_f64() >= WARMUP_S {
            break;
        }
        driver::replay_first_batch(w, &mut zoo, &arrivals, &mut tr, t0);
    }

    let rss_reset = host::reset_peak_rss();
    let trace_from = args.trace.then_some(serve_s / 2.0);
    // The schedule pauses for a host-speed probe every SERVE_S_PER_PROBE
    // and, at every `sim_every`-th pause, for one simulator replay.
    let reps = ((serve_s / SERVE_S_PER_SIM_REP).round() as usize).max(MIN_SIM_REPS);
    let pauses = ((serve_s / SERVE_S_PER_PROBE).round() as usize).max(reps);
    let sim_every = pauses / reps;
    let mut replayer = sims::Replayer::new(w, &sim_traces);
    let mut probe_ms = Vec::with_capacity(pauses);
    let mut served = driver::serve(
        w,
        &mut zoo,
        &arrivals,
        &mut tr,
        t0,
        serve_s,
        trace_from,
        pauses,
        &mut |tr, i| {
            probe_ms.push(host::speed_probe_ms(
                w.probe_rows(),
                w.model.d_model,
                w.linear_weights(),
            ));
            if i % sim_every == sim_every / 2 {
                replayer.rep(tr);
            }
        },
    );
    let peak_rss = host::peak_rss_mb().unwrap_or(f64::NAN);
    let sims = replayer.finish();
    tr.set_enabled(false);

    let outcome = check_outputs(&mut served, &zoo);
    let correct = outcome.mismatched == 0 && outcome.failed == 0 && sims.ok;
    println!(
        "requests: attempted={} failed={} mismatched={} fail_frac={:.6} token_match={:.6} \
         backlog_end={} sims_consistent={} peak_rss_scope={}",
        outcome.attempted,
        outcome.failed,
        outcome.mismatched,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.token_match,
        served.backlog_end,
        sims.ok,
        if rss_reset { "timed phase" } else { "process" }
    );
    println!(
        "slo limits for {}: ttft <= {} ms, mean tpot <= {} ms",
        w.name, w.slo_ttft_ms, w.slo_tpot_ms
    );

    let metrics = if args.trace {
        print_self_time(w, &served, &tr);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/{}-seed{}.trace.json", w.name, args.seed);
        std::fs::write(&path, tr.chrome_json(&provenance)).map_err(|e| format!("{path}: {e}"))?;
        println!("chrome trace: {path} ({} spans)", tr.spans().len());
        println!("per-layer metrics (bytes and flops of kernels.decode are computed from tensor sizes; attention excluded):");
        let overhead = trace_overhead(w, &mut zoo, &arrivals, &mut tr, t0);
        per_layer(&served, &tr, &zoo, setup_from_ns, &sims, &roofs, overhead)
    } else {
        let scale = w.ref_probe_ms / median(&probe_ms);
        let (bounded, reported) = end_to_end(w, &served, &setup_s, peak_rss, &sims, scale);
        println!("reported alongside, not bounded:");
        for mt in &reported {
            println!(
                "  {:<32} {:>16.6} {:<8} n={}",
                mt.name, mt.value, mt.unit, mt.samples
            );
        }
        println!(
            "end-to-end metrics (times scaled to the reference host speed, setup_s as measured):"
        );
        bounded
    };
    for mt in &metrics {
        println!(
            "  {:<32} {:>16.6} {:<8} n={}",
            mt.name, mt.value, mt.unit, mt.samples
        );
    }
    // A metric without samples (every request failed) is no result.
    let correct = correct && metrics.iter().all(|mt| mt.value.is_finite());
    println!("{}", result_json(correct, &outcome, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!(
                "usage: wallbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                spec::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = run(args);
    // The zoos remove their own registries; this drops the emptied parent.
    let _ = std::fs::remove_dir(TMP_DIR);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::FAILURE
        }
    }
}
