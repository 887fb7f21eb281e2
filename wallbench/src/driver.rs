//! The benchmark's own admission and batching loop.
//!
//! FCFS static batches, the semantics of `DeltaZip::generate_batch`: a
//! batch takes due requests from the head of the queue until the row cap
//! or the distinct-delta cap would be exceeded, fetches each distinct
//! delta through the tiered store, then decodes every row to the
//! workload's output length. Clients are virtual: one thread plays both
//! the load generator and the server.

use crate::spec::{Load, Workload};
use crate::tracer::{Tracer, BATCH_ID_BASE};
use crate::zoo::Zoo;
use dz_compress::CompressedDelta;
use dz_kernels::decoupled::DecoupledBatch;
use dz_store::FetchTier;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One generated request: arrival offset (open loop only), variant and
/// prompt-pool index.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub at_ns: u64,
    pub variant: usize,
    pub prompt: usize,
}

/// What happened to one request. Times are ns since the run's origin.
#[derive(Debug, Clone)]
pub struct ReqRec {
    pub id: u64,
    pub variant: usize,
    pub prompt: usize,
    /// When the request was due to be sent.
    pub due_ns: u64,
    /// When the driver put it on the queue (lateness = noticed - due).
    pub noticed_ns: u64,
    /// How far schedule pauses moved `due_ns` and `noticed_ns`.
    pub shifted_ns: u64,
    /// When its batch was formed.
    pub start_ns: u64,
    /// End of each decode step that produced one of its tokens.
    pub token_ns: Vec<u64>,
    pub tokens: Vec<usize>,
    pub failed: bool,
    pub traced: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct FetchRec {
    pub tier: FetchTier,
    pub decoded: bool,
    pub compressed_bytes: u64,
    pub raw_bytes: u64,
    pub read_s: f64,
    pub decode_s: f64,
}

#[derive(Debug, Clone)]
pub struct BatchRec {
    /// Wall time from forming the batch to its last token.
    pub wall_ns: u64,
    pub rows: usize,
    pub deltas: usize,
    pub mixed: bool,
    pub fetches: Vec<FetchRec>,
    pub prefill_tokens: usize,
    pub steps: usize,
    /// Bytes and flops of one decode step, computed from tensor sizes.
    pub step_bytes: u64,
    pub step_flops: u64,
    pub traced: bool,
}

pub struct Run {
    pub requests: Vec<ReqRec>,
    pub batches: Vec<BatchRec>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Wall intervals the schedule was paused (host probes, simulator
    /// replays).
    pub pauses: Vec<(u64, u64)>,
    /// Requests due but not yet batched when arrivals stopped.
    pub backlog_end: usize,
    /// When tracing was switched on, if it was.
    pub traced_from_ns: Option<u64>,
}

struct Driver<'a> {
    w: &'a Workload,
    zoo: &'a mut Zoo,
    tr: &'a mut Tracer,
    t0: Instant,
    /// Bytes and multiply-add flops of the shared base per row and step.
    base_bytes: u64,
    row_flops: u64,
    batches: Vec<BatchRec>,
    done: Vec<ReqRec>,
}

impl<'a> Driver<'a> {
    fn new(w: &'a Workload, zoo: &'a mut Zoo, tr: &'a mut Tracer, t0: Instant) -> Self {
        let cfg = zoo.base.config;
        let linear_params =
            (cfg.n_layers * (4 * cfg.d_model * cfg.d_model + 2 * cfg.d_model * cfg.d_ff)) as u64;
        let head_params = (cfg.d_model * cfg.vocab) as u64;
        Driver {
            w,
            zoo,
            tr,
            t0,
            base_bytes: 4 * linear_params,
            // Base product and dense-equivalent delta product on every
            // linear layer, plus the head; attention is not counted.
            row_flops: 2 * (2 * linear_params + head_params),
            batches: Vec::new(),
            done: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs one static batch to completion; returns its requests.
    fn run_batch(&mut self, mut reqs: Vec<ReqRec>) -> Vec<ReqRec> {
        let start_ns = self.now_ns();
        let traced = self.tr.enabled();
        let bid = BATCH_ID_BASE + self.batches.len() as u64;
        let batch_span = self.tr.begin("driver.batch", bid);
        for r in &mut reqs {
            r.start_ns = start_ns;
            r.traced = traced;
        }

        // Distinct variants in FCFS order, each fetched decoded once.
        let mut variants: Vec<usize> = Vec::new();
        let mut deltas: Vec<Option<Arc<CompressedDelta>>> = Vec::new();
        let mut fetches = Vec::new();
        for r in &reqs {
            if variants.contains(&r.variant) {
                continue;
            }
            variants.push(r.variant);
            let id = self.zoo.ids[r.variant];
            let store = &mut self.zoo.store;
            match self
                .tr
                .span("store.fetch", r.id, || store.fetch_decoded(&id))
            {
                Ok(f) => {
                    let d = f.decode.unwrap_or_default();
                    fetches.push(FetchRec {
                        tier: f.tier,
                        decoded: f.decode.is_some(),
                        compressed_bytes: d.compressed_bytes,
                        raw_bytes: d.raw_bytes,
                        read_s: d.read_s,
                        decode_s: d.decode_s,
                    });
                    deltas.push(Some(f.delta));
                }
                Err(e) => {
                    eprintln!("store error on variant {}: {e}", r.variant);
                    deltas.push(None);
                }
            }
        }
        let slot_of = |v: usize| variants.iter().position(|&x| x == v).expect("fetched");
        for r in &mut reqs {
            r.failed = deltas[slot_of(r.variant)].is_none();
        }
        let live: Vec<usize> = (0..variants.len())
            .filter(|&i| deltas[i].is_some())
            .collect();
        let quant: Vec<bool> = live.iter().map(|&i| self.zoo.quant[variants[i]]).collect();
        let mixed = quant.iter().any(|&q| q) && quant.iter().any(|&q| !q);
        let rows = reqs.iter().filter(|r| !r.failed).count();
        let step_bytes = self.base_bytes
            + live
                .iter()
                .map(|&i| self.zoo.variant_step_bytes[variants[i]])
                .sum::<u64>();
        let step_flops = rows as u64 * self.row_flops;

        let depth = self.tr.depth();
        let t0 = self.t0;
        let (w, zoo, tr) = (self.w, &*self.zoo, &mut *self.tr);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let refs: Vec<&CompressedDelta> = live
                .iter()
                .map(|&i| deltas[i].as_deref().expect("live"))
                .collect();
            let mut batch = tr.span("kernels.batch_new", bid, || {
                DecoupledBatch::new(&zoo.base, refs)
            });
            let mut slots = Vec::with_capacity(reqs.len());
            let mut prefill_tokens = 0;
            for r in reqs.iter().filter(|r| !r.failed) {
                let local = live
                    .iter()
                    .position(|&i| variants[i] == r.variant)
                    .expect("live variant");
                let prompt = &zoo.prompts[r.prompt];
                prefill_tokens += prompt.len() - 1;
                slots.push(tr.span("kernels.prefill", r.id, || batch.admit(local, prompt)));
            }
            let mut step_ends = Vec::with_capacity(w.output_len);
            for _ in 0..w.output_len {
                tr.span("kernels.decode", bid, || {
                    std::hint::black_box(batch.decode_step());
                });
                step_ends.push(t0.elapsed().as_nanos() as u64);
            }
            let tokens: Vec<Vec<usize>> =
                slots.iter().map(|&s| batch.generated(s).to_vec()).collect();
            (tokens, step_ends, prefill_tokens)
        }));
        let (prefill_tokens, steps) = match outcome {
            Ok((tokens, step_ends, prefill_tokens)) => {
                let mut tokens = tokens.into_iter();
                for r in reqs.iter_mut().filter(|r| !r.failed) {
                    r.tokens = tokens.next().expect("one output per live row");
                    r.token_ns = step_ends.clone();
                }
                (prefill_tokens, step_ends.len())
            }
            Err(_) => {
                self.tr.unwind_to(depth);
                for r in &mut reqs {
                    r.failed = true;
                }
                (0, 0)
            }
        };
        self.tr.end(batch_span);
        self.batches.push(BatchRec {
            wall_ns: self.now_ns() - start_ns,
            rows,
            deltas: live.len(),
            mixed,
            fetches,
            prefill_tokens,
            steps,
            step_bytes,
            step_flops,
            traced,
        });
        reqs
    }

    /// Takes the FCFS head of the queue up to the row and delta caps.
    fn form_batch(&self, queue: &mut VecDeque<ReqRec>) -> Vec<ReqRec> {
        let mut batch: Vec<ReqRec> = Vec::new();
        let mut distinct: Vec<usize> = Vec::new();
        while let Some(head) = queue.front() {
            let new_delta = !distinct.contains(&head.variant);
            if batch.len() == self.w.row_cap || (new_delta && distinct.len() == self.w.delta_cap) {
                break;
            }
            if new_delta {
                distinct.push(head.variant);
            }
            batch.push(queue.pop_front().expect("front exists"));
        }
        batch
    }
}

fn pending(id: u64, a: &Arrival, due_ns: u64, noticed_ns: u64) -> ReqRec {
    ReqRec {
        id,
        variant: a.variant,
        prompt: a.prompt,
        due_ns,
        noticed_ns,
        shifted_ns: 0,
        start_ns: 0,
        token_ns: Vec::new(),
        tokens: Vec::new(),
        failed: false,
        traced: false,
    }
}

/// After arrivals stop, the queue drains for at most this share of the
/// serving time; requests still queued then fail unserved.
const DRAIN_SHARE: f64 = 0.25;

/// Serves `arrivals` for `serve_s` seconds of schedule time, then drains
/// the queue. The schedule pauses `pauses` times, evenly spread, to run
/// `between` with the pause's index (the clients pause with it, so queued
/// requests' due times move by the pause). With `trace_from_s`, tracing switches on that many
/// schedule seconds in.
#[allow(clippy::too_many_arguments)]
pub fn serve(
    w: &Workload,
    zoo: &mut Zoo,
    arrivals: &[Arrival],
    tr: &mut Tracer,
    t0: Instant,
    serve_s: f64,
    trace_from_s: Option<f64>,
    pauses: usize,
    between: &mut dyn FnMut(&mut Tracer, usize),
) -> Run {
    let mut d = Driver::new(w, zoo, tr, t0);
    let start_ns = d.now_ns();
    let secs = |s: f64| (s * 1e9) as u64;
    let deadline = secs(serve_s);
    let drain_end = secs(serve_s * (1.0 + DRAIN_SHARE));
    let split = trace_from_s.map(secs);
    let pause_at: Vec<u64> = (0..pauses)
        .map(|i| secs(serve_s * (i as f64 + 0.5) / pauses as f64))
        .collect();
    // Real time = start + schedule time + total paused.
    let mut paused = 0u64;
    let mut pause_spans = Vec::new();
    let mut traced_from_ns = None;
    let mut queue: VecDeque<ReqRec> = VecDeque::new();
    let mut next = 0usize;
    let mut backlog_end = None;

    if let Load::Closed { clients } = w.load {
        for a in &arrivals[..clients] {
            queue.push_back(pending(next as u64, a, start_ns, start_ns));
            next += 1;
        }
    }
    loop {
        let now = d.now_ns();
        let sched = now - start_ns - paused;
        if pause_spans.len() < pause_at.len() && sched >= pause_at[pause_spans.len()] {
            between(d.tr, pause_spans.len());
            let end = d.now_ns();
            paused += end - now;
            pause_spans.push((now, end));
            for r in &mut queue {
                r.due_ns += end - now;
                r.noticed_ns += end - now;
                r.shifted_ns += end - now;
            }
            continue;
        }
        if let Some(split) = split {
            if traced_from_ns.is_none() && sched >= split {
                d.tr.set_enabled(true);
                traced_from_ns = Some(now);
            }
        }
        if let Load::Open { .. } = w.load {
            // Every arrival lies inside the schedule; one the driver
            // notices only after the deadline is still served.
            while next < arrivals.len() && arrivals[next].at_ns <= sched {
                let a = &arrivals[next];
                queue.push_back(pending(next as u64, a, start_ns + paused + a.at_ns, now));
                next += 1;
            }
        }
        if sched >= deadline && backlog_end.is_none() {
            backlog_end = Some(queue.len());
        }
        if let Load::Open { .. } = w.load {
            if queue.is_empty() {
                if sched >= deadline || next >= arrivals.len() {
                    break;
                }
                let mut wake = arrivals[next].at_ns.min(deadline);
                if let Some(&p) = pause_at.get(pause_spans.len()) {
                    wake = wake.min(p);
                }
                std::thread::sleep(Duration::from_nanos(wake.saturating_sub(sched)));
                continue;
            }
        } else if queue.is_empty() {
            break;
        }
        if sched >= drain_end {
            for mut r in queue.drain(..) {
                r.failed = true;
                d.done.push(r);
            }
            break;
        }
        let batch = d.form_batch(&mut queue);
        let finished = d.run_batch(batch);
        let now = d.now_ns();
        for r in finished {
            if let Load::Closed { .. } = w.load {
                if now - start_ns - paused < deadline && next < arrivals.len() {
                    // The client sends its next request the moment its
                    // last token arrives.
                    let due = r.token_ns.last().copied().unwrap_or(now);
                    queue.push_back(pending(next as u64, &arrivals[next], due, now));
                    next += 1;
                }
            }
            d.done.push(r);
        }
    }
    let end_ns = d.now_ns();
    d.done.sort_by_key(|r| r.id);
    Run {
        requests: d.done,
        batches: d.batches,
        start_ns,
        end_ns,
        pauses: pause_spans,
        backlog_end: backlog_end.unwrap_or(0),
        traced_from_ns,
    }
}

/// Serves the first FCFS batch of `arrivals` outside the schedule and
/// returns its wall seconds; its records and any spans are discarded.
pub fn replay_first_batch(
    w: &Workload,
    zoo: &mut Zoo,
    arrivals: &[Arrival],
    tr: &mut Tracer,
    t0: Instant,
) -> f64 {
    let kept = tr.spans().len();
    let mut d = Driver::new(w, zoo, tr, t0);
    let mut queue: VecDeque<ReqRec> = arrivals
        .iter()
        .take(w.row_cap)
        .enumerate()
        .map(|(id, a)| pending(id as u64, a, 0, 0))
        .collect();
    let batch = d.form_batch(&mut queue);
    let start = Instant::now();
    d.run_batch(batch);
    let wall = start.elapsed().as_secs_f64();
    tr.truncate(kept);
    wall
}
