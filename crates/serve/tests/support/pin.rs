//! FNV-1a run checksums shared by the pin tests: a whole run's floats
//! folded (via `to_bits`) into one `u64` constant.
//!
//! To re-pin deliberately after an intended behaviour change, run the
//! test with `DZ_PRINT_PINS=1 ... -- --nocapture` and paste the printed
//! constants.

use dz_serve::cluster::ClusterReport;
use dz_serve::Metrics;

/// FNV-1a over a stream of u64 words — stable, dependency-free way to
/// pin a whole run's worth of floats in one constant.
pub struct Pin(pub u64);

impl Pin {
    pub fn new() -> Self {
        Pin(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        let mut h = self.0;
        for i in 0..8 {
            h ^= (w >> (i * 8)) & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn metrics(&mut self, m: &Metrics) {
        self.word(m.len() as u64);
        self.f64(m.makespan_s);
        for r in &m.records {
            self.word(r.id as u64);
            self.word(r.model as u64);
            self.f64(r.e2e_s);
            self.f64(r.ttft_s);
            self.f64(r.queue_s);
            self.f64(r.load_s);
        }
    }

    /// Folds a cluster run: merged and per-replica metrics, shed
    /// requests, routing counters and (when chaos ran) chaos stats.
    pub fn cluster_report(&mut self, report: &ClusterReport) {
        self.metrics(&report.merged);
        for m in &report.per_replica {
            self.metrics(m);
        }
        for s in &report.shed {
            self.word(s.id as u64);
            self.word(s.model as u64);
            self.f64(s.arrival);
        }
        let r = &report.routing;
        for w in r.per_replica_requests.iter().copied().chain([
            r.warm_routed,
            r.cold_routed,
            r.placement_misses,
            r.defer_events,
            r.shed,
            r.prefetch_hints,
            r.prefetch_issued,
            r.prefetch_hits,
        ]) {
            self.word(w as u64);
        }
        if let Some(stats) = &report.chaos {
            for w in [
                stats.crashes,
                stats.restarts,
                stats.brownouts,
                stats.lost_in_flight,
                stats.shed_no_capacity,
                stats.scale_ups,
                stats.scale_downs,
                stats.rollout_remapped,
                stats.dropped_hints,
                stats.min_live,
                stats.max_live,
            ] {
                self.word(w as u64);
            }
        }
    }
}

/// Asserts `got == pinned`, or prints the constant when `DZ_PRINT_PINS`
/// is set.
pub fn check(tag: &str, got: u64, pinned: u64) {
    if std::env::var("DZ_PRINT_PINS").is_ok() {
        println!("const PIN_{}: u64 = 0x{got:016x};", tag.to_uppercase());
        return;
    }
    assert_eq!(
        got, pinned,
        "{tag}: run checksum 0x{got:016x} != pinned 0x{pinned:016x} — \
         a change altered simulation results"
    );
}
