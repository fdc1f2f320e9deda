//! Service-level observability: counters, latency percentiles, throughput.
//!
//! The collector is written for the worker hot path: terminal-state and
//! cache counters are relaxed atomics, and only the latency recorder takes
//! a lock (appending one `u64` per completed compile). [`ServiceStats`] is
//! a point-in-time snapshot assembled on demand — computing percentiles at
//! snapshot time keeps the record path O(1).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Lock-free counter cluster + locked latency log.
#[derive(Default)]
pub(crate) struct StatsCollector {
    pub submitted: AtomicU64,
    pub rejected: AtomicU64,
    pub done: AtomicU64,
    pub degraded: AtomicU64,
    pub failed: AtomicU64,
    pub retries: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub cache_corrupt_dropped: AtomicU64,
    pub trials: AtomicU64,
    pub compile_micros: AtomicU64,
    pub tournaments: AtomicU64,
    pub tournament_entrants: AtomicU64,
    pub shape_hits: AtomicU64,
    pub shape_misses: AtomicU64,
    pub guard_fallbacks: AtomicU64,
    /// Wall latency of every completed compile (cold path), microseconds.
    latencies: Mutex<Vec<u64>>,
}

impl StatsCollector {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_compile(&self, wall: Duration, trials: usize) {
        let us = wall.as_micros().min(u128::from(u64::MAX)) as u64;
        self.compile_micros.fetch_add(us, Ordering::Relaxed);
        self.trials.fetch_add(trials as u64, Ordering::Relaxed);
        self.latencies.lock().expect("stats lock").push(us);
    }

    pub fn snapshot(&self) -> ServiceStats {
        let mut lat = self.latencies.lock().expect("stats lock").clone();
        lat.sort_unstable();
        let pick = |q: f64| -> u64 {
            if lat.is_empty() {
                return 0;
            }
            let idx = ((lat.len() - 1) as f64 * q).round() as usize;
            lat[idx.min(lat.len() - 1)]
        };
        let compile_micros = self.compile_micros.load(Ordering::Relaxed);
        let trials = self.trials.load(Ordering::Relaxed);
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            done: self.done.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_corrupt_dropped: self.cache_corrupt_dropped.load(Ordering::Relaxed),
            tournaments: self.tournaments.load(Ordering::Relaxed),
            tournament_entrants: self.tournament_entrants.load(Ordering::Relaxed),
            shape_hits: self.shape_hits.load(Ordering::Relaxed),
            shape_misses: self.shape_misses.load(Ordering::Relaxed),
            guard_fallbacks: self.guard_fallbacks.load(Ordering::Relaxed),
            trials,
            compiles: lat.len() as u64,
            p50_compile_us: pick(0.50),
            p99_compile_us: pick(0.99),
            trials_per_sec: if compile_micros == 0 {
                0.0
            } else {
                trials as f64 / (compile_micros as f64 / 1e6)
            },
        }
    }
}

/// A point-in-time snapshot of service health. Counters are cumulative
/// since service start.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests submitted (including ones rejected at the door).
    pub submitted: u64,
    /// Requests shed by backpressure (queue full at submit).
    pub rejected: u64,
    /// Requests that completed fully.
    pub done: u64,
    /// Requests whose deadline expired mid-formation and returned the
    /// anytime (partial) result.
    pub degraded: u64,
    /// Requests that ended in a contained, permanent error.
    pub failed: u64,
    /// Compile attempts beyond the first, across all requests.
    pub retries: u64,
    /// Cache lookups served from a revalidated entry.
    pub cache_hits: u64,
    /// Cache lookups that found no entry.
    pub cache_misses: u64,
    /// Cache entries dropped because integrity revalidation failed
    /// (each one degraded to a cold compile instead of a miscompile).
    pub cache_corrupt_dropped: u64,
    /// Policy tournaments resolved (shape-cache hot paths included).
    pub tournaments: u64,
    /// Portfolio entrants compiled and scored across all tournaments
    /// (a shape-cache hot path contributes exactly 1).
    pub tournament_entrants: u64,
    /// Tournaments answered by the CFG-shape winner cache (one compile
    /// with the cached policy instead of a full portfolio).
    pub shape_hits: u64,
    /// Tournaments that found no usable shape-cache entry and ran the
    /// full portfolio.
    pub shape_misses: u64,
    /// Shape-cache hits whose cached policy scored past the guard band
    /// and fell back to a full tournament.
    pub guard_fallbacks: u64,
    /// Formation merge trials spent across all compiles.
    pub trials: u64,
    /// Compiles whose latency was recorded (cold completions).
    pub compiles: u64,
    /// Median cold-compile latency, microseconds.
    pub p50_compile_us: u64,
    /// 99th-percentile cold-compile latency, microseconds.
    pub p99_compile_us: u64,
    /// Formation trials per second of compile wall time.
    pub trials_per_sec: f64,
}

impl ServiceStats {
    /// Cache hit rate over lookups that reached the cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses + self.cache_corrupt_dropped;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Amortized portfolio entrants per tournament — the shape cache's
    /// payoff metric. Converges from the portfolio size toward 1.0 as
    /// recurring shapes hit the winner cache.
    pub fn entrants_per_tournament(&self) -> f64 {
        if self.tournaments == 0 {
            0.0
        } else {
            self.tournament_entrants as f64 / self.tournaments as f64
        }
    }

    /// Requests that reached a terminal state.
    pub fn terminal(&self) -> u64 {
        self.rejected + self.done + self.degraded + self.failed
    }

    /// One-line JSON rendering with stable keys (no trailing newline).
    pub fn json(&self) -> String {
        format!(
            "{{\"submitted\":{},\"rejected\":{},\"done\":{},\"degraded\":{},\
             \"failed\":{},\"retries\":{},\"cache_hits\":{},\
             \"cache_misses\":{},\"cache_corrupt_dropped\":{},\"cache_hit_rate\":{:.4},\
             \"tournaments\":{},\"tournament_entrants\":{},\"shape_hits\":{},\
             \"shape_misses\":{},\"guard_fallbacks\":{},\"entrants_per_tournament\":{:.2},\
             \"trials\":{},\"compiles\":{},\"p50_compile_us\":{},\"p99_compile_us\":{},\
             \"trials_per_sec\":{:.1}}}",
            self.submitted,
            self.rejected,
            self.done,
            self.degraded,
            self.failed,
            self.retries,
            self.cache_hits,
            self.cache_misses,
            self.cache_corrupt_dropped,
            self.cache_hit_rate(),
            self.tournaments,
            self.tournament_entrants,
            self.shape_hits,
            self.shape_misses,
            self.guard_fallbacks,
            self.entrants_per_tournament(),
            self.trials,
            self.compiles,
            self.p50_compile_us,
            self.p99_compile_us,
            self.trials_per_sec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_rates() {
        let c = StatsCollector::default();
        for us in [100u64, 200, 300, 400, 1000] {
            c.record_compile(Duration::from_micros(us), 10);
        }
        let s = c.snapshot();
        assert_eq!(s.compiles, 5);
        assert_eq!(s.p50_compile_us, 300);
        assert_eq!(s.p99_compile_us, 1000);
        assert_eq!(s.trials, 50);
        assert!(s.trials_per_sec > 0.0);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = StatsCollector::default().snapshot();
        assert_eq!(s.p50_compile_us, 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.terminal(), 0);
    }

    #[test]
    fn json_is_one_line_with_stable_keys() {
        let c = StatsCollector::default();
        StatsCollector::bump(&c.submitted);
        StatsCollector::bump(&c.done);
        let j = c.snapshot().json();
        assert!(!j.contains('\n'));
        for key in [
            "\"submitted\":1",
            "\"done\":1",
            "\"cache_hit_rate\":",
            "\"p99_compile_us\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
