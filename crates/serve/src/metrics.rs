//! Serving telemetry: request counts, micro-batch sizes, cache hit rates
//! and request-latency percentiles — the `serve.*` probes of the repo's
//! benchmark (`perf/run.sh`) and `GET /metrics` report them.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

/// Bounded reservoir of the most recent request latencies; percentiles are
/// computed over this window so a long-running engine reports recent
/// behaviour, not its cold start forever.
const LATENCY_WINDOW: usize = 4096;

struct LatencyRing {
    buf: Vec<f64>,
    next: usize,
    filled: usize,
}

/// Live counters, updated lock-free except for the latency ring.
pub struct ServeMetrics {
    requests: AtomicU64,
    transactions: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    latencies: Mutex<LatencyRing>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics {
            requests: AtomicU64::new(0),
            transactions: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            latencies: Mutex::new(LatencyRing {
                buf: vec![0.0; LATENCY_WINDOW],
                next: 0,
                filled: 0,
            }),
        }
    }
}

impl ServeMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one drained micro-batch: `requests` coalesced calls covering
    /// `transactions` (possibly duplicated) transaction ids.
    pub fn observe_batch(&self, requests: usize, transactions: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.requests.fetch_add(requests as u64, Ordering::Relaxed);
        self.transactions
            .fetch_add(transactions as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(requests as u64, Ordering::Relaxed);
    }

    /// Records one caller-observed request latency (enqueue → reply).
    pub fn observe_latency(&self, elapsed: Duration) {
        let mut ring = self.latencies.lock();
        let at = ring.next;
        ring.buf[at] = elapsed.as_secs_f64() * 1e3;
        ring.next = (at + 1) % LATENCY_WINDOW;
        ring.filled = (ring.filled + 1).min(LATENCY_WINDOW);
    }

    fn percentiles(&self) -> (f64, f64, f64) {
        let ring = self.latencies.lock();
        if ring.filled == 0 {
            return (0.0, 0.0, 0.0);
        }
        let mut sorted: Vec<f64> = ring.buf[..ring.filled].to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        (at(0.50), at(0.99), at(0.999))
    }

    /// Snapshot with the cache tiers' counters folded in (the caches keep
    /// their own hit/miss atomics; the engine passes them through here).
    #[allow(
        clippy::too_many_arguments,
        reason = "each argument is one hit/miss/entry counter the engine reads from its two cache tiers"
    )]
    pub fn snapshot(
        &self,
        subgraph_hits: u64,
        subgraph_misses: u64,
        subgraph_entries: usize,
        score_hits: u64,
        score_misses: u64,
        score_entries: usize,
    ) -> MetricsSnapshot {
        let batches = self.batches.load(Ordering::Relaxed);
        let requests = self.requests.load(Ordering::Relaxed);
        let (p50_ms, p99_ms, p999_ms) = self.percentiles();
        MetricsSnapshot {
            requests,
            transactions: self.transactions.load(Ordering::Relaxed),
            batches,
            mean_batch: requests as f64 / batches.max(1) as f64,
            max_batch: self.max_batch.load(Ordering::Relaxed),
            subgraph_hits,
            subgraph_misses,
            subgraph_entries,
            score_hits,
            score_misses,
            score_entries,
            p50_ms,
            p99_ms,
            p999_ms,
        }
    }
}

/// A point-in-time view of the engine's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `score` calls answered.
    pub requests: u64,
    /// Transaction ids scored across all requests (before dedup).
    pub transactions: u64,
    /// Micro-batches drained from the queue.
    pub batches: u64,
    /// Mean requests coalesced per micro-batch.
    pub mean_batch: f64,
    /// Largest micro-batch observed.
    pub max_batch: u64,
    pub subgraph_hits: u64,
    pub subgraph_misses: u64,
    pub subgraph_entries: usize,
    pub score_hits: u64,
    pub score_misses: u64,
    pub score_entries: usize,
    /// Median request latency (enqueue → reply) over the recent window.
    pub p50_ms: f64,
    /// 99th-percentile request latency over the recent window.
    pub p99_ms: f64,
    /// 99.9th-percentile request latency over the recent window.
    pub p999_ms: f64,
}

impl MetricsSnapshot {
    fn rate(hits: u64, misses: u64) -> f64 {
        hits as f64 / (hits + misses).max(1) as f64
    }

    pub fn subgraph_hit_rate(&self) -> f64 {
        Self::rate(self.subgraph_hits, self.subgraph_misses)
    }

    pub fn score_hit_rate(&self) -> f64 {
        Self::rate(self.score_hits, self.score_misses)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests {}  txns {}  batches {}  (mean {:.2} req/batch, max {})",
            self.requests, self.transactions, self.batches, self.mean_batch, self.max_batch
        )?;
        writeln!(
            f,
            "subgraph cache: {} hits / {} misses ({:.1}% hit, {} entries)",
            self.subgraph_hits,
            self.subgraph_misses,
            100.0 * self.subgraph_hit_rate(),
            self.subgraph_entries
        )?;
        writeln!(
            f,
            "score cache:    {} hits / {} misses ({:.1}% hit, {} entries)",
            self.score_hits,
            self.score_misses,
            100.0 * self.score_hit_rate(),
            self.score_entries
        )?;
        write!(
            f,
            "latency: p50 {:.3} ms  p99 {:.3} ms  p999 {:.3} ms",
            self.p50_ms, self.p99_ms, self.p999_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates_batches_and_percentiles() {
        let m = ServeMetrics::new();
        m.observe_batch(4, 6);
        m.observe_batch(2, 2);
        for ms in [1u64, 2, 3, 4, 100] {
            m.observe_latency(Duration::from_millis(ms));
        }
        let s = m.snapshot(3, 1, 4, 10, 2, 2);
        assert_eq!(s.requests, 6);
        assert_eq!(s.transactions, 8);
        assert_eq!(s.batches, 2);
        assert_eq!(s.max_batch, 4);
        assert!((s.mean_batch - 3.0).abs() < 1e-12);
        assert!((s.subgraph_hit_rate() - 0.75).abs() < 1e-12);
        assert!(s.p50_ms >= 2.0 && s.p50_ms <= 4.0, "p50 {}", s.p50_ms);
        assert!(s.p99_ms >= 50.0, "p99 {}", s.p99_ms);
        assert!(
            s.p999_ms >= s.p99_ms,
            "p999 {} < p99 {}",
            s.p999_ms,
            s.p99_ms
        );
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn latency_ring_wraps_without_panicking() {
        let m = ServeMetrics::new();
        for i in 0..(LATENCY_WINDOW + 10) {
            m.observe_latency(Duration::from_micros(i as u64));
        }
        let s = m.snapshot(0, 0, 0, 0, 0, 0);
        assert!(s.p99_ms > 0.0);
    }

    #[test]
    fn empty_metrics_snapshot_is_all_zero() {
        let s = ServeMetrics::new().snapshot(0, 0, 0, 0, 0, 0);
        assert_eq!(s.requests, 0);
        assert_eq!(s.p50_ms, 0.0);
        assert_eq!(s.subgraph_hit_rate(), 0.0);
    }
}
