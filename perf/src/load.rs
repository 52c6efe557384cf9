//! The harness's own load generator: seeded id streams, a Poisson schedule
//! built before the phase starts, an open-loop sender that times every
//! request from its *scheduled* send and records how late it ran, and a
//! closed-loop sender for the sustainable rate.
//!
//! All load comes from this process over at most `nproc` blocking
//! keep-alive [`ScoreClient`] connections.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use xfraud::hetgraph::NodeId;
use xfraud::netserve::{ScoreClient, ScoreOutcome};

use crate::stats::Rng64;

/// Per-request client timeout — far above any latency limit, so a request
/// that blows it is a failure, not a tail sample.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Tenant every generated request is sent under.
pub const TENANT: &str = "perf";

/// Sender threads and connections: one per CPU the process was started
/// with. Counted once, on the first call — `main` makes it before the
/// process confines itself to one CPU, which would otherwise read as 1.
pub fn n_senders() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Arrival offsets of a homogeneous Poisson process at `rate` per second over
/// `duration`, conditioned on its expected count: `round(rate · duration)`
/// independent uniform arrival times in ascending order — a pure function of
/// the seed. The gaps are the process's, the number of arrivals is the same
/// for every seed, so two seeds offer the same load.
pub fn poisson_offsets(seed: u64, rate: f64, duration: Duration) -> Vec<Duration> {
    let mut rng = Rng64::new(seed);
    let total = duration.as_secs_f64();
    let mut at: Vec<f64> = (0..(rate * total).round() as usize)
        .map(|_| rng.next_f64() * total)
        .collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

/// `n` requests of `ids_per` ids, every id equally often: the pool is cut
/// into fixed chunks and the chunks are sent in successive seeded
/// permutations. The seed decides the order, never the composition —
/// per-id scoring cost is heavy-tailed (a 500-node community costs 20× the
/// median), so requests drawn afresh per seed would make two seeds two
/// different amounts of work and two different latency distributions.
pub fn shuffled_requests(pool: &[NodeId], seed: u64, n: usize, ids_per: usize) -> Vec<Vec<NodeId>> {
    let mut rng = Rng64::new(seed);
    let mut order: Vec<&[NodeId]> = pool.chunks_exact(ids_per).collect();
    assert!(!order.is_empty(), "pool smaller than one request");
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        rng.shuffle(&mut order);
        out.extend(order.iter().take(n - out.len()).map(|c| c.to_vec()));
    }
    out
}

/// Requests with hot-key skew: ids are `pool[⌊u^gamma · n⌋]`, so `gamma = 1`
/// is uniform and larger values pile traffic onto the low indices.
pub fn skewed_requests(
    pool: &[NodeId],
    seed: u64,
    n: usize,
    ids_per: usize,
    gamma: f64,
) -> Vec<Vec<NodeId>> {
    let mut rng = Rng64::new(seed);
    let len = pool.len();
    (0..n)
        .map(|_| {
            (0..ids_per)
                .map(|_| pool[((rng.next_f64().powf(gamma) * len as f64) as usize).min(len - 1)])
                .collect()
        })
        .collect()
}

/// A response is usable iff it is one finite probability per requested id.
pub fn scores_valid(scores: &[f32], n_ids: usize) -> bool {
    scores.len() == n_ids && scores.iter().all(|s| (0.0..=1.0).contains(s))
}

/// A keep-alive connection to the server, or `None` — which the caller
/// counts as one attempted and failed operation, so a server that refuses
/// connections cannot pass for a slow one.
pub fn connect(addr: SocketAddr) -> Option<ScoreClient> {
    ScoreClient::connect(addr, CLIENT_TIMEOUT).ok()
}

/// Sends one request; `true` iff the server answered 200 with valid scores.
pub fn send(client: &mut ScoreClient, ids: &[NodeId]) -> bool {
    matches!(client.score(TENANT, ids), Ok(ScoreOutcome::Scores(s)) if scores_valid(&s, ids.len()))
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenReport {
    /// Requests the schedule holds.
    pub scheduled: u64,
    /// Requests actually put on the wire before the phase ended.
    pub sent: u64,
    pub ok: u64,
    /// Non-2xx, transport errors, malformed score vectors.
    pub failed: u64,
    /// 2xx, but slower than the limit (counted from the scheduled send).
    pub late: u64,
    /// Ids in the 2xx responses that met the limit.
    pub ids_in_time: u64,
    /// Wall time of the phase, first scheduled instant to last sender done.
    pub elapsed_s: f64,
    /// 2xx latencies from the scheduled send, ms.
    pub latencies_ms: Vec<f64>,
    /// Actual minus scheduled send of every request sent, µs.
    pub lag_us: Vec<f64>,
}

impl OpenReport {
    /// Scheduled requests answered 2xx within the limit ÷ scheduled:
    /// refused, failed, late and unsent-by-phase-end all miss.
    pub fn ok_frac(&self) -> f64 {
        (self.ok - self.late) as f64 / self.scheduled.max(1) as f64
    }

    /// Ids answered 2xx within the limit per second of the phase: the fixed
    /// offered rate × ids per request × [`ok_frac`](Self::ok_frac).
    pub fn goodput_ids_per_s(&self) -> f64 {
        self.ids_in_time as f64 / self.elapsed_s
    }

    /// Adds another phase's (or sender's) requests to this report.
    pub fn absorb(&mut self, other: OpenReport) {
        self.scheduled += other.scheduled;
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.late += other.late;
        self.ids_in_time += other.ids_in_time;
        self.elapsed_s += other.elapsed_s;
        self.latencies_ms.extend(other.latencies_ms);
        self.lag_us.extend(other.lag_us);
    }
}

/// Sleeps to just before `due`, then spins: `thread::sleep` alone overshoots
/// by 50–100 µs (more when both cores are busy), a large share of a
/// cache-hit request's latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(500);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends `requests[skip + i]` (cycling) at `offsets[i]`, open loop over
/// `conns` connections.
/// A sender that is still waiting for a response cannot send: the next due
/// arrival then goes out late, and that wait is charged to its latency
/// (and reported as generator lag). Arrivals not sent by `duration` are
/// dropped and count as misses, so the phase is as long on every commit.
pub fn open_loop(
    addr: SocketAddr,
    offsets: &[Duration],
    requests: &[Vec<NodeId>],
    skip: usize,
    conns: usize,
    limit: Duration,
    duration: Duration,
) -> OpenReport {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let phase_end = start + duration;
    let limit_ms = limit.as_secs_f64() * 1e3;
    let mut total = OpenReport {
        scheduled: offsets.len() as u64,
        ..OpenReport::default()
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| {
                    let mut rep = OpenReport::default();
                    let Some(mut client) = connect(addr) else {
                        rep.sent += 1;
                        rep.failed += 1;
                        return rep;
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= offsets.len() {
                            return rep;
                        }
                        let due = start + offsets[i];
                        wait_until(due);
                        let sent_at = Instant::now();
                        if sent_at >= phase_end {
                            return rep;
                        }
                        rep.sent += 1;
                        rep.lag_us.push((sent_at - due).as_secs_f64() * 1e6);
                        let ids = &requests[(skip + i) % requests.len()];
                        if send(&mut client, ids) {
                            let ms = due.elapsed().as_secs_f64() * 1e3;
                            rep.ok += 1;
                            if ms > limit_ms {
                                rep.late += 1;
                            } else {
                                rep.ids_in_time += ids.len() as u64;
                            }
                            rep.latencies_ms.push(ms);
                        } else {
                            rep.failed += 1;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("open-loop sender thread"));
        }
    });
    // The phase lasts its `duration` even when the schedule's last arrival
    // is answered early.
    wait_until(phase_end);
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// What one closed-loop phase measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClosedReport {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub elapsed_s: f64,
}

impl ClosedReport {
    /// Adds another round's requests and wall time to this report.
    pub fn absorb(&mut self, other: ClosedReport) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.elapsed_s += other.elapsed_s;
    }

    pub fn rps(&self) -> f64 {
        self.ok as f64 / self.elapsed_s
    }
}

/// `conns` connections each send back-to-back for `duration`, taking the
/// next unsent request off the shared list, which is entered at `skip` (where
/// the previous round stopped) and cycled if it runs out.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Vec<NodeId>],
    skip: usize,
    conns: usize,
    duration: Duration,
) -> ClosedReport {
    let next = AtomicUsize::new(skip);
    let started = Instant::now();
    let mut total = ClosedReport::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| {
                    let mut rep = ClosedReport::default();
                    let Some(mut client) = connect(addr) else {
                        rep.sent += 1;
                        rep.failed += 1;
                        return rep;
                    };
                    while started.elapsed() < duration {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let ids = &requests[i % requests.len()];
                        rep.sent += 1;
                        if send(&mut client, ids) {
                            rep.ok += 1;
                        } else {
                            rep.failed += 1;
                        }
                    }
                    rep
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("closed-loop sender thread"));
        }
    });
    total.elapsed_s = started.elapsed().as_secs_f64();
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed_and_holds_its_expected_count() {
        let d = Duration::from_secs(20);
        let a = poisson_offsets(5, 100.0, d);
        assert_eq!(a, poisson_offsets(5, 100.0, d));
        let b = poisson_offsets(6, 100.0, d);
        assert_ne!(a, b);
        assert_eq!((a.len(), b.len()), (2000, 2000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        assert!(a.iter().all(|&t| t < d));
        // Exponential-like gaps: about e⁻¹ of them exceed the mean gap.
        let long = a.windows(2).filter(|w| w[1] - w[0] > d / 2000).count();
        assert!((600..870).contains(&long), "{long} gaps above the mean");
    }

    #[test]
    fn shuffled_requests_keep_composition_and_vary_order_with_the_seed() {
        let pool: Vec<NodeId> = (100..116).collect();
        let canon = |mut reqs: Vec<Vec<NodeId>>| {
            reqs.sort();
            reqs
        };
        let one_pass = canon(pool.chunks_exact(4).map(<[NodeId]>::to_vec).collect());
        for seed in [1, 2] {
            let reqs = shuffled_requests(&pool, seed, 8, 4);
            assert_eq!(reqs, shuffled_requests(&pool, seed, 8, 4));
            // Two passes over a 4-request pool: each pass is the whole pool.
            assert_eq!(canon(reqs[..4].to_vec()), one_pass);
            assert_eq!(canon(reqs[4..].to_vec()), one_pass);
        }
        assert_ne!(
            shuffled_requests(&pool, 1, 8, 4),
            shuffled_requests(&pool, 2, 8, 4)
        );
        // A partial last pass is cut, not padded.
        assert_eq!(shuffled_requests(&pool, 1, 6, 4).len(), 6);
    }

    #[test]
    fn skew_concentrates_on_low_indices() {
        let pool: Vec<NodeId> = (0..1000).collect();
        let reqs = skewed_requests(&pool, 3, 500, 8, 3.0);
        assert_eq!(reqs, skewed_requests(&pool, 3, 500, 8, 3.0));
        let low = reqs.concat().iter().filter(|&&v| v < 125).count();
        // P(u³ < 1/8) = 1/2.
        assert!(
            (1800..2200).contains(&low),
            "{low} of 4000 draws in the hot eighth"
        );
    }
}
