//! `wire_cold` and `wire_hot`: the scoring service on loopback, driven open
//! loop at a fixed rate and then closed loop, with the caches off (every
//! request samples and runs the detector) or on and pre-warmed (almost no
//! request does).

use std::sync::Arc;
use std::time::{Duration, Instant};

use xfraud::gnn::{batch_rng, predict_scores, streams, CommunitySampler, Sampler};
use xfraud::hetgraph::NodeId;
use xfraud::netserve::http::{parse_request_head, write_response};
use xfraud::netserve::proto::{
    decode_score_request, encode_score_request, encode_score_response, ScoreRequest,
};
use xfraud::netserve::{NetServer, QuotaConfig, QuotaSet, ScoreClient, ScoreOutcome};
use xfraud::serve::ScoringEngine;
use xfraud::Pipeline;

use crate::load::{self, ClosedReport, OpenReport, TENANT};
use crate::probes::{self, ProbeInputs};
use crate::report::{check, metric, phase, Check, Outcome};
use crate::setup;
use crate::stats::{self, mix};
use crate::trace::{self, Span, Tracer};
use crate::RunArgs;

/// Which of the two wire workloads runs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub cached: bool,
    /// Fixed open-loop rate, requests per second.
    pub rate: f64,
    /// Latency limit of the open phase.
    pub limit: Duration,
    /// The first this many held-out transactions are the ids requests draw.
    pub pool: usize,
}

/// Every id costs a sample and a forward pass, and that cost is heavy-tailed:
/// the pool's median scoring community has 25 nodes, 15 of its 280 ids sit
/// in communities above 128 nodes and do 37 % of the work, three in the
/// 536-node one. The pool is the held-out set as it comes and keeps them
/// all; it is cut into 35 fixed requests — what one round's open phase sends
/// in a 20 s run — that every round of every run sends once each in a seeded
/// order, so two seeds time the same work. (35, not 34: the sample is then
/// 35 clusters of five and its median falls inside a cluster, not between
/// two.) The rate is ≈ 10 % of what the one batcher thread sustains: two
/// blocking senders then almost never both wait behind a giant, so the
/// generator runs on time and the tail is a heavy request's service time
/// plus an occasional wait behind another.
pub const COLD: Shape = Shape {
    name: "wire_cold",
    cached: false,
    rate: 12.5,
    limit: Duration::from_millis(50),
    pool: 280,
};

/// Small enough to warm inside set-up, far below the score cache's 65 536
/// entries: every request is answered from the cache. The rate is ≈ 4 % of
/// one CPU, shared by senders and server: at twice that an arrival found
/// the CPU busy with the other sender's request often enough that the
/// generator's p95 lag was a tenth of the latency median.
pub const HOT: Shape = Shape {
    name: "wire_hot",
    cached: true,
    rate: 100.0,
    limit: Duration::from_millis(10),
    pool: 1024,
};

const IDS_PER_REQUEST: usize = 8;

/// Hot-key skew of `wire_hot` (`ids[⌊u³·n⌋]`).
const HOT_GAMMA: f64 = 3.0;

/// Pre-generated requests per phase (cycled if a phase outruns them).
const REQUESTS: usize = 8192;

/// Times the open and closed phases take turns in an untraced run, and the
/// share of each round that is open loop.
const ROUNDS: usize = 5;
const OPEN_SHARE: f64 = 0.7;

/// Probe ids of the wire ≡ `Pipeline::score_transaction` gate.
const PROBE_IDS: usize = 64;

/// The cap `Pipeline::score_transaction` samples communities under.
const SCORING_COMMUNITY_CAP: usize = 4000;

/// Set-ups per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

struct State {
    pipeline: Pipeline,
    engine: Arc<ScoringEngine>,
    server: NetServer,
    pool: Vec<NodeId>,
}

fn build(shape: Shape) -> State {
    let pipeline = setup::serving_pipeline();
    let mut builder = pipeline.serving_engine().workers(setup::ENGINE_WORKERS);
    if !shape.cached {
        builder = builder.no_cache();
    }
    let engine = Arc::new(builder.build().expect("engine over the fixture"));
    let pool = pipeline.test_nodes[..shape.pool.min(pipeline.test_nodes.len())].to_vec();
    if shape.cached {
        engine
            .warm(&pool)
            .expect("warm-up scores held-out transactions");
    }
    let server = NetServer::start(Arc::clone(&engine), setup::server_config())
        .expect("bind the scoring service on loopback");
    State {
        pipeline,
        engine,
        server,
        pool,
    }
}

fn requests(shape: Shape, pool: &[NodeId], seed: u64) -> Vec<Vec<NodeId>> {
    if shape.cached {
        load::skewed_requests(pool, seed, REQUESTS, IDS_PER_REQUEST, HOT_GAMMA)
    } else {
        load::shuffled_requests(pool, seed, REQUESTS, IDS_PER_REQUEST)
    }
}

/// One open phase: a Poisson schedule at the shape's fixed rate, sending
/// `reqs` from `skip` on.
fn run_open(
    shape: Shape,
    st: &State,
    seed: u64,
    reqs: &[Vec<NodeId>],
    skip: usize,
    duration: Duration,
) -> OpenReport {
    let offsets = load::poisson_offsets(seed, shape.rate, duration);
    load::open_loop(
        st.server.local_addr(),
        &offsets,
        reqs,
        skip,
        load::n_senders(),
        shape.limit,
        duration,
    )
}

/// Wire scores must be the bits `Pipeline::score_transaction` computes.
fn bit_identity_gate(st: &State, seed: u64) -> Check {
    let mut ids = setup::shuffled(&st.pool, mix(seed, 9));
    ids.truncate(PROBE_IDS);
    let wire = load::connect(st.server.local_addr()).and_then(|mut c| c.score(TENANT, &ids).ok());
    let wire = match wire {
        Some(ScoreOutcome::Scores(s)) if s.len() == ids.len() => s,
        _ => vec![f32::NAN; ids.len()],
    };
    let mismatches = ids
        .iter()
        .zip(&wire)
        .filter(|(&id, w)| {
            st.pipeline
                .score_transaction(id)
                .map_or(true, |direct| direct.to_bits() != w.to_bits())
        })
        .count();
    check(
        "wire scores bit-identical to Pipeline::score_transaction",
        ids.len() as u64,
        mismatches as u64,
    )
}

/// What the open phase says about the harness itself: how much of the
/// schedule was answered in time and how late the generator ran, the tail
/// also as a share of the median latency it has to stay small against.
fn open_note(open: &OpenReport) -> String {
    let lag = stats::timing(&open.lag_us);
    let lat = stats::timing(&open.latencies_ms);
    format!(
        "open phase: {} scheduled, {} sent, {} late, {} unsent, open_ok_frac {:.4}; \
         loadgen lag p50 {:.1} µs, {} {:.1} µs = {:.2} % of latency p50 (n={})",
        open.scheduled,
        open.sent,
        open.late,
        open.scheduled - open.sent.min(open.scheduled),
        open.ok_frac(),
        lag.p50,
        lag.tail_label,
        lag.tail,
        lag.tail / 10.0 / lat.p50,
        lag.n
    )
}

fn percentiles_note(open: &OpenReport) -> String {
    let mut v = open.latencies_ms.clone();
    v.sort_by(f64::total_cmp);
    let q = |p| stats::quantile_sorted(&v, p);
    format!(
        "open-phase latency, ms: p75 {:.3}, p90 {:.3}, p95 {:.3}, p99 {:.3}",
        q(0.75),
        q(0.90),
        q(0.95),
        q(0.99)
    )
}

pub fn run(shape: Shape, args: &RunArgs) -> (Outcome, Vec<Span>) {
    let (st, setup_s) = setup::timed_setup(SETUP_REPS, || build(shape));
    let (mut outcome, spans) = if args.trace {
        traced(shape, &st, args)
    } else {
        (untraced(shape, &st, args, setup_s), Vec::new())
    };
    outcome.checks.push(bit_identity_gate(&st, args.seed));
    let State { engine, server, .. } = st;
    server.shutdown();
    drop(engine);
    (outcome, spans)
}

fn untraced(shape: Shape, st: &State, args: &RunArgs, setup_s: f64) -> Outcome {
    let addr = st.server.local_addr();
    let conns = load::n_senders();
    let open_reqs = requests(shape, &st.pool, mix(args.seed, 2));
    let closed_reqs = requests(shape, &st.pool, mix(args.seed, 3));

    // The two phases take turns, ROUNDS times over: each metric samples the
    // whole run, so a few seconds of outside disturbance on the machine hit
    // a minority of every metric's samples rather than all of one's.
    let round = |frac: f64| args.share(frac / ROUNDS as f64);
    let mut open = OpenReport::default();
    let mut closed = ClosedReport::default();
    let mut closed_rps = Vec::new();
    for r in 0..ROUNDS {
        let rep = run_open(
            shape,
            st,
            mix(args.seed, 100 + r as u64),
            &open_reqs,
            open.scheduled as usize,
            round(OPEN_SHARE),
        );
        open.absorb(rep);
        let rep = load::closed_loop(
            addr,
            &closed_reqs,
            closed.sent as usize,
            conns,
            round(1.0 - OPEN_SHARE),
        );
        closed_rps.push(rep.rps());
        closed.absorb(rep);
    }

    let lat = stats::timing(&open.latencies_ms);
    let metrics = vec![
        metric(
            "latency_p50_ms",
            "ms",
            lat.p50,
            format!(
                "open_p50_ms: open loop at {} req/s × {IDS_PER_REQUEST} ids, from scheduled send, 2xx only (n={})",
                shape.rate, lat.n
            ),
        ),
        metric(
            "latency_tail_ms",
            "ms",
            lat.tail,
            format!("open_tail_ms: {} of the same sample (n={})", lat.tail_label, lat.n),
        ),
        metric(
            "main_rate_per_s",
            "1/s",
            stats::median(&closed_rps),
            format!("closed_rps: 2xx req/s over {conns} keep-alive connections back to back, {IDS_PER_REQUEST} ids/request (median of {ROUNDS} rounds)"),
        ),
        metric(
            "scored_txn_per_s",
            "txn/s",
            open.goodput_ids_per_s(),
            format!(
                "open-phase goodput: ids answered 2xx within {} ms per second = rate × ids × open_ok_frac ({:.4})",
                shape.limit.as_millis(),
                open.ok_frac()
            ),
        ),
        metric("setup_s", "s", setup_s, format!("dataset, detector training, engine, warm-up, server boot (median of {SETUP_REPS} set-ups)")),
        metric("peak_rss_mib", "MiB", setup::peak_rss_mib(), "VmHWM at workload end"),
    ];
    let m = st.engine.metrics();
    Outcome {
        workload: shape.name,
        metrics,
        phases: vec![
            phase("open", open.sent, open.failed),
            phase("closed", closed.sent, closed.failed),
        ],
        checks: Vec::new(),
        notes: vec![
            open_note(&open),
            percentiles_note(&open),
            format!("per-round closed req/s {closed_rps:.1?}"),
            format!(
                "engine score-cache hit rate {:.4}, mean micro-batch {:.2}",
                m.score_hit_rate(),
                m.mean_batch
            ),
        ],
    }
}

/// The server's per-request call sequence, replayed from the harness on
/// one request: what each layer costs when nothing else runs.
struct Replay<'a> {
    st: &'a State,
    quota: QuotaSet,
    sampler: CommunitySampler,
}

impl Replay<'_> {
    fn one(
        &self,
        tr: &Tracer,
        client: &mut ScoreClient,
        rid: u64,
        ids: &[NodeId],
        cached: bool,
    ) -> bool {
        // `metrics()` sorts the latency ring; only read it where it is used.
        let score_misses = || {
            if cached {
                self.st.engine.metrics().score_misses
            } else {
                0
            }
        };
        let misses_before = score_misses();
        let ok = tr.timed("wire.request", None, rid, |_| {
            matches!(client.score(TENANT, ids), Ok(ScoreOutcome::Scores(_)))
        });
        let misses = score_misses() - misses_before;
        tr.timed("replay.request", None, rid, |p| {
            let body = encode_score_request(&ScoreRequest {
                tenant: TENANT.into(),
                ids: ids.to_vec(),
            });
            let wire = probes::http_request_bytes(&body);
            let head = tr.timed("netserve.http_parse", p, rid, |_| {
                parse_request_head(&wire, 1 << 20)
            });
            std::hint::black_box(&head);
            let req = tr.timed("netserve.proto_decode", p, rid, |_| {
                decode_score_request(&body)
            });
            tr.timed("netserve.quota_admit", p, rid, |_| {
                self.quota.admit(TENANT, Instant::now())
            });
            let ids = req.map(|r| r.ids).unwrap_or_default();
            let scores = tr
                .timed("serve.engine_score", p, rid, |_| self.st.engine.score(&ids))
                .unwrap_or_default();
            let out = tr.timed("netserve.proto_encode", p, rid, |_| {
                encode_score_response(&scores)
            });
            let resp = tr.timed("netserve.http_write", p, rid, |_| {
                write_response(200, &out, true)
            });
            std::hint::black_box(resp);
        });
        // What the engine had to compute for the wire request: every unique
        // id without caches, only the score-cache misses with them.
        let mut unique = ids.to_vec();
        unique.sort_unstable();
        unique.dedup();
        if cached {
            unique.truncate(misses as usize);
        }
        if !unique.is_empty() {
            tr.timed("replay.model", None, rid, |p| {
                let g = &self.st.pipeline.dataset.graph;
                for &id in &unique {
                    let mut rng = batch_rng(setup::MODEL_SEED, streams::SERVE, 0, id as u64);
                    let batch = tr.timed("gnn.sample", p, rid, |_| {
                        self.sampler.sample(g, &[id], &mut rng)
                    });
                    let s = tr.timed("gnn.forward", p, rid, |_| {
                        predict_scores(&self.st.pipeline.detector, &batch, &mut rng)
                    });
                    std::hint::black_box(s);
                }
            });
        }
        ok
    }
}

/// One request over `client` with a span around it or without, in
/// alternating windows: the cost of tracing itself.
fn trace_overhead(client: &mut ScoreClient, ids: &[NodeId], total: Duration) -> f64 {
    // One fixed request: requests differ 20× in cost, tracing by nanoseconds.
    let tr = Tracer::new(false);
    probes::overhead_frac(&tr, total, || {
        tr.timed("wire.request", None, 0, |_| {
            std::hint::black_box(load::send(client, ids));
        });
    })
}

fn traced(shape: Shape, st: &State, args: &RunArgs) -> (Outcome, Vec<Span>) {
    let addr = st.server.local_addr();
    let counters_before = st.engine.metrics();
    let reqs = requests(shape, &st.pool, mix(args.seed, 3));
    let open = run_open(shape, st, mix(args.seed, 100), &reqs, 0, args.share(0.3));

    let tr = Tracer::new(true);
    let replay = Replay {
        st,
        quota: QuotaSet::new(QuotaConfig::per_tenant(1e9, 1e9)),
        sampler: CommunitySampler::new(SCORING_COMMUNITY_CAP),
    };
    let mut replayed = phase("replay", 0, 0);
    let mut overhead = f64::NAN;
    if let Some(mut client) = load::connect(addr) {
        overhead = trace_overhead(&mut client, &reqs[0], args.share(0.05));
        let window = args.share(0.15);
        let started = Instant::now();
        while started.elapsed() < window {
            let ids = &reqs[replayed.sent as usize % reqs.len()];
            let ok = replay.one(&tr, &mut client, replayed.sent, ids, shape.cached);
            replayed.sent += 1;
            replayed.ok += u64::from(ok);
            replayed.failed += u64::from(!ok);
        }
    } else {
        replayed = phase("replay", 1, 1);
    }
    let spans = tr.into_spans();

    // Counters are read before the probes touch the engine.
    let observed = probes::engine_observed(
        &counters_before,
        &st.engine.metrics(),
        "engine.metrics(), traced phases only",
    );
    let mut metrics = probes::run(&ProbeInputs {
        graph: &st.pipeline.dataset.graph,
        detector: &st.pipeline.detector,
        pool: &st.pool,
        engine: Arc::clone(&st.engine),
        engine_cached: shape.cached,
        server: &st.server,
        seed: args.seed,
        budget: args.share(0.5),
    });
    metrics.extend(observed);
    metrics.extend([
        metric(
            "perf.model_share_frac",
            "ratio",
            trace::share(&spans, &["gnn.sample", "gnn.forward"], &["wire.request"]),
            "Σ(gnn.sample + gnn.forward the engine had to run) ÷ Σ wire.request",
        ),
        metric(
            "perf.trace_overhead_frac",
            "ratio",
            overhead,
            "1 − traced ÷ untraced request rate, alternating windows",
        ),
    ]);
    let outcome = Outcome {
        workload: shape.name,
        metrics,
        phases: vec![phase("open", open.sent, open.failed), replayed],
        checks: Vec::new(),
        notes: vec![open_note(&open)],
    };
    (outcome, spans)
}
