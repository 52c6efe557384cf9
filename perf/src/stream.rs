//! `stream_mixed`: writes beside reads on one engine. A writer makes each
//! arriving transaction durable (WAL), applies it to the live graph and
//! scores it; a reader meanwhile scores existing transactions. Every
//! publish bumps the graph version and re-keys both caches, so the two
//! sides pull against each other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xfraud::datagen::{event_stream, generate_log, DatasetPreset, TxnArrival};
use xfraud::hetgraph::NodeId;
use xfraud::ingest::{replay_dir, ShardedWal};
use xfraud::netserve::NetServer;
use xfraud::serve::ScoringEngine;
use xfraud::Pipeline;

use crate::load;
use crate::probes::{self, ProbeInputs};
use crate::report::{check, metric, phase, Check, Outcome, Phase};
use crate::setup::{self, Scratch};
use crate::stats::{self, mix};
use crate::trace::{self, Span, Tracer};
use crate::RunArgs;

pub const NAME: &str = "stream_mixed";

/// The overlay is folded into a fresh CSR base every this many arrivals.
const COMPACT_EVERY: usize = 250;
const WAL_SHARDS: usize = 4;
const IDS_PER_READ: usize = 8;
/// Both rates are the median over this many equal windows of the run.
const RATE_WINDOWS: usize = 10;
/// Set-ups per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

struct State {
    pipeline: Pipeline,
    engine: Arc<ScoringEngine>,
    arrivals: Vec<TxnArrival>,
    wal: ShardedWal,
    scratch: Scratch,
}

fn build(seed: u64) -> State {
    let pipeline = setup::serving_pipeline();
    let engine = Arc::new(
        pipeline
            .serving_engine()
            .workers(setup::ENGINE_WORKERS)
            .build()
            .expect("engine over the fixture"),
    );
    // A second world of the same shape: its entities continue the base
    // graph's id space, its seed is the workload's.
    let wcfg = DatasetPreset::EbayLargeSim.config(mix(seed, 101));
    let world = generate_log(&wcfg);
    let arrivals = event_stream(&world, &wcfg, engine.n_nodes());
    let scratch = Scratch::new("stream-wal");
    let wal = ShardedWal::create(scratch.path(), WAL_SHARDS).expect("create WAL in scratch");
    State {
        pipeline,
        engine,
        arrivals,
        wal,
        scratch,
    }
}

/// What the writer did.
#[derive(Default)]
struct Written {
    arrivals: u64,
    events: u64,
    failed: u64,
    compactions: u64,
    latencies_ms: Vec<f64>,
    /// Per arrival: when it was done (s from the start), events it carried.
    done: Vec<(f64, f64)>,
    elapsed_s: f64,
}

/// Appends, applies and scores arrivals until `window` is over, then syncs
/// the WAL. Compaction time lands in the arrival that triggers it.
fn write_side(st: &State, tr: &Tracer, window: Duration) -> Written {
    let mut w = Written::default();
    let started = Instant::now();
    for (i, arrival) in st.arrivals.iter().enumerate() {
        if started.elapsed() >= window {
            break;
        }
        let rid = i as u64;
        let t0 = Instant::now();
        let ok = tr.timed("stream.arrival", None, rid, |p| {
            let appended = tr.timed("ingest.wal_append", p, rid, |_| {
                arrival.events.iter().all(|e| st.wal.append(e).is_ok())
            });
            let new = tr.timed("serve.apply_events", p, rid, |_| {
                st.engine.apply_events(&arrival.events)
            });
            let scored = match &new {
                Ok(ids) if ids.first() == Some(&arrival.txn_node) => tr
                    .timed("serve.score_txn", p, rid, |_| st.engine.score_txn(ids[0]))
                    .is_ok_and(|s| (0.0..=1.0).contains(&s)),
                _ => false,
            };
            let compacted = (i + 1) % COMPACT_EVERY != 0 || {
                w.compactions += 1;
                tr.timed("serve.compact", p, rid, |_| st.engine.compact())
                    .is_ok()
            };
            appended && scored && compacted
        });
        w.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        w.done
            .push((started.elapsed().as_secs_f64(), arrival.events.len() as f64));
        w.arrivals += 1;
        w.events += arrival.events.len() as u64;
        w.failed += u64::from(!ok);
    }
    let synced = tr
        .timed("ingest.wal_sync", None, u64::MAX, |_| st.wal.sync())
        .is_ok();
    w.failed += u64::from(!synced);
    w.elapsed_s = started.elapsed().as_secs_f64();
    w
}

/// Scores held-out transactions in a closed loop until told to stop.
/// Returns the counts and, per successful call, when it was done (seconds
/// from the start) and the transactions it scored.
fn read_side(
    st: &State,
    tr: &Tracer,
    reads: &[Vec<NodeId>],
    stop: &AtomicBool,
) -> (Phase, Vec<(f64, f64)>) {
    let mut p = phase("read", 0, 0);
    let mut done = Vec::new();
    let started = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let ids = &reads[p.sent as usize % reads.len()];
        let ok = tr
            .timed("stream.read", None, p.sent, |_| st.engine.score(ids))
            .is_ok_and(|s| load::scores_valid(&s, ids.len()));
        p.sent += 1;
        p.ok += u64::from(ok);
        p.failed += u64::from(!ok);
        if ok {
            done.push((started.elapsed().as_secs_f64(), ids.len() as f64));
        }
    }
    (p, done)
}

/// Runs both sides for `window`; returns the writer's tally, the reader's
/// counts and the reader's median windowed rate in transactions per second.
fn run_both(st: &State, tr: &Tracer, seed: u64, window: Duration) -> (Written, Phase, f64) {
    let reads = load::shuffled_requests(&st.pipeline.test_nodes, mix(seed, 5), 4096, IDS_PER_READ);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let started = Instant::now();
            let (p, done) = read_side(st, tr, &reads, &stop);
            (
                p,
                stats::windowed_rate(&done, started.elapsed().as_secs_f64(), RATE_WINDOWS),
            )
        });
        let written = write_side(st, tr, window);
        stop.store(true, Ordering::Release);
        let (read, read_rate) = reader.join().expect("reader thread");
        (written, read, read_rate)
    })
}

/// After the stream: the WAL replays exactly what was appended, and a score
/// is the same bits before and after `compact()`.
fn gates(st: &State, written: &Written) -> Vec<Check> {
    let replayed = replay_dir(st.scratch.path(), None).map_or(u64::MAX, |r| r.events.len() as u64);
    let probe = st.arrivals[(written.arrivals as usize).saturating_sub(1)].txn_node;
    let before = st.engine.score_txn(probe);
    let compacted = st.engine.compact();
    let after = st.engine.score_txn(probe);
    let same_bits = matches!((&before, &compacted, &after), (Ok(b), Ok(()), Ok(a)) if a.to_bits() == b.to_bits());
    vec![
        check(
            format!(
                "replay_dir returns the {} appended events (got {replayed})",
                written.events
            ),
            1,
            u64::from(replayed != written.events),
        ),
        check(
            "probe score bit-identical across compact()",
            1,
            u64::from(!same_bits),
        ),
    ]
}

pub fn run(args: &RunArgs) -> (Outcome, Vec<Span>) {
    let (st, setup_s) = setup::timed_setup(SETUP_REPS, || build(args.seed));
    let out = if args.trace {
        traced(&st, args)
    } else {
        (untraced(&st, args, setup_s), Vec::new())
    };
    drop(st);
    out
}

fn phases(written: &Written, read: Phase) -> Vec<Phase> {
    vec![phase("arrival", written.arrivals, written.failed), read]
}

fn untraced(st: &State, args: &RunArgs, setup_s: f64) -> Outcome {
    let (written, read, read_rate) = run_both(st, &Tracer::new(false), args.seed, args.share(1.0));
    let lat = stats::timing(&written.latencies_ms);
    let metrics = vec![
        metric(
            "latency_p50_ms",
            "ms",
            lat.p50,
            format!("WAL append + apply + score of one arriving transaction (n={})", lat.n),
        ),
        metric(
            "latency_tail_ms",
            "ms",
            lat.tail,
            format!("{} of the same sample; compaction stalls land here (n={})", lat.tail_label, lat.n),
        ),
        metric(
            "main_rate_per_s",
            "1/s",
            stats::windowed_rate(&written.done, written.elapsed_s, RATE_WINDOWS),
            format!(
                "graph events durable + applied + scored per second of writer wall time, median of {RATE_WINDOWS} windows ({} compactions and the final sync included)",
                written.compactions
            ),
        ),
        metric(
            "scored_txn_per_s",
            "txn/s",
            read_rate,
            format!("reader thread: existing transactions scored/s ({IDS_PER_READ} per call) while the writer runs, median of {RATE_WINDOWS} windows"),
        ),
        metric("setup_s", "s", setup_s, format!("dataset, detector training, engine, arriving world, WAL (median of {SETUP_REPS} set-ups)")),
        metric("peak_rss_mib", "MiB", setup::peak_rss_mib(), "VmHWM at workload end"),
    ];
    let m = st.engine.metrics();
    Outcome {
        workload: NAME,
        metrics,
        checks: gates(st, &written),
        phases: phases(&written, read),
        notes: vec![format!(
            "compaction every {COMPACT_EVERY} arrivals, {WAL_SHARDS} WAL shards; score-cache hit rate {:.4}, subgraph-cache {:.4}",
            m.score_hit_rate(),
            m.subgraph_hit_rate()
        )],
    }
}

fn traced(st: &State, args: &RunArgs) -> (Outcome, Vec<Span>) {
    // Tracing overhead on the cheapest traced call of this workload (a
    // cache-hit read), where a span is the largest share of the work.
    let off = Tracer::new(false);
    let ids = &st.pipeline.test_nodes[..IDS_PER_READ];
    let overhead = probes::overhead_frac(&off, args.share(0.1), || {
        off.timed("stream.read", None, 0, |_| {
            std::hint::black_box(st.engine.score(ids).is_ok());
        });
    });

    let tr = Tracer::new(true);
    let counters_before = st.engine.metrics();
    let (written, read, _) = run_both(st, &tr, args.seed, args.share(0.4));
    let spans = tr.into_spans();
    let observed = probes::engine_observed(
        &counters_before,
        &st.engine.metrics(),
        "engine.metrics(), traced phases only",
    );
    let checks = gates(st, &written);
    // The workload has no front end of its own; the suite's wire probes get
    // one over the workload's engine.
    let server = NetServer::start(Arc::clone(&st.engine), setup::server_config())
        .expect("bind a probe server on loopback");
    let mut metrics = probes::run(&ProbeInputs {
        graph: &st.pipeline.dataset.graph,
        detector: &st.pipeline.detector,
        pool: &st.pipeline.test_nodes,
        engine: Arc::clone(&st.engine),
        engine_cached: true,
        server: &server,
        seed: args.seed,
        budget: args.share(0.5),
    });
    server.shutdown();
    metrics.extend(observed);
    metrics.extend([
        metric(
            "perf.model_share_frac",
            "ratio",
            trace::share(&spans, &["serve.score_txn"], &["stream.arrival"]),
            "Σ serve.score_txn (the arrival's forward pass and its wait for the batcher) ÷ Σ stream.arrival",
        ),
        metric(
            "perf.trace_overhead_frac",
            "ratio",
            overhead,
            "1 − traced ÷ untraced cache-hit read rate, alternating windows",
        ),
    ]);
    let outcome = Outcome {
        workload: NAME,
        metrics,
        checks,
        phases: phases(&written, read),
        notes: Vec::new(),
    };
    (outcome, spans)
}
