//! The per-layer probe suite of a traced run: each probe times (or counts)
//! calls into one crate's public functions, replayed on the workload's own
//! inputs — its graph, its detector, ids from its seeded stream. The same
//! suite runs on every workload (the driver wants every per-layer metric
//! from every traced run), so a layer's number can be compared across them;
//! what only a workload can observe (hit rates, model share, tracing
//! overhead) the workload adds itself.

use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xfraud::datagen::{
    event_stream, flatten_events, generate_log, record_features, scaled_large_config,
    stream_records, TxnArrival,
};
use xfraud::diskstore::{BlockStore, DiskStore, DiskStoreOptions};
use xfraud::explain::centrality::{community_edge_weights, Measure};
use xfraud::explain::{ExplainerConfig, GnnExplainer, HybridExplainer, HybridFit};
use xfraud::gnn::{
    batch_rng, grad_step, predict_scores, streams, train_step, CommunitySampler, Masks, Model,
    SageSampler, Sampler, SubgraphBatch, XFraudDetector,
};
use xfraud::hetgraph::{
    community_of, DeltaGraph, EpochCell, GraphEvent, GraphViewExt, HetGraph, NodeId,
};
use xfraud::ingest::{decode_event, encode_event, replay_dir, ShardedWal};
use xfraud::kernels::{core_numbers, pagerank, FlatCsr, KernelConfig};
use xfraud::kvstore::{FeatureStore, KvStore, ShardedStore};
use xfraud::netserve::http::{parse_request_head, write_response};
use xfraud::netserve::proto::{
    decode_score_request, encode_score_request, encode_score_response, ScoreRequest,
};
use xfraud::netserve::{NetServer, QuotaConfig, QuotaSet};
use xfraud::nn::{AdamW, Session};
use xfraud::serve::{CacheKey, MetricsSnapshot, ScoringEngine, ShardedLru};
use xfraud::tensor::{Tape, Tensor};

use crate::load::{self, TENANT};
use crate::report::{metric, Metric};
use crate::setup::{self, Scratch};
use crate::stats::{self, mix, Rng64};
use crate::trace::Tracer;

/// What a workload hands the suite.
pub struct ProbeInputs<'a> {
    /// An in-RAM graph with feature rows.
    pub graph: &'a HetGraph,
    pub detector: &'a XFraudDetector,
    /// Transaction ids the workload draws from.
    pub pool: &'a [NodeId],
    /// The workload's engine (or a stand-in over `graph`), read-only here.
    pub engine: Arc<ScoringEngine>,
    pub engine_cached: bool,
    /// A server over `engine`: the workload's, or one booted for the suite.
    pub server: &'a NetServer,
    pub seed: u64,
    /// Wall time the whole suite may take.
    pub budget: Duration,
}

/// Timed probes the budget is split over (the untimed set-up of the probes
/// — filling stores, applying arrivals — comes on top, a second or so).
const SLICES: u32 = 48;

/// Ids per probe request, as in the wire workloads.
const IDS: usize = 8;

/// Arrivals applied to build the overlay probes read through.
const OVERLAY_ARRIVALS: usize = 2000;

/// Rows in the feature-store probes.
const STORE_ROWS: usize = 20_000;

/// The serialized form of a `POST /score` request, as `ScoreClient` sends it.
pub fn http_request_bytes(body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST /score HTTP/1.1\r\nHost: xfraud\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Median over rounds of the mean ns per `op` call. Each round builds fresh
/// state with `setup` (untimed) and times `k` calls, `k` sized from the first
/// call so a round is about an eighth of `slice`, capped at `max_k`.
fn bench<S>(
    slice: Duration,
    max_k: usize,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&mut S),
) -> f64 {
    let mut state = setup();
    let t = Instant::now();
    op(&mut state);
    let first = t.elapsed().as_nanos().max(1);
    let k = ((slice.as_nanos() / 8 / first) as usize).clamp(1, max_k);
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 3 || started.elapsed() < slice {
        let mut state = setup();
        let t = Instant::now();
        for _ in 0..k {
            op(&mut state);
        }
        rounds.push(t.elapsed().as_nanos() as f64 / k as f64);
    }
    stats::median(&rounds)
}

/// [`bench`] for calls that need no per-round state.
fn bench_fn(slice: Duration, mut op: impl FnMut()) -> f64 {
    bench(slice, 1 << 20, || (), |()| op())
}

/// Runs `op` in short alternating windows with `tr` off and on; returns
/// `1 − median rate(on) / median rate(off)`, the share of throughput tracing
/// costs (medians over windows: the machine's own drift within `total` is
/// larger than the cost of a span).
pub fn overhead_frac(tr: &Tracer, total: Duration, mut op: impl FnMut()) -> f64 {
    const WINDOWS: u32 = 40;
    let window = total / WINDOWS;
    let mut rates = [Vec::new(), Vec::new()];
    for w in 0..WINDOWS {
        let on = w % 2 == 1;
        tr.set_on(on);
        let started = Instant::now();
        let mut ops = 0u64;
        while started.elapsed() < window {
            op();
            ops += 1;
        }
        rates[usize::from(on)].push(ops as f64 / started.elapsed().as_secs_f64());
    }
    tr.set_on(false);
    1.0 - stats::median(&rates[1]) / stats::median(&rates[0])
}

/// What the engine's own counters say happened between two snapshots;
/// `note` says over which requests.
pub fn engine_observed(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    note: &str,
) -> Vec<Metric> {
    let frac = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    vec![
        metric(
            "serve.score_hit_frac",
            "ratio",
            frac(
                after.score_hits - before.score_hits,
                after.score_misses - before.score_misses,
            ),
            note,
        ),
        metric(
            "serve.subgraph_hit_frac",
            "ratio",
            frac(
                after.subgraph_hits - before.subgraph_hits,
                after.subgraph_misses - before.subgraph_misses,
            ),
            note,
        ),
        metric(
            "serve.mean_batch",
            "count",
            (after.requests - before.requests) as f64
                / (after.batches - before.batches).max(1) as f64,
            format!("requests per micro-batch; {note}"),
        ),
    ]
}

fn random_tensor(rows: usize, cols: usize, zero_frac: f64, rng: &mut Rng64) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.next_f64() < zero_frac {
                0.0
            } else {
                rng.next_f64() as f32 - 0.5
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data).expect("rows × cols values")
}

/// Runs the suite and returns its metrics.
pub fn run(inp: &ProbeInputs) -> Vec<Metric> {
    let slice = inp.budget / SLICES;
    let mut out = Vec::new();
    let mut ids = setup::shuffled(inp.pool, mix(inp.seed, 20));
    ids.truncate(256);
    if inp.engine_cached {
        // With caches, the engine probes time the hit path; a workload that
        // just published a graph version has emptied them.
        let _ = inp.engine.warm(&ids);
    }
    let arrivals = arriving_world(inp);
    out.extend(netserve_probes(inp, slice, &ids));
    out.extend(serve_probes(inp, slice, &ids, &arrivals));
    let (gnn, batch) = gnn_probes(inp, slice, &ids);
    out.extend(gnn);
    out.extend(tensor_probes(inp, slice, &batch));
    out.extend(hetgraph_probes(inp, slice, &ids, &arrivals));
    out.extend(ingest_probes(slice, &arrivals));
    out.extend(store_probes(inp, slice));
    out.extend(datagen_probes(inp, slice));
    out.extend(explain_probes(inp, slice, &ids));
    out
}

/// A second world's arrivals, continuing `graph`'s id space.
fn arriving_world(inp: &ProbeInputs) -> Vec<TxnArrival> {
    let cfg = scaled_large_config(8_000, mix(inp.seed, 21));
    let mut arrivals = event_stream(&generate_log(&cfg), &cfg, inp.graph.n_nodes());
    arrivals.truncate(OVERLAY_ARRIVALS);
    arrivals
}

fn netserve_probes(inp: &ProbeInputs, slice: Duration, ids: &[NodeId]) -> Vec<Metric> {
    let req_ids = &ids[..IDS];
    let body = encode_score_request(&ScoreRequest {
        tenant: TENANT.into(),
        ids: req_ids.to_vec(),
    });
    let wire = http_request_bytes(&body);
    let scores: Vec<f32> = (0..IDS).map(|i| 0.01 + i as f32 / 16.0).collect();
    let resp = encode_score_response(&scores);
    let quota = QuotaSet::new(QuotaConfig::per_tenant(1e9, 1e9));

    let parse = bench_fn(slice, || {
        std::hint::black_box(parse_request_head(std::hint::black_box(&wire), 1 << 20).is_ok());
    });
    let write = bench_fn(slice, || {
        std::hint::black_box(write_response(200, std::hint::black_box(&resp), true));
    });
    let decode = bench_fn(slice, || {
        std::hint::black_box(decode_score_request(std::hint::black_box(&body)).is_ok());
    });
    let encode = bench_fn(slice, || {
        std::hint::black_box(encode_score_response(std::hint::black_box(&scores)));
    });
    let admit = bench_fn(slice, || {
        std::hint::black_box(quota.admit(TENANT, Instant::now()));
    });

    // Wire round trip minus the in-process call, one at a time, for one
    // fixed request: uncached requests differ 20× in cost, far more than
    // the wire adds.
    let in_process = bench_fn(slice, || {
        std::hint::black_box(inp.engine.score(req_ids).is_ok());
    });
    let over_wire = load::connect(inp.server.local_addr()).map_or(f64::NAN, |mut client| {
        bench_fn(slice, || {
            std::hint::black_box(load::send(&mut client, req_ids));
        })
    });
    let nm = inp.server.metrics();
    vec![
        metric(
            "netserve.http_parse_ns",
            "ns",
            parse,
            format!("parse_request_head, {} B request", wire.len()),
        ),
        metric(
            "netserve.http_write_ns",
            "ns",
            write,
            format!("write_response, {} B body", resp.len()),
        ),
        metric(
            "netserve.proto_decode_ns",
            "ns",
            decode,
            format!("decode_score_request, {IDS} ids"),
        ),
        metric(
            "netserve.proto_encode_ns",
            "ns",
            encode,
            format!("encode_score_response, {IDS} scores"),
        ),
        metric(
            "netserve.quota_admit_ns",
            "ns",
            admit,
            "QuotaSet::admit, one tenant",
        ),
        metric(
            "netserve.wire_overhead_us",
            "us",
            (over_wire - in_process) / 1e3,
            format!(
                "wire {:.1} µs − engine.score {:.1} µs, the same {IDS} ids, one request at a time",
                over_wire / 1e3,
                in_process / 1e3
            ),
        ),
        metric(
            "netserve.shed_frac",
            "ratio",
            (nm.shed_quota + nm.shed_overload) as f64 / nm.total_responses().max(1) as f64,
            format!(
                "429+503 ÷ the {} responses of the traced run, from server.metrics()",
                nm.total_responses()
            ),
        ),
    ]
}

fn serve_probes(
    inp: &ProbeInputs,
    slice: Duration,
    ids: &[NodeId],
    arrivals: &[TxnArrival],
) -> Vec<Metric> {
    let requests: Vec<&[NodeId]> = ids.chunks_exact(IDS).collect();
    let sampler = CommunitySampler::new(4000);
    let shape = sampler.shape_key();

    // engine.score on 8 ids and, without caches, the same ids sampled and
    // forwarded directly right after: the overhead is the median of the
    // paired differences (requests differ several-fold in cost, so two
    // separately taken medians would differ by more than the overhead).
    let (engine_ns, overhead_ns) = if inp.engine_cached {
        // Every probe id is a score-cache hit: the whole call is overhead.
        let mut at = 0usize;
        let ns = bench_fn(slice, || {
            at += 1;
            std::hint::black_box(inp.engine.score(requests[at % requests.len()]).is_ok());
        });
        (ns, ns)
    } else {
        let (mut engine, mut paired) = (Vec::new(), Vec::new());
        let started = Instant::now();
        for req in requests.iter().cycle() {
            if started.elapsed() >= 2 * slice && engine.len() >= 3 {
                break;
            }
            let t = Instant::now();
            std::hint::black_box(inp.engine.score(req).is_ok());
            let in_engine = t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            for &id in *req {
                let mut rng = batch_rng(setup::MODEL_SEED, streams::SERVE, 0, id as u64);
                let b = sampler.sample(inp.graph, &[id], &mut rng);
                std::hint::black_box(predict_scores(inp.detector, &b, &mut rng));
            }
            engine.push(in_engine);
            paired.push(in_engine - t.elapsed().as_nanos() as f64);
        }
        (stats::median(&engine), stats::median(&paired))
    };

    let lru: ShardedLru<f32> = ShardedLru::new(65_536, 8);
    let key = |i: usize| CacheKey {
        node: ids[i % ids.len()],
        shape,
        version: 0,
    };
    let mut i = 0usize;
    let insert = bench_fn(slice, || {
        i += 1;
        lru.insert(key(i), 0.5);
    });
    let mut i = 0usize;
    let get = bench_fn(slice, || {
        i += 1;
        std::hint::black_box(lru.get(&key(i)));
    });
    let snapshot = bench_fn(slice, || {
        std::hint::black_box(inp.engine.metrics());
    });

    // Writes go to an engine of the suite's own: they bump the version and
    // would empty the workload's caches.
    let eng = ScoringEngine::builder(
        inp.detector.clone(),
        inp.graph.clone(),
        Box::new(CommunitySampler::new(4000)),
    )
    .seed(setup::MODEL_SEED)
    .workers(setup::ENGINE_WORKERS)
    .build()
    .expect("scratch engine for write probes");
    let apply_ns: Vec<f64> = arrivals
        .iter()
        .map(|a| {
            let t = Instant::now();
            std::hint::black_box(eng.apply_events(&a.events).is_ok());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    let apply = stats::median(&apply_ns);
    let (ov_nodes, ov_edges) = eng.overlay_stats();
    let t = Instant::now();
    let compacted = eng.compact().is_ok();
    let compact_ms = t.elapsed().as_secs_f64() * 1e3;
    vec![
        metric(
            "serve.engine_score_us",
            "us",
            engine_ns / 1e3,
            format!("ScoringEngine::score, {IDS} ids, one caller"),
        ),
        metric(
            "serve.engine_overhead_us",
            "us",
            overhead_ns / 1e3,
            "that call − Σ sample+forward of the ids it had to compute (paired per request): queue, batcher, dedup, cache",
        ),
        metric("serve.cache_get_ns", "ns", get, "ShardedLru::get, hit, 8 shards"),
        metric("serve.cache_insert_ns", "ns", insert, "ShardedLru::insert over 256 keys"),
        metric("serve.metrics_snapshot_us", "us", snapshot / 1e3, "ScoringEngine::metrics()"),
        metric("serve.apply_events_us", "us", apply / 1e3, format!("apply_events of one arrival, median over an overlay growing to {} arrivals", arrivals.len())),
        metric(
            "serve.compact_ms",
            "ms",
            if compacted { compact_ms } else { f64::NAN },
            format!("compact() of a {ov_nodes}-node / {ov_edges}-edge overlay, one call"),
        ),
    ]
}

/// Returns the metrics and the 64-target batch the tensor probes take
/// their shapes from.
fn gnn_probes(inp: &ProbeInputs, slice: Duration, ids: &[NodeId]) -> (Vec<Metric>, SubgraphBatch) {
    let g = inp.graph;
    let det = inp.detector;
    let sampler = CommunitySampler::new(4000);
    let rng_of = |id: NodeId| batch_rng(setup::MODEL_SEED, streams::SERVE, 0, id as u64);

    let singles: Vec<SubgraphBatch> = ids
        .iter()
        .map(|&id| sampler.sample(g, &[id], &mut rng_of(id)))
        .collect();
    let nodes = stats::mean(
        &singles
            .iter()
            .map(|b| b.n_nodes() as f64)
            .collect::<Vec<_>>(),
    );
    let edges = stats::mean(
        &singles
            .iter()
            .map(|b| b.n_edges() as f64)
            .collect::<Vec<_>>(),
    );

    let mut i = 0usize;
    let sample = bench_fn(slice, || {
        i += 1;
        let id = ids[i % ids.len()];
        std::hint::black_box(sampler.sample(g, &[id], &mut rng_of(id)));
    });
    let mut i = 0usize;
    let forward = bench_fn(slice, || {
        i += 1;
        let b = &singles[i % singles.len()];
        std::hint::black_box(predict_scores(det, b, &mut rng_of(0)));
    });
    let mut i = 0usize;
    let assemble = bench_fn(slice, || {
        i += 1;
        let b = &singles[i % singles.len()];
        std::hint::black_box(SubgraphBatch::from_nodes(
            g,
            &b.global_ids,
            &[b.global_ids[b.targets[0]]],
        ));
    });
    let batch64 = sampler.sample(g, &ids[..64], &mut rng_of(1));
    let forward64 = bench_fn(slice, || {
        std::hint::black_box(predict_scores(det, &batch64, &mut rng_of(0)));
    });

    let sage = SageSampler::new(2, 8);
    let targets = &ids[..128];
    let train_sample = bench_fn(slice, || {
        std::hint::black_box(sage.sample(g, targets, &mut rng_of(2)));
    });
    let train_batch = sage.sample(g, targets, &mut rng_of(2));
    let grad = bench_fn(slice, || {
        std::hint::black_box(grad_step(det, &train_batch, &mut rng_of(3)));
    });
    let step = bench(
        slice,
        1 << 10,
        || (det.clone(), AdamW::new(2e-3)),
        |(model, opt)| {
            std::hint::black_box(train_step(model, &train_batch, opt, &mut rng_of(3)));
        },
    );
    let (_, grads) = grad_step(det, &train_batch, &mut rng_of(3));
    let adamw = bench(
        slice,
        1 << 10,
        || (det.clone(), AdamW::new(2e-3)),
        |(model, opt)| opt.step(model.store_mut(), &grads),
    );
    let tape_len = {
        let mut sess = Session::new();
        det.forward(
            &mut sess,
            &singles[0],
            false,
            &mut rng_of(0),
            &Masks::none(),
        );
        sess.tape.len()
    };
    let metrics = vec![
        metric(
            "gnn.sample_us",
            "us",
            sample / 1e3,
            "CommunitySampler(4000), 1 target",
        ),
        metric(
            "gnn.subgraph_nodes",
            "count",
            nodes,
            format!("mean over {} ids, exact", ids.len()),
        ),
        metric(
            "gnn.subgraph_edges",
            "count",
            edges,
            format!("mean over {} ids, exact", ids.len()),
        ),
        metric(
            "gnn.forward_us",
            "us",
            forward / 1e3,
            "predict_scores, 1 target",
        ),
        metric(
            "gnn.forward_batch_us_per_txn",
            "us",
            forward64 / 64.0 / 1e3,
            format!(
                "predict_scores, 64 targets in one {}-node batch",
                batch64.n_nodes()
            ),
        ),
        metric(
            "gnn.batch_assemble_us",
            "us",
            assemble / 1e3,
            "SubgraphBatch::from_nodes on a sampled community",
        ),
        metric(
            "gnn.train_sample_us",
            "us",
            train_sample / 1e3,
            "SageSampler(2, 8), 128 targets",
        ),
        metric(
            "gnn.grad_step_ms",
            "ms",
            grad / 1e6,
            format!(
                "grad_step (forward + backward), {}-node batch",
                train_batch.n_nodes()
            ),
        ),
        metric(
            "gnn.train_step_ms",
            "ms",
            step / 1e6,
            "train_step (forward + backward + AdamW), same batch",
        ),
        metric(
            "nn.adamw_step_ms",
            "ms",
            adamw / 1e6,
            "AdamW::step on that batch's gradients",
        ),
        metric(
            "tensor.tape_len_per_forward",
            "count",
            tape_len as f64,
            "tape nodes one eval-mode forward of 1 target records, exact",
        ),
    ];
    (metrics, batch64)
}

fn tensor_probes(inp: &ProbeInputs, slice: Duration, batch: &SubgraphBatch) -> Vec<Metric> {
    // The detector's real shapes: the 64-target batch's rows × hidden, with
    // the half-zero activations a ReLU leaves (matmul skips zeros).
    let hidden = inp.detector.cfg.hidden;
    let (rows, n_edges) = (batch.n_nodes(), batch.n_edges());
    let mut rng = Rng64::new(mix(inp.seed, 22));
    let act = random_tensor(rows, hidden, 0.5, &mut rng);
    let weight = random_tensor(hidden, hidden, 0.0, &mut rng);
    let grad = random_tensor(rows, hidden, 0.0, &mut rng);
    let flops = 2.0 * (rows * hidden * hidden) as f64;
    let gflops = |ns: f64| flops / ns;

    let nn = bench_fn(slice, || {
        std::hint::black_box(act.matmul(&weight).is_ok());
    });
    let nt = bench_fn(slice, || {
        std::hint::black_box(grad.matmul_nt(&weight).is_ok());
    });
    let tn = bench_fn(slice, || {
        std::hint::black_box(act.matmul_tn(&grad).is_ok());
    });

    let per_edge = random_tensor(n_edges, 1, 0.0, &mut rng);
    let messages = random_tensor(n_edges, hidden, 0.0, &mut rng);
    let seg = Rc::new(batch.edge_dst.clone());
    let src = Rc::new(batch.edge_src.clone());
    // A fresh tape per round (the leaf copy is untimed); a few calls per
    // round so the tape's growth stays small.
    let softmax = bench(
        slice,
        16,
        || {
            let mut tape = Tape::new();
            let a = tape.leaf(per_edge.clone(), false);
            (tape, a)
        },
        |(tape, a)| {
            std::hint::black_box(tape.segment_softmax(*a, Rc::clone(&seg), rows));
        },
    );
    let sum = bench(
        slice,
        16,
        || {
            let mut tape = Tape::new();
            let a = tape.leaf(messages.clone(), false);
            (tape, a)
        },
        |(tape, a)| {
            std::hint::black_box(tape.segment_sum(*a, Rc::clone(&seg), rows));
        },
    );
    let gather = bench(
        slice,
        16,
        || {
            let mut tape = Tape::new();
            let a = tape.leaf(act.clone(), false);
            (tape, a)
        },
        |(tape, a)| {
            std::hint::black_box(tape.gather_rows(*a, Rc::clone(&src)));
        },
    );
    let shape = format!("[{rows}×{hidden}]·[{hidden}×{hidden}], half the left operand zero");
    vec![
        metric(
            "tensor.matmul_gflops",
            "GFLOP/s",
            gflops(nn),
            format!("Tensor::matmul {shape}"),
        ),
        metric(
            "tensor.matmul_nt_gflops",
            "GFLOP/s",
            gflops(nt),
            format!("Tensor::matmul_nt [{rows}×{hidden}]·[{hidden}×{hidden}]ᵀ, dense"),
        ),
        metric(
            "tensor.matmul_tn_gflops",
            "GFLOP/s",
            gflops(tn),
            format!("Tensor::matmul_tn [{rows}×{hidden}]ᵀ·[{rows}×{hidden}]"),
        ),
        metric(
            "tensor.segment_softmax_ns_per_edge",
            "ns",
            softmax / n_edges as f64,
            format!("Tape::segment_softmax, {n_edges} edges into {rows} segments"),
        ),
        metric(
            "tensor.segment_sum_ns_per_edge",
            "ns",
            sum / n_edges as f64,
            format!("Tape::segment_sum, {n_edges}×{hidden} into {rows} segments"),
        ),
        metric(
            "tensor.gather_rows_ns_per_row",
            "ns",
            gather / n_edges as f64,
            format!("Tape::gather_rows, {n_edges} rows of {hidden}"),
        ),
    ]
}

fn hetgraph_probes(
    inp: &ProbeInputs,
    slice: Duration,
    ids: &[NodeId],
    arrivals: &[TxnArrival],
) -> Vec<Metric> {
    let g = inp.graph;
    let walk = |view: &dyn xfraud::hetgraph::GraphView, nodes: &[NodeId]| -> (u64, usize) {
        let mut edges = 0usize;
        let mut acc = 0u64;
        for &v in nodes {
            for n in view.neighbors(v) {
                acc = acc.wrapping_add(n as u64);
                edges += 1;
            }
        }
        (acc, edges)
    };
    // Two hops out of the probe ids: the sampler's access pattern.
    let frontier: Vec<NodeId> = ids
        .iter()
        .flat_map(|&v| g.neighbors(v).chain([v]))
        .collect();
    let (_, base_edges) = walk(g, &frontier);
    let base_walk = bench_fn(slice, || {
        std::hint::black_box(walk(g, &frontier));
    });

    let events = flatten_events(arrivals);
    let base = Arc::new(g.clone());
    let mut delta = DeltaGraph::new(Arc::clone(&base));
    let apply_all = bench(
        slice,
        1,
        || DeltaGraph::new(Arc::clone(&base)),
        |d| {
            for e in &events {
                std::hint::black_box(d.apply(e).is_ok());
            }
        },
    );
    for e in &events {
        let _ = delta.apply(e);
    }
    let overlay_nodes: Vec<NodeId> = arrivals.iter().map(|a| a.txn_node).collect();
    let overlay_frontier: Vec<NodeId> = overlay_nodes
        .iter()
        .flat_map(|&v| delta.neighbors(v).chain([v]))
        .collect();
    let (_, overlay_edges) = walk(&delta, &overlay_frontier);
    let overlay = bench_fn(slice, || {
        std::hint::black_box(walk(&delta, &overlay_frontier));
    });
    let t = Instant::now();
    let compacted = delta.compact().is_ok();
    let compact_ms = t.elapsed().as_secs_f64() * 1e3;

    let cell = EpochCell::new(0u64);
    let pin = bench_fn(slice, || {
        std::hint::black_box(*cell.pin());
    });
    let mut i = 0usize;
    let community = bench_fn(slice, || {
        i += 1;
        std::hint::black_box(community_of(g, ids[i % ids.len()], 400).is_ok());
    });
    vec![
        metric(
            "hetgraph.neighbors_ns_per_edge",
            "ns",
            base_walk / base_edges.max(1) as f64,
            format!("GraphView::neighbors over the base CSR, {base_edges} edges a pass"),
        ),
        metric(
            "hetgraph.overlay_neighbors_ns_per_edge",
            "ns",
            overlay / overlay_edges.max(1) as f64,
            format!(
                "the same through a {}-arrival overlay, {overlay_edges} edges a pass",
                arrivals.len()
            ),
        ),
        metric(
            "hetgraph.delta_apply_ns",
            "ns",
            apply_all / events.len().max(1) as f64,
            format!(
                "DeltaGraph::apply, per event over a {}-event stream",
                events.len()
            ),
        ),
        metric(
            "hetgraph.delta_compact_ms",
            "ms",
            if compacted { compact_ms } else { f64::NAN },
            format!(
                "DeltaGraph::compact of {} overlay nodes, one call",
                delta.n_overlay_nodes()
            ),
        ),
        metric("hetgraph.epoch_pin_ns", "ns", pin, "EpochCell::pin + drop"),
        metric(
            "hetgraph.community_of_us",
            "us",
            community / 1e3,
            "community_of, cap 400",
        ),
    ]
}

fn ingest_probes(slice: Duration, arrivals: &[TxnArrival]) -> Vec<Metric> {
    let events: Vec<GraphEvent> = flatten_events(arrivals);
    let mut buf = Vec::new();
    let mut i = 0usize;
    let encode = bench_fn(slice, || {
        i += 1;
        buf.clear();
        encode_event(&events[i % events.len()], &mut buf);
        std::hint::black_box(buf.len());
    });
    let encoded: Vec<Vec<u8>> = events
        .iter()
        .map(|e| {
            let mut b = Vec::new();
            encode_event(e, &mut b);
            b
        })
        .collect();
    let mut i = 0usize;
    let decode = bench_fn(slice, || {
        i += 1;
        std::hint::black_box(decode_event(&encoded[i % encoded.len()]).is_ok());
    });

    let scratch = Scratch::new("probe-wal");
    let wal = ShardedWal::create(scratch.path(), 4).expect("probe WAL in scratch");
    let mut i = 0usize;
    let mut appended = 0u64;
    let append = bench_fn(slice, || {
        i += 1;
        appended += u64::from(wal.append(&events[i % events.len()]).is_ok());
    });
    let t = Instant::now();
    let synced = wal.sync().is_ok();
    let sync_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let replayed = replay_dir(scratch.path(), None).map_or(0, |r| r.events.len() as u64);
    let replay_s = t.elapsed().as_secs_f64();
    vec![
        metric(
            "ingest.encode_ns",
            "ns",
            encode,
            "encode_event over the arriving stream's mix",
        ),
        metric(
            "ingest.decode_ns",
            "ns",
            decode,
            "decode_event, same events",
        ),
        metric(
            "ingest.wal_append_ns",
            "ns",
            append,
            "ShardedWal::append, 4 shards, no sync",
        ),
        metric(
            "ingest.wal_sync_ms",
            "ms",
            if synced { sync_ms } else { f64::NAN },
            format!("ShardedWal::sync after {appended} appends, one call"),
        ),
        metric(
            "ingest.replay_events_per_s",
            "1/s",
            if replayed == appended {
                replayed as f64 / replay_s
            } else {
                f64::NAN
            },
            format!("replay_dir of {replayed} events, one call"),
        ),
    ]
}

fn store_probes(inp: &ProbeInputs, slice: Duration) -> Vec<Metric> {
    let dim = inp.graph.feature_dim();
    let scratch = Scratch::new("probe-store");
    let disk = Arc::new(
        DiskStore::open(scratch.path(), DiskStoreOptions::default())
            .expect("probe store in scratch"),
    );
    let row: Vec<u8> = (0..dim * 4).map(|i| i as u8).collect();
    let key = |i: usize| ((i % STORE_ROWS) as u64).to_be_bytes();

    // Put: the first STORE_ROWS calls fill the store the reads then hit.
    let mut i = 0usize;
    let put = bench_fn(slice, || {
        std::hint::black_box(disk.try_put(&key(i), &row).is_ok());
        i += 1;
    });
    for j in i..STORE_ROWS {
        let _ = disk.try_put(&key(j), &row);
    }
    let t = Instant::now();
    let sealed = disk.flush().is_ok() && disk.compact().is_ok() && disk.sync().is_ok();
    let seal_ms = t.elapsed().as_secs_f64() * 1e3;
    let st = disk.storage_stats();

    let mut x = mix(inp.seed, 23);
    let mut next_key = move || {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (x >> 20) as usize
    };
    let get = bench_fn(slice, || {
        std::hint::black_box(disk.try_get_with(&key(next_key()), &mut |v| {
            std::hint::black_box(v.len());
        }));
    });
    let scan = bench_fn(slice, || {
        let mut n = 0usize;
        disk.scan(&mut |_, v| n += v.len());
        std::hint::black_box(n);
    });

    // The same rows behind the FeatureStore API: disk-backed vs in-RAM.
    let dfs = FeatureStore::new(Arc::clone(&disk) as Arc<dyn KvStore>, dim);
    let ram = FeatureStore::new(Arc::new(ShardedStore::new(64)), dim);
    let floats = vec![0.25f32; dim];
    for j in 0..STORE_ROWS {
        ram.put_features(j, &floats);
    }
    let mut buf = vec![0f32; dim];
    let fill = bench_fn(slice, || {
        std::hint::black_box(dfs.fill_row(next_key() % STORE_ROWS, &mut buf));
    });
    let sharded = bench_fn(slice, || {
        std::hint::black_box(ram.fill_row(next_key() % STORE_ROWS, &mut buf));
    });
    vec![
        metric(
            "kvstore.fill_row_ns",
            "ns",
            fill,
            format!("FeatureStore::fill_row over DiskStore, {dim} f32, random keys"),
        ),
        metric(
            "kvstore.sharded_get_ns",
            "ns",
            sharded,
            "FeatureStore::fill_row over ShardedStore(64), same keys",
        ),
        metric(
            "diskstore.get_ns",
            "ns",
            get,
            format!(
                "DiskStore::try_get_with, {} sealed rows, mmap {}",
                st.segment_records, st.mmap_active
            ),
        ),
        metric(
            "diskstore.put_ns",
            "ns",
            put,
            format!(
                "DiskStore::try_put, {} B values (WAL + memtable)",
                row.len()
            ),
        ),
        metric(
            "diskstore.scan_rows_per_s",
            "1/s",
            st.segment_records as f64 / (scan / 1e9),
            "BlockStore::scan over the sealed segment",
        ),
        metric(
            "diskstore.flush_compact_ms",
            "ms",
            if sealed { seal_ms } else { f64::NAN },
            format!("flush + compact + sync of {STORE_ROWS} rows, one call"),
        ),
        metric(
            "diskstore.segment_bytes",
            "B",
            st.segment_bytes as f64,
            "storage_stats() after sealing, exact",
        ),
    ]
}

fn datagen_probes(inp: &ProbeInputs, slice: Duration) -> Vec<Metric> {
    let cfg = scaled_large_config(4_000, mix(inp.seed, 24));
    let mut rows = 0usize;
    let stream = bench_fn(slice, || {
        rows = 0;
        stream_records(&cfg, |r| {
            rows += 1;
            std::hint::black_box(record_features(&cfg, &r));
        });
    });
    let world = generate_log(&cfg);
    let mut n = 0usize;
    let events = bench_fn(slice, || {
        n = event_stream(&world, &cfg, 0).len();
    });
    vec![
        metric(
            "datagen.stream_rows_per_s",
            "1/s",
            rows as f64 / (stream / 1e9),
            format!("stream_records + record_features, {rows}-record world"),
        ),
        metric(
            "datagen.event_stream_per_s",
            "1/s",
            n as f64 / (events / 1e9),
            format!("event_stream, {n} arrivals"),
        ),
    ]
}

fn explain_probes(inp: &ProbeInputs, slice: Duration, ids: &[NodeId]) -> Vec<Metric> {
    let g = inp.graph;
    // The first few probe ids whose community is worth explaining.
    let communities: Vec<_> = ids
        .iter()
        .filter_map(|&v| community_of(g, v, 400).ok())
        .filter(|c| c.n_links() >= 5)
        .take(4)
        .collect();
    let explainer = GnnExplainer::new(inp.detector, ExplainerConfig::default());
    let mut i = 0usize;
    let mut last = Vec::new();
    let explain = bench(
        slice,
        1,
        || (),
        |()| {
            i += 1;
            if let Some(c) = communities.get(i % communities.len().max(1)) {
                last = explainer.explain_community(c).1;
            }
        },
    );
    let mut i = 0usize;
    let mut central = Vec::new();
    let centrality = bench_fn(slice, || {
        i += 1;
        if let Some(c) = communities.get(i % communities.len().max(1)) {
            let mut rng = batch_rng(setup::MODEL_SEED, 0xce17, 0, 0);
            central = community_edge_weights(&c.graph, Measure::EdgeBetweenness, &mut rng);
        }
    });
    let hybrid = HybridExplainer {
        a: 0.5,
        b: 0.5,
        fit: HybridFit::Grid,
    };
    let weights: Vec<f64> = (0..200).map(|k| (k % 17) as f64).collect();
    let combine = bench_fn(slice, || {
        std::hint::black_box(hybrid.combine(&weights, &weights));
    });

    let flat = FlatCsr::from_view(g).ok();
    let kcfg = KernelConfig::default();
    let pr = bench(
        slice,
        1,
        || (),
        |()| {
            std::hint::black_box(flat.as_ref().map(|f| pagerank(f, &kcfg).len()));
        },
    );
    let kcore = bench(
        slice,
        1,
        || (),
        |()| {
            std::hint::black_box(flat.as_ref().map(|f| core_numbers(f).len()));
        },
    );
    std::hint::black_box((&last, &central));
    vec![
        metric(
            "explain.gnnexplainer_ms",
            "ms",
            explain / 1e6,
            "GnnExplainer::explain_community, default config (100 epochs)",
        ),
        metric(
            "explain.centrality_ms",
            "ms",
            centrality / 1e6,
            "community_edge_weights, edge betweenness",
        ),
        metric(
            "explain.hybrid_combine_us",
            "us",
            combine / 1e3,
            "HybridExplainer::combine, 200 links",
        ),
        metric(
            "kernels.pagerank_ms",
            "ms",
            pr / 1e6,
            format!("pagerank over the whole {}-node graph", g.n_nodes()),
        ),
        metric(
            "kernels.kcore_ms",
            "ms",
            kcore / 1e6,
            "core_numbers over the same graph",
        ),
    ]
}
