//! The online scoring engine: micro-batched, cache-backed, near-real-time
//! transaction scoring — the serving half of the paper's production story
//! ("a near-real-time detector at eBay scale").
//!
//! Many caller threads call [`ScoringEngine::score`] concurrently; requests
//! land on one bounded queue and a batcher thread drains them in
//! *micro-batches* (the work-queue discipline of `xfraud_gnn::BatchEngine`,
//! turned from throughput-side training to latency-side serving). Within a
//! micro-batch duplicate transaction ids are deduplicated, so one forward
//! pass serves every caller asking about the same transaction, and each
//! unique id is resolved through two cache tiers:
//!
//! 1. a **score cache** — legal because an eval-mode forward pass is a pure
//!    function of `(weights, subgraph)`; invalidated when the detector is
//!    swapped ([`ScoringEngine::swap_detector`]) or the graph version moves;
//! 2. a **subgraph cache** of sampled ego-subgraphs keyed by
//!    `(node, sampler shape, graph version)` — sampling dominates scoring
//!    cost on sparse transaction graphs (Fig. 10), and the cached batch
//!    *survives* detector swaps, which is exactly what the incremental
//!    fine-tuning path (`xfraud_gnn::incremental`) needs: refresh weights
//!    weekly, keep the neighbourhoods.
//!
//! **Determinism contract:** for any number of callers, any micro-batch
//! size and any cache configuration, `score` returns exactly the bits of
//! the sequential reference [`score_one`] (and therefore of
//! `Pipeline::score_transaction`). This holds because the per-node sampling
//! RNG is derived from `(seed, SERVE stream, graph version, node)` — never
//! from arrival order — and eval-mode forwards draw nothing from the RNG.
//!
//! **Lock-free graph reads:** the live graph is published through an
//! [`EpochCell`] rather than guarded by a `RwLock`. Scoring pins the
//! current `(graph, version)` snapshot — two atomic stores, no lock, never
//! blocked by writers — while `apply_events`/`compact` build a successor
//! image off to the side and publish it; the old image is retired and freed
//! only after the last pinned reader drops. Ingest therefore never stalls
//! the scoring hot path, and a reader always observes an immutable,
//! internally consistent graph.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;

use xfraud_gnn::{batch_rng, predict_scores, streams, Sampler, SubgraphBatch, XFraudDetector};
use xfraud_hetgraph::{
    DeltaGraph, EpochCell, GraphEvent, GraphSnapshot, GraphView, HetGraph, NodeId, NodeType,
};
use xfraud_kvstore::FeatureStore;

use crate::cache::{CacheKey, ShardedLru};
use crate::error::ServeError;
use crate::metrics::{MetricsSnapshot, ServeMetrics};

/// The sequential serving contract: one transaction scored with no engine,
/// no queue and no cache. [`ScoringEngine::score`] is bit-identical to this
/// for every batching and caching configuration; the serving equivalence
/// property test pins that down.
pub fn score_one(
    detector: &XFraudDetector,
    g: &dyn GraphView,
    sampler: &(impl Sampler + ?Sized),
    seed: u64,
    version: u64,
    txn: NodeId,
) -> Result<f32, ServeError> {
    if txn >= g.n_nodes() {
        return Err(ServeError::UnknownNode(txn));
    }
    if g.node_type(txn) != NodeType::Txn {
        return Err(ServeError::NotATransaction(txn));
    }
    let mut rng = serve_rng(seed, version, txn);
    let batch = sampler.sample(g, &[txn], &mut rng);
    Ok(predict_scores(detector, &batch, &mut rng)[0])
}

/// The per-node sampling RNG of the serving path — a pure function of its
/// coordinates, so cached and freshly sampled subgraphs are interchangeable.
fn serve_rng(seed: u64, version: u64, node: NodeId) -> StdRng {
    batch_rng(seed, streams::SERVE, version, node as u64)
}

/// Engine tuning knobs (see [`ScoringEngineBuilder`] for the setters).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most requests coalesced into one micro-batch.
    pub max_batch: usize,
    /// Bounded request-queue depth; full queue back-pressures callers.
    pub queue_depth: usize,
    /// Threads scoring a micro-batch's unique ids in parallel (`0`/`1` =
    /// inline on the batcher thread). Pure wall-clock knob: per-id work is
    /// independent, so results are identical at any value.
    pub workers: usize,
    /// Subgraph-cache entry budget; `0` disables the tier.
    pub subgraph_cache: usize,
    /// Score-cache entry budget; `0` disables the tier.
    pub score_cache: usize,
    /// Lock stripes per cache tier.
    pub cache_shards: usize,
    /// Seed of the per-node sampling RNG streams.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            queue_depth: 1024,
            workers: 1,
            subgraph_cache: 4096,
            score_cache: 65536,
            cache_shards: 8,
            seed: 0,
        }
    }
}

struct Request {
    ids: Vec<NodeId>,
    reply: mpsc::Sender<Result<Vec<f32>, ServeError>>,
}

/// The unit the engine publishes through its [`EpochCell`]: one immutable
/// delta image tagged with the version it was published at. Readers pin the
/// cell and get both halves consistently, with no lock.
struct LiveGraph {
    graph: DeltaGraph,
    version: u64,
}

struct Shared {
    detector: RwLock<XFraudDetector>,
    /// The live graph: a frozen CSR base plus the streamed-in overlay,
    /// behind epoch-based reclamation. Readers (scoring) pin the current
    /// `(graph, version)` snapshot for the whole sample — never a lock, so
    /// writers cannot stall them; writers ([`ScoringEngine::apply_events`])
    /// clone the image, mutate the clone and publish it, and the superseded
    /// image is freed after its last pinned reader drops.
    graph: EpochCell<LiveGraph>,
    sampler: Box<dyn Sampler + Send + Sync>,
    features: Option<Arc<FeatureStore>>,
    subgraphs: Option<ShardedLru<Arc<SubgraphBatch>>>,
    scores: Option<ShardedLru<f32>>,
    metrics: ServeMetrics,
    cfg: ServeConfig,
}

impl Shared {
    /// Samples `node`'s ego-subgraph, rehydrating feature rows from the
    /// feature store when one is attached (the production tier where
    /// features live outside the graph image; see [`preload_features`]).
    fn sample(&self, graph: &DeltaGraph, node: NodeId, version: u64) -> SubgraphBatch {
        let mut rng = serve_rng(self.cfg.seed, version, node);
        let mut batch = self.sampler.sample(graph, &[node], &mut rng);
        if let Some(fs) = &self.features {
            for i in 0..batch.n_nodes() {
                if batch.node_types[i] == NodeType::Txn {
                    let global = batch.global_ids[i];
                    fs.fill_row(global, batch.features.row_mut(i));
                }
            }
        }
        batch
    }

    /// Scores one unique id through both cache tiers. The graph is read
    /// through an epoch pin — no lock, and the pinned `(graph, version)`
    /// pair is consistent even while ingest publishes successors.
    fn score_unique(&self, detector: &XFraudDetector, node: NodeId) -> Result<f32, ServeError> {
        let live = self.graph.pin();
        let version = live.version;
        if node >= live.graph.n_nodes() {
            return Err(ServeError::UnknownNode(node));
        }
        if live.graph.node_type(node) != NodeType::Txn {
            return Err(ServeError::NotATransaction(node));
        }
        let key = CacheKey {
            node,
            shape: self.sampler.shape_key(),
            version,
        };
        if let Some(scores) = &self.scores {
            if let Some(s) = scores.get(&key) {
                return Ok(s);
            }
        }
        let batch = match &self.subgraphs {
            Some(cache) => match cache.get(&key) {
                Some(b) => b,
                None => {
                    let b = Arc::new(self.sample(&live.graph, node, version));
                    cache.insert(key, Arc::clone(&b));
                    b
                }
            },
            None => Arc::new(self.sample(&live.graph, node, version)),
        };
        drop(live); // the forward pass needs the batch, not the graph
                    // Fresh derivation, untouched on the cached path: eval-mode
                    // forwards draw nothing from it, so hit and miss paths agree.
        let mut rng = serve_rng(self.cfg.seed, version, node);
        let score = predict_scores(detector, &batch, &mut rng)[0];
        if let Some(scores) = &self.scores {
            scores.insert(key, score);
        }
        Ok(score)
    }

    /// Resolves one drained micro-batch and answers every caller in it.
    fn process(&self, reqs: Vec<Request>) {
        let mut unique: Vec<NodeId> = reqs.iter().flat_map(|r| r.ids.iter().copied()).collect();
        let total = unique.len();
        unique.sort_unstable();
        unique.dedup();

        // One detector view for the whole micro-batch: a concurrent
        // `swap_detector` lands between batches, never inside one.
        let detector = self.detector.read();
        let results: Vec<Result<f32, ServeError>> = if self.cfg.workers > 1 && unique.len() > 1 {
            let next = AtomicUsize::new(0);
            let out: Mutex<Vec<(usize, Result<f32, ServeError>)>> =
                Mutex::new(Vec::with_capacity(unique.len()));
            std::thread::scope(|scope| {
                for _ in 0..self.cfg.workers.min(unique.len()) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= unique.len() {
                            break;
                        }
                        let r = self.score_unique(&detector, unique[i]);
                        out.lock().push((i, r));
                    });
                }
            });
            let mut collected = out.into_inner();
            collected.sort_by_key(|&(i, _)| i);
            collected.into_iter().map(|(_, r)| r).collect()
        } else {
            unique
                .iter()
                .map(|&n| self.score_unique(&detector, n))
                .collect()
        };
        drop(detector);

        self.metrics.observe_batch(reqs.len(), total);
        for req in reqs {
            let scores: Result<Vec<f32>, ServeError> = req
                .ids
                .iter()
                .map(|id| {
                    let at = unique.binary_search(id).map_err(|_| {
                        ServeError::Internal("request id missing from scored batch")
                    })?;
                    results[at].clone()
                })
                .collect();
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a caller that gave up (dropped its receiver) is not an error"
            )]
            let _ = req.reply.send(scores);
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let (sh, sm, se) = match &self.subgraphs {
            Some(c) => (c.hits(), c.misses(), c.len()),
            None => (0, 0, 0),
        };
        let (ch, cm, ce) = match &self.scores {
            Some(c) => (c.hits(), c.misses(), c.len()),
            None => (0, 0, 0),
        };
        self.metrics.snapshot(sh, sm, se, ch, cm, ce)
    }
}

/// Builder for [`ScoringEngine`] — the same typed-setter / validating
/// `build()` surface as `PipelineConfig::builder()`.
pub struct ScoringEngineBuilder {
    detector: XFraudDetector,
    graph: HetGraph,
    sampler: Box<dyn Sampler + Send + Sync>,
    features: Option<Arc<FeatureStore>>,
    cfg: ServeConfig,
}

impl ScoringEngineBuilder {
    pub fn new(
        detector: XFraudDetector,
        graph: HetGraph,
        sampler: Box<dyn Sampler + Send + Sync>,
    ) -> Self {
        ScoringEngineBuilder {
            detector,
            graph,
            sampler,
            features: None,
            cfg: ServeConfig::default(),
        }
    }

    /// Most requests coalesced into one micro-batch (≥ 1).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.cfg.max_batch = n;
        self
    }

    /// Bounded request-queue depth (≥ 1); a full queue blocks callers.
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.cfg.queue_depth = n;
        self
    }

    /// Compute threads per micro-batch; identical results at any value.
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Subgraph-cache entry budget (`0` disables the tier).
    pub fn subgraph_cache(mut self, entries: usize) -> Self {
        self.cfg.subgraph_cache = entries;
        self
    }

    /// Score-cache entry budget (`0` disables the tier).
    pub fn score_cache(mut self, entries: usize) -> Self {
        self.cfg.score_cache = entries;
        self
    }

    /// Disables both cache tiers (the cold baseline; `perf/run.sh`'s
    /// `wire_cold` workload serves through it).
    pub fn no_cache(mut self) -> Self {
        self.cfg.subgraph_cache = 0;
        self.cfg.score_cache = 0;
        self
    }

    /// Lock stripes per cache tier (≥ 1).
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cfg.cache_shards = shards;
        self
    }

    /// Seed of the per-node sampling RNG streams. Engines built from a
    /// `Pipeline` inherit its model seed so the equivalence contract holds.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Serves feature rows from a KV-backed [`FeatureStore`] instead of the
    /// graph image (see [`preload_features`]). The store must agree with
    /// the graph for the equivalence contract to hold.
    pub fn feature_store(mut self, fs: Arc<FeatureStore>) -> Self {
        self.features = Some(fs);
        self
    }

    /// Validates the configuration and spawns the engine's batcher thread.
    pub fn build(self) -> Result<ScoringEngine, ServeError> {
        let cfg = &self.cfg;
        if cfg.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be ≥ 1".into()));
        }
        if cfg.queue_depth == 0 {
            return Err(ServeError::InvalidConfig("queue_depth must be ≥ 1".into()));
        }
        if cfg.cache_shards == 0 {
            return Err(ServeError::InvalidConfig("cache_shards must be ≥ 1".into()));
        }
        let det_dim = self.detector.cfg.feature_dim;
        let g_dim = self.graph.feature_dim();
        if det_dim != g_dim {
            return Err(ServeError::DetectorMismatch {
                detector_dim: det_dim,
                graph_dim: g_dim,
            });
        }
        if let Some(fs) = &self.features {
            if fs.dim() != g_dim {
                return Err(ServeError::InvalidConfig(format!(
                    "feature store dim {} != graph feature dim {}",
                    fs.dim(),
                    g_dim
                )));
            }
        }

        let shared = Arc::new(Shared {
            detector: RwLock::new(self.detector),
            graph: EpochCell::new(LiveGraph {
                graph: DeltaGraph::new(Arc::new(self.graph)),
                version: 0,
            }),
            sampler: self.sampler,
            features: self.features,
            subgraphs: (self.cfg.subgraph_cache > 0)
                .then(|| ShardedLru::new(self.cfg.subgraph_cache, self.cfg.cache_shards)),
            scores: (self.cfg.score_cache > 0)
                .then(|| ShardedLru::new(self.cfg.score_cache, self.cfg.cache_shards)),
            metrics: ServeMetrics::new(),
            cfg: self.cfg,
        });

        let (tx, rx) = mpsc::sync_channel::<Request>(shared.cfg.queue_depth);
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("xfraud-serve-batcher".into())
            .spawn(move || {
                while let Ok(first) = rx.recv() {
                    let mut reqs = vec![first];
                    while reqs.len() < worker_shared.cfg.max_batch {
                        match rx.try_recv() {
                            Ok(r) => reqs.push(r),
                            Err(_) => break,
                        }
                    }
                    worker_shared.process(reqs);
                }
            })
            .map_err(|e| ServeError::WorkerSpawn(e.to_string()))?;

        Ok(ScoringEngine {
            shared,
            tx: Some(tx),
            worker: Some(worker),
        })
    }
}

/// The engine. Shareable across caller threads by reference; dropping it
/// shuts the batcher down after in-flight requests drain.
pub struct ScoringEngine {
    shared: Arc<Shared>,
    tx: Option<mpsc::SyncSender<Request>>,
    worker: Option<JoinHandle<()>>,
}

impl ScoringEngine {
    /// Entry point mirroring [`ScoringEngineBuilder::new`].
    pub fn builder(
        detector: XFraudDetector,
        graph: HetGraph,
        sampler: Box<dyn Sampler + Send + Sync>,
    ) -> ScoringEngineBuilder {
        ScoringEngineBuilder::new(detector, graph, sampler)
    }

    /// Scores a slice of transaction ids. Blocks until the batcher answers;
    /// concurrent calls from many threads are coalesced into micro-batches.
    /// Any invalid id fails the whole request with a typed error.
    ///
    /// Bit-identical to calling [`score_one`] per id, whatever the
    /// concurrency, batch or cache configuration.
    pub fn score(&self, ids: &[NodeId]) -> Result<Vec<f32>, ServeError> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let tx = self.tx.as_ref().ok_or(ServeError::Shutdown)?;
        // xlint: allow(d2, reason = "wall-clock latency telemetry only; never feeds a score")
        let started = Instant::now();
        let (reply, rx) = mpsc::channel();
        tx.send(Request {
            ids: ids.to_vec(),
            reply,
        })
        .map_err(|_| ServeError::Shutdown)?;
        let result = rx.recv().map_err(|_| ServeError::Shutdown)?;
        self.shared.metrics.observe_latency(started.elapsed());
        result
    }

    /// Convenience: scores one transaction.
    pub fn score_txn(&self, txn: NodeId) -> Result<f32, ServeError> {
        Ok(self.score(&[txn])?[0])
    }

    /// Swaps in freshly fine-tuned detector weights (the incremental-update
    /// path of `xfraud_gnn::incremental`): the score cache is dropped — the
    /// pure function it memoised changed — while cached subgraphs survive,
    /// because the graph did not move.
    pub fn swap_detector(&self, detector: XFraudDetector) -> Result<(), ServeError> {
        let g_dim = self.shared.graph.pin().graph.feature_dim();
        if detector.cfg.feature_dim != g_dim {
            return Err(ServeError::DetectorMismatch {
                detector_dim: detector.cfg.feature_dim,
                graph_dim: g_dim,
            });
        }
        let mut slot = self.shared.detector.write();
        *slot = detector;
        // Clear while still holding the write lock: every pre-swap batch
        // finished its inserts before we acquired it, and no post-swap
        // batch can read the cache until we release it — so a reader can
        // never mix surviving old-detector entries with fresh scores.
        if let Some(scores) = &self.shared.scores {
            scores.clear();
        }
        drop(slot);
        Ok(())
    }

    /// Invalidates one transaction's cached artefacts (both tiers) — the
    /// hook for "this node's neighbourhood changed" in an incremental graph
    /// update. Returns the number of entries dropped.
    pub fn invalidate_transaction(&self, txn: NodeId) -> usize {
        let mut dropped = 0;
        if let Some(c) = &self.shared.subgraphs {
            dropped += c.invalidate_node(txn);
        }
        if let Some(c) = &self.shared.scores {
            dropped += c.invalidate_node(txn);
        }
        dropped
    }

    /// Advances the graph version: a re-tagged snapshot is published, every
    /// cached subgraph and score becomes unreachable (and is dropped), and
    /// subsequent sampling RNG streams are re-keyed — the hook for "a new
    /// graph snapshot was swapped in". Returns the new version.
    pub fn bump_graph_version(&self) -> u64 {
        let v = self.shared.graph.update(|cur| {
            let version = cur.version + 1;
            (
                LiveGraph {
                    graph: cur.graph.clone(),
                    version,
                },
                version,
            )
        });
        if let Some(c) = &self.shared.subgraphs {
            c.clear();
        }
        if let Some(c) = &self.shared.scores {
            c.clear();
        }
        v
    }

    /// Current graph version (starts at 0).
    pub fn graph_version(&self) -> u64 {
        self.shared.graph.pin().version
    }

    /// An owned, shareable image of the live graph at its current version —
    /// the [`GraphView::snapshot`] surface of the engine, for callers (e.g.
    /// kernels, audits) that want a stable graph beyond one pinned read.
    pub fn graph_snapshot(&self) -> GraphSnapshot {
        let live = self.shared.graph.pin();
        GraphView::snapshot(&live.graph).at_version(live.version)
    }

    /// Appends a batch of streamed-in [`GraphEvent`]s to the live graph —
    /// the consumer end of the ingestion pipeline (`xfraud-ingest` WAL,
    /// `xfraud_datagen::event_stream`). Returns the node ids assigned to
    /// the batch's `AddTxn` events, ready to be scored on arrival.
    ///
    /// The whole batch is applied to a private clone of the live image and
    /// published atomically with a bumped version: scoring reads pinned to
    /// the pre-batch snapshot finish against it undisturbed, and every read
    /// that starts after the publish sees the post-batch graph and version
    /// together. Cached subgraphs and scores sampled against the pre-batch
    /// graph can never serve a post-batch request (cache keys carry the
    /// version), and both tiers are dropped eagerly. When a feature store is
    /// attached, new transactions' feature rows are written through to it
    /// before the batch becomes visible.
    ///
    /// On a rejected event the error is returned and the batch stops
    /// there; previously applied events of the batch remain (the overlay is
    /// append-only) and the version still advances.
    pub fn apply_events(&self, events: &[GraphEvent]) -> Result<Vec<NodeId>, ServeError> {
        if events.is_empty() {
            return Ok(Vec::new());
        }
        let (new_txns, failure) = self.shared.graph.update(|cur| {
            let mut graph = cur.graph.clone();
            let mut new_txns = Vec::new();
            let mut failure = None;
            for event in events {
                match graph.apply(event) {
                    Ok(assigned) => {
                        if let (Some(id), GraphEvent::AddTxn { features, .. }) = (assigned, event) {
                            if let Some(fs) = &self.shared.features {
                                fs.put_features(id, features);
                            }
                            new_txns.push(id);
                        }
                    }
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            let version = cur.version + 1;
            (LiveGraph { graph, version }, (new_txns, failure))
        });
        // Entries keyed by the pre-batch version are unreachable now; drop
        // them eagerly rather than letting them age out of the LRU.
        if let Some(c) = &self.shared.subgraphs {
            c.clear();
        }
        if let Some(c) = &self.shared.scores {
            c.clear();
        }
        match failure {
            Some(e) => Err(e.into()),
            None => Ok(new_txns),
        }
    }

    /// Folds the streamed-in overlay into a fresh frozen CSR base
    /// (`DeltaGraph::compact`). Purely a representation change — the view
    /// is bit-identical before and after — so the graph version does *not*
    /// move and cached subgraphs/scores stay valid. The compacted image is
    /// published like any other write; pinned readers drain on the overlay
    /// image and the epoch scheme frees it after the last one drops.
    pub fn compact(&self) -> Result<(), ServeError> {
        if self.shared.graph.pin().graph.is_compact() {
            return Ok(());
        }
        self.shared.graph.update(|cur| {
            let version = cur.version;
            match cur.graph.compact() {
                Ok(frozen) => (
                    LiveGraph {
                        graph: DeltaGraph::new(Arc::new(frozen)),
                        version,
                    },
                    Ok(()),
                ),
                Err(e) => (
                    LiveGraph {
                        graph: cur.graph.clone(),
                        version,
                    },
                    Err(e.into()),
                ),
            }
        })
    }

    /// `(overlay nodes, overlay directed edges)` accumulated since the last
    /// compaction — the "how big has the delta grown" gauge a compaction
    /// policy watches.
    pub fn overlay_stats(&self) -> (usize, usize) {
        let live = self.shared.graph.pin();
        (live.graph.n_overlay_nodes(), live.graph.n_overlay_edges())
    }

    /// Total nodes currently in the live graph (base + overlay).
    pub fn n_nodes(&self) -> usize {
        self.shared.graph.pin().graph.n_nodes()
    }

    /// Superseded graph images retired but not yet freed (they drain as
    /// pinned readers drop) — observability for the epoch scheme.
    pub fn retired_graphs(&self) -> usize {
        self.shared.graph.retired_len()
    }

    /// Point-in-time counters: requests, batch sizes, per-tier cache hit
    /// rates, p50/p99 latency.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Pre-warms the caches by scoring `ids` once through the engine.
    pub fn warm(&self, ids: &[NodeId]) -> Result<(), ServeError> {
        for chunk in ids.chunks(self.shared.cfg.max_batch.max(1)) {
            self.score(chunk)?;
        }
        Ok(())
    }
}

impl Drop for ScoringEngine {
    fn drop(&mut self) {
        drop(self.tx.take()); // hang up: the batcher drains and exits
        if let Some(worker) = self.worker.take() {
            if let Err(panic) = worker.join() {
                // A panicked batcher means every cached score is suspect;
                // re-raise unless we are already unwinding from one.
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

/// Copies every transaction feature row of `g` into `fs` keyed by global
/// node id — the setup step for serving features out of the KV tier
/// (entity nodes stay absent and read back as zeros, matching the graph).
pub fn preload_features(fs: &FeatureStore, g: &HetGraph) {
    for v in 0..g.n_nodes() {
        if let Some(row) = g.feature_row_of(v) {
            fs.put_features(v, g.features().row(row));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfraud_datagen::{Dataset, DatasetPreset};
    use xfraud_gnn::{CommunitySampler, DetectorConfig, SageSampler};
    use xfraud_kvstore::ShardedStore;

    fn setup() -> (XFraudDetector, HetGraph, Vec<NodeId>) {
        let g = Dataset::generate(DatasetPreset::EbaySmallSim, 17).graph;
        let detector = XFraudDetector::new(DetectorConfig {
            feature_dim: g.feature_dim(),
            hidden: 16,
            heads: 2,
            layers: 1,
            dropout: 0.0,
            per_type_projections: false,
            seed: 3,
        });
        let txns: Vec<NodeId> = g
            .labeled_txns()
            .into_iter()
            .map(|(v, _)| v)
            .take(24)
            .collect();
        (detector, g, txns)
    }

    fn engine(detector: &XFraudDetector, g: &HetGraph) -> ScoringEngineBuilder {
        ScoringEngine::builder(
            detector.clone(),
            g.clone(),
            Box::new(CommunitySampler::new(400)),
        )
        .seed(9)
    }

    #[test]
    fn engine_matches_sequential_reference_with_and_without_caches() {
        let (detector, g, txns) = setup();
        let sampler = CommunitySampler::new(400);
        let reference: Vec<f32> = txns
            .iter()
            .map(|&t| score_one(&detector, &g, &sampler, 9, 0, t).unwrap())
            .collect();

        let cached = engine(&detector, &g).build().unwrap();
        let cold = engine(&detector, &g).no_cache().build().unwrap();
        assert_eq!(cached.score(&txns).unwrap(), reference);
        assert_eq!(cached.score(&txns).unwrap(), reference, "warm pass");
        assert_eq!(cold.score(&txns).unwrap(), reference);
        let m = cached.metrics();
        assert!(m.score_hits > 0, "second pass must hit the score cache");
    }

    #[test]
    fn engine_is_equivalent_under_a_sage_sampler_too() {
        let (detector, g, txns) = setup();
        let sampler = SageSampler::new(2, 6);
        let reference: Vec<f32> = txns
            .iter()
            .map(|&t| score_one(&detector, &g, &sampler, 9, 0, t).unwrap())
            .collect();
        let eng = ScoringEngine::builder(detector, g, Box::new(SageSampler::new(2, 6)))
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(eng.score(&txns).unwrap(), reference);
    }

    #[test]
    fn concurrent_callers_each_get_their_own_correct_scores() {
        let (detector, g, txns) = setup();
        let sampler = CommunitySampler::new(400);
        let reference: Vec<f32> = txns
            .iter()
            .map(|&t| score_one(&detector, &g, &sampler, 9, 0, t).unwrap())
            .collect();
        let eng = engine(&detector, &g).max_batch(8).build().unwrap();
        std::thread::scope(|scope| {
            for caller in 0..6usize {
                let eng = &eng;
                let txns = &txns;
                let reference = &reference;
                scope.spawn(move || {
                    // Each caller scores a rotated view, twice.
                    let ids: Vec<NodeId> = txns
                        .iter()
                        .cycle()
                        .skip(caller * 3)
                        .take(txns.len())
                        .copied()
                        .collect();
                    let want: Vec<f32> = (0..txns.len())
                        .map(|i| reference[(caller * 3 + i) % txns.len()])
                        .collect();
                    for _ in 0..2 {
                        assert_eq!(eng.score(&ids).unwrap(), want, "caller {caller}");
                    }
                });
            }
        });
        let m = eng.metrics();
        assert_eq!(m.requests, 12);
        assert!(m.batches <= m.requests);
    }

    #[test]
    fn invalid_ids_fail_the_request_with_typed_errors() {
        let (detector, g, txns) = setup();
        let eng = engine(&detector, &g).build().unwrap();
        let bogus = g.n_nodes() + 5;
        assert_eq!(
            eng.score(&[txns[0], bogus]),
            Err(ServeError::UnknownNode(bogus))
        );
        // An entity node exists but is not scoreable.
        let entity = (0..g.n_nodes())
            .find(|&v| g.node_type(v) != NodeType::Txn)
            .expect("graph has entities");
        assert_eq!(
            eng.score(&[entity]),
            Err(ServeError::NotATransaction(entity))
        );
        // Earlier failures don't poison later valid requests.
        assert_eq!(eng.score(&[txns[0]]).unwrap().len(), 1);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        let (detector, g, _) = setup();
        assert!(matches!(
            engine(&detector, &g).max_batch(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            engine(&detector, &g).queue_depth(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            engine(&detector, &g).cache_shards(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        let wrong = XFraudDetector::new(DetectorConfig::small(g.feature_dim() + 1, 0));
        assert!(matches!(
            ScoringEngine::builder(wrong, g.clone(), Box::new(CommunitySampler::new(10))).build(),
            Err(ServeError::DetectorMismatch { .. })
        ));
    }

    #[test]
    fn swap_detector_clears_scores_but_keeps_subgraphs() {
        let (detector, g, txns) = setup();
        let eng = engine(&detector, &g).build().unwrap();
        let before = eng.score(&txns).unwrap();
        let warm_subgraphs = eng.metrics().subgraph_entries;
        assert!(warm_subgraphs > 0);

        let retrained = XFraudDetector::new(DetectorConfig {
            feature_dim: g.feature_dim(),
            hidden: 16,
            heads: 2,
            layers: 1,
            dropout: 0.0,
            per_type_projections: false,
            seed: 4, // different init = different weights
        });
        let reference: Vec<f32> = {
            let sampler = CommunitySampler::new(400);
            txns.iter()
                .map(|&t| score_one(&retrained, &g, &sampler, 9, 0, t).unwrap())
                .collect()
        };
        eng.swap_detector(retrained).unwrap();
        let m = eng.metrics();
        assert_eq!(m.score_entries, 0, "score cache cleared");
        assert_eq!(
            m.subgraph_entries, warm_subgraphs,
            "subgraph cache survives the swap"
        );
        let after = eng.score(&txns).unwrap();
        assert_eq!(after, reference, "new weights serve immediately");
        assert_ne!(before, after);
        // Dimension mismatch is rejected before touching the live slot.
        let wrong = XFraudDetector::new(DetectorConfig::small(g.feature_dim() + 2, 0));
        assert!(eng.swap_detector(wrong).is_err());
    }

    /// A hot-swap must reach the tape-free scoring path: the engine's next
    /// scores are the *new* detector's tape scores, bit for bit — computed
    /// on a scorer thread whose scratch arena the old detector sized.
    #[test]
    fn swapped_detector_serves_its_own_tape_scores() {
        use xfraud_gnn::{train_step, Masks, Model};
        use xfraud_nn::{AdamW, Session};

        let (detector, g, txns) = setup();
        let eng = engine(&detector, &g).no_cache().build().unwrap();
        eng.score(&txns).unwrap();

        let mut retrained = XFraudDetector::new(DetectorConfig {
            hidden: 24,
            heads: 3,
            layers: 2,
            seed: 4,
            ..detector.cfg.clone()
        });
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        let train_batch = SageSampler::new(2, 6).sample(&g, &txns, &mut rng);
        let mut opt = AdamW::new(1e-2);
        for _ in 0..3 {
            train_step(&mut retrained, &train_batch, &mut opt, &mut rng);
        }
        let sampler = CommunitySampler::new(400);
        let tape: Vec<u32> = txns
            .iter()
            .map(|&t| {
                let mut rng = serve_rng(9, 0, t);
                let batch = sampler.sample(&g, &[t], &mut rng);
                let mut sess = Session::new();
                let logits = retrained.forward(&mut sess, &batch, false, &mut rng, &Masks::none());
                xfraud_tensor::softmax_rows(sess.tape.value(logits))
                    .get(0, 1)
                    .to_bits()
            })
            .collect();

        eng.swap_detector(retrained).unwrap();
        let served: Vec<u32> = eng
            .score(&txns)
            .unwrap()
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(served, tape);
    }

    #[test]
    fn invalidation_hooks_force_recomputation() {
        let (detector, g, txns) = setup();
        let eng = engine(&detector, &g).build().unwrap();
        let first = eng.score(&txns).unwrap();
        let t = txns[0];
        assert!(eng.invalidate_transaction(t) >= 1);
        assert_eq!(eng.invalidate_transaction(t), 0, "already gone");
        let again = eng.score(&[t]).unwrap();
        assert_eq!(again[0], first[0], "same graph version ⇒ same score");

        let v = eng.bump_graph_version();
        assert_eq!(v, 1);
        assert_eq!(eng.graph_version(), 1);
        let m = eng.metrics();
        assert_eq!((m.subgraph_entries, m.score_entries), (0, 0));
        // Rescoring works at the new version (RNG-free sampler ⇒ equal).
        assert_eq!(eng.score(&[t]).unwrap()[0], first[0]);
    }

    #[test]
    fn feature_store_backed_engine_matches_graph_backed_scores() {
        let (detector, g, txns) = setup();
        let fs = Arc::new(FeatureStore::new(
            Arc::new(ShardedStore::new(8)),
            g.feature_dim(),
        ));
        preload_features(&fs, &g);
        let plain = engine(&detector, &g).build().unwrap();
        let kv = engine(&detector, &g).feature_store(fs).build().unwrap();
        assert_eq!(kv.score(&txns).unwrap(), plain.score(&txns).unwrap());
    }

    #[test]
    fn streamed_events_are_scoreable_on_arrival() {
        let (detector, g, txns) = setup();
        let eng = engine(&detector, &g).build().unwrap();
        let before = eng.score(&txns).unwrap();

        // A new transaction arrives, linked to an existing payment token.
        let entity = (0..g.n_nodes())
            .find(|&v| g.node_type(v) == NodeType::Pmt)
            .expect("graph has pmt entities");
        let new_id = eng.n_nodes();
        let arrived = eng
            .apply_events(&[
                GraphEvent::AddTxn {
                    features: vec![0.1; g.feature_dim()],
                    label: None,
                },
                GraphEvent::Link {
                    a: new_id,
                    b: entity,
                },
            ])
            .unwrap();
        assert_eq!(arrived, vec![new_id]);
        assert_eq!(eng.graph_version(), 1, "ingest drives the version hook");
        assert_eq!(eng.metrics().subgraph_entries, 0, "caches invalidated");

        let on_arrival = eng.score_txn(new_id).unwrap();
        assert!(on_arrival.is_finite());
        // Pre-existing transactions still score identically: the sampler is
        // RNG-free, and their neighbourhoods did not change.
        assert_eq!(eng.score(&txns).unwrap(), before);

        // Compaction is a pure representation change: no version bump, no
        // score movement, overlay folded away.
        assert!(eng.overlay_stats().0 >= 1);
        eng.compact().unwrap();
        assert_eq!(eng.overlay_stats(), (0, 0));
        assert_eq!(eng.graph_version(), 1);
        assert_eq!(eng.score_txn(new_id).unwrap(), on_arrival);
        assert_eq!(eng.score(&txns).unwrap(), before);
    }

    #[test]
    fn rejected_events_surface_as_typed_errors() {
        let (detector, g, _) = setup();
        let eng = engine(&detector, &g).build().unwrap();
        let bogus = eng.n_nodes() + 10;
        let err = eng
            .apply_events(&[GraphEvent::Link { a: bogus, b: 0 }])
            .unwrap_err();
        assert!(matches!(err, ServeError::Graph(_)));
        // Empty batches are free: no version bump, no cache churn.
        let v = eng.graph_version();
        assert_eq!(eng.apply_events(&[]).unwrap(), Vec::<NodeId>::new());
        assert_eq!(eng.graph_version(), v);
    }

    /// Hostile input: a NaN feature is refused at the graph boundary, so it
    /// never reaches a forward pass (where the fast path and the tape agree
    /// only on finite values), and transactions already in the graph keep
    /// their score bits.
    #[test]
    fn non_finite_streamed_features_are_rejected_and_scores_keep_their_bits() {
        let (detector, g, txns) = setup();
        let eng = engine(&detector, &g).no_cache().build().unwrap();
        let bits = |scores: Vec<f32>| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let before = bits(eng.score(&txns).unwrap());

        let index = g.feature_dim() - 1;
        let mut features = vec![0.1; g.feature_dim()];
        features[index] = f32::NAN;
        let err = eng
            .apply_events(&[GraphEvent::AddTxn {
                features,
                label: None,
            }])
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::Graph(xfraud_hetgraph::GraphError::NonFiniteFeature { index })
        );
        assert_eq!(eng.overlay_stats(), (0, 0), "the row never landed");
        assert_eq!(bits(eng.score(&txns).unwrap()), before);
    }

    /// A transaction streamed in with no `Link` is a zero-degree target: its
    /// community is the node alone, so the forward pass runs on a 1-node,
    /// 0-edge subgraph. It must still score finitely, equal the tape-free
    /// forward on that community bit for bit, keep its bits across
    /// compaction, and dedupe inside a request without disturbing its
    /// neighbours' scores.
    #[test]
    fn zero_degree_streamed_txn_scores_its_one_node_community() {
        let (detector, g, txns) = setup();
        let eng = engine(&detector, &g).no_cache().build().unwrap();
        let lone = eng
            .apply_events(&[GraphEvent::AddTxn {
                features: vec![0.1; g.feature_dim()],
                label: None,
            }])
            .unwrap()[0];
        let score = eng.score_txn(lone).unwrap();
        assert!(score.is_finite());

        let mut rng = serve_rng(9, eng.graph_version(), lone);
        let community = CommunitySampler::new(400).sample(&eng.graph_snapshot(), &[lone], &mut rng);
        assert_eq!((community.n_nodes(), community.n_edges()), (1, 0));
        let reference = predict_scores(&detector, &community, &mut rng)[0];
        assert_eq!(score.to_bits(), reference.to_bits());

        eng.compact().unwrap();
        assert_eq!(eng.score_txn(lone).unwrap().to_bits(), score.to_bits());

        let normal = txns[0];
        let alone = eng.score_txn(normal).unwrap().to_bits();
        let mixed: Vec<u32> = eng
            .score(&[lone, normal, lone, lone])
            .unwrap()
            .iter()
            .map(|s| s.to_bits())
            .collect();
        let lone_bits = score.to_bits();
        assert_eq!(mixed, [lone_bits, alone, lone_bits, lone_bits]);
    }

    #[test]
    fn worker_crew_size_does_not_change_scores() {
        let (detector, g, txns) = setup();
        let one = engine(&detector, &g).workers(1).build().unwrap();
        let four = engine(&detector, &g).workers(4).build().unwrap();
        assert_eq!(one.score(&txns).unwrap(), four.score(&txns).unwrap());
    }
}
