//! What every workload's set-up shares: the pinned thread counts, the fixed
//! dataset and detector recipe, scratch directories inside the checkout,
//! and the set-up clock.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use xfraud::datagen::{Dataset, DatasetPreset};
use xfraud::gnn::{
    train_test_split, DetectorConfig, SageSampler, Sampler, TrainConfig, Trainer, XFraudDetector,
};
use xfraud::hetgraph::NodeId;
use xfraud::netserve::ServerConfig;
use xfraud::{Pipeline, PipelineConfig};

use crate::stats;

/// The dataset and model are part of the benchmark's definition, not of a
/// run: `--seed` moves the request streams, never the graph or the weights.
pub const DATA_SEED: u64 = 7;
pub const MODEL_SEED: u64 = 1;

/// Pinned thread counts (sized for the 2-core sandbox; echoed in the output).
pub const TRAIN_WORKERS: usize = 2;
pub const ENGINE_WORKERS: usize = 1;
pub const SERVER_WORKERS: usize = 2;
pub const SERVER_SCORE_THREADS: usize = 2;

/// Transactions the serving detector is trained on, in steps of
/// [`FIXTURE_BATCH`]: one short epoch, enough that activations carry trained
/// sparsity (`matmul` skips zeros) and held-out AUC clears 0.7.
const FIXTURE_TRAIN_TXNS: usize = 1024;
const FIXTURE_BATCH: usize = 64;

pub fn pinned_line() -> String {
    format!(
        "pinned: nproc {} | senders/connections {} | TrainConfig::num_workers {TRAIN_WORKERS} | \
         ServeConfig::workers {ENGINE_WORKERS} | ServerConfig {{ workers: {SERVER_WORKERS}, \
         score_threads: {SERVER_SCORE_THREADS} }} | data seed {DATA_SEED}, model seed {MODEL_SEED} | \
         every workload confined to one CPU",
        crate::load::n_senders(),
        crate::load::n_senders(),
    )
}

pub fn train_config(batch_size: usize) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size,
        seed: MODEL_SEED,
        num_workers: TRAIN_WORKERS,
        ..TrainConfig::default()
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: SERVER_WORKERS,
        score_threads: SERVER_SCORE_THREADS,
        ..ServerConfig::default()
    }
}

/// The serving fixture: the large preset, split like `Pipeline::run` splits
/// it, and a detector trained for one short epoch. Assembled field by field
/// because `Pipeline::run` would train on the whole split (≈ 13 s here).
pub fn serving_pipeline() -> Pipeline {
    let train = train_config(FIXTURE_BATCH);
    let cfg = PipelineConfig::builder()
        .preset(DatasetPreset::EbayLargeSim)
        .data_seed(DATA_SEED)
        .model_seed(MODEL_SEED)
        .train(train.clone())
        .build()
        .expect("the fixture config is in range");
    let dataset = Dataset::generate(cfg.preset, cfg.data_seed);
    let (train_nodes, test_nodes) =
        train_test_split(&dataset.graph, cfg.test_fraction, cfg.data_seed ^ 0x5711);
    let mut detector = XFraudDetector::new(DetectorConfig::small(
        dataset.graph.feature_dim(),
        MODEL_SEED,
    ));
    let sampler: Arc<dyn Sampler + Send + Sync> =
        Arc::new(SageSampler::new(cfg.sage_hops, cfg.sage_per_hop));
    let history = Trainer::new(train).fit(
        &mut detector,
        &dataset.graph,
        &sampler,
        &train_nodes[..FIXTURE_TRAIN_TXNS.min(train_nodes.len())],
        &[],
    );
    Pipeline {
        cfg,
        dataset,
        detector,
        sampler,
        train_nodes,
        test_nodes,
        history,
    }
}

/// Runs `build` `reps` times, dropping each result before the next build,
/// and returns the last state with the median set-up time in seconds (the
/// driver bounds `setup_s` like any other metric, so one cold build's
/// page-cache luck must not be the number).
pub fn timed_setup<S>(reps: usize, mut build: impl FnMut() -> S) -> (S, f64) {
    let mut secs = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        drop(state.take());
        let started = Instant::now();
        state = Some(build());
        secs.push(started.elapsed().as_secs_f64());
    }
    (state.expect("at least one build"), stats::median(&secs))
}

/// Confines the calling thread, and every thread spawned after this call,
/// to the CPU it is running on; `false` if the platform would not.
///
/// Every workload runs this way. A request is a chain of wake-ups (sender →
/// worker → scorer → batcher and back), and on the sandbox's two virtual
/// CPUs a wake-up across CPUs costs a VM exit. The kernel mostly packs such
/// a chain onto one CPU but in some runs spreads it, and a run stays in its
/// mode from the first request to the last: `wire_hot`'s median read 0.60 ms
/// instead of 0.41 ms in three runs of five, with not a line changed.
/// Confined, every run is the packed one — which is also what the
/// unconfined ones mostly were. It costs `offline_batch`'s batch inference
/// the 10 % it got from the second CPU; `stream_mixed`, serialised by the
/// one batcher thread, reads the same either way.
pub fn confine_to_current_cpu() -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getcpu() -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // SAFETY: `sched_getcpu` takes no arguments and only reads kernel state.
        let cpu = unsafe { sched_getcpu() };
        let mut mask = [0u64; 16];
        let Some(word) = usize::try_from(cpu).ok().and_then(|c| mask.get_mut(c / 64)) else {
            return false;
        };
        *word = 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialised buffer of exactly the
        // `cpusetsize` bytes passed with it, which the call only reads;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

/// A scratch directory under `perf/out/tmp`, removed on drop. The benchmark
/// reads and writes only inside its checkout.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(format!(
            "perf/out/tmp/{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A stale directory of a recycled pid must not shadow fresh data.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under perf/out");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `pool` in an order chosen by the seed.
pub fn shuffled(pool: &[NodeId], seed: u64) -> Vec<NodeId> {
    let mut ids = pool.to_vec();
    stats::Rng64::new(seed).shuffle(&mut ids);
    ids
}
