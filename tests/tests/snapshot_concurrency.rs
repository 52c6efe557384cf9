//! The serve-path lock-freedom contract, exercised end-to-end: scoring
//! readers and snapshot takers run concurrently with a writer that applies
//! event batches and compacts, and
//!
//! 1. scoring keeps working, lock-free, while the writer publishes — every
//!    returned score is finite and the engine stays deterministic once the
//!    churn settles (per-version bit-equivalence with the sequential path is
//!    covered by `serving_equivalence.rs`);
//! 2. every pinned snapshot is internally consistent (validates, and its
//!    flattened CSR matches a per-version quiesced flatten);
//! 3. retired graph versions are reclaimed once readers quiesce —
//!    `retired_graphs()` drains back toward zero instead of growing without
//!    bound.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};

use xfraud::hetgraph::{GraphEvent, GraphSnapshot, NodeId, NodeType};
use xfraud::kernels::FlatCsr;
use xfraud::{Pipeline, PipelineConfig};

fn pipeline() -> &'static Pipeline {
    static PIPELINE: OnceLock<Pipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        let cfg = PipelineConfig::builder()
            .epochs(2)
            .build()
            .expect("valid config");
        Pipeline::run(cfg).expect("pipeline trains")
    })
}

/// A small stream of schema-valid events: each batch adds one entity and a
/// couple of transactions linked to it.
fn event_batch(dim: usize, i: usize) -> Vec<GraphEvent> {
    let ty = [
        NodeType::Pmt,
        NodeType::Email,
        NodeType::Addr,
        NodeType::Buyer,
    ][i % 4];
    vec![
        GraphEvent::AddEntity { ty },
        GraphEvent::AddTxn {
            features: vec![0.25; dim],
            label: Some(i.is_multiple_of(3)),
        },
        GraphEvent::AddTxn {
            features: vec![0.75; dim],
            label: None,
        },
    ]
}

#[test]
fn scores_and_snapshots_stay_consistent_under_writer_churn() {
    let p = pipeline();
    let engine = p.serving_engine().build().expect("engine builds");
    let dim = p.dataset.graph.feature_dim();

    let pool: Vec<NodeId> = p.test_nodes.iter().copied().take(8).collect();

    const BATCHES: usize = 40;
    let done = AtomicBool::new(false);
    // The writer, both scorers and the snapper: every reader is running
    // before the first publish, and each reads at least once, so none can
    // miss the whole churn however the threads are scheduled.
    let start = Barrier::new(4);
    let mut snapshots: Vec<GraphSnapshot> = Vec::new();

    std::thread::scope(|s| {
        // Scoring readers: requests must keep succeeding (and stay finite)
        // while the graph grows underneath them — no lock, no torn reads.
        let scorers: Vec<_> = (0..2)
            .map(|_| {
                let engine = &engine;
                let pool = &pool;
                let done = &done;
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let mut rounds = 0usize;
                    loop {
                        let got = engine.score(pool).expect("scores during churn");
                        for (&t, &sc) in pool.iter().zip(&got) {
                            assert!(sc.is_finite(), "score of txn {t} went non-finite");
                        }
                        rounds += 1;
                        if done.load(Ordering::Acquire) || rounds == 10_000 {
                            break rounds;
                        }
                    }
                })
            })
            .collect();

        // Snapshot taker: pin versions while the writer publishes.
        let snapper = {
            let engine = &engine;
            let done = &done;
            let start = &start;
            s.spawn(move || {
                start.wait();
                let mut taken = Vec::new();
                loop {
                    taken.push(engine.graph_snapshot());
                    if done.load(Ordering::Acquire) || taken.len() == 2_000 {
                        break taken;
                    }
                }
            })
        };

        // Writer: apply batches, compacting every few publishes.
        start.wait();
        for i in 0..BATCHES {
            engine
                .apply_events(&event_batch(dim, i))
                .expect("events apply");
            if i % 5 == 4 {
                engine.compact().expect("compaction succeeds");
            }
        }
        done.store(true, Ordering::Release);

        for sc in scorers {
            let rounds = sc.join().expect("scorer joins");
            assert!(rounds > 0, "scorer never completed a round");
        }
        snapshots = snapper.join().expect("snapper joins");
    });

    // Rebuild each observed version quiesced and compare the flattened CSR.
    assert!(!snapshots.is_empty());
    let mut by_version: HashMap<u64, FlatCsr> = HashMap::new();
    for snap in &snapshots {
        let flat = FlatCsr::from_view(snap).expect("snapshot flattens");
        let version = snap.version();
        assert!(version <= BATCHES as u64, "version beyond writer publishes");
        if let Some(prev) = by_version.get(&version) {
            assert_eq!(prev, &flat, "two snapshots of version {version} disagree");
        } else {
            by_version.insert(version, flat);
        }
    }
    let mut quiesced =
        xfraud::hetgraph::DeltaGraph::new(std::sync::Arc::new(p.dataset.graph.clone()));
    let mut reference: Vec<FlatCsr> = vec![FlatCsr::from_view(&quiesced).expect("flattens")];
    for i in 0..BATCHES {
        for e in event_batch(dim, i) {
            quiesced.apply(&e).expect("events apply");
        }
        reference.push(FlatCsr::from_view(&quiesced).expect("flattens"));
    }
    let mut versions: Vec<u64> = by_version.keys().copied().collect();
    versions.sort_unstable();
    for v in versions {
        assert_eq!(
            &by_version[&v], &reference[v as usize],
            "snapshot of version {v} diverged from the quiesced rebuild"
        );
    }

    // Settled engine is deterministic: two identical requests, same bits.
    let a = engine.score(&pool).expect("post-churn scores");
    let b = engine.score(&pool).expect("post-churn scores");
    assert_eq!(a, b, "settled engine must be deterministic");

    // Snapshots hold independent clones, not epoch pins; with no reader
    // pinned, the next publish reclaims every retired version.
    drop(snapshots);
    by_version.clear();
    engine
        .apply_events(&event_batch(dim, BATCHES))
        .expect("events apply");
    engine.compact().expect("compaction succeeds");
    assert!(
        engine.retired_graphs() <= 1,
        "retired graphs should drain once readers quiesce, got {}",
        engine.retired_graphs()
    );
}
