//! Two-pass out-of-core dataset build: paper-scale graphs whose feature
//! matrix never exists in memory.
//!
//! At eBay-large scale the feature matrix dominates the footprint (Table 2:
//! hundreds of floats per transaction) while the topology — CSR offsets,
//! targets, types, labels — stays comparatively small. The build exploits
//! the streaming generator's pure-function structure to split the two:
//!
//! * **Pass A (topology).** [`stream_records`] is replayed once into a
//!   `feature_dim == 0` [`GraphBuilder`]: every record becomes a
//!   transaction node, entities materialise lazily on first use (dense
//!   entity→node maps sized by [`pool_sizes`]), labels follow the
//!   Appendix-B protocol via [`record_label`], and each record is appended
//!   to `events.log` as a checksummed frame. Appendix-B small-component
//!   filtering then produces the final graph. No feature vector is ever
//!   synthesised in this pass.
//! * **Pass B (features).** The stream is replayed a second time; records
//!   whose transaction survived filtering get their feature row (a pure
//!   function of the record index, [`record_features`]) written straight
//!   into a [`DiskStore`]-backed [`FeatureStore`] keyed by the *final*
//!   node id, then the store is flushed and compacted into sealed mmap
//!   segments.
//!
//! Peak memory is the topology plus O(1) per-record buffers — features
//! stream through a single row — which is what lets `ebay-large-sim`
//! scale to ≥1 M nodes on one machine. Training and scoring run over
//! [`OnDiskDataset::view`], an [`ExternalFeatureGraph`] that pages rows
//! in from the mapped segment files on demand (Fig. 12/13's multi-reader
//! loader path).

use std::fs::File;
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use xfraud_diskstore::{BlockStore, DiskStore, DiskStoreOptions, StoreError};
use xfraud_hetgraph::{ExternalFeatureGraph, GraphBuilder, HetGraph, NodeId, NodeType};
use xfraud_kvstore::framing;
use xfraud_kvstore::FeatureStore;

use crate::config::WorldConfig;
use crate::construct::filter_small_components;
use crate::records::FraudMechanism;
use crate::streamgen::{pool_sizes, record_features, record_label, stream_records, StreamRecord};

/// Counters of one on-disk build.
#[derive(Debug, Clone, Copy)]
pub struct BuildStats {
    /// Records emitted by the streaming generator.
    pub records_emitted: usize,
    /// Transactions that survived Appendix-B component filtering.
    pub records_kept: usize,
    /// Final graph size.
    pub n_nodes: usize,
    pub n_entities: usize,
    pub feature_dim: usize,
    /// Bytes of sealed feature segments on disk after compaction.
    pub segment_bytes: u64,
}

/// A dataset whose topology lives in RAM and whose features live in sealed
/// disk segments under `dir/features`.
pub struct OnDiskDataset {
    /// Topology-only graph (`feature_dim == 0`); labels and types are real.
    pub graph: HetGraph,
    /// The disk-backed feature rows, keyed by node id.
    pub features: Arc<FeatureStore>,
    /// Root directory: `events.log`, `meta.txt`, `features/`.
    pub dir: PathBuf,
    pub stats: BuildStats,
}

impl OnDiskDataset {
    /// The out-of-core training/scoring view: topology from RAM, feature
    /// rows paged in from the mapped segments.
    pub fn view(&self) -> ExternalFeatureGraph<HetGraph, Arc<FeatureStore>> {
        ExternalFeatureGraph::new(self.graph.clone(), Arc::clone(&self.features))
    }
}

/// On-disk encoding of one stream record (the `events.log` frame value):
/// fixed-width little-endian fields, 43 bytes.
fn encode_event(rec: &StreamRecord, label: Option<bool>, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&(rec.buyer.map_or(u64::MAX, |b| b as u64)).to_le_bytes());
    out.extend_from_slice(&(rec.pmt as u64).to_le_bytes());
    out.extend_from_slice(&(rec.email as u64).to_le_bytes());
    out.extend_from_slice(&(rec.addr as u64).to_le_bytes());
    out.push(match rec.mechanism {
        FraudMechanism::Benign => 0,
        FraudMechanism::StolenCard => 1,
        FraudMechanism::Warehouse => 2,
        FraudMechanism::Ring => 3,
        FraudMechanism::GuestCheckout => 4,
    });
    out.extend_from_slice(&rec.latent_risk.to_le_bytes());
    out.extend_from_slice(&rec.time.to_le_bytes());
    out.push(rec.category as u8);
    out.push(match label {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
}

/// Streams the world under `cfg` to `dir` and returns the opened dataset.
///
/// `dir` is created if absent; `features/` inside it must not hold a
/// previous build (reopening an existing build is [`open_feature_store`]'s
/// job — regeneration into a dirty directory would shadow old rows).
pub fn stream_dataset_to_dir(
    cfg: &WorldConfig,
    dir: impl Into<PathBuf>,
) -> Result<OnDiskDataset, StoreError> {
    let dir = dir.into();
    std::fs::create_dir_all(&dir)?;

    // --- Pass A: topology + event log (no features anywhere) -------------
    let pools = pool_sizes(cfg);
    let mut pmt_node: Vec<Option<NodeId>> = vec![None; pools.n_pmt];
    let mut email_node: Vec<Option<NodeId>> = vec![None; pools.n_email];
    let mut addr_node: Vec<Option<NodeId>> = vec![None; pools.n_addr];
    let mut buyer_node: Vec<Option<NodeId>> = vec![None; pools.n_buyer];

    let mut b = GraphBuilder::new(0);
    let mut txn_nodes: Vec<NodeId> = Vec::new();
    let mut log = BufWriter::new(File::create(dir.join("events.log"))?);
    let mut frame = Vec::new();
    let mut value = Vec::new();
    let mut io_err: Option<std::io::Error> = None;

    stream_records(cfg, |rec| {
        if io_err.is_some() {
            return;
        }
        let label = record_label(cfg, rec.rec_idx, rec.is_fraud());
        let t = b.add_txn([0.0f32; 0], label);
        txn_nodes.push(t);

        let mut attach = |slot: &mut Option<NodeId>, ty: NodeType| {
            let e = *slot.get_or_insert_with(|| b.add_entity(ty));
            #[expect(
                clippy::expect_used,
                reason = "txn→entity links are schema-legal by construction; link() only rejects entity-entity pairs"
            )]
            b.link(t, e).expect("txn-entity link");
        };
        attach(&mut pmt_node[rec.pmt], NodeType::Pmt);
        attach(&mut email_node[rec.email], NodeType::Email);
        attach(&mut addr_node[rec.addr], NodeType::Addr);
        if let Some(buyer) = rec.buyer {
            attach(&mut buyer_node[buyer], NodeType::Buyer);
        }

        encode_event(&rec, label, &mut value);
        frame.clear();
        framing::encode_checked_into(&rec.rec_idx.to_be_bytes(), &value, &mut frame);
        if let Err(e) = log.write_all(&frame) {
            io_err = Some(e);
        }
    });
    if let Some(e) = io_err {
        return Err(StoreError::Io(e));
    }
    log.flush()?;
    log.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    drop((pmt_node, email_node, addr_node, buyer_node));

    #[expect(
        clippy::expect_used,
        reason = "every node added above was linked through the builder, so finish() cannot observe an inconsistency"
    )]
    let full = b.finish().expect("builder consistency");
    let keep = filter_small_components(&full, cfg.min_neighborhood_txns);
    let (graph, map) = full.induced_subgraph(&keep);
    drop(full);

    // --- Pass B: feature rows for surviving transactions ------------------
    let store = Arc::new(DiskStore::open(
        dir.join("features"),
        DiskStoreOptions::default(),
    )?);
    let fs = FeatureStore::new(Arc::clone(&store) as Arc<_>, cfg.feature_dim);
    let mut kept = 0usize;
    let mut k = 0usize;
    stream_records(cfg, |rec| {
        let old = txn_nodes[k];
        k += 1;
        if let Some(new) = map[old] {
            fs.put_features(new, &record_features(cfg, &rec));
            kept += 1;
        }
    });
    store.flush()?;
    store.compact()?;
    store.sync()?;

    let n_txns = graph.txn_nodes().len();
    let stats = BuildStats {
        records_emitted: txn_nodes.len(),
        records_kept: kept,
        n_nodes: graph.n_nodes(),
        n_entities: graph.n_nodes() - n_txns,
        feature_dim: cfg.feature_dim,
        segment_bytes: store.storage_stats().segment_bytes,
    };
    write_meta(&dir, cfg, &stats)?;

    Ok(OnDiskDataset {
        graph,
        features: Arc::new(fs),
        dir,
        stats,
    })
}

/// Reopens the feature store of a previous [`stream_dataset_to_dir`] build
/// (recovery + segment validation happen inside [`DiskStore::open`]).
/// Returns the store plus the dimension recorded in `meta.txt`.
pub fn open_feature_store(dir: &Path) -> Result<(Arc<FeatureStore>, usize), StoreError> {
    let dim = read_meta_dim(dir)?;
    let store = Arc::new(DiskStore::open(
        dir.join("features"),
        DiskStoreOptions::default(),
    )?);
    Ok((Arc::new(FeatureStore::new(store, dim)), dim))
}

fn write_meta(dir: &Path, cfg: &WorldConfig, stats: &BuildStats) -> std::io::Result<()> {
    let mut f = File::create(dir.join("meta.txt"))?;
    writeln!(f, "feature_dim={}", cfg.feature_dim)?;
    writeln!(f, "seed={}", cfg.seed)?;
    writeln!(f, "records_emitted={}", stats.records_emitted)?;
    writeln!(f, "records_kept={}", stats.records_kept)?;
    writeln!(f, "n_nodes={}", stats.n_nodes)?;
    writeln!(f, "n_entities={}", stats.n_entities)?;
    f.sync_all()
}

fn read_meta_dim(dir: &Path) -> Result<usize, StoreError> {
    let mut text = String::new();
    File::open(dir.join("meta.txt"))?.read_to_string(&mut text)?;
    text.lines()
        .find_map(|l| l.strip_prefix("feature_dim="))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| StoreError::Corrupt {
            path: dir.join("meta.txt"),
            detail: String::from("missing or unparsable feature_dim"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfraud_hetgraph::{GraphStats, GraphView};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xfraud-ondisk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg() -> WorldConfig {
        WorldConfig {
            n_buyers: 400,
            ..WorldConfig::default()
        }
    }

    #[test]
    fn streamed_build_matches_paper_shape() {
        let dir = tmp_dir("shape");
        let ds = stream_dataset_to_dir(&small_cfg(), &dir).unwrap();
        assert!(ds.graph.validate());
        let s = GraphStats::of(&ds.graph);
        assert!(s.n_nodes > 1_000, "too small: {}", s.n_nodes);
        let spn = s.links_per_node();
        assert!((1.0..4.0).contains(&spn), "links/node {spn}");
        assert!(
            s.type_share(NodeType::Txn) > 0.35,
            "txn share {}",
            s.type_share(NodeType::Txn)
        );
        let fr = s.fraud_rate();
        assert!((0.01..0.25).contains(&fr), "fraud rate {fr}");
        assert_eq!(ds.stats.n_nodes, s.n_nodes);
        assert!(ds.stats.records_kept <= ds.stats.records_emitted);
        assert!(ds.stats.segment_bytes > 0, "features must hit disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn view_serves_streamed_features_and_zero_entities() {
        let dir = tmp_dir("view");
        let cfg = small_cfg();
        let ds = stream_dataset_to_dir(&cfg, &dir).unwrap();
        let view = ds.view();
        assert_eq!(view.feature_dim(), cfg.feature_dim);

        let mut row = vec![0.0f32; cfg.feature_dim];
        let mut served = 0;
        for v in ds.graph.txn_nodes().iter().take(50) {
            assert!(view.copy_features_into(*v, &mut row), "txn row missing");
            assert!(row.iter().any(|&x| x != 0.0), "txn row all-zero");
            served += 1;
        }
        assert_eq!(served, 50);
        for v in 0..ds.graph.n_nodes() {
            if ds.graph.node_type(v) != NodeType::Txn {
                assert!(!view.copy_features_into(v, &mut row));
                assert_eq!(row, vec![0.0f32; cfg.feature_dim]);
                break;
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_store_serves_identical_rows() {
        let dir = tmp_dir("reopen");
        let cfg = small_cfg();
        let ds = stream_dataset_to_dir(&cfg, &dir).unwrap();
        let before: Vec<Vec<f32>> = ds
            .graph
            .txn_nodes()
            .iter()
            .take(20)
            .map(|&v| ds.features.get_features(v))
            .collect();
        drop(ds);
        let (fs, dim) = open_feature_store(&dir).unwrap();
        assert_eq!(dim, cfg.feature_dim);
        let g = stream_dataset_to_dir_graph_only(&cfg);
        for (i, &v) in g.txn_nodes().iter().take(20).enumerate() {
            assert_eq!(fs.get_features(v), before[i], "row {v} changed on reopen");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Pass-A-only rebuild used by the reopen test (topology is a pure
    /// function of cfg, so this reproduces the node numbering).
    fn stream_dataset_to_dir_graph_only(cfg: &WorldConfig) -> HetGraph {
        let pools = pool_sizes(cfg);
        let mut pmt_node: Vec<Option<NodeId>> = vec![None; pools.n_pmt];
        let mut email_node: Vec<Option<NodeId>> = vec![None; pools.n_email];
        let mut addr_node: Vec<Option<NodeId>> = vec![None; pools.n_addr];
        let mut buyer_node: Vec<Option<NodeId>> = vec![None; pools.n_buyer];
        let mut b = GraphBuilder::new(0);
        stream_records(cfg, |rec| {
            let t = b.add_txn([0.0f32; 0], record_label(cfg, rec.rec_idx, rec.is_fraud()));
            let mut attach = |slot: &mut Option<NodeId>, ty: NodeType| {
                let e = *slot.get_or_insert_with(|| b.add_entity(ty));
                b.link(t, e).unwrap();
            };
            attach(&mut pmt_node[rec.pmt], NodeType::Pmt);
            attach(&mut email_node[rec.email], NodeType::Email);
            attach(&mut addr_node[rec.addr], NodeType::Addr);
            if let Some(buyer) = rec.buyer {
                attach(&mut buyer_node[buyer], NodeType::Buyer);
            }
        });
        let full = b.finish().unwrap();
        let keep = filter_small_components(&full, cfg.min_neighborhood_txns);
        full.induced_subgraph(&keep).0
    }

    #[test]
    fn events_log_is_a_clean_checked_stream_of_every_record() {
        let dir = tmp_dir("events");
        let cfg = small_cfg();
        let ds = stream_dataset_to_dir(&cfg, &dir).unwrap();
        let buf = std::fs::read(dir.join("events.log")).unwrap();
        let mut it = framing::CheckedFrameIter::new(&buf);
        let mut count = 0u64;
        for rec in it.by_ref() {
            let (key, value) = rec.expect("intact frame");
            assert_eq!(key, count.to_be_bytes(), "keys are the record indices");
            assert_eq!(value.len(), 43, "fixed-width event encoding");
            count += 1;
        }
        assert!(it.clean_end() && !it.corrupt());
        assert_eq!(count as usize, ds.stats.records_emitted);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
