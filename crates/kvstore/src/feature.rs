use std::sync::Arc;
use std::time::Instant;

use xfraud_tensor::Tensor;

use crate::stores::KvStore;

/// Node-feature loading on top of any [`KvStore`]: the role the KV store
/// plays in the paper's training pipeline (features are fetched per sampled
/// subgraph, by every worker, every step).
pub struct FeatureStore {
    store: Arc<dyn KvStore>,
    dim: usize,
}

impl FeatureStore {
    pub fn new(store: Arc<dyn KvStore>, dim: usize) -> Self {
        FeatureStore { store, dim }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn store_name(&self) -> &'static str {
        self.store.store_name()
    }

    fn key(node: usize) -> [u8; 8] {
        (node as u64).to_be_bytes()
    }

    /// Writes one node's feature row.
    pub fn put_features(&self, node: usize, features: &[f32]) {
        assert_eq!(features.len(), self.dim, "feature length mismatch");
        let mut buf = Vec::with_capacity(self.dim * 4);
        for &f in features {
            buf.extend_from_slice(&f.to_le_bytes());
        }
        self.store.put(&Self::key(node), &buf);
    }

    /// Bulk-loads an entire feature matrix (row i = node `base + i`).
    pub fn put_matrix(&self, base: usize, features: &Tensor) {
        assert_eq!(features.cols(), self.dim);
        for r in 0..features.rows() {
            self.put_features(base + r, features.row(r));
        }
    }

    /// Fetches one node's features (zeros if absent — entity nodes are
    /// featureless in the paper's pipeline).
    pub fn get_features(&self, node: usize) -> Vec<f32> {
        let mut row = vec![0.0; self.dim];
        self.fill_row(node, &mut row);
        row
    }

    /// Overwrites `out` in place with one node's stored features (zeros if
    /// absent) — the serving path's per-row rehydration, avoiding the
    /// per-call allocation of [`FeatureStore::get_features`]. Goes through
    /// [`KvStore::get_with`] so mmap-backed stores decode straight from the
    /// mapped page with no intermediate copy. Returns whether the node had a
    /// stored row.
    pub fn fill_row(&self, node: usize, out: &mut [f32]) -> bool {
        assert_eq!(out.len(), self.dim, "feature length mismatch");
        let found = self.store.get_with(&Self::key(node), &mut |bytes| {
            for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            }
        });
        if !found {
            out.fill(0.0);
        }
        found
    }

    /// Gathers a dense `[ids.len(), dim]` batch matrix.
    pub fn load_batch(&self, ids: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(ids.len(), self.dim);
        for (r, &id) in ids.iter().enumerate() {
            self.fill_row(id, out.row_mut(r));
        }
        out
    }

    /// Wraps this store as a shared [`xfraud_hetgraph::FeatureSource`], the
    /// form [`xfraud_hetgraph::ExternalFeatureGraph`] takes to serve
    /// features out-of-core during training/scoring.
    pub fn into_source(self) -> Arc<FeatureStore> {
        Arc::new(self)
    }

    /// The multi-loader experiment of Fig. 12/13: `n_threads` loaders each
    /// gather their slice of `ids` concurrently. Returns
    /// `(rows, elapsed_secs, rows_per_sec)`.
    pub fn load_parallel(&self, ids: &[usize], n_threads: usize) -> (usize, f64, f64) {
        assert!(n_threads > 0);
        // xlint: allow(d2, reason = "throughput measurement is the whole point of this Fig. 12/13 harness")
        let start = Instant::now();
        #[expect(
            clippy::expect_used,
            reason = "a panicked loader thread means the benchmark result is meaningless; propagating is correct"
        )]
        crossbeam::scope(|scope| {
            for chunk in ids.chunks(ids.len().div_ceil(n_threads)) {
                scope.spawn(move |_| {
                    // Throughput harness: the gathered rows are discarded;
                    // only the wall-clock matters.
                    let _rows = self.load_batch(chunk);
                });
            }
        })
        .expect("loader thread panicked");
        let secs = start.elapsed().as_secs_f64();
        (ids.len(), secs, ids.len() as f64 / secs.max(1e-12))
    }
}

/// A [`FeatureStore`] is a [`xfraud_hetgraph::FeatureSource`]: graphs built
/// topology-only (`GraphBuilder::new(0)`) get their transaction rows served
/// from the store via `ExternalFeatureGraph` — the out-of-core loader path.
impl xfraud_hetgraph::FeatureSource for FeatureStore {
    fn feature_dim(&self) -> usize {
        self.dim
    }

    fn fill_features(&self, v: xfraud_hetgraph::NodeId, out: &mut [f32]) -> bool {
        self.fill_row(v, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stores::{ShardedStore, SingleLockStore};

    #[test]
    fn feature_roundtrip_preserves_floats() {
        let fs = FeatureStore::new(Arc::new(ShardedStore::new(4)), 3);
        fs.put_features(7, &[1.5, -2.25, 0.0]);
        assert_eq!(fs.get_features(7), vec![1.5, -2.25, 0.0]);
    }

    #[test]
    fn absent_nodes_read_as_zeros() {
        let fs = FeatureStore::new(Arc::new(SingleLockStore::new()), 2);
        assert_eq!(fs.get_features(42), vec![0.0, 0.0]);
    }

    #[test]
    fn batch_matrix_matches_rows() {
        let fs = FeatureStore::new(Arc::new(ShardedStore::new(4)), 2);
        let m = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        fs.put_matrix(10, &m);
        let batch = fs.load_batch(&[12, 10]);
        assert_eq!(batch.row(0), &[5.0, 6.0]);
        assert_eq!(batch.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn fill_row_overwrites_stale_contents() {
        let fs = FeatureStore::new(Arc::new(ShardedStore::new(2)), 3);
        fs.put_features(1, &[9.0, 8.0, 7.0]);
        let mut row = [1.0f32, 2.0, 3.0];
        fs.fill_row(1, &mut row);
        assert_eq!(row, [9.0, 8.0, 7.0]);
        fs.fill_row(2, &mut row); // absent → zeros, not leftovers
        assert_eq!(row, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn parallel_load_covers_all_rows() {
        let fs = FeatureStore::new(Arc::new(ShardedStore::new(8)), 4);
        for i in 0..200 {
            fs.put_features(i, &[i as f32; 4]);
        }
        let ids: Vec<usize> = (0..200).collect();
        let (rows, secs, tput) = fs.load_parallel(&ids, 4);
        assert_eq!(rows, 200);
        assert!(secs >= 0.0);
        assert!(tput > 0.0);
    }
}
