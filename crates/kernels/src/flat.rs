//! The kernel-facing graph representation: a minimal flat CSR.
//!
//! Kernels operate on an *untyped, undirected* view of a graph: one offsets
//! array and one `u32` target arena. The struct is deliberately smaller than
//! `hetgraph::Csr` (no edge ids, 32-bit targets) — GAP-style kernels touch
//! every adjacency entry per sweep, so halving the arena width roughly halves
//! the memory traffic of the inner loops.
//!
//! Two constructors cover both producers in this workspace:
//!
//! * [`FlatCsr::from_view`] snapshots any [`GraphView`] (a `HetGraph`, a
//!   `DeltaGraph`, or a pinned `GraphSnapshot` from the scoring engine).
//! * [`FlatCsr::from_edges`] builds the undirected graphs the explainer
//!   scores (communities and their line graphs) from an edge list.

use xfraud_hetgraph::GraphView;

use crate::error::KernelError;

/// Flat CSR adjacency: `neighbors(v)` is a contiguous `&[u32]` slice.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatCsr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl FlatCsr {
    /// Snapshots the out-adjacency of `g`. The slice order per node is the
    /// view's neighbor order (edge-id order), so two structurally identical
    /// views produce bit-identical CSRs.
    pub fn from_view(g: &(impl GraphView + ?Sized)) -> Result<FlatCsr, KernelError> {
        let n = g.n_nodes();
        if n > u32::MAX as usize {
            return Err(KernelError::TooLarge { n_nodes: n });
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        for v in 0..n {
            let (base, overlay) = g.neighbor_parts(v);
            targets.extend(base.iter().map(|&w| w as u32));
            targets.extend(overlay.iter().map(|&w| w as u32));
            offsets.push(targets.len());
        }
        Ok(FlatCsr { offsets, targets })
    }

    /// The undirected graph of `n` nodes joined by `edges`. Each `(u, v)`
    /// appends `v` to `u`'s neighbours and `u` to `v`'s, in edge order, so a
    /// node lists its neighbours in the order its edges were given. Every
    /// endpoint must be `< n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<FlatCsr, KernelError> {
        if n > u32::MAX as usize {
            return Err(KernelError::TooLarge { n_nodes: n });
        }
        // Pass 1: degrees, shifted one slot right, then prefix-summed.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            for node in [u, v] {
                if node >= n {
                    return Err(KernelError::NodeOutOfRange { node, n_nodes: n });
                }
                offsets[node + 1] += 1;
            }
        }
        let mut total = 0;
        for o in offsets.iter_mut() {
            total += *o;
            *o = total;
        }
        // Pass 2: fill each node's slice through a moving cursor.
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0u32; total];
        for &(u, v) in edges {
            targets[cursor[u]] = v as u32;
            cursor[u] += 1;
            targets[cursor[v]] = u as u32;
            cursor[v] += 1;
        }
        Ok(FlatCsr { offsets, targets })
    }

    pub fn n_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of adjacency entries (directed edge slots).
    pub fn n_edges(&self) -> usize {
        self.targets.len()
    }

    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Allocation-free neighbor slice of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfraud_hetgraph::{GraphBuilder, NodeType};

    #[test]
    fn from_edges_lists_neighbours_in_edge_order() {
        let g = FlatCsr::from_edges(5, &[(2, 0), (0, 1), (1, 2), (3, 3)]).unwrap();
        assert_eq!(g.n_nodes(), 5);
        assert_eq!(g.n_edges(), 8);
        assert_eq!(g.neighbors(0), &[2, 1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.neighbors(3), &[3, 3], "a self-loop lists its node twice");
        assert_eq!(g.neighbors(4), &[] as &[u32]);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn from_edges_rejects_out_of_range_endpoints() {
        assert_eq!(
            FlatCsr::from_edges(1, &[(0, 5)]),
            Err(KernelError::NodeOutOfRange {
                node: 5,
                n_nodes: 1
            })
        );
    }

    #[test]
    fn from_view_matches_hetgraph_neighbor_slices() {
        let mut b = GraphBuilder::new(1);
        let t0 = b.add_txn([1.0], Some(false));
        let t1 = b.add_txn([2.0], None);
        let p = b.add_entity(NodeType::Pmt);
        b.link(t0, p).unwrap();
        b.link(t1, p).unwrap();
        let g = b.finish().unwrap();

        let flat = FlatCsr::from_view(&g).unwrap();
        assert_eq!(flat.n_nodes(), g.n_nodes());
        for v in 0..g.n_nodes() {
            let want: Vec<u32> = g.neighbor_slice(v).iter().map(|&w| w as u32).collect();
            assert_eq!(flat.neighbors(v), want.as_slice());
        }
    }
}
