//! Compressed sparse row (CSR) storage for undirected, unlabeled graphs.
//!
//! The paper (Section IV-E) stores the data graph in CSR form with each
//! neighborhood sorted and contiguous in memory so that the set intersection
//! of two neighborhoods runs in `O(n + m)` and produces a sorted result.
//! [`CsrGraph`] follows that layout: a `offsets` array of length `|V| + 1`
//! and a flat `neighbors` array of length `2|E|`.

use crate::mmap::SharedSlice;
use std::fmt;

/// Identifier of a vertex in a data graph.
///
/// Vertex ids are dense (`0..num_vertices`) after construction through
/// [`crate::GraphBuilder`], which remaps arbitrary input labels.
pub type VertexId = u32;

/// An immutable undirected graph in CSR form with sorted adjacency lists.
///
/// Construct through [`crate::GraphBuilder`] (which deduplicates edges,
/// drops self loops and sorts neighborhoods), the generators in
/// [`crate::generators`], or zero-copy from a binary file with
/// [`crate::io::load_binary_mmap`] — the CSR arrays are
/// `SharedSlice`s, so a graph either owns its storage or is a view over
/// a memory-mapped region; every consumer sees plain `&[_]` slices.
#[derive(Clone)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: SharedSlice<usize>,
    /// Concatenated, per-vertex-sorted adjacency lists.
    neighbors: SharedSlice<VertexId>,
    /// Number of undirected edges (each stored twice in `neighbors`).
    num_edges: u64,
}

impl CsrGraph {
    /// Builds a CSR graph directly from raw parts.
    ///
    /// `offsets` must have length `n + 1`, start at 0, be non-decreasing and
    /// end at `neighbors.len()`; every adjacency slice must be strictly
    /// sorted (no duplicates) and free of self loops. These invariants are
    /// checked in debug builds.
    pub(crate) fn from_raw_parts(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        Self::from_shared_parts(offsets.into(), neighbors.into())
    }

    /// Shared-storage sibling of [`CsrGraph::from_raw_parts`], used by the
    /// zero-copy loader. Callers constructing mapped graphs must have run
    /// **release-mode** validation of the same invariants first (the binary
    /// loader validates bounds, monotonicity and sortedness on open);
    /// construction itself re-checks them only in debug builds.
    pub(crate) fn from_shared_parts(
        offsets: SharedSlice<usize>,
        neighbors: SharedSlice<VertexId>,
    ) -> Self {
        debug_assert!(!offsets.is_empty(), "offsets must contain at least [0]");
        debug_assert_eq!(*offsets.first().unwrap(), 0);
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        #[cfg(debug_assertions)]
        {
            let n = offsets.len() - 1;
            for v in 0..n {
                let adj = &neighbors[offsets[v]..offsets[v + 1]];
                assert!(
                    adj.windows(2).all(|w| w[0] < w[1]),
                    "adjacency of {v} must be strictly sorted"
                );
                assert!(
                    adj.iter().all(|&u| (u as usize) < n && u as usize != v),
                    "neighbor out of range or self loop at {v}"
                );
            }
        }
        let num_edges = (neighbors.len() / 2) as u64;
        Self {
            offsets,
            neighbors,
            num_edges,
        }
    }

    /// Whether the CSR arrays are views over a memory-mapped region (true
    /// for graphs opened with [`crate::io::load_binary_mmap`] on supported
    /// targets) rather than owned heap vectors.
    pub fn is_memory_mapped(&self) -> bool {
        self.offsets.is_mapped() || self.neighbors.is_mapped()
    }

    /// The raw offsets array (`n + 1` entries), for the binary writer.
    pub(crate) fn offsets_slice(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated adjacency array, for the binary writer.
    pub(crate) fn neighbors_slice(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighborhood of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `(u, v)` exists (binary search).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        // Search in the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub(crate) fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Returns vertices sorted by decreasing degree (ties broken by id).
    pub(crate) fn vertices_by_degree_desc(&self) -> Vec<VertexId> {
        let mut vs: Vec<VertexId> = self.vertices().collect();
        vs.sort_by_key(|&v| (std::cmp::Reverse(self.degree(v)), v));
        vs
    }
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality over the CSR arrays: a mapped graph equals
        // the owned graph it was serialised from.
        self.num_edges == other.num_edges
            && *self.offsets == *other.offsets
            && *self.neighbors == *other.neighbors
    }
}

impl Eq for CsrGraph {}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges)
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 1-2, 0-2 triangle plus 2-3 tail.
        GraphBuilder::new()
            .edges([(0, 1), (1, 2), (0, 2), (2, 3)])
            .build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn has_edge_symmetric() {
        let g = triangle_plus_tail();
        for u in 0..4u32 {
            for v in 0..4u32 {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
            }
        }
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn edges_iterated_once() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_ordering() {
        let g = triangle_plus_tail();
        let order = g.vertices_by_degree_desc();
        assert_eq!(order[0], 2);
        assert_eq!(order.len(), 4);
    }
}
