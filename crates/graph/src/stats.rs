//! Structural statistics of a data graph.
//!
//! GraphPi's performance model only needs three numbers from the data graph:
//! `|V|`, `|E|` and the triangle count. From them it derives
//!
//! * `p1 = 2|E| / |V|^2` — the probability that a random vertex pair is
//!   adjacent, and
//! * `p2 = tri_cnt * |V| / (2|E|)^2` — the probability that two vertices in a
//!   common neighborhood are adjacent.
//!
//! [`GraphStats`] computes and caches these once per graph (the paper notes
//! this is part of preprocessing because the graph is immutable). A mutable
//! graph carries them from one generation to the next with
//! [`GraphStats::after_batch`], at the cost of the batch rather than the
//! graph.

use crate::csr::CsrGraph;
use crate::delta::EdgeBatch;
use crate::triangles;

/// Cached structural statistics used by the performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// `|V|`.
    pub num_vertices: usize,
    /// `|E|` (undirected edges).
    pub num_edges: u64,
    /// Number of triangles in the graph.
    pub triangle_count: u64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree `2|E| / |V|`.
    pub avg_degree: f64,
    /// `p1 = 2|E| / |V|^2`.
    pub p1: f64,
    /// `p2 = tri_cnt * |V| / (2|E|)^2`.
    pub p2: f64,
}

impl GraphStats {
    /// Computes the statistics for a graph (this counts triangles and is the
    /// expensive part of GraphPi preprocessing that depends on the graph).
    pub fn compute(graph: &CsrGraph) -> Self {
        let num_vertices = graph.num_vertices();
        let num_edges = graph.num_edges();
        let triangle_count = triangles::count_triangles(graph);
        Self::from_counts(num_vertices, num_edges, triangle_count, graph.max_degree())
    }

    /// The statistics of `new`, the graph `batch` made of `old`, derived
    /// from `self` (the statistics of `old`) without recounting the graph:
    /// `|V|` and `|E|` are read off `new`, the maximum degree is one scan of
    /// its offsets, and the triangle count moves by the triangles the
    /// batch's effective edge changes destroyed and created (one
    /// intersection per changed edge). The result equals
    /// [`GraphStats::compute`]`(new)` field for field, so the fingerprint —
    /// and every plan-cache key built on it — is the same either way.
    pub fn after_batch(&self, old: &CsrGraph, new: &CsrGraph, batch: &EdgeBatch) -> Self {
        let (removed, added) = triangles::batch_delta(old, new, batch);
        Self::from_counts(
            new.num_vertices(),
            new.num_edges(),
            self.triangle_count - removed + added,
            new.max_degree(),
        )
    }

    /// Builds the statistics from pre-computed counts (the one place the
    /// derived fields `avg_degree`, `p1` and `p2` are computed).
    pub(crate) fn from_counts(
        num_vertices: usize,
        num_edges: u64,
        triangle_count: u64,
        max_degree: usize,
    ) -> Self {
        let nv = num_vertices as f64;
        let ne = num_edges as f64;
        let p1 = if num_vertices == 0 {
            0.0
        } else {
            2.0 * ne / (nv * nv)
        };
        let p2 = if num_edges == 0 {
            0.0
        } else {
            triangle_count as f64 * nv / (2.0 * ne * 2.0 * ne)
        };
        let avg_degree = if num_vertices == 0 {
            0.0
        } else {
            2.0 * ne / nv
        };
        Self {
            num_vertices,
            num_edges,
            triangle_count,
            max_degree,
            avg_degree,
            p1,
            p2,
        }
    }

    /// A stable 64-bit fingerprint of the integer statistics (`|V|`, `|E|`,
    /// triangle count, max degree), FNV-1a over their little-endian bytes.
    /// Two graphs with the same fingerprint are planned identically by the
    /// cost model (which only reads these numbers), so the fingerprint is
    /// the graph component of compiled-plan cache keys.
    pub fn fingerprint(&self) -> u64 {
        let words = [
            self.num_vertices as u64,
            self.num_edges,
            self.triangle_count,
            self.max_degree as u64,
        ];
        let mut bytes = [0u8; 32];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        crate::io::fnv1a(&bytes)
    }

    /// Expected cardinality of the neighborhood of a random vertex,
    /// `2|E| / |V|` (Section IV-C, "Estimation of Cardinalities").
    pub fn expected_neighborhood_size(&self) -> f64 {
        self.avg_degree
    }

    /// Expected cardinality of the intersection of the neighborhoods of `m`
    /// pattern vertices: `|V| * p1 * p2^(m-1)`. For `m == 1` this degrades
    /// to the expected neighborhood size estimate `|V| * p1 = 2|E|/|V|`.
    pub fn expected_intersection_size(&self, m: usize) -> f64 {
        assert!(m >= 1, "intersection of zero neighborhoods is undefined");
        self.num_vertices as f64 * self.p1 * self.p2.powi(m as i32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn complete_graph_probabilities() {
        let g = generators::complete(10);
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 10);
        assert_eq!(s.num_edges, 45);
        assert_eq!(s.triangle_count, 120);
        // p1 = 2*45/100 = 0.9 (approaches 1 as n grows).
        assert!((s.p1 - 0.9).abs() < 1e-12);
        // p2 = 120*10 / 90^2 = 0.1481...
        assert!((s.p2 - 1200.0 / 8100.0).abs() < 1e-12);
        assert!((s.expected_neighborhood_size() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_safe() {
        let g = crate::GraphBuilder::new().build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.p1, 0.0);
        assert_eq!(s.p2, 0.0);
        assert_eq!(s.avg_degree, 0.0);
    }

    #[test]
    fn intersection_estimate_decreases_with_m() {
        let g = generators::power_law(1000, 5, 11);
        let s = GraphStats::compute(&g);
        let e1 = s.expected_intersection_size(1);
        let e2 = s.expected_intersection_size(2);
        let e3 = s.expected_intersection_size(3);
        assert!(e1 > e2 && e2 > e3, "{e1} {e2} {e3}");
        assert!((e1 - s.expected_neighborhood_size()).abs() < 1e-9);
    }

    #[test]
    fn fingerprint_distinguishes_graphs_and_is_stable() {
        let a = GraphStats::compute(&generators::power_law(200, 5, 1));
        let b = GraphStats::compute(&generators::power_law(200, 5, 2));
        let a_again = GraphStats::compute(&generators::power_law(200, 5, 1));
        assert_eq!(a.fingerprint(), a_again.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Sensitive to each component.
        let base = GraphStats::from_counts(100, 500, 40, 12);
        assert_ne!(
            base.fingerprint(),
            GraphStats::from_counts(101, 500, 40, 12).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            GraphStats::from_counts(100, 500, 41, 12).fingerprint()
        );
    }

    #[test]
    fn after_batch_matches_compute_when_triangles_share_changed_edges() {
        use crate::delta::DynamicGraph;
        // Wiping a clique removes triangles holding two or three deleted
        // edges each; rebuilding it (plus a grown vertex) adds them back.
        let clique: Vec<_> = generators::complete(6).edges().collect();
        let mut grown = clique.clone();
        grown.extend([(0, 31), (1, 31), (0, 1)]); // vertices 30 and 31 grow
        let graph = DynamicGraph::new(generators::power_law(30, 3, 4));
        let mut stats = GraphStats::compute(graph.snapshot().graph());
        for batch in [
            EdgeBatch::from_edges(vec![], clique.clone()),
            EdgeBatch::from_edges(grown, vec![(2, 3)]),
            EdgeBatch::from_edges(clique.clone(), clique),
            EdgeBatch::new(),
        ] {
            let old = graph.snapshot();
            graph.commit(&batch).unwrap();
            let new = graph.snapshot();
            stats = stats.after_batch(old.graph(), new.graph(), &batch);
            assert_eq!(stats, GraphStats::compute(new.graph()), "{batch:?}");
        }
    }

    #[test]
    fn from_counts_matches_compute() {
        let g = generators::erdos_renyi(200, 800, 2);
        let s1 = GraphStats::compute(&g);
        let s2 = GraphStats::from_counts(
            g.num_vertices(),
            g.num_edges(),
            crate::triangles::count_triangles(&g),
            g.max_degree(),
        );
        assert_eq!(s1, s2);
    }
}
