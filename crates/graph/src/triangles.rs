//! Triangle counting.
//!
//! GraphPi's performance model (Section IV-C) needs the global triangle
//! count `tri_cnt` of the data graph to estimate `p2`, the probability that
//! two vertices sharing a neighbor are themselves adjacent. The paper treats
//! the data graph as immutable, so the count is computed once during
//! preprocessing; this module provides that computation, and the
//! per-batch correction that keeps it exact under edge updates.

use crate::csr::{CsrGraph, VertexId};
use crate::delta::EdgeBatch;
use crate::vertex_set;

/// Counts every triangle in the graph exactly once.
///
/// Uses the standard "forward" algorithm: for each edge `(u, v)` with
/// `u < v`, count common neighbors `w > v`. Complexity is
/// `O(sum_over_edges(deg(u) + deg(v)))`.
pub fn count_triangles(graph: &CsrGraph) -> u64 {
    let mut total = 0u64;
    for u in graph.vertices() {
        let nu = graph.neighbors(u);
        for &v in nu.iter().filter(|&&v| v > u) {
            let nv = graph.neighbors(v);
            // Common neighbors w with w > v to count each triangle once.
            total += count_common_above(nu, nv, v);
        }
    }
    total
}

/// Counts common elements of two sorted sets strictly greater than `bound`.
fn count_common_above(a: &[VertexId], b: &[VertexId], bound: VertexId) -> u64 {
    let ai = a.partition_point(|&x| x <= bound);
    let bi = b.partition_point(|&x| x <= bound);
    vertex_set::intersect_count(&a[ai..], &b[bi..]) as u64
}

/// The triangles one batch removed from `old` and added to produce `new`:
/// `count_triangles(new) == count_triangles(old) - removed + added`.
///
/// Only edges the batch names can differ between the two graphs, so the
/// effective changes are the named edges present in exactly one of them.
/// A triangle of `old` disappears iff it holds a deleted edge, and one of
/// `new` appears iff it holds an inserted edge; each side is counted once
/// per triangle by [`triangles_through`]. The cost is one intersection per
/// effective edge, independent of the rest of the graph.
pub(crate) fn batch_delta(old: &CsrGraph, new: &CsrGraph, batch: &EdgeBatch) -> (u64, u64) {
    let mut named: Vec<(VertexId, VertexId)> = batch
        .inserts()
        .iter()
        .chain(batch.deletes())
        .filter(|&&(u, v)| u != v)
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    named.sort_unstable();
    named.dedup();
    let present = |graph: &CsrGraph, (u, v): (VertexId, VertexId)| {
        (v as usize) < graph.num_vertices() && graph.has_edge(u, v)
    };
    let (mut deleted, mut inserted) = (Vec::new(), Vec::new());
    for edge in named {
        match (present(old, edge), present(new, edge)) {
            (true, false) => deleted.push(edge),
            (false, true) => inserted.push(edge),
            _ => {}
        }
    }
    (
        triangles_through(old, &deleted),
        triangles_through(new, &inserted),
    )
}

/// Counts the triangles of `graph` holding at least one of `edges` (sorted,
/// `u < v`, all present), each once: at the smallest of its edges in the
/// list.
fn triangles_through(graph: &CsrGraph, edges: &[(VertexId, VertexId)]) -> u64 {
    let mut common = Vec::new();
    let mut total = 0u64;
    for (i, &(u, v)) in edges.iter().enumerate() {
        vertex_set::intersect_into(graph.neighbors(u), graph.neighbors(v), &mut common);
        let earlier = &edges[..i];
        let counted_before =
            |a: VertexId, b: VertexId| earlier.binary_search(&(a.min(b), a.max(b))).is_ok();
        total += common
            .iter()
            .filter(|&&w| !counted_before(u, w) && !counted_before(v, w))
            .count() as u64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::generators;

    #[test]
    fn triangle_graph() {
        let g = from_edges(&[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(count_triangles(&g), 1);
    }

    #[test]
    fn square_has_no_triangles() {
        let g = generators::cycle(4);
        assert_eq!(count_triangles(&g), 0);
    }

    #[test]
    fn complete_graph_triangle_count() {
        // K_n has C(n, 3) triangles.
        for n in 3..8usize {
            let g = generators::complete(n);
            let expected = (n * (n - 1) * (n - 2) / 6) as u64;
            assert_eq!(count_triangles(&g), expected, "K_{n}");
        }
    }

    #[test]
    fn matches_naive_on_small_random_graphs() {
        for seed in 0..5u64 {
            let g = generators::erdos_renyi(30, 120, seed);
            // Naive O(n^3) count.
            let mut naive = 0u64;
            for a in 0..30u32 {
                for b in (a + 1)..30 {
                    for c in (b + 1)..30 {
                        if g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c) {
                            naive += 1;
                        }
                    }
                }
            }
            assert_eq!(count_triangles(&g), naive, "seed {seed}");
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let empty = crate::GraphBuilder::new().build();
        assert_eq!(count_triangles(&empty), 0);
        let single_edge = from_edges(&[(0, 1)]);
        assert_eq!(count_triangles(&single_edge), 0);
    }
}
