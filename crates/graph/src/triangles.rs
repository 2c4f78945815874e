//! Triangle counting.
//!
//! GraphPi's performance model (Section IV-C) needs the global triangle
//! count `tri_cnt` of the data graph to estimate `p2`, the probability that
//! two vertices sharing a neighbor are themselves adjacent. The paper treats
//! the data graph as immutable, so the count is computed once during
//! preprocessing; this module provides that computation.

use crate::csr::{CsrGraph, VertexId};
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
