//! Seeded synthetic graph generators.
//!
//! The paper evaluates on six real-world graphs (Table I). Those datasets
//! are not redistributable here, so the benchmark harness uses these
//! generators to produce stand-ins with controlled size, degree skew and
//! triangle density (see `DESIGN.md`, Section 2). All generators are
//! deterministic given a seed.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Erdős–Rényi style G(n, m): `m` distinct undirected edges sampled
/// uniformly at random among the `n(n-1)/2` possible ones.
///
/// Panics if `m` exceeds the number of possible edges.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= max_edges,
        "requested {m} edges but only {max_edges} are possible for n={n}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut builder = GraphBuilder::new().num_vertices(n);
    while seen.len() < m {
        let u = rng.gen_range(0..n as VertexId);
        let v = rng.gen_range(0..n as VertexId);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            builder.push_edge(key.0, key.1);
        }
    }
    builder.build()
}

/// Power-law graph by preferential attachment (Barabási–Albert style).
///
/// Starts from a small clique of `m_per_vertex + 1` vertices and attaches
/// every new vertex to `m_per_vertex` existing vertices chosen proportional
/// to their current degree. The result has roughly `n * m_per_vertex` edges,
/// a heavy-tailed degree distribution, and a realistic triangle density —
/// the two properties (degree skew and clustering) that drive GraphPi's
/// performance model.
pub fn power_law(n: usize, m_per_vertex: usize, seed: u64) -> CsrGraph {
    assert!(m_per_vertex >= 1, "m_per_vertex must be at least 1");
    assert!(
        n > m_per_vertex,
        "need more vertices ({n}) than edges per vertex ({m_per_vertex})"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new().num_vertices(n);
    // `targets` holds one entry per edge endpoint, so sampling uniformly
    // from it is sampling proportional to degree.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * m_per_vertex);

    let core = m_per_vertex + 1;
    for u in 0..core {
        for v in (u + 1)..core {
            builder.push_edge(u as VertexId, v as VertexId);
            endpoints.push(u as VertexId);
            endpoints.push(v as VertexId);
        }
    }
    for v in core..n {
        let v = v as VertexId;
        // Deterministic ordered container: iteration order must not depend
        // on hash seeds, otherwise the generator would not be reproducible.
        let mut chosen: Vec<VertexId> = Vec::with_capacity(m_per_vertex);
        // Mix preferential attachment with a small uniform component so the
        // graph stays connected and not overly star-like.
        while chosen.len() < m_per_vertex {
            let target = if rng.gen_bool(0.9) && !endpoints.is_empty() {
                endpoints[rng.gen_range(0..endpoints.len())]
            } else {
                rng.gen_range(0..v)
            };
            if target != v && !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for &t in &chosen {
            builder.push_edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    builder.build()
}

/// Complete graph K_n.
pub fn complete(n: usize) -> CsrGraph {
    let mut builder = GraphBuilder::new().num_vertices(n);
    for u in 0..n {
        for v in (u + 1)..n {
            builder.push_edge(u as VertexId, v as VertexId);
        }
    }
    builder.build()
}

/// Simple cycle C_n (requires `n >= 3`).
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut builder = GraphBuilder::new().num_vertices(n);
    for u in 0..n {
        builder.push_edge(u as VertexId, ((u + 1) % n) as VertexId);
    }
    builder.build()
}

/// Path P_n with `n` vertices and `n - 1` edges.
pub fn path(n: usize) -> CsrGraph {
    let mut builder = GraphBuilder::new().num_vertices(n);
    for u in 1..n {
        builder.push_edge((u - 1) as VertexId, u as VertexId);
    }
    builder.build()
}

/// Star S_n: vertex 0 connected to vertices `1..n`.
pub fn star(n: usize) -> CsrGraph {
    assert!(n >= 1);
    let mut builder = GraphBuilder::new().num_vertices(n);
    for u in 1..n {
        builder.push_edge(0, u as VertexId);
    }
    builder.build()
}

/// Two-dimensional grid graph of `rows x cols` vertices.
pub fn grid(rows: usize, cols: usize) -> CsrGraph {
    let idx = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut builder = GraphBuilder::new().num_vertices(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                builder.push_edge(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                builder.push_edge(idx(r, c), idx(r + 1, c));
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_has_requested_edges() {
        let g = erdos_renyi(100, 500, 42);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 500);
    }

    #[test]
    fn erdos_renyi_deterministic() {
        let a = erdos_renyi(50, 100, 7);
        let b = erdos_renyi(50, 100, 7);
        assert_eq!(a, b);
        let c = erdos_renyi(50, 100, 8);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic]
    fn erdos_renyi_too_many_edges_panics() {
        let _ = erdos_renyi(4, 100, 0);
    }

    #[test]
    fn power_law_shape() {
        let g = power_law(500, 4, 1);
        assert_eq!(g.num_vertices(), 500);
        // Roughly n * m edges (the initial clique adds a few).
        assert!(g.num_edges() >= 4 * (500 - 5) as u64);
        // Heavy tail: the max degree should far exceed the average.
        let avg_degree = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(g.max_degree() as f64 > 3.0 * avg_degree);
    }

    #[test]
    fn power_law_deterministic() {
        assert_eq!(power_law(200, 3, 5), power_law(200, 3, 5));
    }

    #[test]
    fn complete_graph_counts() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert!(g.vertices().all(|v| g.degree(v) == 5));
    }

    #[test]
    fn cycle_path_star_grid() {
        let c = cycle(5);
        assert_eq!(c.num_edges(), 5);
        assert!(c.vertices().all(|v| c.degree(v) == 2));

        let p = path(5);
        assert_eq!(p.num_edges(), 4);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(2), 2);

        let s = star(5);
        assert_eq!(s.num_edges(), 4);
        assert_eq!(s.degree(0), 4);

        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), (3 * 3 + 2 * 4) as u64);
    }
}
