//! Brute-force ground truth.
//!
//! Enumerates every injective mapping of pattern vertices to data vertices
//! that preserves pattern edges (non-induced subgraph semantics, the same as
//! GraphPi's), then divides by the pattern's automorphism count to obtain
//! the number of distinct embeddings. Exponential in the pattern size and
//! only intended for small graphs in tests and validation runs.

use graphpi_graph::csr::{CsrGraph, VertexId};
use graphpi_pattern::automorphism::{automorphism_count, automorphism_group};
use graphpi_pattern::pattern::Pattern;
use graphpi_pattern::permutation::Permutation;

/// Counts injective, edge-preserving mappings (each distinct subgraph is
/// counted once per automorphism).
pub fn count_mappings(pattern: &Pattern, graph: &CsrGraph) -> u64 {
    let n = pattern.num_vertices();
    if n == 0 {
        return 0;
    }
    let mut assignment: Vec<VertexId> = Vec::with_capacity(n);
    let mut count = 0u64;
    extend(pattern, graph, &mut assignment, &mut count);
    count
}

/// Counts distinct embeddings (subgraphs isomorphic to the pattern).
pub fn count_embeddings(pattern: &Pattern, graph: &CsrGraph) -> u64 {
    let aut = automorphism_count(pattern) as u64;
    count_mappings(pattern, graph) / aut
}

/// Visits every injective, edge-preserving mapping (indexed by pattern
/// vertex). A distinct subgraph is visited once per pattern automorphism;
/// callers that want one visit per *embedding* canonicalize the tuple
/// (e.g. sort it) and deduplicate.
pub(crate) fn for_each_mapping(
    pattern: &Pattern,
    graph: &CsrGraph,
    mut visit: impl FnMut(&[VertexId]),
) {
    if pattern.num_vertices() == 0 {
        return;
    }
    let mut assignment: Vec<VertexId> = Vec::with_capacity(pattern.num_vertices());
    extend_visit(pattern, graph, &mut assignment, &mut visit);
}

/// Canonical representative of a mapping's automorphism orbit: the
/// lexicographically smallest relabeling `m ∘ π` over the pattern's
/// automorphism group. Two mappings describe the same embedding iff their
/// canonical tuples are equal. Sorting the data vertices instead is NOT a
/// valid canonical form: distinct embeddings can share a vertex set (a K5
/// holds 60 house embeddings on the same five vertices).
pub fn canonical_embedding(auts: &[Permutation], mapping: &[VertexId]) -> Vec<VertexId> {
    let mut best: Option<Vec<VertexId>> = None;
    for perm in auts {
        let candidate: Vec<VertexId> = (0..mapping.len()).map(|i| mapping[perm.apply(i)]).collect();
        if best.as_ref().map_or(true, |b| candidate < *b) {
            best = Some(candidate);
        }
    }
    best.unwrap_or_default()
}

/// Collects the distinct embeddings as canonical tuples (one per subgraph
/// occurrence, indexed by pattern vertex), sorted — the set GraphPi's
/// enumeration mode must reproduce exactly after canonicalizing its own
/// output with [`canonical_embedding`].
pub fn embeddings_sorted(pattern: &Pattern, graph: &CsrGraph) -> Vec<Vec<VertexId>> {
    let auts = automorphism_group(pattern);
    let mut tuples = Vec::new();
    for_each_mapping(pattern, graph, |mapping| {
        tuples.push(canonical_embedding(&auts, mapping));
    });
    tuples.sort_unstable();
    tuples.dedup();
    tuples
}

fn extend(pattern: &Pattern, graph: &CsrGraph, assignment: &mut Vec<VertexId>, count: &mut u64) {
    let next = assignment.len();
    if next == pattern.num_vertices() {
        *count += 1;
        return;
    }
    'candidates: for v in graph.vertices() {
        if assignment.contains(&v) {
            continue;
        }
        for (prev, &mapped) in assignment.iter().enumerate() {
            if pattern.has_edge(next, prev) && !graph.has_edge(v, mapped) {
                continue 'candidates;
            }
        }
        assignment.push(v);
        extend(pattern, graph, assignment, count);
        assignment.pop();
    }
}

fn extend_visit(
    pattern: &Pattern,
    graph: &CsrGraph,
    assignment: &mut Vec<VertexId>,
    visit: &mut impl FnMut(&[VertexId]),
) {
    let next = assignment.len();
    if next == pattern.num_vertices() {
        visit(assignment);
        return;
    }
    'candidates: for v in graph.vertices() {
        if assignment.contains(&v) {
            continue;
        }
        for (prev, &mapped) in assignment.iter().enumerate() {
            if pattern.has_edge(next, prev) && !graph.has_edge(v, mapped) {
                continue 'candidates;
            }
        }
        assignment.push(v);
        extend_visit(pattern, graph, assignment, visit);
        assignment.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpi_graph::{builder::from_edges, generators, triangles};
    use graphpi_pattern::prefab;

    #[test]
    fn triangle_count_matches_dedicated_counter() {
        let g = generators::erdos_renyi(40, 250, 7);
        assert_eq!(
            count_embeddings(&prefab::triangle(), &g),
            triangles::count_triangles(&g)
        );
    }

    #[test]
    fn known_small_graphs() {
        // A 4-cycle with one chord contains exactly one rectangle and two
        // triangles.
        let g = from_edges(&[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        assert_eq!(count_embeddings(&prefab::rectangle(), &g), 1);
        assert_eq!(count_embeddings(&prefab::triangle(), &g), 2);
        // K4 contains 3 rectangles (each 4-cycle) and 4 triangles.
        let k4 = generators::complete(4);
        assert_eq!(count_embeddings(&prefab::rectangle(), &k4), 3);
        assert_eq!(count_embeddings(&prefab::triangle(), &k4), 4);
    }

    #[test]
    fn clique_counts_on_complete_graphs() {
        // K6 contains C(6, k) k-cliques.
        let k6 = generators::complete(6);
        assert_eq!(count_embeddings(&prefab::clique(3), &k6), 20);
        assert_eq!(count_embeddings(&prefab::clique(4), &k6), 15);
        assert_eq!(count_embeddings(&prefab::clique(5), &k6), 6);
    }

    #[test]
    fn distinct_embeddings_on_a_shared_vertex_set() {
        // K5 holds 5!/|Aut(house)| = 60 distinct house embeddings, every one
        // of them on the same five vertices — canonicalization must keep
        // them apart while collapsing each automorphism orbit to one tuple.
        let k5 = generators::complete(5);
        let house = prefab::house();
        let embeddings = embeddings_sorted(&house, &k5);
        assert_eq!(embeddings.len(), 60);
        assert_eq!(embeddings.len() as u64, count_embeddings(&house, &k5));
        for tuple in &embeddings {
            let mut sorted = tuple.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn empty_pattern_and_graph() {
        let g = generators::complete(4);
        assert_eq!(count_mappings(&graphpi_pattern::Pattern::empty(0), &g), 0);
        let empty = graphpi_graph::GraphBuilder::new().build();
        assert_eq!(count_embeddings(&prefab::triangle(), &empty), 0);
    }
}
