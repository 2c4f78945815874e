//! Hub-accelerated adjacency: bitset rows for the high-degree core, indexed
//! by the graph's own vertex ids.
//!
//! Real-world degree distributions are heavily skewed (the premise of the
//! paper's Section IV-E load-balancing design), so a small set of *hub*
//! vertices participates in a disproportionate share of all neighborhood
//! intersections. [`HubGraph`] stores each hub's neighborhood once more as a
//! **bitset row** over all vertices, so an intersection *against* a hub
//! becomes word-AND + popcount (hub × hub, [`and_count`] / [`and_into`]) or
//! one bit probe per element (hub × sorted list, [`filter_into`]) instead
//! of a merge over the hub's huge adjacency.
//!
//! The index is rows only, beside the caller's CSR: it copies no adjacency
//! list and renames no vertex. A set computed through a row is the set the
//! merge computes, so whether hubs are on is a choice of kernel, never of
//! result — which is why the engine turns them on by default wherever the
//! graph has a row.

use crate::csr::{CsrGraph, VertexId};
use std::cmp::Reverse;

/// Options controlling which vertices become hubs.
///
/// The engine builds its index with the defaults and intersects through it
/// whenever it has a row, so these bounds are what every query on the
/// graph pays for in memory.
#[derive(Debug, Clone, Copy)]
pub struct HubOptions {
    /// Upper bound on the number of hub rows. The index weighs
    /// `⌈|V| / 64⌉ × 8` bytes per row plus 4 bytes per vertex up to the
    /// highest hub id for the row lookup: at most about
    /// `max_hubs × |V| / 8 + 4 × |V|` bytes, and nothing without hubs.
    pub max_hubs: usize,
    /// Minimum degree for a vertex to qualify as a hub. Bit probes beat
    /// merges only when the hub's adjacency is large; low-degree rows would
    /// waste memory for no speedup.
    pub min_degree: usize,
}

impl Default for HubOptions {
    fn default() -> Self {
        Self {
            max_hubs: 256,
            min_degree: 32,
        }
    }
}

/// `row_of` entry of a vertex without a row.
const NO_ROW: u32 = u32::MAX;

/// Bitset adjacency rows for the high-degree core of one graph, indexed by
/// that graph's vertex ids.
pub struct HubGraph {
    /// `row_of[v]` is the index of `v`'s row, or [`NO_ROW`]. It ends at the
    /// highest hub id, so a vertex past its end has no row, and a graph
    /// without hubs pays nothing for the lookup.
    row_of: Vec<u32>,
    /// `|V|` and `|E|` of the graph the rows were built over.
    num_vertices: usize,
    num_edges: u64,
    hub_count: usize,
    words_per_row: usize,
    /// `hub_count` rows of `words_per_row` words; bit `v` of a hub's row is
    /// set iff the edge `(hub, v)` exists.
    bits: Vec<u64>,
}

impl HubGraph {
    /// Builds a bitset row for every hub `options` selects: the first
    /// `max_hubs` vertices in degree-descending order (ties by id) whose
    /// degree is at least `min_degree`.
    pub fn build(graph: &CsrGraph, options: HubOptions) -> Self {
        let n = graph.num_vertices();
        let words_per_row = n.div_ceil(64);
        let min_degree = options.min_degree.max(1);
        // Filter by degree first and order only the survivors: the rows and
        // their order are those of a full degree sort, without sorting |V|.
        let mut hubs: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| graph.degree(v) >= min_degree)
            .collect();
        hubs.sort_unstable_by_key(|&v| (Reverse(graph.degree(v)), v));
        hubs.truncate(options.max_hubs);
        let lookup_len = hubs.iter().max().map_or(0, |&v| v as usize + 1);
        let mut row_of = vec![NO_ROW; lookup_len];
        let mut bits = vec![0u64; hubs.len() * words_per_row];
        let rows = bits.chunks_exact_mut(words_per_row.max(1));
        for (h, (&hub, row)) in hubs.iter().zip(rows).enumerate() {
            row_of[hub as usize] = h as u32;
            for &v in graph.neighbors(hub) {
                row[(v as usize) >> 6] |= 1u64 << (v & 63);
            }
        }
        Self {
            row_of,
            num_vertices: n,
            num_edges: graph.num_edges(),
            hub_count: hubs.len(),
            words_per_row,
            bits,
        }
    }

    /// Number of hub rows.
    #[inline]
    pub fn hub_count(&self) -> usize {
        self.hub_count
    }

    /// Whether these rows can index `graph`: it has the `|V|` and `|E|` they
    /// were built over.
    pub fn indexes(&self, graph: &CsrGraph) -> bool {
        (self.num_vertices, self.num_edges) == (graph.num_vertices(), graph.num_edges())
    }

    /// The bitset row of `v`, if `v` is a hub.
    #[inline]
    pub fn row(&self, v: VertexId) -> Option<&[u64]> {
        let h = *self.row_of.get(v as usize)? as usize;
        (h != NO_ROW as usize).then(|| &self.bits[h * self.words_per_row..][..self.words_per_row])
    }

    /// Memory footprint of the bitset rows in bytes (informational).
    pub fn bitset_bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u64>()
    }
}

impl std::fmt::Debug for HubGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HubGraph")
            .field("num_vertices", &self.num_vertices)
            .field("num_edges", &self.num_edges)
            .field("hub_count", &self.hub_count)
            .field("bitset_bytes", &self.bitset_bytes())
            .finish()
    }
}

/// Whether `row` holds `v`: hub × vertex adjacency as one bit probe.
#[inline]
pub fn contains(row: &[u64], v: VertexId) -> bool {
    row[(v as usize) >> 6] & (1u64 << (v & 63)) != 0
}

/// `|a ∩ b|` for two rows, as word-AND + popcount.
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// `a ∩ b` for two rows, as sorted ids in `out` (cleared first).
pub fn and_into(a: &[u64], b: &[u64], out: &mut Vec<VertexId>) {
    out.clear();
    for (wi, (x, y)) in a.iter().zip(b).enumerate() {
        let mut w = x & y;
        while w != 0 {
            out.push(((wi as VertexId) << 6) | w.trailing_zeros());
            w &= w - 1;
        }
    }
}

/// The members of the sorted `list` that `row` holds, into `out` (cleared
/// first): `O(|list|)` whatever the hub's degree.
pub fn filter_into(row: &[u64], list: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    out.extend(list.iter().copied().filter(|&v| contains(row, v)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, vertex_set};

    fn hubby_graph() -> CsrGraph {
        generators::power_law(300, 6, 123)
    }

    fn small_opts() -> HubOptions {
        HubOptions {
            max_hubs: 16,
            min_degree: 4,
        }
    }

    /// The hubs in row order: every vertex with a row, by row index.
    fn hubs_of(hub: &HubGraph, g: &CsrGraph) -> Vec<VertexId> {
        let mut hubs: Vec<VertexId> = g.vertices().filter(|&v| hub.row(v).is_some()).collect();
        hubs.sort_by_key(|&v| hub.row_of[v as usize]);
        hubs
    }

    #[test]
    fn hubs_are_the_top_of_the_degree_order() {
        let g = hubby_graph();
        let wide = HubOptions {
            max_hubs: 256,
            min_degree: 10,
        };
        for options in [small_opts(), wide] {
            let hub = HubGraph::build(&g, options);
            let order = g.vertices_by_degree_desc();
            let qualifying = order
                .iter()
                .take(options.max_hubs)
                .filter(|&&v| g.degree(v) >= options.min_degree)
                .count();
            assert!(qualifying > 0);
            assert_eq!(hub.hub_count(), qualifying);
            assert_eq!(hubs_of(&hub, &g), order[..qualifying]);
            assert_eq!(
                hub.bitset_bytes(),
                qualifying * g.num_vertices().div_ceil(64) * 8
            );
        }
    }

    #[test]
    fn bitset_rows_match_adjacency() {
        let g = hubby_graph();
        let hub = HubGraph::build(&g, small_opts());
        assert!(hub.indexes(&g));
        assert!(!hub.indexes(&generators::power_law(300, 5, 123)));
        let mut rows = 0;
        for v in g.vertices() {
            let Some(row) = hub.row(v) else { continue };
            rows += 1;
            let mut from_bits = Vec::new();
            and_into(row, row, &mut from_bits);
            assert_eq!(from_bits, g.neighbors(v), "row of {v}");
            for u in g.vertices() {
                assert_eq!(contains(row, u), g.has_edge(v, u));
            }
        }
        assert_eq!(rows, hub.hub_count());
    }

    #[test]
    fn hub_hub_intersection_matches_merge() {
        let g = hubby_graph();
        let hub = HubGraph::build(&g, small_opts());
        let hubs = hubs_of(&hub, &g);
        for &a in hubs.iter().take(6) {
            for &b in hubs.iter().take(6) {
                let expected = vertex_set::intersect_count(g.neighbors(a), g.neighbors(b));
                let (ra, rb) = (hub.row(a).unwrap(), hub.row(b).unwrap());
                assert_eq!(and_count(ra, rb), expected, "{a} x {b}");
            }
        }
    }

    #[test]
    fn and_extract_matches_intersect_many() {
        let g = hubby_graph();
        let hub = HubGraph::build(&g, small_opts());
        let hubs = hubs_of(&hub, &g);
        assert!(hubs.len() >= 3);
        for pair in hubs.windows(2) {
            let mut got = Vec::new();
            and_into(
                hub.row(pair[0]).unwrap(),
                hub.row(pair[1]).unwrap(),
                &mut got,
            );
            let sets = [g.neighbors(pair[0]), g.neighbors(pair[1])];
            assert_eq!(got, vertex_set::intersect_many(&sets), "{pair:?}");
        }
    }

    #[test]
    fn list_filter_matches_merge_intersection() {
        let g = hubby_graph();
        let hub = HubGraph::build(&g, small_opts());
        for &h in &hubs_of(&hub, &g) {
            for list in [g.neighbors(5), g.neighbors(h)] {
                let mut out = Vec::new();
                filter_into(hub.row(h).unwrap(), list, &mut out);
                let mut expected = Vec::new();
                vertex_set::intersect_into(list, g.neighbors(h), &mut expected);
                assert_eq!(out, expected, "hub {h}");
            }
        }
    }

    #[test]
    fn min_degree_and_max_hubs_cap_the_core() {
        let g = hubby_graph();
        let capped = HubGraph::build(
            &g,
            HubOptions {
                max_hubs: 3,
                min_degree: 1,
            },
        );
        assert_eq!(capped.hub_count(), 3);
        let strict = HubGraph::build(
            &g,
            HubOptions {
                max_hubs: 300,
                min_degree: usize::MAX,
            },
        );
        assert_eq!(strict.hub_count(), 0);
    }

    #[test]
    fn the_row_lookup_ends_at_the_highest_hub() {
        // 10,000 vertices, two of them hubs: the lookup covers ids 0..=300,
        // and the other vertices, past its end, have no row.
        let star = |hub: VertexId, first: VertexId| (first..first + 40).map(move |v| (hub, v));
        let g = crate::GraphBuilder::new()
            .num_vertices(10_000)
            .edges(star(300, 1_000).chain(star(7, 2_000)))
            .build();
        let hub = HubGraph::build(&g, HubOptions::default());
        assert_eq!(hubs_of(&hub, &g), [7, 300]);
        assert_eq!(hub.row_of.len(), 301);
        assert!(hub.indexes(&g));
        assert!(hub.row(9_999).is_none());
        // A graph without a vertex of degree 32 pays nothing for a lookup.
        let flat = generators::grid(100, 100);
        let none = HubGraph::build(&flat, HubOptions::default());
        assert_eq!((none.hub_count(), none.row_of.len()), (0, 0));
        assert!(none.indexes(&flat));
        assert!(flat.vertices().all(|v| none.row(v).is_none()));
    }

    #[test]
    fn empty_graph_builds() {
        let g = crate::GraphBuilder::new().num_vertices(0).build();
        let hub = HubGraph::build(&g, HubOptions::default());
        assert_eq!(hub.hub_count(), 0);
        assert!(hub.indexes(&g));
    }
}
