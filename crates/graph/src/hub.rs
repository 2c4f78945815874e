//! Hub-accelerated adjacency: degree-descending relabeling plus bitset rows
//! for the high-degree core.
//!
//! Real-world degree distributions are heavily skewed (the premise of the
//! paper's Section IV-E load-balancing design), so a small set of *hub*
//! vertices participates in a disproportionate share of all neighborhood
//! intersections. [`HubGraph`] exploits that:
//!
//! 1. The graph is **relabeled in degree-descending order**, so the top-k
//!    high-degree vertices occupy ids `0..k` (hub membership is a single
//!    compare) and the hottest adjacency lists sit together in cache.
//! 2. Each hub's neighborhood is additionally stored as a **bitset row**
//!    over all vertices, so intersections *against* a hub become word-AND +
//!    popcount (hub × hub) or per-element bit probes (hub × sorted list)
//!    instead of list merges over the hub's huge adjacency.
//!
//! Embedding **counts** are invariant under relabeling (symmetry-breaking
//! restrictions compare ids, but the total over any consistent labeling is
//! the same), which the engine's agreement tests enforce. Listings are *not*
//! translated back; the hub path is a counting accelerator.

use crate::csr::{CsrGraph, VertexId};

/// Options controlling which vertices become hubs.
#[derive(Debug, Clone, Copy)]
pub struct HubOptions {
    /// Upper bound on the number of hub rows (memory: `max_hubs × |V| / 8`
    /// bytes).
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

/// A data graph relabeled degree-descending, with bitset adjacency rows for
/// its top-k high-degree core.
#[derive(Clone, PartialEq, Eq)]
pub struct HubGraph {
    graph: CsrGraph,
    /// `new_to_old[new_id] = old_id` (informational / for diagnostics).
    new_to_old: Vec<VertexId>,
    hub_count: usize,
    words_per_row: usize,
    /// `hub_count` rows of `words_per_row` words; bit `v` of row `h` is set
    /// iff the (relabeled) edge `(h, v)` exists.
    bits: Vec<u64>,
}

impl HubGraph {
    /// Builds the hub structure: relabels `graph` in degree-descending order
    /// and materialises bitset rows for every vertex of the high-degree core
    /// selected by `options`.
    pub fn build(graph: &CsrGraph, options: HubOptions) -> Self {
        let n = graph.num_vertices();
        let order = graph.vertices_by_degree_desc();
        let mut old_to_new = vec![0 as VertexId; n];
        for (new_id, &old_id) in order.iter().enumerate() {
            old_to_new[old_id as usize] = new_id as VertexId;
        }

        // Rebuild the CSR under the new labels (adjacency re-sorted).
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::with_capacity(graph.num_edges() as usize * 2);
        let mut adj: Vec<VertexId> = Vec::new();
        for &old_id in &order {
            adj.clear();
            adj.extend(
                graph
                    .neighbors(old_id)
                    .iter()
                    .map(|&u| old_to_new[u as usize]),
            );
            adj.sort_unstable();
            neighbors.extend_from_slice(&adj);
            offsets.push(neighbors.len());
        }
        let relabeled = CsrGraph::from_raw_parts(offsets, neighbors);

        let hub_count = order
            .iter()
            .take(options.max_hubs)
            .filter(|&&v| graph.degree(v) >= options.min_degree.max(1))
            .count();
        let words_per_row = n.div_ceil(64);
        let mut bits = vec![0u64; hub_count * words_per_row];
        for h in 0..hub_count {
            let row = &mut bits[h * words_per_row..(h + 1) * words_per_row];
            for &v in relabeled.neighbors(h as VertexId) {
                row[(v as usize) >> 6] |= 1u64 << (v & 63);
            }
        }

        Self {
            graph: relabeled,
            new_to_old: order,
            hub_count,
            words_per_row,
            bits,
        }
    }

    /// The relabeled (degree-descending) data graph. All hub-accelerated
    /// execution runs against this graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Number of hub rows.
    #[inline]
    pub fn hub_count(&self) -> usize {
        self.hub_count
    }

    /// Whether `v` (a *relabeled* id) has a bitset row.
    #[inline]
    pub fn is_hub(&self, v: VertexId) -> bool {
        (v as usize) < self.hub_count
    }

    /// Maps a relabeled id back to the original id.
    #[inline]
    pub fn original_id(&self, new_id: VertexId) -> VertexId {
        self.new_to_old[new_id as usize]
    }

    /// The bitset row of hub `h`.
    #[inline]
    pub(crate) fn row(&self, h: VertexId) -> &[u64] {
        let h = h as usize;
        debug_assert!(h < self.hub_count);
        &self.bits[h * self.words_per_row..(h + 1) * self.words_per_row]
    }

    /// Whether hub `h` is adjacent to `v` (single bit probe).
    #[inline]
    pub fn contains(&self, h: VertexId, v: VertexId) -> bool {
        self.row(h)[(v as usize) >> 6] & (1u64 << (v & 63)) != 0
    }

    /// `|N(a) ∩ N(b)|` for two hubs, as word-AND + popcount.
    pub fn intersect_hubs_count(&self, a: VertexId, b: VertexId) -> usize {
        self.row(a)
            .iter()
            .zip(self.row(b))
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// ANDs the rows of every hub in `hubs` into `words` (which is resized
    /// to the row width). `hubs` must be non-empty and all ids must be hubs.
    pub fn and_rows_into(&self, hubs: &[VertexId], words: &mut Vec<u64>) {
        assert!(!hubs.is_empty(), "and_rows_into requires at least one hub");
        words.clear();
        words.extend_from_slice(self.row(hubs[0]));
        for &h in &hubs[1..] {
            for (w, r) in words.iter_mut().zip(self.row(h)) {
                *w &= r;
            }
        }
    }

    /// Extracts the set bits of `words` as sorted vertex ids appended into
    /// `out` (cleared first).
    pub fn extract_bits_into(words: &[u64], out: &mut Vec<VertexId>) {
        out.clear();
        for (wi, &word) in words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros();
                out.push(((wi as u32) << 6) | bit);
                w &= w - 1;
            }
        }
    }

    /// Materialises `list ∩ N(h₁) ∩ … ∩ N(hₖ)` into `out` by probing each
    /// element of the sorted `list` against every hub row: `O(|list| · k)`
    /// regardless of the hubs' degrees.
    pub fn filter_list_into(&self, hubs: &[VertexId], list: &[VertexId], out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(
            list.iter()
                .copied()
                .filter(|&v| hubs.iter().all(|&h| self.contains(h, v))),
        );
    }

    /// Memory footprint of the bitset rows in bytes (informational).
    pub fn bitset_bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u64>()
    }
}

impl std::fmt::Debug for HubGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HubGraph")
            .field("num_vertices", &self.graph.num_vertices())
            .field("num_edges", &self.graph.num_edges())
            .field("hub_count", &self.hub_count)
            .field("bitset_bytes", &self.bitset_bytes())
            .finish()
    }
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

    #[test]
    fn relabeling_is_degree_descending_and_preserves_structure() {
        let g = hubby_graph();
        let hub = HubGraph::build(&g, small_opts());
        let r = hub.graph();
        assert_eq!(r.num_vertices(), g.num_vertices());
        assert_eq!(r.num_edges(), g.num_edges());
        // Degrees are non-increasing in the new labeling.
        for v in 1..r.num_vertices() {
            assert!(r.degree(v as VertexId) <= r.degree((v - 1) as VertexId));
        }
        // Every relabeled edge maps back to an original edge.
        for (u, v) in r.edges() {
            assert!(g.has_edge(hub.original_id(u), hub.original_id(v)));
        }
    }

    #[test]
    fn bitset_rows_match_adjacency() {
        let g = hubby_graph();
        let hub = HubGraph::build(&g, small_opts());
        assert!(hub.hub_count() > 0);
        for h in 0..hub.hub_count() as VertexId {
            let mut from_bits = Vec::new();
            HubGraph::extract_bits_into(hub.row(h), &mut from_bits);
            assert_eq!(from_bits, hub.graph().neighbors(h));
            for v in hub.graph().vertices() {
                assert_eq!(hub.contains(h, v), hub.graph().has_edge(h, v));
            }
        }
    }

    #[test]
    fn hub_hub_intersection_matches_merge() {
        let g = hubby_graph();
        let hub = HubGraph::build(&g, small_opts());
        let k = hub.hub_count() as VertexId;
        for a in 0..k.min(6) {
            for b in 0..k.min(6) {
                let expected =
                    vertex_set::intersect_count(hub.graph().neighbors(a), hub.graph().neighbors(b));
                assert_eq!(hub.intersect_hubs_count(a, b), expected, "{a} x {b}");
            }
        }
    }

    #[test]
    fn and_extract_matches_intersect_many() {
        let g = hubby_graph();
        let hub = HubGraph::build(&g, small_opts());
        assert!(hub.hub_count() >= 3);
        let hubs = [0 as VertexId, 1, 2];
        let mut words = Vec::new();
        hub.and_rows_into(&hubs, &mut words);
        let mut got = Vec::new();
        HubGraph::extract_bits_into(&words, &mut got);
        let sets: Vec<&[VertexId]> = hubs.iter().map(|&h| hub.graph().neighbors(h)).collect();
        assert_eq!(got, vertex_set::intersect_many(&sets));
    }

    #[test]
    fn list_filter_matches_merge_intersection() {
        let g = hubby_graph();
        let hub = HubGraph::build(&g, small_opts());
        let list: Vec<VertexId> = hub.graph().neighbors(5).to_vec();
        let hubs = [0 as VertexId, 1];
        let mut out = Vec::new();
        hub.filter_list_into(&hubs, &list, &mut out);
        let expected = vertex_set::intersect_many(&[
            &list,
            hub.graph().neighbors(0),
            hub.graph().neighbors(1),
        ]);
        assert_eq!(out, expected);
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
    fn empty_graph_builds() {
        let g = crate::GraphBuilder::new().num_vertices(0).build();
        let hub = HubGraph::build(&g, HubOptions::default());
        assert_eq!(hub.hub_count(), 0);
        assert_eq!(hub.graph().num_vertices(), 0);
    }
}
