//! Incremental construction of [`CsrGraph`]s from arbitrary edge lists.
//!
//! Two construction paths produce **bit-identical** graphs:
//!
//! * a serial path (normalise → sort → dedup → counting sort), used for
//!   small inputs, and
//! * a parallel path ([`build_from_edge_slice`]) that scales ingest to the
//!   paper's dataset sizes: per-thread degree counting over contiguous
//!   edge chunks, a prefix-sum phase that turns the per-thread counts into
//!   disjoint placement cursors, scattered neighbor placement through
//!   `mmap::DisjointWriter`, and per-vertex-range parallel
//!   sort/dedup (+ compaction when duplicates were dropped).
//!
//! Both accept edges in any order, with either endpoint first, with
//! duplicates and with self loops; the result is a *simple* undirected
//! graph with sorted adjacency lists. Because the final CSR is canonical
//! (sorted, deduplicated), the output does not depend on the thread count
//! — the equality tests below and the loader round-trip tests rely on
//! this.
//!
//! Construction is a one-shot batch job that happens before any engine
//! exists, so the parallel path uses `std::thread::scope` directly rather
//! than the engine's persistent worker pool (which lives in a higher-level
//! crate).

use crate::csr::{CsrGraph, VertexId};
use crate::mmap::DisjointWriter;
use std::ops::Range;

/// Raw-edge count below which [`GraphBuilder::build`] stays serial (thread
/// orchestration would cost more than it saves).
const PARALLEL_BUILD_THRESHOLD: usize = 1 << 15;

/// Cap on builder threads: bounds the `threads × |V|` scratch (per-thread
/// degree and cursor arrays) while covering the core counts the paper's
/// evaluation uses.
const MAX_BUILD_THREADS: usize = 16;

/// Builds a [`CsrGraph`] from an edge list.
///
/// The builder accepts edges in any order, with either endpoint first, with
/// duplicates and with self loops; the resulting graph is a *simple*
/// undirected graph (self loops dropped, parallel edges collapsed) whose
/// adjacency lists are sorted — the invariants the matching engine relies
/// on for merge intersections. Large edge lists are built in parallel (see
/// [`build_from_edge_slice`]); the result is identical either way.
///
/// ```
/// use graphpi_graph::GraphBuilder;
/// let g = GraphBuilder::new()
///     .edges([(0, 1), (1, 0), (1, 1), (2, 1)])
///     .build();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2); // (0,1) deduplicated, (1,1) dropped
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    min_vertices: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the graph has at least `n` vertices even if some of them end
    /// up isolated.
    pub fn num_vertices(mut self, n: usize) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Adds many undirected edges.
    pub fn edges<I>(mut self, iter: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        self.edges.extend(iter);
        self
    }

    /// Adds a single edge in place (non-consuming variant used by loaders
    /// and generators).
    pub fn push_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Finalizes the builder into a [`CsrGraph`], building in parallel when
    /// the edge list is large enough to amortise thread orchestration.
    pub fn build(self) -> CsrGraph {
        let threads = if self.edges.len() >= PARALLEL_BUILD_THRESHOLD {
            0 // auto
        } else {
            1
        };
        build_from_edge_slice(&self.edges, self.min_vertices, threads)
    }
}

/// Builds a CSR graph from a raw edge slice with `threads` workers
/// (0 = all available cores, 1 = serial). Output is identical for every
/// thread count.
pub fn build_from_edge_slice(
    edges: &[(VertexId, VertexId)],
    min_vertices: usize,
    threads: usize,
) -> CsrGraph {
    let threads = resolve_threads(threads, edges.len());
    if threads <= 1 {
        build_csr_serial(edges, min_vertices)
    } else {
        build_csr_parallel(edges, min_vertices, threads)
    }
}

fn resolve_threads(requested: usize, num_edges: usize) -> usize {
    if requested > 0 {
        // An explicit request is honored (capped): callers like the
        // loading bench and the equality tests rely on `threads >= 2`
        // actually taking the parallel code path.
        return requested.min(MAX_BUILD_THREADS);
    }
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Auto mode: below ~16k edges per extra thread the fork/join overhead
    // dominates, so small inputs stay serial.
    hw.min(MAX_BUILD_THREADS).min(num_edges / (1 << 14)).max(1)
}

/// Serial reference construction: normalise, sort, dedup, counting sort.
fn build_csr_serial(raw: &[(VertexId, VertexId)], min_vertices: usize) -> CsrGraph {
    // Determine vertex count.
    let mut n = min_vertices;
    for &(u, v) in raw {
        n = n.max(u as usize + 1).max(v as usize + 1);
    }

    // Normalise: drop self loops, order endpoints, dedup.
    let mut edges: Vec<(VertexId, VertexId)> = raw
        .iter()
        .filter(|&&(u, v)| u != v)
        .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
        .collect();
    edges.sort_unstable();
    edges.dedup();

    // Counting sort into CSR.
    let mut degree = vec![0usize; n];
    for &(u, v) in &edges {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let mut offsets = vec![0usize; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + degree[v];
    }
    let mut cursor = offsets.clone();
    let mut neighbors = vec![0 as VertexId; offsets[n]];
    for &(u, v) in &edges {
        neighbors[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
        neighbors[cursor[v as usize]] = u;
        cursor[v as usize] += 1;
    }
    // Each adjacency list must be sorted; since edges were processed in
    // lexicographic order, the `u`-side entries are already sorted, but the
    // `v`-side entries may not be, so sort every slice.
    for v in 0..n {
        neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
    }
    CsrGraph::from_raw_parts(offsets, neighbors)
}

/// Splits `0..len` into `parts` near-equal contiguous ranges.
fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    (0..parts)
        .map(|k| (len * k / parts)..(len * (k + 1) / parts))
        .collect()
}

/// Splits the vertex space into `parts` contiguous ranges of roughly equal
/// total degree (so the sort/dedup pass is load-balanced on skewed graphs).
fn balanced_vertex_ranges(offsets: &[usize], parts: usize) -> Vec<Range<usize>> {
    let n = offsets.len() - 1;
    let total = offsets[n];
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for k in 1..=parts {
        let end = if k == parts {
            n
        } else {
            let target = total * k / parts;
            offsets.partition_point(|&o| o < target).min(n).max(start)
        };
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Removes consecutive duplicates from a sorted row in place, returning the
/// deduplicated length.
fn dedup_sorted_row(row: &mut [VertexId]) -> usize {
    if row.is_empty() {
        return 0;
    }
    let mut write = 1usize;
    for read in 1..row.len() {
        if row[read] != row[write - 1] {
            row[write] = row[read];
            write += 1;
        }
    }
    write
}

/// Parallel CSR construction (see the module docs for the phase diagram).
fn build_csr_parallel(
    raw: &[(VertexId, VertexId)],
    min_vertices: usize,
    threads: usize,
) -> CsrGraph {
    let chunks = chunk_ranges(raw.len(), threads);

    // Phase 1 — vertex count: parallel max over edge chunks.
    let n = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|r| {
                let chunk = &raw[r.clone()];
                s.spawn(move || {
                    chunk.iter().fold(0usize, |m, &(u, v)| {
                        m.max(u as usize + 1).max(v as usize + 1)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("builder worker panicked"))
            .fold(min_vertices, usize::max)
    });

    // Phase 2 — per-thread degree counting (self loops dropped here and in
    // placement; duplicate edges counted now, collapsed by dedup below).
    let degs: Vec<Vec<u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|r| {
                let chunk = &raw[r.clone()];
                s.spawn(move || {
                    let mut deg = vec![0u32; n];
                    for &(u, v) in chunk {
                        if u != v {
                            deg[u as usize] += 1;
                            deg[v as usize] += 1;
                        }
                    }
                    deg
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("builder worker panicked"))
            .collect()
    });

    // Phase 3 — prefix-sum offsets plus per-thread placement cursors:
    // thread t's cursor for vertex v starts after the entries of threads
    // 0..t, making every (thread, vertex) write range disjoint.
    let mut offsets = vec![0usize; n + 1];
    let mut cursors: Vec<Vec<usize>> = (0..threads).map(|_| vec![0usize; n]).collect();
    for v in 0..n {
        let mut run = offsets[v];
        for (t, deg) in degs.iter().enumerate() {
            cursors[t][v] = run;
            run += deg[v] as usize;
        }
        offsets[v + 1] = run;
    }
    drop(degs);

    // Phase 4 — scattered placement into the shared neighbor array.
    let mut neighbors = vec![0 as VertexId; offsets[n]];
    {
        let writer = DisjointWriter::new(&mut neighbors);
        let writer = &writer;
        std::thread::scope(|s| {
            for (r, mut cursor) in chunks.iter().zip(std::mem::take(&mut cursors)) {
                let chunk = &raw[r.clone()];
                s.spawn(move || {
                    for &(u, v) in chunk {
                        if u != v {
                            // SAFETY: every (thread, vertex) cursor range is
                            // disjoint by the phase-3 prefix sums, so no two
                            // threads ever touch the same index, and nothing
                            // reads `neighbors` until the scope joins.
                            unsafe {
                                writer.write(cursor[u as usize], v);
                                writer.write(cursor[v as usize], u);
                            }
                            cursor[u as usize] += 1;
                            cursor[v as usize] += 1;
                        }
                    }
                });
            }
        });
    }

    // Phase 5 — per-range sort + dedup. Vertex ranges are contiguous, so
    // the rows they own partition `neighbors` into contiguous mut slices.
    let ranges = balanced_vertex_ranges(&offsets, threads);
    let mut lens = vec![0usize; n];
    std::thread::scope(|s| {
        let mut rest_rows: &mut [VertexId] = &mut neighbors;
        let mut rest_lens: &mut [usize] = &mut lens;
        let mut consumed = 0usize;
        for range in &ranges {
            let row_bytes = offsets[range.end] - consumed;
            let (rows, tail) = rest_rows.split_at_mut(row_bytes);
            rest_rows = tail;
            let (lens_part, tail) = rest_lens.split_at_mut(range.len());
            rest_lens = tail;
            consumed = offsets[range.end];
            let offsets = &offsets;
            let base = offsets[range.start];
            let range = range.clone();
            s.spawn(move || {
                for (i, v) in range.clone().enumerate() {
                    let row = &mut rows[offsets[v] - base..offsets[v + 1] - base];
                    row.sort_unstable();
                    lens_part[i] = dedup_sorted_row(row);
                }
            });
        }
    });

    // Phase 6 — compaction: only needed when dedup dropped entries.
    let mut final_offsets = vec![0usize; n + 1];
    for v in 0..n {
        final_offsets[v + 1] = final_offsets[v] + lens[v];
    }
    if final_offsets[n] == offsets[n] {
        return CsrGraph::from_raw_parts(final_offsets, neighbors);
    }
    let mut compacted = vec![0 as VertexId; final_offsets[n]];
    std::thread::scope(|s| {
        let mut rest: &mut [VertexId] = &mut compacted;
        let mut consumed = 0usize;
        for range in &ranges {
            let part_len = final_offsets[range.end] - consumed;
            let (part, tail) = rest.split_at_mut(part_len);
            rest = tail;
            consumed = final_offsets[range.end];
            let neighbors = &neighbors;
            let offsets = &offsets;
            let final_offsets = &final_offsets;
            let lens = &lens;
            let base = final_offsets[range.start];
            let range = range.clone();
            s.spawn(move || {
                for v in range {
                    let src = &neighbors[offsets[v]..offsets[v] + lens[v]];
                    part[final_offsets[v] - base..final_offsets[v + 1] - base].copy_from_slice(src);
                }
            });
        }
    });
    CsrGraph::from_raw_parts(final_offsets, compacted)
}

/// Convenience helper: builds a graph straight from an edge slice.
pub fn from_edges(edges: &[(VertexId, VertexId)]) -> CsrGraph {
    GraphBuilder::new().edges(edges.iter().copied()).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loops() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)])
            .build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn isolated_vertices_preserved() {
        let g = GraphBuilder::new().num_vertices(5).edges([(0, 1)]).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(4), &[] as &[u32]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn adjacency_sorted() {
        let g = from_edges(&[(3, 0), (3, 2), (3, 1), (0, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2]);
        assert_eq!(g.neighbors(0), &[2, 3]);
    }

    #[test]
    fn push_edge_in_place() {
        let mut b = GraphBuilder::new();
        for i in 0..10 {
            b.push_edge(i, (i + 1) % 10);
        }
        let g = b.build();
        assert_eq!(g.num_edges(), 10);
        assert!(g.vertices().all(|v| g.degree(v) == 2));
    }

    /// Deterministic pseudo-random edge list with duplicates, reversed
    /// duplicates and self loops mixed in.
    fn messy_edges(count: usize, n: u32, seed: u64) -> Vec<(VertexId, VertexId)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut edges = Vec::with_capacity(count);
        for _ in 0..count {
            let u = (next() % n as u64) as VertexId;
            let v = (next() % n as u64) as VertexId;
            edges.push((u, v));
            if next() % 4 == 0 {
                edges.push((v, u)); // reversed duplicate
            }
            if next() % 7 == 0 {
                edges.push((u, u)); // self loop
            }
        }
        edges
    }

    #[test]
    fn parallel_build_matches_serial_exactly() {
        for (count, n, seed) in [(500usize, 40u32, 1u64), (5_000, 300, 2), (20_000, 1_000, 3)] {
            let edges = messy_edges(count, n, seed);
            let serial = build_from_edge_slice(&edges, 0, 1);
            for threads in [2, 3, 4, 8] {
                let parallel = build_csr_parallel(&edges, 0, threads);
                assert_eq!(serial, parallel, "count={count} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_build_respects_min_vertices() {
        let edges = messy_edges(2_000, 50, 9);
        let serial = build_from_edge_slice(&edges, 200, 1);
        let parallel = build_csr_parallel(&edges, 200, 4);
        assert_eq!(serial.num_vertices(), 200);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_build_handles_duplicate_heavy_input() {
        // Every edge appears many times: the dedup/compaction path must run.
        let mut edges = Vec::new();
        for _ in 0..50 {
            for u in 0..40u32 {
                for v in (u + 1)..40 {
                    edges.push((u, v));
                }
            }
        }
        let serial = build_from_edge_slice(&edges, 0, 1);
        let parallel = build_csr_parallel(&edges, 0, 4);
        assert_eq!(serial, parallel);
        assert_eq!(parallel.num_edges(), (40 * 39) / 2);
    }

    #[test]
    fn thread_resolution_is_bounded() {
        assert_eq!(resolve_threads(1, 1 << 20), 1);
        assert!(resolve_threads(0, 1 << 20) >= 1);
        assert!(resolve_threads(64, 1 << 30) <= MAX_BUILD_THREADS);
        // Explicit requests take the parallel path even on small inputs
        // (benches and agreement tests depend on this)…
        assert_eq!(resolve_threads(8, 100), 8);
        // …while auto mode keeps small inputs serial.
        assert_eq!(resolve_threads(0, 100), 1);
    }

    #[test]
    fn balanced_ranges_cover_and_balance() {
        let offsets = vec![0usize, 100, 100, 110, 400, 420, 500];
        let ranges = balanced_vertex_ranges(&offsets, 3);
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, 6);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }
}
