//! Batched edge updates over an immutable CSR base: the mutable-graph
//! overlay and its generation-based snapshots.
//!
//! The matching kernels want an immutable, sorted [`CsrGraph`] — that is
//! what makes the SIMD intersection cores and the zero-copy mmap path
//! work. This module makes the *served* graph mutable without giving that
//! up:
//!
//! * [`EdgeBatch`] — one atomic unit of change: a list of undirected edge
//!   insertions and deletions (inserts applied first, then deletes).
//! * `DeltaOverlay` — per-vertex **sorted** insert/delete sets layered
//!   over a base CSR. Applying a batch normalises it against the current
//!   view (inserting a present edge or deleting an absent one is a no-op;
//!   re-inserting a deleted edge reinstates it), so the overlay invariants
//!   — insert rows disjoint from the base, delete rows a subset of it —
//!   hold by construction and merged reads are a single three-way sorted
//!   merge per row. The base CSR is never touched.
//! * [`DynamicGraph`] — the generation machine. Every committed batch
//!   produces a new *generation*; [`DynamicGraph::snapshot`] pins the
//!   current one as an immutable `Arc<CsrGraph>` that stays alive (and
//!   bit-stable) for as long as any in-flight query holds it, while later
//!   batches commit underneath. When the overlay grows past the
//!   compaction threshold it is folded into a fresh base CSR, bounding
//!   merge work per materialisation.
//!
//! Commits are deterministic: replaying the same batches in the same
//! order against the same base always reproduces the same CSR bytes —
//! the property the write-ahead log ([`crate::wal`]) turns into crash
//! recovery.

use crate::csr::{CsrGraph, VertexId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Hard cap on how far beyond the base vertex count a single overlay may
/// grow. Updates are client-supplied; without a bound, one hostile edge
/// `(0, u32::MAX)` would make materialisation allocate gigabytes of empty
/// rows.
pub(crate) const MAX_VERTEX_GROWTH: usize = 1 << 20;

/// Default overlay size (in applied edge modifications) past which
/// [`DynamicGraph`] folds the overlay into a fresh base CSR.
pub(crate) const DEFAULT_COMPACTION_THRESHOLD: u64 = 1 << 16;

/// Errors produced while applying an [`EdgeBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An edge endpoint exceeds the allowed vertex range (base vertices
    /// plus `MAX_VERTEX_GROWTH`).
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: VertexId,
        /// First id past the allowed range.
        limit: u64,
    },
    /// A replicated commit arrived out of sequence: the batch claims a
    /// generation that does not continue the graph's current one. The
    /// graph is unchanged — replication must resynchronise instead of
    /// silently skipping or double-applying batches.
    GenerationGap {
        /// The generation the graph would produce next.
        expected: u64,
        /// The generation the batch claimed.
        found: u64,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::VertexOutOfRange { vertex, limit } => {
                write!(f, "vertex {vertex} out of range (limit {limit})")
            }
            DeltaError::GenerationGap { expected, found } => {
                write!(
                    f,
                    "generation gap: expected generation {expected}, batch claims {found}"
                )
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// One atomic unit of graph change: undirected edge insertions and
/// deletions. Within a batch all insertions are applied before all
/// deletions, so an edge both inserted and deleted by the same batch ends
/// up absent. Self loops are ignored; endpoint order does not matter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeBatch {
    inserts: Vec<(VertexId, VertexId)>,
    deletes: Vec<(VertexId, VertexId)>,
}

impl EdgeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an undirected edge insertion.
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.inserts.push((u, v));
        self
    }

    /// Queues an undirected edge deletion.
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.deletes.push((u, v));
        self
    }

    /// The queued insertions, as given.
    pub(crate) fn inserts(&self) -> &[(VertexId, VertexId)] {
        &self.inserts
    }

    /// The queued deletions, as given.
    pub(crate) fn deletes(&self) -> &[(VertexId, VertexId)] {
        &self.deletes
    }

    /// Builds a batch from raw edge lists.
    pub fn from_edges(
        inserts: Vec<(VertexId, VertexId)>,
        deletes: Vec<(VertexId, VertexId)>,
    ) -> Self {
        Self { inserts, deletes }
    }
}

/// What applying a batch actually changed (no-ops excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ApplyOutcome {
    /// Undirected edges that became present.
    pub inserted: u32,
    /// Undirected edges that became absent.
    pub deleted: u32,
}

/// Sorted per-vertex insert/delete sets over a base CSR.
///
/// Invariants maintained by [`DeltaOverlay::apply`]:
/// * every insert row is strictly sorted and disjoint from the base row
///   and the delete row of the same vertex;
/// * every delete row is strictly sorted and a subset of the base row;
/// * both directions of every undirected edge are stored.
///
/// A merged read is therefore exactly `(base \ deletes) ∪ inserts`, one
/// linear three-way merge over sorted inputs.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaOverlay {
    inserts: BTreeMap<VertexId, Vec<VertexId>>,
    deletes: BTreeMap<VertexId, Vec<VertexId>>,
    /// Undirected edges currently added relative to the base.
    inserted_edges: u64,
    /// Undirected edges currently removed relative to the base.
    deleted_edges: u64,
    /// One past the largest vertex id ever referenced by an insert
    /// (vertices, once referenced, exist for good — possibly isolated).
    grown_vertices: usize,
}

/// Inserts `v` into the sorted row `map[u]`; false if already present.
fn row_insert(map: &mut BTreeMap<VertexId, Vec<VertexId>>, u: VertexId, v: VertexId) -> bool {
    let row = map.entry(u).or_default();
    match row.binary_search(&v) {
        Ok(_) => false,
        Err(pos) => {
            row.insert(pos, v);
            true
        }
    }
}

/// Removes `v` from the sorted row `map[u]`; false if absent.
fn row_remove(map: &mut BTreeMap<VertexId, Vec<VertexId>>, u: VertexId, v: VertexId) -> bool {
    let Some(row) = map.get_mut(&u) else {
        return false;
    };
    match row.binary_search(&v) {
        Ok(pos) => {
            row.remove(pos);
            if row.is_empty() {
                map.remove(&u);
            }
            true
        }
        Err(_) => false,
    }
}

fn row_contains(map: &BTreeMap<VertexId, Vec<VertexId>>, u: VertexId, v: VertexId) -> bool {
    map.get(&u).is_some_and(|row| row.binary_search(&v).is_ok())
}

/// Appends `(base_row \ del) ∪ ins` to `out`: one linear merge over three
/// sorted inputs, relying on the overlay invariants (`ins` disjoint from
/// `base_row`, `del` a subset of it).
fn merge_row(base_row: &[VertexId], ins: &[VertexId], del: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut bi, mut ii, mut di) = (0usize, 0usize, 0usize);
    while bi < base_row.len() || ii < ins.len() {
        let take_insert = match (base_row.get(bi), ins.get(ii)) {
            (Some(&b), Some(&i)) => i < b,
            (None, Some(_)) => true,
            _ => false,
        };
        if take_insert {
            out.push(ins[ii]);
            ii += 1;
        } else {
            let b = base_row[bi];
            bi += 1;
            while di < del.len() && del[di] < b {
                di += 1;
            }
            if di < del.len() && del[di] == b {
                di += 1;
                continue; // masked by a delete
            }
            out.push(b);
        }
    }
}

/// Appends rows `rows` of `base`, unchanged, to the CSR arrays `offsets`
/// and `neighbors`: the part inside the base as one slice copy with its
/// offsets shifted to the output position, the grown part past it as
/// empty rows.
fn copy_rows(
    base: &CsrGraph,
    rows: std::ops::Range<usize>,
    offsets: &mut Vec<usize>,
    neighbors: &mut Vec<VertexId>,
) {
    let stop = rows.end.min(base.num_vertices());
    if rows.start < stop {
        let base_offsets = &base.offsets_slice()[rows.start..=stop];
        let (first, last) = (base_offsets[0], base_offsets[base_offsets.len() - 1]);
        let at = neighbors.len();
        neighbors.extend_from_slice(&base.neighbors_slice()[first..last]);
        offsets.extend(base_offsets[1..].iter().map(|&o| o - first + at));
    }
    let grown = rows.end.saturating_sub(rows.start.max(stop));
    offsets.resize(offsets.len() + grown, neighbors.len());
}

impl DeltaOverlay {
    /// An empty overlay.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Total undirected edge modifications currently held (inserted plus
    /// deleted) — the size compaction thresholds compare against.
    pub(crate) fn delta_edges(&self) -> u64 {
        self.inserted_edges + self.deleted_edges
    }

    /// Whether the undirected edge `(u, v)` exists in the merged view.
    pub(crate) fn edge_present(&self, base: &CsrGraph, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        if row_contains(&self.inserts, u, v) {
            return true;
        }
        if row_contains(&self.deletes, u, v) {
            return false;
        }
        (u as usize) < base.num_vertices()
            && (v as usize) < base.num_vertices()
            && base.has_edge(u, v)
    }

    /// Number of vertices in the merged view (base vertices plus any the
    /// overlay has grown).
    pub(crate) fn num_vertices(&self, base: &CsrGraph) -> usize {
        base.num_vertices().max(self.grown_vertices)
    }

    /// Number of undirected edges in the merged view.
    pub(crate) fn num_edges(&self, base: &CsrGraph) -> u64 {
        base.num_edges() + self.inserted_edges - self.deleted_edges
    }

    /// Applies one batch against `base`, normalising it to the overlay
    /// invariants. Insertions first, then deletions; no-ops (inserting a
    /// present edge, deleting an absent one) are skipped and do not count
    /// toward the outcome.
    pub(crate) fn apply(
        &mut self,
        batch: &EdgeBatch,
        base: &CsrGraph,
    ) -> Result<ApplyOutcome, DeltaError> {
        let limit = (base.num_vertices() + MAX_VERTEX_GROWTH) as u64;
        // Validate before mutating anything: a batch is all-or-nothing.
        for &(u, v) in batch.inserts.iter().chain(batch.deletes.iter()) {
            if u as u64 >= limit || v as u64 >= limit {
                let vertex = if u as u64 >= limit { u } else { v };
                return Err(DeltaError::VertexOutOfRange { vertex, limit });
            }
        }
        let mut outcome = ApplyOutcome::default();
        for &(u, v) in &batch.inserts {
            if u == v || self.edge_present(base, u, v) {
                continue;
            }
            let in_base = (u as usize) < base.num_vertices()
                && (v as usize) < base.num_vertices()
                && base.has_edge(u, v);
            if in_base {
                // Present in the base but masked by a delete: reinstate.
                row_remove(&mut self.deletes, u, v);
                row_remove(&mut self.deletes, v, u);
                self.deleted_edges -= 1;
            } else {
                row_insert(&mut self.inserts, u, v);
                row_insert(&mut self.inserts, v, u);
                self.inserted_edges += 1;
                let grown = (u.max(v) as usize) + 1;
                if grown > base.num_vertices() {
                    self.grown_vertices = self.grown_vertices.max(grown);
                }
            }
            outcome.inserted += 1;
        }
        for &(u, v) in &batch.deletes {
            if u == v || !self.edge_present(base, u, v) {
                continue;
            }
            if row_contains(&self.inserts, u, v) {
                // An overlay-only edge: deleting it erases the insert.
                row_remove(&mut self.inserts, u, v);
                row_remove(&mut self.inserts, v, u);
                self.inserted_edges -= 1;
            } else {
                row_insert(&mut self.deletes, u, v);
                row_insert(&mut self.deletes, v, u);
                self.deleted_edges += 1;
            }
            outcome.deleted += 1;
        }
        Ok(outcome)
    }

    /// Folds the overlay into a fresh CSR (the snapshot and compaction
    /// path). The touched rows are visited in ascending order; each maximal
    /// run of untouched base rows between two of them is copied with one
    /// slice copy plus shifted offsets, and only the touched rows are
    /// merged. The result is canonical, so it is bit-identical no matter
    /// how the same net change was batched.
    pub(crate) fn materialize(&self, base: &CsrGraph) -> CsrGraph {
        let n = self.num_vertices(base);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::with_capacity(2 * self.num_edges(base) as usize);
        let empty: &[VertexId] = &[];
        let mut inserts = self.inserts.iter().peekable();
        let mut deletes = self.deletes.iter().peekable();
        let mut next = 0usize; // the first row not written yet
        loop {
            let v = match (inserts.peek(), deletes.peek()) {
                (None, None) => break,
                (Some((&a, _)), None) | (None, Some((&a, _))) => a,
                (Some((&a, _)), Some((&b, _))) => a.min(b),
            };
            copy_rows(base, next..v as usize, &mut offsets, &mut neighbors);
            let ins = inserts
                .next_if(|(&u, _)| u == v)
                .map_or(empty, |(_, row)| row);
            let del = deletes
                .next_if(|(&u, _)| u == v)
                .map_or(empty, |(_, row)| row);
            let base_row = if (v as usize) < base.num_vertices() {
                base.neighbors(v)
            } else {
                empty
            };
            merge_row(base_row, ins, del, &mut neighbors);
            offsets.push(neighbors.len());
            next = v as usize + 1;
        }
        copy_rows(base, next..n, &mut offsets, &mut neighbors);
        CsrGraph::from_raw_parts(offsets, neighbors)
    }

    /// Drops every delta (after the caller folded them into a new base).
    pub(crate) fn clear(&mut self) {
        self.inserts.clear();
        self.deletes.clear();
        self.inserted_edges = 0;
        self.deleted_edges = 0;
        self.grown_vertices = 0;
    }
}

/// A pinned, immutable view of one generation. Queries hold one of these
/// for their whole execution: the `Arc` keeps the generation's CSR alive
/// (and unchanged) however many batches commit in the meantime.
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    generation: u64,
    graph: Arc<CsrGraph>,
}

impl GraphSnapshot {
    /// The generation number this snapshot pins.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The immutable CSR of the pinned generation.
    pub fn graph(&self) -> &Arc<CsrGraph> {
        &self.graph
    }
}

/// What one [`DynamicGraph::commit`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReport {
    /// The generation this commit produced.
    pub generation: u64,
    /// Undirected edges that became present.
    pub inserted: u32,
    /// Undirected edges that became absent.
    pub deleted: u32,
    /// Whether the commit folded the overlay into a fresh base CSR.
    pub compacted: bool,
}

struct DynState {
    base: Arc<CsrGraph>,
    overlay: DeltaOverlay,
    generation: u64,
    /// The materialised CSR of the current generation, built lazily on
    /// the first snapshot after a commit (update-heavy periods with no
    /// reads never pay for materialisation).
    current: Option<Arc<CsrGraph>>,
}

/// A mutable graph serving immutable snapshots: commit [`EdgeBatch`]es on
/// one side, pin per-generation [`GraphSnapshot`]s on the other.
///
/// ```
/// use graphpi_graph::delta::{DynamicGraph, EdgeBatch};
/// use graphpi_graph::GraphBuilder;
///
/// let graph = DynamicGraph::new(GraphBuilder::new().edges([(0, 1), (1, 2)]).build());
/// let before = graph.snapshot();
/// let mut batch = EdgeBatch::new();
/// batch.insert(0, 2);
/// let report = graph.commit(&batch).unwrap();
/// assert_eq!(report.generation, 1);
/// // The pinned snapshot still sees the pre-commit graph.
/// assert_eq!(before.graph().num_edges(), 2);
/// assert_eq!(graph.snapshot().graph().num_edges(), 3);
/// ```
pub struct DynamicGraph {
    state: Mutex<DynState>,
    compaction_threshold: u64,
}

impl std::fmt::Debug for DynamicGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("dynamic graph poisoned");
        f.debug_struct("DynamicGraph")
            .field("generation", &state.generation)
            .field("overlay_edges", &state.overlay.delta_edges())
            .finish()
    }
}

impl DynamicGraph {
    /// Wraps a base graph as generation 0.
    pub fn new(base: CsrGraph) -> Self {
        Self::with_compaction_threshold(base, DEFAULT_COMPACTION_THRESHOLD)
    }

    /// Like [`DynamicGraph::new`] with an explicit compaction threshold
    /// (in overlay edge modifications; 0 compacts on every commit).
    pub(crate) fn with_compaction_threshold(base: CsrGraph, threshold: u64) -> Self {
        let base = Arc::new(base);
        Self {
            state: Mutex::new(DynState {
                current: Some(Arc::clone(&base)),
                base,
                overlay: DeltaOverlay::new(),
                generation: 0,
            }),
            compaction_threshold: threshold,
        }
    }

    /// The current generation number.
    pub(crate) fn generation(&self) -> u64 {
        self.state
            .lock()
            .expect("dynamic graph poisoned")
            .generation
    }

    /// Checks a batch against the limits a commit would enforce, without
    /// changing anything — the write-ahead log uses this to reject a bad
    /// batch *before* logging it.
    pub(crate) fn validate_batch(&self, batch: &EdgeBatch) -> Result<(), DeltaError> {
        let state = self.state.lock().expect("dynamic graph poisoned");
        let limit = (state.base.num_vertices() + MAX_VERTEX_GROWTH) as u64;
        for &(u, v) in batch.inserts().iter().chain(batch.deletes().iter()) {
            if u as u64 >= limit || v as u64 >= limit {
                let vertex = if u as u64 >= limit { u } else { v };
                return Err(DeltaError::VertexOutOfRange { vertex, limit });
            }
        }
        Ok(())
    }

    /// Overrides the generation counter — recovery uses this to restore
    /// the pre-crash numbering after replaying the log.
    pub(crate) fn set_generation(&self, generation: u64) {
        self.state
            .lock()
            .expect("dynamic graph poisoned")
            .generation = generation;
    }

    /// Pins the current generation. The first snapshot after a commit
    /// materialises the merged CSR and caches it for later pins of the
    /// same generation.
    pub fn snapshot(&self) -> GraphSnapshot {
        let mut state = self.state.lock().expect("dynamic graph poisoned");
        let graph = match &state.current {
            Some(graph) => Arc::clone(graph),
            None => {
                let merged = Arc::new(state.overlay.materialize(&state.base));
                state.current = Some(Arc::clone(&merged));
                merged
            }
        };
        GraphSnapshot {
            generation: state.generation,
            graph,
        }
    }

    /// Commits one batch, producing the next generation. Existing
    /// snapshots are untouched; new snapshots see the merged view. The
    /// overlay is folded into a fresh base once it crosses the compaction
    /// threshold.
    pub fn commit(&self, batch: &EdgeBatch) -> Result<CommitReport, DeltaError> {
        let mut state = self.state.lock().expect("dynamic graph poisoned");
        let base = Arc::clone(&state.base);
        let outcome = state.overlay.apply(batch, &base)?;
        state.generation += 1;
        let mut compacted = false;
        if outcome.inserted > 0 || outcome.deleted > 0 {
            state.current = None;
            if state.overlay.delta_edges() >= self.compaction_threshold.max(1) {
                let merged = Arc::new(state.overlay.materialize(&state.base));
                state.overlay.clear();
                state.base = Arc::clone(&merged);
                state.current = Some(merged);
                compacted = true;
            }
        }
        Ok(CommitReport {
            generation: state.generation,
            inserted: outcome.inserted,
            deleted: outcome.deleted,
            compacted,
        })
    }

    /// Folds the overlay into a fresh base CSR *off* the commit path: the
    /// expensive materialisation runs without the state lock (commits
    /// proceed concurrently), and the lock is retaken only for the final
    /// pointer swap. If a commit raced in while materialising, the stale
    /// result is discarded and the call reports `false` — the caller (a
    /// maintenance thread) simply retries on its next tick. Returns
    /// whether a compaction was installed.
    pub fn compact(&self) -> bool {
        let (base, overlay, generation) = {
            let state = self.state.lock().expect("dynamic graph poisoned");
            if state.overlay.delta_edges() == 0 {
                return false;
            }
            (
                Arc::clone(&state.base),
                state.overlay.clone(),
                state.generation,
            )
        };
        let merged = Arc::new(overlay.materialize(&base)); // slow part, unlocked
        let mut state = self.state.lock().expect("dynamic graph poisoned");
        if state.generation != generation {
            return false; // a commit raced in; the materialisation is stale
        }
        state.overlay.clear();
        state.base = Arc::clone(&merged);
        state.current = Some(merged);
        true
    }

    /// Replaces the entire graph with `base` at `generation`, dropping
    /// the overlay — the checkpoint-bootstrap path for replicas that are
    /// too far behind to catch up from the log. Existing snapshots keep
    /// their pinned view.
    pub fn reset_base(&self, base: CsrGraph, generation: u64) {
        let mut state = self.state.lock().expect("dynamic graph poisoned");
        let base = Arc::new(base);
        state.overlay.clear();
        state.current = Some(Arc::clone(&base));
        state.base = base;
        state.generation = generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, GraphBuilder};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn path4() -> CsrGraph {
        GraphBuilder::new().edges([(0, 1), (1, 2), (2, 3)]).build()
    }

    #[test]
    fn apply_normalises_against_the_base() {
        let base = path4();
        let mut overlay = DeltaOverlay::new();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 1); // already present: no-op
        batch.insert(0, 2); // new
        batch.insert(2, 0); // duplicate of the above, other direction
        batch.insert(3, 3); // self loop: ignored
        batch.delete(1, 2); // present in base: masked
        batch.delete(0, 3); // absent: no-op
        let outcome = overlay.apply(&batch, &base).unwrap();
        assert_eq!(
            outcome,
            ApplyOutcome {
                inserted: 1,
                deleted: 1
            }
        );
        assert!(overlay.edge_present(&base, 0, 2));
        assert!(!overlay.edge_present(&base, 1, 2));
        assert!(overlay.edge_present(&base, 0, 1));
        assert_eq!(overlay.num_edges(&base), 3);
        assert_eq!(overlay.delta_edges(), 2);
    }

    #[test]
    fn insert_then_delete_round_trips_to_empty() {
        let base = path4();
        let mut overlay = DeltaOverlay::new();
        let mut ins = EdgeBatch::new();
        ins.insert(0, 3);
        overlay.apply(&ins, &base).unwrap();
        let mut del = EdgeBatch::new();
        del.delete(3, 0);
        overlay.apply(&del, &base).unwrap();
        assert_eq!(overlay.delta_edges(), 0);
        assert_eq!(overlay.materialize(&base), base);
        // Deleting a base edge and re-inserting it reinstates it exactly.
        let mut del = EdgeBatch::new();
        del.delete(1, 2);
        overlay.apply(&del, &base).unwrap();
        let mut ins = EdgeBatch::new();
        ins.insert(2, 1);
        overlay.apply(&ins, &base).unwrap();
        assert_eq!(overlay.delta_edges(), 0);
        assert_eq!(overlay.materialize(&base), base);
    }

    #[test]
    fn same_batch_insert_then_delete_ends_absent() {
        let base = path4();
        let mut overlay = DeltaOverlay::new();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 3);
        batch.delete(0, 3);
        let outcome = overlay.apply(&batch, &base).unwrap();
        assert_eq!(
            outcome,
            ApplyOutcome {
                inserted: 1,
                deleted: 1
            }
        );
        assert!(!overlay.edge_present(&base, 0, 3));
        assert_eq!(overlay.delta_edges(), 0);
    }

    #[test]
    fn vertex_growth_is_supported_and_bounded() {
        let base = path4();
        let mut overlay = DeltaOverlay::new();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 6);
        overlay.apply(&batch, &base).unwrap();
        assert_eq!(overlay.num_vertices(&base), 7);
        let merged = overlay.materialize(&base);
        assert_eq!(merged.num_vertices(), 7);
        assert!(merged.has_edge(0, 6));
        assert_eq!(merged.degree(5), 0);

        let mut hostile = EdgeBatch::new();
        hostile.insert(0, u32::MAX);
        let err = overlay.apply(&hostile, &base).unwrap_err();
        assert!(matches!(err, DeltaError::VertexOutOfRange { .. }));
        // The failed batch changed nothing.
        assert_eq!(overlay.num_vertices(&base), 7);
    }

    #[test]
    fn snapshots_pin_their_generation() {
        let graph = DynamicGraph::new(path4());
        let g0 = graph.snapshot();
        assert_eq!(g0.generation(), 0);
        let mut batch = EdgeBatch::new();
        batch.insert(0, 2);
        batch.delete(2, 3);
        let report = graph.commit(&batch).unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.inserted, 1);
        assert_eq!(report.deleted, 1);
        let g1 = graph.snapshot();
        assert_eq!(g1.generation(), 1);
        // The old pin still sees the old graph, bit-stable.
        assert_eq!(g0.graph().num_edges(), 3);
        assert!(!g0.graph().has_edge(0, 2));
        assert!(g0.graph().has_edge(2, 3));
        assert_eq!(g1.graph().num_edges(), 3);
        assert!(g1.graph().has_edge(0, 2));
        assert!(!g1.graph().has_edge(2, 3));
        // An effect-free commit still bumps the generation but keeps the
        // cached CSR (nothing changed).
        let report = graph.commit(&EdgeBatch::new()).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(graph.snapshot().graph(), g1.graph());
    }

    #[test]
    fn compaction_is_transparent() {
        let base = generators::power_law(120, 4, 9);
        let eager = DynamicGraph::with_compaction_threshold(base.clone(), 1);
        let lazy = DynamicGraph::with_compaction_threshold(base, u64::MAX);
        let mut reports = Vec::new();
        let mut lazy_compacted = false;
        for round in 0u32..20 {
            let mut batch = EdgeBatch::new();
            batch.insert(round, (round + 37) % 120);
            batch.delete(round, (round + 1) % 120);
            let a = eager.commit(&batch).unwrap();
            let b = lazy.commit(&batch).unwrap();
            assert_eq!(a.generation, b.generation);
            assert_eq!((a.inserted, a.deleted), (b.inserted, b.deleted));
            reports.push(a.compacted);
            lazy_compacted |= b.compacted;
        }
        assert!(reports.iter().any(|&c| c), "eager path must compact");
        assert!(!lazy_compacted, "lazy path must keep its overlay");
        assert_eq!(eager.snapshot().graph(), lazy.snapshot().graph());
    }

    #[test]
    fn fold_by_runs_matches_a_rebuild_at_the_edges_of_the_row_range() {
        let base = generators::erdos_renyi(40, 120, 5);
        let last = 39;
        let row_zero: Vec<(VertexId, VertexId)> =
            base.neighbors(0).iter().map(|&v| (0, v)).collect();
        let non_edge = |u: VertexId| (0..40).find(|&v| v != u && !base.has_edge(u, v)).unwrap();
        let cases: Vec<EdgeBatch> = vec![
            // Untouched: one run covering every row.
            EdgeBatch::new(),
            // The first and the last row.
            if base.has_edge(0, last) {
                EdgeBatch::from_edges(vec![], vec![(0, last)])
            } else {
                EdgeBatch::from_edges(vec![(0, last)], vec![])
            },
            // Vertex 0's row emptied.
            EdgeBatch::from_edges(vec![], row_zero),
            // Adjacent touched rows: no run between them.
            EdgeBatch::from_edges(
                vec![(10, non_edge(10)), (11, non_edge(11)), (12, non_edge(12))],
                vec![(13, base.neighbors(13)[0])],
            ),
            // Grown rows: untouched runs of them between touched ones
            // (40; 42 and 43) and after the last (45 to 47, whose edge the
            // same batch deleted again).
            EdgeBatch::from_edges(vec![(last, 41), (41, 44), (5, 44), (5, 47)], vec![(47, 5)]),
            // Only the last row, deleted.
            EdgeBatch::from_edges(vec![], vec![(base.neighbors(last)[0], last)]),
        ];
        for batch in cases {
            let mut overlay = DeltaOverlay::new();
            let outcome = overlay.apply(&batch, &base).unwrap();
            let named = batch.inserts().len() + batch.deletes().len();
            assert_eq!((outcome.inserted + outcome.deleted) as usize, named);
            let mut model = model_edges(&base);
            model.extend(batch.inserts().iter().map(|&(u, v)| (u.min(v), u.max(v))));
            for &(u, v) in batch.deletes() {
                model.remove(&(u.min(v), u.max(v)));
            }
            let expected = GraphBuilder::new()
                .num_vertices(overlay.num_vertices(&base))
                .edges(model.iter().copied())
                .build();
            assert_eq!(overlay.materialize(&base), expected, "{batch:?}");
        }
    }

    /// Reference model: the merged view must equal a from-scratch rebuild
    /// of the edited edge set.
    fn model_edges(base: &CsrGraph) -> BTreeSet<(VertexId, VertexId)> {
        base.edges().collect()
    }

    proptest! {
        #[test]
        fn prop_overlay_matches_rebuild(
            seed in 0u64..500,
            ops in proptest::collection::vec((0u32..40, 0u32..40, 0u8..2), 1..60),
        ) {
            let base = generators::erdos_renyi(30, 60, seed);
            let mut model = model_edges(&base);
            let mut overlay = DeltaOverlay::new();
            for chunk in ops.chunks(7) {
                let mut batch = EdgeBatch::new();
                for &(u, v, ins_flag) in chunk {
                    if ins_flag == 1 {
                        batch.insert(u, v);
                    } else {
                        batch.delete(u, v);
                    }
                }
                overlay.apply(&batch, &base).unwrap();
                // Batch semantics: all inserts land before all deletes.
                for &(u, v) in batch.inserts() {
                    if u != v {
                        model.insert((u.min(v), u.max(v)));
                    }
                }
                for &(u, v) in batch.deletes() {
                    model.remove(&(u.min(v), u.max(v)));
                }
            }
            let expected = GraphBuilder::new()
                .num_vertices(overlay.num_vertices(&base))
                .edges(model.iter().copied())
                .build();
            let merged = overlay.materialize(&base);
            prop_assert_eq!(&merged, &expected);
            prop_assert_eq!(merged.num_edges(), overlay.num_edges(&base));
        }
    }
}
