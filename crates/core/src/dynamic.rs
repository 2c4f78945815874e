//! Serving mutable graphs: an engine wrapper that routes queries through
//! pinned generation snapshots while edge batches commit underneath.
//!
//! [`DynamicEngine`] owns a [`graphpi_graph::delta::DynamicGraph`] (or its
//! WAL-backed durable variant) plus one fully-planned [`GraphPi`] engine
//! per *current* generation:
//!
//! * [`DynamicEngine::pin`] hands out a [`PinnedEngine`] — an `Arc` to
//!   the generation's engine plus its generation number, captured
//!   atomically. A query runs entirely against its pin, so it sees one
//!   consistent graph no matter how many batches commit mid-flight.
//! * [`DynamicEngine::apply`] durably commits a batch (WAL append +
//!   fsync first when durability is on), then builds the next
//!   generation's engine and swaps it in. The new engine shares the
//!   snapshot's CSR (no copy) and carries [`graphpi_graph::GraphStats`]
//!   over from the previous generation with
//!   [`graphpi_graph::GraphStats::after_batch`] — the same numbers a full
//!   recount gives, and therefore the same stats *fingerprint* that keys
//!   the shared [`crate::engine::PlanCache`]. A batch that changes the
//!   graph changes the fingerprint, so queries against the new generation
//!   re-plan instead of reusing a stale plan, while queries still pinned
//!   to an old generation keep hitting their original cache entries. The
//!   fingerprint keying that was dormant while graphs were immutable
//!   becomes the cache invalidation mechanism.
//!
//! Engine construction is deliberately *per generation*, not per query,
//! and its CPU cost follows the batch, not the graph: one fold of the
//! overlay's touched rows into the snapshot CSR (untouched runs are slice
//! copies), one O(|V|) degree scan, and one intersection per changed edge
//! for the triangle count. Every query of that generation is then as cheap
//! as on a static engine. Only opening an engine and installing a
//! replication checkpoint count the graph from scratch.

use crate::engine::GraphPi;
use graphpi_graph::delta::{CommitReport, DeltaError, DynamicGraph, EdgeBatch, GraphSnapshot};
use graphpi_graph::wal::{DurableError, DurableGraph, DurableGraphOptions, RecoveryReport};
use graphpi_graph::{CsrGraph, GraphStats};
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

enum Backing {
    /// Commits are write-ahead logged and survive `kill -9`.
    Durable(DurableGraph),
    /// In-memory only: same snapshot semantics, no crash recovery.
    Volatile(DynamicGraph),
}

impl Backing {
    fn snapshot(&self) -> GraphSnapshot {
        match self {
            Backing::Durable(durable) => durable.snapshot(),
            Backing::Volatile(graph) => graph.snapshot(),
        }
    }
}

/// A query's consistent view: one generation's engine, pinned. Cloning is
/// cheap (an `Arc` bump); the pinned generation's graph and plans stay
/// alive and bit-stable for as long as any pin exists.
#[derive(Clone)]
pub struct PinnedEngine {
    generation: u64,
    engine: Arc<GraphPi>,
}

impl PinnedEngine {
    /// An engine over `snapshot` that counts its statistics from scratch.
    fn counted(snapshot: GraphSnapshot) -> Self {
        Self {
            generation: snapshot.generation(),
            engine: Arc::new(GraphPi::shared(Arc::clone(snapshot.graph()))),
        }
    }

    /// The pinned generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The engine serving this generation.
    pub fn engine(&self) -> &GraphPi {
        &self.engine
    }
}

/// A [`GraphPi`] engine over a mutable graph: queries pin generations,
/// updates produce new ones, durability is optional (WAL-backed).
pub struct DynamicEngine {
    backing: Backing,
    current: RwLock<PinnedEngine>,
    /// Serialises `apply` end to end (commit + engine build + swap), so
    /// generations enter `current` in commit order.
    apply_lock: Mutex<()>,
}

impl DynamicEngine {
    /// Wraps a graph with snapshot semantics but no durability.
    pub fn volatile(graph: CsrGraph) -> Self {
        Self::serving(Backing::Volatile(DynamicGraph::new(graph)))
    }

    /// Opens a WAL-backed engine: loads the checkpoint (or `initial`),
    /// replays the log, and serves the recovered generation. See
    /// [`DurableGraph::open`] for the recovery rules.
    pub fn durable<P: AsRef<Path>>(
        initial: CsrGraph,
        wal_path: P,
        options: DurableGraphOptions,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let (backing, report) = DurableGraph::open(initial, wal_path, options)?;
        Ok((Self::serving(Backing::Durable(backing)), report))
    }

    fn serving(backing: Backing) -> Self {
        let current = RwLock::new(PinnedEngine::counted(backing.snapshot()));
        Self {
            backing,
            current,
            apply_lock: Mutex::new(()),
        }
    }

    /// Whether commits are write-ahead logged.
    pub(crate) fn is_durable(&self) -> bool {
        matches!(self.backing, Backing::Durable(_))
    }

    /// Pins the current generation for one query's lifetime.
    pub fn pin(&self) -> PinnedEngine {
        self.current
            .read()
            .expect("dynamic engine poisoned")
            .clone()
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.current
            .read()
            .expect("dynamic engine poisoned")
            .generation
    }

    /// Commits one batch and publishes the next generation. When the
    /// backing is durable, the batch is on disk (fsync'd) before it
    /// becomes visible; on `Ok` it survives any crash. Queries pinned to
    /// earlier generations are unaffected.
    ///
    /// Beyond the commit itself (and its fsync), publishing costs what the
    /// batch costs: the snapshot folds only the overlay's touched rows, the
    /// new engine shares that snapshot's CSR, and its statistics are
    /// derived from the previous generation's by
    /// [`graphpi_graph::GraphStats::after_batch`] instead of recounting
    /// every triangle.
    pub fn apply(&self, batch: &EdgeBatch) -> Result<CommitReport, DurableError> {
        self.publish(None, batch)
    }

    /// Forces a checkpoint on a durable backing; returns the
    /// checkpointed generation, or `None` when the engine is volatile.
    pub(crate) fn checkpoint(&self) -> Option<Result<u64, DurableError>> {
        match &self.backing {
            Backing::Durable(durable) => Some(durable.checkpoint()),
            Backing::Volatile(_) => None,
        }
    }

    /// Commits a batch received from a replication stream, asserting
    /// that its claimed `generation` continues this engine's sequence
    /// exactly ([`graphpi_graph::delta::DeltaError::GenerationGap`]
    /// otherwise, and nothing changes). Publication mirrors
    /// [`DynamicEngine::apply`].
    pub(crate) fn apply_replicated(
        &self,
        generation: u64,
        batch: &EdgeBatch,
    ) -> Result<CommitReport, DurableError> {
        self.publish(Some(generation), batch)
    }

    /// Replaces the whole graph with `base` at `generation` — the
    /// receiving end of a replication checkpoint bootstrap. On a durable
    /// backing the installed state is crash-safe before it is published.
    pub(crate) fn install_checkpoint(
        &self,
        base: CsrGraph,
        generation: u64,
    ) -> Result<(), DurableError> {
        let _serialised = self.apply_lock.lock().expect("dynamic engine poisoned");
        match &self.backing {
            Backing::Durable(durable) => durable.install_checkpoint(base, generation)?,
            Backing::Volatile(graph) => graph.reset_base(base, generation),
        }
        let pinned = PinnedEngine::counted(self.backing.snapshot());
        *self.current.write().expect("dynamic engine poisoned") = pinned;
        Ok(())
    }

    /// The one commit path of [`DynamicEngine::apply`] and
    /// [`DynamicEngine::apply_replicated`]: under the apply lock, refuses
    /// a `claimed` generation that does not continue the published one,
    /// commits the batch, then swaps in the generation it produced. A
    /// failed commit changes nothing, so the published generation is
    /// always the backing's.
    fn publish(
        &self,
        claimed: Option<u64>,
        batch: &EdgeBatch,
    ) -> Result<CommitReport, DurableError> {
        let _serialised = self.apply_lock.lock().expect("dynamic engine poisoned");
        let previous = self.pin();
        let expected = previous.generation + 1;
        if let Some(found) = claimed.filter(|&found| found != expected) {
            return Err(DeltaError::GenerationGap { expected, found }.into());
        }
        let report = match &self.backing {
            Backing::Durable(durable) => durable.commit(batch)?,
            Backing::Volatile(graph) => graph.commit(batch)?,
        };
        debug_assert_eq!(report.generation, expected);
        let pinned = if report.inserted > 0 || report.deleted > 0 {
            // New stats, new fingerprint, fresh plan-cache keys.
            let snapshot = self.backing.snapshot();
            let old = previous.engine();
            let stats = old
                .stats()
                .after_batch(old.graph(), snapshot.graph(), batch);
            debug_assert_eq!(stats, GraphStats::compute(snapshot.graph()));
            PinnedEngine {
                generation: snapshot.generation(),
                engine: Arc::new(GraphPi::shared_with_stats(
                    Arc::clone(snapshot.graph()),
                    stats,
                )),
            }
        } else {
            // Nothing changed: keep the engine (and its warm plans), just
            // advance the generation number.
            PinnedEngine {
                generation: report.generation,
                ..previous
            }
        };
        *self.current.write().expect("dynamic engine poisoned") = pinned;
        Ok(report)
    }

    /// Folds the overlay into a fresh base CSR off the commit path;
    /// `false` when a concurrent commit raced the merge (try again later).
    pub fn compact(&self) -> bool {
        match &self.backing {
            Backing::Durable(durable) => durable.compact(),
            Backing::Volatile(graph) => graph.compact(),
        }
    }

    /// The WAL file path, or `None` when the engine is volatile.
    pub(crate) fn wal_path(&self) -> Option<std::path::PathBuf> {
        match &self.backing {
            Backing::Durable(durable) => Some(durable.wal_path()),
            Backing::Volatile(_) => None,
        }
    }

    /// Durable end of the WAL in bytes, or `None` when volatile.
    pub fn wal_len(&self) -> Option<u64> {
        match &self.backing {
            Backing::Durable(durable) => Some(durable.wal_len()),
            Backing::Volatile(_) => None,
        }
    }

    /// The WAL's reset epoch, or `None` when volatile.
    pub fn wal_epoch(&self) -> Option<u64> {
        match &self.backing {
            Backing::Durable(durable) => Some(durable.wal_epoch()),
            Backing::Volatile(_) => None,
        }
    }

    /// Generation of the WAL's base (cursors behind it need a checkpoint
    /// bootstrap), or `None` when volatile.
    pub(crate) fn replication_horizon(&self) -> Option<u64> {
        match &self.backing {
            Backing::Durable(durable) => Some(durable.replication_horizon()),
            Backing::Volatile(_) => None,
        }
    }

    /// The checkpoint file path paired with the WAL, or `None` when
    /// volatile.
    pub(crate) fn checkpoint_file(&self) -> Option<std::path::PathBuf> {
        match &self.backing {
            Backing::Durable(durable) => Some(durable.checkpoint_path().to_path_buf()),
            Backing::Volatile(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CountOptions, PlanCache, PlanOptions};
    use crate::exec::pool::WorkerPool;
    use graphpi_graph::{generators, GraphBuilder};
    use graphpi_pattern::prefab;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(label: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "graphpi_dyneng_{label}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    type Edges = Vec<(u32, u32)>;

    /// Turns `(a, b, kind)` ops into a batch's inserts and deletes against
    /// the current edge set `model`: kind 0 inserts `(a, b)` (new,
    /// duplicate, self loop or a grown vertex), kind 1 deletes it (mostly
    /// absent, so a no-op), kind 2 deletes a present edge (base or overlay)
    /// and kind 3 re-inserts one (effect-free).
    fn random_batch(ops: &[(u32, u32, u8)], model: &BTreeSet<(u32, u32)>) -> (Edges, Edges) {
        let present: Edges = model.iter().copied().collect();
        let pick = |a: u32, b: u32| present[(a as usize * 31 + b as usize) % present.len()];
        let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
        for &(a, b, kind) in ops {
            match kind {
                0 => inserts.push((a, b)),
                1 => deletes.push((a, b)),
                _ if present.is_empty() => {}
                2 => {
                    let (u, v) = pick(a, b);
                    deletes.push((v, u));
                }
                _ => inserts.push(pick(a, b)),
            }
        }
        (inserts, deletes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn stats_follow_every_batch_exactly(
            seed in 0u64..1_000,
            power_law in 0u8..2,
            batches in proptest::collection::vec(
                proptest::collection::vec((0u32..44, 0u32..44, 0u8..4), 0..10),
                1..21,
            ),
            compact_every in 2usize..6,
        ) {
            let base = if power_law == 1 {
                generators::power_law(40, 3, seed)
            } else {
                generators::erdos_renyi(40, 120, seed)
            };
            let dir = scratch_dir("stats");
            let volatile = DynamicEngine::volatile(base.clone());
            // Small thresholds: the durable engine also compacts and
            // checkpoints on the commit path.
            let options = DurableGraphOptions {
                compaction_threshold: 16,
                checkpoint_wal_bytes: 4 << 10,
            };
            let (durable, _) = DynamicEngine::durable(base.clone(), dir.join("graph.wal"), options).unwrap();
            let replica = DynamicEngine::volatile(base.clone());
            let mut model: BTreeSet<(u32, u32)> = base.edges().collect();
            let mut vertices = base.num_vertices();
            for (round, ops) in batches.iter().enumerate() {
                let (inserts, deletes) = random_batch(ops, &model);
                // Batch semantics: all inserts land before all deletes.
                for &(u, v) in &inserts {
                    if u != v {
                        model.insert((u.min(v), u.max(v)));
                        vertices = vertices.max(u.max(v) as usize + 1);
                    }
                }
                for &(u, v) in &deletes {
                    model.remove(&(u.min(v), u.max(v)));
                }
                let batch = EdgeBatch::from_edges(inserts, deletes);
                let report = volatile.apply(&batch).unwrap();
                let logged = durable.apply(&batch).unwrap();
                prop_assert_eq!(
                    (logged.generation, logged.inserted, logged.deleted),
                    (report.generation, report.inserted, report.deleted)
                );
                replica.apply_replicated(report.generation, &batch).unwrap();
                if round % compact_every == 0 {
                    volatile.compact();
                    replica.compact();
                }
                let expected = GraphBuilder::new()
                    .num_vertices(vertices)
                    .edges(model.iter().copied())
                    .build();
                for engine in [&volatile, &durable, &replica] {
                    let pin = engine.pin();
                    prop_assert_eq!(pin.generation(), report.generation);
                    prop_assert_eq!(pin.engine().graph(), &expected);
                    let counted = GraphStats::compute(pin.engine().graph());
                    prop_assert_eq!(pin.engine().stats(), &counted);
                    prop_assert_eq!(pin.engine().stats().fingerprint(), counted.fingerprint());
                }
            }
            drop(durable);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_failed_commit_changes_neither_the_log_nor_the_graph() {
        let dir = scratch_dir("failed");
        let wal = dir.join("graph.wal");
        let initial = generators::power_law(60, 3, 5);
        let options = DurableGraphOptions {
            checkpoint_wal_bytes: 1, // every commit after the first checkpoints
            ..DurableGraphOptions::default()
        };
        let (engine, _) = DynamicEngine::durable(initial.clone(), &wal, options).unwrap();
        let mut first = EdgeBatch::new();
        first.insert(0, 57);
        engine.apply(&first).unwrap();
        // A non-empty directory where the checkpoint file goes: the
        // checkpoint the next commit runs before logging cannot save.
        let blocker = dir.join("graph.wal.ckpt");
        std::fs::remove_file(&blocker).ok();
        std::fs::create_dir_all(blocker.join("occupied")).unwrap();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 59).insert(0, 58).insert(58, 59);
        assert!(engine.apply(&batch).is_err());
        assert_eq!(engine.generation(), 1, "a failed commit publishes nothing");
        assert!(!engine.pin().engine().graph().has_edge(0, 59));
        drop(engine);
        std::fs::remove_dir_all(&blocker).unwrap();

        // The log does not hold the failed batch either.
        let (engine, report) = DynamicEngine::durable(initial, &wal, options).unwrap();
        assert_eq!(report.generation, 1);
        assert!(!engine.pin().engine().graph().has_edge(0, 59));
        // The same batch then commits as the next generation.
        assert_eq!(engine.apply(&batch).unwrap().generation, 2);
        let pin = engine.pin();
        assert!(pin.engine().graph().has_edge(0, 59));
        assert_eq!(
            *pin.engine().stats(),
            GraphStats::compute(pin.engine().graph())
        );
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_replicated_batch_out_of_sequence_changes_nothing() {
        let dir = scratch_dir("gap");
        let wal = dir.join("graph.wal");
        let initial = generators::cycle(12);
        let options = DurableGraphOptions::default();
        let (durable, _) = DynamicEngine::durable(initial.clone(), &wal, options).unwrap();
        let volatile = DynamicEngine::volatile(initial.clone());
        let mut first = EdgeBatch::new();
        first.insert(0, 6);
        let mut batch = EdgeBatch::new();
        batch.insert(1, 7);
        for engine in [&volatile, &durable] {
            engine.apply_replicated(1, &first).unwrap();
            for claimed in [0, 1, 3, u64::MAX] {
                let err = engine.apply_replicated(claimed, &batch).unwrap_err();
                assert!(
                    matches!(
                        err,
                        DurableError::Delta(DeltaError::GenerationGap { expected: 2, found })
                            if found == claimed
                    ),
                    "claimed {claimed}: {err}"
                );
                assert_eq!(engine.generation(), 1);
                assert!(!engine.pin().engine().graph().has_edge(1, 7));
            }
        }
        drop(durable);
        let (reopened, report) = DynamicEngine::durable(initial, &wal, options).unwrap();
        assert_eq!((report.generation, report.replayed_batches), (1, 1));
        assert!(!reopened.pin().engine().graph().has_edge(1, 7));
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pinned_queries_see_one_consistent_generation() {
        let engine = DynamicEngine::volatile(generators::power_law(120, 4, 5));
        let pin0 = engine.pin();
        let triangle = prefab::triangle();
        let count0 = pin0.engine().count(&triangle).unwrap();

        let mut batch = EdgeBatch::new();
        batch.insert(0, 1).insert(0, 2).insert(1, 2);
        batch.insert(3, 4).insert(3, 5).insert(4, 5);
        let report = engine.apply(&batch).unwrap();
        assert_eq!(report.generation, 1);

        // The old pin still answers with the old graph.
        assert_eq!(pin0.engine().count(&triangle).unwrap(), count0);
        // A fresh pin sees the committed batch.
        let pin1 = engine.pin();
        assert_eq!(pin1.generation(), 1);
        let count1 = pin1.engine().count(&triangle).unwrap();
        assert!(count1 != count0 || report.inserted == 0);
    }

    #[test]
    fn plan_cache_misses_on_the_new_generation_and_hits_on_the_old() {
        let engine = DynamicEngine::volatile(generators::power_law(150, 5, 17));
        let pool = Arc::new(WorkerPool::new(2));
        let cache = Arc::new(PlanCache::new(16));
        let pattern = prefab::house();
        let run = |pin: &PinnedEngine| {
            let session = pin.engine().session_shared(
                Arc::clone(&pool),
                Arc::clone(&cache),
                PlanOptions::default(),
                CountOptions::default(),
            );
            session.count(&pattern).unwrap()
        };

        let pin0 = engine.pin();
        run(&pin0);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 0));
        run(&pin0);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));

        // Mutate: the new generation's fingerprint differs, so the same
        // pattern re-plans (miss) instead of reusing the stale plan.
        let mut batch = EdgeBatch::new();
        batch.insert(0, 149).insert(1, 148).insert(2, 147);
        engine.apply(&batch).unwrap();
        let pin1 = engine.pin();
        assert_ne!(
            pin0.engine().stats().fingerprint(),
            pin1.engine().stats().fingerprint(),
            "mutation must change the stats fingerprint"
        );
        run(&pin1);
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.hits),
            (2, 1),
            "new generation must re-plan"
        );

        // The old pinned generation still hits its original entry.
        run(&pin0);
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.hits),
            (2, 2),
            "old generation must keep hitting"
        );
        // And the new generation now hits its own fresh entry.
        run(&pin1);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (2, 3));
    }

    #[test]
    fn effect_free_batches_keep_the_engine_and_advance_the_generation() {
        let engine = DynamicEngine::volatile(generators::cycle(12));
        let before = engine.pin();
        let mut noop = EdgeBatch::new();
        noop.insert(0, 1); // already present
        let report = engine.apply(&noop).unwrap();
        assert_eq!((report.inserted, report.deleted), (0, 0));
        let after = engine.pin();
        assert_eq!(after.generation(), 1);
        // Same engine instance: plans and stats carry over untouched.
        assert!(Arc::ptr_eq(&before.engine, &after.engine));
    }

    #[test]
    fn durable_engine_recovers_counts_bit_identical() {
        let dir = std::env::temp_dir().join(format!("graphpi_dyneng_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("graph.wal");
        let initial = generators::power_law(100, 4, 23);
        let pattern = prefab::house();

        let (engine, report) =
            DynamicEngine::durable(initial.clone(), &wal, DurableGraphOptions::default()).unwrap();
        assert!(report.created);
        for round in 0u32..6 {
            let mut batch = EdgeBatch::new();
            batch.insert(round, (round + 31) % 100);
            batch.delete(round + 2, (round + 3) % 100);
            engine.apply(&batch).unwrap();
        }
        let generation = engine.generation();
        let count = engine.pin().engine().count(&pattern).unwrap();
        drop(engine); // crash: nothing graceful runs

        let (recovered, report) =
            DynamicEngine::durable(initial, &wal, DurableGraphOptions::default()).unwrap();
        assert_eq!(report.replayed_batches, 6);
        assert_eq!(recovered.generation(), generation);
        assert_eq!(recovered.pin().engine().count(&pattern).unwrap(), count);
        std::fs::remove_dir_all(&dir).ok();
    }
}
