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
//!   generation's engine and swaps it in. Building the engine recomputes
//!   [`graphpi_graph::GraphStats`] — and therefore the stats
//!   *fingerprint* that keys the shared [`crate::engine::PlanCache`] —
//!   so queries against the new generation re-plan instead of reusing a
//!   stale plan, while queries still pinned to an old generation keep
//!   hitting their original cache entries. The fingerprint keying that
//!   was dormant while graphs were immutable becomes the cache
//!   invalidation mechanism.
//!
//! Engine construction is deliberately *per generation*, not per query:
//! one batch costs one stats recompute + plan-cache keying, then every
//! query of that generation is as cheap as on a static engine.

use crate::engine::GraphPi;
use graphpi_graph::delta::{CommitReport, DynamicGraph, EdgeBatch};
use graphpi_graph::wal::{DurableError, DurableGraph, DurableGraphOptions, RecoveryReport};
use graphpi_graph::CsrGraph;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

enum Backing {
    /// Commits are write-ahead logged and survive `kill -9`.
    Durable(DurableGraph),
    /// In-memory only: same snapshot semantics, no crash recovery.
    Volatile(DynamicGraph),
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
        let backing = DynamicGraph::new(graph);
        let snapshot = backing.snapshot();
        let engine = Arc::new(GraphPi::new(snapshot.graph().as_ref().clone()));
        Self {
            backing: Backing::Volatile(backing),
            current: RwLock::new(PinnedEngine {
                generation: snapshot.generation(),
                engine,
            }),
            apply_lock: Mutex::new(()),
        }
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
        let snapshot = backing.snapshot();
        let engine = Arc::new(GraphPi::new(snapshot.graph().as_ref().clone()));
        Ok((
            Self {
                backing: Backing::Durable(backing),
                current: RwLock::new(PinnedEngine {
                    generation: snapshot.generation(),
                    engine,
                }),
                apply_lock: Mutex::new(()),
            },
            report,
        ))
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
    pub fn apply(&self, batch: &EdgeBatch) -> Result<CommitReport, DurableError> {
        let _serialised = self.apply_lock.lock().expect("dynamic engine poisoned");
        let report = match &self.backing {
            Backing::Durable(durable) => durable.commit(batch)?,
            Backing::Volatile(graph) => graph.commit(batch)?,
        };
        self.publish(&report);
        Ok(report)
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
    /// otherwise). Publication mirrors [`DynamicEngine::apply`].
    pub(crate) fn apply_replicated(
        &self,
        generation: u64,
        batch: &EdgeBatch,
    ) -> Result<CommitReport, DurableError> {
        let _serialised = self.apply_lock.lock().expect("dynamic engine poisoned");
        let report = match &self.backing {
            Backing::Durable(durable) => durable.commit_replicated(generation, batch)?,
            Backing::Volatile(graph) => graph.commit_at(batch, generation)?,
        };
        self.publish(&report);
        Ok(report)
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
        let snapshot = match &self.backing {
            Backing::Durable(durable) => durable.snapshot(),
            Backing::Volatile(graph) => graph.snapshot(),
        };
        let engine = Arc::new(GraphPi::new(snapshot.graph().as_ref().clone()));
        *self.current.write().expect("dynamic engine poisoned") =
            PinnedEngine { generation, engine };
        Ok(())
    }

    fn publish(&self, report: &CommitReport) {
        if report.inserted > 0 || report.deleted > 0 {
            let snapshot = match &self.backing {
                Backing::Durable(durable) => durable.snapshot(),
                Backing::Volatile(graph) => graph.snapshot(),
            };
            // New stats, new fingerprint, fresh plan-cache keys.
            let engine = Arc::new(GraphPi::new(snapshot.graph().as_ref().clone()));
            *self.current.write().expect("dynamic engine poisoned") = PinnedEngine {
                generation: report.generation,
                engine,
            };
        } else {
            // Nothing changed: keep the engine (and its warm plans), just
            // advance the generation number.
            self.current
                .write()
                .expect("dynamic engine poisoned")
                .generation = report.generation;
        }
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
    use graphpi_graph::generators;
    use graphpi_pattern::prefab;

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
