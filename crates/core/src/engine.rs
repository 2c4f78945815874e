//! High-level GraphPi engine: preprocessing, planning, and execution.
//!
//! [`GraphPi`] ties the pieces together the way Figure 3 of the paper does:
//!
//! 1. **Configuration generation** — restriction sets from the 2-cycle
//!    algorithm and schedules from the 2-phase generator.
//! 2. **Performance prediction** — every (schedule × restriction set)
//!    combination is ranked by the cost model; the cheapest becomes the
//!    plan.
//! 3. **Execution** — the plan runs on the data graph sequentially or in
//!    parallel, with or without IEP counting.

use crate::config::{Configuration, ExecutionPlan, PoolOptions, MAX_LOOPS};
use crate::error::EngineError;
use crate::exec::interp::ExecCtx;
use crate::exec::parallel::ExecPath;
use crate::exec::pool::WorkerPool;
use crate::exec::sink::Job;
use crate::exec::{iep, interp, parallel};
use crate::perf_model::{rank, Corrections, CostEstimate, PerformanceModel};
use crate::schedule::efficient_schedules;
use graphpi_graph::csr::{CsrGraph, VertexId};
use graphpi_graph::hub::{HubGraph, HubOptions};
use graphpi_graph::stats::GraphStats;
use graphpi_pattern::pattern::Pattern;
use graphpi_pattern::restriction::{generate_restriction_sets, GenerationOptions};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Largest pattern size the planner accepts (the paper evaluates up to 6–7
/// vertices; preprocessing cost grows factorially beyond that). Equal to
/// `MAX_LOOPS`, the bound the execution hot path relies on for its inline
/// per-task state.
pub const MAX_PATTERN_VERTICES: usize = MAX_LOOPS;

/// Options controlling configuration generation and selection.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Upper bound on the number of restriction sets combined with each
    /// schedule (the full family can be large for highly symmetric
    /// patterns; the best sets are almost always among the smallest).
    pub max_restriction_sets: usize,
    /// Upper bound on the number of schedules considered (0 = no limit).
    pub max_schedules: usize,
    /// Compile the selected configuration with IEP support (the default).
    /// IEP is a *counting* shortcut: it replaces the innermost independent
    /// loops with arithmetic and never materializes those vertices, so any
    /// mode that must visit every embedding — enumeration, per-vertex
    /// counts, sampled counting — plans with this `false`, which compiles
    /// a full-depth plan (empty IEP suffix, no-op correction) instead of
    /// stripping IEP from a counting plan after the fact.
    pub enable_iep: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            max_restriction_sets: 64,
            max_schedules: 0,
            enable_iep: true,
        }
    }
}

/// Options controlling plan execution.
#[derive(Debug, Clone, Copy)]
pub struct CountOptions {
    /// Use the Inclusion-Exclusion Principle when only counting.
    pub use_iep: bool,
    /// Number of worker threads (0 = all cores, 1 = sequential).
    pub threads: usize,
    /// Outer-loop prefix depth for parallel tasks (None = heuristic).
    pub prefix_depth: Option<usize>,
    /// Intersect against bitset rows for the high-degree core
    /// ([`GraphPi::hub_index`]) wherever a set op involves a hub. On by
    /// default: the index is built lazily once per engine and cached, and a
    /// graph whose index has no row runs the merge kernels anyway. It
    /// changes the kernel, not the result, so every mode returns
    /// bit-identical results either way; `false` pins the merge kernels,
    /// as the paper-reproduction mains and the agreement suites do.
    pub hub_bitsets: bool,
    /// Pin the sorted-set intersection kernels to the portable scalar
    /// reference instead of the runtime-detected SIMD family. Kernel
    /// dispatch is **process-wide** (`graphpi_graph::vertex_set`), and
    /// each engine/session call stores this field into it as it starts —
    /// `true` pins scalar, `false` restores auto-detection (except under
    /// the sticky `GRAPHPI_FORCE_SCALAR` environment pin, which keeps the
    /// whole process scalar regardless). The last writer wins: of two
    /// queries running concurrently with opposite settings — on one
    /// session, on two, on two engines — both run on whichever family the
    /// later starter asked for, and a query may change family part-way
    /// through. That moves time, never results: scalar ≡ SSE ≡ AVX2 set for
    /// set, so counts are bit-identical with this on, off or flipping —
    /// the agreement suites enforce it, `tests/data_plane.rs` under the
    /// race. A caller that needs one family for a measurement must keep
    /// opposite settings out of the process while it runs.
    pub scalar_kernels: bool,
}

impl Default for CountOptions {
    fn default() -> Self {
        Self {
            use_iep: true,
            threads: 0,
            prefix_depth: None,
            hub_bitsets: true,
            scalar_kernels: false,
        }
    }
}

impl CountOptions {
    /// Sequential, enumeration-only execution on the merge kernels (what
    /// the paper uses when comparing against GraphZero and Fractal).
    pub fn sequential_enumeration() -> Self {
        Self {
            use_iep: false,
            threads: 1,
            hub_bitsets: false,
            ..Self::default()
        }
    }

    /// The executor options these execution options stand for.
    pub fn parallel_options(&self) -> parallel::ParallelOptions {
        parallel::ParallelOptions {
            threads: self.threads,
            prefix_depth: self.prefix_depth,
            mode: if self.use_iep {
                parallel::CountMode::Iep
            } else {
                parallel::CountMode::Enumerate
            },
            ..Default::default()
        }
    }
}

/// A selected plan together with planning metadata.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The compiled best configuration.
    pub plan: ExecutionPlan,
    /// Predicted cost of the selected configuration.
    pub predicted_cost: f64,
    /// Number of (schedule × restriction set) candidates that were ranked.
    pub candidates_considered: usize,
    /// Number of schedules produced by the 2-phase generator.
    pub schedules_generated: usize,
    /// Number of restriction sets produced by the 2-cycle algorithm.
    pub restriction_sets_generated: usize,
    /// Wall-clock time spent on preprocessing (configuration generation +
    /// performance prediction), the quantity Table III reports.
    pub preprocessing_time: Duration,
}

/// Where [`Session::run`] executes a plan: the placement rule's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// On the calling thread: the plan costs less than handing it off.
    Caller,
    /// On the session's worker pool.
    Pool,
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Placement::Caller => "caller",
            Placement::Pool => "pool",
        })
    }
}

impl Plan {
    /// The placement rule: a plan the §IV-C model prices below one pool
    /// hand-off ([`parallel::HANDOFF_COST`]) runs on the calling thread,
    /// every other plan on the pool. The one definition [`Session::run`]
    /// and the CLI read.
    pub fn placement(&self) -> Placement {
        if self.predicted_cost < parallel::HANDOFF_COST {
            Placement::Caller
        } else {
            Placement::Pool
        }
    }
}

/// The GraphPi engine bound to one data graph.
#[derive(Debug, Clone)]
pub struct GraphPi {
    /// Shared, so an engine over a pinned snapshot holds the snapshot's
    /// CSR instead of a copy of it.
    graph: Arc<CsrGraph>,
    stats: GraphStats,
    /// Lazily built hub-acceleration index, shared across clones.
    hub: OnceLock<Arc<HubGraph>>,
}

impl GraphPi {
    /// Builds the engine, computing the graph statistics (vertex/edge and
    /// triangle counts) the performance model needs. This is the
    /// graph-dependent part of preprocessing and is done once per graph.
    pub fn new(graph: CsrGraph) -> Self {
        Self::shared(Arc::new(graph))
    }

    /// [`GraphPi::new`] over a CSR someone else also holds (a pinned
    /// snapshot, say): the graph is shared, not copied.
    pub fn shared(graph: Arc<CsrGraph>) -> Self {
        let stats = GraphStats::compute(&graph);
        Self::shared_with_stats(graph, stats)
    }

    /// Builds the engine with precomputed statistics (e.g. loaded from disk).
    pub fn with_stats(graph: CsrGraph, stats: GraphStats) -> Self {
        Self::shared_with_stats(Arc::new(graph), stats)
    }

    /// [`GraphPi::with_stats`] over a shared CSR; `stats` must be those of
    /// `graph`.
    pub(crate) fn shared_with_stats(graph: Arc<CsrGraph>, stats: GraphStats) -> Self {
        Self {
            graph,
            stats,
            hub: OnceLock::new(),
        }
    }

    /// The underlying data graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The cached statistics.
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// The hub-acceleration index (bitset rows for the high-degree core,
    /// indexed by this engine's own vertex ids), built on first use and
    /// cached for the lifetime of the engine.
    pub fn hub_index(&self) -> &HubGraph {
        self.hub
            .get_or_init(|| Arc::new(HubGraph::build(&self.graph, HubOptions::default())))
    }

    /// The execution context of one call: this engine's graph, with its hub
    /// index when `hub_bitsets` allows it and the index has a row.
    fn ctx(&self, hub_bitsets: bool) -> ExecCtx<'_> {
        match hub_bitsets.then(|| self.hub_index()) {
            Some(hubs) if hubs.hub_count() > 0 => ExecCtx::from((self.graph(), hubs)),
            _ => ExecCtx::from(self.graph()),
        }
    }

    fn check_pattern(&self, pattern: &Pattern) -> Result<(), EngineError> {
        if pattern.num_vertices() == 0 {
            return Err(EngineError::EmptyPattern);
        }
        if pattern.num_vertices() > MAX_PATTERN_VERTICES {
            return Err(EngineError::PatternTooLarge {
                vertices: pattern.num_vertices(),
                max: MAX_PATTERN_VERTICES,
            });
        }
        if !pattern.is_connected() {
            return Err(EngineError::DisconnectedPattern);
        }
        Ok(())
    }

    /// Runs configuration generation and performance prediction, returning
    /// the selected plan (Figure 3's preprocessing pipeline).
    pub fn plan(&self, pattern: &Pattern, options: PlanOptions) -> Result<Plan, EngineError> {
        self.check_pattern(pattern)?;
        let start = Instant::now();

        let restriction_sets = generate_restriction_sets(pattern, GenerationOptions::default());
        let schedules = efficient_schedules(pattern);
        if restriction_sets.is_empty() || schedules.is_empty() {
            return Err(EngineError::NoConfiguration);
        }
        let restriction_sets_generated = restriction_sets.len();
        let schedules_generated = schedules.len();

        // Prefer smaller restriction sets when capping: they filter earlier
        // in the loop nest on average and keep ranking cheap.
        let mut sets = restriction_sets;
        sets.sort_by_key(|s| s.len());
        if options.max_restriction_sets > 0 {
            sets.truncate(options.max_restriction_sets);
        }
        let mut schedules = schedules;
        if options.max_schedules > 0 {
            schedules.truncate(options.max_schedules);
        }

        let model = PerformanceModel::new(self.stats, pattern.num_vertices());
        // A count plan is ranked for what will run it: IEP drops the suffix
        // loops' restrictions and needs a uniform over-count to divide out.
        let mut corrections = options.enable_iep.then(|| Corrections::new(pattern));
        // Candidates are (schedule, set) index pairs, schedule-major; only
        // the winner becomes a `Configuration`.
        let candidates = schedules
            .iter()
            .flat_map(|schedule| sets.iter().map(move |set| (pattern, schedule, set)));
        let (best_idx, predicted_cost) = rank(&model, corrections.as_mut(), candidates, |_, _| {});
        let schedule = &schedules[best_idx / sets.len()];
        let set = &sets[best_idx % sets.len()];
        // Ranking priced the winner's IEP correction already (whenever it
        // has an IEP suffix); compiling must not price it again.
        let correction =
            corrections.map(|mut c| c.of(schedule, set, schedule.independent_suffix_len(pattern)));
        let plan = Configuration::new(pattern.clone(), schedule.clone(), set.clone())
            .compile_with_correction(correction);
        // Lower the winner here, once, so no query pays for it.
        plan.program();
        Ok(Plan {
            plan,
            predicted_cost,
            candidates_considered: sets.len() * schedules.len(),
            schedules_generated,
            restriction_sets_generated,
            preprocessing_time: start.elapsed(),
        })
    }

    /// Predicts the cost of an explicit configuration with this graph's
    /// statistics (used by the model-accuracy experiments).
    pub fn predict(&self, config: &Configuration) -> CostEstimate {
        let model = PerformanceModel::new(self.stats, config.pattern.num_vertices());
        model.predict_configuration(config)
    }

    /// Counts embeddings of `pattern` with default planning and execution
    /// options.
    pub fn count(&self, pattern: &Pattern) -> Result<u64, EngineError> {
        let plan = self.plan(pattern, PlanOptions::default())?;
        Ok(self.execute_count(&plan.plan, CountOptions::default()))
    }

    /// Counts embeddings with explicit execution options.
    pub fn count_with(
        &self,
        pattern: &Pattern,
        plan_options: PlanOptions,
        count_options: CountOptions,
    ) -> Result<u64, EngineError> {
        let plan = self.plan(pattern, plan_options)?;
        Ok(self.execute_count(&plan.plan, count_options))
    }

    /// Executes an already-compiled plan and returns the embedding count:
    /// sequentially (enumerating or with IEP) on one thread, otherwise on a
    /// worker pool built for this one count ([`parallel::count_parallel`]).
    pub fn execute_count(&self, plan: &ExecutionPlan, options: CountOptions) -> u64 {
        // Authoritative per call: dispatch is process-global, so this call's
        // setting becomes the process setting (the `GRAPHPI_FORCE_SCALAR`
        // environment pin is folded into detection and stays sticky).
        graphpi_graph::vertex_set::set_force_scalar(options.scalar_kernels);
        let ctx = self.ctx(options.hub_bitsets);
        match (options.use_iep, parallel::resolve_threads(options.threads)) {
            (false, 1) => interp::count_embeddings(plan, ctx),
            (true, 1) => iep::count_embeddings_iep(plan, ctx),
            (_, _) => parallel::count_parallel(plan, ctx, options.parallel_options()),
        }
    }

    /// Lists every embedding of `pattern` (one `Vec` per embedding, indexed
    /// by pattern vertex).
    pub fn list(&self, pattern: &Pattern) -> Result<Vec<Vec<VertexId>>, EngineError> {
        let plan = self.plan(pattern, PlanOptions::default())?;
        Ok(interp::list_embeddings(&plan.plan, &self.graph))
    }

    /// Opens a long-lived serving [`Session`] with default options: a
    /// persistent worker pool sized to the machine and a 64-plan LRU cache.
    pub fn session(&self) -> Session<'_> {
        self.session_with(
            PoolOptions::default(),
            PlanOptions::default(),
            CountOptions::default(),
        )
    }

    /// Opens a [`Session`] with explicit pool/planning/execution options.
    /// `count_options.threads` is superseded by `pool_options.threads`: the
    /// worker count is fixed when the pool is spawned. Likewise
    /// `pool_options.max_in_flight` fixes how many concurrent jobs the pool
    /// accepts before submitters block (backpressure).
    pub fn session_with(
        &self,
        pool_options: PoolOptions,
        plan_options: PlanOptions,
        count_options: CountOptions,
    ) -> Session<'_> {
        self.session_shared(
            Arc::new(WorkerPool::with_max_in_flight(
                pool_options.threads,
                pool_options.max_in_flight,
            )),
            Arc::new(PlanCache::new(pool_options.cache_capacity)),
            plan_options,
            count_options,
        )
    }

    /// Opens a [`Session`] on an existing pool and plan cache, so several
    /// engines (or several sessions over one engine) can share both. Plan
    /// cache keys include the graph-stats fingerprint, so sessions over
    /// different graphs can safely share one cache.
    pub fn session_shared(
        &self,
        pool: Arc<WorkerPool>,
        cache: Arc<PlanCache>,
        plan_options: PlanOptions,
        count_options: CountOptions,
    ) -> Session<'_> {
        Session {
            engine: self,
            pool,
            cache,
            plan_options,
            count_options,
        }
    }
}

/// Key identifying a compiled plan: the labeled pattern bytes, the planning
/// caps, the planner's IEP flag, and the graph-stats fingerprint the cost
/// model ranked candidates with — everything the planner's *output* depends
/// on. Deliberately *not* keyed on the execution-time counting mode
/// ([`CountOptions::use_iep`]): an IEP-enabled plan serves both IEP and
/// enumeration counting, so keying on that would store byte-identical
/// plans twice and halve the effective LRU capacity. The planner flag
/// [`PlanOptions::enable_iep`] IS keyed, because it changes the compiled
/// plan itself (empty suffix, no-op correction) — count queries and
/// full-enumeration modes cache distinct plans for the same pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    pattern: Vec<u8>,
    max_restriction_sets: usize,
    max_schedules: usize,
    enable_iep: bool,
    graph_fingerprint: u64,
}

impl PlanKey {
    fn new(pattern: &Pattern, plan_options: &PlanOptions, stats: &GraphStats) -> Self {
        Self {
            pattern: pattern.canonical_bytes(),
            max_restriction_sets: plan_options.max_restriction_sets,
            max_schedules: plan_options.max_schedules,
            enable_iep: plan_options.enable_iep,
            graph_fingerprint: stats.fingerprint(),
        }
    }
}

/// Outcome of [`Session::count_approx`]: a Horvitz–Thompson estimate of
/// the embedding count from a uniform sample of search-prefix subtrees.
///
/// The estimator is unbiased: each prefix task is kept with the requested
/// probability (decided by a seeded hash, so a fixed seed reproduces the
/// same sample) and every kept task's exact embedding count is divided by
/// that probability. `stderr` is the estimated standard error — roughly,
/// the true count lies within `estimate ± 2 × stderr` 95% of the time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxCount {
    /// The Horvitz–Thompson estimate of the embedding count.
    pub estimate: f64,
    /// Estimated standard error of `estimate` (0 when the rate is ≥ 1,
    /// where the "estimate" is the exact count). `f64::INFINITY` means
    /// unknown: no sampled task held an embedding while some tasks went
    /// unsampled, so the sample cannot bound what it skipped.
    pub stderr: f64,
    /// Number of prefix tasks that were sampled and fully counted.
    pub sampled_tasks: u64,
    /// Total number of prefix tasks the search decomposed into.
    pub total_tasks: u64,
}

/// What a query asks about a pattern's embeddings: the execution modes
/// [`Session::run`] serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// The exact embedding count (the interactive workload; IEP-capable).
    Count,
    /// The embeddings themselves, at most `limit` of them.
    Enumerate {
        /// Hard budget on the embeddings recorded, enforced while matching.
        limit: u64,
    },
    /// For every data vertex, the number of embeddings it participates in.
    Orbit,
    /// A Horvitz–Thompson estimate of the count from sampled prefix tasks.
    Sample {
        /// Probability with which each prefix task is kept (finite, > 0).
        rate: f64,
        /// Seed of the keep/skip hash; a fixed seed reproduces the sample.
        seed: u64,
    },
}

/// The result of [`Session::run`], one variant per [`Mode`].
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// [`Mode::Count`]: the exact embedding count.
    Count(u64),
    /// [`Mode::Enumerate`]: one `Vec` per embedding, indexed by pattern
    /// vertex, in original data-graph ids.
    Embeddings(Vec<Vec<VertexId>>),
    /// [`Mode::Orbit`]: per-vertex counts indexed by original vertex id.
    PerVertex(Vec<u64>),
    /// [`Mode::Sample`]: the estimate and its uncertainty.
    Approx(ApproxCount),
}

impl Outcome {
    /// The count of a [`Mode::Count`] run.
    ///
    /// # Panics
    /// If the outcome is another mode's (as for every accessor below).
    pub fn into_count(self) -> u64 {
        match self {
            Outcome::Count(count) => count,
            other => other.is_not("a count"),
        }
    }

    /// The embeddings of a [`Mode::Enumerate`] run.
    pub fn into_embeddings(self) -> Vec<Vec<VertexId>> {
        match self {
            Outcome::Embeddings(embeddings) => embeddings,
            other => other.is_not("an enumeration"),
        }
    }

    /// The per-vertex counts of a [`Mode::Orbit`] run.
    pub fn into_per_vertex(self) -> Vec<u64> {
        match self {
            Outcome::PerVertex(counts) => counts,
            other => other.is_not("an orbit profile"),
        }
    }

    /// The estimate of a [`Mode::Sample`] run.
    pub fn into_approx(self) -> ApproxCount {
        match self {
            Outcome::Approx(approx) => approx,
            other => other.is_not("a sample estimate"),
        }
    }

    fn is_not(&self, wanted: &str) -> ! {
        panic!("query outcome is not {wanted}: {self:?}")
    }
}

/// A snapshot of [`PlanCache`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the planner.
    pub misses: u64,
    /// Entries evicted to make room (LRU order).
    pub evictions: u64,
    /// Plans currently cached.
    pub len: usize,
    /// Maximum number of cached plans (0 = caching disabled).
    pub capacity: usize,
}

struct CacheEntry {
    plan: Arc<Plan>,
    /// Logical timestamp of the last hit (monotone per cache).
    last_used: u64,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<PlanKey, CacheEntry>,
    clock: u64,
}

/// A thread-safe LRU cache of compiled [`Plan`]s, keyed by
/// (pattern bytes, planning caps, graph-stats fingerprint).
///
/// Planning (schedule enumeration + restriction generation + cost-model
/// ranking) is the per-query fixed cost the paper's batch setting never
/// amortized; in a serving setting repeated patterns skip it entirely.
/// Eviction scans for the least-recently-used entry — O(len), which is
/// irrelevant at plan-cache capacities (planning is micro- to milliseconds;
/// capacities are tens of entries).
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (0 disables
    /// caching: every lookup is a miss and nothing is stored).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the cached plan for `key`, or runs `plan_fn` and caches its
    /// success. `plan_fn` runs outside the cache lock, so a slow planning
    /// run does not block hits on other keys; two threads racing on the
    /// same cold key may both plan, and the loser's (identical) plan wins.
    fn get_or_plan(
        &self,
        key: PlanKey,
        plan_fn: impl FnOnce() -> Result<Plan, EngineError>,
    ) -> Result<Arc<Plan>, EngineError> {
        if self.capacity > 0 {
            let mut inner = self.inner.lock().expect("plan cache poisoned");
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.plan));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(plan_fn()?);
        if self.capacity > 0 {
            let mut inner = self.inner.lock().expect("plan cache poisoned");
            inner.clock += 1;
            let clock = inner.clock;
            if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
                if let Some(lru) = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                {
                    inner.map.remove(&lru);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            inner.map.insert(
                key,
                CacheEntry {
                    plan: Arc::clone(&plan),
                    last_used: clock,
                },
            );
        }
        Ok(plan)
    }

    /// Counter snapshot (hits/misses/evictions/occupancy).
    pub fn stats(&self) -> CacheStats {
        let len = self.inner.lock().expect("plan cache poisoned").map.len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len,
            capacity: self.capacity,
        }
    }
}

/// A long-lived query session: the warm serving path.
///
/// A `Session` pairs the engine with a persistent [`WorkerPool`] and a
/// compiled-[`PlanCache`] (both behind `Arc`, so sessions are cheap to
/// share and clone across threads). A warm [`Session::count`] call
/// performs **no thread spawn and no planning** — only the matching work
/// itself. A query that goes to the pool allocates nothing in steady
/// state; one that [`Plan::placement`] keeps on the calling thread builds
/// its search scratch per call, a few small buffers (reusing them across
/// calls did not move the warm-count latency):
///
/// ```
/// use graphpi_core::engine::GraphPi;
/// use graphpi_graph::generators;
/// use graphpi_pattern::prefab;
///
/// let engine = GraphPi::new(generators::power_law(300, 5, 7));
/// let session = engine.session();
/// let cold = session.count(&prefab::house()).unwrap();
/// let warm = session.count(&prefab::house()).unwrap(); // cached plan, warm pool
/// assert_eq!(cold, warm);
/// assert_eq!(session.cache_stats().hits, 1);
/// ```
///
/// Sessions are fully concurrent: threads sharing a session (or sessions
/// sharing a pool) run their queries as simultaneous jobs on the
/// multi-tenant pool, up to the pool's
/// [`max_in_flight`](crate::config::PoolOptions::max_in_flight) limit —
/// beyond it, extra submitters block until a job completes (backpressure).
/// Queries kept on their calling threads take no slot and never block
/// there. The plan cache is concurrent as well, and counts stay
/// bit-identical to sequential execution regardless of how many clients
/// are in flight.
#[derive(Debug)]
pub struct Session<'g> {
    engine: &'g GraphPi,
    pool: Arc<WorkerPool>,
    cache: Arc<PlanCache>,
    plan_options: PlanOptions,
    count_options: CountOptions,
}

impl<'g> Session<'g> {
    /// The persistent worker pool (shared across clones of this session).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Plan-cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Returns the compiled plan for `pattern`, planning at most once per
    /// (pattern, planning-options, graph) triple. The same cached plan
    /// serves both IEP and enumeration counting.
    pub fn plan_cached(&self, pattern: &Pattern) -> Result<Arc<Plan>, EngineError> {
        let key = PlanKey::new(pattern, &self.plan_options, &self.engine.stats);
        self.cache
            .get_or_plan(key, || self.engine.plan(pattern, self.plan_options))
    }

    /// Runs one query of any [`Mode`] on the warm path — cached plan, and
    /// the placement [`Plan::placement`] picks — under per-call execution
    /// options (IEP, hub acceleration, prefix depth, kernel family; the
    /// worker count is the pool's, so `threads` is ignored, and the sink
    /// modes never use IEP). This is the entry the server and the CLI use;
    /// [`Session::count`], [`Session::enumerate`],
    /// [`Session::count_per_vertex`] and [`Session::count_approx`] are
    /// shorthands for it with the session's own options.
    ///
    /// A plan priced below one pool hand-off runs on the calling thread: the
    /// same prefix tasks, at the same depth, through the same per-task
    /// kernel the pool workers run, folded in task order. It takes no pool
    /// slot, so it never waits behind `max_in_flight`, and its result is
    /// bit-identical to [`Session::run_plan`]'s on the pool — counts, orbit
    /// vectors and sample estimates alike. A truncated enumeration run
    /// there is deterministic: the first `limit` embeddings in sequential
    /// search order. Every other plan is a pool job.
    ///
    /// Fails with [`EngineError::InvalidSampleRate`] unless a sample rate
    /// is finite and positive, and with the planner's error for a pattern
    /// it rejects.
    pub fn run(
        &self,
        pattern: &Pattern,
        mode: Mode,
        options: CountOptions,
    ) -> Result<Outcome, EngineError> {
        let plan = match mode {
            Mode::Sample { rate, .. } if !rate.is_finite() || rate <= 0.0 => {
                return Err(EngineError::InvalidSampleRate);
            }
            // Only counting can use a plan whose innermost loops IEP
            // replaced by arithmetic.
            Mode::Count => self.plan_cached(pattern)?,
            _ => self.mode_plan_cached(pattern)?,
        };
        Ok(self.execute(&plan.plan, mode, options, plan.placement()))
    }

    /// [`Session::run`] below plan selection, for a caller that compiled
    /// its own plan: pins the kernel family, builds the execution context,
    /// submits the job to the pool — whatever the plan costs — and turns
    /// what it folded into the caller's result. A sink mode needs a plan
    /// compiled without IEP ([`Configuration::compile_with_iep`]`(false)`).
    pub fn run_plan(&self, plan: &ExecutionPlan, mode: Mode, options: CountOptions) -> Outcome {
        self.execute(plan, mode, options, Placement::Pool)
    }

    /// Runs `plan` where `placement` says: the body of [`Session::run`] and
    /// [`Session::run_plan`].
    fn execute(
        &self,
        plan: &ExecutionPlan,
        mode: Mode,
        options: CountOptions,
        placement: Placement,
    ) -> Outcome {
        // Same contract as `GraphPi::execute_count`: the per-call knob is
        // authoritative for the process-global kernel dispatch.
        graphpi_graph::vertex_set::set_force_scalar(options.scalar_kernels);
        let ctx = self.engine.ctx(options.hub_bitsets);
        let executor_options = options.parallel_options();
        let job = match mode {
            Mode::Count => Job::count(plan, executor_options.mode),
            Mode::Enumerate { limit } => Job::enumerate(limit),
            Mode::Orbit => Job::orbit(ctx.graph().num_vertices()),
            Mode::Sample { rate, seed } => Job::sample(seed, rate),
        };
        let count = match placement {
            // The depth the pool would cut the job at, so the tasks — and
            // with them sample decisions and page order — are the pool's.
            Placement::Caller => match parallel::resolve_path(plan, &executor_options, &job) {
                ExecPath::Empty => 0,
                ExecPath::MasterOnly { depth } | ExecPath::Tasks { depth, .. } => {
                    parallel::run_on_caller(plan, ctx, depth, &job)
                }
            },
            Placement::Pool => self.pool.run_job(plan, ctx, &executor_options, &job),
        };
        match job {
            Job::Count { .. } => Outcome::Count(count),
            Job::Enumerate { out, .. } => {
                let flat = out.into_inner().expect("enumeration sink poisoned");
                Outcome::Embeddings(interp::by_pattern_vertex(plan, &flat))
            }
            Job::Orbit { counts } => {
                Outcome::PerVertex(counts.into_iter().map(AtomicU64::into_inner).collect())
            }
            Job::Sample { rate, accum, .. } => {
                let accum = accum.into_inner().expect("sample accumulator poisoned");
                let estimate = accum.estimate(rate);
                Outcome::Approx(ApproxCount {
                    estimate: estimate.estimate,
                    stderr: estimate.stderr,
                    sampled_tasks: estimate.sampled,
                    total_tasks: estimate.total,
                })
            }
        }
    }

    /// Counts embeddings of `pattern` on the warm path: cached plan,
    /// persistent pool, session-wide execution options.
    pub fn count(&self, pattern: &Pattern) -> Result<u64, EngineError> {
        self.count_with(pattern, self.count_options)
    }

    /// Counts embeddings with per-call execution options (IEP, hub
    /// acceleration, prefix depth). The worker count is the pool's — the
    /// `threads` field is ignored.
    pub fn count_with(
        &self,
        pattern: &Pattern,
        count_options: CountOptions,
    ) -> Result<u64, EngineError> {
        self.run(pattern, Mode::Count, count_options)
            .map(Outcome::into_count)
    }

    /// Executes an already-compiled plan on the session pool.
    pub fn execute_count(&self, plan: &ExecutionPlan) -> u64 {
        self.run_plan(plan, Mode::Count, self.count_options)
            .into_count()
    }

    /// Returns the cached *full-depth* plan for `pattern`: the same planner
    /// and cache as [`Session::plan_cached`], but compiled with
    /// [`PlanOptions::enable_iep`] off, because execution modes that visit
    /// every embedding cannot use a plan whose innermost loops were
    /// replaced by IEP arithmetic. Count and mode plans occupy distinct
    /// cache entries (the key includes the flag).
    pub fn mode_plan_cached(&self, pattern: &Pattern) -> Result<Arc<Plan>, EngineError> {
        let options = PlanOptions {
            enable_iep: false,
            ..self.plan_options
        };
        let key = PlanKey::new(pattern, &options, &self.engine.stats);
        self.cache
            .get_or_plan(key, || self.engine.plan(pattern, options))
    }

    /// Enumerates embeddings of `pattern`, returning at most `limit` of
    /// them (one `Vec` per embedding, indexed by pattern vertex, in
    /// data-graph ids).
    ///
    /// The `limit` is a hard budget enforced while matching — once `limit`
    /// embeddings are recorded the search stops claiming more, so
    /// enumerating a bounded page out of an astronomically large match set
    /// does not pay for the full search. *Which* embeddings fill a
    /// truncated page depends on placement ([`Plan::placement`] of the
    /// pattern's [`Session::mode_plan_cached`] plan): on the calling thread
    /// they are the first `limit` in sequential search order, the same
    /// page every time; on the pool they are unspecified (tasks race for
    /// the budget). The full set is returned whenever the true count is
    /// within the limit.
    ///
    /// Which automorphic representative a tuple is depends on the plan's
    /// restrictions alone: [`CountOptions::hub_bitsets`] changes no row and
    /// no row's position.
    pub fn enumerate(
        &self,
        pattern: &Pattern,
        limit: u64,
    ) -> Result<Vec<Vec<VertexId>>, EngineError> {
        self.run(pattern, Mode::Enumerate { limit }, self.count_options)
            .map(Outcome::into_embeddings)
    }

    /// Counts, for every data vertex, the embeddings of `pattern` it
    /// participates in (its *orbit count*), indexed by vertex id.
    ///
    /// Each embedding contributes 1 to each of its `pattern.num_vertices()`
    /// member vertices, so the returned counts sum to
    /// `pattern_size × total_count`.
    pub fn count_per_vertex(&self, pattern: &Pattern) -> Result<Vec<u64>, EngineError> {
        self.run(pattern, Mode::Orbit, self.count_options)
            .map(Outcome::into_per_vertex)
    }

    /// Estimates the embedding count of `pattern` by uniformly sampling
    /// search-prefix subtrees with probability `rate` and counting only the
    /// sampled subtrees exactly (Horvitz–Thompson estimation).
    ///
    /// A fixed `seed` reproduces the same sample (and therefore the same
    /// estimate) regardless of thread count; a `rate ≥ 1` degenerates to
    /// the exact count with zero standard error. Fails with
    /// [`EngineError::InvalidSampleRate`] unless `rate` is finite and
    /// positive.
    pub fn count_approx(
        &self,
        pattern: &Pattern,
        rate: f64,
        seed: u64,
    ) -> Result<ApproxCount, EngineError> {
        self.run(pattern, Mode::Sample { rate, seed }, self.count_options)
            .map(Outcome::into_approx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use graphpi_graph::generators;
    use graphpi_pattern::automorphism::automorphism_count;
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::RestrictionSet;

    fn engine() -> GraphPi {
        GraphPi::new(generators::power_law(260, 5, 12))
    }

    #[test]
    fn plan_reports_metadata() {
        let engine = engine();
        let plan = engine
            .plan(&prefab::house(), PlanOptions::default())
            .unwrap();
        assert!(plan.candidates_considered > 0);
        assert!(plan.schedules_generated > 0);
        assert!(plan.restriction_sets_generated > 0);
        assert!(plan.predicted_cost > 0.0);
        assert_eq!(plan.plan.num_loops(), 5);
    }

    #[test]
    fn planned_plan_is_the_winner_compiled_from_scratch() {
        // `plan` hands the compiler the correction ranking memoised (or,
        // for a winner without an IEP suffix, computes it once itself);
        // a hand-built configuration still computes its own.
        let engine = engine();
        let mut patterns = prefab::evaluation_patterns();
        patterns.extend(prefab::motifs_4());
        patterns.push(("cycle5", prefab::cycle_pattern(5)));
        for (name, pattern) in patterns {
            for enable_iep in [true, false] {
                let options = PlanOptions {
                    enable_iep,
                    ..PlanOptions::default()
                };
                let plan = engine.plan(&pattern, options).unwrap().plan;
                let from_scratch = plan.config.compile_with_iep(enable_iep);
                from_scratch.program();
                assert_eq!(plan, from_scratch, "{name}");
            }
        }
    }

    #[test]
    fn count_errors_for_bad_patterns() {
        let engine = engine();
        assert_eq!(
            engine.count(&Pattern::empty(0)),
            Err(EngineError::EmptyPattern)
        );
        let disconnected = Pattern::new(4, &[(0, 1), (2, 3)]);
        assert_eq!(
            engine.count(&disconnected),
            Err(EngineError::DisconnectedPattern)
        );
        let big = prefab::clique(9);
        assert!(matches!(
            engine.count(&big),
            Err(EngineError::PatternTooLarge { .. })
        ));
    }

    #[test]
    fn count_matches_naive_expectation_on_triangles() {
        let g = generators::power_law(300, 5, 44);
        let expected = graphpi_graph::triangles::count_triangles(&g);
        let engine = GraphPi::new(g);
        assert_eq!(engine.count(&prefab::triangle()).unwrap(), expected);
    }

    #[test]
    fn execution_modes_agree() {
        let engine = engine();
        for (name, pattern) in prefab::evaluation_patterns().into_iter().take(4) {
            let plan = engine.plan(&pattern, PlanOptions::default()).unwrap();
            let sequential =
                engine.execute_count(&plan.plan, CountOptions::sequential_enumeration());
            let modes = [
                ("iep", true, 1, false),
                ("parallel", false, 4, false),
                ("parallel-iep", true, 4, false),
                ("hub", false, 1, true),
                ("hub-iep", true, 1, true),
                ("hub-parallel", false, 4, true),
                ("hub-parallel-iep", true, 4, true),
            ];
            for (mode_name, use_iep, threads, hub_bitsets) in modes {
                let got = engine.execute_count(
                    &plan.plan,
                    CountOptions {
                        use_iep,
                        threads,
                        prefix_depth: None,
                        hub_bitsets,
                        scalar_kernels: false,
                    },
                );
                assert_eq!(got, sequential, "{name} ({mode_name})");
            }
        }
    }

    #[test]
    fn listing_length_matches_count() {
        let engine = GraphPi::new(generators::erdos_renyi(120, 700, 3));
        let pattern = prefab::rectangle();
        let count = engine
            .count_with(
                &pattern,
                PlanOptions::default(),
                CountOptions::sequential_enumeration(),
            )
            .unwrap();
        let listed = engine.list(&pattern).unwrap();
        assert_eq!(listed.len() as u64, count);
    }

    #[test]
    fn selected_plan_is_reasonably_good() {
        // The model-selected configuration must not be worse than the worst
        // candidate (sanity floor for the Figure 11 experiment).
        let engine = engine();
        let pattern = prefab::house();
        let plan = engine.plan(&pattern, PlanOptions::default()).unwrap();
        let schedules = efficient_schedules(&pattern);
        let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
        let mut worst = 0.0f64;
        for s in &schedules {
            for set in sets.iter().take(4) {
                let estimate =
                    engine.predict(&Configuration::new(pattern.clone(), s.clone(), set.clone()));
                worst = worst.max(estimate.total);
            }
        }
        assert!(plan.predicted_cost <= worst);
    }

    #[test]
    fn unrestricted_configuration_overcounts_by_aut() {
        let engine = GraphPi::new(generators::erdos_renyi(100, 500, 19));
        let pattern = prefab::rectangle();
        let schedule = Schedule::new(&pattern, vec![0, 1, 2, 3]);
        let restricted = engine
            .count_with(
                &pattern,
                PlanOptions::default(),
                CountOptions::sequential_enumeration(),
            )
            .unwrap();
        let unrestricted = engine.execute_count(
            &Configuration::new(pattern.clone(), schedule, RestrictionSet::empty()).compile(),
            CountOptions::sequential_enumeration(),
        );
        assert_eq!(
            restricted * automorphism_count(&pattern) as u64,
            unrestricted
        );
    }

    #[test]
    fn preprocessing_time_is_recorded() {
        let engine = engine();
        let plan = engine.plan(&prefab::p3(), PlanOptions::default()).unwrap();
        assert!(plan.preprocessing_time.as_nanos() > 0);
    }

    fn small_session_options() -> (PoolOptions, PlanOptions, CountOptions) {
        (
            PoolOptions {
                threads: 2,
                cache_capacity: 8,
                ..PoolOptions::default()
            },
            PlanOptions::default(),
            CountOptions::default(),
        )
    }

    #[test]
    fn session_counts_match_engine_counts() {
        let engine = engine();
        let (pool, plan_opts, count_opts) = small_session_options();
        let session = engine.session_with(pool, plan_opts, count_opts);
        for (name, pattern) in prefab::evaluation_patterns().into_iter().take(3) {
            assert_eq!(
                session.count(&pattern).unwrap(),
                engine.count(&pattern).unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn session_count_with_overrides_execution_options() {
        let engine = engine();
        let (pool, plan_opts, count_opts) = small_session_options();
        let session = engine.session_with(pool, plan_opts, count_opts);
        let pattern = prefab::house();
        let expected = engine.count(&pattern).unwrap();
        for (use_iep, hub_bitsets) in [(false, false), (true, false), (false, true), (true, true)] {
            let got = session
                .count_with(
                    &pattern,
                    CountOptions {
                        use_iep,
                        hub_bitsets,
                        ..CountOptions::default()
                    },
                )
                .unwrap();
            assert_eq!(got, expected, "iep={use_iep} hub={hub_bitsets}");
        }
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let engine = engine();
        let (pool, plan_opts, count_opts) = small_session_options();
        let session = engine.session_with(pool, plan_opts, count_opts);
        let pattern = prefab::rectangle();
        session.count(&pattern).unwrap();
        session.count(&pattern).unwrap();
        session.count(&pattern).unwrap();
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.len, 1);
        // A different pattern is a fresh miss.
        session.count(&prefab::triangle()).unwrap();
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.len, 2);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let engine = engine();
        let session = engine.session_with(
            PoolOptions {
                threads: 1,
                cache_capacity: 2,
                ..PoolOptions::default()
            },
            PlanOptions::default(),
            CountOptions::default(),
        );
        let a = prefab::triangle();
        let b = prefab::rectangle();
        let c = prefab::house();
        session.count(&a).unwrap(); // cache: [a]
        session.count(&b).unwrap(); // cache: [a, b]
        session.count(&a).unwrap(); // hit; b is now LRU
        session.count(&c).unwrap(); // evicts b
        let stats = session.cache_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.len, 2);
        session.count(&a).unwrap(); // still cached
        assert_eq!(session.cache_stats().hits, 2);
        session.count(&b).unwrap(); // must re-plan
        assert_eq!(session.cache_stats().misses, 4);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let engine = engine();
        let session = engine.session_with(
            PoolOptions {
                threads: 1,
                cache_capacity: 0,
                ..PoolOptions::default()
            },
            PlanOptions::default(),
            CountOptions::default(),
        );
        let pattern = prefab::triangle();
        let expected = engine.count(&pattern).unwrap();
        assert_eq!(session.count(&pattern).unwrap(), expected);
        assert_eq!(session.count(&pattern).unwrap(), expected);
        let stats = session.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.len, 0);
    }

    #[test]
    fn shared_cache_keys_on_graph_fingerprint() {
        // Two engines over different graphs share one cache and one pool;
        // the fingerprint in the key keeps their plans (and counts) apart.
        let engine_a = GraphPi::new(generators::power_law(220, 5, 11));
        let engine_b = GraphPi::new(generators::erdos_renyi(150, 900, 12));
        let pool = Arc::new(WorkerPool::new(2));
        let cache = Arc::new(PlanCache::new(8));
        let session_a = engine_a.session_shared(
            Arc::clone(&pool),
            Arc::clone(&cache),
            PlanOptions::default(),
            CountOptions::default(),
        );
        let session_b = engine_b.session_shared(
            Arc::clone(&pool),
            Arc::clone(&cache),
            PlanOptions::default(),
            CountOptions::default(),
        );
        let pattern = prefab::house();
        assert_eq!(
            session_a.count(&pattern).unwrap(),
            engine_a.count(&pattern).unwrap()
        );
        assert_eq!(
            session_b.count(&pattern).unwrap(),
            engine_b.count(&pattern).unwrap()
        );
        // Same pattern, different graphs: two cache entries, zero hits.
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.len, 2);
        assert_eq!(stats.hits, 0);
        // Re-counting hits each engine's own entry.
        session_a.count(&pattern).unwrap();
        session_b.count(&pattern).unwrap();
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn session_is_usable_from_multiple_threads() {
        let engine = engine();
        let (pool, plan_opts, count_opts) = small_session_options();
        let session = engine.session_with(pool, plan_opts, count_opts);
        let pattern = prefab::house();
        let expected = engine.count(&pattern).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let session = &session;
                let pattern = &pattern;
                scope.spawn(move || {
                    for _ in 0..4 {
                        assert_eq!(session.count(pattern).unwrap(), expected);
                    }
                });
            }
        });
        let stats = session.cache_stats();
        assert_eq!(stats.hits + stats.misses, 12);
        assert!(stats.misses >= 1);
    }

    #[test]
    fn enumerate_matches_list_as_multiset() {
        let engine = engine();
        let (pool, plan_opts, count_opts) = small_session_options();
        let session = engine.session_with(pool, plan_opts, count_opts);
        let pattern = prefab::house();
        let mut expected = engine.list(&pattern).unwrap();
        let mut got = session.enumerate(&pattern, u64::MAX).unwrap();
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
        // A tight limit returns exactly that many embeddings, each of which
        // is a genuine member of the full set.
        let limited = session.enumerate(&pattern, 5).unwrap();
        assert_eq!(limited.len(), 5);
        for emb in &limited {
            assert!(expected.binary_search(emb).is_ok());
        }
    }

    #[test]
    fn per_vertex_counts_sum_to_pattern_size_times_count() {
        let engine = engine();
        let (pool, plan_opts, count_opts) = small_session_options();
        let session = engine.session_with(pool, plan_opts, count_opts);
        let pattern = prefab::house();
        let total = session.count(&pattern).unwrap();
        let per_vertex = session.count_per_vertex(&pattern).unwrap();
        assert_eq!(per_vertex.len(), engine.graph().num_vertices());
        assert_eq!(
            per_vertex.iter().sum::<u64>(),
            pattern.num_vertices() as u64 * total
        );
    }

    #[test]
    fn approx_count_is_exact_at_rate_one_and_seed_stable() {
        let engine = engine();
        let (pool, plan_opts, count_opts) = small_session_options();
        let session = engine.session_with(pool, plan_opts, count_opts);
        let pattern = prefab::house();
        let total = session.count(&pattern).unwrap();

        let exact = session.count_approx(&pattern, 1.0, 7).unwrap();
        assert_eq!(exact.estimate, total as f64);
        assert_eq!(exact.stderr, 0.0);
        assert_eq!(exact.sampled_tasks, exact.total_tasks);

        let a = session.count_approx(&pattern, 0.5, 42).unwrap();
        let b = session.count_approx(&pattern, 0.5, 42).unwrap();
        assert_eq!(a, b, "fixed seed must reproduce the estimate");
        assert!(a.sampled_tasks <= a.total_tasks);
        assert!(a.estimate >= 0.0);

        assert_eq!(
            session.count_approx(&pattern, 0.0, 1),
            Err(EngineError::InvalidSampleRate)
        );
        assert_eq!(
            session.count_approx(&pattern, f64::NAN, 1),
            Err(EngineError::InvalidSampleRate)
        );
    }

    #[test]
    fn mode_plans_share_the_cache_but_not_the_entry() {
        let engine = engine();
        let (pool, plan_opts, count_opts) = small_session_options();
        let session = engine.session_with(pool, plan_opts, count_opts);
        let pattern = prefab::house();
        session.count(&pattern).unwrap();
        session.enumerate(&pattern, 1).unwrap();
        // Distinct entries: the count plan (IEP) and the full-depth plan.
        assert_eq!(session.cache_stats().len, 2);
        session.count_per_vertex(&pattern).unwrap();
        session.count_approx(&pattern, 0.5, 3).unwrap();
        // Orbit and sample reuse the full-depth entry.
        let stats = session.cache_stats();
        assert_eq!(stats.len, 2);
        assert!(stats.hits >= 2);
    }

    #[test]
    fn modes_agree_under_hub_layout() {
        let engine = engine();
        assert!(engine.hub_index().hub_count() > 0);
        let pattern = prefab::house();
        let (pool, plan_opts, _) = small_session_options();
        let plain = engine.session_with(
            pool,
            plan_opts,
            CountOptions {
                hub_bitsets: false,
                ..CountOptions::default()
            },
        );
        let hub = engine.session_with(pool, plan_opts, CountOptions::default());
        // Hub rows index the engine's own ids: only the kernels differ, so
        // the rows are identical (sorted, since the pool appends them in
        // completion order) and so are the orbit counts.
        let sorted = |mut embs: Vec<Vec<VertexId>>| {
            embs.sort_unstable();
            embs
        };
        let plain_embs = sorted(plain.enumerate(&pattern, u64::MAX).unwrap());
        assert!(!plain_embs.is_empty());
        assert_eq!(
            sorted(hub.enumerate(&pattern, u64::MAX).unwrap()),
            plain_embs
        );
        assert_eq!(
            plain.count_per_vertex(&pattern).unwrap(),
            hub.count_per_vertex(&pattern).unwrap(),
        );
    }
}
