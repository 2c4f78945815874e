//! Fine-grained prefix tasks with work stealing (the intra-node half of
//! Section IV-E): what a task is, what it folds into, and the one kernel
//! that runs it.
//!
//! The paper's distributed design has a master thread execute the outermost
//! loops and pack their bound values into tasks; worker threads unpack a
//! task and run the remaining inner loops. Within one process that is the
//! [`WorkerPool`], the one multi-threaded executor: the master (the
//! submitting thread) streams depth-`d` prefixes into its job's lane in
//! fixed-size batches — the task list is never materialised, so workers
//! start while the outer loops are still running — and workers pop, refill
//! a batch at a time and steal from each other. Because real-world degree
//! distributions are heavily skewed, per-task cost varies by orders of
//! magnitude; fine-grained tasks plus stealing keep the load balanced.
//!
//! * A task is an inline fixed-capacity `PrefixTask` (`Copy`, no heap),
//!   and every worker reuses one `SearchBuffers`, so the steady-state
//!   worker loop performs **no heap allocation**. A worker replays the set
//!   ops of the task's bound depths once and walks on from there, so a task
//!   may be cut at any depth — IEP tasks included.
//! * What a task *folds into* is data, a `Job`: counting (an enumerated
//!   subtree or one IEP term per task) and the three sink modes share one
//!   path resolution (`resolve_path`), one per-task kernel (`run_one_task`)
//!   and one calling-thread executor (`run_on_caller`).
//!
//! A `Session` keeps a pool warm; [`count_parallel`] builds one for a
//! single count and drops it. A query whose predicted cost is below one
//! hand-off ([`HANDOFF_COST`]) reaches neither: `Session::run` folds it
//! through `run_on_caller` at the depth the pool would have cut it at.
//!
//! Hub acceleration (bitset rows for the high-degree core over the graph's
//! own ids, see [`graphpi_graph::hub`]) plugs in by passing the graph
//! paired with a prebuilt [`graphpi_graph::HubGraph`] where a graph is
//! expected; it changes kernels, not results.

use crate::config::{ExecutionPlan, MAX_LOOPS};
use crate::exec::iep;
use crate::exec::interp::{self, ExecCtx, SearchBuffers};
use crate::exec::pool::WorkerPool;
use crate::exec::sink::{free_members, members, record_members, sample_accepts, Job, MatchSink};
use graphpi_graph::csr::VertexId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of prefix tasks pushed to the injector per batch.
pub(crate) const DEFAULT_BATCH_SIZE: usize = 64;

/// A unit of parallel work: the data vertices bound by the outer loops,
/// stored inline so tasks are `Copy` and never touch the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PrefixTask {
    len: u8,
    vertices: [VertexId; MAX_LOOPS],
}

impl PrefixTask {
    /// Packs a bound prefix (at most [`MAX_LOOPS`] vertices) into a task.
    #[inline]
    pub(crate) fn from_slice(prefix: &[VertexId]) -> Self {
        debug_assert!(prefix.len() <= MAX_LOOPS);
        let mut vertices = [0 as VertexId; MAX_LOOPS];
        vertices[..prefix.len()].copy_from_slice(prefix);
        Self {
            len: prefix.len() as u8,
            vertices,
        }
    }

    /// The bound vertices in schedule order.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[VertexId] {
        &self.vertices[..self.len as usize]
    }
}

/// How a worker counts the embeddings of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountMode {
    /// Enumerate the remaining loops (exact listing-compatible search).
    Enumerate,
    /// Use the Inclusion-Exclusion Principle over the independent suffix.
    Iep,
}

/// Options for the parallel executor.
#[derive(Debug, Clone, Copy)]
pub struct ParallelOptions {
    /// Number of worker threads (0 means "all available cores").
    pub threads: usize,
    /// Depth of the outer-loop prefix packed into each task. `None` picks
    /// the paper's heuristic: one loop for patterns with at most three
    /// vertices, two loops otherwise.
    pub prefix_depth: Option<usize>,
    /// Counting mode used by the workers.
    pub mode: CountMode,
    /// Number of tasks the master pushes to the injector per batch
    /// (0 = `DEFAULT_BATCH_SIZE`). Larger batches amortise queue traffic;
    /// smaller batches start workers earlier on tiny inputs.
    pub batch_size: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            prefix_depth: None,
            mode: CountMode::Enumerate,
            batch_size: 0,
        }
    }
}

/// Resolves the task prefix depth for a plan following the paper's
/// heuristic ("the number of outer loops executed by the master thread
/// depends on the complexity of the pattern").
pub fn default_prefix_depth(plan: &ExecutionPlan) -> usize {
    let n = plan.num_loops();
    if n <= 3 {
        1
    } else {
        2.min(n - 1)
    }
}

/// Resolves a requested worker count (0 = all available cores).
pub(crate) fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// The execution strategy resolved from a plan, the requested options and
/// the job — the single source of truth for sequential fallbacks and
/// degenerate depths, read by [`WorkerPool`] and by the calling-thread
/// placement in `Session::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecPath {
    /// The plan has no loops; there is nothing to match.
    Empty,
    /// The prefixes are already full embeddings; fold them on the calling
    /// thread ([`run_on_caller`]) without queueing anything.
    MasterOnly {
        /// The (full) prefix depth.
        depth: usize,
    },
    /// The real parallel job: stream depth-`depth` prefixes to workers.
    Tasks {
        /// Task prefix depth.
        depth: usize,
        /// Tasks per injector batch.
        batch_size: usize,
    },
}

/// Resolves how `job` must execute over `plan` under the given options.
pub(crate) fn resolve_path(plan: &ExecutionPlan, options: &ParallelOptions, job: &Job) -> ExecPath {
    let n = plan.num_loops();
    if n == 0 {
        return ExecPath::Empty;
    }
    // IEP tasks stop above the suffix the leaf replaces; everything else
    // may be cut at any depth.
    let deepest = match (job, plan.program().iep()) {
        (Job::Count { iep: true }, Some(table)) => table.outer,
        _ => n,
    };
    let depth = options
        .prefix_depth
        .unwrap_or_else(|| default_prefix_depth(plan))
        .clamp(1, deepest);

    if depth == n {
        return ExecPath::MasterOnly { depth };
    }

    let batch_size = if options.batch_size == 0 {
        DEFAULT_BATCH_SIZE
    } else {
        options.batch_size
    };
    ExecPath::Tasks { depth, batch_size }
}

/// What handing a job to a worker costs, in §IV-C model units: the
/// threshold below which [`crate::engine::Plan::placement`] keeps a query on
/// the calling thread (`run_on_caller`) instead of the pool.
///
/// Derived from two perf-ledger rows, not fitted to any workload: a
/// hand-off is one pool dispatch (`pool.dispatch_us`, ≈ 1 µs) plus one
/// futex wake of a parked worker (≈ 13 µs), about 14 µs; a model unit is
/// one set element, and an intersection costs ≈ 1 ns per element
/// (`vertex_set.intersect_ns_per_elem`). 14 µs / 1 ns ≈ 1.4·10⁴ units.
/// The serving patterns predict at most ≈ 8·10³ units on small graphs and
/// the perf ledger's batch and mixed reads ≈ 10⁶ or more, so their routing
/// does not hinge on the exact value.
pub const HANDOFF_COST: f64 = 1.4e4;

/// The calling-thread executor every path shares: folds each depth-`depth`
/// prefix through the per-task kernel right here, queueing nothing, and
/// returns the job's finished count (IEP correction applied; zero for the
/// sink modes, whose results are in `job`). It serves the pool's degenerate
/// full-depth path and every query the placement rule keeps off the pool.
pub(crate) fn run_on_caller(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    depth: usize,
    job: &Job,
) -> u64 {
    let mut buffers = SearchBuffers::new(plan.num_loops());
    let mut raw = 0u64;
    interp::for_each_prefix(plan, ctx, depth, |prefix| {
        raw += run_one_task(plan, ctx, job, prefix, &mut buffers);
    });
    finalize_count(raw, job, plan)
}

/// Runs one prefix task's subtree into its job — the single per-task kernel
/// that pool workers serving any job, the pool's caller-runs master helping
/// and [`run_on_caller`] share, which is what keeps their results
/// bit-identical: a job folds the same per-task contributions regardless of
/// which threads ran them.
///
/// Returns the task's term of a count job's raw total (zero for the sink
/// modes, whose per-task work accumulates locally — a page of embeddings,
/// relaxed per-vertex adds, one sample decision — and merges into the job
/// under at most one brief lock per task, so concurrent workers never
/// serialise on the match loop itself).
#[inline]
pub(crate) fn run_one_task(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    job: &Job,
    prefix: &[VertexId],
    buffers: &mut SearchBuffers,
) -> u64 {
    match job {
        Job::Count { iep: false } => interp::count_from_prefix_with(plan, ctx, prefix, buffers),
        Job::Count { iep: true } => iep::iep_term_with(plan, ctx, prefix, buffers),
        Job::Enumerate {
            limit,
            claimed,
            out,
        } => {
            if claimed.load(Ordering::Relaxed) >= *limit {
                return 0; // budget exhausted: drain remaining tasks cheaply
            }
            // The task's page lives in the worker's buffers: cleared per
            // task, its capacity reused.
            let mut sink = ClaimingEmbed {
                page: std::mem::take(&mut buffers.page),
                claimed,
                limit: *limit,
                full: false,
            };
            sink.page.clear();
            interp::match_from_prefix_with(plan, ctx, prefix, buffers, &mut sink);
            if !sink.page.is_empty() {
                out.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend_from_slice(&sink.page);
            }
            buffers.page = sink.page;
            0
        }
        Job::Orbit { counts } => {
            let mut sink = SharedOrbit {
                counts,
                pending: [(0, 0); MAX_LOOPS],
            };
            interp::match_from_prefix_with(plan, ctx, prefix, buffers, &mut sink);
            sink.flush();
            0
        }
        Job::Sample { seed, rate, accum } => {
            let accepted = sample_accepts(*seed, *rate, prefix);
            let y = if accepted {
                interp::count_from_prefix_with(plan, ctx, prefix, buffers)
            } else {
                0
            };
            let mut accum = accum
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            accum.total += 1;
            if accepted {
                accum.record(y);
            }
            0
        }
    }
}

/// Applies the IEP over-counting correction to a job's raw total.
pub(crate) fn finalize_count(raw: u64, job: &Job, plan: &ExecutionPlan) -> u64 {
    match job {
        Job::Count { iep: true } => raw / plan.iep_correction.divisor(),
        _ => raw,
    }
}

/// A recording sink that claims from a job-global budget before it
/// records, a leaf at a time, so concurrent workers collectively record
/// exactly `min(limit, total)` embeddings: a leaf of `k` embeddings takes
/// the budget range `[start, start + k)` with one add and records its first
/// `min(k, limit − start)`, in window order.
struct ClaimingEmbed<'a> {
    /// This task's embeddings (flat, schedule order).
    page: Vec<VertexId>,
    claimed: &'a AtomicU64,
    limit: u64,
    full: bool,
}

impl MatchSink for ClaimingEmbed<'_> {
    #[inline]
    fn on_leaf(&mut self, prefix: &[VertexId], window: &[VertexId]) {
        let k = free_members(prefix, window);
        if k == 0 {
            return;
        }
        let start = self.claimed.fetch_add(k, Ordering::Relaxed);
        let room = self.limit.saturating_sub(start);
        record_members(&mut self.page, prefix, window, room);
        // The claim reached the end of the budget: stop this task's search.
        self.full = k >= room;
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.full
    }
}

/// The orbit sink over the job's shared atomic counters (relaxed adds: the
/// final counts are order-free sums). A leaf adds one to each of its
/// members; what it owes the prefix vertices — the leaf's size, each — is
/// summed here and reaches the shared counters when a prefix position is
/// rebound and at task end, so a task costs about one atomic add per
/// embedding plus one per internal node of its search tree, not `n` per
/// embedding.
struct SharedOrbit<'a> {
    counts: &'a [AtomicU64],
    /// Per prefix position: the vertex bound there and the embeddings found
    /// under it that `counts` has not seen yet.
    pending: [(VertexId, u64); MAX_LOOPS],
}

impl SharedOrbit<'_> {
    /// Moves one position's pending share into the shared counters.
    #[inline]
    fn settle(counts: &[AtomicU64], (v, owed): &mut (VertexId, u64)) {
        if *owed > 0 {
            counts[*v as usize].fetch_add(*owed, Ordering::Relaxed);
            *owed = 0;
        }
    }

    /// Settles every position: the task is over.
    fn flush(&mut self) {
        for slot in &mut self.pending {
            Self::settle(self.counts, slot);
        }
    }
}

impl MatchSink for SharedOrbit<'_> {
    #[inline]
    fn on_leaf(&mut self, prefix: &[VertexId], window: &[VertexId]) {
        let mut k = 0;
        for v in members(prefix, window) {
            self.counts[v as usize].fetch_add(1, Ordering::Relaxed);
            k += 1;
        }
        if k == 0 {
            return;
        }
        for (slot, &bound) in self.pending.iter_mut().zip(prefix) {
            if slot.0 != bound {
                Self::settle(self.counts, slot);
                slot.0 = bound;
            }
            slot.1 += k;
        }
    }
}

/// Counts embeddings in parallel over a `&CsrGraph`, or a `(&CsrGraph,
/// &HubGraph)` pair for hub-accelerated execution, on a [`WorkerPool`] built
/// for this one job with `options.threads` workers and dropped (its workers
/// joined) before returning. A long-lived caller keeps a warm pool instead:
/// [`crate::engine::Session`] or [`WorkerPool::count`] directly.
pub fn count_parallel<'a>(
    plan: &ExecutionPlan,
    ctx: impl Into<ExecCtx<'a>>,
    options: ParallelOptions,
) -> u64 {
    WorkerPool::with_max_in_flight(options.threads, 1).count(plan, ctx, &options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::schedule::{efficient_schedules, Schedule};
    use graphpi_graph::generators;
    use graphpi_graph::hub::{HubGraph, HubOptions};
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::{
        generate_restriction_sets, GenerationOptions, RestrictionSet,
    };

    fn plan_for(pattern: graphpi_pattern::Pattern) -> ExecutionPlan {
        let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
        let schedules = efficient_schedules(&pattern);
        Configuration::new(pattern, schedules[0].clone(), sets[0].clone()).compile()
    }

    #[test]
    fn parallel_matches_sequential_enumeration() {
        let g = generators::power_law(220, 5, 5);
        for (name, pattern) in prefab::evaluation_patterns().into_iter().take(4) {
            let plan = plan_for(pattern);
            let sequential = interp::count_embeddings(&plan, &g);
            for threads in [1, 2, 4] {
                let parallel = count_parallel(
                    &plan,
                    &g,
                    ParallelOptions {
                        threads,
                        ..Default::default()
                    },
                );
                assert_eq!(parallel, sequential, "{name} with {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_iep_matches_sequential_iep() {
        let g = generators::power_law(250, 5, 6);
        for pattern in [prefab::house(), prefab::p2(), prefab::cycle_6_tri()] {
            let plan = plan_for(pattern);
            let expected = iep::count_embeddings_iep(&plan, &g);
            let got = count_parallel(
                &plan,
                &g,
                ParallelOptions {
                    threads: 4,
                    mode: CountMode::Iep,
                    ..Default::default()
                },
            );
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn prefix_depth_options_do_not_change_counts() {
        let g = generators::erdos_renyi(150, 900, 10);
        let plan = plan_for(prefab::house());
        let baseline = interp::count_embeddings(&plan, &g);
        for depth in 1..=3usize {
            let got = count_parallel(
                &plan,
                &g,
                ParallelOptions {
                    threads: 3,
                    prefix_depth: Some(depth),
                    ..Default::default()
                },
            );
            assert_eq!(got, baseline, "prefix depth {depth}");
        }
    }

    #[test]
    fn batch_sizes_do_not_change_counts() {
        let g = generators::power_law(200, 5, 77);
        let plan = plan_for(prefab::rectangle());
        let baseline = interp::count_embeddings(&plan, &g);
        for batch_size in [1, 3, 64, 4096] {
            let got = count_parallel(
                &plan,
                &g,
                ParallelOptions {
                    threads: 4,
                    batch_size,
                    ..Default::default()
                },
            );
            assert_eq!(got, baseline, "batch size {batch_size}");
        }
    }

    #[test]
    fn hub_bitsets_do_not_change_counts() {
        let g = generators::power_law(250, 6, 31);
        let hubs = HubGraph::build(&g, HubOptions::default());
        for (name, pattern) in prefab::evaluation_patterns().into_iter().take(4) {
            let plan = plan_for(pattern);
            let plain = interp::count_embeddings(&plan, &g);
            let hubbed = count_parallel(
                &plan,
                (&g, &hubs),
                ParallelOptions {
                    threads: 4,
                    ..Default::default()
                },
            );
            assert_eq!(hubbed, plain, "{name}");
        }
    }

    #[test]
    fn prebuilt_hub_index_matches_plain() {
        let g = generators::power_law(200, 6, 13);
        let hubs = HubGraph::build(&g, HubOptions::default());
        for mode in [CountMode::Enumerate, CountMode::Iep] {
            let plan = plan_for(prefab::house());
            let plain = count_parallel(
                &plan,
                &g,
                ParallelOptions {
                    threads: 3,
                    mode,
                    ..Default::default()
                },
            );
            let hubbed = count_parallel(
                &plan,
                (&g, &hubs),
                ParallelOptions {
                    threads: 3,
                    mode,
                    ..Default::default()
                },
            );
            assert_eq!(hubbed, plain, "{mode:?}");
        }
    }

    #[test]
    fn triangle_uses_single_loop_tasks() {
        let plan = plan_for(prefab::triangle());
        assert_eq!(default_prefix_depth(&plan), 1);
        let g = generators::erdos_renyi(100, 700, 2);
        let got = count_parallel(&plan, &g, ParallelOptions::default());
        assert_eq!(got, interp::count_embeddings(&plan, &g));
    }

    #[test]
    fn empty_graph_counts_zero() {
        let g = graphpi_graph::GraphBuilder::new().num_vertices(50).build();
        let plan = plan_for(prefab::house());
        assert_eq!(count_parallel(&plan, &g, ParallelOptions::default()), 0);
    }

    #[test]
    fn claiming_embed_keeps_the_part_of_a_claim_below_the_limit() {
        let claimed = AtomicU64::new(0);
        let sink = || ClaimingEmbed {
            page: Vec::new(),
            claimed: &claimed,
            limit: 4,
            full: false,
        };
        let mut first = sink();
        first.on_leaf(&[9, 2], &[1, 2, 3]); // claims [0, 2): the bound 2 is no embedding
        assert!(!first.is_full());
        first.on_leaf(&[9, 2], &[]); // claims nothing
        first.on_leaf(&[9, 2], &[4, 5, 6]); // claims [2, 5), keeps [2, 4)
        assert!(first.is_full());
        assert_eq!(first.page, [9, 2, 1, 9, 2, 3, 9, 2, 4, 9, 2, 5]);
        assert_eq!(claimed.load(Ordering::Relaxed), 5);
        // A worker that arrives after the budget is gone records nothing.
        let mut late = sink();
        late.on_leaf(&[7, 8], &[1]);
        assert!(late.is_full() && late.page.is_empty());
    }

    #[test]
    fn shared_orbit_settles_prefix_shares_on_rebinding_and_at_task_end() {
        let job = Job::orbit(6);
        let Job::Orbit { counts } = &job else {
            panic!("constructed as Orbit")
        };
        let read = || -> Vec<u64> { counts.iter().map(|c| c.load(Ordering::Relaxed)).collect() };
        let mut sink = SharedOrbit {
            counts,
            pending: [(0, 0); MAX_LOOPS],
        };
        // Members reach the counters at once, prefix shares wait.
        sink.on_leaf(&[0, 1], &[1, 2, 3]);
        assert_eq!(read(), [0, 0, 1, 1, 0, 0]);
        // Position 1 is rebound: vertex 1 gets its two; vertex 0 keeps waiting.
        sink.on_leaf(&[0, 4], &[5]);
        assert_eq!(read(), [0, 2, 1, 1, 0, 1]);
        sink.on_leaf(&[0, 4], &[0, 4]); // nothing free: nothing owed
        sink.flush();
        assert_eq!(read(), [3, 2, 1, 1, 1, 1]);
        sink.flush();
        assert_eq!(read(), [3, 2, 1, 1, 1, 1]);
    }

    #[test]
    fn prefix_task_roundtrips() {
        let task = PrefixTask::from_slice(&[5, 9, 2]);
        assert_eq!(task.as_slice(), &[5, 9, 2]);
        let empty = PrefixTask::from_slice(&[]);
        assert_eq!(empty.as_slice(), &[] as &[VertexId]);
    }

    #[test]
    fn non_uniform_plan_is_enumerated_in_parallel() {
        // A hand-built plan whose over-count no division corrects has no
        // IEP leaf: asked for IEP, it is enumerated — by tasks, like any
        // other plan — and the count is exact.
        let g = generators::erdos_renyi(120, 600, 4);
        let pattern = prefab::path_pattern(5);
        let schedule = Schedule::new(&pattern, vec![2, 1, 3, 0, 4]);
        let restrictions = RestrictionSet::from_pairs(&[(2, 1)]);
        let plan = Configuration::new(pattern.clone(), schedule, restrictions).compile();
        assert!(matches!(
            plan.iep_correction,
            crate::config::IepCorrection::DivideUnrestricted { .. }
        ));
        let options = ParallelOptions {
            threads: 2,
            mode: CountMode::Iep,
            ..Default::default()
        };
        let job = Job::count(&plan, options.mode);
        assert!(matches!(job, Job::Count { iep: false }));
        assert!(matches!(
            resolve_path(&plan, &options, &job),
            ExecPath::Tasks { .. }
        ));
        assert_eq!(
            count_parallel(&plan, &g, options),
            interp::count_embeddings(&plan, &g)
        );
        assert_eq!(
            iep::count_embeddings_iep(&plan, &g),
            interp::count_embeddings(&plan, &g)
        );
    }

    #[test]
    fn evaluation_patterns_plan_to_parallel_iep() {
        // The planner's own pick must be one IEP runs well: a uniform
        // over-count (P6's cheapest enumeration plan is not), executed as
        // default-depth tasks rather than on the calling thread.
        use crate::engine::{GraphPi, PlanOptions};
        let engine = GraphPi::new(generators::power_law(200, 5, 3));
        for (name, pattern) in prefab::evaluation_patterns() {
            let plan = engine.plan(&pattern, PlanOptions::default()).unwrap().plan;
            assert!(
                matches!(
                    plan.iep_correction,
                    crate::config::IepCorrection::DividePrefixRestricted { .. }
                ),
                "{name}: {:?}",
                plan.iep_correction
            );
            let options = ParallelOptions {
                mode: CountMode::Iep,
                ..Default::default()
            };
            let job = Job::count(&plan, options.mode);
            assert!(matches!(job, Job::Count { iep: true }), "{name}");
            assert!(
                matches!(
                    resolve_path(&plan, &options, &job),
                    ExecPath::Tasks { depth: 2, .. }
                ),
                "{name}"
            );
        }
    }
}
