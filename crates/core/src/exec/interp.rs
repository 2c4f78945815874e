//! Sequential nested-loop execution of a compiled plan.
//!
//! The interpreter walks the loop nest described by an
//! [`crate::config::ExecutionPlan`]: loop `i` binds pattern
//! vertex `plan.loops[i].pattern_vertex` to a data vertex drawn from the
//! intersection of the neighborhoods of its already-bound pattern neighbors,
//! subject to the restriction bounds and to injectivity. The last loop is
//! not run: it has nothing to build, so its candidates inside the
//! restriction window *are* the embeddings below the bound prefix, and the
//! walk hands that window to the [`MatchSink`] as one set
//! ([`MatchSink::on_leaf`]) — Section IV-D's leaf at `k = 1`, where no
//! restriction is dropped and nothing has to be divided out. A count is
//! `|window|` less the bound vertices inside it; the other sinks do the
//! cheapest thing the set allows ([`crate::exec::sink`]).
//!
//! This is the executable counterpart of the code GraphPi generates and
//! compiles (Figure 5(b)): the loops never compute an intersection
//! themselves. They execute the plan's
//! `SetProgram` — when loop
//! `i` binds a vertex, the ops hoisted to depth `i` build every set whose
//! last parent is `v_i`, once, into the slots of a reusable
//! `SearchBuffers`; a deeper loop's candidate set is a slot reference plus
//! its restriction window. A prefix task replays the ops of its bound depths
//! and then walks on, so sequential, pooled and IEP execution
//! ([`crate::exec::iep`]) are all the same `Walk`. [`crate::codegen`]
//! renders the same program as source text.
//!
//! The matching kernel is **allocation-free** in steady state: slots, the
//! bound-vertex stack and the page an enumeration task records into all
//! live in the caller's `SearchBuffers`, one per worker.

use crate::config::{ExecutionPlan, LoopBound};
use crate::exec::setprog::{Operand, SetProgram};
use crate::exec::sink::{CountSink, EmbedSink, MatchSink};
use graphpi_graph::csr::{CsrGraph, VertexId};
use graphpi_graph::hub::{self, HubGraph};
use graphpi_graph::vertex_set;

/// The data a plan executes against: a CSR graph, optionally with a hub
/// index of bitset rows over that same graph's vertex ids.
///
/// The index only changes which kernel intersects two sets, never a set, so
/// every result — counts, orbit vectors, sample estimates, enumeration rows
/// and their order — is bit-identical with it or without it.
#[derive(Debug, Clone, Copy)]
pub struct ExecCtx<'a> {
    graph: &'a CsrGraph,
    hubs: Option<&'a HubGraph>,
}

/// Plain execution over a CSR graph.
impl<'a> From<&'a CsrGraph> for ExecCtx<'a> {
    fn from(graph: &'a CsrGraph) -> Self {
        Self { graph, hubs: None }
    }
}

/// Hub-accelerated execution: a graph paired with the hub index built over
/// it.
///
/// # Panics
/// Panics if the index was built over a graph of another size (`|V|` or
/// `|E|`): its rows would answer for the wrong vertices.
impl<'a> From<(&'a CsrGraph, &'a HubGraph)> for ExecCtx<'a> {
    fn from((graph, hubs): (&'a CsrGraph, &'a HubGraph)) -> Self {
        assert!(
            hubs.indexes(graph),
            "hub index {hubs:?} paired with a graph it was not built over"
        );
        Self {
            graph,
            hubs: Some(hubs),
        }
    }
}

impl<'a> ExecCtx<'a> {
    /// The graph being executed against.
    #[inline]
    pub(crate) fn graph(&self) -> &'a CsrGraph {
        self.graph
    }

    /// The bitset row of `v`, when there is an index and `v` is a hub.
    #[inline]
    fn row(&self, v: VertexId) -> Option<&'a [u64]> {
        self.hubs.and_then(|hubs| hubs.row(v))
    }

    /// Whether `a` and `b` are adjacent (a bit probe when either is a hub).
    #[inline]
    pub(crate) fn adjacent(&self, a: VertexId, b: VertexId) -> bool {
        if let Some(row) = self.row(a) {
            hub::contains(row, b)
        } else if let Some(row) = self.row(b) {
            hub::contains(row, a)
        } else {
            self.graph.has_edge(a, b)
        }
    }
}

/// Reusable scratch for the matching kernel: the set program's slots and
/// the bound-vertex stack.
///
/// Create once (per worker, per thread) and reuse across tasks and plans;
/// after the buffers have grown to their steady-state sizes the kernel
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct SearchBuffers {
    /// One materialisation buffer per program slot.
    slots: Vec<Vec<VertexId>>,
    /// Cardinality of each slot as last built (all the IEP leaf reads).
    counts: Vec<usize>,
    /// `0..|V|`, for loops with no bound parent.
    everything: Vec<VertexId>,
    /// Bound-vertex stack (prefix + inner-loop bindings).
    stack: Vec<VertexId>,
    /// The IEP leaf's per-set cardinalities.
    pub(crate) cards: Vec<u64>,
    /// The embeddings an enumeration task records (flat, schedule order)
    /// before it appends them to its job under one lock.
    pub(crate) page: Vec<VertexId>,
}

impl SearchBuffers {
    /// Creates buffers for a plan with `depth` loops.
    pub(crate) fn new(depth: usize) -> Self {
        Self {
            stack: Vec::with_capacity(depth),
            ..Self::default()
        }
    }
}

/// What a [`Walk`] ends in. Both methods return `false` to stop the walk.
pub(crate) trait Leaf {
    /// One full binding of the walked loops: the bound vertices in schedule
    /// order and the slot cardinalities.
    fn hit(&mut self, bound: &[VertexId], counts: &[usize]) -> bool;

    /// The last walked loop as a set, when it has nothing to build: every
    /// member of `window` (sorted, duplicate-free) that `stack` does not
    /// already bind completes a binding. Binding them one at a time is for
    /// leaves where a binding is not an embedding — the IEP leaf above its
    /// suffix, a prefix visitor — and a sink takes the set whole.
    #[inline]
    fn window(&mut self, stack: &mut Vec<VertexId>, window: &[VertexId], counts: &[usize]) -> bool {
        for &v in window {
            if stack.contains(&v) {
                continue;
            }
            stack.push(v);
            let go = self.hit(stack, counts);
            stack.pop();
            if !go {
                return false;
            }
        }
        true
    }
}

struct SinkLeaf<'s, S>(&'s mut S);

impl<S: MatchSink> Leaf for SinkLeaf<'_, S> {
    /// A fully bound stack is the degenerate leaf: its last vertex is the
    /// whole window.
    #[inline]
    fn hit(&mut self, bound: &[VertexId], _: &[usize]) -> bool {
        let (prefix, last) = bound.split_at(bound.len() - 1);
        self.0.on_leaf(prefix, last);
        !self.0.is_full()
    }

    #[inline(always)]
    fn window(&mut self, stack: &mut Vec<VertexId>, window: &[VertexId], _: &[usize]) -> bool {
        self.0.on_leaf(stack, window);
        !self.0.is_full()
    }
}

struct VisitLeaf<F>(F);

impl<F: FnMut(&[VertexId])> Leaf for VisitLeaf<F> {
    #[inline(always)]
    fn hit(&mut self, bound: &[VertexId], _: &[usize]) -> bool {
        (self.0)(bound);
        true
    }
}

/// One execution of a plan's set program: which loops are walked, and
/// therefore which ops run.
#[derive(Clone, Copy)]
pub(crate) struct Walk<'a> {
    plan: &'a ExecutionPlan,
    program: &'a SetProgram,
    ctx: ExecCtx<'a>,
    /// Loops `0..end` are bound; the leaf fires below loop `end - 1`.
    end: usize,
    /// IEP: every op runs (the leaf reads the suffix sets), count-only ops
    /// are not materialised.
    iep: bool,
}

impl<'a> Walk<'a> {
    /// A walk that enumerates the bindings of loops `0..end`.
    pub(crate) fn enumerate(plan: &'a ExecutionPlan, ctx: ExecCtx<'a>, end: usize) -> Self {
        Self {
            plan,
            program: plan.program(),
            ctx,
            end,
            iep: false,
        }
    }

    /// A walk over the `outer` loops above a plan's IEP leaf.
    pub(crate) fn iep(plan: &'a ExecutionPlan, ctx: ExecCtx<'a>, outer: usize) -> Self {
        Self {
            iep: true,
            ..Self::enumerate(plan, ctx, outer)
        }
    }

    /// Sizes `buffers` for this plan's program and binds `prefix`,
    /// replaying the ops of its depths. Returns `false` when one of them
    /// proves the subtree empty.
    pub(crate) fn bind(&self, prefix: &[VertexId], buffers: &mut SearchBuffers) -> bool {
        let slots = self.program.num_slots();
        if buffers.slots.len() < slots {
            buffers.slots.resize_with(slots, Vec::new);
            buffers.counts.resize(slots, 0);
        }
        buffers.stack.clear();
        buffers.stack.extend_from_slice(prefix);
        (0..prefix.len()).all(|depth| self.run_ops(depth, buffers))
    }

    /// Walks loops `stack.len()..end` below the bound stack, firing `leaf`
    /// at every full binding. Returns `false` when the leaf stopped it.
    pub(crate) fn descend<L: Leaf>(&self, buffers: &mut SearchBuffers, leaf: &mut L) -> bool {
        if buffers.stack.len() == self.end {
            leaf.hit(&buffers.stack, &buffers.counts)
        } else {
            self.walk(buffers.stack.len(), buffers, leaf)
        }
    }

    /// Runs the ops hoisted to `depth`, whose vertex is on the stack.
    /// Returns `false` when a set some loop draws candidates through came
    /// out empty: nothing below can match.
    fn run_ops(&self, depth: usize, buffers: &mut SearchBuffers) -> bool {
        let ops = self.program.ops_at(depth);
        if ops.is_empty() {
            return true;
        }
        let SearchBuffers {
            slots,
            counts,
            stack,
            ..
        } = buffers;
        let n = self.plan.num_loops();
        let rhs = stack[depth];
        for op in ops {
            if !self.iep && op.first_loop as usize >= self.end {
                continue;
            }
            let (built, rest) = slots.split_at_mut(op.dst as usize);
            let pair = match op.lhs {
                Operand::Adj(p) => self.pair(stack[p as usize], rhs),
                Operand::Slot(s) => self.extend(&built[s as usize], rhs),
                Operand::All => unreachable!("ops intersect at least two neighbourhoods"),
            };
            let len = if self.iep && op.count_only {
                pair.count()
            } else {
                pair.materialise(&mut rest[0]);
                rest[0].len()
            };
            counts[op.dst as usize] = len;
            if len == 0 && (op.first_loop as usize) < n {
                return false;
            }
        }
        true
    }

    /// `N(a) ∩ N(b)` for two bound vertices.
    fn pair(&self, a: VertexId, b: VertexId) -> Pair<'a> {
        let graph = self.ctx.graph;
        match (self.ctx.row(a), self.ctx.row(b)) {
            (Some(ra), Some(rb)) => Pair::Rows(ra, rb),
            (Some(row), None) => Pair::Probe(graph.neighbors(b), row),
            (None, Some(row)) => Pair::Probe(graph.neighbors(a), row),
            (None, None) => Pair::Lists(graph.neighbors(a), graph.neighbors(b)),
        }
    }

    /// `set ∩ N(b)` for a built slot.
    fn extend<'s>(&self, set: &'s [VertexId], b: VertexId) -> Pair<'s>
    where
        'a: 's,
    {
        match self.ctx.row(b) {
            Some(row) => Pair::Probe(set, row),
            None => Pair::Lists(set, self.ctx.graph.neighbors(b)),
        }
    }

    /// The index range of loop `depth`'s candidates that survives its
    /// restriction bounds: candidates must lie strictly between the largest
    /// lower and the smallest upper bound.
    fn window(&self, depth: usize, bound: &[VertexId], candidates: &[VertexId]) -> (usize, usize) {
        let mut lower: Option<VertexId> = None;
        let mut upper: Option<VertexId> = None;
        for b in &self.plan.loops[depth].bounds {
            match *b {
                LoopBound::LessThanValueAt(pos) => {
                    let limit = bound[pos];
                    upper = Some(upper.map_or(limit, |u: VertexId| u.min(limit)));
                }
                LoopBound::GreaterThanValueAt(pos) => {
                    let limit = bound[pos];
                    lower = Some(lower.map_or(limit, |l: VertexId| l.max(limit)));
                }
            }
        }
        let start = lower.map_or(0, |l| candidates.partition_point(|&x| x <= l));
        let end = upper.map_or(candidates.len(), |u| candidates.partition_point(|&x| x < u));
        // Crossed bounds leave nothing.
        (start, end.max(start))
    }

    fn walk<L: Leaf>(&self, depth: usize, buffers: &mut SearchBuffers, leaf: &mut L) -> bool {
        let source = self.program.candidates(depth);
        // A raw neighbourhood outlives the buffers; a slot is re-read by
        // index, because the ops of this depth write (other) slots while
        // the loop runs.
        let adjacency: &[VertexId] = match source {
            Operand::Adj(p) => self.ctx.graph.neighbors(buffers.stack[p as usize]),
            _ => &[],
        };
        if source == Operand::All && buffers.everything.len() != self.ctx.graph.num_vertices() {
            buffers.everything.clear();
            buffers.everything.extend(self.ctx.graph.vertices());
        }
        let (start, end) = self.window(
            depth,
            &buffers.stack,
            match source {
                Operand::All => &buffers.everything,
                Operand::Adj(_) => adjacency,
                Operand::Slot(s) => &buffers.slots[s as usize],
            },
        );
        let last = depth + 1 == self.end;
        if last && self.program.ops_at(depth).is_empty() {
            // Last walked loop with nothing to build: it is not run, the
            // leaf takes its window as a set.
            let SearchBuffers {
                slots,
                counts,
                everything,
                stack,
                ..
            } = buffers;
            let candidates: &[VertexId] = match source {
                Operand::All => everything,
                Operand::Adj(_) => adjacency,
                Operand::Slot(s) => &slots[s as usize],
            };
            return leaf.window(stack, &candidates[start..end], counts);
        }
        let candidate = |buffers: &SearchBuffers, idx: usize| match source {
            Operand::All => buffers.everything[idx],
            Operand::Adj(_) => adjacency[idx],
            Operand::Slot(s) => buffers.slots[s as usize][idx],
        };
        for idx in start..end {
            let v = candidate(buffers, idx);
            if buffers.stack.contains(&v) {
                continue;
            }
            buffers.stack.push(v);
            let go = !self.run_ops(depth, buffers)
                || if last {
                    leaf.hit(&buffers.stack, &buffers.counts)
                } else {
                    self.walk(depth + 1, buffers, leaf)
                };
            buffers.stack.pop();
            if !go {
                return false;
            }
        }
        true
    }
}

/// The two sets of one op, paired with the cheapest way to intersect them,
/// each hub's bitset row looked up once per op:
///
/// * two sorted lists — merge or galloping ([`vertex_set`]);
/// * a sorted list against a hub's row — probe each element (`O(|list|)`
///   regardless of the hub's degree);
/// * two hubs' rows — word-AND.
#[derive(Clone, Copy)]
enum Pair<'a> {
    Lists(&'a [VertexId], &'a [VertexId]),
    Probe(&'a [VertexId], &'a [u64]),
    Rows(&'a [u64], &'a [u64]),
}

impl Pair<'_> {
    fn materialise(self, out: &mut Vec<VertexId>) {
        match self {
            Pair::Lists(a, b) => vertex_set::intersect_into(a, b, out),
            Pair::Probe(list, row) => hub::filter_into(row, list, out),
            Pair::Rows(a, b) => hub::and_into(a, b, out),
        }
    }

    fn count(self) -> usize {
        match self {
            Pair::Lists(a, b) => vertex_set::intersect_count(a, b),
            Pair::Probe(list, row) => list.iter().filter(|&&v| hub::contains(row, v)).count(),
            Pair::Rows(a, b) => hub::and_count(a, b),
        }
    }
}

/// Counts every embedding of the plan's pattern in the data graph (a
/// `&CsrGraph`, or a `(&CsrGraph, &HubGraph)` pair for hub-accelerated
/// execution).
///
/// The same `CountSink` leaf the pool folds its tasks through, one start
/// vertex at a time.
pub fn count_embeddings<'a>(plan: &ExecutionPlan, ctx: impl Into<ExecCtx<'a>>) -> u64 {
    let mut sink = CountSink::new();
    match_embeddings_in(plan, ctx.into(), 1, &mut sink);
    sink.count()
}

/// Collects every embedding as a vector of data vertices indexed **by
/// pattern vertex** (i.e. `result[e][p]` is the data vertex that embedding
/// `e` assigns to pattern vertex `p`).
pub fn list_embeddings(plan: &ExecutionPlan, graph: &CsrGraph) -> Vec<Vec<VertexId>> {
    let mut sink = EmbedSink::new(plan.num_loops(), u64::MAX);
    match_embeddings_in(plan, graph.into(), 1, &mut sink);
    by_pattern_vertex(plan, sink.vertices())
}

/// Flat schedule-order rows, `plan.num_loops()` vertices each, as one
/// `Vec` per row indexed by pattern vertex.
pub(crate) fn by_pattern_vertex(plan: &ExecutionPlan, flat: &[VertexId]) -> Vec<Vec<VertexId>> {
    let n = plan.num_loops();
    let reindex = |row: &[VertexId]| {
        let mut embedding = vec![0 as VertexId; n];
        for (i, &v) in row.iter().enumerate() {
            embedding[plan.loops[i].pattern_vertex] = v;
        }
        embedding
    };
    flat.chunks_exact(n.max(1)).map(reindex).collect()
}

/// Sink-driven whole-graph matching, decomposed exactly like the parallel
/// executors: valid prefixes of `task_depth` loops are enumerated and the
/// subtree under each is matched through
/// `match_from_prefix_with` — so a sink that makes per-prefix decisions
/// ([`MatchSink::accept_prefix`], e.g. sampling) sees the **same** prefix
/// stream sequentially as each parallel worker does collectively, and a
/// saturating sink ([`MatchSink::is_full`]) stops exploring further
/// subtrees.
pub fn match_embeddings_in<S: MatchSink>(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    task_depth: usize,
    sink: &mut S,
) {
    let n = plan.num_loops();
    if n == 0 {
        return;
    }
    let depth = task_depth.clamp(1, n);
    let mut buffers = SearchBuffers::new(n);
    let mut full = false;
    for_each_prefix(plan, ctx, depth, |prefix| {
        if full {
            return;
        }
        if !match_from_prefix_with(plan, ctx, prefix, &mut buffers, sink) {
            full = true;
        }
    });
}

/// Counts embeddings that extend a fixed prefix of bound vertices (the
/// values chosen by the first `prefix.len()` loops). Used by the parallel
/// and distributed executors, whose tasks are exactly such prefixes.
///
/// Allocates fresh scratch; the executors' workers hold a
/// `SearchBuffers` each and run the same kernel over it.
pub fn count_from_prefix<'a>(
    plan: &ExecutionPlan,
    ctx: impl Into<ExecCtx<'a>>,
    prefix: &[VertexId],
) -> u64 {
    let mut buffers = SearchBuffers::new(plan.num_loops());
    count_from_prefix_with(plan, ctx.into(), prefix, &mut buffers)
}

/// The kernel of [`count_from_prefix`] over the caller's reusable
/// [`SearchBuffers`]: [`match_from_prefix_with`] driving a [`CountSink`],
/// whose leaf is the size of the last window less the bound vertices in it.
pub(crate) fn count_from_prefix_with(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    prefix: &[VertexId],
    buffers: &mut SearchBuffers,
) -> u64 {
    let mut sink = CountSink::new();
    match_from_prefix_with(plan, ctx, prefix, buffers, &mut sink);
    sink.count()
}

/// The mode-generic matching entry point: explores every embedding that
/// extends `prefix` and feeds them to `sink` a leaf at a time. Consults
/// [`MatchSink::accept_prefix`] once for the task prefix (a rejected task
/// explores nothing) and stops early once [`MatchSink::is_full`] reports
/// saturation. Returns `false` when the search was cut short by a full
/// sink.
///
/// The prefix may have any length from 1 to the loop count: the ops of its
/// depths are replayed once, then the remaining loops are walked.
pub(crate) fn match_from_prefix_with<S: MatchSink>(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    prefix: &[VertexId],
    buffers: &mut SearchBuffers,
    sink: &mut S,
) -> bool {
    let n = plan.num_loops();
    assert!(prefix.len() <= n && !prefix.is_empty());
    if !sink.accept_prefix(prefix) {
        return true;
    }
    let mut leaf = SinkLeaf(sink);
    if prefix.len() == n {
        // Nothing to replay: a full-depth task is itself a leaf.
        return leaf.hit(prefix, &[]);
    }
    let walk = Walk::enumerate(plan, ctx, n);
    !walk.bind(prefix, buffers) || walk.descend(buffers, &mut leaf)
}

/// Enumerates every valid prefix of length `depth` (the values bound by the
/// first `depth` loops, with all restrictions and injectivity applied).
/// These prefixes are the fine-grained tasks of the distributed design
/// (Section IV-E: "the master thread executes the outer loops and packs the
/// values of the outer loops into a task").
pub fn enumerate_prefixes(
    plan: &ExecutionPlan,
    graph: &CsrGraph,
    depth: usize,
) -> Vec<Vec<VertexId>> {
    let mut result = Vec::new();
    for_each_prefix(plan, graph.into(), depth, |p| result.push(p.to_vec()));
    result
}

/// Streaming variant of [`enumerate_prefixes`]: invokes `visitor` once per
/// valid prefix without materialising the task list. This is what the
/// worker pool's submitting thread uses to feed workers in batches while
/// enumeration is still running.
///
/// Only the ops that feed the candidates of loops below `depth` run, so
/// whether a prefix is valid never depends on sets deeper loops would read.
pub(crate) fn for_each_prefix<F: FnMut(&[VertexId])>(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    depth: usize,
    visitor: F,
) {
    let n = plan.num_loops();
    assert!(depth >= 1 && depth <= n);
    let walk = Walk::enumerate(plan, ctx, depth);
    let mut buffers = SearchBuffers::new(n);
    let mut leaf = VisitLeaf(visitor);
    for v in ctx.graph.vertices() {
        if walk.bind(&[v], &mut buffers) {
            walk.descend(&mut buffers, &mut leaf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::schedule::Schedule;
    use graphpi_graph::hub::{HubGraph, HubOptions};
    use graphpi_graph::{builder::from_edges, generators};
    use graphpi_pattern::automorphism::automorphism_count;
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::{
        generate_restriction_sets, GenerationOptions, RestrictionSet,
    };

    fn plan_for(
        pattern: graphpi_pattern::Pattern,
        order: Vec<usize>,
        restrictions: RestrictionSet,
    ) -> ExecutionPlan {
        let schedule = Schedule::new(&pattern, order);
        Configuration::new(pattern, schedule, restrictions).compile()
    }

    #[test]
    fn triangle_counting_without_restrictions_overcounts_by_aut() {
        let g = generators::complete(5);
        let triangle = prefab::triangle();
        let plan = plan_for(triangle.clone(), vec![0, 1, 2], RestrictionSet::empty());
        // K5 has C(5,3) = 10 triangles; each is found |Aut| = 6 times.
        assert_eq!(count_embeddings(&plan, &g), 60);

        let sets = generate_restriction_sets(&triangle, GenerationOptions::default());
        let plan = plan_for(triangle, vec![0, 1, 2], sets[0].clone());
        assert_eq!(count_embeddings(&plan, &g), 10);
    }

    #[test]
    fn rectangle_on_known_graph() {
        // Two rectangles sharing an edge: 0-1-2-3-0 and 2-3-4-5-2.
        let g = from_edges(&[(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (2, 5)]);
        let rect = prefab::rectangle();
        let sets = generate_restriction_sets(&rect, GenerationOptions::default());
        let plan = plan_for(rect, vec![0, 1, 2, 3], sets[0].clone());
        assert_eq!(count_embeddings(&plan, &g), 2);
    }

    #[test]
    fn house_counts_match_across_all_restriction_sets_and_schedules() {
        let g = generators::power_law(150, 5, 21);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let schedules = crate::schedule::efficient_schedules(&house);
        let mut counts = std::collections::BTreeSet::new();
        for set in sets.iter().take(3) {
            for schedule in schedules.iter().take(5) {
                let plan =
                    Configuration::new(house.clone(), schedule.clone(), set.clone()).compile();
                counts.insert(count_embeddings(&plan, &g));
            }
        }
        assert_eq!(counts.len(), 1, "all configurations must agree: {counts:?}");
    }

    #[test]
    fn restricted_count_times_aut_equals_unrestricted() {
        let g = generators::erdos_renyi(80, 600, 9);
        for pattern in [prefab::triangle(), prefab::rectangle(), prefab::house()] {
            let aut = automorphism_count(&pattern) as u64;
            let order: Vec<usize> = (0..pattern.num_vertices()).collect();
            let unrestricted = count_embeddings(
                &plan_for(pattern.clone(), order.clone(), RestrictionSet::empty()),
                &g,
            );
            let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
            let restricted = count_embeddings(&plan_for(pattern, order, sets[0].clone()), &g);
            assert_eq!(restricted * aut, unrestricted);
        }
    }

    #[test]
    fn listing_respects_pattern_structure() {
        let g = generators::erdos_renyi(40, 200, 5);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let plan = plan_for(house.clone(), vec![0, 1, 2, 3, 4], sets[0].clone());
        let embeddings = list_embeddings(&plan, &g);
        assert_eq!(embeddings.len() as u64, count_embeddings(&plan, &g));
        for emb in &embeddings {
            // Every pattern edge must exist between the mapped data vertices.
            for (u, v) in house.edges() {
                assert!(g.has_edge(emb[u], emb[v]), "missing edge for {emb:?}");
            }
            // Injective mapping.
            let mut distinct = emb.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), emb.len());
        }
    }

    #[test]
    fn prefix_counting_partitions_total() {
        let g = generators::power_law(200, 5, 33);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let plan = plan_for(house, vec![0, 1, 2, 3, 4], sets[0].clone());
        let total = count_embeddings(&plan, &g);
        for depth in 1..=plan.num_loops() {
            let prefixes = enumerate_prefixes(&plan, &g, depth);
            let sum: u64 = prefixes
                .iter()
                .map(|p| count_from_prefix(&plan, &g, p))
                .sum();
            assert_eq!(sum, total, "prefix depth {depth}");
        }
    }

    #[test]
    fn reused_buffers_match_fresh_buffers() {
        let g = generators::power_law(150, 5, 7);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let plan = plan_for(house, vec![0, 1, 2, 3, 4], sets[0].clone());
        let prefixes = enumerate_prefixes(&plan, &g, 2);
        let ctx = ExecCtx::from(&g);
        let mut buffers = SearchBuffers::new(plan.num_loops());
        for p in prefixes.iter().take(50) {
            assert_eq!(
                count_from_prefix_with(&plan, ctx, p, &mut buffers),
                count_from_prefix(&plan, &g, p),
            );
        }
    }

    #[test]
    fn streaming_prefixes_match_materialised() {
        let g = generators::power_law(120, 5, 17);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let plan = plan_for(house, vec![0, 1, 2, 3, 4], sets[0].clone());
        for depth in 1..=3 {
            let materialised = enumerate_prefixes(&plan, &g, depth);
            let mut streamed = Vec::new();
            for_each_prefix(&plan, ExecCtx::from(&g), depth, |p| {
                streamed.push(p.to_vec())
            });
            assert_eq!(streamed, materialised, "depth {depth}");
        }
    }

    #[test]
    fn hub_context_counts_match_plain() {
        let g = generators::power_law(180, 5, 99);
        let hubs = HubGraph::build(
            &g,
            HubOptions {
                max_hubs: 32,
                min_degree: 4,
            },
        );
        for (name, pattern) in prefab::evaluation_patterns() {
            let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
            let schedules = crate::schedule::efficient_schedules(&pattern);
            let plan = Configuration::new(pattern, schedules[0].clone(), sets[0].clone()).compile();
            assert_eq!(
                count_embeddings(&plan, (&g, &hubs)),
                count_embeddings(&plan, &g),
                "{name}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "paired with a graph it was not built over")]
    fn pairing_one_graphs_hub_rows_with_another_graph_panics() {
        let hubs = HubGraph::build(&generators::power_law(180, 5, 99), HubOptions::default());
        let other = generators::power_law(200, 5, 99);
        let plan = plan_for(prefab::triangle(), vec![0, 1, 2], RestrictionSet::empty());
        count_embeddings(&plan, (&other, &hubs));
    }

    #[test]
    fn single_vertex_and_edge_patterns() {
        let g = generators::erdos_renyi(30, 100, 1);
        let single = graphpi_pattern::Pattern::empty(1);
        let plan = plan_for(single, vec![0], RestrictionSet::empty());
        assert_eq!(count_embeddings(&plan, &g), 30);

        let edge = graphpi_pattern::Pattern::new(2, &[(0, 1)]);
        let sets = generate_restriction_sets(&edge, GenerationOptions::default());
        let plan = plan_for(edge, vec![0, 1], sets[0].clone());
        assert_eq!(count_embeddings(&plan, &g), 100);
    }

    #[test]
    fn empty_graph_yields_zero() {
        let g = graphpi_graph::GraphBuilder::new().num_vertices(10).build();
        let plan = plan_for(prefab::triangle(), vec![0, 1, 2], RestrictionSet::empty());
        assert_eq!(count_embeddings(&plan, &g), 0);
    }

    #[test]
    fn embed_sink_matches_listing() {
        use crate::exec::sink::EmbedSink;
        let g = generators::erdos_renyi(50, 260, 6);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let plan = plan_for(house, vec![0, 1, 2, 3, 4], sets[0].clone());
        let total = count_embeddings(&plan, &g);
        let mut sink = EmbedSink::new(plan.num_loops(), u64::MAX);
        match_embeddings_in(&plan, ExecCtx::from(&g), 2, &mut sink);
        assert_eq!(sink.len(), total);
        // A limit stops the search early with exactly `limit` embeddings.
        let limit = (total / 2).max(1);
        let mut sink = EmbedSink::new(plan.num_loops(), limit);
        match_embeddings_in(&plan, ExecCtx::from(&g), 2, &mut sink);
        assert_eq!(sink.len(), limit.min(total));
    }

    #[test]
    fn orbit_sink_sums_to_pattern_size_times_count() {
        use crate::exec::sink::OrbitSink;
        let g = generators::power_law(120, 5, 8);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let plan = plan_for(house, vec![0, 1, 2, 3, 4], sets[0].clone());
        let total = count_embeddings(&plan, &g);
        let mut sink = OrbitSink::new(g.num_vertices());
        match_embeddings_in(&plan, ExecCtx::from(&g), 2, &mut sink);
        let sum: u64 = sink.counts().iter().sum();
        assert_eq!(sum, 5 * total);
    }

    #[test]
    fn sample_sink_at_rate_one_is_exact() {
        use crate::exec::sink::SampleSink;
        let g = generators::power_law(120, 5, 19);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let plan = plan_for(house, vec![0, 1, 2, 3, 4], sets[0].clone());
        let total = count_embeddings(&plan, &g);
        let mut sink = SampleSink::new(99, 1.0);
        match_embeddings_in(&plan, ExecCtx::from(&g), 2, &mut sink);
        let est = sink.finish().estimate(1.0);
        assert_eq!(est.estimate, total as f64);
        assert_eq!(est.stderr, 0.0);
    }

    #[test]
    fn parentless_inner_loops_scan_every_vertex() {
        // C, D, E first: E is adjacent to neither, so its loop has no bound
        // parent (a schedule phase 1 eliminates; Figure 9 still runs them).
        let g = generators::power_law(60, 4, 23);
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        let efficient = plan_for(house.clone(), vec![0, 1, 2, 3, 4], sets[0].clone());
        let scanning = plan_for(house, vec![2, 3, 4, 0, 1], sets[0].clone());
        assert!(scanning.loops[2].parents.is_empty());
        assert_eq!(
            count_embeddings(&scanning, &g),
            count_embeddings(&efficient, &g)
        );
        let prefixes = enumerate_prefixes(&scanning, &g, 3);
        let sum: u64 = prefixes
            .iter()
            .map(|p| count_from_prefix(&scanning, &g, p))
            .sum();
        assert_eq!(sum, count_embeddings(&efficient, &g));
    }

    #[test]
    fn crossed_bounds_leave_an_empty_window() {
        // id(A) > id(C) > id(B) bounds C's loop from both sides; wherever
        // the bound A is the smaller of the two the window is crossed.
        let g = generators::erdos_renyi(60, 400, 11);
        let restrictions = RestrictionSet::from_pairs(&[(0, 2), (2, 1)]);
        let plan = plan_for(prefab::triangle(), vec![0, 1, 2], restrictions);
        assert_eq!(
            count_embeddings(&plan, &g),
            graphpi_graph::triangles::count_triangles(&g)
        );
    }

    #[test]
    fn prefixes_do_not_depend_on_deeper_sets() {
        // (v0, v1) is a task whether or not N(v0) ∩ N(v1), which only loop
        // 3 reads, is empty: the task set is the candidate windows alone.
        let g = generators::path(6);
        let plan = plan_for(prefab::clique(4), vec![0, 1, 2, 3], RestrictionSet::empty());
        assert_eq!(enumerate_prefixes(&plan, &g, 2).len(), 10);
        assert_eq!(enumerate_prefixes(&plan, &g, 3).len(), 0);
        assert_eq!(count_embeddings(&plan, &g), 0);
    }

    #[test]
    fn lower_bound_restrictions_also_work() {
        // Use the reversed restriction id(B) > id(A): candidates for B must
        // be greater than the bound value of A. Counts must still be exact.
        let g = generators::erdos_renyi(60, 300, 8);
        let edge = graphpi_pattern::Pattern::new(2, &[(0, 1)]);
        let reversed = RestrictionSet::from_pairs(&[(1, 0)]);
        let plan = plan_for(edge, vec![0, 1], reversed);
        assert_eq!(count_embeddings(&plan, &g), 300);
    }
}
