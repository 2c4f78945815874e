//! Configurations and compiled execution plans.
//!
//! A *configuration* (Section IV-C) is the combination of a schedule and a
//! restriction set for a pattern. The matching engine does not interpret a
//! configuration directly: it is first *compiled* into an [`ExecutionPlan`],
//! which resolves, for every loop position,
//!
//! * which earlier loops provide the neighborhoods to intersect (the
//!   *parents*),
//! * which restrictions become checkable at that loop and in which
//!   direction they bound the candidate (break-above vs. skip-below), and
//! * whether the loop belongs to the independent suffix usable by IEP.
//!
//! This mirrors the role of AutoMine-style code generation in the paper; the
//! plan is the in-memory equivalent of the generated nested-loop program and
//! [`crate::codegen`] can render it back to source text.

use crate::exec::setprog::SetProgram;
use crate::schedule::Schedule;
use graphpi_pattern::automorphism::automorphism_group;
use graphpi_pattern::orders::OrderTable;
use graphpi_pattern::pattern::{Pattern, PatternVertex};
use graphpi_pattern::permutation::Permutation;
use graphpi_pattern::restriction::RestrictionSet;
use std::sync::OnceLock;

/// Hard cap on the number of loops a compiled plan can have (one loop per
/// pattern vertex; the planner rejects larger patterns — see
/// [`crate::engine::MAX_PATTERN_VERTICES`]).
///
/// The execution hot path relies on this bound to keep per-task state on
/// the stack: the parallel executor's prefix tasks are inline
/// `[VertexId; MAX_LOOPS]` arrays and the matching kernel's parent lists
/// are fixed-size arrays, so the worker loop performs no per-task heap
/// allocation.
pub(crate) const MAX_LOOPS: usize = 8;

/// Options for the long-lived serving path: the persistent
/// [`crate::exec::pool::WorkerPool`] and the compiled-plan cache behind a
/// [`crate::engine::Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolOptions {
    /// Number of persistent worker threads (0 = all available cores). Fixed
    /// at pool construction; per-call thread overrides are ignored by the
    /// pool.
    pub threads: usize,
    /// Capacity of the compiled-plan LRU cache, in plans. A capacity of 0
    /// disables caching (every query re-plans).
    pub cache_capacity: usize,
    /// Maximum number of jobs the pool keeps in flight simultaneously
    /// (0 = automatic: `max(threads, 2)`). Submitting threads beyond the
    /// limit block until a running job completes — that blocking is the
    /// pool's backpressure, bounding queue memory and scheduling overhead
    /// under unbounded client fan-in.
    pub max_in_flight: usize,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            cache_capacity: 64,
            max_in_flight: 0,
        }
    }
}

/// Options for the network serving layer ([`crate::net::server::Server`]):
/// the session resources plus the server's own limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker pool + plan cache configuration for the served session.
    pub pool: PoolOptions,
    /// Maximum simultaneously connected clients (0 = unlimited). Excess
    /// connections are answered with a typed `TooManyConnections` error
    /// and closed.
    pub max_connections: usize,
    /// Per-connection read timeout: the poll granularity at which idle
    /// connection handlers notice a drain. Also the stall bound — a peer
    /// that goes quiet *mid-frame* for longer than this is cut off
    /// (anti-slowloris), while a peer idle *between* frames just keeps
    /// the connection open.
    pub read_timeout: std::time::Duration,
    /// Admission wait-queue bound: queries beyond it are shed with a
    /// typed `RetryLater` + retry-after hint instead of queueing
    /// unboundedly (0 = auto: `max(16, 4 × max_in_flight)`).
    pub max_queue_depth: usize,
    /// Checkpoint the WAL and compact the delta overlay this often on a
    /// dedicated maintenance thread, keeping both off the committing
    /// thread (`None` = only the size-triggered inline checkpoint).
    /// Ignored unless the server serves a durable dynamic engine.
    pub checkpoint_interval: Option<std::time::Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            pool: PoolOptions::default(),
            max_connections: 64,
            read_timeout: std::time::Duration::from_millis(50),
            max_queue_depth: 0,
            checkpoint_interval: None,
        }
    }
}

/// A schedule paired with a restriction set for a specific pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    /// The pattern this configuration searches for.
    pub pattern: Pattern,
    /// The vertex search order.
    pub schedule: Schedule,
    /// The symmetry-breaking restrictions (over pattern vertex indices).
    pub restrictions: RestrictionSet,
}

impl Configuration {
    /// Bundles a pattern, schedule and restriction set.
    pub fn new(pattern: Pattern, schedule: Schedule, restrictions: RestrictionSet) -> Self {
        assert_eq!(
            pattern.num_vertices(),
            schedule.len(),
            "schedule size must match pattern size"
        );
        Self {
            pattern,
            schedule,
            restrictions,
        }
    }

    /// Compiles the configuration into an executable plan.
    pub fn compile(&self) -> ExecutionPlan {
        self.compile_with_iep(true)
    }

    /// Compiles the configuration, optionally disabling IEP counting.
    ///
    /// IEP only makes sense when the job reduces to a single number:
    /// execution modes that must *visit* every embedding (enumeration,
    /// per-vertex counts, sampling the match stream) need a plan whose
    /// loops run to full depth. With `enable_iep = false` the compiled plan
    /// carries an empty independent suffix and a no-op correction, so every
    /// executor treats it as a plain enumerate-everything program.
    pub fn compile_with_iep(&self, enable_iep: bool) -> ExecutionPlan {
        self.compile_with_correction(enable_iep.then(|| {
            let k = self.schedule.independent_suffix_len(&self.pattern);
            let outer = &self.schedule.order()[..self.schedule.len() - k];
            iep_correction(
                OrderTable::for_size(self.schedule.len()),
                &automorphism_group(&self.pattern),
                &self.restrictions.restricted_to(outer),
            )
        }))
    }

    /// [`Self::compile_with_iep`] for a caller that already holds this
    /// configuration's [`iep_correction`] (the planner, which ranked on it);
    /// `None` compiles without IEP.
    pub(crate) fn compile_with_correction(
        &self,
        iep_correction: Option<IepCorrection>,
    ) -> ExecutionPlan {
        let (iep_suffix_len, iep_correction) = match iep_correction {
            Some(correction) => (
                self.schedule.independent_suffix_len(&self.pattern),
                correction,
            ),
            None => (0, IepCorrection::DividePrefixRestricted { divisor: 1 }),
        };
        ExecutionPlan {
            config: self.clone(),
            loops: compile_loops(&self.pattern, &self.schedule, &self.restrictions),
            iep_suffix_len,
            iep_correction,
            program: OnceLock::new(),
        }
    }
}

/// A restriction bound that applies at a given loop.
///
/// Restrictions compare data-graph ids of two pattern vertices; the engine
/// enforces each restriction at the loop of whichever endpoint is scheduled
/// later, at which point the other endpoint's id is already fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopBound {
    /// The candidate must be **smaller** than the value bound at the given
    /// earlier loop position (`id(earlier) > id(current)`). Because
    /// candidate sets are sorted ascending, the loop can `break` as soon as
    /// a candidate reaches the bound — this is the `if id(vA) <= id(vB)
    /// break` statement in the paper's generated code.
    LessThanValueAt(usize),
    /// The candidate must be **greater** than the value bound at the given
    /// earlier loop position (`id(current) > id(earlier)`); smaller
    /// candidates are skipped.
    GreaterThanValueAt(usize),
}

/// Per-loop compiled information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopPlan {
    /// The pattern vertex bound by this loop.
    pub pattern_vertex: PatternVertex,
    /// Loop positions (all `<` this loop's position) whose bound vertices'
    /// neighborhoods are intersected to form this loop's candidate set.
    /// Empty only for the first loop, which iterates over all data vertices.
    pub parents: Vec<usize>,
    /// Restriction bounds enforced while iterating this loop.
    pub bounds: Vec<LoopBound>,
}

/// How IEP counting corrects for the restrictions it drops (Section IV-D).
///
/// Replacing the innermost `k` loops with an inclusion–exclusion computation
/// discards every restriction enforced in those loops, so the grand total
/// over-counts each distinct subgraph by the number of its automorphic
/// embeddings that satisfy the *remaining* (outer-loop) restrictions. The
/// paper divides by that factor. The division is exact only when the factor
/// is the same for every subgraph; the compiler verifies this over all
/// relative orders of the pattern vertices' ids. The multiplicity is
/// **not** always uniform, even among the configurations GraphPi's own
/// generator produces (the cost model's unconstrained pick for the prism P6
/// is one), so the planner ranks IEP plans with the correction in hand
/// ([`crate::perf_model::select_best_iep`]) and never picks a non-uniform
/// candidate while a uniform one exists. A hand-built non-uniform plan has
/// no IEP leaf (`SetProgram::iep`): every executor enumerates it, which
/// is always exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IepCorrection {
    /// Keep the outer-loop restrictions and divide the IEP total by this
    /// uniform per-subgraph multiplicity.
    DividePrefixRestricted {
        /// The uniform multiplicity (≥ 1).
        divisor: u64,
    },
    /// The multiplicity differs between subgraphs: only dropping every
    /// restriction (and dividing by `|Aut|`) would make IEP exact, so IEP
    /// does not run this plan.
    DivideUnrestricted {
        /// The pattern's automorphism count.
        divisor: u64,
    },
}

impl IepCorrection {
    /// The divisor applied to the IEP grand total.
    pub fn divisor(&self) -> u64 {
        match *self {
            IepCorrection::DividePrefixRestricted { divisor } => divisor,
            IepCorrection::DivideUnrestricted { divisor } => divisor,
        }
    }
}

/// A fully resolved nested-loop program for one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionPlan {
    /// The source configuration.
    pub config: Configuration,
    /// One entry per loop, outermost first.
    pub loops: Vec<LoopPlan>,
    /// Length of the trailing run of loops whose pattern vertices are
    /// pairwise non-adjacent — the `k` usable by IEP counting for this plan.
    pub iep_suffix_len: usize,
    /// How IEP counting must correct for the restrictions it drops.
    pub iep_correction: IepCorrection,
    /// The hoisted set program every executor runs, lowered from the fields
    /// above on first use (the planner forces it for the configuration it
    /// selects, so ranking the others never pays for it).
    program: OnceLock<SetProgram>,
}

impl ExecutionPlan {
    /// Number of loops (= pattern vertices).
    pub fn num_loops(&self) -> usize {
        self.loops.len()
    }

    /// The plan's set program, lowered at most once.
    pub(crate) fn program(&self) -> &SetProgram {
        self.program.get_or_init(|| SetProgram::lower(self))
    }
}

/// Resolves each loop's parents and restriction bounds — the part of
/// compilation the cost model ranks candidates on.
pub(crate) fn compile_loops(
    pattern: &Pattern,
    schedule: &Schedule,
    restrictions: &RestrictionSet,
) -> Vec<LoopPlan> {
    let order = schedule.order();
    let n = order.len();
    assert!(
        n <= MAX_LOOPS,
        "plans are limited to {MAX_LOOPS} loops (got {n})"
    );
    let mut loops: Vec<LoopPlan> = (0..n)
        .map(|i| LoopPlan {
            pattern_vertex: order[i],
            parents: (0..i)
                .filter(|&j| pattern.has_edge(order[j], order[i]))
                .collect(),
            bounds: Vec::new(),
        })
        .collect();
    for r in restrictions.restrictions() {
        let pg = schedule.position_of(r.greater);
        let ps = schedule.position_of(r.smaller);
        // Enforced at whichever endpoint binds later, against the other.
        if ps > pg {
            loops[ps].bounds.push(LoopBound::LessThanValueAt(pg));
        } else {
            loops[pg].bounds.push(LoopBound::GreaterThanValueAt(ps));
        }
    }
    loops
}

/// Determines the IEP over-counting correction (Section IV-D), given the
/// restrictions `remaining` once those enforced in the suffix loops are
/// dropped: the ones whose endpoints both lie in the outer loops.
///
/// For each possible relative order `π` of the data ids assigned to the
/// pattern vertices, the per-subgraph multiplicity is the number of
/// automorphisms `σ` for which `π ∘ σ` satisfies the remaining restrictions.
/// If that multiplicity is the same for every `π`, dividing the IEP total by
/// it is exact.
///
/// The orders `π` for which a given `σ` qualifies are the AND of one
/// [`OrderTable`] bitset per restriction, so a word of the table settles 64
/// orders at once: the qualifying sets of every `σ` are summed into a
/// bit-sliced counter, and the multiplicity is uniform iff every counter bit
/// reads the same across all orders.
pub(crate) fn iep_correction(
    orders: &OrderTable,
    auts: &[Permutation],
    remaining: &RestrictionSet,
) -> IepCorrection {
    let aut_count = auts.len() as u64;
    if remaining.is_empty() {
        // No restrictions survive: every automorphic copy is counted.
        return IepCorrection::DividePrefixRestricted { divisor: aut_count };
    }
    let non_uniform = IepCorrection::DivideUnrestricted { divisor: aut_count };
    let mut multiplicity: Option<u64> = None;
    for (w, &every_order) in orders.all().iter().enumerate() {
        // `count[i]` holds bit `i` of each order's multiplicity; at most
        // 8! automorphisms are added, so sixteen bits never overflow.
        let mut count = [0u64; 16];
        for sigma in auts {
            let mut carry = remaining
                .restrictions()
                .iter()
                .fold(every_order, |kept, r| {
                    kept & orders.greater(sigma.apply(r.greater), sigma.apply(r.smaller))[w]
                });
            for bit in &mut count {
                if carry == 0 {
                    break;
                }
                (*bit, carry) = (*bit ^ carry, *bit & carry);
            }
        }
        let mut m = 0u64;
        for (i, &bit) in count.iter().enumerate() {
            if bit == every_order {
                m |= 1 << i;
            } else if bit != 0 {
                return non_uniform;
            }
        }
        if *multiplicity.get_or_insert(m) != m {
            return non_uniform;
        }
    }
    IepCorrection::DividePrefixRestricted {
        divisor: multiplicity.unwrap_or(aut_count).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::RestrictionSet;

    /// The paper's House configuration: schedule A,B,C,D,E with the single
    /// restriction id(A) > id(B).
    fn paper_house_config() -> Configuration {
        let pattern = prefab::house();
        let schedule = Schedule::new(&pattern, vec![0, 1, 2, 3, 4]);
        let restrictions = RestrictionSet::from_pairs(&[(0, 1)]);
        Configuration::new(pattern, schedule, restrictions)
    }

    #[test]
    fn house_plan_matches_figure_5() {
        let plan = paper_house_config().compile();
        assert_eq!(plan.num_loops(), 5);
        // Loop 0 (A): no parents, no bounds.
        assert!(plan.loops[0].parents.is_empty());
        assert!(plan.loops[0].bounds.is_empty());
        // Loop 1 (B): parent A, and the id(A) > id(B) restriction becomes a
        // break-above bound referencing loop 0.
        assert_eq!(plan.loops[1].parents, vec![0]);
        assert_eq!(plan.loops[1].bounds, vec![LoopBound::LessThanValueAt(0)]);
        // Loop 2 (C): parent A only.
        assert_eq!(plan.loops[2].parents, vec![0]);
        // Loop 3 (D): parents B and C.
        assert_eq!(plan.loops[3].parents, vec![1, 2]);
        // Loop 4 (E): parents A and B.
        assert_eq!(plan.loops[4].parents, vec![0, 1]);
        // D and E are the independent suffix (k = 2).
        assert_eq!(plan.iep_suffix_len, 2);
        // Dropping the restriction-free suffix keeps id(A) > id(B), which
        // eliminates the single non-identity automorphism: divisor 1.
        assert_eq!(
            plan.iep_correction,
            IepCorrection::DividePrefixRestricted { divisor: 1 }
        );
    }

    #[test]
    fn reversed_restriction_becomes_lower_bound() {
        let pattern = prefab::house();
        let schedule = Schedule::new(&pattern, vec![0, 1, 2, 3, 4]);
        // id(B) > id(A): enforced at B's loop as a skip-below bound.
        let restrictions = RestrictionSet::from_pairs(&[(1, 0)]);
        let plan = Configuration::new(pattern, schedule, restrictions).compile();
        assert_eq!(plan.loops[1].bounds, vec![LoopBound::GreaterThanValueAt(0)]);
    }

    #[test]
    fn iep_correction_counts_lost_symmetry() {
        // House with no restrictions at all: both automorphisms survive.
        let pattern = prefab::house();
        let schedule = Schedule::new(&pattern, vec![0, 1, 2, 3, 4]);
        let plan = Configuration::new(pattern, schedule, RestrictionSet::empty()).compile();
        assert_eq!(
            plan.iep_correction,
            IepCorrection::DividePrefixRestricted { divisor: 2 }
        );

        // Rectangle with a complete restriction set but a schedule whose
        // independent suffix swallows some restrictions: the divisor grows
        // but stays well defined.
        let rect = prefab::rectangle();
        let schedule = Schedule::new(&rect, vec![0, 1, 2, 3]);
        let restrictions = RestrictionSet::from_pairs(&[(0, 1), (0, 2), (1, 3)]);
        let plan = Configuration::new(rect, schedule, restrictions).compile();
        // The 4-cycle schedule 0,1,2,3 ends with two adjacent vertices, so
        // the usable suffix is 1 and only restrictions touching vertex 3 are
        // dropped.
        assert_eq!(plan.iep_suffix_len, 1);
        assert!(plan.iep_correction.divisor() >= 1);
    }

    #[test]
    fn non_uniform_prefix_restrictions_fall_back() {
        // Path A-B-C with the single restriction id(A) > id(B) and suffix
        // {C}: depending on whether B has the smallest id, either one or two
        // automorphic copies satisfy the remaining restriction, so the exact
        // division is impossible and the plan must fall back to the
        // unrestricted correction.
        let path = prefab::path_pattern(3);
        let schedule = Schedule::new(&path, vec![0, 1, 2]);
        let restrictions = RestrictionSet::from_pairs(&[(0, 1)]);
        let plan = Configuration::new(path, schedule, restrictions).compile();
        assert_eq!(
            plan.iep_correction,
            IepCorrection::DivideUnrestricted { divisor: 2 }
        );
    }

    #[test]
    fn compile_with_iep_disabled_clears_the_suffix() {
        let config = paper_house_config();
        let plan = config.compile_with_iep(false);
        assert_eq!(plan.iep_suffix_len, 0);
        assert_eq!(plan.iep_correction.divisor(), 1);
        // The loop program itself is untouched.
        assert_eq!(plan.loops, config.compile().loops);
        // And enabling IEP is identical to the plain compile.
        assert_eq!(config.compile_with_iep(true), config.compile());
    }

    #[test]
    #[should_panic]
    fn mismatched_schedule_rejected() {
        let pattern = prefab::triangle();
        let schedule = Schedule::new(&prefab::rectangle(), vec![0, 1, 2, 3]);
        let _ = Configuration::new(pattern, schedule, RestrictionSet::empty());
    }

    #[test]
    fn unrestricted_plan_divides_by_full_group() {
        // P2 (double star) with no restrictions: the IEP divisor is the full
        // automorphism count (8) and the four leaves form the suffix.
        let p = prefab::p2();
        let schedule = Schedule::new(&p, vec![0, 1, 2, 3, 4, 5]);
        let plan = Configuration::new(p, schedule, RestrictionSet::empty()).compile();
        assert_eq!(plan.iep_suffix_len, 4);
        assert_eq!(
            plan.iep_correction,
            IepCorrection::DividePrefixRestricted { divisor: 8 }
        );
    }
}
