//! Embedding counting with the Inclusion-Exclusion Principle
//! (Section IV-D and Algorithm 2 of the paper).
//!
//! When only the *number* of embeddings is needed and the last `k` scheduled
//! pattern vertices are pairwise non-adjacent, the innermost `k` loops never
//! perform intersections — they only enumerate. Instead of enumerating,
//! GraphPi computes, for every binding of the outer `n - k` loops, the
//! number of ways to choose `k` pairwise-distinct vertices
//! `(e_1, …, e_k)` with `e_i ∈ S_i`, where `S_i` is the candidate set of the
//! `i`-th suffix vertex. That number is obtained by inclusion–exclusion over
//! the "some entries equal" events: summed over the set partitions of the
//! `k` positions with the Möbius coefficient of each partition, the product
//! over its blocks of `|∩_{i ∈ block} S_i|`.
//!
//! Nothing here builds a set. The plan's
//! `SetProgram` already contains an op
//! for every block intersection — each is `∩ N(v_p)` over the union of its
//! members' parents, so coinciding blocks share one slot — hoisted to the
//! loop of its last parent, and the partition sum is the precomputed
//! `IepTable`. The leaf reads slot cardinalities, takes out the bound
//! prefix vertices with adjacency probes, and evaluates the table.
//!
//! Restrictions enforced in the suffix loops are dropped by this
//! transformation, so the grand total over-counts by the number of pattern
//! automorphisms the *remaining* restrictions fail to eliminate; the final
//! count is divided by that factor
//! ([`IepCorrection`](crate::config::IepCorrection)).
//!
//! The table is built from `k = 2` up. At `k = 1` the same idea needs none
//! of it: the one suffix set is the last loop's candidate window with its
//! restriction bounds still applied, so every walk that reaches full depth
//! ends in that set instead of a loop over it
//! ([`MatchSink::on_leaf`](crate::exec::sink::MatchSink::on_leaf)) and a
//! count adds its size — exact, with no divisor.

use crate::config::ExecutionPlan;
use crate::exec::interp::{self, ExecCtx, Leaf, SearchBuffers, Walk};
use crate::exec::setprog::{IepTable, Operand};
use graphpi_graph::csr::VertexId;

/// Counts embeddings using IEP over the innermost `plan.iep_suffix_len`
/// loops. Falls back to [`interp::count_embeddings`] when the plan has no
/// IEP table: the suffix is shorter than 2 (the table's `k = 1` case is the
/// set-valued leaf every enumeration already ends in — the last window's
/// size, no restriction dropped, nothing to divide — so there is no table
/// to build), there is no outer loop, or the over-count is not uniform.
pub fn count_embeddings_iep<'a>(plan: &ExecutionPlan, ctx: impl Into<ExecCtx<'a>>) -> u64 {
    let ctx = ctx.into();
    if plan.program().iep().is_none() {
        return interp::count_embeddings(plan, ctx);
    }
    let mut buffers = SearchBuffers::new(plan.num_loops());
    let total: u64 = ctx
        .graph()
        .vertices()
        .map(|v| iep_term_with(plan, ctx, &[v], &mut buffers))
        .sum();
    total / plan.iep_correction.divisor()
}

/// Counts embeddings (before dividing by the redundancy factor) contributed
/// by a single outer-loop prefix. Exposed for the parallel executor.
///
/// Allocates fresh scratch; the executors' workers hold a
/// `SearchBuffers` each and run the same kernel over it.
pub fn iep_term<'a>(plan: &ExecutionPlan, ctx: impl Into<ExecCtx<'a>>, prefix: &[VertexId]) -> u64 {
    let mut buffers = SearchBuffers::new(plan.num_loops());
    iep_term_with(plan, ctx.into(), prefix, &mut buffers)
}

/// The kernel of [`iep_term`] over the caller's reusable [`SearchBuffers`].
///
/// `prefix` binds the first `1..=n-k` loops: its ops are replayed, the
/// remaining outer loops are walked, and the leaf fires under each binding.
///
/// # Panics
/// Panics if the plan has no IEP leaf ([`SetProgram::iep`]) or the prefix
/// reaches into the suffix.
///
/// [`SetProgram::iep`]: crate::exec::setprog::SetProgram::iep
pub(crate) fn iep_term_with(
    plan: &ExecutionPlan,
    ctx: ExecCtx<'_>,
    prefix: &[VertexId],
    buffers: &mut SearchBuffers,
) -> u64 {
    let table = plan.program().iep().expect("plan has an IEP leaf");
    assert!(!prefix.is_empty() && prefix.len() <= table.outer);
    let walk = Walk::iep(plan, ctx, table.outer);
    if !walk.bind(prefix, buffers) {
        return 0;
    }
    let mut leaf = IepLeaf {
        table,
        ctx,
        cards: std::mem::take(&mut buffers.cards),
        total: 0,
    };
    walk.descend(buffers, &mut leaf);
    buffers.cards = leaf.cards;
    leaf.total
}

/// Evaluates the plan's [`IepTable`] under every full outer binding.
struct IepLeaf<'a> {
    table: &'a IepTable,
    ctx: ExecCtx<'a>,
    cards: Vec<u64>,
    total: u64,
}

impl Leaf for IepLeaf<'_> {
    fn hit(&mut self, bound: &[VertexId], counts: &[usize]) -> bool {
        let graph = self.ctx.graph();
        self.cards.clear();
        self.cards.extend(self.table.sets.iter().map(|set| {
            let unreduced = match set.source {
                Operand::All => graph.num_vertices(),
                Operand::Adj(p) => graph.degree(bound[p as usize]),
                Operand::Slot(s) => counts[s as usize],
            };
            // A candidate equal to a bound vertex is no candidate: take out
            // the bound vertices that are inside the set.
            let inside = set.probes.iter().filter(|&&(q, probes)| {
                (0..bound.len())
                    .filter(|p| probes & (1 << p) != 0)
                    .all(|p| self.ctx.adjacent(bound[q as usize], bound[p]))
            });
            unreduced as u64 - set.sure - inside.count() as u64
        }));
        self.total += evaluate(self.table, &self.cards);
        true
    }
}

/// `Σ coeff × Π cards[factor]` over the table's terms, in wrapping
/// arithmetic: the sum is a count, so it is exact modulo 2⁶⁴ however large
/// the alternating terms grow.
fn evaluate(table: &IepTable, cards: &[u64]) -> u64 {
    table.terms.iter().fold(0u64, |sum, term| {
        let product = term.factors.iter().fold(term.coeff as u64, |product, &f| {
            product.wrapping_mul(cards[f as usize])
        });
        sum.wrapping_add(product)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::exec::setprog::{block_coefficient, for_each_partition};
    use crate::schedule::{efficient_schedules, Schedule};
    use graphpi_graph::generators;
    use graphpi_graph::hub::{HubGraph, HubOptions};
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::{
        generate_restriction_sets, GenerationOptions, RestrictionSet,
    };

    /// Number of ordered tuples `(e_1, …, e_k)` with `e_i ∈ sets[i]` and all
    /// entries pairwise distinct: the partition sum of the module docs over
    /// explicit sets. The reference the plan-level tables are checked against.
    fn count_distinct_tuples(sets: &[Vec<VertexId>]) -> u64 {
        let k = sets.len();
        assert!(k >= 1, "need at least one candidate set");
        let mut total = 0i128;
        for_each_partition(k, |blocks| {
            total += blocks
                .iter()
                .map(|block| {
                    let members: Vec<&[VertexId]> = block.iter().map(|&i| &sets[i][..]).collect();
                    let common = graphpi_graph::vertex_set::intersect_many(&members).len();
                    block_coefficient(block.len()) as i128 * common as i128
                })
                .product::<i128>();
        });
        total as u64
    }

    #[test]
    fn distinct_tuple_counting_small_cases() {
        // Two disjoint sets: all pairs are distinct.
        assert_eq!(count_distinct_tuples(&[vec![1, 2], vec![3, 4]]), 4);
        // Identical sets of size 3: ordered pairs with distinct entries = 6.
        assert_eq!(count_distinct_tuples(&[vec![1, 2, 3], vec![1, 2, 3]]), 6);
        // Three identical sets of size 3: 3! = 6.
        assert_eq!(
            count_distinct_tuples(&[vec![1, 2, 3], vec![1, 2, 3], vec![1, 2, 3]]),
            6
        );
        // A singleton repeated twice cannot produce distinct entries.
        assert_eq!(count_distinct_tuples(&[vec![7], vec![7]]), 0);
        // Single set: its size.
        assert_eq!(count_distinct_tuples(&[vec![1, 2, 3, 4]]), 4);
        // Empty set anywhere: zero.
        assert_eq!(count_distinct_tuples(&[vec![], vec![1, 2]]), 0);
    }

    #[test]
    fn distinct_tuple_counting_matches_bruteforce() {
        // Randomised cross-check against explicit enumeration.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..80 {
            let k = rng.gen_range(2..=5usize);
            let sets: Vec<Vec<VertexId>> = (0..k)
                .map(|_| {
                    let mut s: Vec<VertexId> = (0..rng.gen_range(0..8u32))
                        .filter(|_| rng.gen_bool(0.6))
                        .collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect();
            let expected = brute_force_distinct(&sets);
            assert_eq!(count_distinct_tuples(&sets), expected, "sets {sets:?}");
        }
    }

    fn brute_force_distinct(sets: &[Vec<VertexId>]) -> u64 {
        fn rec(sets: &[Vec<VertexId>], chosen: &mut Vec<VertexId>, i: usize) -> u64 {
            if i == sets.len() {
                return 1;
            }
            let mut total = 0;
            for &v in &sets[i] {
                if !chosen.contains(&v) {
                    chosen.push(v);
                    total += rec(sets, chosen, i + 1);
                    chosen.pop();
                }
            }
            total
        }
        rec(sets, &mut Vec::new(), 0)
    }

    fn best_effort_plan(pattern: graphpi_pattern::Pattern) -> crate::config::ExecutionPlan {
        let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
        let schedules = efficient_schedules(&pattern);
        Configuration::new(pattern, schedules[0].clone(), sets[0].clone()).compile()
    }

    #[test]
    fn iep_matches_enumeration_on_house() {
        let g = generators::power_law(220, 5, 77);
        let plan = best_effort_plan(prefab::house());
        assert!(plan.iep_suffix_len >= 2);
        assert_eq!(
            count_embeddings_iep(&plan, &g),
            interp::count_embeddings(&plan, &g)
        );
    }

    #[test]
    fn iep_matches_enumeration_on_all_evaluation_patterns() {
        let g = generators::power_law(120, 5, 41);
        for (name, pattern) in prefab::evaluation_patterns() {
            let plan = best_effort_plan(pattern);
            let iep = count_embeddings_iep(&plan, &g);
            let enumerated = interp::count_embeddings(&plan, &g);
            assert_eq!(iep, enumerated, "{name}");
        }
    }

    #[test]
    fn iep_matches_enumeration_on_uniform_graph() {
        let g = generators::erdos_renyi(150, 900, 13);
        for pattern in [prefab::rectangle(), prefab::cycle_6_tri(), prefab::p2()] {
            let plan = best_effort_plan(pattern);
            assert_eq!(
                count_embeddings_iep(&plan, &g),
                interp::count_embeddings(&plan, &g)
            );
        }
    }

    #[test]
    fn hub_accelerated_iep_matches_plain() {
        let g = generators::power_law(200, 6, 55);
        let hubs = HubGraph::build(
            &g,
            HubOptions {
                max_hubs: 24,
                min_degree: 4,
            },
        );
        for pattern in [prefab::house(), prefab::p2(), prefab::cycle_6_tri()] {
            let plan = best_effort_plan(pattern);
            assert_eq!(
                count_embeddings_iep(&plan, (&g, &hubs)),
                count_embeddings_iep(&plan, &g)
            );
        }
    }

    #[test]
    fn iep_term_scratch_reuse_matches_fresh() {
        let g = generators::power_law(150, 5, 63);
        let plan = best_effort_plan(prefab::house());
        let outer = plan.num_loops() - plan.iep_suffix_len;
        let prefixes = interp::enumerate_prefixes(&plan, &g, outer);
        let ctx = ExecCtx::from(&g);
        let mut buffers = SearchBuffers::new(plan.num_loops());
        for p in prefixes.iter().take(40) {
            assert_eq!(
                iep_term_with(&plan, ctx, p, &mut buffers),
                iep_term(&plan, &g, p)
            );
        }
    }

    #[test]
    fn iep_terms_partition_the_total_at_every_task_depth() {
        // Task replay is exact wherever the prefix is cut, not only at the
        // full outer depth.
        let g = generators::power_law(140, 5, 29);
        for pattern in [prefab::house(), prefab::p2(), prefab::cycle_6_tri()] {
            let plan = best_effort_plan(pattern);
            let outer = plan.program().iep().unwrap().outer;
            let total = count_embeddings_iep(&plan, &g) * plan.iep_correction.divisor();
            for depth in 1..=outer {
                let sum: u64 = interp::enumerate_prefixes(&plan, &g, depth)
                    .iter()
                    .map(|p| iep_term(&plan, &g, p))
                    .sum();
                assert_eq!(sum, total, "depth {depth}");
            }
        }
    }

    #[test]
    fn star_tables_are_falling_factorials() {
        // k leaves on one hub all draw from N(hub): the partition sum must
        // collapse to c(c-1)…(c-k+1), i.e. the merged coefficients are the
        // signed Stirling numbers of the first kind.
        let stirling: [&[i64]; 4] = [
            &[-1, 1],
            &[2, -3, 1],
            &[-6, 11, -6, 1],
            &[24, -50, 35, -10, 1],
        ];
        for (k, expected) in (2..=5).zip(stirling) {
            let star = prefab::star_pattern(k + 1);
            let schedule = Schedule::new(&star, (0..=k).collect());
            let plan = Configuration::new(star, schedule, RestrictionSet::empty()).compile();
            let table = plan.program().iep().unwrap();
            assert_eq!(table.sets.len(), 1, "k = {k}");
            let coeffs: Vec<i64> = table.terms.iter().map(|t| t.coeff).collect();
            assert_eq!(coeffs, expected, "k = {k}");
            for (term, blocks) in table.terms.iter().zip(1..) {
                assert_eq!(term.factors.len(), blocks);
            }
            // And against the explicit-set reference.
            let leaves: Vec<VertexId> = (0..9).collect();
            let sets = vec![leaves.clone(); k];
            assert_eq!(evaluate(table, &[9]), count_distinct_tuples(&sets));
            assert_eq!(count_distinct_tuples(&sets), brute_force_distinct(&sets));
        }
    }

    #[test]
    fn fallback_when_suffix_too_short() {
        // Cliques have k = 1: IEP must silently fall back to enumeration.
        let g = generators::erdos_renyi(60, 400, 3);
        let clique = prefab::clique(4);
        let sets = generate_restriction_sets(&clique, GenerationOptions::default());
        let schedule = Schedule::new(&clique, vec![0, 1, 2, 3]);
        let plan = Configuration::new(clique, schedule, sets[0].clone()).compile();
        assert_eq!(plan.iep_suffix_len, 1);
        assert_eq!(
            count_embeddings_iep(&plan, &g),
            interp::count_embeddings(&plan, &g)
        );
    }

    #[test]
    fn iep_handles_unrestricted_plans() {
        // Without restrictions the redundancy divisor equals |Aut|, and the
        // IEP count must still equal plain enumeration (which also
        // over-counts by |Aut|)... both divided consistently: enumeration
        // reports all automorphic copies, IEP divides them out of its own
        // total, so compare against enumeration / |Aut|.
        let g = generators::erdos_renyi(80, 500, 7);
        let pattern = prefab::house();
        let schedule = Schedule::new(&pattern, vec![0, 1, 2, 3, 4]);
        let plan = Configuration::new(pattern.clone(), schedule, RestrictionSet::empty()).compile();
        let aut = graphpi_pattern::automorphism::automorphism_count(&pattern) as u64;
        assert_eq!(plan.iep_correction.divisor(), aut);
        assert_eq!(
            count_embeddings_iep(&plan, &g),
            interp::count_embeddings(&plan, &g) / aut
        );
    }
}
