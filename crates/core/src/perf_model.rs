//! The performance prediction model (Section IV-C of the paper).
//!
//! The matching algorithm is a nest of `n` loops; its cost is modelled
//! recursively as
//!
//! ```text
//! cost_i = l_i * (1 - f_i) * (c_i + cost_{i+1})     for i < n
//! cost_n = l_n * (1 - f_n)
//! ```
//!
//! where, for the `i`-th loop,
//!
//! * `l_i` is the expected cardinality of the candidate set the loop
//!   traverses, estimated from `|V|`, `p1` and `p2` (see
//!   [`graphpi_graph::GraphStats`]),
//! * `c_i` is the expected cost of the set intersections *computed inside*
//!   that loop: every merge `(N ∩ … ∩ N) ∩ N(v_i)` of a deeper vertex's
//!   candidate chain whose last neighbourhood is this loop's vertex, each
//!   distinct one charged once — exactly the ops the plan's
//!   [`SetProgram`](crate::exec::setprog::SetProgram) hoists to loop `i`
//!   ([`for_each_charged_merge`]), and
//! * `f_i` is the probability that the restriction(s) enforced in this loop
//!   filter out the current partial embedding, computed exactly by
//!   enumerating the `n!` possible relative orders of the pattern vertices'
//!   data ids and filtering them restriction by restriction in loop order.
//!
//! The model is deterministic, cheap (microseconds per configuration for
//! 6-vertex patterns) and is only ever used to *rank* configurations.

use crate::config::{
    compile_loops, iep_correction, Configuration, ExecutionPlan, IepCorrection, LoopPlan, MAX_LOOPS,
};
use graphpi_graph::GraphStats;
use graphpi_pattern::automorphism::automorphism_group;
use graphpi_pattern::restriction::{Restriction, RestrictionSet};
use std::collections::HashMap;

/// Reusable cache of all `n!` relative-order permutations for a pattern
/// size, used to compute the `f_i` filter probabilities exactly and to
/// check that an IEP divisor is uniform.
#[derive(Debug, Clone)]
pub struct RankPermutations {
    n: usize,
    perms: Vec<Vec<u64>>,
}

impl RankPermutations {
    /// Enumerates the `n!` orders (n ≤ 10 keeps this comfortably small).
    pub fn new(n: usize) -> Self {
        assert!(n <= 10, "rank permutation enumeration limited to n <= 10");
        let mut perms = Vec::new();
        let mut current: Vec<u64> = (0..n as u64).collect();
        heap_permutations(&mut current, n, &mut perms);
        Self { n, perms }
    }

    /// Number of permutations (`n!`).
    pub fn len(&self) -> usize {
        self.perms.len()
    }

    /// True only for the degenerate zero-vertex case.
    pub fn is_empty(&self) -> bool {
        self.perms.is_empty()
    }

    /// Every order, as the rank of each pattern vertex's id.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> {
        self.perms.iter().map(Vec::as_slice)
    }
}

fn heap_permutations(current: &mut Vec<u64>, k: usize, out: &mut Vec<Vec<u64>>) {
    if k <= 1 {
        out.push(current.clone());
        return;
    }
    for i in 0..k {
        heap_permutations(current, k - 1, out);
        if k % 2 == 0 {
            current.swap(i, k - 1);
        } else {
            current.swap(0, k - 1);
        }
    }
}

/// Per-loop factors produced by the model (exposed for inspection, tests and
/// the ablation benchmarks).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopEstimate {
    /// Expected candidate-set cardinality `l_i`.
    pub loop_size: f64,
    /// Expected intersection cost `c_i` charged to this loop.
    pub intersection_cost: f64,
    /// Restriction filter probability `f_i`.
    pub filter_probability: f64,
}

/// Full prediction for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEstimate {
    /// Per-loop factors, outermost first.
    pub loops: Vec<LoopEstimate>,
    /// The scalar cost used for ranking (`cost_1` of the recursion).
    pub total: f64,
}

/// The performance model: graph statistics plus the rank-permutation cache.
#[derive(Debug, Clone)]
pub struct PerformanceModel {
    stats: GraphStats,
    ranks: RankPermutations,
}

/// Visits every merge the model charges, as `(loop, merged)`: building a
/// candidate set `((N ∩ N) ∩ N) ∩ …` in parent order, the step that adds
/// the neighbourhood of loop `loop`'s vertex to a running intersection of
/// `merged` neighbourhoods is computed inside that loop — and only once,
/// however many deeper loops share the same leading parents. These are the
/// ops of the plan's [`crate::exec::setprog::SetProgram`] that enumeration
/// runs, at the depths it runs them.
pub fn for_each_charged_merge(loops: &[LoopPlan], mut visit: impl FnMut(usize, usize)) {
    let mut charged = [false; 1 << MAX_LOOPS];
    for loop_plan in loops {
        let mut mask = 0usize;
        for (merged, &p) in loop_plan.parents.iter().enumerate() {
            mask |= 1 << p;
            if merged >= 1 && !std::mem::replace(&mut charged[mask], true) {
                visit(p, merged);
            }
        }
    }
}

impl PerformanceModel {
    /// Builds a model for a pattern of `pattern_size` vertices over a graph
    /// with the given statistics.
    pub fn new(stats: GraphStats, pattern_size: usize) -> Self {
        Self {
            stats,
            ranks: RankPermutations::new(pattern_size),
        }
    }

    /// The graph statistics the model was built from.
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// Predicts the enumeration cost of a configuration.
    pub fn predict_configuration(&self, config: &Configuration) -> CostEstimate {
        let loops = compile_loops(config);
        self.estimate(config, &loops, loops.len())
    }

    /// Predicts the enumeration cost of a compiled plan.
    pub fn predict(&self, plan: &ExecutionPlan) -> CostEstimate {
        self.estimate(&plan.config, &plan.loops, plan.num_loops())
    }

    /// The model proper. Restrictions enforced in loops at or beyond
    /// `filtering_loops` do not filter: IEP drops them with the loops.
    fn estimate(
        &self,
        config: &Configuration,
        loops: &[LoopPlan],
        filtering_loops: usize,
    ) -> CostEstimate {
        let n = loops.len();
        assert_eq!(
            n, self.ranks.n,
            "plan size does not match the model's pattern size"
        );
        let filter_probabilities = self.filter_probabilities(config, filtering_loops);
        let mut estimates: Vec<LoopEstimate> = (0..n)
            .map(|i| LoopEstimate {
                loop_size: match loops[i].parents.len() {
                    0 => self.stats.num_vertices as f64,
                    parents => self.stats.expected_intersection_size(parents),
                },
                intersection_cost: 0.0,
                filter_probability: filter_probabilities[i],
            })
            .collect();
        // `c_i`: a merge of a running intersection of `merged`
        // neighbourhoods (expected size) with one more (expected size
        // 2|E|/|V|) costs the sum of the two cardinalities.
        let neighborhood = self.stats.expected_neighborhood_size();
        for_each_charged_merge(loops, |i, merged| {
            estimates[i].intersection_cost +=
                self.stats.expected_intersection_size(merged) + neighborhood;
        });

        // Recursive cost, evaluated innermost-out.
        let mut cost = 0.0f64;
        for (i, e) in estimates.iter().enumerate().rev() {
            let kept = e.loop_size * (1.0 - e.filter_probability);
            cost = if i == n - 1 {
                kept
            } else {
                kept * (e.intersection_cost + cost)
            };
        }
        CostEstimate {
            loops: estimates,
            total: cost,
        }
    }

    /// `f_i`: the probability that the partial embedding is filtered out by
    /// the restrictions enforced in loop `i`, conditioned on having survived
    /// every earlier restriction. Computed exactly over the `n!` relative
    /// orders.
    fn filter_probabilities(&self, config: &Configuration, filtering_loops: usize) -> Vec<f64> {
        let n = config.schedule.len();
        // Restrictions grouped by the loop where they become checkable.
        let mut per_loop: Vec<Vec<Restriction>> = vec![Vec::new(); n];
        for r in config.restrictions.restrictions() {
            let pg = config.schedule.position_of(r.greater);
            let ps = config.schedule.position_of(r.smaller);
            if pg.max(ps) < filtering_loops {
                per_loop[pg.max(ps)].push(*r);
            }
        }
        let mut probabilities = vec![0.0f64; n];
        if per_loop.iter().all(|v| v.is_empty()) {
            return probabilities;
        }
        // Ranks are indexed by pattern vertex directly.
        let mut survivors: Vec<&[u64]> = self.ranks.iter().collect();
        for i in 0..n {
            if per_loop[i].is_empty() || survivors.is_empty() {
                continue;
            }
            let before = survivors.len();
            survivors.retain(|ids| per_loop[i].iter().all(|r| r.satisfied_by(ids)));
            probabilities[i] = (before - survivors.len()) as f64 / before as f64;
        }
        probabilities
    }
}

/// Index of the first cheapest estimate.
fn cheapest(estimates: &[CostEstimate], tie_break: impl Fn(usize) -> (bool, u64)) -> usize {
    (0..estimates.len())
        .min_by(|&a, &b| {
            let (non_uniform_a, divisor_a) = tie_break(a);
            let (non_uniform_b, divisor_b) = tie_break(b);
            non_uniform_a
                .cmp(&non_uniform_b)
                .then(estimates[a].total.partial_cmp(&estimates[b].total).unwrap())
                .then(divisor_a.cmp(&divisor_b))
        })
        .expect("no configurations to select from")
}

/// Ranks a list of configurations for **enumeration** and returns the index
/// of the cheapest one together with every estimate (ties broken by the
/// first occurrence).
pub fn select_best(
    model: &PerformanceModel,
    configs: &[Configuration],
) -> (usize, Vec<CostEstimate>) {
    assert!(!configs.is_empty(), "no configurations to select from");
    let estimates: Vec<CostEstimate> = configs
        .iter()
        .map(|c| model.predict_configuration(c))
        .collect();
    (cheapest(&estimates, |_| (false, 0)), estimates)
}

/// Ranks configurations of **one pattern** for IEP counting. Differs from
/// [`select_best`] where IEP does: restrictions enforced in the independent
/// suffix loops are dropped with those loops, so they filter nothing in the
/// predicted cost; a candidate whose remaining restrictions over-count
/// non-uniformly (which IEP cannot divide out, see [`IepCorrection`]) loses
/// to every uniform one; and equal costs tie-break toward the smaller
/// divisor, i.e. toward the plan that enumerates fewer redundant prefixes.
///
/// The correction is memoised per (outer vertex set, remaining
/// restrictions): most schedules of a pattern share a suffix.
pub fn select_best_iep(
    model: &PerformanceModel,
    configs: &[Configuration],
) -> (usize, Vec<CostEstimate>) {
    assert!(!configs.is_empty(), "no configurations to select from");
    let pattern = &configs[0].pattern;
    let n = pattern.num_vertices();
    let auts = automorphism_group(pattern);
    let mut memo: HashMap<(usize, RestrictionSet), IepCorrection> = HashMap::new();
    let mut corrections = Vec::with_capacity(configs.len());
    let estimates: Vec<CostEstimate> = configs
        .iter()
        .map(|config| {
            debug_assert_eq!(&config.pattern, pattern);
            let k = config.schedule.independent_suffix_len(pattern);
            if k < 2 || n <= k {
                // Enumerated whatever is asked for: nothing to correct.
                corrections.push(IepCorrection::DividePrefixRestricted { divisor: 1 });
                return model.predict_configuration(config);
            }
            let outer = &config.schedule.order()[..n - k];
            let outer_set = outer.iter().fold(0usize, |m, &v| m | 1 << v);
            let correction = *memo
                .entry((outer_set, config.restrictions.restricted_to(outer)))
                .or_insert_with_key(|(_, remaining)| {
                    iep_correction(&model.ranks, &auts, remaining)
                });
            corrections.push(correction);
            model.estimate(config, &compile_loops(config), n - k)
        })
        .collect();
    let best = cheapest(&estimates, |i| match corrections[i] {
        IepCorrection::DividePrefixRestricted { divisor } => (false, divisor),
        IepCorrection::DivideUnrestricted { divisor } => (true, divisor),
    });
    (best, estimates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use graphpi_graph::generators;
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::RestrictionSet;

    fn stats() -> GraphStats {
        GraphStats::compute(&generators::power_law(2000, 8, 17))
    }

    fn house_config(restrictions: RestrictionSet) -> Configuration {
        let pattern = prefab::house();
        let schedule = Schedule::new(&pattern, vec![0, 1, 2, 3, 4]);
        Configuration::new(pattern, schedule, restrictions)
    }

    #[test]
    fn rank_permutation_counts() {
        assert_eq!(RankPermutations::new(3).len(), 6);
        assert_eq!(RankPermutations::new(5).len(), 120);
        assert_eq!(RankPermutations::new(6).len(), 720);
    }

    #[test]
    fn filter_probability_matches_paper_example() {
        // The single restriction id(A) > id(B) enforced in the second loop
        // filters exactly half of the relative orders: f = 1/2 (the paper's
        // f_1 = 1/2 in Figure 5's discussion).
        let model = PerformanceModel::new(stats(), 5);
        let config = house_config(RestrictionSet::from_pairs(&[(0, 1)]));
        let estimate = model.predict_configuration(&config);
        assert!((estimate.loops[1].filter_probability - 0.5).abs() < 1e-12);
        // No restrictions in the other loops.
        for i in [0usize, 2, 3, 4] {
            assert_eq!(estimate.loops[i].filter_probability, 0.0);
        }
    }

    #[test]
    fn restrictions_reduce_predicted_cost() {
        let model = PerformanceModel::new(stats(), 5);
        let unrestricted = model.predict_configuration(&house_config(RestrictionSet::empty()));
        let restricted =
            model.predict_configuration(&house_config(RestrictionSet::from_pairs(&[(0, 1)])));
        assert!(restricted.total < unrestricted.total);
        assert!(restricted.total > 0.0);
    }

    #[test]
    fn conditional_filtering_is_sequential() {
        // Two restrictions A>B (loop 1) and B>C (loop 2): the second filters
        // among the survivors of the first; together they leave 1/6 of the
        // orders (A > B > C), so f_2 = 1 - (1/6)/(1/2) = 2/3.
        let model = PerformanceModel::new(stats(), 5);
        let config = house_config(RestrictionSet::from_pairs(&[(0, 1), (1, 2)]));
        let estimate = model.predict_configuration(&config);
        assert!((estimate.loops[1].filter_probability - 0.5).abs() < 1e-12);
        assert!((estimate.loops[2].filter_probability - (2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn loop_sizes_follow_parent_counts() {
        let model = PerformanceModel::new(stats(), 5);
        let estimate = model.predict_configuration(&house_config(RestrictionSet::empty()));
        let s = stats();
        // Loop 0 scans all vertices.
        assert_eq!(estimate.loops[0].loop_size, s.num_vertices as f64);
        // Loop 1 (one parent) is the expected neighborhood size.
        assert!((estimate.loops[1].loop_size - s.expected_neighborhood_size()).abs() < 1e-9);
        // Loops 3 and 4 (two parents) shrink by a factor of p2.
        assert!(estimate.loops[3].loop_size < estimate.loops[1].loop_size);
        assert!((estimate.loops[3].loop_size - s.expected_intersection_size(2)).abs() < 1e-9);
    }

    #[test]
    fn intersection_cost_charged_to_last_parent() {
        let model = PerformanceModel::new(stats(), 5);
        let estimate = model.predict_configuration(&house_config(RestrictionSet::empty()));
        // The candidate set of E (parents A=loop0, B=loop1) is built in loop
        // 1; the candidate set of D (parents B=loop1, C=loop2) in loop 2.
        assert!(estimate.loops[1].intersection_cost > 0.0);
        assert!(estimate.loops[2].intersection_cost > 0.0);
        assert_eq!(estimate.loops[3].intersection_cost, 0.0);
        assert_eq!(estimate.loops[4].intersection_cost, 0.0);
        // Loop 0 builds nothing: C and B have a single parent each.
        assert_eq!(estimate.loops[0].intersection_cost, 0.0);
    }

    #[test]
    fn charged_merges_are_the_set_programs_enumeration_ops() {
        // The model and the interpreter must not drift apart: every merge
        // the model charges is an op the lowered program runs, at the loop
        // the model charges it to, and there are no others.
        use crate::schedule::efficient_schedules;
        use graphpi_pattern::restriction::{generate_restriction_sets, GenerationOptions};
        let mut patterns = prefab::evaluation_patterns();
        patterns.extend(prefab::motifs_3());
        patterns.extend(prefab::motifs_4());
        for (name, pattern) in patterns {
            let n = pattern.num_vertices();
            let model = PerformanceModel::new(stats(), n);
            let schedules = efficient_schedules(&pattern);
            let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
            let stride = schedules.len().div_ceil(12);
            for schedule in schedules.iter().step_by(stride) {
                for set in sets.iter().take(3) {
                    let plan = Configuration::new(pattern.clone(), schedule.clone(), set.clone())
                        .compile();
                    let mut charged = Vec::new();
                    for_each_charged_merge(&plan.loops, |depth, merged| {
                        charged.push((depth, merged));
                    });
                    let mut emitted: Vec<(usize, usize)> = plan
                        .program()
                        .ops()
                        .iter()
                        .filter(|op| (op.first_loop as usize) < n)
                        .map(|op| (op.depth as usize, op.mask.count_ones() as usize - 1))
                        .collect();
                    charged.sort_unstable();
                    emitted.sort_unstable();
                    assert_eq!(charged, emitted, "{name} {:?}", schedule.order());
                    let estimate = model.predict(&plan);
                    for (depth, e) in estimate.loops.iter().enumerate() {
                        assert_eq!(
                            e.intersection_cost > 0.0,
                            emitted.iter().any(|&(d, _)| d == depth),
                            "{name} {:?} loop {depth}",
                            schedule.order()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn iep_ranking_prefers_uniform_then_cheap_then_small_divisors() {
        use crate::schedule::efficient_schedules;
        use graphpi_pattern::restriction::{generate_restriction_sets, GenerationOptions};
        let pattern = prefab::p6();
        let model = PerformanceModel::new(stats(), 6);
        let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
        let configs: Vec<Configuration> = efficient_schedules(&pattern)
            .iter()
            .flat_map(|s| {
                sets.iter()
                    .map(|r| Configuration::new(pattern.clone(), s.clone(), r.clone()))
            })
            .collect();
        let uniform = |i: usize| match configs[i].compile().iep_correction {
            IepCorrection::DividePrefixRestricted { divisor } => Some(divisor),
            IepCorrection::DivideUnrestricted { .. } => None,
        };
        // Ranked for enumeration, the prism's cheapest configuration
        // over-counts non-uniformly; ranked for IEP it cannot win.
        let (enumeration_best, _) = select_best(&model, &configs);
        assert_eq!(uniform(enumeration_best), None);
        let (best, estimates) = select_best_iep(&model, &configs);
        let divisor = uniform(best).expect("a uniform configuration exists");
        for i in 0..configs.len() {
            if let Some(other) = uniform(i) {
                let (cost, best_cost) = (estimates[i].total, estimates[best].total);
                assert!(
                    cost > best_cost || (cost == best_cost && other >= divisor),
                    "configuration {i} should have been selected"
                );
            }
        }
        // Suffix restrictions filter nothing under IEP.
        let k = configs[best].schedule.independent_suffix_len(&pattern);
        for e in &estimates[best].loops[6 - k..] {
            assert_eq!(e.filter_probability, 0.0);
        }
    }

    #[test]
    fn denser_graphs_cost_more() {
        let sparse = GraphStats::compute(&generators::erdos_renyi(2000, 4000, 3));
        let dense = GraphStats::compute(&generators::erdos_renyi(2000, 40000, 3));
        let config = house_config(RestrictionSet::from_pairs(&[(0, 1)]));
        let sparse_cost = PerformanceModel::new(sparse, 5)
            .predict_configuration(&config)
            .total;
        let dense_cost = PerformanceModel::new(dense, 5)
            .predict_configuration(&config)
            .total;
        assert!(dense_cost > sparse_cost);
    }

    #[test]
    fn select_best_prefers_lower_cost() {
        let model = PerformanceModel::new(stats(), 5);
        let a = house_config(RestrictionSet::empty());
        let b = house_config(RestrictionSet::from_pairs(&[(0, 1)]));
        let (best, estimates) = select_best(&model, &[a, b]);
        assert_eq!(best, 1);
        assert_eq!(estimates.len(), 2);
    }

    #[test]
    #[should_panic]
    fn select_best_rejects_empty() {
        let model = PerformanceModel::new(stats(), 5);
        let _ = select_best(&model, &[]);
    }
}
