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
//!   `SetProgram` hoists to loop `i`
//!   (`for_each_charged_merge`), and
//! * `f_i` is the probability that the restriction(s) enforced in this loop
//!   filter out the current partial embedding: exactly the share of the
//!   relative orders of the pattern vertices' data ids, among those every
//!   earlier loop's restrictions keep, that this loop's restrictions reject.
//!
//! `l_i` and `c_i` depend on the schedule alone and are computed once per
//! schedule, however many restriction sets it is paired with. `f_i` is read
//! from the process-wide [`OrderTable`]: the orders a restriction keeps are
//! one bitset, the orders still alive at a loop are a running AND of them,
//! and the share is two popcounts. One routine prices candidates this way
//! for [`select_best`], [`select_best_iep`] and
//! [`GraphPi::plan`](crate::engine::GraphPi::plan).
//!
//! The model is deterministic and is only ever used to *rank*
//! configurations; the perf ledger's `perf_model.rank_us` row prices it.

use crate::config::{
    compile_loops, iep_correction, Configuration, IepCorrection, LoopPlan, MAX_LOOPS,
};
use crate::schedule::Schedule;
use graphpi_graph::GraphStats;
use graphpi_pattern::automorphism::automorphism_group;
use graphpi_pattern::orders::OrderTable;
use graphpi_pattern::pattern::Pattern;
use graphpi_pattern::permutation::Permutation;
use graphpi_pattern::restriction::RestrictionSet;
use std::cmp::Ordering;
use std::collections::HashMap;

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

/// The performance model: graph statistics plus the id-order table of the
/// pattern size it prices.
#[derive(Debug, Clone)]
pub struct PerformanceModel {
    stats: GraphStats,
    orders: &'static OrderTable,
}

/// Visits every merge the model charges, as `(loop, merged)`: building a
/// candidate set `((N ∩ N) ∩ N) ∩ …` in parent order, the step that adds
/// the neighbourhood of loop `loop`'s vertex to a running intersection of
/// `merged` neighbourhoods is computed inside that loop — and only once,
/// however many deeper loops share the same leading parents. These are the
/// ops of the plan's [`crate::exec::setprog::SetProgram`] that enumeration
/// runs, at the depths it runs them.
pub(crate) fn for_each_charged_merge(loops: &[LoopPlan], mut visit: impl FnMut(usize, usize)) {
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

/// The factors that depend on the schedule alone.
pub(crate) struct ScheduleTerms {
    n: usize,
    /// Length of the independent suffix IEP could replace.
    iep_suffix_len: usize,
    /// Loop position of each pattern vertex.
    position: [usize; MAX_LOOPS],
    loop_size: [f64; MAX_LOOPS],
    intersection_cost: [f64; MAX_LOOPS],
}

/// What a restriction set adds to its schedule's terms.
pub(crate) struct Priced {
    filter_probability: [f64; MAX_LOOPS],
    total: f64,
}

impl PerformanceModel {
    /// Builds a model for a pattern of `pattern_size` vertices over a graph
    /// with the given statistics.
    ///
    /// # Panics
    /// If `pattern_size` exceeds [`OrderTable::MAX_VERTICES`], the planner's
    /// cap.
    pub fn new(stats: GraphStats, pattern_size: usize) -> Self {
        Self {
            stats,
            orders: OrderTable::for_size(pattern_size),
        }
    }

    /// Predicts the enumeration cost of a configuration.
    pub(crate) fn predict_configuration(&self, config: &Configuration) -> CostEstimate {
        let loops = compile_loops(&config.pattern, &config.schedule, &config.restrictions);
        self.estimate(config, &loops)
    }

    fn estimate(&self, config: &Configuration, loops: &[LoopPlan]) -> CostEstimate {
        let terms = self.schedule_terms(&config.pattern, &config.schedule, loops);
        let priced = self.price(&terms, &config.restrictions, terms.n, &mut Vec::new());
        cost_estimate(&terms, &priced)
    }

    /// `l_i` and `c_i` of a schedule whose loops have the given parents.
    fn schedule_terms(
        &self,
        pattern: &Pattern,
        schedule: &Schedule,
        loops: &[LoopPlan],
    ) -> ScheduleTerms {
        let n = loops.len();
        assert_eq!(
            n,
            self.orders.num_vertices(),
            "plan size does not match the model's pattern size"
        );
        let mut terms = ScheduleTerms {
            n,
            iep_suffix_len: schedule.independent_suffix_len(pattern),
            position: [0; MAX_LOOPS],
            loop_size: [0.0; MAX_LOOPS],
            intersection_cost: [0.0; MAX_LOOPS],
        };
        for (i, &v) in schedule.order().iter().enumerate() {
            terms.position[v] = i;
            terms.loop_size[i] = match loops[i].parents.len() {
                0 => self.stats.num_vertices as f64,
                parents => self.stats.expected_intersection_size(parents),
            };
        }
        // `c_i`: a merge of a running intersection of `merged`
        // neighbourhoods (expected size) with one more (expected size
        // 2|E|/|V|) costs the sum of the two cardinalities.
        let neighborhood = self.stats.expected_neighborhood_size();
        for_each_charged_merge(loops, |i, merged| {
            terms.intersection_cost[i] +=
                self.stats.expected_intersection_size(merged) + neighborhood;
        });
        terms
    }

    /// The model proper: `f_i` for one restriction set, then the recursion.
    ///
    /// `f_i` is the probability that the partial embedding is filtered out
    /// by the restrictions enforced in loop `i`, conditioned on having
    /// survived every earlier restriction. Restrictions enforced in loops at
    /// or beyond `filtering_loops` do not filter: IEP drops them with the
    /// loops. `alive` is scratch for the running AND.
    fn price(
        &self,
        terms: &ScheduleTerms,
        restrictions: &RestrictionSet,
        filtering_loops: usize,
        alive: &mut Vec<u64>,
    ) -> Priced {
        let n = terms.n;
        let mut filter_probability = [0.0f64; MAX_LOOPS];
        alive.clear();
        alive.extend_from_slice(self.orders.all());
        let mut before = self.orders.num_orders();
        for (i, probability) in filter_probability[..filtering_loops.min(n)]
            .iter_mut()
            .enumerate()
        {
            // A restriction becomes checkable where its later endpoint binds.
            let mut filters = false;
            for r in restrictions.restrictions() {
                if terms.position[r.greater].max(terms.position[r.smaller]) == i {
                    filters = true;
                    let keeps = self.orders.greater(r.greater, r.smaller);
                    alive.iter_mut().zip(keeps).for_each(|(a, k)| *a &= k);
                }
            }
            if filters && before > 0 {
                let after = popcount(alive);
                *probability = (before - after) as f64 / before as f64;
                before = after;
            }
        }

        // Recursive cost, evaluated innermost-out.
        let mut total = 0.0f64;
        for i in (0..n).rev() {
            let kept = terms.loop_size[i] * (1.0 - filter_probability[i]);
            total = if i == n - 1 {
                kept
            } else {
                kept * (terms.intersection_cost[i] + total)
            };
        }
        Priced {
            filter_probability,
            total,
        }
    }
}

fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

fn cost_estimate(terms: &ScheduleTerms, priced: &Priced) -> CostEstimate {
    CostEstimate {
        loops: (0..terms.n)
            .map(|i| LoopEstimate {
                loop_size: terms.loop_size[i],
                intersection_cost: terms.intersection_cost[i],
                filter_probability: priced.filter_probability[i],
            })
            .collect(),
        total: priced.total,
    }
}

/// One candidate of a ranking: a schedule and a restriction set of a pattern.
pub(crate) type Candidate<'a> = (&'a Pattern, &'a Schedule, &'a RestrictionSet);

/// The IEP corrections of one pattern's configurations, memoised per set of
/// remaining restrictions (as bits `greater * n + smaller`): most schedules
/// of a pattern share a suffix, and the correction depends on nothing else.
pub(crate) struct Corrections {
    orders: &'static OrderTable,
    auts: Vec<Permutation>,
    memo: HashMap<u64, IepCorrection>,
}

impl Corrections {
    pub(crate) fn new(pattern: &Pattern) -> Self {
        Self {
            orders: OrderTable::for_size(pattern.num_vertices()),
            auts: automorphism_group(pattern),
            memo: HashMap::new(),
        }
    }

    /// The [`iep_correction`] of a configuration of the pattern whose last
    /// `k` loops IEP replaces.
    pub(crate) fn of(
        &mut self,
        schedule: &Schedule,
        restrictions: &RestrictionSet,
        k: usize,
    ) -> IepCorrection {
        let n = schedule.len();
        let outer = &schedule.order()[..n - k];
        let outer_set = outer.iter().fold(0usize, |set, &v| set | 1 << v);
        let remaining = restrictions
            .restrictions()
            .iter()
            .filter(|r| outer_set >> r.greater & outer_set >> r.smaller & 1 == 1)
            .fold(0u64, |set, r| set | 1 << (r.greater * n + r.smaller));
        *self.memo.entry(remaining).or_insert_with(|| {
            iep_correction(self.orders, &self.auts, &restrictions.restricted_to(outer))
        })
    }
}

/// Prices `candidates` in order, reporting each one's factors to `each`, and
/// returns the position and predicted cost of the first cheapest: for
/// enumeration without `corrections` (see [`select_best`]), for IEP counting
/// with the [`Corrections`] of the one pattern every candidate is of (see
/// [`select_best_iep`]).
///
/// # Panics
/// If there are no candidates.
pub(crate) fn rank<'a>(
    model: &PerformanceModel,
    mut corrections: Option<&mut Corrections>,
    candidates: impl Iterator<Item = Candidate<'a>>,
    mut each: impl FnMut(&ScheduleTerms, &Priced),
) -> (usize, f64) {
    // The schedule the previous candidate had, and its terms.
    let mut shared: Option<(&Pattern, &Schedule, ScheduleTerms)> = None;
    let mut alive = Vec::new();
    // (non-uniform, cost, divisor) of the best candidate so far, and which.
    let mut best: Option<((bool, f64, u64), usize)> = None;
    for (index, (pattern, schedule, restrictions)) in candidates.enumerate() {
        if !matches!(shared, Some((p, s, _)) if p == pattern && s == schedule) {
            let loops = compile_loops(pattern, schedule, &RestrictionSet::empty());
            let terms = model.schedule_terms(pattern, schedule, &loops);
            shared = Some((pattern, schedule, terms));
        }
        let (_, _, terms) = shared.as_ref().expect("set just above");
        let (n, k) = (terms.n, terms.iep_suffix_len);
        let (filtering_loops, non_uniform, divisor) = match &mut corrections {
            Some(corrections) if k >= 2 && n > k => match corrections.of(schedule, restrictions, k)
            {
                IepCorrection::DividePrefixRestricted { divisor } => (n - k, false, divisor),
                IepCorrection::DivideUnrestricted { divisor } => (n - k, true, divisor),
            },
            // Enumerated whatever is asked for: nothing to correct.
            _ => (n, false, 1),
        };
        let priced = model.price(terms, restrictions, filtering_loops, &mut alive);
        each(terms, &priced);
        let cheaper = best.map_or(true, |((best_non_uniform, best_total, best_divisor), _)| {
            let by_cost = priced.total.partial_cmp(&best_total);
            let order = (non_uniform.cmp(&best_non_uniform))
                .then(by_cost.expect("predicted costs are never NaN"))
                .then(divisor.cmp(&best_divisor));
            order == Ordering::Less
        });
        if cheaper {
            best = Some(((non_uniform, priced.total, divisor), index));
        }
    }
    let ((_, total, _), index) = best.expect("no configurations to select from");
    (index, total)
}

fn rank_configurations(
    model: &PerformanceModel,
    corrections: Option<&mut Corrections>,
    configs: &[Configuration],
) -> (usize, Vec<CostEstimate>) {
    let mut estimates = Vec::with_capacity(configs.len());
    let candidates = configs
        .iter()
        .map(|c| (&c.pattern, &c.schedule, &c.restrictions));
    let (best, _) = rank(model, corrections, candidates, |terms, priced| {
        estimates.push(cost_estimate(terms, priced));
    });
    (best, estimates)
}

/// Ranks a list of configurations for **enumeration** and returns the index
/// of the cheapest one together with every estimate (ties broken by the
/// first occurrence).
pub fn select_best(
    model: &PerformanceModel,
    configs: &[Configuration],
) -> (usize, Vec<CostEstimate>) {
    rank_configurations(model, None, configs)
}

/// Ranks configurations of **one pattern** for IEP counting. Differs from
/// [`select_best`] where IEP does: restrictions enforced in the independent
/// suffix loops are dropped with those loops, so they filter nothing in the
/// predicted cost; a candidate whose remaining restrictions over-count
/// non-uniformly (which IEP cannot divide out, see [`IepCorrection`]) loses
/// to every uniform one; and equal costs tie-break toward the smaller
/// divisor, i.e. toward the plan that enumerates fewer redundant prefixes.
pub fn select_best_iep(
    model: &PerformanceModel,
    configs: &[Configuration],
) -> (usize, Vec<CostEstimate>) {
    assert!(!configs.is_empty(), "no configurations to select from");
    debug_assert!(configs.iter().all(|c| c.pattern == configs[0].pattern));
    let mut corrections = Corrections::new(&configs[0].pattern);
    rank_configurations(model, Some(&mut corrections), configs)
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

    /// The n!-scanning planner, kept as the oracle the order table must
    /// agree with: every assignment of the ids `0..n` to the vertices, and
    /// `f_i`, the IEP correction and the cost recursion computed by walking
    /// them one at a time.
    mod oracle {
        use super::*;
        use graphpi_pattern::restriction::Restriction;

        pub fn all_id_orders(n: usize) -> Vec<Vec<u64>> {
            fn extend(ids: &mut Vec<u64>, n: usize, out: &mut Vec<Vec<u64>>) {
                if ids.len() == n {
                    out.push(ids.clone());
                    return;
                }
                for id in 0..n as u64 {
                    if !ids.contains(&id) {
                        ids.push(id);
                        extend(ids, n, out);
                        ids.pop();
                    }
                }
            }
            let mut out = Vec::new();
            extend(&mut Vec::new(), n, &mut out);
            out
        }

        pub fn filter_probabilities(
            orders: &[Vec<u64>],
            config: &Configuration,
            filtering_loops: usize,
        ) -> Vec<f64> {
            let n = config.schedule.len();
            let mut per_loop: Vec<Vec<Restriction>> = vec![Vec::new(); n];
            for r in config.restrictions.restrictions() {
                let pg = config.schedule.position_of(r.greater);
                let ps = config.schedule.position_of(r.smaller);
                if pg.max(ps) < filtering_loops {
                    per_loop[pg.max(ps)].push(*r);
                }
            }
            let mut probabilities = vec![0.0f64; n];
            let mut survivors: Vec<&Vec<u64>> = orders.iter().collect();
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

        pub fn iep_correction(
            orders: &[Vec<u64>],
            auts: &[Permutation],
            remaining: &RestrictionSet,
        ) -> IepCorrection {
            let aut_count = auts.len() as u64;
            let multiplicity = |ids: &Vec<u64>| {
                let satisfies = |sigma: &&Permutation| {
                    remaining
                        .restrictions()
                        .iter()
                        .all(|r| ids[sigma.apply(r.greater)] > ids[sigma.apply(r.smaller)])
                };
                auts.iter().filter(satisfies).count() as u64
            };
            let first = multiplicity(&orders[0]);
            if orders.iter().all(|ids| multiplicity(ids) == first) {
                IepCorrection::DividePrefixRestricted {
                    divisor: first.max(1),
                }
            } else {
                IepCorrection::DivideUnrestricted { divisor: aut_count }
            }
        }

        pub fn total(loops: &[LoopEstimate], filter_probabilities: &[f64]) -> f64 {
            let n = loops.len();
            let mut cost = 0.0f64;
            for i in (0..n).rev() {
                let kept = loops[i].loop_size * (1.0 - filter_probabilities[i]);
                cost = if i == n - 1 {
                    kept
                } else {
                    kept * (loops[i].intersection_cost + cost)
                };
            }
            cost
        }
    }

    #[test]
    fn the_order_table_agrees_with_scanning_every_id_order() {
        use crate::schedule::efficient_schedules;
        use graphpi_pattern::pattern::Pattern;
        use graphpi_pattern::restriction::{generate_restriction_sets, GenerationOptions};
        let mut patterns = prefab::evaluation_patterns();
        patterns.extend(prefab::motifs_3());
        patterns.extend(prefab::motifs_4());
        patterns.push(("house", prefab::house()));
        patterns.push((
            "bowtie",
            Pattern::new(5, &[(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]),
        ));
        patterns.push(("star5", prefab::star_pattern(5)));
        patterns.push(("cycle5", prefab::cycle_pattern(5)));
        patterns.push(("cycle6", prefab::cycle_pattern(6)));
        patterns.push(("K5", prefab::clique(5)));
        let (mut uniform, mut non_uniform) = (0, 0);
        for (name, pattern) in patterns {
            let n = pattern.num_vertices();
            let model = PerformanceModel::new(stats(), n);
            let orders = oracle::all_id_orders(n);
            let auts = automorphism_group(&pattern);
            let schedules = efficient_schedules(&pattern);
            let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
            let configs: Vec<Configuration> = schedules
                .iter()
                .step_by(schedules.len().div_ceil(10))
                .flat_map(|schedule| {
                    sets.iter().step_by(sets.len().div_ceil(6)).map(|set| {
                        Configuration::new(pattern.clone(), schedule.clone(), set.clone())
                    })
                })
                .collect();

            let (_, enumeration) = select_best(&model, &configs);
            let (_, counting) = select_best_iep(&model, &configs);
            let mut corrections = Corrections::new(&pattern);
            for (i, config) in configs.iter().enumerate() {
                let context = format!(
                    "{name} {:?} {:?}",
                    config.schedule.order(),
                    config.restrictions
                );
                // Per loop, then in total, ranked for enumeration ...
                let expected = oracle::filter_probabilities(&orders, config, n);
                let estimate = model.predict_configuration(config);
                assert_eq!(estimate, enumeration[i], "{context}");
                for (l, f) in estimate.loops.iter().zip(&expected) {
                    assert_eq!(l.filter_probability.to_bits(), f.to_bits(), "{context}");
                }
                let total = oracle::total(&estimate.loops, &expected);
                assert_eq!(estimate.total.to_bits(), total.to_bits(), "{context}");

                // ... and for IEP, which drops the suffix loops' restrictions.
                let k = config.schedule.independent_suffix_len(&pattern);
                let filtering_loops = if k >= 2 { n - k } else { n };
                let expected = oracle::filter_probabilities(&orders, config, filtering_loops);
                for (l, f) in counting[i].loops.iter().zip(&expected) {
                    assert_eq!(l.filter_probability.to_bits(), f.to_bits(), "{context}");
                }
                let total = oracle::total(&counting[i].loops, &expected);
                assert_eq!(counting[i].total.to_bits(), total.to_bits(), "{context}");

                // The correction compiling computes (any k) is the oracle's.
                let outer = &config.schedule.order()[..n - k];
                let remaining = config.restrictions.restricted_to(outer);
                let expected = oracle::iep_correction(&orders, &auts, &remaining);
                assert_eq!(config.compile().iep_correction, expected, "{context}");
                let memoised = corrections.of(&config.schedule, &config.restrictions, k);
                assert_eq!(memoised, expected, "{context}");
                match expected {
                    IepCorrection::DividePrefixRestricted { .. } => uniform += 1,
                    IepCorrection::DivideUnrestricted { .. } => non_uniform += 1,
                }
            }
        }
        assert!(
            uniform > 100 && non_uniform > 100,
            "{uniform} {non_uniform}"
        );
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
                    let mut emitted: Vec<(usize, usize)> = (0..n)
                        .flat_map(|depth| plan.program().ops_at(depth))
                        .filter(|op| (op.first_loop as usize) < n)
                        .map(|op| (op.depth as usize, op.mask.count_ones() as usize - 1))
                        .collect();
                    charged.sort_unstable();
                    emitted.sort_unstable();
                    assert_eq!(charged, emitted, "{name} {:?}", schedule.order());
                    let estimate = model.predict_configuration(&plan.config);
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
