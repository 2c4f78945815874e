//! Schedules and the 2-phase computation-avoid schedule generator
//! (Section IV-B of the paper).
//!
//! A *schedule* is the order in which the pattern's vertices are bound by
//! the nested-loop search. Of the `n!` possible orders, GraphPi keeps only
//! the "efficient" ones:
//!
//! * **Phase 1** — every prefix of the schedule must induce a connected
//!   subgraph of the pattern, otherwise some loop would have to iterate over
//!   the whole vertex set of the data graph instead of a neighborhood
//!   intersection.
//! * **Phase 2** — let `k` be the size of a maximum independent set of the
//!   pattern; the last `k` scheduled vertices must be pairwise non-adjacent,
//!   which pushes every intersection operation out of the innermost loops
//!   (and enables IEP counting, Section IV-D).

use graphpi_pattern::pattern::{Pattern, PatternVertex};

/// A search order over the pattern's vertices.
///
/// `order()[i]` is the pattern vertex bound by the `i`-th loop.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schedule {
    order: Vec<PatternVertex>,
}

impl Schedule {
    /// Creates a schedule from an explicit vertex order.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..pattern.num_vertices()`.
    pub fn new(pattern: &Pattern, order: Vec<PatternVertex>) -> Self {
        let n = pattern.num_vertices();
        assert_eq!(order.len(), n, "schedule length must equal pattern size");
        let mut seen = vec![false; n];
        for &v in &order {
            assert!(v < n, "schedule vertex {v} out of range");
            assert!(!seen[v], "schedule repeats vertex {v}");
            seen[v] = true;
        }
        Self { order }
    }

    /// The vertex order.
    pub fn order(&self) -> &[PatternVertex] {
        &self.order
    }

    /// Number of vertices (= number of loops).
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The loop position (0-based) of a pattern vertex.
    pub(crate) fn position_of(&self, v: PatternVertex) -> usize {
        self.order
            .iter()
            .position(|&u| u == v)
            .expect("vertex not in schedule")
    }

    /// Whether every prefix induces a connected subgraph (phase-1 test).
    pub fn prefixes_connected(&self, pattern: &Pattern) -> bool {
        (1..=self.order.len()).all(|i| pattern.induces_connected_subgraph(&self.order[..i]))
    }

    /// Length of the maximal pairwise-non-adjacent suffix of this schedule.
    /// This is the `k` available to IEP counting for this specific schedule.
    pub(crate) fn independent_suffix_len(&self, pattern: &Pattern) -> usize {
        let n = self.order.len();
        let mut k = 0;
        while k < n && pattern.is_independent_set(&self.order[n - (k + 1)..]) {
            k += 1;
        }
        k
    }
}

/// Generates all `n!` schedules of a pattern (used by Figure 9 and by the
/// oracle experiments; not by the production path).
pub fn all_schedules(pattern: &Pattern) -> Vec<Schedule> {
    let n = pattern.num_vertices();
    let mut result = Vec::new();
    let mut current = Vec::with_capacity(n);
    let mut used = vec![false; n];
    permute(pattern, &mut current, &mut used, &mut result, &|_, _| true);
    result
}

/// Phase 1 only: schedules whose every prefix induces a connected subgraph.
pub fn connected_schedules(pattern: &Pattern) -> Vec<Schedule> {
    let n = pattern.num_vertices();
    let mut result = Vec::new();
    let mut current = Vec::with_capacity(n);
    let mut used = vec![false; n];
    permute(
        pattern,
        &mut current,
        &mut used,
        &mut result,
        &|pattern, prefix| {
            // Incremental phase-1 check: the newly appended vertex must be
            // adjacent to at least one earlier vertex (except the first).
            let last = *prefix.last().unwrap();
            prefix.len() == 1
                || prefix[..prefix.len() - 1]
                    .iter()
                    .any(|&u| pattern.has_edge(u, last))
        },
    );
    result
}

/// The full 2-phase computation-avoid generator: phase-1 connectivity plus
/// the phase-2 independent-suffix requirement.
///
/// The paper states phase 2 with `k` equal to the pattern's maximum
/// independent set size; for some patterns (pure cycles, for example) no
/// schedule can satisfy both phases with that `k`, so — following the
/// "preferentially select" wording of Section IV-B — this generator keeps
/// the schedules whose independent suffix is the **longest achievable**
/// among all phase-1 schedules. For every pattern in the paper's evaluation
/// the achievable length equals the maximum independent set size, so the
/// behaviour matches the paper exactly there.
pub fn efficient_schedules(pattern: &Pattern) -> Vec<Schedule> {
    let connected = connected_schedules(pattern);
    let achievable = connected
        .iter()
        .map(|s| s.independent_suffix_len(pattern))
        .max()
        .unwrap_or(0);
    connected
        .into_iter()
        .filter(|s| s.independent_suffix_len(pattern) >= achievable)
        .collect()
}

fn permute(
    pattern: &Pattern,
    current: &mut Vec<PatternVertex>,
    used: &mut Vec<bool>,
    result: &mut Vec<Schedule>,
    prefix_ok: &dyn Fn(&Pattern, &[PatternVertex]) -> bool,
) {
    let n = pattern.num_vertices();
    if current.len() == n {
        result.push(Schedule {
            order: current.clone(),
        });
        return;
    }
    for v in 0..n {
        if used[v] {
            continue;
        }
        current.push(v);
        if prefix_ok(pattern, current) {
            used[v] = true;
            permute(pattern, current, used, result, prefix_ok);
            used[v] = false;
        }
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpi_pattern::prefab;

    #[test]
    fn all_schedules_counts_factorial() {
        assert_eq!(all_schedules(&prefab::triangle()).len(), 6);
        assert_eq!(all_schedules(&prefab::rectangle()).len(), 24);
        assert_eq!(all_schedules(&prefab::house()).len(), 120);
    }

    #[test]
    fn connected_schedules_of_a_path() {
        // Path 0-1-2: connected prefixes force starting anywhere but
        // growing contiguously: orders 012, 102, 120, 210, 201? Check: 201 ->
        // prefix [2,0] not adjacent -> invalid. Valid: 012, 021? [0,2] not
        // adjacent -> invalid. So valid: 012, 102, 120, 210 = 4.
        let p = prefab::path_pattern(3);
        let cs = connected_schedules(&p);
        assert_eq!(cs.len(), 4);
        for s in &cs {
            assert!(s.prefixes_connected(&p));
        }
    }

    #[test]
    fn clique_keeps_all_schedules() {
        // Every prefix of a clique is connected and k = 1, so nothing is
        // eliminated.
        let k4 = prefab::clique(4);
        assert_eq!(efficient_schedules(&k4).len(), 24);
        assert_eq!(all_schedules(&k4).len(), 24);
    }

    #[test]
    fn house_phase2_forces_d_e_innermost() {
        // For the house (Figure 5) k = 2 and the only non-adjacent pairs are
        // (C,E)=(2,4) and (D,E)=(3,4); every efficient schedule must end
        // with one of those pairs in some order.
        let house = prefab::house();
        let eff = efficient_schedules(&house);
        assert!(!eff.is_empty());
        for s in &eff {
            let n = s.len();
            let tail = [s.order()[n - 2], s.order()[n - 1]];
            assert!(
                !house.has_edge(tail[0], tail[1]),
                "schedule {:?}",
                s.order()
            );
        }
        // The paper's example schedule A,B,C,D,E (= 0,1,2,3,4) is efficient.
        let paper = Schedule::new(&house, vec![0, 1, 2, 3, 4]);
        assert!(eff.contains(&paper));
        // A schedule binding C and D first then E violates phase 1 (E is
        // adjacent to neither C nor D).
        let bad = Schedule::new(&house, vec![2, 3, 4, 0, 1]);
        assert!(!bad.prefixes_connected(&house));
        assert!(!eff.contains(&bad));
    }

    #[test]
    fn generated_subset_relationships() {
        for (_, pattern) in prefab::evaluation_patterns() {
            let all = all_schedules(&pattern);
            let connected = connected_schedules(&pattern);
            let efficient = efficient_schedules(&pattern);
            assert!(connected.len() <= all.len());
            assert!(efficient.len() <= connected.len());
            assert!(
                !efficient.is_empty(),
                "pattern must have efficient schedules"
            );
            assert!(efficient.iter().all(|s| all.contains(s)));
            let k = pattern.max_independent_set_size();
            for s in &efficient {
                assert!(s.prefixes_connected(&pattern));
                // For every evaluation pattern the achievable suffix equals
                // the maximum independent set size, as in the paper.
                assert!(s.independent_suffix_len(&pattern) >= k);
            }
        }
    }

    #[test]
    fn cycles_degrade_gracefully() {
        // For a pure cycle no schedule can keep a length-2 independent
        // suffix while keeping every prefix connected; the generator must
        // still return the best achievable schedules instead of none.
        let c6 = prefab::cycle_pattern(6);
        let eff = efficient_schedules(&c6);
        assert!(!eff.is_empty());
        for s in &eff {
            assert!(s.prefixes_connected(&c6));
            assert_eq!(s.independent_suffix_len(&c6), 1);
        }
    }

    #[test]
    fn cycle6tri_suffix_is_def() {
        // Figure 6: D, E, F must be the innermost three loops.
        let p = prefab::cycle_6_tri();
        assert_eq!(p.max_independent_set_size(), 3);
        let eff = efficient_schedules(&p);
        let paper = Schedule::new(&p, vec![0, 1, 2, 3, 4, 5]);
        assert!(eff.contains(&paper));
        for s in &eff {
            let tail: Vec<_> = s.order()[3..].to_vec();
            assert!(p.is_independent_set(&tail));
        }
    }

    #[test]
    fn schedule_accessors() {
        let p = prefab::house();
        let s = Schedule::new(&p, vec![0, 2, 1, 3, 4]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.position_of(1), 2);
        assert_eq!(s.order()[0], 0);
        assert!(s.independent_suffix_len(&p) >= 1);
    }

    #[test]
    #[should_panic]
    fn duplicate_vertex_rejected() {
        let p = prefab::triangle();
        let _ = Schedule::new(&p, vec![0, 0, 1]);
    }
}
