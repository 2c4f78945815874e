//! 2-cycle based automorphism elimination (Algorithm 1 of the paper).
//!
//! A *restriction* is a partial-order constraint `id(a) > id(b)` between two
//! pattern vertices, applied to the data-graph ids an embedding assigns to
//! them. A *restriction set* eliminates redundant work if, for every
//! subgraph of the data graph isomorphic to the pattern, exactly one of its
//! automorphic embeddings satisfies every restriction in the set.
//!
//! GraphPi's contribution (Section IV-A) is an algorithm that produces
//! **multiple** such sets for an arbitrary pattern by recursively picking
//! 2-cycles from the not-yet-eliminated automorphisms: a restriction on the
//! two vertices of a 2-cycle eliminates that automorphism outright, and the
//! `no_conflict` test (acyclicity of a small digraph) determines which other
//! automorphisms fall with it. Exposing the whole family of sets lets the
//! performance model pick the one that prunes the search tree earliest.
//!
//! The recursion visits thousands of sets for a six-vertex pattern, so
//! inside it a set is one `u64` (a bit per ordered vertex pair), the digraph
//! is eight row masks on the stack, and the visited sets are keyed by the
//! word. The `validate` step — does the set keep exactly one of each
//! subgraph's `|Aut|` embeddings on `K_n` — is an AND and a popcount over
//! the [`OrderTable`]'s id-order bitsets instead of a match over `n!`
//! assignments. The perf ledger's `restriction.generate_us` row prices the
//! whole generator.

use crate::automorphism::automorphism_group;
use crate::orders::OrderTable;
use crate::pattern::{Pattern, PatternVertex};
use crate::permutation::Permutation;
use std::collections::{BTreeSet, HashSet};

/// A single partial-order constraint `id(greater) > id(smaller)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Restriction {
    /// Pattern vertex whose data-graph id must be larger.
    pub greater: PatternVertex,
    /// Pattern vertex whose data-graph id must be smaller.
    pub smaller: PatternVertex,
}

impl Restriction {
    /// Creates the restriction `id(greater) > id(smaller)`.
    pub fn new(greater: PatternVertex, smaller: PatternVertex) -> Self {
        assert_ne!(
            greater, smaller,
            "a restriction needs two distinct vertices"
        );
        Self { greater, smaller }
    }

    /// Whether an id assignment (`ids[v]` = data id of pattern vertex `v`)
    /// satisfies this restriction.
    pub fn satisfied_by(&self, ids: &[u64]) -> bool {
        ids[self.greater] > ids[self.smaller]
    }
}

/// An ordered collection of restrictions forming one complete (or partial)
/// symmetry-breaking set.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RestrictionSet {
    restrictions: Vec<Restriction>,
}

impl RestrictionSet {
    /// The empty restriction set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a set from a list of `(greater, smaller)` pairs.
    pub fn from_pairs(pairs: &[(PatternVertex, PatternVertex)]) -> Self {
        let mut set = Self::empty();
        for &(g, s) in pairs {
            set.push(Restriction::new(g, s));
        }
        set
    }

    /// Adds a restriction, keeping the set sorted and duplicate-free.
    pub fn push(&mut self, r: Restriction) {
        if !self.restrictions.contains(&r) {
            self.restrictions.push(r);
            self.restrictions.sort_unstable();
        }
    }

    /// The restrictions in canonical (sorted) order.
    pub fn restrictions(&self) -> &[Restriction] {
        &self.restrictions
    }

    /// Number of restrictions.
    pub fn len(&self) -> usize {
        self.restrictions.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.restrictions.is_empty()
    }

    fn pairs(&self) -> impl Iterator<Item = (PatternVertex, PatternVertex)> + Clone + '_ {
        self.restrictions.iter().map(|r| (r.greater, r.smaller))
    }

    /// Restrictions whose `greater`/`smaller` vertices are both contained in
    /// `vertices` (used when only a prefix of the schedule is bound).
    pub fn restricted_to(&self, vertices: &[PatternVertex]) -> RestrictionSet {
        RestrictionSet {
            restrictions: self
                .restrictions
                .iter()
                .copied()
                .filter(|r| vertices.contains(&r.greater) && vertices.contains(&r.smaller))
                .collect(),
        }
    }
}

/// Largest pattern the mask encoding serves (see [`OrderTable::MAX_VERTICES`]).
const MAX_VERTICES: usize = OrderTable::MAX_VERTICES;

fn bit_of(greater: PatternVertex, smaller: PatternVertex) -> u64 {
    assert!(
        greater < MAX_VERTICES && smaller < MAX_VERTICES,
        "restriction masks hold at most {MAX_VERTICES} vertices"
    );
    1 << (MAX_VERTICES * greater + smaller)
}

/// The `(greater, smaller)` pairs of a mask, in canonical order.
#[derive(Clone)]
struct MaskPairs(u64);

impl Iterator for MaskPairs {
    type Item = (PatternVertex, PatternVertex);

    fn next(&mut self) -> Option<Self::Item> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some((bit / MAX_VERTICES, bit % MAX_VERTICES))
    }
}

/// The constraint digraph of a restriction set: an edge `g -> s` per
/// restriction, kept both as the mask and as one out-neighbour mask per
/// vertex. Lives on the stack; Algorithm 1 builds one per branch.
struct Constraints {
    n: usize,
    mask: u64,
    rows: [u8; MAX_VERTICES],
}

impl Constraints {
    fn new(n: usize, mask: u64) -> Self {
        assert!(n <= MAX_VERTICES, "at most {MAX_VERTICES} vertices");
        let mut rows = [0; MAX_VERTICES];
        for (g, s) in MaskPairs(mask) {
            rows[g] |= 1 << s;
        }
        Self { n, mask, rows }
    }

    /// Whether the permutation with the given images survives: the digraph
    /// stays acyclic once every edge's image under it is added.
    fn spares(&self, image: &[u8; MAX_VERTICES]) -> bool {
        let mut rows = self.rows;
        for (g, s) in MaskPairs(self.mask) {
            rows[image[g] as usize] |= 1 << image[s];
        }
        // Kahn's algorithm a layer at a time: drop every vertex no live
        // vertex points at until none is left (acyclic) or none can go.
        let mut live = ((1u16 << self.n) - 1) as u8;
        while live != 0 {
            let mut pointed_at = 0u8;
            let mut rest = live;
            while rest != 0 {
                pointed_at |= rows[rest.trailing_zeros() as usize];
                rest &= rest - 1;
            }
            if live & !pointed_at == 0 {
                return false;
            }
            live &= pointed_at;
        }
        true
    }
}

fn images(perm: &Permutation) -> [u8; MAX_VERTICES] {
    let mut image = [0u8; MAX_VERTICES];
    for (v, &to) in perm.mapping().iter().enumerate() {
        image[v] = to as u8;
    }
    image
}

/// The `validate` step of Algorithm 1: matches the pattern (with and without
/// restrictions) on the complete graph with `n = |V_p|` vertices.
///
/// On `K_n` every injective assignment of data ids to pattern vertices is an
/// embedding, so the unrestricted count is `n!` and the set is complete and
/// correct iff the restricted count equals `n! / |Aut(pattern)|`.
pub fn validate(pattern: &Pattern, res_set: &RestrictionSet) -> bool {
    let orders = OrderTable::for_size(pattern.num_vertices());
    let aut_count = automorphism_group(pattern).len() as u64;
    keeps_one_order_per_subgraph(orders, aut_count, res_set.pairs())
}

/// [`validate`] for a caller that already holds `|Aut(pattern)|`.
fn keeps_one_order_per_subgraph(
    orders: &OrderTable,
    aut_count: u64,
    pairs: impl Iterator<Item = (PatternVertex, PatternVertex)> + Clone,
) -> bool {
    let total = orders.num_orders();
    total % aut_count == 0 && orders.count_satisfying(pairs) == total / aut_count
}

/// Options controlling the restriction-set generator.
#[derive(Debug, Clone, Copy)]
pub struct GenerationOptions {
    /// Stop the recursion once it has *completed* this many distinct sets
    /// (sets under which only the identity automorphism survives).
    /// Validation runs afterwards and keeps only the sets that leave one
    /// order per subgraph, so the result can be far smaller than the cap:
    /// at the default 4096, P5 completes 4,096 sets and keeps 594, P6
    /// completes 4,096 and keeps 16. The paper's generator enumerates
    /// every set; large symmetric patterns (cliques) can complete a
    /// combinatorial number, so the cap keeps preprocessing bounded.
    pub max_sets: usize,
    /// Skip the final `validate` call (used only by tests that validate
    /// separately).
    pub skip_validation: bool,
}

impl Default for GenerationOptions {
    fn default() -> Self {
        Self {
            max_sets: 4096,
            skip_validation: false,
        }
    }
}

/// Runs Algorithm 1: generates the distinct restriction sets that eliminate
/// all automorphisms of the pattern. The recursion stops after completing
/// `options.max_sets` sets, in traversal order; the sets returned are the
/// ones among those that pass validation, so a capped run returns fewer
/// than `max_sets` whenever some completed set fails it.
///
/// The result is never empty for a valid pattern: if the 2-cycle driven
/// recursion fails to produce any set (possible only when the automorphism
/// group contains no involutions at all, a case the paper does not
/// encounter), a fallback total-order set over one vertex orbit is produced
/// and validated.
///
/// # Panics
/// If a pattern with a non-trivial automorphism group has more than
/// `OrderTable::MAX_VERTICES` vertices.
pub fn generate_restriction_sets(
    pattern: &Pattern,
    options: GenerationOptions,
) -> Vec<RestrictionSet> {
    let auts = automorphism_group(pattern);
    generate_from_group(pattern, &auts, options)
}

/// Same as [`generate_restriction_sets`] but reuses a precomputed
/// automorphism group.
pub(crate) fn generate_from_group(
    pattern: &Pattern,
    auts: &[Permutation],
    options: GenerationOptions,
) -> Vec<RestrictionSet> {
    if auts.len() <= 1 {
        // Asymmetric pattern: the empty set is complete.
        return vec![RestrictionSet::empty()];
    }
    let n = pattern.num_vertices();
    let orders = OrderTable::for_size(n);
    let aut_count = auts.len() as u64;

    let mut search = Search {
        n,
        images: auts.iter().map(images).collect(),
        two_cycles: auts.iter().map(Permutation::two_cycles).collect(),
        found: Vec::new(),
        visited: HashSet::new(),
        max_sets: options.max_sets,
    };
    let everyone: Vec<usize> = (0..auts.len()).collect();
    search.recurse(&everyone, 0);

    // Most of what the recursion completes is not complete (Algorithm 1
    // validates for a reason), so validate the masks and build sets from
    // the few that pass, sorted as sets sort.
    let mut found = search.found;
    if !options.skip_validation {
        found.retain(|&mask| keeps_one_order_per_subgraph(orders, aut_count, MaskPairs(mask)));
    }
    let mut sets: Vec<RestrictionSet> = found
        .iter()
        .map(|&mask| RestrictionSet {
            restrictions: MaskPairs(mask)
                .map(|(g, s)| Restriction::new(g, s))
                .collect(),
        })
        .collect();
    sets.sort_unstable_by(|a, b| a.restrictions.cmp(&b.restrictions));

    if sets.is_empty() {
        // Fallback (see doc comment): impose a total order over the orbit of
        // vertex 0 under the automorphism group, which breaks every
        // remaining symmetry, then validate.
        let orbit: BTreeSet<PatternVertex> = auts.iter().map(|p| p.apply(0)).collect();
        let orbit: Vec<PatternVertex> = orbit.into_iter().collect();
        let mut set = RestrictionSet::empty();
        for w in orbit.windows(2) {
            set.push(Restriction::new(w[0], w[1]));
        }
        if keeps_one_order_per_subgraph(orders, aut_count, set.pairs()) {
            sets.push(set);
        }
    }
    sets
}

/// The state of one run of Algorithm 1's recursion. Automorphisms are
/// indices into `images` / `two_cycles`; restriction sets are masks.
struct Search {
    n: usize,
    images: Vec<[u8; MAX_VERTICES]>,
    two_cycles: Vec<Vec<(usize, usize)>>,
    /// Completed sets, in the order the traversal reached them.
    found: Vec<u64>,
    visited: HashSet<u64>,
    max_sets: usize,
}

impl Search {
    fn recurse(&mut self, survivors: &[usize], res_set: u64) {
        if self.found.len() >= self.max_sets {
            return;
        }
        if !self.visited.insert(res_set) {
            return;
        }
        if survivors.len() <= 1 {
            // Only the identity remains; record the completed set.
            self.found.push(res_set);
            return;
        }
        for &perm in survivors {
            for c in 0..self.two_cycles[perm].len() {
                let (a, b) = self.two_cycles[perm][c];
                // Both orientations of the pair are valid branches (the paper's
                // pseudocode iterates over each vertex of the 2-cycle).
                for (greater, smaller) in [(a, b), (b, a)] {
                    let new_set = res_set | bit_of(greater, smaller);
                    // Already present, or a set some other branch reached:
                    // the recursion would return at once.
                    if new_set == res_set || self.visited.contains(&new_set) {
                        continue;
                    }
                    let constraints = Constraints::new(self.n, new_set);
                    let remaining: Vec<usize> = survivors
                        .iter()
                        .copied()
                        .filter(|&p| constraints.spares(&self.images[p]))
                        .collect();
                    if remaining.len() == survivors.len() {
                        continue; // the new restriction eliminated nothing
                    }
                    self.recurse(&remaining, new_set);
                    if self.found.len() >= self.max_sets {
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefab;

    /// A restriction set over at most eight vertices as one word: restriction
    /// `id(g) > id(s)` is bit `8 * g + s`. Ascending bits are the set's
    /// canonical (sorted) order.
    fn mask_of(res_set: &RestrictionSet) -> u64 {
        res_set.pairs().fold(0, |mask, (g, s)| mask | bit_of(g, s))
    }

    /// The `no_conflict` predicate of Algorithm 1.
    ///
    /// Returns `true` when the permutation **survives** (is *not* eliminated by)
    /// the restriction set: for every restriction `a > b` the set also implies
    /// `perm(a) > perm(b)`, and the union of those constraints is consistent,
    /// i.e. the directed graph with edges `a -> b` and `perm(a) -> perm(b)` for
    /// every restriction is acyclic.
    ///
    /// # Panics
    /// If the permutation acts on more than eight vertices.
    fn no_conflict(perm: &Permutation, res_set: &RestrictionSet) -> bool {
        let n = perm.len();
        Constraints::new(n, mask_of(res_set)).spares(&images(perm))
    }

    /// Returns the automorphisms of `auts` that survive (are not eliminated by)
    /// `res_set`. The identity always survives.
    fn surviving_automorphisms<'a>(
        auts: &'a [Permutation],
        res_set: &RestrictionSet,
    ) -> Vec<&'a Permutation> {
        auts.iter().filter(|p| no_conflict(p, res_set)).collect()
    }

    /// Counts the permutations of `0..n` (used as data ids) that satisfy every
    /// restriction in the set. This equals the number of embeddings found on
    /// `K_n` when the restrictions are applied.
    ///
    /// # Panics
    /// If `n` exceeds [`OrderTable::MAX_VERTICES`].
    fn count_satisfying_assignments(n: usize, res_set: &RestrictionSet) -> u64 {
        OrderTable::for_size(n).count_satisfying(res_set.pairs())
    }

    /// Every assignment of the ids `0..n` to `n` vertices: the scan the
    /// order table replaced, kept as the oracle it must agree with.
    fn all_id_orders(n: usize) -> Vec<Vec<u64>> {
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

    #[test]
    fn validation_agrees_with_scanning_every_id_order() {
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
        for (name, pattern) in patterns {
            let n = pattern.num_vertices();
            let orders = all_id_orders(n);
            let aut_count = automorphism_group(&pattern).len();
            // Unvalidated, so the family holds incomplete sets too.
            let options = GenerationOptions {
                skip_validation: true,
                ..GenerationOptions::default()
            };
            let sets = generate_restriction_sets(&pattern, options);
            let mut complete = 0;
            for set in &sets {
                let satisfying = orders
                    .iter()
                    .filter(|ids| set.restrictions().iter().all(|r| r.satisfied_by(ids)))
                    .count();
                assert_eq!(
                    count_satisfying_assignments(n, set),
                    satisfying as u64,
                    "{name} {set:?}"
                );
                let is_complete = satisfying * aut_count == orders.len();
                assert_eq!(validate(&pattern, set), is_complete, "{name} {set:?}");
                complete += usize::from(is_complete);
            }
            assert!(complete > 0, "{name}: no complete set");
        }
    }

    fn assert_all_valid(pattern: &Pattern, sets: &[RestrictionSet]) {
        for s in sets {
            assert!(validate(pattern, s), "invalid set {s:?} for {pattern:?}");
        }
    }

    #[test]
    fn rectangle_generates_multiple_sets() {
        // Figure 4(d) derives several distinct sets for the rectangle, e.g.
        // {B>D, A>C, A>B} and {B>D, A>C, C>D}.
        let rect = prefab::rectangle();
        let sets = generate_restriction_sets(&rect, GenerationOptions::default());
        assert!(
            sets.len() >= 2,
            "expected multiple sets, got {}",
            sets.len()
        );
        assert_all_valid(&rect, &sets);
        // Each complete set for the rectangle needs at least 3 restrictions
        // (|Aut| = 8 = 2^3).
        assert!(sets.iter().all(|s| s.len() >= 3));
    }

    #[test]
    fn house_single_restriction_suffices() {
        // |Aut(house)| = 2, so one restriction on the mirrored pair is
        // enough; the paper's Figure 5 uses id(A) > id(B).
        let house = prefab::house();
        let sets = generate_restriction_sets(&house, GenerationOptions::default());
        assert!(!sets.is_empty());
        assert_all_valid(&house, &sets);
        assert!(sets.iter().any(|s| s.len() == 1));
    }

    #[test]
    fn triangle_and_cliques() {
        for n in 3..6usize {
            let k = prefab::clique(n);
            let sets = generate_restriction_sets(&k, GenerationOptions::default());
            assert!(!sets.is_empty(), "K_{n} produced no sets");
            assert_all_valid(&k, &sets);
            // A clique needs a full total order: n-1 restrictions at least.
            assert!(sets.iter().all(|s| s.len() >= n - 1), "K_{n}");
        }
    }

    #[test]
    fn asymmetric_pattern_needs_no_restrictions() {
        let p = Pattern::new(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (4, 5)]);
        let sets = generate_restriction_sets(&p, GenerationOptions::default());
        assert_eq!(sets.len(), 1);
        assert!(sets[0].is_empty());
        assert!(validate(&p, &sets[0]));
    }

    #[test]
    fn evaluation_patterns_all_produce_valid_sets() {
        for (name, pattern) in prefab::evaluation_patterns() {
            let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
            assert!(!sets.is_empty(), "{name} produced no restriction sets");
            assert_all_valid(&pattern, &sets);
        }
    }

    #[test]
    fn no_conflict_matches_paper_example() {
        // After Round 1 in Figure 4(d): {B>D, A>C} (vertices 0=A,1=B,2=C,3=D).
        let set = RestrictionSet::from_pairs(&[(1, 3), (0, 2)]);
        // Permutation 2 of Figure 4(c) is the 4-cycle (A,D,C,B):
        // A->D, D->C, C->B, B->A, i.e. map = [3, 0, 1, 2].
        let perm = Permutation::from_mapping(vec![3, 0, 1, 2]);
        // The paper argues this permutation *is* eliminated by those two
        // restrictions (the derived constraints are contradictory).
        assert!(!no_conflict(&perm, &set));
        // The identity is never eliminated.
        assert!(no_conflict(&Permutation::identity(4), &set));
    }

    #[test]
    fn surviving_automorphism_count_divides_group_order() {
        for (_, pattern) in prefab::evaluation_patterns() {
            let auts = automorphism_group(&pattern);
            let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
            for set in &sets {
                let surviving = surviving_automorphisms(&auts, set);
                // A complete set leaves only the identity.
                assert_eq!(surviving.len(), 1);
                assert!(surviving[0].is_identity());
            }
        }
    }

    #[test]
    fn partial_sets_leave_more_survivors() {
        let rect = prefab::rectangle();
        let auts = automorphism_group(&rect);
        // A single restriction cannot kill all 7 non-identity automorphisms.
        let partial = RestrictionSet::from_pairs(&[(1, 3)]);
        let surviving = surviving_automorphisms(&auts, &partial);
        assert!(surviving.len() > 1);
        assert!(surviving.len() < auts.len());
    }

    #[test]
    fn count_satisfying_assignments_basics() {
        // No restrictions: all n! assignments satisfy.
        assert_eq!(
            count_satisfying_assignments(4, &RestrictionSet::empty()),
            24
        );
        // One restriction halves the count.
        let one = RestrictionSet::from_pairs(&[(0, 1)]);
        assert_eq!(count_satisfying_assignments(4, &one), 12);
        // A full chain leaves exactly one.
        let chain = RestrictionSet::from_pairs(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(count_satisfying_assignments(4, &chain), 1);
    }

    #[test]
    fn restricted_to_prefix() {
        let set = RestrictionSet::from_pairs(&[(0, 1), (2, 3), (0, 3)]);
        let prefix = set.restricted_to(&[0, 1, 3]);
        assert_eq!(prefix.len(), 2);
        assert!(prefix
            .restrictions()
            .iter()
            .all(|r| r.greater != 2 && r.smaller != 2));
    }

    #[test]
    fn contradictory_set_fails_validation() {
        let rect = prefab::rectangle();
        let bad = RestrictionSet::from_pairs(&[(0, 1), (1, 0)]);
        assert!(!validate(&rect, &bad));
    }
}
