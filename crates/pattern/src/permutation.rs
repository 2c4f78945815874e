//! Permutations of pattern vertices and their cycle structure.
//!
//! GraphPi formalises automorphisms as elements of a permutation group
//! (Section IV-A). The key observation is that every permutation decomposes
//! into disjoint cycles, and 2-cycles (transpositions appearing in that
//! decomposition) are the handles on which partial-order restrictions are
//! applied.

use std::fmt;

/// A permutation of `0..n`, stored as `map[i] = image of i`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Permutation {
    map: Vec<usize>,
}

impl Permutation {
    /// Builds a permutation from an explicit mapping.
    ///
    /// # Panics
    /// Panics if `map` is not a permutation of `0..map.len()`.
    pub(crate) fn from_mapping(map: Vec<usize>) -> Self {
        let n = map.len();
        let mut seen = vec![false; n];
        for &x in &map {
            assert!(x < n, "image {x} out of range for n={n}");
            assert!(!seen[x], "duplicate image {x}");
            seen[x] = true;
        }
        Self { map }
    }

    /// Number of elements.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Image of `i`.
    #[inline]
    pub fn apply(&self, i: usize) -> usize {
        self.map[i]
    }

    /// The underlying mapping slice.
    pub(crate) fn mapping(&self) -> &[usize] {
        &self.map
    }

    /// Decomposes into disjoint cycles, each written with its smallest
    /// element first; 1-cycles (fixed points) are included.
    pub(crate) fn cycles(&self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut cycles = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut cycle = vec![start];
            seen[start] = true;
            let mut cur = self.map[start];
            while cur != start {
                seen[cur] = true;
                cycle.push(cur);
                cur = self.map[cur];
            }
            cycles.push(cycle);
        }
        cycles
    }

    /// The 2-cycles of the disjoint-cycle decomposition, i.e. pairs
    /// `(a, b)` with `a < b`, `map[a] == b` and `map[b] == a`.
    ///
    /// These are exactly the elements Algorithm 1 turns into restrictions.
    pub(crate) fn two_cycles(&self) -> Vec<(usize, usize)> {
        (0..self.len())
            .filter(|&a| {
                let b = self.map[a];
                b != a && self.map[b] == a && a < b
            })
            .map(|a| (a, self.map[a]))
            .collect()
    }
}

impl fmt::Debug for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cycles = self.cycles();
        let parts: Vec<String> = cycles
            .iter()
            .map(|c| {
                let inner: Vec<String> = c.iter().map(|x| x.to_string()).collect();
                format!("({})", inner.join(","))
            })
            .collect();
        write!(f, "{}", parts.join(""))
    }
}

/// The group operations the automorphism and restriction tests check
/// closure and survivors with; the planner itself never composes.
#[cfg(test)]
impl Permutation {
    /// The identity permutation on `n` elements.
    pub(crate) fn identity(n: usize) -> Self {
        Self {
            map: (0..n).collect(),
        }
    }

    /// Whether this is the identity.
    pub(crate) fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &x)| i == x)
    }

    /// Composition `self ∘ other`: applies `other` first, then `self`.
    pub(crate) fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len());
        Permutation {
            map: (0..self.len()).map(|i| self.map[other.map[i]]).collect(),
        }
    }

    /// The inverse permutation.
    pub(crate) fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.len()];
        for (i, &x) in self.map.iter().enumerate() {
            inv[x] = i;
        }
        Permutation { map: inv }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_properties() {
        let id = Permutation::identity(5);
        assert!(id.is_identity());
        assert_eq!(id.two_cycles(), vec![]);
        assert_eq!(id.cycles().len(), 5);
    }

    #[test]
    fn rectangle_automorphism_example() {
        // The (A)(B,D)(C) permutation from Figure 4(b): on vertices
        // 0=A,1=B,2=C,3=D the mapping is [0,3,2,1].
        let p = Permutation::from_mapping(vec![0, 3, 2, 1]);
        assert_eq!(p.two_cycles(), vec![(1, 3)]);
        assert!(!p.is_identity());
    }

    #[test]
    fn four_cycle_has_no_two_cycles() {
        // (A,B,C,D) as in Figure 4(c) entry 3: map = [1,2,3,0].
        let p = Permutation::from_mapping(vec![1, 2, 3, 0]);
        assert!(p.two_cycles().is_empty());
        assert_eq!(p.cycles(), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn compose_and_inverse() {
        let p = Permutation::from_mapping(vec![1, 2, 0, 3]);
        let q = p.inverse();
        assert!(p.compose(&q).is_identity());
        assert!(q.compose(&p).is_identity());
        // Applying the composition matches applying one after the other.
        let r = Permutation::from_mapping(vec![0, 3, 2, 1]);
        let pr = p.compose(&r);
        for i in 0..4 {
            assert_eq!(pr.apply(i), p.apply(r.apply(i)));
        }
    }

    #[test]
    #[should_panic]
    fn invalid_mapping_rejected() {
        let _ = Permutation::from_mapping(vec![0, 0, 1]);
    }

    #[test]
    fn debug_formatting_uses_cycles() {
        let p = Permutation::from_mapping(vec![0, 3, 2, 1]);
        assert_eq!(format!("{p:?}"), "(0)(1,3)(2)");
    }

    fn arb_permutation(n: usize) -> impl Strategy<Value = Permutation> {
        Just((0..n).collect::<Vec<_>>())
            .prop_shuffle()
            .prop_map(Permutation::from_mapping)
    }

    proptest! {
        #[test]
        fn prop_inverse_composes_to_identity(p in arb_permutation(7)) {
            prop_assert!(p.compose(&p.inverse()).is_identity());
        }

        #[test]
        fn prop_cycles_partition_elements(p in arb_permutation(8)) {
            let cycles = p.cycles();
            let total: usize = cycles.iter().map(|c| c.len()).sum();
            prop_assert_eq!(total, 8);
            let mut all: Vec<usize> = cycles.into_iter().flatten().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..8).collect::<Vec<_>>());
        }

        #[test]
        fn prop_two_cycles_are_involutive_pairs(p in arb_permutation(8)) {
            for (a, b) in p.two_cycles() {
                prop_assert!(a < b);
                prop_assert_eq!(p.apply(a), b);
                prop_assert_eq!(p.apply(b), a);
            }
        }
    }
}
