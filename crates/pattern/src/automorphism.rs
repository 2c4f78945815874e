//! Enumeration of the automorphism group of a pattern.
//!
//! An automorphism of a pattern is a permutation `p` of its vertices such
//! that `(u, v)` is an edge if and only if `(p(u), p(v))` is an edge. All
//! automorphisms of a pattern form a group (Section IV-A); its size equals
//! the number of times a single subgraph of the data graph would be reported
//! as an embedding if no restrictions were applied.

use crate::pattern::Pattern;
use crate::permutation::Permutation;

/// Enumerates every automorphism of `pattern`, including the identity.
///
/// Uses straightforward backtracking with degree-based pruning. Patterns are
/// tiny (≤ ~10 vertices), so this is more than fast enough and trivially
/// correct.
pub fn automorphism_group(pattern: &Pattern) -> Vec<Permutation> {
    let n = pattern.num_vertices();
    let degrees: Vec<usize> = (0..n).map(|v| pattern.degree(v)).collect();
    let mut result = Vec::new();
    let mut mapping = vec![usize::MAX; n];
    let mut used = vec![false; n];
    backtrack(pattern, &degrees, 0, &mut mapping, &mut used, &mut result);
    result
}

fn backtrack(
    pattern: &Pattern,
    degrees: &[usize],
    next: usize,
    mapping: &mut Vec<usize>,
    used: &mut Vec<bool>,
    result: &mut Vec<Permutation>,
) {
    let n = pattern.num_vertices();
    if next == n {
        result.push(Permutation::from_mapping(mapping.clone()));
        return;
    }
    for candidate in 0..n {
        if used[candidate] || degrees[candidate] != degrees[next] {
            continue;
        }
        // Adjacency with all previously mapped vertices must be preserved
        // in both directions.
        let consistent = (0..next)
            .all(|prev| pattern.has_edge(next, prev) == pattern.has_edge(candidate, mapping[prev]));
        if !consistent {
            continue;
        }
        mapping[next] = candidate;
        used[candidate] = true;
        backtrack(pattern, degrees, next + 1, mapping, used, result);
        used[candidate] = false;
        mapping[next] = usize::MAX;
    }
}

/// Convenience: the number of automorphisms of a pattern.
pub fn automorphism_count(pattern: &Pattern) -> usize {
    automorphism_group(pattern).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefab;

    /// The definition, checked directly: the oracle for the enumerator.
    fn is_automorphism(pattern: &Pattern, perm: &Permutation) -> bool {
        if perm.len() != pattern.num_vertices() {
            return false;
        }
        let n = pattern.num_vertices();
        for u in 0..n {
            for v in (u + 1)..n {
                if pattern.has_edge(u, v) != pattern.has_edge(perm.apply(u), perm.apply(v)) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn rectangle_group_matches_figure_4() {
        // Figure 4(c) lists exactly 8 automorphisms for the rectangle.
        let rect = prefab::rectangle();
        let auts = automorphism_group(&rect);
        assert_eq!(auts.len(), 8);
        assert!(auts.iter().any(|p| p.is_identity()));
        assert!(auts.iter().all(|p| is_automorphism(&rect, p)));
    }

    #[test]
    fn clique_group_is_full_symmetric_group() {
        for n in 2..6usize {
            let k = prefab::clique(n);
            let factorial: usize = (1..=n).product();
            assert_eq!(automorphism_count(&k), factorial, "K_{n}");
        }
        // The paper notes a 7-clique embedding has 5040 automorphisms.
        assert_eq!(automorphism_count(&prefab::clique(7)), 5040);
    }

    #[test]
    fn house_has_two_automorphisms() {
        // The house's only symmetry is the mirror along the roof axis.
        let house = prefab::house();
        assert_eq!(automorphism_count(&house), 2);
    }

    #[test]
    fn path_and_star_and_cycle() {
        assert_eq!(automorphism_count(&prefab::path_pattern(4)), 2);
        // Star S_n: the leaves permute freely.
        assert_eq!(automorphism_count(&prefab::star_pattern(5)), 24);
        // Cycle C_n: dihedral group of order 2n.
        assert_eq!(automorphism_count(&prefab::cycle_pattern(5)), 10);
        assert_eq!(automorphism_count(&prefab::cycle_pattern(6)), 12);
    }

    #[test]
    fn group_is_closed_under_composition_and_inverse() {
        for pattern in [prefab::rectangle(), prefab::house(), prefab::cycle_6_tri()] {
            let auts = automorphism_group(&pattern);
            for a in &auts {
                assert!(auts.contains(&a.inverse()));
                for b in &auts {
                    assert!(auts.contains(&a.compose(b)));
                }
            }
        }
    }

    #[test]
    fn asymmetric_pattern_has_only_identity() {
        // A 6-vertex pattern with trivial automorphism group: a triangle with
        // pendant paths of different lengths attached to two of its corners.
        let p = Pattern::new(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (4, 5)]);
        assert_eq!(automorphism_count(&p), 1);
    }

    #[test]
    fn non_automorphism_rejected() {
        let house = prefab::house();
        let not_aut = Permutation::from_mapping(vec![1, 2, 3, 4, 0]);
        assert!(!is_automorphism(&house, &not_aut));
        let wrong_len = Permutation::identity(3);
        assert!(!is_automorphism(&house, &wrong_len));
    }
}
