//! Named patterns.
//!
//! This module collects the worked examples of the paper (Rectangle from
//! Figure 4, House from Figure 5, Cycle-6-Tri from Figure 6), generic
//! families (cliques, cycles, paths, stars, connected 3-/4-vertex motifs)
//! and the six evaluation patterns P1–P6.
//!
//! **Note on P1–P6**: Figure 7 of the paper shows the evaluation patterns
//! only graphically and the figure is not reproducible from the text, so the
//! concrete adjacency structures below are documented stand-ins chosen to
//! match every textual constraint the paper places on them: sizes 5–6, the
//! first two "relatively simple" (as in GraphZero), P4 containing a
//! rectangle among four of its vertices (Section V-C), and P5/P6 having the
//! largest preprocessing cost (densest symmetry). See `DESIGN.md`.

use crate::pattern::Pattern;

/// Triangle (3-clique).
pub fn triangle() -> Pattern {
    Pattern::new(3, &[(0, 1), (1, 2), (0, 2)])
}

/// The rectangle (4-cycle) of Figure 4: vertices A=0, B=1, C=2, D=3 with
/// edges A-B, B-C, C-D, D-A.
pub fn rectangle() -> Pattern {
    Pattern::new(4, &[(0, 1), (1, 2), (2, 3), (0, 3)])
}

/// The House pattern of Figure 5: a square A-B-D-C (A=0, B=1, C=2, D=3) with
/// a roof vertex E=4 adjacent to A and B.
///
/// Edge set: A-B, A-C, B-D, C-D, A-E, B-E.
pub fn house() -> Pattern {
    Pattern::new(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (1, 4)])
}

/// The Cycle-6-Tri pattern of Figure 6: a 6-cycle D-B-F-C-E-A with the two
/// chords A-B and A-C (A=0, B=1, C=2, D=3, E=4, F=5).
///
/// Edge set: A-B, A-C, A-D, B-D, A-E, C-E, B-F, C-F.
pub fn cycle_6_tri() -> Pattern {
    Pattern::new(
        6,
        &[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 3),
            (0, 4),
            (2, 4),
            (1, 5),
            (2, 5),
        ],
    )
}

/// Complete pattern (clique) on `n` vertices.
pub fn clique(n: usize) -> Pattern {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    Pattern::new(n, &edges)
}

/// Cycle pattern C_n (`n >= 3`).
pub fn cycle_pattern(n: usize) -> Pattern {
    assert!(n >= 3);
    let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Pattern::new(n, &edges)
}

/// Path pattern with `n` vertices and `n - 1` edges.
pub fn path_pattern(n: usize) -> Pattern {
    let edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
    Pattern::new(n, &edges)
}

/// Star pattern with one hub (vertex 0) and `n - 1` leaves.
pub fn star_pattern(n: usize) -> Pattern {
    let edges: Vec<_> = (1..n).map(|i| (0, i)).collect();
    Pattern::new(n, &edges)
}

/// All connected patterns with exactly 3 vertices: the wedge (path) and the
/// triangle. Used by the motif-counting example.
pub fn motifs_3() -> Vec<(&'static str, Pattern)> {
    vec![("wedge", path_pattern(3)), ("triangle", triangle())]
}

/// All six connected patterns with exactly 4 vertices, in increasing edge
/// count: path, star (claw), cycle (rectangle), paw (triangle + pendant),
/// diamond (K4 minus an edge), and the 4-clique.
pub fn motifs_4() -> Vec<(&'static str, Pattern)> {
    vec![
        ("path-4", path_pattern(4)),
        ("star-4", star_pattern(4)),
        ("cycle-4", rectangle()),
        ("paw", Pattern::new(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])),
        (
            "diamond",
            Pattern::new(4, &[(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)]),
        ),
        ("clique-4", clique(4)),
    ]
}

/// Evaluation pattern P1: the House (5 vertices, 6 edges).
pub fn p1() -> Pattern {
    house()
}

/// Evaluation pattern P2: the double star (6 vertices, 5 edges) — two
/// adjacent hubs (0, 1), each with two leaves (2, 3 on hub 0 and 4, 5 on
/// hub 1). A simple pattern whose four leaves form a size-4 independent
/// set searchable in the innermost loops, which makes it the strongest
/// showcase for IEP counting (Figure 10 reports the largest IEP speedups
/// for P2).
pub fn p2() -> Pattern {
    Pattern::new(6, &[(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
}

/// Evaluation pattern P3: the Cycle-6-Tri pattern of Figure 6
/// (6 vertices, 8 edges).
pub fn p3() -> Pattern {
    cycle_6_tri()
}

/// Evaluation pattern P4: a "double house" — a rectangle 0-1-2-3 (the
/// rectangle sub-pattern the paper mentions when discussing P4's prediction
/// accuracy) with two roof vertices, 4 adjacent to 0 and 1, and 5 adjacent
/// to 2 and 3 (6 vertices, 8 edges).
pub fn p4() -> Pattern {
    Pattern::new(
        6,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 3),
            (0, 4),
            (1, 4),
            (2, 5),
            (3, 5),
        ],
    )
}

/// Evaluation pattern P5: the octahedron K2,2,2 (K6 minus a perfect
/// matching; 6 vertices, 12 edges, 48 automorphisms) — the densest of the
/// evaluation patterns, driving the largest preprocessing cost (Table III).
pub fn p5() -> Pattern {
    let mut edges = Vec::new();
    for u in 0..6usize {
        for v in (u + 1)..6 {
            // Non-edges are the matching (0,1), (2,3), (4,5).
            let matched = (u / 2 == v / 2) && (v == u + 1) && u % 2 == 0;
            if !matched {
                edges.push((u, v));
            }
        }
    }
    Pattern::new(6, &edges)
}

/// Evaluation pattern P6: the triangular prism K3 x K2 (6 vertices, 9 edges,
/// 12 automorphisms) — two triangles 0-1-2 and 3-4-5 joined by a perfect
/// matching.
pub fn p6() -> Pattern {
    Pattern::new(
        6,
        &[
            (0, 1),
            (1, 2),
            (0, 2),
            (3, 4),
            (4, 5),
            (3, 5),
            (0, 3),
            (1, 4),
            (2, 5),
        ],
    )
}

/// The six evaluation patterns in paper order, with their names.
pub fn evaluation_patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("P1", p1()),
        ("P2", p2()),
        ("P3", p3()),
        ("P4", p4()),
        ("P5", p5()),
        ("P6", p6()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automorphism::automorphism_count;

    #[test]
    fn worked_examples_match_paper_structure() {
        assert_eq!(rectangle().num_vertices(), 4);
        assert_eq!(rectangle().edges().count(), 4);

        let h = house();
        assert_eq!(h.num_vertices(), 5);
        assert_eq!(h.edges().count(), 6);
        // D (=3) and E (=4) are the only non-adjacent "innermost" pair
        // discussed in Section IV-B phase 2 (k = 2).
        assert!(!h.has_edge(3, 4));
        assert_eq!(h.max_independent_set_size(), 2);

        let c6t = cycle_6_tri();
        assert_eq!(c6t.num_vertices(), 6);
        assert_eq!(c6t.edges().count(), 8);
        // D, E, F (=3,4,5) are pairwise non-adjacent; k = 3 (Figure 6).
        assert!(c6t.is_independent_set(&[3, 4, 5]));
        assert_eq!(c6t.max_independent_set_size(), 3);
    }

    #[test]
    fn all_prefabs_are_connected() {
        for (name, p) in evaluation_patterns() {
            assert!(p.is_connected(), "{name} must be connected");
        }
        for (name, p) in motifs_3().into_iter().chain(motifs_4()) {
            assert!(p.is_connected(), "{name} must be connected");
        }
    }

    #[test]
    fn evaluation_pattern_sizes() {
        let sizes: Vec<usize> = evaluation_patterns()
            .iter()
            .map(|(_, p)| p.num_vertices())
            .collect();
        assert_eq!(sizes, vec![5, 6, 6, 6, 6, 6]);
        let edges: Vec<usize> = evaluation_patterns()
            .iter()
            .map(|(_, p)| p.edges().count())
            .collect();
        assert_eq!(edges, vec![6, 5, 8, 8, 12, 9]);
    }

    #[test]
    fn expected_symmetry_sizes() {
        assert_eq!(automorphism_count(&p1()), 2);
        assert_eq!(automorphism_count(&p2()), 8);
        assert_eq!(automorphism_count(&p3()), 2);
        assert_eq!(automorphism_count(&p4()), 4);
        assert_eq!(automorphism_count(&p5()), 48);
        assert_eq!(automorphism_count(&p6()), 12);
    }

    #[test]
    fn motif_families_are_distinct() {
        let m4 = motifs_4();
        assert_eq!(m4.len(), 6);
        for i in 0..m4.len() {
            for j in (i + 1)..m4.len() {
                assert_ne!(
                    m4[i].1, m4[j].1,
                    "motifs {} and {} must differ",
                    m4[i].0, m4[j].0
                );
            }
        }
    }

    #[test]
    fn octahedron_structure() {
        let p = p5();
        assert_eq!(p.edges().count(), 12);
        assert!(!p.has_edge(0, 1));
        assert!(!p.has_edge(2, 3));
        assert!(!p.has_edge(4, 5));
        assert!((0..6).all(|v| p.degree(v) == 4));
    }
}
