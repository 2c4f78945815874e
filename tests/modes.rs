//! Execution-mode agreement suite: the match-sink pipeline's enumerate,
//! orbit and sample modes must agree with the naive ground truth and with
//! each other across the execution matrix (threads × hub layout × forced
//! scalar kernels).
//!
//! Enumeration comparisons canonicalize each emitted mapping modulo the
//! pattern's automorphism group (the lexicographically smallest automorphic
//! image), because `naive` reports canonical tuples while a plan emits the
//! representative its restrictions pick — the set of occurrences is what
//! must match, and it must contain no duplicates. Sorting the data vertices
//! instead would conflate distinct embeddings that share a vertex set (a K5
//! holds 60 house embeddings on the same five vertices).

use graphpi::baseline::naive;
use graphpi::core::engine::{CountOptions, GraphPi, Mode, PlanOptions};
use graphpi::core::{EngineError, PoolOptions};
use graphpi::graph::builder::GraphBuilder;
use graphpi::graph::{generators, CsrGraph};
use graphpi::pattern::automorphism_group;
use graphpi::pattern::prefab;
use graphpi::pattern::Pattern;
use proptest::prelude::*;

/// Canonicalizes an enumeration result for occurrence-set comparison.
fn canonical_tuples(pattern: &Pattern, embeddings: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    let auts = automorphism_group(pattern);
    let mut tuples: Vec<Vec<u32>> = embeddings
        .iter()
        .map(|tuple| naive::canonical_embedding(&auts, tuple))
        .collect();
    tuples.sort_unstable();
    tuples
}

/// The per-vertex orbit counts implied by a canonical embedding list.
fn orbit_from_tuples(tuples: &[Vec<u32>], num_vertices: usize) -> Vec<u64> {
    let mut counts = vec![0u64; num_vertices];
    for tuple in tuples {
        for &v in tuple {
            counts[v as usize] += 1;
        }
    }
    counts
}

/// Strategy: a random simple graph with up to `max_vertices` vertices.
fn arb_graph(max_vertices: usize, max_edges: usize) -> impl Strategy<Value = CsrGraph> {
    (
        4..max_vertices,
        proptest::collection::vec((0usize..max_vertices, 0usize..max_vertices), 0..max_edges),
    )
        .prop_map(|(n, edges)| {
            let mut builder = GraphBuilder::new().num_vertices(n);
            for (u, v) in edges {
                if u != v && u < n && v < n {
                    builder.push_edge(u as u32, v as u32);
                }
            }
            builder.build()
        })
}

/// Strategy: a random connected pattern with 3..=5 vertices.
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (3usize..=5)
        .prop_flat_map(|n| {
            let extra = proptest::collection::vec((0usize..n, 0usize..n), 0..(n * 2));
            (Just(n), extra)
        })
        .prop_map(|(n, extra)| {
            let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
            for (u, v) in extra {
                if u != v {
                    edges.push((u.min(v), u.max(v)));
                }
            }
            Pattern::new(n, &edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The enumerated multiset equals the naive baseline's embedding set
    /// exactly — same occurrences, no duplicates, nothing missing.
    #[test]
    fn enumeration_matches_naive_embeddings(graph in arb_graph(20, 60), pattern in arb_pattern()) {
        let expected = naive::embeddings_sorted(&pattern, &graph);
        let engine = GraphPi::new(graph);
        let session = engine.session();
        let got = canonical_tuples(&pattern, session.enumerate(&pattern, u64::MAX).unwrap());
        prop_assert_eq!(got, expected);
    }

    /// Orbit counts equal the naive baseline per vertex, and sum to
    /// `pattern_size x global_count`.
    #[test]
    fn orbit_counts_match_naive(graph in arb_graph(20, 60), pattern in arb_pattern()) {
        let num_vertices = graph.num_vertices();
        let tuples = naive::embeddings_sorted(&pattern, &graph);
        let expected = orbit_from_tuples(&tuples, num_vertices);
        let engine = GraphPi::new(graph);
        let session = engine.session();
        let counts = session.count_per_vertex(&pattern).unwrap();
        prop_assert_eq!(&counts, &expected);
        let total = session.count(&pattern).unwrap();
        prop_assert_eq!(
            counts.iter().sum::<u64>(),
            pattern.num_vertices() as u64 * total
        );
    }
}

/// Every mode agrees with the ground truth across threads × hub layout ×
/// forced-scalar kernels × per-call task depth, and the truncation budget
/// is honored.
#[test]
fn modes_agree_across_execution_matrix() {
    let graph = generators::power_law(60, 4, 1);
    let num_vertices = graph.num_vertices();
    for pattern in [prefab::triangle(), prefab::house()] {
        let expected_tuples = naive::embeddings_sorted(&pattern, &graph);
        let expected_orbit = orbit_from_tuples(&expected_tuples, num_vertices);
        let exact = expected_tuples.len() as u64;
        let engine = GraphPi::new(graph.clone());
        for threads in [1usize, 4] {
            let session = engine.session_with(
                PoolOptions {
                    threads,
                    ..PoolOptions::default()
                },
                PlanOptions::default(),
                CountOptions::default(),
            );
            // hub layout × forced-scalar kernels × per-call task depth
            for cell in 0..8 {
                let (hub_bitsets, scalar_kernels) = (cell & 1 != 0, cell & 2 != 0);
                let prefix_depth = (cell & 4 != 0).then_some(1);
                let label = format!(
                    "threads={threads} hub={hub_bitsets} scalar={scalar_kernels} \
                     depth={prefix_depth:?}"
                );
                let options = CountOptions {
                    threads,
                    hub_bitsets,
                    scalar_kernels,
                    prefix_depth,
                    ..CountOptions::default()
                };
                let run = |mode| session.run(&pattern, mode, options).unwrap();
                let enumerate = |limit| {
                    canonical_tuples(&pattern, run(Mode::Enumerate { limit }).into_embeddings())
                };
                assert_eq!(enumerate(u64::MAX), expected_tuples, "enumerate {label}");
                assert_eq!(
                    run(Mode::Orbit).into_per_vertex(),
                    expected_orbit,
                    "orbit {label}"
                );
                // Rate 1 sampling degenerates to the exact count.
                let approx = run(Mode::Sample { rate: 1.0, seed: 0 }).into_approx();
                assert_eq!(approx.estimate, exact as f64, "sample {label}");
                assert_eq!(approx.stderr, 0.0, "sample stderr {label}");
                // A truncated enumeration honors its budget and returns
                // valid occurrences.
                if exact > 2 {
                    let page = enumerate(2);
                    assert_eq!(page.len(), 2, "limit {label}");
                    for tuple in &page {
                        assert!(
                            expected_tuples.contains(tuple),
                            "truncated page emitted a non-embedding under {label}: {tuple:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Fixed-seed sampling is deterministic (independent of thread count), its
/// estimate lands within the asserted confidence band of the exact count,
/// and invalid rates are typed errors.
#[test]
fn sample_estimates_within_ci_at_fixed_seed() {
    let graph = generators::power_law(300, 5, 7);
    let engine = GraphPi::new(graph);
    let session = engine.session();
    let pattern = prefab::triangle();
    let exact = session.count(&pattern).unwrap() as f64;
    // Rate 1 is the degenerate exact case: every task sampled, zero error.
    let full = session.count_approx(&pattern, 1.0, 0).unwrap();
    assert_eq!(full.estimate, exact);
    assert_eq!(full.stderr, 0.0);
    assert_eq!(full.sampled_tasks, full.total_tasks);
    for (rate, seed) in [(0.5, 7u64), (0.25, 42)] {
        let approx = session.count_approx(&pattern, rate, seed).unwrap();
        // Deterministic replay: a single-threaded session reproduces the
        // estimate bit for bit.
        let serial = engine
            .session_with(
                PoolOptions {
                    threads: 1,
                    ..PoolOptions::default()
                },
                PlanOptions::default(),
                CountOptions {
                    threads: 1,
                    ..CountOptions::default()
                },
            )
            .count_approx(&pattern, rate, seed)
            .unwrap();
        assert_eq!(approx.estimate.to_bits(), serial.estimate.to_bits());
        assert_eq!(approx.stderr.to_bits(), serial.stderr.to_bits());
        assert!(approx.sampled_tasks < approx.total_tasks);
        // The asserted confidence band: 5 sigma around the exact count.
        // A fixed seed makes this deterministic — it either always holds
        // or the estimator is wrong.
        let sigma = approx.stderr.max(1.0);
        assert!(
            (approx.estimate - exact).abs() <= 5.0 * sigma,
            "estimate {} strays more than 5 sigma ({sigma}) from exact {exact} \
             at rate {rate} seed {seed}",
            approx.estimate
        );
    }
    // Invalid rates are typed errors, not garbage estimates.
    for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
        assert!(matches!(
            session.count_approx(&pattern, bad, 0),
            Err(EngineError::InvalidSampleRate)
        ));
    }
}

/// FNV-1a over a `u64` stream: one number that pins a whole result.
fn fingerprint(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The sink modes' results on a pinned graph, recorded at the commit before
/// the interpreter moved to hoisted set programs: per-vertex counts, the
/// embeddings a bounded sequential enumeration stops at (i.e. the visit
/// order) and a fixed-seed sample (i.e. the task decomposition) must not
/// have moved by a bit.
#[test]
fn sink_modes_are_bit_identical_to_the_recompute_interpreter() {
    use graphpi::core::config::Configuration;
    use graphpi::core::exec::interp::{match_embeddings_in, ExecCtx};
    use graphpi::core::exec::sink::EmbedSink;
    use graphpi::core::Schedule;
    use graphpi::pattern::restriction::RestrictionSet;

    let graph = generators::power_law(150, 4, 0x5EED);
    let pattern = prefab::house();
    let engine = GraphPi::new(graph.clone());
    let session = engine.session();

    let orbit = session.count_per_vertex(&pattern).unwrap();
    assert_eq!(fingerprint(orbit.iter().copied()), PINNED_ORBIT);

    let approx = session.count_approx(&pattern, 0.3, 7).unwrap();
    assert_eq!(
        (approx.estimate.to_bits(), approx.stderr.to_bits()),
        PINNED_SAMPLE
    );
    assert_eq!((approx.sampled_tasks, approx.total_tasks), PINNED_TASKS);

    // A per-call task depth reaches the sink modes too: at depth 1 the
    // tasks are the 150 start vertices, not the 590 depth-2 prefixes.
    let options = CountOptions {
        prefix_depth: Some(1),
        ..CountOptions::default()
    };
    let sample = Mode::Sample { rate: 1.0, seed: 7 };
    let shallow = session
        .run(&pattern, sample, options)
        .unwrap()
        .into_approx();
    let default = session.count_approx(&pattern, 1.0, 7).unwrap();
    assert_eq!(shallow.estimate, default.estimate);
    assert_eq!(default.total_tasks, PINNED_TASKS.1);
    assert_ne!(shallow.total_tasks, default.total_tasks);
    assert!(shallow.total_tasks <= graph.num_vertices() as u64);

    let schedule = Schedule::new(&pattern, vec![0, 1, 2, 3, 4]);
    let plan = Configuration::new(pattern, schedule, RestrictionSet::from_pairs(&[(0, 1)]))
        .compile_with_iep(false);
    let mut page = EmbedSink::new(5, 1_000);
    match_embeddings_in(&plan, ExecCtx::from(&graph), 2, &mut page);
    assert_eq!(page.len(), 1_000);
    assert_eq!(
        fingerprint(page.vertices().iter().map(|&v| v as u64)),
        PINNED_PAGE
    );
}

const PINNED_ORBIT: u64 = 18_040_342_854_661_671_641;
const PINNED_SAMPLE: (u64, u64) = (4_671_968_026_183_772_843, 4_661_461_067_838_852_423);
const PINNED_TASKS: (u64, u64) = (179, 590);
const PINNED_PAGE: u64 = 11_921_581_192_696_166_922;
