//! Data-plane agreement suite: the SIMD intersection kernels against the
//! scalar reference, and the zero-copy binary loading path against the
//! text loader.
//!
//! * Property tests pit every intersection API against the scalar kernels
//!   on adversarial inputs (empty sets, matches at SIMD block boundaries,
//!   skewed `|a| ≪ |b|`, bound clamping, values near `u32::MAX`).
//! * End-to-end tests assert **bit-identical** pattern counts with kernels
//!   forced scalar vs auto-detected, across threads × hub × IEP modes —
//!   the acceptance bar for the kernel dispatch layer.
//! * The round-trip test drives edge-list → binary conversion → mmap open
//!   and requires identical `GraphStats::fingerprint` and identical counts.
//!
//! The force-scalar knob is process-global; these tests only ever compare
//! *results* across kernel settings (which must agree at any time, from
//! any thread), so concurrent toggling cannot make them flaky.

use graphpi::core::engine::{CountOptions, GraphPi, PlanOptions};
use graphpi::core::PoolOptions;
use graphpi::graph::vertex_set;
use graphpi::graph::{generators, io, GraphStats};
use graphpi::pattern::prefab;
use proptest::prelude::*;

/// Runs `f` with the kernels pinned scalar, then auto, and returns both.
fn under_both_kernels<T>(mut f: impl FnMut() -> T) -> (T, T) {
    vertex_set::set_force_scalar(true);
    let scalar = f();
    vertex_set::set_force_scalar(false);
    let auto = f();
    (scalar, auto)
}

fn assert_kernels_agree<T: PartialEq + std::fmt::Debug>(f: impl FnMut() -> T, label: &str) {
    let (scalar, auto) = under_both_kernels(f);
    assert_eq!(scalar, auto, "scalar and auto kernels disagree: {label}");
}

#[test]
fn adversarial_fixed_cases_agree() {
    let empty: Vec<u32> = vec![];
    let one = vec![7u32];
    // Matches exactly at every 4- and 8-lane block boundary.
    let aligned: Vec<u32> = (0..512u32).map(|i| i * 2).collect();
    let boundary: Vec<u32> = (0..512u32)
        .map(|i| {
            if i % 4 == 3 || i % 8 == 7 {
                i * 2
            } else {
                i * 2 + 1
            }
        })
        .collect();
    // Skewed inputs that trigger the galloping kernels (ratio >= 32).
    let large: Vec<u32> = (0..40_000u32).collect();
    let sparse: Vec<u32> = (0..40_000u32).step_by(1021).collect();
    // Unsigned-compare hazard: values with the sign bit set.
    let high: Vec<u32> = (0..300u32).map(|i| u32::MAX - 7 * (300 - i)).collect();
    let high_b: Vec<u32> = (0..300u32).map(|i| u32::MAX - 5 * (450 - i)).collect();

    let cases: Vec<(&str, &[u32], &[u32])> = vec![
        ("empty-empty", &empty, &empty),
        ("empty-large", &empty, &large),
        ("singleton-hit", &one, &aligned),
        ("identical", &aligned, &aligned),
        ("block-boundary", &aligned, &boundary),
        ("skewed", &sparse, &large),
        ("sign-bit", &high, &high_b),
    ];
    for (label, a, b) in cases {
        assert_kernels_agree(|| vertex_set::intersect(a, b), label);
        assert_kernels_agree(|| vertex_set::intersect(b, a), label);
        assert_kernels_agree(|| vertex_set::intersect_count(a, b), label);
        for bound in [0u32, 1, 500, u32::MAX] {
            assert_kernels_agree(|| vertex_set::intersect_count_below(a, b, bound), label);
        }
    }
}

fn sorted_set(max: u32, len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0..max, 0..len).prop_map(|s| s.into_iter().collect::<Vec<_>>())
}

proptest! {
    /// Randomised agreement across every public intersection API. Dense
    /// value ranges force merge kernels; comparing a small set against a
    /// large one exercises galloping.
    #[test]
    fn prop_simd_agrees_with_scalar(
        a in sorted_set(4_000, 400),
        b in sorted_set(4_000, 400),
        small in sorted_set(40_000, 12),
        bound in 0u32..4_000,
    ) {
        let large: Vec<u32> = (0..40_000u32).step_by(7).collect();
        let (s, v) = under_both_kernels(|| {
            (
                vertex_set::intersect(&a, &b),
                vertex_set::intersect_count(&a, &b),
                vertex_set::intersect_count_below(&a, &b, bound),
                vertex_set::intersect_many(&[&a, &b, &small]),
                vertex_set::intersect(&small, &large),
                vertex_set::intersect_count(&small, &large),
            )
        });
        prop_assert_eq!(s, v);
    }
}

fn count_with(engine: &GraphPi, pattern: &graphpi::pattern::Pattern, options: CountOptions) -> u64 {
    let plan = engine.plan(pattern, PlanOptions::default()).expect("plan");
    engine.execute_count(&plan.plan, options)
}

/// The acceptance sweep: counts must be bit-identical with kernels forced
/// scalar vs auto-detected, across threads × hub × IEP modes.
#[test]
fn end_to_end_counts_agree_scalar_vs_auto() {
    let graph = generators::power_law(160, 5, 77);
    let engine = GraphPi::new(graph);
    for (name, pattern) in [
        ("triangle", prefab::triangle()),
        ("rectangle", prefab::rectangle()),
        ("house", prefab::house()),
    ] {
        for threads in [1usize, 4] {
            for hub_bitsets in [false, true] {
                for use_iep in [false, true] {
                    let base = CountOptions {
                        use_iep,
                        threads,
                        prefix_depth: None,
                        hub_bitsets,
                        scalar_kernels: false,
                    };
                    let scalar_opts = CountOptions {
                        scalar_kernels: true,
                        ..base
                    };
                    let scalar = count_with(&engine, &pattern, scalar_opts);
                    // `scalar_kernels` only ever *sets* the process-global
                    // pin; release it explicitly before the auto run.
                    vertex_set::set_force_scalar(false);
                    let auto = count_with(&engine, &pattern, base);
                    assert_eq!(
                        scalar, auto,
                        "{name}: threads={threads} hubs={hub_bitsets} iep={use_iep}"
                    );
                }
            }
        }
    }
}

/// `scalar_kernels` is stored into the process-wide dispatch by every call,
/// last writer wins: two sessions that disagree race on which kernel family
/// each of them runs on. The race may move time, never a result — each round
/// starts both sides together, so every interleaving of the two stores and
/// the two executions gets its chance.
#[test]
fn opposite_scalar_settings_racing_do_not_change_results() {
    let engine = GraphPi::new(generators::power_law(160, 5, 77));
    let patterns = [prefab::triangle(), prefab::rectangle(), prefab::house()];
    let expected: Vec<(u64, Vec<u64>)> = {
        let session = engine.session();
        let both = |p| {
            (
                session.count(p).unwrap(),
                session.count_per_vertex(p).unwrap(),
            )
        };
        patterns.iter().map(both).collect()
    };
    let rounds = 12;
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for scalar_kernels in [true, false] {
            let (engine, patterns, expected, start) = (&engine, &patterns, &expected, &start);
            scope.spawn(move || {
                let session = engine.session_with(
                    PoolOptions {
                        threads: 2,
                        ..PoolOptions::default()
                    },
                    PlanOptions::default(),
                    CountOptions {
                        scalar_kernels,
                        hub_bitsets: scalar_kernels,
                        ..CountOptions::default()
                    },
                );
                for round in 0..rounds {
                    start.wait();
                    let at = round % patterns.len();
                    let (pattern, (count, orbit)) = (&patterns[at], &expected[at]);
                    assert_eq!(session.count(pattern).unwrap(), *count, "round {round}");
                    assert_eq!(&session.count_per_vertex(pattern).unwrap(), orbit);
                }
            });
        }
    });
    vertex_set::set_force_scalar(false);
}

/// Edge list → binary conversion → zero-copy mmap open must preserve the
/// stats fingerprint and every pattern count (the CLI `convert` round
/// trip, exercised at the library level).
#[test]
fn convert_round_trip_preserves_fingerprint_and_counts() {
    let dir = std::env::temp_dir().join(format!("graphpi_data_plane_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let text_path = dir.join("round_trip.txt");
    let bin_path = dir.join("round_trip.bin");

    let original = generators::power_law(220, 4, 99);
    io::save_edge_list(&original, &text_path).unwrap();

    // The text loader re-interns labels, so compare by fingerprint (and
    // counts below), not by graph equality.
    let text_loaded = io::load_edge_list(&text_path).unwrap();
    io::save_binary(&text_loaded, &bin_path).unwrap();
    let mapped = io::load_binary_mmap(&bin_path).unwrap();
    #[cfg(all(unix, target_pointer_width = "64"))]
    assert!(mapped.is_memory_mapped());
    assert_eq!(mapped, text_loaded);

    let fp_original = GraphStats::compute(&original).fingerprint();
    let fp_text = GraphStats::compute(&text_loaded).fingerprint();
    let fp_mapped = GraphStats::compute(&mapped).fingerprint();
    assert_eq!(fp_original, fp_text);
    assert_eq!(fp_text, fp_mapped);

    let engine_text = GraphPi::new(text_loaded);
    let engine_mapped = GraphPi::new(mapped);
    for (name, pattern) in [
        ("triangle", prefab::triangle()),
        ("house", prefab::house()),
        ("p1", prefab::p1()),
    ] {
        for options in [
            CountOptions::default(),
            CountOptions {
                threads: 2,
                hub_bitsets: true,
                ..CountOptions::default()
            },
        ] {
            assert_eq!(
                count_with(&engine_text, &pattern, options),
                count_with(&engine_mapped, &pattern, options),
                "{name} counts diverge between text-loaded and mmap-loaded graphs"
            );
        }
    }
    std::fs::remove_file(&text_path).ok();
    std::fs::remove_file(&bin_path).ok();
}

/// Heavier randomized sweep for the tier-2 job.
#[test]
#[ignore]
fn end_to_end_scalar_auto_agreement_heavy() {
    for seed in [1u64, 2, 3] {
        let graph = generators::power_law(400, 6, seed);
        let engine = GraphPi::new(graph);
        for (_, pattern) in prefab::evaluation_patterns() {
            for threads in [1usize, 2, 8] {
                let base = CountOptions {
                    threads,
                    hub_bitsets: seed % 2 == 0,
                    ..CountOptions::default()
                };
                let scalar = count_with(
                    &engine,
                    &pattern,
                    CountOptions {
                        scalar_kernels: true,
                        ..base
                    },
                );
                vertex_set::set_force_scalar(false);
                let auto = count_with(&engine, &pattern, base);
                assert_eq!(scalar, auto);
            }
        }
    }
}
