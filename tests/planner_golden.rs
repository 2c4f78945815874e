//! Planner outputs pinned to the values the n!-scanning planner produced.
//!
//! The tables below were captured by running this very file against commit
//! 90a5f15 (the last one whose `validate`, `recurse`, `filter_probabilities`
//! and `iep_correction` walked explicit id-orders) with empty tables and
//! copying the `left:` side of each failing `assert_eq!`. Restriction
//! families are pinned in order, every cost estimate bit for bit, and the
//! selected plan field by field — a planner rewrite must reproduce all of
//! them or every pinned count downstream is suspect.

use graphpi::core::config::Configuration;
use graphpi::core::engine::{GraphPi, PlanOptions};
use graphpi::core::perf_model::{select_best, select_best_iep, CostEstimate, PerformanceModel};
use graphpi::core::schedule::efficient_schedules;
use graphpi::graph::generators;
use graphpi::pattern::prefab;
use graphpi::pattern::restriction::{generate_restriction_sets, GenerationOptions, RestrictionSet};
use graphpi::pattern::Pattern;

/// FNV-1a, fed one word at a time.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Order-sensitive digest of a restriction family.
fn family_digest(sets: &[RestrictionSet]) -> u64 {
    let mut digest = Digest::new();
    for set in sets {
        digest.word(set.len() as u64);
        for r in set.restrictions() {
            digest.word(r.greater as u64);
            digest.word(r.smaller as u64);
        }
    }
    digest.0
}

/// Order-sensitive digest of every field of every estimate.
fn estimates_digest(estimates: &[CostEstimate]) -> u64 {
    let mut digest = Digest::new();
    for estimate in estimates {
        digest.word(estimate.total.to_bits());
        for l in &estimate.loops {
            digest.word(l.loop_size.to_bits());
            digest.word(l.intersection_cost.to_bits());
            digest.word(l.filter_probability.to_bits());
        }
    }
    digest.0
}

fn family_patterns() -> Vec<(String, Pattern)> {
    let mut patterns: Vec<(String, Pattern)> = Vec::new();
    let named = prefab::evaluation_patterns()
        .into_iter()
        .chain(prefab::motifs_3())
        .chain(prefab::motifs_4());
    patterns.extend(named.map(|(name, p)| (name.to_string(), p)));
    patterns.push(("rectangle".into(), prefab::rectangle()));
    patterns.push(("house".into(), prefab::house()));
    patterns.push((
        "bowtie".into(),
        Pattern::new(5, &[(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]),
    ));
    patterns.push(("star5".into(), prefab::star_pattern(5)));
    patterns.push(("cycle5".into(), prefab::cycle_pattern(5)));
    patterns.push(("cycle6".into(), prefab::cycle_pattern(6)));
    for n in 3..=5 {
        patterns.push((format!("K{n}"), prefab::clique(n)));
    }
    patterns
}

const FAMILIES: &str = "\
P1 4 ff7ec47eb00bce65\n\
P2 40 cdfe3bd238f21c65\n\
P3 4 378e2dfa18fa4665\n\
P4 16 98361072b41fc0e5\n\
P5 594 459f6eee51934760\n\
P6 16 7555cb9f5456b943\n\
wedge 2 eb00cd37a5dd9905\n\
triangle 12 dbb73e595dfcc225\n\
path-4 4 5a997ff1923bff65\n\
star-4 12 775a22b9f0111465\n\
cycle-4 32 734b4e0856081765\n\
paw 2 85530931c152cc85\n\
diamond 4 dbc52d045bc50d25\n\
clique-4 192 2af3f4f5aa8dcda5\n\
rectangle 32 734b4e0856081765\n\
house 4 ff7ec47eb00bce65\n\
bowtie 32 e1597c56a18f7025\n\
star5 192 948258ec35b7bce5\n\
cycle5 80 1cbd9209fb4056e5\n\
cycle6 17 89a0f7e199354187\n\
K3 12 dbb73e595dfcc225\n\
K4 192 2af3f4f5aa8dcda5\n\
K5 4096 6b06cbadfefd0705\n\
K5/1 1 66f1ddc4ab4fdf05\n\
K5/7 7 b5605ea79f7c5e07\n\
K5/40 40 3849230090fb820d\n\
";

#[test]
fn restriction_families_are_the_parents_in_the_parents_order() {
    let mut actual = String::new();
    for (name, pattern) in family_patterns() {
        let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
        actual += &format!("{name} {} {:016x}\n", sets.len(), family_digest(&sets));
    }
    // The cap cuts the traversal short, so it pins the traversal order too.
    for max_sets in [1, 7, 40] {
        let options = GenerationOptions {
            max_sets,
            skip_validation: false,
        };
        let sets = generate_restriction_sets(&prefab::clique(5), options);
        actual += &format!(
            "K5/{max_sets} {} {:016x}\n",
            sets.len(),
            family_digest(&sets)
        );
    }
    assert_eq!(actual, FAMILIES);
}

const ESTIMATES: &str = "\
P1 64 enumerate 0 6da3f559fb34abe5 iep 0 398229ba0a3c4a25\n\
P2 1920 enumerate 90 f82d5cdc875a9315 iep 0 ca91b546e7114725\n\
P3 96 enumerate 0 434b2b60c2bdabc5 iep 0 88d4fc9c47a5cc65\n\
P4 1536 enumerate 8 74bc39dbbb3ceb85 iep 8 1b2c4c0f910371a5\n\
P5 6144 enumerate 3 163bf06a8b9e7d25 iep 3 6a2437e9882e89b5\n\
P6 1536 enumerate 5 41cff78d373e59ad iep 1 c7c838aaba0db3c5\n\
";

#[test]
fn every_estimate_is_bit_identical_to_the_parents() {
    let engine = GraphPi::new(generators::power_law(2000, 8, 17));
    let mut actual = String::new();
    for (name, pattern) in prefab::evaluation_patterns() {
        // The candidate list `GraphPi::plan` ranks under default options.
        let mut sets = generate_restriction_sets(&pattern, GenerationOptions::default());
        sets.sort_by_key(|s| s.len());
        sets.truncate(PlanOptions::default().max_restriction_sets);
        let candidates: Vec<Configuration> = efficient_schedules(&pattern)
            .iter()
            .flat_map(|schedule| {
                sets.iter()
                    .map(|set| Configuration::new(pattern.clone(), schedule.clone(), set.clone()))
            })
            .collect();
        let model = PerformanceModel::new(*engine.stats(), pattern.num_vertices());
        let (best, estimates) = select_best(&model, &candidates);
        let (best_iep, estimates_iep) = select_best_iep(&model, &candidates);
        actual += &format!(
            "{name} {} enumerate {best} {:016x} iep {best_iep} {:016x}\n",
            candidates.len(),
            estimates_digest(&estimates),
            estimates_digest(&estimates_iep),
        );
    }
    assert_eq!(actual, ESTIMATES);
}

const PLANS: &str = "\
P1 iep=true [0, 1, 2, 3, 4] [(0, 1)] k=2 DividePrefixRestricted { divisor: 1 } cost=416080357209bb69 of 64\n\
P1 iep=false [0, 1, 2, 3, 4] [(0, 1)] k=0 DividePrefixRestricted { divisor: 1 } cost=416080357209bb69 of 64\n\
P2 iep=true [0, 1, 2, 3, 4, 5] [(0, 1), (2, 3), (4, 5)] k=4 DividePrefixRestricted { divisor: 4 } cost=41cee667726d6ef3 of 1920\n\
P2 iep=false [0, 1, 2, 4, 3, 5] [(2, 3), (3, 4), (5, 4)] k=0 DividePrefixRestricted { divisor: 1 } cost=41aee667726d6ef1 of 1920\n\
P3 iep=true [0, 1, 2, 3, 4, 5] [(1, 2)] k=3 DividePrefixRestricted { divisor: 1 } cost=41707e1727aa50fd of 96\n\
P3 iep=false [0, 1, 2, 3, 4, 5] [(1, 2)] k=0 DividePrefixRestricted { divisor: 1 } cost=41707e1727aa50fd of 96\n\
P4 iep=true [0, 1, 2, 3, 4, 5] [(0, 1), (0, 2), (0, 3)] k=2 DividePrefixRestricted { divisor: 1 } cost=4158bc4cc40f9032 of 1536\n\
P4 iep=false [0, 1, 2, 3, 4, 5] [(0, 1), (0, 2), (0, 3)] k=0 DividePrefixRestricted { divisor: 1 } cost=4158bc4cc40f9032 of 1536\n\
P5 iep=true [0, 2, 1, 3, 4, 5] [(0, 1), (0, 4), (2, 0), (2, 3), (4, 5)] k=2 DividePrefixRestricted { divisor: 6 } cost=4152083d0c9be5df of 6144\n\
P5 iep=false [0, 2, 1, 3, 4, 5] [(0, 1), (0, 4), (2, 0), (2, 3), (4, 5)] k=0 DividePrefixRestricted { divisor: 1 } cost=4152083d0c9be30c of 6144\n\
P6 iep=true [0, 1, 3, 5, 2, 4] [(0, 1), (1, 2), (3, 2), (4, 2), (5, 2)] k=2 DividePrefixRestricted { divisor: 6 } cost=41a0a58b4ee23439 of 1536\n\
P6 iep=false [0, 1, 3, 5, 2, 4] [(1, 0), (1, 2), (1, 3), (1, 4), (3, 5)] k=0 DividePrefixRestricted { divisor: 1 } cost=41827211a3f6cbe1 of 1536\n\
";

#[test]
fn selected_plans_are_the_parents() {
    let engine = GraphPi::new(generators::power_law(2000, 8, 17));
    let mut actual = String::new();
    for (name, pattern) in prefab::evaluation_patterns() {
        for enable_iep in [true, false] {
            let options = PlanOptions {
                enable_iep,
                ..PlanOptions::default()
            };
            let plan = engine.plan(&pattern, options).unwrap();
            let restrictions: Vec<(usize, usize)> = plan
                .plan
                .config
                .restrictions
                .restrictions()
                .iter()
                .map(|r| (r.greater, r.smaller))
                .collect();
            actual += &format!(
                "{name} iep={enable_iep} {:?} {restrictions:?} k={} {:?} cost={:016x} of {}\n",
                plan.plan.config.schedule.order(),
                plan.plan.iep_suffix_len,
                plan.plan.iep_correction,
                plan.predicted_cost.to_bits(),
                plan.candidates_considered,
            );
        }
    }
    assert_eq!(actual, PLANS);
}
