//! Sorted vertex-set algebra.
//!
//! Every candidate set manipulated by the nested-loop matching engine is a
//! sorted slice of [`VertexId`]s: either a CSR neighborhood borrowed from the
//! data graph or the intersection of several neighborhoods materialised into
//! a scratch buffer.  The paper notes (Section IV-E) that because adjacency
//! lists are sorted, an intersection costs `O(n + m)` and yields a sorted
//! result.
//!
//! All intersection variants — materialising ([`intersect_into`],
//! `intersect_many_into`), counting ([`intersect_count`]) and bound-clamped
//! counting ([`intersect_count_below`]) — share the same routing: a linear
//! merge for balanced inputs and a galloping (exponential) search when one
//! input is at least `GALLOP_RATIO` times larger, which is the common case
//! on skewed degree distributions. Bounded variants clamp both inputs with
//! `partition_point` first so the galloping path applies to them too.
//!
//! # Kernel dispatch
//!
//! On `x86_64` both regimes have SIMD implementations (the `x86`
//! submodule): 4-lane
//! SSE/SSSE3 and 8-lane AVX2 block merges, and an AVX2 block-based galloping
//! kernel for skewed inputs. The best available kernel is detected once at
//! runtime with `is_x86_feature_detected!` and every public API routes
//! through it, so `exec::interp`, `iep` and `hub` consumers get the speedup
//! with zero call-site churn. Counts are **bit-identical** across kernels —
//! the proptest agreement suite and the end-to-end scalar-vs-auto tests
//! enforce this.
//!
//! Dispatch is process-global and can be pinned to the scalar reference
//! with [`set_force_scalar`] or the `GRAPHPI_FORCE_SCALAR` environment
//! variable (read once, at first use) — the knob CI uses to keep both paths
//! green.

use crate::csr::VertexId;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

#[cfg(target_arch = "x86_64")]
mod x86;

/// Threshold ratio above which the intersection kernels switch from a linear
/// merge to galloping (exponential) search in the larger input.
const GALLOP_RATIO: usize = 32;

/// Largest number of sets [`intersect_many_into`] accepts (bounded by the
/// engine's maximum pattern size; keeps the ordering scratch on the stack).
pub(crate) const MAX_INTERSECT_SETS: usize = 16;

/// The intersection kernel family the dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar merge/galloping cores (the reference).
    Scalar,
    /// 4-lane SSE block merge (SSSE3 compaction); scalar galloping.
    Sse,
    /// 8-lane AVX2 block merge plus AVX2 block-based galloping.
    Avx2,
}

impl Kernel {
    /// Short stable name (`scalar`, `sse`, `avx2`) for logs and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Sse => "sse",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// Runtime force-scalar override ([`set_force_scalar`]).
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Cached detection result: 0 = undetected, else `Kernel as u8 + 1`.
static DETECTED: AtomicU8 = AtomicU8::new(0);

#[cold]
fn detect_kernel() -> Kernel {
    // The `GRAPHPI_FORCE_SCALAR` environment pin is **sticky**: it makes
    // the *detected* kernel Scalar for the lifetime of the process, so
    // [`set_force_scalar`]`(false)` cannot release it and a test run
    // under the CI scalar leg stays scalar throughout. Folding the pin
    // into the single `DETECTED` atomic also means no thread can ever
    // observe detection complete but the pin unpublished.
    let env_forced = std::env::var("GRAPHPI_FORCE_SCALAR")
        .map(|v| matches!(v.as_str(), "1" | "true" | "yes" | "on"))
        .unwrap_or(false);
    #[cfg(target_arch = "x86_64")]
    let kernel = if env_forced {
        Kernel::Scalar
    } else if std::arch::is_x86_feature_detected!("avx2") {
        Kernel::Avx2
    } else if std::arch::is_x86_feature_detected!("ssse3") {
        Kernel::Sse
    } else {
        Kernel::Scalar
    };
    #[cfg(not(target_arch = "x86_64"))]
    let kernel = {
        let _ = env_forced;
        Kernel::Scalar
    };
    DETECTED.store(kernel as u8 + 1, Ordering::Relaxed);
    kernel
}

/// The kernel the next intersection will run on: the best CPU-supported
/// SIMD family, unless scalar is forced (runtime knob or environment).
#[inline]
pub fn active_kernel() -> Kernel {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        return Kernel::Scalar;
    }
    match DETECTED.load(Ordering::Relaxed) {
        0 => detect_kernel(),
        1 => Kernel::Scalar,
        2 => Kernel::Sse,
        _ => Kernel::Avx2,
    }
}

/// Forces (or releases) the portable scalar kernels, process-wide.
///
/// Counts are bit-identical either way; this exists so tests, benches and
/// the CLI/CI can exercise and time both dispatch paths deterministically.
/// The `GRAPHPI_FORCE_SCALAR=1` environment pin is sticky:
/// `set_force_scalar(false)` releases only the runtime knob, so a process
/// launched under the CI scalar leg runs scalar throughout.
pub fn set_force_scalar(force: bool) {
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

/// Computes `out = a ∩ b` for two sorted, duplicate-free slices.
///
/// `out` is cleared first. The result is sorted and duplicate-free.
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    if large.len() / small.len() >= GALLOP_RATIO {
        #[cfg(target_arch = "x86_64")]
        if active_kernel() == Kernel::Avx2 {
            // SAFETY: AVX2 support proven by `active_kernel`.
            unsafe { x86::gallop_into_avx2(small, large, out) };
            return;
        }
        gallop_intersect(small, large, &mut |v| out.push(v));
    } else {
        #[cfg(target_arch = "x86_64")]
        match active_kernel() {
            // SAFETY: the matching feature was proven by `active_kernel`.
            Kernel::Avx2 => return unsafe { x86::merge_into_avx2(a, b, out) },
            Kernel::Sse => return unsafe { x86::merge_into_sse(a, b, out) },
            Kernel::Scalar => {}
        }
        merge_intersect(a, b, &mut |v| out.push(v));
    }
}

/// Allocates and returns `a ∩ b`.
pub fn intersect(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    intersect_into(a, b, &mut out);
    out
}

/// Returns `|a ∩ b|` without materialising the intersection.
pub fn intersect_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    if large.len() / small.len() >= GALLOP_RATIO {
        #[cfg(target_arch = "x86_64")]
        if active_kernel() == Kernel::Avx2 {
            // SAFETY: AVX2 support proven by `active_kernel`.
            return unsafe { x86::gallop_count_avx2(small, large) };
        }
        let mut count = 0usize;
        gallop_intersect(small, large, &mut |_| count += 1);
        count
    } else {
        #[cfg(target_arch = "x86_64")]
        match active_kernel() {
            // SAFETY: the matching feature was proven by `active_kernel`.
            Kernel::Avx2 => return unsafe { x86::merge_count_avx2(a, b) },
            Kernel::Sse => return unsafe { x86::merge_count_sse(a, b) },
            Kernel::Scalar => {}
        }
        let mut count = 0usize;
        merge_intersect(a, b, &mut |_| count += 1);
        count
    }
}

/// Clamps a sorted set to its prefix of elements strictly below `bound`.
#[inline]
pub(crate) fn clamp_below(a: &[VertexId], bound: VertexId) -> &[VertexId] {
    &a[..a.partition_point(|&x| x < bound)]
}

/// Returns `|a ∩ b|` counting only elements strictly smaller than `bound`.
///
/// Used when a restriction `id(x) > id(y)` bounds the candidate set of an
/// inner loop: only candidates below the already-bound vertex survive. Both
/// inputs are clamped with `partition_point` first, so the count reuses the
/// same merge/galloping kernels as [`intersect_count`].
pub fn intersect_count_below(a: &[VertexId], b: &[VertexId], bound: VertexId) -> usize {
    intersect_count(clamp_below(a, bound), clamp_below(b, bound))
}

#[inline]
fn merge_intersect(a: &[VertexId], b: &[VertexId], emit: &mut impl FnMut(VertexId)) {
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                emit(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[inline]
fn gallop_intersect(small: &[VertexId], large: &[VertexId], emit: &mut impl FnMut(VertexId)) {
    let mut lo = 0usize;
    for &x in small {
        if lo >= large.len() {
            break;
        }
        // Exponential search for x in large[lo..].
        let mut step = 1usize;
        let mut hi = lo;
        while hi < large.len() && large[hi] < x {
            hi = (lo + step).min(large.len());
            step *= 2;
        }
        // `hi` may point at the first element >= x, which must be included
        // in the search window.
        let end = if hi < large.len() {
            hi + 1
        } else {
            large.len()
        };
        match large[lo..end].binary_search(&x) {
            Ok(i) => {
                emit(x);
                lo += i + 1;
            }
            Err(i) => lo += i,
        }
    }
}

/// Returns the elements of `a` that are **not** in the (small, unsorted)
/// exclusion list `excluded`, preserving order.
///
/// This implements the `- {v_A, v_B, …}` subtraction from the paper's
/// generated code, where the exclusion list holds the few vertices already
/// bound by outer loops.
pub fn subtract_into(a: &[VertexId], excluded: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    out.extend(a.iter().copied().filter(|v| !excluded.contains(v)));
}

/// Intersects an arbitrary number of sorted sets into `out` without heap
/// allocation: `tmp` is the ping-pong scratch, the set order is kept on the
/// stack, and the sets are intersected smallest-first so intermediates stay
/// tiny. `sets` must be non-empty and hold at most [`MAX_INTERSECT_SETS`]
/// entries; `out` and `tmp` must be distinct buffers (both are clobbered).
pub(crate) fn intersect_many_into(
    sets: &[&[VertexId]],
    out: &mut Vec<VertexId>,
    tmp: &mut Vec<VertexId>,
) {
    assert!(
        !sets.is_empty(),
        "intersect_many_into requires at least one set"
    );
    assert!(
        sets.len() <= MAX_INTERSECT_SETS,
        "intersect_many_into supports at most {MAX_INTERSECT_SETS} sets"
    );
    match sets.len() {
        1 => {
            out.clear();
            out.extend_from_slice(sets[0]);
        }
        2 => intersect_into(sets[0], sets[1], out),
        k => {
            // Smallest-first order, computed on the stack.
            let mut order = [0usize; MAX_INTERSECT_SETS];
            for (i, slot) in order.iter_mut().enumerate().take(k) {
                *slot = i;
            }
            order[..k].sort_unstable_by_key(|&i| sets[i].len());
            intersect_into(sets[order[0]], sets[order[1]], out);
            for &i in &order[2..k] {
                if out.is_empty() {
                    break;
                }
                intersect_into_swap(sets[i], out, tmp);
            }
        }
    }
}

/// `out = out ∩ b`, using `tmp` as scratch (cheap `Vec` pointer swap, no
/// allocation beyond buffer growth).
#[inline]
fn intersect_into_swap(b: &[VertexId], out: &mut Vec<VertexId>, tmp: &mut Vec<VertexId>) {
    intersect_into(out, b, tmp);
    std::mem::swap(out, tmp);
}

/// Allocating variant of `intersect_many_into`.
pub fn intersect_many(sets: &[&[VertexId]]) -> Vec<VertexId> {
    let mut out = Vec::new();
    let mut tmp = Vec::new();
    intersect_many_into(sets, &mut out, &mut tmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_intersections() {
        assert_eq!(intersect(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), vec![3, 7]);
        assert_eq!(intersect(&[], &[1, 2]), Vec::<u32>::new());
        assert_eq!(intersect(&[1, 2], &[]), Vec::<u32>::new());
        assert_eq!(intersect(&[5], &[5]), vec![5]);
    }

    #[test]
    fn counting_matches_materialised() {
        let a = [1, 4, 6, 9, 12, 15];
        let b = [2, 4, 9, 10, 15, 20];
        assert_eq!(intersect_count(&a, &b), intersect(&a, &b).len());
    }

    #[test]
    fn bounded_count() {
        let a = [1, 4, 6, 9, 12];
        let b = [4, 6, 9, 12];
        assert_eq!(intersect_count_below(&a, &b, 10), 3);
        assert_eq!(intersect_count_below(&a, &b, 4), 0);
        assert_eq!(intersect_count_below(&a, &b, 100), 4);
    }

    #[test]
    fn bounded_count_uses_galloping_for_skewed_inputs() {
        // The small side falls below GALLOP_RATIO of the clamped large side.
        let small: Vec<u32> = vec![10, 500, 900, 1500];
        let large: Vec<u32> = (0..2000).collect();
        assert_eq!(intersect_count_below(&small, &large, 1000), 3);
    }

    #[test]
    fn galloping_path_is_exercised() {
        let small: Vec<u32> = vec![10, 500, 900];
        let large: Vec<u32> = (0..1000).collect();
        assert_eq!(intersect(&small, &large), small);
        assert_eq!(intersect_count(&small, &large), 3);
    }

    #[test]
    fn subtraction() {
        let mut out = vec![9];
        subtract_into(&[1, 2, 3, 4], &[2, 4], &mut out);
        assert_eq!(out, vec![1, 3]);
        subtract_into(&[1, 2], &[], &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn many_way_intersection() {
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..100).step_by(2).collect();
        let c: Vec<u32> = (0..100).step_by(3).collect();
        let r = intersect_many(&[&a, &b, &c]);
        let expected: Vec<u32> = (0..100).step_by(6).collect();
        assert_eq!(r, expected);
    }

    #[test]
    fn many_into_reuses_buffers_without_allocating_more_sets() {
        let a: Vec<u32> = (0..200).collect();
        let b: Vec<u32> = (0..200).step_by(2).collect();
        let c: Vec<u32> = (0..200).step_by(5).collect();
        let d: Vec<u32> = (0..200).step_by(3).collect();
        let mut out = Vec::new();
        let mut tmp = Vec::new();
        intersect_many_into(&[&a, &b, &c, &d], &mut out, &mut tmp);
        let expected: Vec<u32> = (0..200).step_by(30).collect();
        assert_eq!(out, expected);
        // Reuse the same buffers for a second call.
        intersect_many_into(&[&a, &b], &mut out, &mut tmp);
        assert_eq!(out, b);
    }

    #[test]
    #[should_panic]
    fn intersect_many_empty_panics() {
        let _ = intersect_many(&[]);
    }

    /// Serialises the tests that toggle the process-global force flag, so
    /// one test's toggles cannot interleave with another's assertions
    /// about kernel *state* (result agreement is interleaving-proof, state
    /// inspection is not).
    static TOGGLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn kernel_reporting_is_consistent() {
        let _guard = TOGGLE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_force_scalar(false);
        let k = active_kernel();
        assert!(!k.name().is_empty());
        // Forcing scalar must be observable and reversible.
        set_force_scalar(true);
        assert_eq!(active_kernel(), Kernel::Scalar);
        set_force_scalar(false);
        assert_eq!(active_kernel(), k);
    }

    /// Runs `f` under both the scalar and the auto-detected kernel and
    /// asserts the results agree (every kernel must agree on every input
    /// at any time). Holds [`TOGGLE_LOCK`] so the flag flips cannot race
    /// `kernel_reporting_is_consistent`'s state assertions.
    fn assert_kernels_agree<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
        let _guard = TOGGLE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_force_scalar(true);
        let scalar = f();
        set_force_scalar(false);
        let auto = f();
        assert_eq!(scalar, auto);
    }

    #[test]
    fn simd_agrees_on_block_boundary_adversaries() {
        // Matches placed exactly at 4- and 8-lane block boundaries, plus
        // runs of near-misses (x+1) that defeat naive lane compares.
        let a: Vec<u32> = (0..256).map(|i| i * 3).collect();
        let b: Vec<u32> = (0..256)
            .map(|i| if i % 8 == 7 { i * 3 } else { i * 3 + 1 })
            .collect();
        assert_kernels_agree(|| intersect(&a, &b));
        assert_kernels_agree(|| intersect_count(&a, &b));
        // Fully identical inputs: every lane matches in every block.
        assert_kernels_agree(|| intersect(&a, &a));
        assert_kernels_agree(|| intersect_count(&a, &a));
        // Skewed: galloping kernels.
        let large: Vec<u32> = (0..10_000).collect();
        let small: Vec<u32> = (0..10_000).step_by(613).collect();
        assert_kernels_agree(|| intersect(&small, &large));
        assert_kernels_agree(|| intersect_count(&small, &large));
        assert_kernels_agree(|| intersect_count_below(&small, &large, 5_000));
    }

    #[test]
    fn simd_agrees_near_u32_max() {
        // The AVX2 ordered compares must be unsigned: values above 2^31
        // would flip order under a signed interpretation.
        let a: Vec<u32> = (0..200).map(|i| u32::MAX - 3 * (200 - i)).collect();
        let b: Vec<u32> = (0..200).map(|i| u32::MAX - 2 * (300 - i)).collect();
        assert_kernels_agree(|| intersect(&a, &b));
        let small: Vec<u32> = a.iter().copied().step_by(67).collect();
        assert_kernels_agree(|| intersect_count(&small, &b));
    }

    fn sorted_set() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::btree_set(0u32..2000, 0..200)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>())
    }

    proptest! {
        #[test]
        fn prop_intersection_agrees_with_btreeset(a in sorted_set(), b in sorted_set()) {
            use std::collections::BTreeSet;
            let sa: BTreeSet<u32> = a.iter().copied().collect();
            let sb: BTreeSet<u32> = b.iter().copied().collect();
            let expected: Vec<u32> = sa.intersection(&sb).copied().collect();
            prop_assert_eq!(intersect(&a, &b), expected.clone());
            prop_assert_eq!(intersect_count(&a, &b), expected.len());
        }

        #[test]
        fn prop_intersection_sorted_and_subset(a in sorted_set(), b in sorted_set()) {
            let r = intersect(&a, &b);
            prop_assert!(r.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(r.iter().all(|x| a.binary_search(x).is_ok() && b.binary_search(x).is_ok()));
        }

        #[test]
        fn prop_intersection_commutative(a in sorted_set(), b in sorted_set()) {
            prop_assert_eq!(intersect(&a, &b), intersect(&b, &a));
        }

        #[test]
        fn prop_subtract_removes_exactly(a in sorted_set(), ex in proptest::collection::vec(0u32..2000, 0..10)) {
            let mut r = Vec::new();
            subtract_into(&a, &ex, &mut r);
            prop_assert!(r.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(r.iter().all(|x| !ex.contains(x)));
            prop_assert!(a.iter().filter(|x| !ex.contains(x)).count() == r.len());
        }

        #[test]
        fn prop_intersect_many_matches_pairwise(a in sorted_set(), b in sorted_set(), c in sorted_set()) {
            let pairwise = intersect(&intersect(&a, &b), &c);
            prop_assert_eq!(intersect_many(&[&a, &b, &c]), pairwise);
        }

        #[test]
        fn prop_bounded_count_matches_filter(a in sorted_set(), b in sorted_set(), bound in 0u32..2000) {
            let expected = intersect(&a, &b).into_iter().filter(|&x| x < bound).count();
            prop_assert_eq!(intersect_count_below(&a, &b, bound), expected);
        }
    }
}
