//! SIMD intersection kernels for `x86_64` (SSE/SSSE3 and AVX2).
//!
//! Every function in this module is an `unsafe fn` gated on a
//! `#[target_feature]`; the **only** caller is the dispatch layer in
//! [`super`], which proves the required CPU feature with
//! `is_x86_feature_detected!` before taking a SIMD path. The kernels
//! implement the same contracts as the scalar cores (inputs strictly
//! sorted and duplicate-free, output sorted and duplicate-free) and the
//! proptest agreement suite pits them against the scalar reference on
//! adversarial inputs.
//!
//! Two kernel families:
//!
//! * **Block merge** (`merge_count_*` / `merge_into_*`): the classic
//!   all-pairs block comparison — load a block from each side, compare the
//!   `a` block against every rotation of the `b` block, `movemask` the
//!   matches, then advance whichever block has the smaller maximum. Matches
//!   are only ever emitted from the `a` lanes, so each common element is
//!   counted exactly once. Materialising variants compact the matched lanes
//!   with a shuffle table indexed by the match mask.
//! * **Block galloping** (`gallop_count_avx2` / `gallop_into_avx2`): for
//!   skewed `|a| ≪ |b|` inputs — exponential search over 8-element blocks
//!   (comparing only each block's last element), a block-granular binary
//!   narrowing, and a final 8-lane unsigned-compare probe that locates the
//!   lower bound and the match with two instructions.
//!
//! Unsigned semantics: `_mm*_cmpgt_epi32` is signed, so ordered compares
//! flip the sign bit of both operands first; equality compares are
//! sign-agnostic and used as-is.

use core::arch::x86_64::*;

/// Shuffle-control table for SSSE3 compaction: entry `m` moves the dwords
/// whose bit is set in the 4-bit match mask `m` to the front (byte `0x80`
/// zeroes the rest).
static SSE_COMPACT: [[u8; 16]; 16] = sse_compact_table();

const fn sse_compact_table() -> [[u8; 16]; 16] {
    let mut table = [[0x80u8; 16]; 16];
    let mut mask = 0usize;
    while mask < 16 {
        let mut out_lane = 0usize;
        let mut lane = 0usize;
        while lane < 4 {
            if mask & (1 << lane) != 0 {
                let mut byte = 0usize;
                while byte < 4 {
                    table[mask][out_lane * 4 + byte] = (lane * 4 + byte) as u8;
                    byte += 1;
                }
                out_lane += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
}

/// Permutation-index table for AVX2 compaction: entry `m` lists, for the
/// 8-bit match mask `m`, the source lanes of the matched dwords compacted
/// to the front.
static AVX2_COMPACT: [[u32; 8]; 256] = avx2_compact_table();

const fn avx2_compact_table() -> [[u32; 8]; 256] {
    let mut table = [[0u32; 8]; 256];
    let mut mask = 0usize;
    while mask < 256 {
        let mut out_lane = 0usize;
        let mut lane = 0usize;
        while lane < 8 {
            if mask & (1 << lane) != 0 {
                table[mask][out_lane] = lane as u32;
                out_lane += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
}

/// Rotation-index vectors for the AVX2 all-pairs compare: `ROT8[k][l] =
/// (l + k) % 8`.
static ROT8: [[u32; 8]; 8] = {
    let mut rot = [[0u32; 8]; 8];
    let mut k = 0usize;
    while k < 8 {
        let mut l = 0usize;
        while l < 8 {
            rot[k][l] = ((l + k) % 8) as u32;
            l += 1;
        }
        k += 1;
    }
    rot
};

/// Scalar merge over the block loop's tails, shared by every kernel.
#[inline]
fn scalar_tail(a: &[u32], b: &[u32], mut emit: impl FnMut(u32)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x < y {
            i += 1;
        } else if y < x {
            j += 1;
        } else {
            emit(x);
            i += 1;
            j += 1;
        }
    }
}

/// OR of the equality compares of `va` against all four rotations of `vb`:
/// lane `l` is all-ones iff `va[l]` occurs anywhere in `vb`.
#[target_feature(enable = "sse2")]
#[inline]
unsafe fn block_matches_sse(va: __m128i, vb: __m128i) -> __m128i {
    let r1 = _mm_shuffle_epi32::<0b00_11_10_01>(vb);
    let r2 = _mm_shuffle_epi32::<0b01_00_11_10>(vb);
    let r3 = _mm_shuffle_epi32::<0b10_01_00_11>(vb);
    let m01 = _mm_or_si128(_mm_cmpeq_epi32(va, vb), _mm_cmpeq_epi32(va, r1));
    let m23 = _mm_or_si128(_mm_cmpeq_epi32(va, r2), _mm_cmpeq_epi32(va, r3));
    _mm_or_si128(m01, m23)
}

/// `|a ∩ b|` via the 4-lane block merge.
///
/// # Safety
/// Caller must have verified SSE2 support (always present on `x86_64`, but
/// the dispatch layer still proves it for uniformity).
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn merge_count_sse(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j) = (0usize, 0usize);
    let mut count = 0usize;
    while i + 4 <= a.len() && j + 4 <= b.len() {
        let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
        let vb = _mm_loadu_si128(b.as_ptr().add(j).cast());
        let m = block_matches_sse(va, vb);
        count += (_mm_movemask_ps(_mm_castsi128_ps(m)) as u32).count_ones() as usize;
        let a_max = *a.get_unchecked(i + 3);
        let b_max = *b.get_unchecked(j + 3);
        i += 4 * usize::from(a_max <= b_max);
        j += 4 * usize::from(b_max <= a_max);
    }
    let mut tail = 0usize;
    scalar_tail(&a[i..], &b[j..], |_| tail += 1);
    count + tail
}

/// Materialising sibling of [`merge_count_sse`] (needs SSSE3 for the
/// `pshufb` compaction).
///
/// # Safety
/// Caller must have verified SSSE3 support. `out` must not alias `a`/`b`.
#[target_feature(enable = "ssse3")]
pub(crate) unsafe fn merge_into_sse(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    debug_assert!(out.is_empty());
    out.reserve(a.len().min(b.len()) + 4);
    let base = out.as_mut_ptr();
    let mut len = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i + 4 <= a.len() && j + 4 <= b.len() {
        let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
        let vb = _mm_loadu_si128(b.as_ptr().add(j).cast());
        let m = block_matches_sse(va, vb);
        let mask = _mm_movemask_ps(_mm_castsi128_ps(m)) as usize;
        let shuffle = _mm_loadu_si128(SSE_COMPACT.get_unchecked(mask).as_ptr().cast());
        // The store may write up to 4 lanes of garbage past the matches;
        // the reserve above guarantees the capacity and `len` only advances
        // over the real matches.
        _mm_storeu_si128(base.add(len).cast(), _mm_shuffle_epi8(va, shuffle));
        len += mask.count_ones() as usize;
        let a_max = *a.get_unchecked(i + 3);
        let b_max = *b.get_unchecked(j + 3);
        i += 4 * usize::from(a_max <= b_max);
        j += 4 * usize::from(b_max <= a_max);
    }
    out.set_len(len);
    scalar_tail(&a[i..], &b[j..], |v| out.push(v));
}

/// The seven non-identity rotation index vectors, loaded once per kernel
/// invocation and kept in registers across the block loop.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load_rotations_avx2() -> [__m256i; 7] {
    let mut rot = [_mm256_setzero_si256(); 7];
    for (slot, idx) in rot.iter_mut().zip(ROT8[1..].iter()) {
        *slot = _mm256_loadu_si256(idx.as_ptr().cast());
    }
    rot
}

/// OR of the equality compares of `va` against all eight rotations of `vb`,
/// fully unrolled with a tree reduction so the eight compares pipeline
/// instead of serialising on one accumulator.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn block_matches_avx2(va: __m256i, vb: __m256i, rot: &[__m256i; 7]) -> __m256i {
    let e0 = _mm256_cmpeq_epi32(va, vb);
    let e1 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[0]));
    let e2 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[1]));
    let e3 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[2]));
    let e4 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[3]));
    let e5 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[4]));
    let e6 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[5]));
    let e7 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[6]));
    let m01 = _mm256_or_si256(e0, e1);
    let m23 = _mm256_or_si256(e2, e3);
    let m45 = _mm256_or_si256(e4, e5);
    let m67 = _mm256_or_si256(e6, e7);
    _mm256_or_si256(_mm256_or_si256(m01, m23), _mm256_or_si256(m45, m67))
}

/// `|a ∩ b|` via the 8-lane block merge.
///
/// # Safety
/// Caller must have verified AVX2 support.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn merge_count_avx2(a: &[u32], b: &[u32]) -> usize {
    let rot = load_rotations_avx2();
    let (mut i, mut j) = (0usize, 0usize);
    let mut count = 0usize;
    while i + 8 <= a.len() && j + 8 <= b.len() {
        let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
        let vb = _mm256_loadu_si256(b.as_ptr().add(j).cast());
        let m = block_matches_avx2(va, vb, &rot);
        count += (_mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32).count_ones() as usize;
        let a_max = *a.get_unchecked(i + 7);
        let b_max = *b.get_unchecked(j + 7);
        i += 8 * usize::from(a_max <= b_max);
        j += 8 * usize::from(b_max <= a_max);
    }
    let mut tail = 0usize;
    scalar_tail(&a[i..], &b[j..], |_| tail += 1);
    count + tail
}

/// Materialising sibling of [`merge_count_avx2`].
///
/// # Safety
/// Caller must have verified AVX2 support. `out` must not alias `a`/`b`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn merge_into_avx2(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    debug_assert!(out.is_empty());
    out.reserve(a.len().min(b.len()) + 8);
    let rot = load_rotations_avx2();
    let base = out.as_mut_ptr();
    let mut len = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i + 8 <= a.len() && j + 8 <= b.len() {
        let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
        let vb = _mm256_loadu_si256(b.as_ptr().add(j).cast());
        let m = block_matches_avx2(va, vb, &rot);
        let mask = _mm256_movemask_ps(_mm256_castsi256_ps(m)) as usize;
        let idx = _mm256_loadu_si256(AVX2_COMPACT.get_unchecked(mask).as_ptr().cast());
        _mm256_storeu_si256(base.add(len).cast(), _mm256_permutevar8x32_epi32(va, idx));
        len += mask.count_ones() as usize;
        let a_max = *a.get_unchecked(i + 7);
        let b_max = *b.get_unchecked(j + 7);
        i += 8 * usize::from(a_max <= b_max);
        j += 8 * usize::from(b_max <= a_max);
    }
    out.set_len(len);
    scalar_tail(&a[i..], &b[j..], |v| out.push(v));
}

/// Locates the first element of `large[from..]` that is `>= x` using
/// block-granular exponential search, block-granular binary narrowing and a
/// final 8-lane probe. Returns the absolute index (== `large.len()` when
/// every element is smaller) and whether the element equals `x`.
///
/// Correctness relies on every element before `from` being `< x`, which the
/// galloping drivers maintain by walking `small` in ascending order.
#[target_feature(enable = "avx2")]
unsafe fn gallop_find_avx2(large: &[u32], from: usize, x: u32) -> (usize, bool) {
    let n = large.len();
    // Exponential search over 8-element blocks: advance while the window's
    // last element is still < x.
    let mut base = from;
    let mut step = 8usize;
    while base + step <= n && *large.get_unchecked(base + step - 1) < x {
        base += step;
        step <<= 1;
    }
    // The first `>= x` now lies in `[base, min(base+step, n))` (or is `n`).
    let mut lo = base;
    let mut rem = (base + step).min(n) - base;
    while rem > 8 {
        let half = rem / 2;
        if *large.get_unchecked(lo + half - 1) < x {
            lo += half;
        }
        rem -= half;
    }
    if lo + 8 <= n {
        // 8-lane unsigned lower-bound probe: lanes `< x` produce a
        // contiguous low-bit run in the movemask, so the first `>= x` lane
        // is its trailing-ones count.
        let v = _mm256_loadu_si256(large.as_ptr().add(lo).cast());
        let sign = _mm256_set1_epi32(i32::MIN);
        let xv = _mm256_set1_epi32(x as i32);
        let lt = _mm256_cmpgt_epi32(_mm256_xor_si256(xv, sign), _mm256_xor_si256(v, sign));
        let lt_mask = _mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32;
        let idx = (!lt_mask).trailing_zeros() as usize;
        let pos = lo + idx;
        (pos, pos < n && *large.get_unchecked(pos) == x)
    } else {
        let mut pos = lo;
        while pos < n && *large.get_unchecked(pos) < x {
            pos += 1;
        }
        (pos, pos < n && *large.get_unchecked(pos) == x)
    }
}

/// `|small ∩ large|` for skewed inputs via block-based galloping.
///
/// # Safety
/// Caller must have verified AVX2 support. Both inputs strictly sorted.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gallop_count_avx2(small: &[u32], large: &[u32]) -> usize {
    let mut count = 0usize;
    let mut lo = 0usize;
    for &x in small {
        if lo >= large.len() {
            break;
        }
        let (pos, found) = gallop_find_avx2(large, lo, x);
        count += usize::from(found);
        lo = pos + usize::from(found);
    }
    count
}

/// Materialising sibling of [`gallop_count_avx2`]; emits the common
/// elements (in ascending order, since `small` is sorted).
///
/// # Safety
/// Caller must have verified AVX2 support. `out` must not alias the inputs.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gallop_into_avx2(small: &[u32], large: &[u32], out: &mut Vec<u32>) {
    let mut lo = 0usize;
    for &x in small {
        if lo >= large.len() {
            break;
        }
        let (pos, found) = gallop_find_avx2(large, lo, x);
        if found {
            out.push(x);
        }
        lo = pos + usize::from(found);
    }
}
