//! Match sinks: what the execution core *does* with the embeddings it finds.
//!
//! [`MatchSink`] makes the matching kernel a pipeline stage. The matcher
//! ([`crate::exec::interp`]) never runs a plan's last loop: under every
//! binding of the loops above it, it hands the sink the bound prefix and the
//! last loop's candidate window as one sorted set ([`MatchSink::on_leaf`]),
//! and the sink does the cheapest thing that set allows. Counting is one
//! mode among several:
//!
//! * `CountSink` — the global count: `|window|` less the bound vertices
//!   inside it, a handful of binary searches per leaf and no work per
//!   embedding.
//! * [`EmbedSink`] — records full vertex tuples (enumeration), bounded by a
//!   limit so paged/streaming consumers can stop early. The pooled
//!   `Job::Enumerate` claims a whole leaf of its budget with one atomic add.
//! * `Job::Orbit` — per-vertex participation counts (local motif
//!   profiles): `counts[v]` is the number of embeddings containing `v`. One
//!   add per window member; the prefix vertices' shares are summed locally
//!   and reach the shared counters when a binding changes.
//! * `Job::Sample` — seeded uniform prefix-sampling with a
//!   Horvitz–Thompson estimate and standard error, for approximate counts
//!   at interactive latency. An accepted task is counted by the count leaf.
//!
//! Every query runs as a `Job` on the pool: workers do not share one sink,
//! each accumulates locally and merges into the job (what a prefix task
//! folds into) under brief, per-task synchronisation. The sequential
//! `OrbitSink` and `SampleSink` at the end of this file are compiled for
//! tests only: the references the pooled orbit and sample jobs are checked
//! against, one window member at a time (`for_each_member`). The IEP
//! table never applies to sink modes — a sink needs the last loop's window
//! under every binding of *all* the loops above it, and from `k ≥ 2` on IEP
//! neither binds those loops nor keeps their restrictions — so mode plans
//! are compiled with IEP disabled at the planner
//! ([`crate::engine::PlanOptions::enable_iep`]).

use crate::config::ExecutionPlan;
use crate::exec::parallel::CountMode;
use graphpi_graph::csr::VertexId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A consumer of matched embeddings.
///
/// The matcher calls [`MatchSink::on_leaf`] once per binding of every loop
/// but the last, with the last loop's candidates as a set. Sinks that can
/// saturate (e.g. a limit) return `true` from [`MatchSink::is_full`] to stop
/// the search early.
pub trait MatchSink {
    /// Consumes the embeddings of one leaf. `prefix` holds the vertices
    /// bound by every loop but the last, in **schedule order** (`prefix[i]`
    /// is the vertex chosen by loop `i`); `window` holds the last loop's
    /// candidates inside its restriction window, ascending and
    /// duplicate-free. Each member `v` of `window` that `prefix` does not
    /// already bind is one embedding, `prefix` followed by `v`; a member
    /// `prefix` binds is none (embeddings are injective), and a sink must
    /// skip it.
    fn on_leaf(&mut self, prefix: &[VertexId], window: &[VertexId]);

    /// Task-level admission: called once per search prefix before the
    /// subtree below it is explored; returning `false` skips the subtree
    /// entirely. The default admits everything; `SampleSink` implements
    /// its sampling decision here.
    fn accept_prefix(&mut self, _prefix: &[VertexId]) -> bool {
        true
    }

    /// `true` once the sink wants no further embeddings (the matcher stops
    /// at the next opportunity). The default never saturates.
    fn is_full(&self) -> bool {
        false
    }
}

/// How many members of `window` (sorted) `prefix` does not bind: the number
/// of embeddings in a leaf. `prefix` is injective, so each of its vertices
/// takes out at most one member.
#[inline]
pub(crate) fn free_members(prefix: &[VertexId], window: &[VertexId]) -> u64 {
    let bound = prefix
        .iter()
        .filter(|v| window.binary_search(v).is_ok())
        .count();
    (window.len() - bound) as u64
}

/// The counting sink: a leaf adds its size, nothing is done per embedding.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CountSink {
    count: u64,
}

impl CountSink {
    /// A fresh zero-count sink.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The number of embeddings consumed.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }
}

impl MatchSink for CountSink {
    #[inline(always)]
    fn on_leaf(&mut self, prefix: &[VertexId], window: &[VertexId]) {
        self.count += free_members(prefix, window);
    }
}

/// The embeddings of a leaf by their last vertex: the members of `window`
/// that `prefix` does not bind, in window order.
#[inline]
pub(crate) fn members<'a>(
    prefix: &'a [VertexId],
    window: &'a [VertexId],
) -> impl Iterator<Item = VertexId> + 'a {
    window.iter().copied().filter(move |v| !prefix.contains(v))
}

/// Appends the first `room` embeddings of a leaf to `out` (flat, schedule
/// order, window order) and returns how many it appended.
#[inline]
pub(crate) fn record_members(
    out: &mut Vec<VertexId>,
    prefix: &[VertexId],
    window: &[VertexId],
    room: u64,
) -> u64 {
    let room = usize::try_from(room).unwrap_or(usize::MAX);
    let mut recorded = 0;
    for v in members(prefix, window).take(room) {
        out.extend_from_slice(prefix);
        out.push(v);
        recorded += 1;
    }
    recorded
}

/// Records full embeddings (flattened, fixed arity) up to a limit.
#[derive(Debug)]
pub struct EmbedSink {
    arity: usize,
    limit: u64,
    recorded: u64,
    /// Flat storage: embedding `e` occupies `buf[e*arity .. (e+1)*arity]`,
    /// vertices in schedule order.
    buf: Vec<VertexId>,
}

impl EmbedSink {
    /// A sink recording at most `limit` embeddings of `arity` vertices.
    pub fn new(arity: usize, limit: u64) -> Self {
        Self {
            arity,
            limit,
            recorded: 0,
            buf: Vec::new(),
        }
    }

    /// Number of embeddings recorded so far.
    pub fn len(&self) -> u64 {
        self.recorded
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// The flat schedule-order buffer (`len() * arity` vertices).
    pub fn vertices(&self) -> &[VertexId] {
        &self.buf
    }
}

impl MatchSink for EmbedSink {
    #[inline]
    fn on_leaf(&mut self, prefix: &[VertexId], window: &[VertexId]) {
        debug_assert_eq!(prefix.len() + 1, self.arity);
        let room = self.limit - self.recorded;
        self.recorded += record_members(&mut self.buf, prefix, window, room);
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.recorded >= self.limit
    }
}

/// Deterministic 64-bit FNV-1a over the sampling seed and a vertex prefix.
/// The hash depends only on `(seed, prefix)` — not on thread count, task
/// order or batch size — which is what makes sampled estimates reproducible
/// across every execution configuration.
#[inline]
pub(crate) fn prefix_hash(seed: u64, prefix: &[VertexId]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET;
    for byte in seed.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(PRIME);
    }
    for &v in prefix {
        for byte in v.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(PRIME);
        }
    }
    // Finalizer (murmur3 fmix64). Raw FNV-1a has almost no avalanche into
    // the high bits for short inputs, so without this the top-53-bit
    // uniforms of nearby prefixes are nearly equal and the per-task
    // Bernoulli decisions accept or reject en masse instead of
    // independently — wrecking the sampling estimator's variance.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// The Bernoulli inclusion decision for one prefix at sampling rate `rate`
/// (accept with probability `rate`, independently per prefix, deterministic
/// in `(seed, prefix)`). A rate of 1.0 (or more) accepts everything, so the
/// estimate degrades gracefully to the exact count.
#[inline]
pub(crate) fn sample_accepts(seed: u64, rate: f64, prefix: &[VertexId]) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    // Top 53 bits → a uniform f64 in [0, 1).
    let u = (prefix_hash(seed, prefix) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    u < rate
}

/// Accumulated sampling statistics: the sufficient statistics of the
/// Horvitz–Thompson estimator over Bernoulli-sampled prefix subtrees.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SampleAccum {
    /// Prefix subtrees whose sampling decision accepted them.
    pub sampled: u64,
    /// All prefix subtrees offered to the sampler.
    pub total: u64,
    /// Sum of the per-subtree embedding counts over the accepted subtrees.
    pub sum_y: u128,
    /// Sum of squared per-subtree counts over the accepted subtrees.
    pub sum_y2: u128,
}

impl SampleAccum {
    /// Records one sampled subtree with `y` embeddings.
    pub(crate) fn record(&mut self, y: u64) {
        self.sampled += 1;
        self.sum_y += y as u128;
        self.sum_y2 += (y as u128) * (y as u128);
    }

    /// The Horvitz–Thompson estimate and its standard error at inclusion
    /// probability `rate`. With `rate >= 1` every subtree was counted, so
    /// the estimate is the exact total and the error is zero. A sample that
    /// met no embedding but skipped some subtrees says nothing about the
    /// skipped ones: its error is unknown, reported as `f64::INFINITY`, not
    /// the zero the variance formula gives.
    pub(crate) fn estimate(&self, rate: f64) -> SampleEstimate {
        if rate >= 1.0 {
            return SampleEstimate {
                estimate: self.sum_y as f64,
                stderr: 0.0,
                sampled: self.sampled,
                total: self.total,
            };
        }
        let p = rate.max(f64::MIN_POSITIVE);
        // τ̂ = Σ_{i ∈ S} y_i / p;  Var̂(τ̂) = Σ_{i ∈ S} y_i² (1 − p) / p².
        let estimate = self.sum_y as f64 / p;
        let variance = self.sum_y2 as f64 * (1.0 - p) / (p * p);
        let stderr = if self.sum_y == 0 && self.sampled < self.total {
            f64::INFINITY
        } else {
            variance.max(0.0).sqrt()
        };
        SampleEstimate {
            estimate,
            stderr,
            sampled: self.sampled,
            total: self.total,
        }
    }
}

/// An approximate count with its uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SampleEstimate {
    /// The Horvitz–Thompson estimate of the exact embedding count.
    pub estimate: f64,
    /// One standard error of the estimate (0 when the rate was 1; infinite
    /// when no sampled subtree held an embedding and some went unsampled).
    pub stderr: f64,
    /// Number of prefix subtrees actually counted.
    pub sampled: u64,
    /// Number of prefix subtrees considered.
    pub total: u64,
}

/// What a prefix task folds into: the job kind and, for the sink modes, the
/// shared state per-worker local accumulation merges into. One instance
/// lives on the submitting thread's stack for the duration of the job; the
/// pool's job slot publishes it to workers beside the plan and the
/// execution context (see [`crate::exec::pool`]'s safety model).
#[derive(Debug)]
pub(crate) enum Job {
    /// Counting: every task returns its term of the job's raw total, which
    /// the executor sums.
    Count {
        /// One IEP term per task instead of an enumerated subtree.
        iep: bool,
    },
    /// Enumeration: a global budget (`claimed`), taken a leaf at a time,
    /// bounds the recorded embeddings at `limit`; workers append whole
    /// task-local pages under the mutex.
    Enumerate {
        /// Maximum embeddings to record.
        limit: u64,
        /// Embeddings claimed so far (may overshoot `limit` by in-flight
        /// claims; only the part of a claim below `limit` records).
        claimed: AtomicU64,
        /// Flat schedule-order output, `arity` vertices per embedding.
        out: Mutex<Vec<VertexId>>,
    },
    /// Per-vertex counts, merged with relaxed atomic adds (order-free sum).
    Orbit {
        /// `counts[v]` accumulates embeddings containing vertex `v`.
        counts: Vec<AtomicU64>,
    },
    /// Sampled counting: per-task decisions, statistics merged under the
    /// mutex.
    Sample {
        /// The sampling seed.
        seed: u64,
        /// Bernoulli inclusion probability per prefix subtree.
        rate: f64,
        /// Merged sufficient statistics.
        accum: Mutex<SampleAccum>,
    },
}

impl Job {
    /// A count job in the requested mode. A plan without an IEP leaf
    /// (suffix too short, or an over-count no division corrects) silently
    /// degrades to enumeration, exactly like the sequential path.
    pub(crate) fn count(plan: &ExecutionPlan, mode: CountMode) -> Self {
        Job::Count {
            iep: mode == CountMode::Iep && plan.program().iep().is_some(),
        }
    }

    pub(crate) fn enumerate(limit: u64) -> Self {
        Job::Enumerate {
            limit,
            claimed: AtomicU64::new(0),
            out: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn orbit(num_vertices: usize) -> Self {
        Job::Orbit {
            counts: (0..num_vertices).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn sample(seed: u64, rate: f64) -> Self {
        Job::Sample {
            seed,
            rate,
            accum: Mutex::new(SampleAccum::default()),
        }
    }

    /// For enumeration: `true` once the budget is exhausted (workers skip
    /// remaining tasks cheaply).
    pub(crate) fn enumeration_full(&self) -> bool {
        match self {
            Job::Enumerate { limit, claimed, .. } => claimed.load(Ordering::Relaxed) >= *limit,
            _ => false,
        }
    }
}

/// The per-member reading of a leaf, the reference the set-valued sinks are
/// checked against: calls `each` with every embedding of the leaf — `prefix`
/// followed by one member of `window` it does not bind — in window order.
#[cfg(test)]
pub(crate) fn for_each_member(
    prefix: &[VertexId],
    window: &[VertexId],
    mut each: impl FnMut(&[VertexId]),
) {
    let mut embedding = prefix.to_vec();
    for &v in window {
        if !prefix.contains(&v) {
            embedding.push(v);
            each(&embedding);
            embedding.pop();
        }
    }
}

/// Accumulates per-vertex participation counts: `counts()[v]` is the number
/// of (restriction-deduplicated) embeddings that contain data vertex `v`.
/// Summing over all vertices yields `pattern_size × global_count`.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct OrbitSink {
    counts: Vec<u64>,
}

#[cfg(test)]
impl OrbitSink {
    /// A sink over a graph with `num_vertices` vertices.
    pub(crate) fn new(num_vertices: usize) -> Self {
        Self {
            counts: vec![0; num_vertices],
        }
    }

    /// The per-vertex counts, indexed by data vertex id.
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Consumes the sink, returning the per-vertex counts.
    pub(crate) fn into_counts(self) -> Vec<u64> {
        self.counts
    }
}

#[cfg(test)]
impl MatchSink for OrbitSink {
    fn on_leaf(&mut self, prefix: &[VertexId], window: &[VertexId]) {
        for_each_member(prefix, window, |embedding| {
            for &v in embedding {
                self.counts[v as usize] += 1;
            }
        });
    }
}

/// A sequential sampling sink: admits whole prefix subtrees with
/// probability `rate` (decided in [`MatchSink::accept_prefix`]) and counts
/// the embeddings of the admitted ones. The parallel executors make the
/// same `(seed, prefix)` decision per task instead — identical statistics,
/// since a task *is* a prefix subtree.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct SampleSink {
    seed: u64,
    rate: f64,
    /// Count inside the currently admitted subtree (folded into the
    /// accumulator at the next subtree boundary).
    current: u64,
    /// An admitted subtree is open and must be flushed.
    pending: bool,
    accum: SampleAccum,
}

#[cfg(test)]
impl SampleSink {
    /// A sink sampling prefixes at `rate` under `seed`.
    pub(crate) fn new(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            rate,
            current: 0,
            pending: false,
            accum: SampleAccum::default(),
        }
    }

    /// Finishes the current subtree (if any) and returns the accumulated
    /// statistics.
    pub(crate) fn finish(mut self) -> SampleAccum {
        self.flush();
        self.accum
    }

    fn flush(&mut self) {
        if self.pending {
            self.accum.record(self.current);
            self.current = 0;
            self.pending = false;
        }
    }
}

#[cfg(test)]
impl MatchSink for SampleSink {
    fn on_leaf(&mut self, prefix: &[VertexId], window: &[VertexId]) {
        for_each_member(prefix, window, |_| self.current += 1);
    }

    fn accept_prefix(&mut self, prefix: &[VertexId]) -> bool {
        self.flush();
        self.accum.total += 1;
        if sample_accepts(self.seed, self.rate, prefix) {
            self.pending = true;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sink_counts() {
        let mut sink = CountSink::new();
        sink.on_leaf(&[1, 2], &[3]);
        sink.on_leaf(&[4, 5], &[6]);
        assert_eq!(sink.count(), 2);
        // Bound vertices inside the window are no embeddings, wherever in
        // it they sit; bound vertices outside it change nothing.
        sink.on_leaf(&[7, 3, 9], &[3, 5, 7, 8]);
        assert_eq!(sink.count(), 4);
        sink.on_leaf(&[3, 8], &[3, 8]);
        sink.on_leaf(&[3, 8], &[]);
        assert_eq!(sink.count(), 4);
        assert!(!sink.is_full());
    }

    #[test]
    fn embed_sink_respects_limit() {
        let mut sink = EmbedSink::new(2, 2);
        sink.on_leaf(&[1], &[2]);
        assert!(!sink.is_full());
        sink.on_leaf(&[3], &[4]);
        assert!(sink.is_full());
        sink.on_leaf(&[5], &[6]); // ignored: full
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.vertices(), [1, 2, 3, 4]);
    }

    #[test]
    fn embed_sink_fills_up_mid_leaf() {
        // Three of the window's five members fit, the bound one not
        // counting against the limit.
        let mut sink = EmbedSink::new(3, 3);
        sink.on_leaf(&[4, 2], &[1, 2, 3, 5, 6]);
        assert!(sink.is_full());
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.vertices(), [4, 2, 1, 4, 2, 3, 4, 2, 5]);
    }

    #[test]
    fn orbit_sink_accumulates_membership() {
        let mut sink = OrbitSink::new(5);
        sink.on_leaf(&[0, 2], &[4]);
        sink.on_leaf(&[2, 3], &[4]);
        assert_eq!(sink.counts(), &[1, 0, 2, 1, 2]);
    }

    #[test]
    fn set_valued_leaves_agree_with_the_per_member_reading() {
        // Every prefix over 0..6 of length 0..=2 against every window over
        // 0..6: the count and the recorded page are what binding the
        // members one at a time produces.
        let prefixes: Vec<Vec<VertexId>> = std::iter::once(vec![])
            .chain((0..6).map(|a| vec![a]))
            .chain((0..6).flat_map(|a| (0..6).filter(move |&b| b != a).map(move |b| vec![a, b])))
            .collect();
        for mask in 0u32..64 {
            let window: Vec<VertexId> = (0..6).filter(|v| mask & (1 << v) != 0).collect();
            for prefix in &prefixes {
                let mut reference = Vec::new();
                for_each_member(prefix, &window, |e| reference.extend_from_slice(e));
                let arity = prefix.len() + 1;
                let mut count = CountSink::new();
                count.on_leaf(prefix, &window);
                assert_eq!(count.count() as usize, reference.len() / arity);
                let mut embed = EmbedSink::new(arity, u64::MAX);
                embed.on_leaf(prefix, &window);
                assert_eq!(embed.vertices(), reference, "{prefix:?} {window:?}");
            }
        }
    }

    #[test]
    fn prefix_hash_is_deterministic_and_seed_sensitive() {
        let a = prefix_hash(7, &[1, 2, 3]);
        assert_eq!(a, prefix_hash(7, &[1, 2, 3]));
        assert_ne!(a, prefix_hash(8, &[1, 2, 3]));
        assert_ne!(a, prefix_hash(7, &[1, 2, 4]));
    }

    #[test]
    fn rate_one_accepts_everything_and_is_exact() {
        for v in 0..100u32 {
            assert!(sample_accepts(3, 1.0, &[v]));
        }
        let mut accum = SampleAccum {
            total: 10,
            ..SampleAccum::default()
        };
        for y in [5u64, 0, 7, 3, 1, 0, 0, 2, 9, 4] {
            accum.record(y);
        }
        let est = accum.estimate(1.0);
        assert_eq!(est.estimate, 31.0);
        assert_eq!(est.stderr, 0.0);
        assert_eq!(est.sampled, 10);
    }

    #[test]
    fn an_empty_partial_sample_has_unknown_error() {
        // Nothing sampled held an embedding, but some subtrees went
        // unsampled: the estimate is 0 and its error is unknown, not 0.
        let mut partial = SampleAccum {
            total: 10,
            ..SampleAccum::default()
        };
        for _ in 0..3 {
            partial.record(0);
        }
        let est = partial.estimate(0.3);
        assert_eq!(est.estimate, 0.0);
        assert_eq!(est.stderr, f64::INFINITY);
        // A run that happened to accept every subtree counted them all, and
        // rate 1 counts every subtree by construction: both are exact.
        let mut complete = partial;
        complete.total = 3;
        assert_eq!(complete.estimate(0.3).stderr, 0.0);
        assert_eq!(partial.estimate(1.0).stderr, 0.0);
        // One non-zero subtree makes the usual variance estimate apply.
        partial.record(4);
        assert!(partial.estimate(0.3).stderr.is_finite());
    }

    #[test]
    fn acceptance_frequency_tracks_rate() {
        let accepted = (0..10_000u32)
            .filter(|&v| sample_accepts(42, 0.25, &[v]))
            .count();
        let frequency = accepted as f64 / 10_000.0;
        assert!(
            (frequency - 0.25).abs() < 0.02,
            "acceptance frequency {frequency} far from rate"
        );
    }

    #[test]
    fn horvitz_thompson_is_unbiased_in_expectation() {
        // Ground truth: subtree sizes y_i; estimate averaged over many
        // seeds must approach the true total.
        let ys: Vec<u64> = (0..200).map(|i| (i * 7 + 3) % 23).collect();
        let total: u64 = ys.iter().sum();
        let rate = 0.3;
        let mut mean = 0.0;
        let seeds = 200;
        for seed in 0..seeds {
            let mut accum = SampleAccum::default();
            for (i, &y) in ys.iter().enumerate() {
                accum.total += 1;
                if sample_accepts(seed, rate, &[i as VertexId]) {
                    accum.record(y);
                }
            }
            mean += accum.estimate(rate).estimate;
        }
        mean /= seeds as f64;
        let relative = (mean - total as f64).abs() / total as f64;
        assert!(relative < 0.05, "relative bias {relative} too large");
    }

    #[test]
    fn job_enumeration_budget() {
        let job = Job::enumerate(2);
        assert!(!job.enumeration_full());
        if let Job::Enumerate { claimed, .. } = &job {
            claimed.store(2, Ordering::Relaxed);
        }
        assert!(job.enumeration_full());
        assert!(!Job::orbit(4).enumeration_full());
    }
}
