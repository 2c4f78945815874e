//! What the four workloads share: the run context, failure accounting,
//! set-up timing, phase sequencing and the closed-loop connection driver.

use crate::inputs::Sizing;
use crate::json::Value;
use crate::stats::{self, Recorder, Summary};
use crate::trace::{Span, SpanBuf};
use graphpi_core::config::{PoolOptions, ServeOptions};
use graphpi_core::net::{NetError, ServerReport};
use graphpi_core::{Server, ServerHandle};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything one `--workload` run is parameterised by.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// The run seed every input derives from.
    pub seed: u64,
    /// Length of the timed phase (`--seconds`).
    pub seconds: f64,
    /// Whether this is the traced run (`--trace 1`).
    pub trace: bool,
    /// Pinned sizes (full or smoke).
    pub sizing: Sizing,
    /// CPUs the process could run on before it pinned itself.
    pub nproc: usize,
    /// `T = min(nproc, 4)`: the size of every worker pool.
    pub threads: usize,
    /// The CPU set the process started with (the run itself is pinned).
    pub cpus: crate::affinity::Original,
    /// The one CPU every thread of the run is pinned to (`None`: pinning
    /// was refused and the run is unpinned).
    pub pinned_cpu: Option<usize>,
    /// A fresh directory inside the build's target directory for WAL
    /// files and traces; nothing is written anywhere else.
    pub scratch: PathBuf,
}

impl RunCtx {
    /// Lengths of the untraced and (in a traced run) traced phases. The
    /// traced run splits `--seconds` three ways — untraced phase, traced
    /// phase, layer probes — so both kinds of run take about as long.
    pub fn phase_lengths(&self) -> (Duration, Option<Duration>) {
        if self.trace {
            let third = Duration::from_secs_f64(self.seconds * 0.3);
            (third, Some(third))
        } else {
            (Duration::from_secs_f64(self.seconds), None)
        }
    }
}

/// Attempt and failure accounting. A failure is an operation that
/// returned an error or a result that disagrees with its reference.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (warm-up and probe operations included).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one attempted operation and whether it held.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Records a failed invariant that is not itself an operation (a
    /// post-phase cross-check); counted as one failed attempt.
    pub fn invariant(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.attempted += 1;
            self.fail(what);
        }
    }

    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(what());
        }
    }

    /// Folds another tally (a connection's) into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(message);
            }
        }
    }
}

/// One thread's latency recorders for one window.
#[derive(Debug)]
pub struct WindowRec {
    /// Primary-operation latencies.
    pub primary: Recorder,
    /// Secondary-operation latencies.
    pub secondary: Recorder,
}

impl WindowRec {
    /// Samples kept per class per window per thread.
    const CAPACITY: usize = 1 << 13;

    /// Fresh recorders.
    pub fn new() -> Self {
        Self {
            primary: Recorder::with_capacity(Self::CAPACITY),
            secondary: Recorder::with_capacity(Self::CAPACITY),
        }
    }
}

impl Default for WindowRec {
    fn default() -> Self {
        Self::new()
    }
}

/// What every thread recorded in one window, and how long the window ran
/// (until the last thread finished the operation it had in flight).
#[derive(Debug)]
pub struct Window {
    /// One entry per thread.
    pub recs: Vec<WindowRec>,
    /// Wall-clock length.
    pub elapsed: Duration,
    /// The process's resident set when the window ended, in MiB.
    pub rss_mb: f64,
}

/// One `Vm*` line of `/proc/self/status` in MiB (`VmRSS`: resident now,
/// `VmHWM`: the most it has ever been); 0 where `/proc` is unavailable.
pub fn resident_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one timed phase measured.
#[derive(Debug)]
pub struct PhaseStats {
    /// Primary-operation summary.
    pub primary: Summary,
    /// Secondary-operation summary.
    pub secondary: Summary,
    /// Wall-clock length of the phase.
    pub elapsed_s: f64,
    /// Resident set in MiB: the median over the windows of the size each
    /// ended at. (The high-water mark moves 20 % between identical runs of
    /// `mixed_rw` — it depends on when old generations happen to be freed —
    /// and is reported ungated as `mem.peak_rss_mb`.)
    pub rss_mb: f64,
    /// Every span recorded (empty for an untraced phase).
    pub spans: Vec<Span>,
    /// Spans that did not fit their buffer.
    pub dropped_spans: u64,
}

impl PhaseStats {
    /// Summarises a phase's windows and merges its threads' spans.
    pub fn collect(windows: Vec<Window>, spans: Vec<SpanBuf>) -> Self {
        let class = |pick: fn(&WindowRec) -> &Recorder| {
            let per_window: Vec<(Vec<&Recorder>, f64)> = windows
                .iter()
                .map(|w| (w.recs.iter().map(pick).collect(), w.elapsed.as_secs_f64()))
                .collect();
            stats::summarize(&per_window)
        };
        let rss: Vec<f64> = windows.iter().map(|w| w.rss_mb).collect();
        Self {
            primary: class(|r| &r.primary),
            secondary: class(|r| &r.secondary),
            elapsed_s: windows.iter().map(|w| w.elapsed.as_secs_f64()).sum(),
            rss_mb: stats::median(&rss),
            dropped_spans: spans.iter().map(SpanBuf::dropped).sum(),
            spans: spans.into_iter().flat_map(SpanBuf::into_spans).collect(),
        }
    }
}

/// Runs warm-up, the untraced phase and (in a traced run) the traced
/// phase. `phase(window_length, windows, spans)` runs one phase of
/// `windows` windows; `spans` is the mode its threads' span buffers must
/// be in.
pub fn run_phases(
    ctx: &RunCtx,
    mut phase: impl FnMut(Duration, u32, &SpanBuf) -> PhaseStats,
) -> (PhaseStats, Option<PhaseStats>) {
    let (untraced_len, traced_len) = ctx.phase_lengths();
    let windows = ctx.sizing.windows;
    phase(ctx.sizing.warmup, 1, &SpanBuf::off());
    let untraced = phase(untraced_len / windows, windows, &SpanBuf::off());
    let traced =
        traced_len.map(|len| phase(len / windows, windows, &SpanBuf::on(Instant::now(), 0)));
    (untraced, traced)
}

/// Runs `setup` repeatedly (tearing down all but the last result) until
/// the sizing's set-up budget is spent, and returns the median set-up
/// time in seconds with the last result. A traced run sets up once: it
/// does not report `setup_s`.
pub fn timed_setups<R>(
    ctx: &RunCtx,
    mut setup: impl FnMut() -> R,
    mut teardown: impl FnMut(R),
) -> (f64, R) {
    let sizing = &ctx.sizing;
    let budget_start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let start = Instant::now();
        let ready = setup();
        samples.push(start.elapsed().as_secs_f64());
        let enough = samples.len() >= sizing.setup_max_reps
            || (samples.len() >= sizing.setup_min_reps
                && budget_start.elapsed() >= sizing.setup_budget);
        if ctx.trace || enough {
            return (stats::median(&samples), ready);
        }
        teardown(ready);
    }
}

/// Runs one phase on the calling thread: in each window, `op` is called
/// back to back until the window's length has passed.
pub fn run_windows_inline(
    window_length: Duration,
    windows: u32,
    spans: &SpanBuf,
    mut op: impl FnMut(&mut WindowRec, &mut SpanBuf),
) -> PhaseStats {
    let mut spans = spans.sibling(0);
    let windows = (0..windows)
        .map(|_| {
            let mut rec = WindowRec::new();
            let start = Instant::now();
            while start.elapsed() < window_length {
                op(&mut rec, &mut spans);
            }
            Window {
                recs: vec![rec],
                elapsed: start.elapsed(),
                rss_mb: resident_mb("VmRSS"),
            }
        })
        .collect();
    PhaseStats::collect(windows, vec![spans])
}

/// A client connection the closed-loop driver can point at fresh
/// recorders.
pub trait Connection: Send {
    /// The connection's current window recorders and span buffer.
    fn recording(&mut self) -> (&mut WindowRec, &mut SpanBuf);
}

/// Runs one phase over `conns`: in each window every connection runs
/// `step` in its own thread (see [`drive`]).
pub fn run_windows<C: Connection>(
    conns: &mut [C],
    window_length: Duration,
    windows: u32,
    spans: &SpanBuf,
    step: impl Fn(&mut C) + Sync,
) -> PhaseStats {
    for (i, conn) in conns.iter_mut().enumerate() {
        let (rec, conn_spans) = conn.recording();
        *rec = WindowRec::new();
        *conn_spans = spans.sibling(i as u64);
    }
    let windows = (0..windows)
        .map(|_| {
            let elapsed = drive(conns, window_length, &step);
            Window {
                // Taking a window's recorders leaves fresh ones for the next.
                recs: conns
                    .iter_mut()
                    .map(|c| std::mem::take(c.recording().0))
                    .collect(),
                elapsed,
                rss_mb: resident_mb("VmRSS"),
            }
        })
        .collect();
    let spans = conns
        .iter_mut()
        .map(|c| std::mem::replace(c.recording().1, SpanBuf::off()))
        .collect();
    PhaseStats::collect(windows, spans)
}

/// Runs `step` on every connection in its own thread until `length` has
/// passed: a closed loop, one request in flight per connection.
pub fn drive<C: Send>(conns: &mut [C], length: Duration, step: impl Fn(&mut C) + Sync) -> Duration {
    let start = Instant::now();
    let deadline = start + length;
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let step = &step;
            scope.spawn(move || {
                while Instant::now() < deadline {
                    step(conn);
                }
            });
        }
    });
    start.elapsed()
}

/// Binds a loopback server whose pool has `threads` workers (every other
/// option as shipped) and takes its handle.
pub fn bind_loopback(threads: usize) -> (Server, ServerHandle) {
    let options = ServeOptions {
        pool: PoolOptions {
            threads,
            ..PoolOptions::default()
        },
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", options).expect("bind loopback");
    let handle = server.handle().expect("server handle");
    (server, handle)
}

/// The report of a server thread that was asked to drain and joined.
pub fn drained(joined: std::thread::Result<Result<ServerReport, NetError>>) -> ServerReport {
    joined
        .expect("server thread panicked")
        .expect("server returned an error")
}

/// Plan-cache hits as a share of lookups (0 before the first lookup).
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// A named per-layer measurement with its unit.
pub type LayerMetrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Attempts and failures over the whole run.
    pub checks: Checks,
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// The untraced timed phase.
    pub untraced: PhaseStats,
    /// The traced phase (traced runs only).
    pub traced: Option<PhaseStats>,
    /// Per-layer metrics from probes and server counters (traced runs
    /// only; span-derived ones are added by the reporter).
    pub layer: LayerMetrics,
    /// Workload facts for the fingerprint (sizes, counts, policies).
    pub info: Vec<(&'static str, Value)>,
}

/// Runs `f` repeatedly for about `budget` (at least once: a call longer
/// than the budget is timed a single time) and returns the median
/// duration of one call in nanoseconds.
pub fn median_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || (start.elapsed() < budget && samples.len() < 100_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace: bool) -> RunCtx {
        RunCtx {
            seed: 1,
            seconds: 1.0,
            trace,
            sizing: Sizing::smoke(),
            nproc: 2,
            threads: 2,
            cpus: crate::affinity::pin_to_last_cpu().0,
            pinned_cpu: None,
            scratch: PathBuf::from("."),
        }
    }

    #[test]
    fn setups_repeat_until_the_minimum_and_keep_the_last() {
        let mut built = 0;
        let mut torn_down = Vec::new();
        let (median, last) = timed_setups(
            &ctx(false),
            || {
                built += 1;
                built
            },
            |r| torn_down.push(r),
        );
        assert_eq!(last, 2);
        assert_eq!(torn_down, vec![1]);
        assert!(median >= 0.0);
        let (_, only) = timed_setups(&ctx(true), || 7, |_| panic!("traced runs set up once"));
        assert_eq!(only, 7);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut checks = Checks::default();
        checks.op(true, || unreachable!());
        checks.op(false, || "wrong".into());
        checks.invariant(true, || unreachable!());
        checks.invariant(false, || "broken".into());
        assert_eq!((checks.attempted, checks.failed), (3, 2));
        assert_eq!(checks.messages, vec!["wrong", "broken"]);
    }

    #[test]
    fn drive_runs_every_connection_until_the_deadline() {
        let mut conns = vec![0u64; 3];
        let elapsed = drive(&mut conns, Duration::from_millis(20), |c| *c += 1);
        assert!(elapsed >= Duration::from_millis(20));
        assert!(conns.iter().all(|&c| c > 0));
    }
}
