//! The blocking TCP server: one [`crate::engine::Session`] served to many
//! connections over the [`super::protocol`] wire format.
//!
//! # Architecture
//!
//! One thread (the caller of [`Server::serve`]) runs a non-blocking accept
//! loop; every accepted connection gets a scoped handler thread that speaks
//! strict request/response framing: each request's handler returns its
//! reply (`Result<Frame, WireError>`, or a page stream) and one loop in
//! `handle_connection` writes it. Handlers never touch each other's
//! state, so **a bad frame kills its connection, never the server**:
//! framing errors (bad magic, wrong version, oversized length, mid-frame
//! truncation) answer with a typed error frame and close that one
//! connection, while content errors inside a well-formed frame (unknown
//! opcode, bad payload, rejected pattern, expired deadline) answer and keep
//! the connection open.
//!
//! Queries execute on the shared multi-tenant [`WorkerPool`] through an
//! **admission gate** sized to the pool's `max_in_flight`. The gate, not the pool, is
//! where excess queries wait — unlike the pool's own blocking submit path,
//! a gated wait can observe the query's deadline, so a queued query whose
//! deadline expires is cancelled *without ever executing* (true
//! cancellation, not post-hoc reporting). Deadlines are also re-checked
//! after execution, so a reply never claims to have met a deadline it
//! missed. A query that panics inside the engine is isolated twice: the
//! pool contains it to the job's slot, and the handler's `catch_unwind`
//! converts it into an [`ErrorCode::Internal`] response.
//!
//! Graceful shutdown (the `SHUTDOWN` opcode or [`ServerHandle::shutdown`])
//! flips the draining flag: the accept loop stops and **closes the
//! listener** (new connects are refused at the OS level), in-flight queries
//! run to completion and their replies are delivered, and idle connections
//! are told [`ErrorCode::ShuttingDown`] and closed. The plan cache is not
//! saved: a restarted server re-plans each pattern on its first query.

use crate::config::{PoolOptions, ServeOptions};
use crate::dynamic::DynamicEngine;
use crate::engine::{CountOptions, GraphPi, Mode, Outcome, PlanCache, PlanOptions, Session};
use crate::exec::pool::WorkerPool;
use crate::net::protocol::{
    max_embeddings_per_page, op, CountExt, CountOk, CountRequest, EnumPage, EnumerateRequest,
    ErrorCode, Frame, HealthOk, HealthState, LatencyHistogram, NetError, OrbitSummary, PromoteOk,
    QueryMode, ReplAck, ReplBatch, ReplPayload, ReplRole, ReplSubscribe, SampleSummary, StatsOk,
    TcpTransport, Transport, UpdateOk, UpdateRequest, WireError, HISTOGRAM_BUCKETS,
    REPL_CHUNK_BYTES,
};
use graphpi_graph::delta::{DeltaError, EdgeBatch};
use graphpi_graph::wal::{DurableError, ShipPoint, WalReader};
use graphpi_pattern::Pattern;
use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::io::{ErrorKind, Read};
use std::iter::Once;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long the accept loop naps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// How often the maintenance thread wakes to check the drain flag (the
/// checkpoint interval itself is user-configured and usually much longer).
const MAINTENANCE_POLL: Duration = Duration::from_millis(20);

/// Completed COUNT requests remembered per server for idempotent
/// retries. Bounded FIFO; old entries fall out once a retry can no
/// longer plausibly arrive.
const LEDGER_CAPACITY: usize = 1024;

/// Retry-after hint when the latency histogram is still empty.
const DEFAULT_RETRY_HINT_MS: u32 = 50;

/// How long a `COUNT` carrying a generation floor waits for replication
/// to catch up before answering `RETRY_LATER`.
const MIN_GENERATION_WAIT: Duration = Duration::from_millis(250);

/// Poll granularity while waiting out a generation floor.
const MIN_GENERATION_POLL: Duration = Duration::from_millis(5);

/// How long a caught-up replication stream naps between heartbeats.
const REPL_HEARTBEAT_PAUSE: Duration = Duration::from_millis(25);

/// How long a `PROMOTE` request waits for the replica's apply loop to
/// seal the stream and flip the role before reporting failure.
const PROMOTE_WAIT: Duration = Duration::from_secs(5);

/// Server counters, shared between the accept loop, the connection
/// handlers, and `STATS` replies. Plain relaxed atomics: these are
/// monotonic counters and gauges, not synchronization.
#[derive(Default)]
struct Metrics {
    connections_total: AtomicU64,
    active_connections: AtomicUsize,
    queries_total: AtomicU64,
    updates_total: AtomicU64,
    enumerations_total: AtomicU64,
    pages_sent: AtomicU64,
    deadline_exceeded: AtomicU64,
    protocol_errors: AtomicU64,
    overload_rejections: AtomicU64,
    latency: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Metrics {
    fn record_latency(&self, micros: u64) {
        self.latency[LatencyHistogram::bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
    }

    fn latency_snapshot(&self) -> LatencyHistogram {
        let mut hist = LatencyHistogram::default();
        for (bucket, counter) in hist.buckets.iter_mut().zip(self.latency.iter()) {
            *bucket = counter.load(Ordering::Relaxed);
        }
        hist
    }
}

/// Shared replication role and telemetry for one serving process:
/// written by the serve loop (primary side), the replica apply loop
/// ([`crate::net::replica`]), and signal handlers; read by every
/// connection handler. Atomics and one tiny mutex — nothing here blocks
/// the request path.
pub struct ReplState {
    role: AtomicU8,
    /// On a replica: the primary's generation as of the last
    /// `REPL_BATCH` heard (the minuend of the lag gauge).
    primary_generation: AtomicU64,
    /// On a replica: where writes should go, handed to clients inside
    /// `NOT_PRIMARY` errors. Empty when unknown.
    primary_addr: Mutex<String>,
    promote_requested: AtomicBool,
    subscribers: AtomicUsize,
    /// Primary side: the freshest subscriber lag observed at an ack.
    subscriber_lag: AtomicU64,
    batches_shipped: AtomicU64,
}

impl ReplState {
    /// A read-write primary (also the default for servers that never
    /// heard of replication).
    pub fn primary() -> Arc<ReplState> {
        Arc::new(ReplState {
            role: AtomicU8::new(ReplRole::Primary.code()),
            primary_generation: AtomicU64::new(0),
            primary_addr: Mutex::new(String::new()),
            promote_requested: AtomicBool::new(false),
            subscribers: AtomicUsize::new(0),
            subscriber_lag: AtomicU64::new(0),
            batches_shipped: AtomicU64::new(0),
        })
    }

    /// A read replica following the primary at `primary_addr`.
    pub fn replica(primary_addr: &str) -> Arc<ReplState> {
        let state = Self::primary();
        state.set_role(ReplRole::Replica);
        *state
            .primary_addr
            .lock()
            .expect("replication state poisoned") = primary_addr.to_string();
        state
    }

    /// The current role.
    pub(crate) fn role(&self) -> ReplRole {
        ReplRole::from_code(self.role.load(Ordering::Acquire)).unwrap_or(ReplRole::Primary)
    }

    /// Flips the role (the replica apply loop moves Replica → Promoting
    /// → Primary; nothing ever demotes a primary in-process).
    pub(crate) fn set_role(&self, role: ReplRole) {
        self.role.store(role.code(), Ordering::Release);
    }

    /// Where writes should go when this node is not the primary (empty
    /// when unknown).
    pub(crate) fn primary_addr(&self) -> String {
        self.primary_addr
            .lock()
            .expect("replication state poisoned")
            .clone()
    }

    /// Asks the replica's apply loop to seal the stream and flip this
    /// node to primary (`graphpi-cli promote` and `SIGUSR1` both land
    /// here). Harmless on a primary.
    pub fn request_promote(&self) {
        self.promote_requested.store(true, Ordering::Release);
    }

    /// Whether a promotion has been requested and not yet completed.
    pub(crate) fn promote_requested(&self) -> bool {
        self.promote_requested.load(Ordering::Acquire)
    }

    /// Records the primary's generation heard in a `REPL_BATCH`.
    pub(crate) fn note_primary_generation(&self, generation: u64) {
        self.primary_generation.store(generation, Ordering::Release);
    }

    fn note_shipment(&self, lag: u64) {
        self.subscriber_lag.store(lag, Ordering::Relaxed);
        self.batches_shipped.fetch_add(1, Ordering::Relaxed);
    }

    /// The lag gauge served in `HEALTH`/`STATS`: on a primary, the
    /// freshest subscriber lag; on a replica, how many generations the
    /// primary is known to be ahead of `local_generation`.
    pub(crate) fn replication_lag(&self, local_generation: u64) -> u64 {
        match self.role() {
            ReplRole::Primary => self.subscriber_lag.load(Ordering::Relaxed),
            _ => self
                .primary_generation
                .load(Ordering::Acquire)
                .saturating_sub(local_generation),
        }
    }
}

/// The outcome of asking the admission gate for a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// A permit was taken; the caller must `release()` after executing.
    Admitted,
    /// The query's deadline expired while queued; no permit consumed.
    DeadlineExpired,
    /// The wait queue is at its bound; the caller should answer
    /// [`ErrorCode::RetryLater`] *immediately* instead of queueing.
    Overloaded,
}

/// Waiters and permits behind the admission gate's one lock.
struct AdmissionState {
    permits: usize,
    waiting: usize,
}

/// A counting gate in front of the worker pool, sized to the pool's
/// `max_in_flight`, with a *bounded* wait queue. Handlers wait *here*
/// instead of inside the pool's blocking submit path because a gate wait
/// can time out: that is what turns a queued query's deadline into real
/// cancellation. The queue bound is what turns overload into immediate,
/// typed shedding ([`Admit::Overloaded`]) instead of unbounded queueing:
/// by construction the `queued` gauge can never exceed `max_waiting`.
struct Admission {
    state: Mutex<AdmissionState>,
    available: Condvar,
    max_waiting: usize,
}

impl Admission {
    fn new(permits: usize, max_waiting: usize) -> Self {
        Self {
            state: Mutex::new(AdmissionState {
                permits: permits.max(1),
                waiting: 0,
            }),
            available: Condvar::new(),
            max_waiting: max_waiting.max(1),
        }
    }

    /// Acquires a permit, giving up at `deadline`, refusing outright when
    /// the wait queue is full.
    fn acquire_until(&self, deadline: Option<Instant>) -> Admit {
        let mut state = self.state.lock().expect("admission gate poisoned");
        if state.permits > 0 {
            state.permits -= 1;
            return Admit::Admitted;
        }
        if state.waiting >= self.max_waiting {
            return Admit::Overloaded;
        }
        state.waiting += 1;
        loop {
            if state.permits > 0 {
                state.permits -= 1;
                state.waiting -= 1;
                return Admit::Admitted;
            }
            match deadline {
                None => {
                    state = self.available.wait(state).expect("admission gate poisoned");
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        state.waiting -= 1;
                        return Admit::DeadlineExpired;
                    }
                    state = self
                        .available
                        .wait_timeout(state, deadline - now)
                        .expect("admission gate poisoned")
                        .0;
                }
            }
        }
    }

    fn release(&self) {
        let mut state = self.state.lock().expect("admission gate poisoned");
        state.permits += 1;
        self.available.notify_one();
    }

    /// Current wait-queue depth (the `queued` stat).
    fn waiting(&self) -> usize {
        self.state.lock().expect("admission gate poisoned").waiting
    }

    /// Whether a new query would be shed right now.
    fn is_full(&self) -> bool {
        let state = self.state.lock().expect("admission gate poisoned");
        state.permits == 0 && state.waiting >= self.max_waiting
    }
}

/// FNV-1a over the request fields that determine the answer. Ledger
/// entries only replay for the *same* logical query, so an id collision
/// between two different clients can never serve the wrong count.
fn request_fingerprint(request: &CountRequest) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1000_0000_01B3);
    };
    eat(u8::from(request.no_iep));
    // The execution mode changes the answer, so orbit/sample replies can
    // never replay for a plain count retry (or vice versa).
    match request.mode {
        QueryMode::Count => eat(0),
        QueryMode::Orbit => eat(1),
        QueryMode::Sample { seed, rate_bits } => {
            eat(2);
            for byte in seed
                .to_le_bytes()
                .into_iter()
                .chain(rate_bits.to_le_bytes())
            {
                eat(byte);
            }
        }
    }
    for byte in &request.pattern {
        eat(*byte);
    }
    hash
}

/// FNV-1a over an update's edge lists. The leading tag byte separates the
/// update domain from [`request_fingerprint`]'s count domain, so a count
/// retry can never replay an update reply (or vice versa) even if the two
/// requests reused one ID.
fn update_fingerprint(request: &UpdateRequest) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1000_0000_01B3);
    };
    eat(0xD5);
    for side in [&request.inserts, &request.deletes] {
        for &(a, b) in side.iter() {
            for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
                eat(byte);
            }
        }
        eat(0xFE);
    }
    hash
}

/// A reply the ledger can replay: counts and updates share the ID space
/// but never each other's entries (the fingerprint domains differ, and
/// the variant is re-checked on lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LedgerReply {
    Count(CountOk),
    Update(UpdateOk),
}

/// Completed-request ledger: request ID → (fingerprint, reply). A retry
/// carrying a known ID is answered from here without re-executing (or
/// double-counting) the query — that is what makes resending after an
/// ambiguous failure safe. For updates this is the idempotency mechanism:
/// a replayed `UPDATE` reports the generation it originally produced
/// instead of committing twice. Bounded FIFO eviction.
struct RequestLedger {
    inner: Mutex<LedgerInner>,
    capacity: usize,
}

struct LedgerInner {
    replies: HashMap<u64, (u64, LedgerReply)>,
    order: VecDeque<u64>,
}

impl RequestLedger {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(LedgerInner {
                replies: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// The recorded reply for `id`, if it exists *and* belongs to the
    /// same logical request. ID 0 means "no idempotency key": it is never
    /// recorded and never replays.
    fn lookup(&self, id: u64, fingerprint: u64) -> Option<LedgerReply> {
        if id == 0 {
            return None;
        }
        let inner = self.inner.lock().expect("ledger poisoned");
        match inner.replies.get(&id) {
            Some((stored, reply)) if *stored == fingerprint => Some(*reply),
            _ => None,
        }
    }

    fn record(&self, id: u64, fingerprint: u64, reply: LedgerReply) {
        if id == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("ledger poisoned");
        if inner.replies.insert(id, (fingerprint, reply)).is_none() {
            inner.order.push_back(id);
            if inner.order.len() > self.capacity {
                if let Some(evict) = inner.order.pop_front() {
                    inner.replies.remove(&evict);
                }
            }
        }
    }
}

/// What a server is serving: one immutable engine behind a long-lived
/// [`Session`], or a [`DynamicEngine`] whose generations come and go.
///
/// The static arm keeps the original zero-overhead path: one session,
/// planned options resolved once. The dynamic arm pins the current
/// generation *per query* and builds a transient session against the
/// pinned engine — the pin is what guarantees a query sees exactly one
/// generation even while batches commit mid-flight, and the shared pool
/// and plan cache are what keep a re-pinned query as cheap as a static
/// one (same workers, warm plans keyed by the generation's stats
/// fingerprint).
enum ServeBackend<'a> {
    Static(Session<'a>),
    Dynamic {
        engine: &'a DynamicEngine,
        pool: Arc<WorkerPool>,
        cache: Arc<PlanCache>,
    },
}

impl ServeBackend<'_> {
    /// Runs `f` against a session pinned to a single consistent
    /// generation: the long-lived session on a static backend, a transient
    /// session over the pinned current generation on a dynamic one (the
    /// shared pool and plan cache keep the transient session as cheap as
    /// the static path).
    fn with_session<R>(&self, f: impl FnOnce(&Session<'_>) -> R) -> R {
        match self {
            ServeBackend::Static(session) => f(session),
            ServeBackend::Dynamic {
                engine,
                pool,
                cache,
            } => {
                let pin = engine.pin();
                let session = pin.engine().session_shared(
                    Arc::clone(pool),
                    Arc::clone(cache),
                    PlanOptions::default(),
                    CountOptions::default(),
                );
                f(&session)
            }
        }
    }

    /// Runs one count-family query in the requested execution mode,
    /// returning the wire reply body: the headline count plus the
    /// mode-specific extension (orbit summary / sample estimate).
    ///
    /// Orbit replies summarise the per-vertex vector instead of shipping
    /// it — a full vector over a large graph exceeds the frame cap; the
    /// full vector stays a local-API affordance
    /// ([`Session::count_per_vertex`]).
    fn count_mode(
        &self,
        pattern: &Pattern,
        options: CountOptions,
        mode: QueryMode,
    ) -> Result<(u64, CountExt), crate::error::EngineError> {
        let run = match mode {
            QueryMode::Count => Mode::Count,
            QueryMode::Orbit => Mode::Orbit,
            QueryMode::Sample { seed, rate_bits } => Mode::Sample {
                rate: f64::from_bits(rate_bits),
                seed,
            },
        };
        let outcome = self.with_session(|session| session.run(pattern, run, options))?;
        Ok(match outcome {
            Outcome::Count(count) => (count, CountExt::None),
            Outcome::Embeddings(embeddings) => (embeddings.len() as u64, CountExt::None),
            Outcome::PerVertex(counts) => {
                let summary = OrbitSummary::of(&counts);
                // Every embedding touches pattern-size vertices, so the
                // headline count is the exact global count.
                let size = pattern.num_vertices() as u64;
                (summary.sum / size.max(1), CountExt::Orbit(summary))
            }
            Outcome::Approx(approx) => (
                approx.estimate.round().max(0.0) as u64,
                CountExt::Sample(SampleSummary {
                    estimate_bits: approx.estimate.to_bits(),
                    stderr_bits: approx.stderr.to_bits(),
                    sampled_tasks: approx.sampled_tasks,
                    total_tasks: approx.total_tasks,
                }),
            ),
        })
    }

    /// The dynamic engine, when updates are accepted.
    fn dynamic(&self) -> Option<&DynamicEngine> {
        match self {
            ServeBackend::Static(_) => None,
            ServeBackend::Dynamic { engine, .. } => Some(engine),
        }
    }

    /// The serving generation (0 for a static, immutable graph).
    fn generation(&self) -> u64 {
        self.dynamic().map_or(0, DynamicEngine::generation)
    }
}

/// Remote control for a running [`Server`]: clonable, valid across
/// threads, obtained from [`Server::handle`] before `serve` consumes the
/// server.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    draining: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The address the server is listening on (with the OS-assigned port
    /// when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain: stop accepting, finish in-flight
    /// queries, return from `serve`.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }
}

/// What [`Server::serve`] reports after draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Count queries that entered execution.
    pub queries: u64,
    /// Update batches that committed (always zero for a static server).
    pub updates: u64,
}

/// A bound-but-not-yet-serving GraphPi TCP server. Construction binds the
/// listener (so the OS-assigned port is known and a [`ServerHandle`] can
/// be taken); [`Server::serve`] then consumes the server and blocks until
/// drained.
pub struct Server {
    listener: TcpListener,
    pool: Arc<WorkerPool>,
    cache: Arc<PlanCache>,
    options: ServeOptions,
    draining: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .finish()
    }
}

impl Server {
    /// Binds `addr` with a fresh pool and plan cache per
    /// `options.pool`.
    pub fn bind(addr: impl ToSocketAddrs, options: ServeOptions) -> Result<Server, NetError> {
        let PoolOptions {
            threads,
            cache_capacity,
            max_in_flight,
        } = options.pool;
        Self::bind_shared(
            addr,
            Arc::new(WorkerPool::with_max_in_flight(threads, max_in_flight)),
            Arc::new(PlanCache::new(cache_capacity)),
            options,
        )
    }

    /// Binds `addr` on an existing pool and cache — the constructor tests
    /// use to keep their own handle on the pool (e.g. to assert
    /// `live_workers()` across fault injection), and the one that lets
    /// several servers share one pool.
    pub fn bind_shared(
        addr: impl ToSocketAddrs,
        pool: Arc<WorkerPool>,
        cache: Arc<PlanCache>,
        options: ServeOptions,
    ) -> Result<Server, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            pool,
            cache,
            options,
            draining: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(Metrics::default()),
        })
    }

    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// A clonable remote control (take it before [`Server::serve`]).
    pub fn handle(&self) -> Result<ServerHandle, NetError> {
        Ok(ServerHandle {
            draining: Arc::clone(&self.draining),
            addr: self.listener.local_addr()?,
        })
    }

    /// The worker pool queries execute on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Serves `engine` until drained (via the `SHUTDOWN` opcode or
    /// [`ServerHandle::shutdown`]), then returns lifetime totals. Consumes
    /// the server so the listener is provably closed when this returns.
    /// The graph is immutable: `UPDATE` requests are refused with
    /// [`ErrorCode::ReadOnly`].
    pub fn serve(self, engine: &GraphPi) -> Result<ServerReport, NetError> {
        let session = engine.session_shared(
            Arc::clone(&self.pool),
            Arc::clone(&self.cache),
            PlanOptions::default(),
            CountOptions::default(),
        );
        self.serve_backend(ServeBackend::Static(session), ReplState::primary())
    }

    /// Serves a [`DynamicEngine`] until drained: counts pin the current
    /// generation per query, and the `UPDATE` opcode commits edge
    /// batches (durably, when the engine was opened with a WAL).
    pub fn serve_dynamic(self, engine: &DynamicEngine) -> Result<ServerReport, NetError> {
        self.serve_dynamic_with_repl(engine, ReplState::primary())
    }

    /// Serves a [`DynamicEngine`] with an explicit replication role: the
    /// primary side answers `REPL_SUBSCRIBE` with WAL fan-out, and a
    /// replica whose apply loop shares `repl` refuses `UPDATE` with
    /// `NOT_PRIMARY` until promotion flips the role.
    pub fn serve_dynamic_with_repl(
        self,
        engine: &DynamicEngine,
        repl: Arc<ReplState>,
    ) -> Result<ServerReport, NetError> {
        let backend = ServeBackend::Dynamic {
            engine,
            pool: Arc::clone(&self.pool),
            cache: Arc::clone(&self.cache),
        };
        self.serve_backend(backend, repl)
    }

    fn serve_backend(
        self,
        backend: ServeBackend<'_>,
        repl: Arc<ReplState>,
    ) -> Result<ServerReport, NetError> {
        let Server {
            listener,
            pool,
            cache,
            options,
            draining,
            metrics,
        } = self;

        // The wait queue is bounded: beyond it, queries are shed with
        // RETRY_LATER instead of queueing without limit. 0 = auto-size.
        let max_waiting = if options.max_queue_depth > 0 {
            options.max_queue_depth
        } else {
            (4 * pool.max_in_flight()).max(16)
        };
        let admission = Admission::new(pool.max_in_flight(), max_waiting);
        let ledger = RequestLedger::new(LEDGER_CAPACITY);
        let ctx = ServeCtx {
            backend: &backend,
            pool: &pool,
            cache: &cache,
            metrics: &metrics,
            admission: &admission,
            ledger: &ledger,
            draining: &draining,
            repl: &repl,
        };
        std::thread::scope(|scope| {
            // Background maintenance: WAL checkpointing and overlay
            // compaction run here, off the committing thread, so a large
            // checkpoint stalls neither commits (the commit lock is held
            // only for the final swap) nor queries.
            if let (Some(interval), Some(engine)) = (options.checkpoint_interval, backend.dynamic())
            {
                let draining = &draining;
                scope.spawn(move || {
                    let mut last = Instant::now();
                    while !draining.load(Ordering::Acquire) {
                        std::thread::sleep(MAINTENANCE_POLL);
                        if last.elapsed() >= interval {
                            if engine.is_durable() {
                                let _ = engine.checkpoint();
                            }
                            engine.compact();
                            last = Instant::now();
                        }
                    }
                });
            }
            // The accept loop owns the listener; dropping it on drain is
            // what makes "rejects new connections" an OS-level refusal
            // rather than an unanswered socket.
            let listener = listener;
            loop {
                if draining.load(Ordering::Acquire) {
                    drop(listener);
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        metrics.connections_total.fetch_add(1, Ordering::Relaxed);
                        let limit = options.max_connections;
                        if limit > 0 && metrics.active_connections.load(Ordering::Relaxed) >= limit
                        {
                            let mut transport = TcpTransport::new(stream);
                            let _ = transport.send(&Frame::error(
                                ErrorCode::TooManyConnections,
                                &format!("connection limit {limit} reached"),
                            ));
                            continue;
                        }
                        metrics.active_connections.fetch_add(1, Ordering::Relaxed);
                        let read_timeout = options.read_timeout;
                        scope.spawn(move || {
                            handle_connection(stream, ctx, read_timeout);
                            ctx.metrics
                                .active_connections
                                .fetch_sub(1, Ordering::Relaxed);
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // Transient per-connection accept failures (e.g. the
                    // peer reset before accept) must not stop the server.
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
            // Scope exit waits for every handler: that wait IS the drain.
        });

        Ok(ServerReport {
            connections: metrics.connections_total.load(Ordering::Relaxed),
            queries: metrics.queries_total.load(Ordering::Relaxed),
            updates: metrics.updates_total.load(Ordering::Relaxed),
        })
    }
}

/// What every request handler needs from the serving process, bundled
/// once per server and copied into each connection thread.
#[derive(Clone, Copy)]
struct ServeCtx<'a> {
    backend: &'a ServeBackend<'a>,
    pool: &'a WorkerPool,
    cache: &'a PlanCache,
    metrics: &'a Metrics,
    admission: &'a Admission,
    ledger: &'a RequestLedger,
    draining: &'a AtomicBool,
    repl: &'a ReplState,
}

/// What one request earns: a single frame, a single frame after which
/// the connection closes, or a page stream. Iterating yields the frames
/// to write, in order — [`handle_connection`] is the only writer.
enum Reply<'a> {
    One(Once<Frame>),
    Last(Once<Frame>),
    Pages(PageStream<'a>),
}

impl Reply<'_> {
    fn one(frame: Frame) -> Self {
        Reply::One(std::iter::once(frame))
    }

    fn last(frame: Frame) -> Self {
        Reply::Last(std::iter::once(frame))
    }
}

impl Iterator for Reply<'_> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        match self {
            Reply::One(frame) | Reply::Last(frame) => frame.next(),
            Reply::Pages(pages) => pages.next(),
        }
    }
}

/// Speaks the protocol with one client until EOF, a framing error, or
/// drain. Never panics outward and never takes the server down.
fn handle_connection(stream: TcpStream, ctx: ServeCtx<'_>, read_timeout: Duration) {
    // The read timeout is the handler's poll granularity: an idle wait
    // wakes up this often to notice a drain. Zero would mean non-blocking
    // reads (a busy loop), so it is clamped away.
    let timeout = if read_timeout.is_zero() {
        Duration::from_millis(50)
    } else {
        read_timeout
    };
    stream.set_read_timeout(Some(timeout)).ok();
    let mut transport = TcpTransport::new(stream);
    loop {
        let mut reply = if ctx.draining.load(Ordering::Acquire) {
            Reply::last(Frame::error(
                ErrorCode::ShuttingDown,
                "server is draining; reconnect later",
            ))
        } else {
            match transport.recv() {
                Ok(frame) => match dispatch(&ctx, &mut transport, frame) {
                    Some(reply) => reply,
                    None => return,
                },
                Err(NetError::Idle) => continue,
                Err(NetError::Closed) => return,
                Err(error) => {
                    // Framing is broken: answer with the matching typed
                    // code (best-effort — the peer may already be gone)
                    // and drop this one connection.
                    ctx.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let code = match &error {
                        NetError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
                        NetError::FrameTooLarge(_) => ErrorCode::FrameTooLarge,
                        _ => ErrorCode::BadFrame,
                    };
                    Reply::last(Frame::error(code, &error.to_string()))
                }
            }
        };
        let closes = matches!(reply, Reply::Last(_));
        for frame in &mut reply {
            if transport.send(&frame).is_err() {
                return;
            }
        }
        if closes {
            return;
        }
    }
}

/// Routes one well-framed request to its handler. Content errors inside
/// the frame become a typed [`op::ERROR`] reply on a connection that
/// stays open. `None` means there is nobody left to answer (a replication
/// subscriber that went away).
fn dispatch<'a>(
    ctx: &ServeCtx<'a>,
    transport: &mut TcpTransport,
    frame: Frame,
) -> Option<Reply<'a>> {
    let outcome = match frame.opcode {
        op::PING => Ok(Reply::one(Frame::new(op::PONG, frame.payload))),
        op::STATS => Ok(Reply::one(ctx.stats_frame())),
        op::HEALTH => Ok(Reply::one(ctx.health_frame())),
        op::COUNT => handle_count(ctx, &frame.payload).map(Reply::one),
        op::ENUMERATE => handle_enumerate(ctx, &frame.payload).map(Reply::Pages),
        op::UPDATE => handle_update(ctx, &frame.payload).map(Reply::one),
        op::PROMOTE => handle_promote(ctx, &frame.payload).map(Reply::one),
        // Subscribing hands the whole connection over to the replication
        // stream; it never returns to request/response framing, so
        // whatever ends the stream also closes the connection.
        op::REPL_SUBSCRIBE => {
            let end = handle_replication(ctx, transport, &frame.payload)
                .expect_err("a replication stream only ever ends");
            return end.map(|refusal| Reply::last(refusal.into()));
        }
        op::SHUTDOWN => {
            ctx.draining.store(true, Ordering::Release);
            Ok(Reply::last(Frame::new(op::SHUTDOWN_OK, vec![])))
        }
        other => Err(ctx.protocol_error(
            ErrorCode::UnknownOpcode,
            &format!(
                "opcode {other:#04x} is not part of protocol v{}",
                super::protocol::VERSION
            ),
        )),
    };
    Some(outcome.unwrap_or_else(|error| Reply::one(error.into())))
}

/// The instant a request's `deadline_ms` field expires (0 = no deadline).
fn deadline_after(deadline_ms: u32) -> Option<Instant> {
    (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)))
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|deadline| Instant::now() >= deadline)
}

/// The engine refused the pattern (empty, disconnected, too large).
fn pattern_rejected(error: crate::error::EngineError) -> WireError {
    WireError::new(ErrorCode::PatternRejected, &error.to_string())
}

impl ServeCtx<'_> {
    /// A content error inside a well-formed frame: counted, typed, and
    /// the connection stays open.
    fn protocol_error(&self, code: ErrorCode, message: &str) -> WireError {
        self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
        WireError::new(code, message)
    }

    /// Decodes a request payload; one that does not parse is a content
    /// error answered with the `layout` it should have had.
    fn decode<R>(
        &self,
        decode: fn(&[u8]) -> Option<R>,
        payload: &[u8],
        layout: &str,
    ) -> Result<R, WireError> {
        decode(payload).ok_or_else(|| self.protocol_error(ErrorCode::BadPayload, layout))
    }

    /// Validates the pattern bytes of a decoded request.
    fn pattern(&self, bytes: &[u8]) -> Result<Pattern, WireError> {
        Pattern::from_canonical_bytes(bytes).ok_or_else(|| {
            self.protocol_error(
                ErrorCode::BadPayload,
                "pattern bytes are not a valid canonical pattern",
            )
        })
    }

    /// A missed deadline: counted and typed.
    fn deadline_exceeded(&self, message: &str) -> WireError {
        self.metrics
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        WireError::new(ErrorCode::DeadlineExceeded, message)
    }

    /// Where a write sent to this non-primary node should go instead (the
    /// message field carries the primary's address, possibly empty, so a
    /// failover-aware client can re-route).
    fn not_primary(&self) -> WireError {
        WireError::new(ErrorCode::NotPrimary, &self.repl.primary_addr())
    }

    /// The retry-after hint for shed queries: the observed median
    /// execution latency (one queue "turn"), clamped to a sane band. An
    /// empty histogram (cold server under a thundering herd) falls back to
    /// a flat default.
    fn retry_after_hint_ms(&self) -> u32 {
        let median_us = self
            .metrics
            .latency_snapshot()
            .percentile_upper_bound_micros(0.5)
            .unwrap_or(u64::from(DEFAULT_RETRY_HINT_MS) * 1000);
        (median_us / 1000).clamp(1, 5_000) as u32
    }

    /// Runs `work` (a `what`: "query", "enumeration", "update") behind the
    /// admission gate, returning its result and execution time.
    ///
    /// On deadline expiry the work is cancelled having consumed no pool
    /// slot and no worker time; a full wait queue sheds it immediately
    /// with a typed `RETRY_LATER` and a hint. The permit covers only
    /// `work` itself, and a panic inside it is contained here (the pool
    /// already isolated it to the job's slot) and answered as
    /// [`ErrorCode::Internal`].
    fn admitted<R>(
        &self,
        what: &str,
        deadline: Option<Instant>,
        work: impl FnOnce() -> R,
    ) -> Result<(R, Duration), WireError> {
        match self.admission.acquire_until(deadline) {
            Admit::Admitted => {}
            Admit::DeadlineExpired => {
                return Err(self.deadline_exceeded(&format!(
                    "deadline expired while queued; the {what} did not run"
                )));
            }
            Admit::Overloaded => {
                self.metrics
                    .overload_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return Err(WireError::new(
                    ErrorCode::RetryLater,
                    &format!("admission queue is full; the {what} did not run"),
                )
                .with_retry_after(self.retry_after_hint_ms()));
            }
        }
        let start = Instant::now();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(work));
        let elapsed = start.elapsed();
        self.admission.release();
        match outcome {
            Ok(result) => Ok((result, elapsed)),
            Err(_) => Err(WireError::new(
                ErrorCode::Internal,
                &format!("{what} panicked; the server isolated it"),
            )),
        }
    }

    /// Builds a `STATS_OK` reply from the live counters.
    fn stats_frame(&self) -> Frame {
        let (pool, cache) = (self.pool, self.cache.stats());
        let metrics = self.metrics;
        let stats = StatsOk {
            live_workers: pool.live_workers() as u32,
            max_in_flight: pool.max_in_flight() as u32,
            in_flight: pool.in_flight() as u32,
            queued: self.admission.waiting() as u32,
            cache_len: cache.len as u32,
            cache_capacity: cache.capacity as u32,
            warm_started: 0,
            connections_total: metrics.connections_total.load(Ordering::Relaxed),
            queries_total: metrics.queries_total.load(Ordering::Relaxed),
            deadline_exceeded: metrics.deadline_exceeded.load(Ordering::Relaxed),
            protocol_errors: metrics.protocol_errors.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            overload_rejections: metrics.overload_rejections.load(Ordering::Relaxed),
            latency: metrics.latency_snapshot(),
            replication_lag: self.repl.replication_lag(self.backend.generation()),
            repl_role: self.repl.role(),
            enumerations_total: metrics.enumerations_total.load(Ordering::Relaxed),
            pages_sent: metrics.pages_sent.load(Ordering::Relaxed),
        };
        Frame::new(op::STATS_OK, stats.encode())
    }

    /// Builds a `HEALTH_OK` reply: drain beats overload, overload beats
    /// ready, and any not-ready state carries a retry-after hint.
    fn health_frame(&self) -> Frame {
        let state = if self.draining.load(Ordering::Acquire) {
            HealthState::Draining
        } else if self.admission.is_full() {
            HealthState::Overloaded
        } else {
            HealthState::Ready
        };
        let health = HealthOk {
            state,
            retry_after_ms: match state {
                HealthState::Ready => 0,
                _ => self.retry_after_hint_ms(),
            },
            role: self.repl.role(),
            replication_lag: self.repl.replication_lag(self.backend.generation()),
        };
        Frame::new(op::HEALTH_OK, health.encode())
    }
}

/// Runs one `COUNT` request end to end.
fn handle_count(ctx: &ServeCtx<'_>, payload: &[u8]) -> Result<Frame, WireError> {
    let request = ctx.decode(
        CountRequest::decode,
        payload,
        "count payload must be [flags u8][deadline_ms u32][id u64?][pattern bytes]",
    )?;
    // Idempotent retry: a request ID we have already answered replays
    // the recorded reply — no admission, no execution, no double count.
    let fingerprint = request_fingerprint(&request);
    if let Some(LedgerReply::Count(recorded)) = ctx.ledger.lookup(request.request_id, fingerprint) {
        return Ok(Frame::new(op::COUNT_OK, recorded.encode()));
    }
    let pattern = ctx.pattern(&request.pattern)?;
    // A nonsensical sample rate is a content error in a well-formed
    // frame: typed reply, connection stays open, nothing executes.
    if let Some(rate) = request.mode.sample_rate() {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(ctx.protocol_error(
                ErrorCode::InvalidArgument,
                "sample rate must be a finite value in (0, 1]",
            ));
        }
    }
    let deadline = deadline_after(request.deadline_ms);
    if request.min_generation > 0 {
        await_generation(ctx, request.min_generation, deadline)?;
    }

    let count_options = CountOptions {
        use_iep: !request.no_iep,
        ..CountOptions::default()
    };
    let (outcome, elapsed) = ctx.admitted("query", deadline, || {
        ctx.metrics.queries_total.fetch_add(1, Ordering::Relaxed);
        ctx.backend
            .count_mode(&pattern, count_options, request.mode)
    })?;
    let (count, ext) = outcome.map_err(pattern_rejected)?;
    let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
    ctx.metrics.record_latency(micros);
    // A reply never claims to have met a deadline it missed.
    if expired(deadline) {
        return Err(ctx.deadline_exceeded("query completed after its deadline"));
    }
    let ok = CountOk {
        count,
        elapsed_micros: micros,
        ext,
    };
    ctx.ledger
        .record(request.request_id, fingerprint, LedgerReply::Count(ok));
    Ok(Frame::new(op::COUNT_OK, ok.encode()))
}

/// Read-your-writes: a client may set a generation floor. Small
/// replication lag is absorbed by waiting briefly (before admission, so
/// the wait burns no pool slot); past the wait budget the client is told
/// `RETRY_LATER` — retrying another replica beats pinning a handler
/// thread here.
fn await_generation(
    ctx: &ServeCtx<'_>,
    floor: u64,
    deadline: Option<Instant>,
) -> Result<(), WireError> {
    let engine = ctx.backend.dynamic().ok_or_else(|| {
        WireError::new(
            ErrorCode::BadPayload,
            "a generation floor needs a dynamic server; this graph is immutable",
        )
    })?;
    let cap = Instant::now() + MIN_GENERATION_WAIT;
    let wait_until = deadline.map_or(cap, |deadline| deadline.min(cap));
    while engine.generation() < floor {
        if Instant::now() >= wait_until {
            let current = engine.generation();
            return Err(WireError::new(
                ErrorCode::RetryLater,
                &format!("graph is at generation {current}, below the requested floor {floor}"),
            )
            .with_retry_after(MIN_GENERATION_WAIT.as_millis() as u32));
        }
        std::thread::sleep(MIN_GENERATION_POLL);
    }
    Ok(())
}

/// The reply to one `ENUMERATE`: the matched embeddings, cut into
/// `ENUM_PAGE` frames on demand.
///
/// The deadline is re-checked **between pages**, so a client can bound
/// how long a huge stream occupies its connection: an expired deadline
/// mid-stream yields a typed `DEADLINE_EXCEEDED` frame in place of the
/// next page (clients treat any error frame as terminating the stream).
struct PageStream<'a> {
    ctx: ServeCtx<'a>,
    embeddings: Vec<Vec<u32>>,
    pattern_size: usize,
    per_page: usize,
    next_page: usize,
    total_pages: usize,
    deadline: Option<Instant>,
}

impl Iterator for PageStream<'_> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        if self.next_page == self.total_pages {
            return None;
        }
        if self.next_page > 0 && expired(self.deadline) {
            self.next_page = self.total_pages;
            let dropped = "deadline expired mid-stream; remaining pages dropped";
            return Some(self.ctx.deadline_exceeded(dropped).into());
        }
        let start = self.next_page * self.per_page;
        let end = (start + self.per_page).min(self.embeddings.len());
        let mut vertices = Vec::with_capacity((end - start) * self.pattern_size);
        for embedding in &self.embeddings[start..end] {
            vertices.extend_from_slice(embedding);
        }
        self.next_page += 1;
        self.ctx.metrics.pages_sent.fetch_add(1, Ordering::Relaxed);
        let page = EnumPage {
            last: self.next_page == self.total_pages,
            pattern_size: self.pattern_size as u8,
            vertices,
        };
        Some(Frame::new(op::ENUM_PAGE, page.encode()))
    }
}

/// Runs one `ENUMERATE` request: decode, admit, enumerate up to the
/// limit, then hand back the [`PageStream`] that pages the embeddings
/// out.
///
/// The admission permit covers only the matching itself — page streaming
/// is network-bound and must not hold a pool slot hostage to a slow
/// reader.
///
/// Enumeration is **not idempotent at the wire level** — there is no
/// request ID and no ledger entry: replaying pages after an ambiguous
/// failure could interleave two streams, and a truncated-limit re-run may
/// legitimately return different embeddings. Clients resume by issuing a
/// fresh request.
fn handle_enumerate<'a>(ctx: &ServeCtx<'a>, payload: &[u8]) -> Result<PageStream<'a>, WireError> {
    let request = ctx.decode(
        EnumerateRequest::decode,
        payload,
        "enumerate payload must be [flags u8][deadline_ms u32][limit u64]\
         [page_size u32][pattern bytes] with a nonzero limit",
    )?;
    let pattern = ctx.pattern(&request.pattern)?;
    let deadline = deadline_after(request.deadline_ms);
    let (outcome, _) = ctx.admitted("enumeration", deadline, || {
        ctx.metrics
            .enumerations_total
            .fetch_add(1, Ordering::Relaxed);
        let mode = Mode::Enumerate {
            limit: request.limit,
        };
        ctx.backend
            .with_session(|session| session.run(&pattern, mode, CountOptions::default()))
    })?;
    let embeddings = outcome.map_err(pattern_rejected)?.into_embeddings();

    // The requested page size is clamped to what a frame can carry;
    // 0 means "largest legal page".
    let pattern_size = pattern.num_vertices().max(1);
    let cap = max_embeddings_per_page(pattern_size).max(1);
    let per_page = match request.page_size {
        0 => cap,
        requested => (requested as usize).min(cap),
    };
    Ok(PageStream {
        ctx: *ctx,
        total_pages: embeddings.len().div_ceil(per_page).max(1),
        embeddings,
        pattern_size,
        per_page,
        next_page: 0,
        deadline,
    })
}

/// Runs one `UPDATE` request end to end: decode, replay-check the
/// ledger, admit, commit through the dynamic engine, answer with the
/// applied generation.
///
/// Updates are **not naturally idempotent** — recommitting a batch that
/// already applied would burn a generation and, for delete-then-insert
/// mixes, can change the graph — so the ledger matters more here than
/// for counts: a retry carrying a known request ID is answered with the
/// originally applied generation without touching the graph or the WAL.
fn handle_update(ctx: &ServeCtx<'_>, payload: &[u8]) -> Result<Frame, WireError> {
    // A replica never commits client batches locally.
    if ctx.repl.role() != ReplRole::Primary {
        return Err(ctx.not_primary());
    }
    let engine = ctx.backend.dynamic().ok_or_else(|| {
        WireError::new(
            ErrorCode::ReadOnly,
            "this server serves an immutable graph; restart it with --wal to accept updates",
        )
    })?;
    let request = ctx.decode(
        UpdateRequest::decode,
        payload,
        "update payload must be [flags u8][deadline_ms u32][id u64?]\
         [n_ins u32][n_del u32][edge pairs]",
    )?;
    let fingerprint = update_fingerprint(&request);
    if let Some(LedgerReply::Update(recorded)) = ctx.ledger.lookup(request.request_id, fingerprint)
    {
        return Ok(Frame::new(op::UPDATE_OK, recorded.encode()));
    }
    let batch = EdgeBatch::from_edges(request.inserts, request.deletes);
    // Updates queue at the same admission gate as counts, so a client
    // flooding commits is shed (or deadline-cancelled) exactly like a
    // client flooding queries — commit order itself is serialised inside
    // the engine.
    let deadline = deadline_after(request.deadline_ms);
    let (outcome, _) = ctx.admitted("update", deadline, || engine.apply(&batch))?;
    let report = outcome.map_err(|error| match error {
        // Validation failures (vertex beyond the growth limit) reject the
        // whole batch before anything is logged or applied.
        DurableError::Delta(DeltaError::VertexOutOfRange { vertex, limit }) => WireError::new(
            ErrorCode::BadPayload,
            &format!("vertex {vertex} exceeds the growth limit {limit}; batch rejected"),
        ),
        // A WAL append, fsync or checkpoint failure means the batch did
        // not commit: neither the log nor the graph holds it.
        wal_error => WireError::new(
            ErrorCode::Internal,
            &format!("write-ahead log failure: {wal_error}"),
        ),
    })?;
    ctx.metrics.updates_total.fetch_add(1, Ordering::Relaxed);
    let ok = UpdateOk {
        generation: report.generation,
        inserted: report.inserted,
        deleted: report.deleted,
    };
    ctx.ledger
        .record(request.request_id, fingerprint, LedgerReply::Update(ok));
    Ok(Frame::new(op::UPDATE_OK, ok.encode()))
}

/// How a replication stream ended: with the typed refusal to send as the
/// connection's last frame, or `None` when the subscriber is already gone.
type StreamEnd = Option<WireError>;

/// Validates a `REPL_SUBSCRIBE`, then hands the connection over to
/// [`serve_replication`] until the stream ends.
fn handle_replication(
    ctx: &ServeCtx<'_>,
    transport: &mut TcpTransport,
    payload: &[u8],
) -> Result<Infallible, StreamEnd> {
    let sub = ctx.decode(
        ReplSubscribe::decode,
        payload,
        "subscribe payload must be [flags u8][generation u64][offset u64]",
    )?;
    let engine = ctx
        .backend
        .dynamic()
        .filter(|engine| engine.is_durable())
        .ok_or_else(|| {
            WireError::new(
                ErrorCode::ReadOnly,
                "replication requires a durable (--wal) primary",
            )
        })?;
    ctx.repl.subscribers.fetch_add(1, Ordering::Relaxed);
    let end = serve_replication(ctx, transport, sub, engine);
    ctx.repl.subscribers.fetch_sub(1, Ordering::Relaxed);
    end
}

/// The two conditions that end a replication stream from this side: the
/// server is draining, or this node is not (or no longer) the primary.
fn may_ship(ctx: &ServeCtx<'_>) -> Result<(), WireError> {
    if ctx.draining.load(Ordering::Acquire) {
        Err(WireError::new(
            ErrorCode::ShuttingDown,
            "server is draining; resubscribe later",
        ))
    } else if ctx.repl.role() != ReplRole::Primary {
        Err(ctx.not_primary())
    } else {
        Ok(())
    }
}

fn unreadable(what: &str, error: impl std::fmt::Display) -> WireError {
    WireError::new(
        ErrorCode::Internal,
        &format!("primary {what} unreadable: {error}"),
    )
}

/// Ships the primary's WAL to one subscribed replica until the peer goes
/// away, the server drains, this node stops being the primary, or the log
/// cannot be read.
///
/// The shipped unit is a **byte range of the log**, not a decoded
/// record: the replica reassembles record frames with
/// [`graphpi_graph::wal::RecordStreamParser`], so a chunk boundary mid-
/// record lands exactly like a torn local WAL tail and the end-to-end
/// checksums are the original on-disk ones. Strict alternation
/// (`REPL_BATCH` → `REPL_ACK`) keeps the stream self-pacing; an empty
/// Records batch is the caught-up heartbeat.
///
/// Checkpoints reset the log in place, invalidating every raw offset.
/// The WAL epoch (bumped on every reset) makes that visible: each read
/// brackets the epoch, and a change discards the bytes and re-resolves
/// the cursor from the replica's last acknowledged generation — bytes
/// from one epoch are never shipped under another epoch's offsets.
fn serve_replication(
    ctx: &ServeCtx<'_>,
    transport: &mut TcpTransport,
    sub: ReplSubscribe,
    engine: &DynamicEngine,
) -> Result<Infallible, StreamEnd> {
    let wal_path = engine.wal_path().expect("durable engine has a WAL path");
    let mut cursor_gen = sub.generation;
    let mut offset_hint = sub.offset;
    'resolve: loop {
        may_ship(ctx)?;
        let epoch = engine.wal_epoch().unwrap_or(0);
        // A reset mid-open or mid-scan leaves the file momentarily at
        // odds with the cursor; retry against the new epoch instead of
        // failing the subscriber.
        let resolved = WalReader::open(&wal_path).and_then(|mut reader| {
            let point = reader.resolve_cursor(cursor_gen, offset_hint)?;
            Ok((reader, point))
        });
        if engine.wal_epoch() != Some(epoch) {
            continue 'resolve;
        }
        let (mut reader, point) = resolved.map_err(|error| unreadable("log", error))?;
        let mut offset = match point {
            ShipPoint::Records { offset } => offset,
            ShipPoint::NeedsCheckpoint => {
                // Bootstrap complete: record shipping resumes at the top
                // of the reset log. `None`: a newer checkpoint landed
                // mid-stream; restart the bootstrap (the replica resets
                // its staging file on the chunk whose start offset is 0).
                if let Some(generation) = ship_checkpoint(ctx, transport, engine)? {
                    cursor_gen = generation;
                    offset_hint = 0;
                }
                continue 'resolve;
            }
        };
        loop {
            may_ship(ctx)?;
            let end = engine.wal_len().unwrap_or(offset);
            let horizon = engine.replication_horizon().unwrap_or(0);
            let read = if offset < end {
                let want = usize::try_from(end - offset)
                    .map_or(REPL_CHUNK_BYTES, |left| left.min(REPL_CHUNK_BYTES));
                reader.read_raw(offset, want)
            } else {
                Ok((Vec::new(), offset))
            };
            if engine.wal_epoch() != Some(epoch) {
                // The offset is stale and the bytes may straddle the
                // reset; discard them.
                offset_hint = 0;
                continue 'resolve;
            }
            let (bytes, next_offset) = read.map_err(|error| unreadable("log", error))?;
            let heartbeat = bytes.is_empty();
            let batch = ReplBatch {
                payload: ReplPayload::Records,
                primary_generation: engine.generation(),
                generation: horizon,
                next_offset,
                bytes,
            };
            let ack = ship(ctx, transport, &batch).ok_or(None)?;
            ctx.repl
                .note_shipment(engine.generation().saturating_sub(ack.generation));
            cursor_gen = ack.generation;
            offset = ack.offset;
            if heartbeat {
                std::thread::sleep(REPL_HEARTBEAT_PAUSE);
            }
        }
    }
}

/// Streams the primary's checkpoint file to a bootstrapping replica.
/// Returns `Ok(Some(generation))` when the replica acknowledged the
/// complete file (the record cursor then restarts at that generation,
/// offset 0), `Ok(None)` when a newer checkpoint landed mid-stream and
/// the bootstrap must restart.
///
/// The generation is captured *before* the file is opened: any
/// checkpoint completing after the capture moves the horizon and fails
/// the final check, so stale bytes can never be installed under a fresh
/// generation. The open handle pins one inode, so the streamed bytes
/// are internally consistent even while a rename replaces the file.
fn ship_checkpoint(
    ctx: &ServeCtx<'_>,
    transport: &mut TcpTransport,
    engine: &DynamicEngine,
) -> Result<Option<u64>, StreamEnd> {
    let path = engine
        .checkpoint_file()
        .expect("durable engine has a checkpoint path");
    let generation = engine.replication_horizon().unwrap_or(0);
    let mut file = std::fs::File::open(&path).map_err(|e| unreadable("checkpoint", e))?;
    let mut sent = 0u64;
    loop {
        may_ship(ctx)?;
        let mut chunk = vec![0u8; REPL_CHUNK_BYTES];
        let n = file
            .read(&mut chunk)
            .map_err(|e| unreadable("checkpoint", e))?;
        chunk.truncate(n);
        sent += n as u64;
        // The empty chunk at EOF carries the done flag — but only if no
        // newer checkpoint replaced the one just streamed.
        let done = n == 0;
        if done && engine.replication_horizon() != Some(generation) {
            return Ok(None);
        }
        let batch = ReplBatch {
            payload: ReplPayload::Checkpoint { done },
            primary_generation: engine.generation(),
            generation,
            next_offset: sent,
            bytes: chunk,
        };
        ship(ctx, transport, &batch).ok_or(None)?;
        if done {
            return Ok(Some(generation));
        }
    }
}

/// Sends one `REPL_BATCH` and waits for the strict-alternation
/// `REPL_ACK` that follows it. Idle timeouts keep polling so a drain is
/// noticed; a dead transport or any other frame from the replica ends the
/// subscription (`None`).
fn ship(ctx: &ServeCtx<'_>, transport: &mut TcpTransport, batch: &ReplBatch) -> Option<ReplAck> {
    transport
        .send(&Frame::new(op::REPL_BATCH, batch.encode()))
        .ok()?;
    loop {
        match transport.recv() {
            Ok(frame) if frame.opcode == op::REPL_ACK => return ReplAck::decode(&frame.payload),
            Err(NetError::Idle) if !ctx.draining.load(Ordering::Acquire) => {}
            _ => return None,
        }
    }
}

/// Handles an explicit `PROMOTE`: idempotent on a primary; on a replica
/// it requests promotion and waits for the apply loop to seal the
/// stream and flip the role.
fn handle_promote(ctx: &ServeCtx<'_>, payload: &[u8]) -> Result<Frame, WireError> {
    if !payload.is_empty() {
        return Err(ctx.protocol_error(ErrorCode::BadPayload, "promote carries no payload"));
    }
    let engine = ctx.backend.dynamic().ok_or_else(|| {
        WireError::new(
            ErrorCode::ReadOnly,
            "promotion requires a dynamic (--wal) server",
        )
    })?;
    if ctx.repl.role() != ReplRole::Primary {
        ctx.repl.request_promote();
        let deadline = Instant::now() + PROMOTE_WAIT;
        while ctx.repl.role() != ReplRole::Primary {
            if Instant::now() >= deadline {
                return Err(WireError::new(
                    ErrorCode::Internal,
                    "promotion did not complete in time",
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let ok = PromoteOk {
        generation: engine.generation(),
    };
    Ok(Frame::new(op::PROMOTE_OK, ok.encode()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_gate_respects_deadlines() {
        let gate = Admission::new(1, 8);
        assert_eq!(gate.acquire_until(None), Admit::Admitted);
        // Second acquire with an already-expired deadline fails fast.
        let past = Instant::now();
        assert_eq!(gate.acquire_until(Some(past)), Admit::DeadlineExpired);
        // ... and with a short future deadline, fails after it passes.
        let start = Instant::now();
        assert_eq!(
            gate.acquire_until(Some(start + Duration::from_millis(20))),
            Admit::DeadlineExpired
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
        // Releasing lets a waiter through.
        gate.release();
        assert_eq!(
            gate.acquire_until(Some(Instant::now() + Duration::from_secs(1))),
            Admit::Admitted
        );
    }

    #[test]
    fn zero_capacity_gate_still_admits_one() {
        let gate = Admission::new(0, 0);
        assert_eq!(gate.acquire_until(None), Admit::Admitted);
    }

    #[test]
    fn full_wait_queue_sheds_instead_of_queueing() {
        // One permit, one queue slot. Take the permit, fill the slot
        // with a waiter, then watch the third caller get shed instantly.
        let gate = Arc::new(Admission::new(1, 1));
        assert_eq!(gate.acquire_until(None), Admit::Admitted);
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.acquire_until(Some(Instant::now() + Duration::from_secs(5)))
            })
        };
        // Wait until the waiter is actually parked in the queue.
        while gate.waiting() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(gate.is_full());
        let start = Instant::now();
        assert_eq!(
            gate.acquire_until(Some(Instant::now() + Duration::from_secs(5))),
            Admit::Overloaded
        );
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "shedding must not wait out the deadline"
        );
        // Releasing admits the queued waiter, not the shed caller.
        gate.release();
        assert_eq!(waiter.join().unwrap(), Admit::Admitted);
        assert_eq!(gate.waiting(), 0);
        assert!(!gate.is_full());
    }

    #[test]
    fn ledger_replays_only_matching_fingerprints() {
        let ledger = RequestLedger::new(2);
        let reply = LedgerReply::Count(CountOk::new(42, 7));
        ledger.record(1, 0xAAAA, reply);
        assert_eq!(ledger.lookup(1, 0xAAAA), Some(reply));
        // Same ID from a different logical query: no replay.
        assert_eq!(ledger.lookup(1, 0xBBBB), None);
        assert_eq!(ledger.lookup(2, 0xAAAA), None);
        // FIFO eviction at capacity.
        ledger.record(2, 0xCCCC, LedgerReply::Count(CountOk::new(1, 1)));
        ledger.record(
            3,
            0xDDDD,
            LedgerReply::Update(UpdateOk {
                generation: 9,
                inserted: 2,
                deleted: 0,
            }),
        );
        assert_eq!(ledger.lookup(1, 0xAAAA), None, "oldest entry evicted");
        assert!(ledger.lookup(3, 0xDDDD).is_some());
    }

    #[test]
    fn update_fingerprints_separate_batches_and_domains() {
        let base = UpdateRequest {
            deadline_ms: 0,
            request_id: 5,
            inserts: vec![(1, 2), (3, 4)],
            deletes: vec![(5, 6)],
        };
        let same_but_other_id = UpdateRequest {
            request_id: 6,
            deadline_ms: 31,
            ..base.clone()
        };
        assert_eq!(
            update_fingerprint(&base),
            update_fingerprint(&same_but_other_id),
            "ids and deadlines don't change what a batch does"
        );
        let different_edges = UpdateRequest {
            inserts: vec![(1, 2), (3, 5)],
            ..base.clone()
        };
        assert_ne!(
            update_fingerprint(&base),
            update_fingerprint(&different_edges)
        );
        // Moving an edge across the insert/delete boundary changes the
        // batch even though the flat edge list is identical.
        let moved_edge = UpdateRequest {
            inserts: vec![(1, 2)],
            deletes: vec![(3, 4), (5, 6)],
            ..base.clone()
        };
        assert_ne!(update_fingerprint(&base), update_fingerprint(&moved_edge));
    }

    #[test]
    fn request_fingerprints_separate_different_queries() {
        let base = CountRequest {
            no_iep: false,
            hub_bitsets: false,
            deadline_ms: 0,
            request_id: 9,
            min_generation: 0,
            mode: QueryMode::Count,
            pattern: vec![3, 0b110, 0b101, 0b011],
        };
        let same_but_other_id = CountRequest {
            request_id: 10,
            deadline_ms: 77,
            ..base.clone()
        };
        // IDs and deadlines don't change the answer, so they are not
        // part of the fingerprint.
        assert_eq!(
            request_fingerprint(&base),
            request_fingerprint(&same_but_other_id)
        );
        // Neither does the hub bit: the server picks its kernels itself.
        let same_but_hub_bit = CountRequest {
            hub_bitsets: true,
            ..base.clone()
        };
        assert_eq!(
            request_fingerprint(&base),
            request_fingerprint(&same_but_hub_bit)
        );
        let different_flags = CountRequest {
            no_iep: true,
            ..base.clone()
        };
        assert_ne!(
            request_fingerprint(&base),
            request_fingerprint(&different_flags)
        );
        let different_pattern = CountRequest {
            pattern: vec![3, 0b110, 0b101, 0b111],
            ..base.clone()
        };
        assert_ne!(
            request_fingerprint(&base),
            request_fingerprint(&different_pattern)
        );
        // The execution mode (and a sample mode's parameters) change the
        // answer, so they separate fingerprints too.
        let orbit = CountRequest {
            mode: QueryMode::Orbit,
            ..base.clone()
        };
        assert_ne!(request_fingerprint(&base), request_fingerprint(&orbit));
        let sample_a = CountRequest {
            mode: QueryMode::sample(1, 0.5),
            ..base.clone()
        };
        let sample_b = CountRequest {
            mode: QueryMode::sample(2, 0.5),
            ..base
        };
        assert_ne!(
            request_fingerprint(&sample_a),
            request_fingerprint(&sample_b)
        );
    }
}
