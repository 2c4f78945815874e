//! The GraphPi client library: one synchronous request/response client
//! over any [`Transport`], for a single server or a replicated deployment.
//!
//! [`Client`] is what `graphpi-cli remote`, the perf ledger and the
//! network tests are built on, and the only code that builds a request,
//! sends it, and reads the reply. Each request is one frame out and one
//! reply frame back (a page stream, for enumeration); a typed server error
//! ([`op::ERROR`]) surfaces as [`NetError::Remote`] with its [`ErrorCode`]
//! intact, so callers can distinguish "your deadline expired" from "your
//! pattern is disconnected" without string matching.
//!
//! How hard a client tries is policy, fixed at construction, and every
//! request runs the same [`RetryPolicy`] loop:
//! - [`Client::connect`] dials one server now and makes one attempt per
//!   request on that one connection. Its requests go out untagged, byte
//!   for byte what the caller asked for.
//! - [`Client::with_endpoints`] (TCP) and [`Client::with_connector`] (any
//!   transport) make bounded attempts with exponential backoff and seeded
//!   jitter, redialing after any failure that leaves the stream in an
//!   unknown state. COUNT and UPDATE carry a client-generated request ID,
//!   so a resend after an *ambiguous* failure (reply lost mid-read) is
//!   answered from the server's completed-request ledger instead of
//!   double-executing.
//!
//! Over several endpoints of a replicated deployment, reads stick to one
//! connection and rotate on failure, writes go to the believed primary and
//! follow `NOT_PRIMARY` redirects, and every read is floored at the
//! client's last acknowledged write.

use super::chaos::SplitMix64;
use super::protocol::{
    op, CountExt, CountOk, CountRequest, EnumPage, EnumerateRequest, ErrorCode, Frame, HealthOk,
    NetError, PromoteOk, QueryMode, StatsOk, TcpTransport, Transport, UpdateOk, UpdateRequest,
    WireError, MAX_UPDATE_EDGES,
};
use graphpi_pattern::Pattern;
use std::cell::Cell;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

/// Per-query options for [`Client::count_with`] — the wire-level mirror of
/// the server-side execution flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoteCountOptions {
    /// Disable Inclusion–Exclusion counting for this query.
    pub no_iep: bool,
    /// Deadline in milliseconds covering queueing + execution (0 = none).
    pub deadline_ms: u32,
    /// Idempotency key for safe retries (0 = none; a client built with a
    /// retry policy fills this in automatically).
    pub request_id: u64,
    /// Read-your-writes floor (0 = the client's last acknowledged write):
    /// the server answers only at or after this generation, waiting
    /// briefly for replication to catch up and shedding with
    /// `RETRY_LATER` past its wait budget.
    pub min_generation: u64,
    /// Execution mode: a plain count (default), per-vertex orbit counts
    /// (summarised in the reply), or a seeded sampled estimate.
    pub mode: QueryMode,
}

/// Per-enumeration options for [`Client::enumerate_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoteEnumerateOptions {
    /// Deadline in milliseconds covering queueing, matching, *and* page
    /// streaming — the server re-checks it between pages (0 = none).
    pub deadline_ms: u32,
    /// Requested embeddings per `ENUM_PAGE` (0 = server default; always
    /// clamped to what one frame can carry).
    pub page_size: u32,
}

/// A completed remote enumeration: every embedding received, plus how
/// many pages carried them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteEnumeration {
    /// The embeddings, one `Vec` per match, indexed by pattern vertex.
    pub embeddings: Vec<Vec<u32>>,
    /// `ENUM_PAGE` frames received (at least 1 — an empty result is one
    /// empty terminal page).
    pub pages: u64,
}

/// Per-update options for [`Client::update_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoteUpdateOptions {
    /// Deadline in milliseconds covering queueing + commit (0 = none).
    pub deadline_ms: u32,
    /// Idempotency key (0 = none). Unlike counts, updates are **not**
    /// naturally idempotent — recommitting an applied batch burns a
    /// generation and can change the graph — so anything that resends
    /// must set this (a client built with a retry policy fills it in
    /// automatically).
    pub request_id: u64,
}

/// A successful remote count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteCount {
    /// Number of embeddings found (for sample mode: the estimate rounded
    /// to the nearest integer — the full-precision value is in `ext`).
    pub count: u64,
    /// Server-side execution time (excludes queueing and network).
    pub elapsed: Duration,
    /// Mode-specific extension: an orbit summary or sample estimate
    /// ([`CountExt::None`] for plain counts).
    pub ext: CountExt,
}

/// Convenience: is this error the server saying "deadline exceeded"?
pub fn is_deadline_exceeded(error: &NetError) -> bool {
    matches!(
        error,
        NetError::Remote {
            code: ErrorCode::DeadlineExceeded,
            ..
        }
    )
}

/// Convenience: is this error worth retrying? True for transport-level
/// failures (closed/reset/truncated connections, timeouts) and for the
/// server's recoverable refusals ([`ErrorCode::is_retryable`]); false
/// for content errors a retry cannot fix (bad pattern, bad payload,
/// deadline exceeded).
pub(crate) fn is_retryable(error: &NetError) -> bool {
    match error {
        NetError::Remote { code, .. } => code.is_retryable(),
        NetError::Io(_)
        | NetError::Closed
        | NetError::Truncated
        | NetError::Idle
        | NetError::BadMagic => true,
        // Version/protocol/frame-size errors mean the peers disagree
        // about the wire format; resending the same bytes cannot help.
        _ => false,
    }
}

/// Retry/backoff policy for a [`Client`]: bounded attempts and
/// exponential backoff with seeded jitter. The whole schedule is a pure
/// function of the policy (see [`RetryPolicy::backoff_schedule`]), so tests
/// can assert it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (>= 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub initial_backoff: Duration,
    /// Backoff ceiling (pre-jitter).
    pub max_backoff: Duration,
    /// Seed for the jitter schedule and request-ID stream. Give each
    /// client its own seed: IDs double as server-side idempotency keys.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Builder: sets the jitter/request-ID seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The exact backoff waits this policy produces: one entry per
    /// retry (so `max_attempts - 1` entries). Each is the doubled,
    /// capped base scaled by a jitter factor in `[0.5, 1.5)` drawn from
    /// the seeded generator — fully deterministic per seed.
    pub fn backoff_schedule(&self) -> Vec<Duration> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.max_attempts.saturating_sub(1))
            .map(|retry| {
                let doubled = self
                    .initial_backoff
                    .saturating_mul(1u32 << retry.min(20))
                    .min(self.max_backoff);
                let per_mille = 500 + rng.next_below(1000);
                let nanos = doubled.as_nanos().saturating_mul(per_mille as u128) / 1000;
                Duration::from_nanos(nanos.min(u64::MAX as u128) as u64)
            })
            .collect()
    }
}

/// What a [`Client`] has done so far — tests assert on these to prove
/// the chaos runs exercised the retry paths, and the CLI's `resilience:`
/// and `replication:` summary lines are built from them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Wire attempts issued (first tries + retries).
    pub attempts: u64,
    /// Fresh connections dialed (includes the first).
    pub connects: u64,
    /// Retries that followed a retryable failure or a redirect.
    pub retries: u64,
    /// Backoffs stretched to honor a server retry-after hint.
    pub hints_honored: u64,
    /// Writes re-routed to a different endpoint (after a `NOT_PRIMARY`
    /// redirect or an undialable primary).
    pub failovers: u64,
    /// `NOT_PRIMARY` redirects that carried the primary's address.
    pub redirects: u64,
    /// Counts and enumerations answered per endpoint, indexed like the
    /// endpoint list.
    pub reads_per_endpoint: Vec<u64>,
}

type BoxedTransport = Box<dyn Transport + Send>;
type Connector = Box<dyn FnMut(SocketAddr) -> Result<BoxedTransport, NetError> + Send>;

/// The probe payload `PING` sends and expects echoed.
const PING_PAYLOAD: [u8; 3] = [0xA5, 0x5A, 0x42];

/// A synchronous GraphPi protocol client. A receive timeout configured on
/// the transport bounds the wait for each reply frame: a quiet expiry
/// surfaces as [`NetError::Idle`] (the TCP transport has none and waits as
/// long as the query runs).
pub struct Client {
    /// The live connection, to `endpoints[conn_at]`.
    conn: Option<BoxedTransport>,
    conn_at: usize,
    /// Opens a fresh connection to an endpoint.
    connector: Connector,
    endpoints: Vec<SocketAddr>,
    /// Index of the endpoint writes route to.
    primary: usize,
    /// Index of the endpoint the next read connection tries first.
    next_read: usize,
    policy: RetryPolicy,
    /// The request-ID stream; `None` sends requests untagged.
    request_ids: Option<SplitMix64>,
    last_write_generation: u64,
    counters: ClientCounters,
}

impl Client {
    /// Connects over TCP now. One attempt per request, on this one
    /// connection, and no request IDs: the client never resends, so the
    /// frames are exactly the requests the caller built (and two such
    /// clients can never be answered from each other's ledger entries).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        // Tries each resolved address in turn, as `TcpStream::connect`
        // does, keeping the one that answered as the endpoint.
        let mut error = NetError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "could not resolve to any addresses",
        ));
        for endpoint in addr.to_socket_addrs()? {
            match TcpTransport::connect(endpoint) {
                Ok(transport) => return Ok(Self::dialed(endpoint, Box::new(transport))),
                Err(e) => error = e,
            }
        }
        Err(error)
    }

    /// A [`Client::connect`] client around a connection already made.
    fn dialed(endpoint: SocketAddr, transport: BoxedTransport) -> Self {
        // One connection is all it has: it never redials, resends or tags.
        let never_redial = |_| Err(NetError::Closed);
        let single_attempt = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        Self {
            conn: Some(transport),
            request_ids: None,
            ..Self::with_connector(vec![endpoint], never_redial, single_attempt)
        }
    }

    /// A retrying client over TCP to `endpoints` (at least one): a
    /// single server, or every node of a replicated deployment. Reads
    /// start from the first endpoint; writes assume `endpoints[0]` is the
    /// primary until a redirect teaches otherwise. Nothing is dialed
    /// until the first request.
    pub fn with_endpoints(endpoints: Vec<SocketAddr>, policy: RetryPolicy) -> Self {
        let tcp = |addr| Ok(Box::new(TcpTransport::connect(addr)?) as BoxedTransport);
        Self::with_connector(endpoints, tcp, policy)
    }

    /// [`Client::with_endpoints`] over any transport: `connector(addr)`
    /// opens a fresh connection to one of `endpoints` (the fault-injection
    /// and scripted-transport seam). It is called lazily — before the
    /// first attempt, then after every connection-killing failure.
    pub fn with_connector<F>(endpoints: Vec<SocketAddr>, connector: F, policy: RetryPolicy) -> Self
    where
        F: FnMut(SocketAddr) -> Result<Box<dyn Transport + Send>, NetError> + Send + 'static,
    {
        assert!(!endpoints.is_empty(), "need at least one endpoint");
        Self {
            conn: None,
            conn_at: 0,
            connector: Box::new(connector),
            counters: ClientCounters {
                reads_per_endpoint: vec![0; endpoints.len()],
                ..ClientCounters::default()
            },
            endpoints,
            primary: 0,
            next_read: 0,
            policy,
            // Offset the ID stream from the jitter stream so the two
            // deterministic sequences never correlate.
            request_ids: Some(SplitMix64::new(policy.seed ^ 0x1D0_C0DE)),
            last_write_generation: 0,
        }
    }

    /// Consumes the client, returning its live connection.
    ///
    /// # Panics
    /// If the client holds none (it has not dialed yet, or its last
    /// request dropped the connection).
    pub fn into_transport(self) -> Box<dyn Transport + Send> {
        self.conn.expect("the client holds no live connection")
    }

    /// The endpoint list this client routes over.
    pub fn endpoints(&self) -> &[SocketAddr] {
        &self.endpoints
    }

    /// The endpoint writes currently route to.
    pub fn primary_endpoint(&self) -> SocketAddr {
        self.endpoints[self.primary]
    }

    /// The generation of the last acknowledged write (0 before any).
    pub fn last_write_generation(&self) -> u64 {
        self.last_write_generation
    }

    /// What this client has done so far.
    pub fn counters(&self) -> ClientCounters {
        self.counters.clone()
    }

    /// Drops the read connection so the next read dials the next endpoint
    /// in rotation. Reads are otherwise sticky — they reuse one connection
    /// until it fails — so callers that want to spread a query burst
    /// across replicas rotate explicitly between queries. A client with
    /// one endpoint has nowhere to rotate to and keeps its connection.
    pub fn rotate_reads(&mut self) {
        if self.endpoints.len() > 1 {
            self.conn = None;
        }
    }

    /// Liveness probe: sends `PING`, expects the payload echoed back.
    pub fn ping(&mut self) -> Result<(), NetError> {
        let echoed = |payload: &[u8]| (payload == PING_PAYLOAD).then_some(());
        self.call(op::PING, PING_PAYLOAD.to_vec(), op::PONG, echoed)
    }

    /// Counts embeddings of `pattern` with default options.
    pub fn count(&mut self, pattern: &Pattern) -> Result<RemoteCount, NetError> {
        self.count_with(pattern, RemoteCountOptions::default())
    }

    /// Counts embeddings with explicit per-query options. A caller-supplied
    /// `request_id` or `min_generation` is kept; otherwise a retrying
    /// client draws a fresh ID (shared by every attempt of this query),
    /// and the floor is the client's last acknowledged write.
    pub fn count_with(
        &mut self,
        pattern: &Pattern,
        mut options: RemoteCountOptions,
    ) -> Result<RemoteCount, NetError> {
        if options.request_id == 0 {
            options.request_id = self.next_request_id();
        }
        if options.min_generation == 0 {
            options.min_generation = self.last_write_generation;
        }
        let request = CountRequest {
            no_iep: options.no_iep,
            hub_bitsets: false,
            deadline_ms: options.deadline_ms,
            request_id: options.request_id,
            min_generation: options.min_generation,
            mode: options.mode,
            pattern: pattern.canonical_bytes(),
        };
        let ok = self.call(op::COUNT, request.encode(), op::COUNT_OK, CountOk::decode)?;
        self.counters.reads_per_endpoint[self.conn_at] += 1;
        Ok(RemoteCount {
            count: ok.count,
            elapsed: Duration::from_micros(ok.elapsed_micros),
            ext: ok.ext,
        })
    }

    /// Enumerates up to `limit` embeddings with default options.
    pub fn enumerate(
        &mut self,
        pattern: &Pattern,
        limit: u64,
    ) -> Result<RemoteEnumeration, NetError> {
        self.enumerate_with(pattern, limit, RemoteEnumerateOptions::default())
    }

    /// Enumerates up to `limit` embeddings with explicit options,
    /// collecting the `ENUM_PAGE` stream until its terminal page.
    ///
    /// Enumeration carries no idempotency key and its pages are not
    /// resumable, so it is retried **only while no page has been
    /// received**: once a page has arrived, a failure surfaces rather than
    /// risking a silently interleaved second stream (a truncated-limit
    /// re-run may also legitimately return different embeddings). It
    /// carries no generation floor either, so a client that has written
    /// enumerates on the primary.
    pub fn enumerate_with(
        &mut self,
        pattern: &Pattern,
        limit: u64,
        options: RemoteEnumerateOptions,
    ) -> Result<RemoteEnumeration, NetError> {
        let request = EnumerateRequest {
            hub_bitsets: false,
            deadline_ms: options.deadline_ms,
            limit,
            page_size: options.page_size,
            pattern: pattern.canonical_bytes(),
        };
        let request = Frame::new(op::ENUMERATE, request.encode());
        let pages = Cell::new(0);
        let size = pattern.num_vertices();
        let result = self.with_retries(
            self.last_write_generation > 0,
            |transport| collect_pages(transport, &request, size, limit, &pages),
            || pages.get() == 0,
        )?;
        self.counters.reads_per_endpoint[self.conn_at] += 1;
        Ok(result)
    }

    /// Commits one edge batch. Inserts apply before deletes; the reply
    /// carries the generation the batch produced. Static servers answer
    /// [`ErrorCode::ReadOnly`].
    pub fn update(
        &mut self,
        inserts: &[(u32, u32)],
        deletes: &[(u32, u32)],
    ) -> Result<UpdateOk, NetError> {
        self.update_with(inserts, deletes, RemoteUpdateOptions::default())
    }

    /// Commits one edge batch with explicit options, on the primary.
    /// Batches that cannot fit one frame are refused before anything is
    /// sent — the caller must split them (see [`MAX_UPDATE_EDGES`]).
    ///
    /// A retrying client tags the batch with one request ID across every
    /// attempt, so a batch that committed before an ambiguous failure is
    /// answered from the ledger, not re-applied — on the *same* server; a
    /// failover to a server that never saw the ID commits it there
    /// (callers that cannot tolerate that must quiesce before promoting).
    pub fn update_with(
        &mut self,
        inserts: &[(u32, u32)],
        deletes: &[(u32, u32)],
        mut options: RemoteUpdateOptions,
    ) -> Result<UpdateOk, NetError> {
        if inserts.len().saturating_add(deletes.len()) > MAX_UPDATE_EDGES {
            return Err(NetError::Protocol(
                "update batch exceeds one frame; split it into MAX_UPDATE_EDGES chunks",
            ));
        }
        if options.request_id == 0 {
            options.request_id = self.next_request_id();
        }
        let request = UpdateRequest {
            deadline_ms: options.deadline_ms,
            request_id: options.request_id,
            inserts: inserts.to_vec(),
            deletes: deletes.to_vec(),
        };
        let ok = self.call(
            op::UPDATE,
            request.encode(),
            op::UPDATE_OK,
            UpdateOk::decode,
        )?;
        self.last_write_generation = ok.generation;
        Ok(ok)
    }

    /// Fetches the server's counter snapshot.
    pub fn stats(&mut self) -> Result<StatsOk, NetError> {
        self.call(op::STATS, vec![], op::STATS_OK, StatsOk::decode)
    }

    /// Probes server readiness: ready, draining, or overloaded, with a
    /// retry-after hint when not ready.
    pub fn health(&mut self) -> Result<HealthOk, NetError> {
        self.call(op::HEALTH, vec![], op::HEALTH_OK, HealthOk::decode)
    }

    /// Asks a replica to promote itself to primary, blocking until its
    /// apply loop seals the stream. Idempotent on a server that is already
    /// primary. Returns the sealed generation.
    pub fn promote(&mut self) -> Result<PromoteOk, NetError> {
        self.call(op::PROMOTE, vec![], op::PROMOTE_OK, PromoteOk::decode)
    }

    /// Asks the server to drain and exit. The server acknowledges, then
    /// closes this connection.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        self.call(op::SHUTDOWN, vec![], op::SHUTDOWN_OK, |_| Some(()))
    }

    /// Probes every endpoint's health directly (fresh connection, one
    /// attempt, 500 ms reply timeout): the CLI's lag report. Unreachable
    /// endpoints yield `None`.
    pub fn health_all(&self) -> Vec<(SocketAddr, Option<HealthOk>)> {
        self.endpoints
            .iter()
            .map(|&addr| {
                let health = TcpTransport::connect(addr).ok().and_then(|mut transport| {
                    transport
                        .set_recv_timeout(Some(Duration::from_millis(500)))
                        .ok()?;
                    Self::dialed(addr, Box::new(transport)).health().ok()
                });
                (addr, health)
            })
            .collect()
    }

    /// The next request ID: 0 (untagged) on a [`Client::connect`] client.
    fn next_request_id(&mut self) -> u64 {
        let Some(ids) = &mut self.request_ids else {
            return 0;
        };
        loop {
            let id = ids.next_u64();
            if id != 0 {
                return id;
            }
        }
    }

    /// One request that every attempt resends as is, and its decoded
    /// reply. Writes route to the primary.
    fn call<R>(
        &mut self,
        opcode: u8,
        payload: Vec<u8>,
        expect: u8,
        decode: fn(&[u8]) -> Option<R>,
    ) -> Result<R, NetError> {
        let request = Frame::new(opcode, payload);
        let attempt = |transport: &mut dyn Transport| {
            transport.send(&request)?;
            let reply = recv_reply(transport, expect)?;
            decode(&reply.payload).ok_or(NetError::Protocol("undecodable reply payload"))
        };
        self.with_retries(opcode == op::UPDATE, attempt, || true)
    }

    /// The one retry loop: up to `max_attempts` runs of `attempt`, with
    /// reconnects, redirects, backoff and hint-stretched sleeps between
    /// them. A failure is retried only when it is [`is_retryable`] (or a
    /// write's `NOT_PRIMARY` that another endpoint may take) *and*
    /// `resend_is_safe` still holds (requests that are not idempotent
    /// narrow it).
    fn with_retries<R>(
        &mut self,
        to_primary: bool,
        mut attempt: impl FnMut(&mut dyn Transport) -> Result<R, NetError>,
        resend_is_safe: impl Fn() -> bool,
    ) -> Result<R, NetError> {
        let max_attempts = self.policy.max_attempts.max(1);
        let several = self.endpoints.len() > 1;
        for n in 0..max_attempts {
            if n > 0 {
                self.counters.retries += 1;
            }
            self.counters.attempts += 1;
            let error = match self.connected(to_primary).and_then(&mut attempt) {
                Ok(reply) => return Ok(reply),
                Err(error) => error,
            };
            // A write a replica refused moves to the primary it names.
            let redirected = match &error {
                NetError::Remote {
                    code: ErrorCode::NotPrimary,
                    message,
                    ..
                } if to_primary && several => {
                    self.follow_redirect(message);
                    true
                }
                _ => false,
            };
            // A typed refusal arrives on a connection the server keeps
            // open, so stay on it — unless it is a shed read another
            // endpoint may serve. Anything else (and the two refusals that
            // close the connection) leaves the stream in an unknown state.
            let stays = matches!(
                &error,
                NetError::Remote { code, .. } if !code.is_retryable()
                    || (*code == ErrorCode::RetryLater && (to_primary || !several))
            );
            if !stays {
                self.conn = None;
            }
            let last = n + 1 == max_attempts;
            if last || !(redirected || is_retryable(&error)) || !resend_is_safe() {
                return Err(error);
            }
            let mut wait = if redirected {
                Duration::ZERO
            } else {
                let schedule = self.policy.backoff_schedule();
                schedule.get(n as usize).copied().unwrap_or_default()
            };
            // A retry-after hint speaks for the server that sent it; a read
            // that moves on to the next endpoint does not wait it out.
            let moves_on = several && !stays && !to_primary;
            if let NetError::Remote {
                retry_after_ms: Some(hint_ms),
                ..
            } = error
            {
                let hint = Duration::from_millis(u64::from(hint_ms));
                if hint > wait && !moves_on {
                    wait = hint;
                    self.counters.hints_honored += 1;
                }
            }
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
        unreachable!("the last attempt returns its error")
    }

    /// The connection for one attempt: the current one, unless a write
    /// needs the primary and it is elsewhere; otherwise a fresh dial.
    fn connected(&mut self, to_primary: bool) -> Result<&mut dyn Transport, NetError> {
        if to_primary && self.conn_at != self.primary {
            self.conn = None;
        }
        if self.conn.is_none() {
            self.dial(to_primary)?;
        }
        Ok(self.conn.as_deref_mut().expect("dialed above"))
    }

    /// Dials each endpoint once, starting at the primary (writes) or at
    /// the read rotation's cursor (reads); the first that answers wins.
    /// A write that lands past the primary has failed over to it.
    fn dial(&mut self, to_primary: bool) -> Result<(), NetError> {
        let n = self.endpoints.len();
        let start = if to_primary {
            self.primary
        } else {
            self.next_read
        };
        let mut error = NetError::Closed;
        for at in (start..start + n).map(|i| i % n) {
            self.counters.connects += 1;
            match (self.connector)(self.endpoints[at]) {
                Ok(transport) => {
                    self.conn = Some(transport);
                    self.conn_at = at;
                    if to_primary && at != self.primary {
                        self.counters.failovers += 1;
                        self.primary = at;
                    }
                    if !to_primary {
                        self.next_read = (at + 1) % n;
                    }
                    return Ok(());
                }
                Err(e) => error = e,
            }
        }
        Err(error)
    }

    /// Points writes at the redirect target: the address named in a
    /// `NOT_PRIMARY` error when it is one of our endpoints, the next
    /// endpoint in rotation otherwise (empty redirects included — the
    /// replica may not know its primary yet).
    fn follow_redirect(&mut self, message: &str) {
        self.counters.failovers += 1;
        let named = message.parse::<SocketAddr>().ok();
        match self.endpoints.iter().position(|&e| Some(e) == named) {
            Some(index) => {
                self.counters.redirects += 1;
                self.primary = index;
            }
            None => self.primary = (self.primary + 1) % self.endpoints.len(),
        }
    }
}

/// Receives the next reply frame, which must carry opcode `expect`; a
/// server [`op::ERROR`] frame surfaces as [`NetError::Remote`].
fn recv_reply(transport: &mut dyn Transport, expect: u8) -> Result<Frame, NetError> {
    let frame = transport.recv()?;
    if frame.opcode == op::ERROR {
        let error = WireError::decode(&frame.payload)
            .ok_or(NetError::Protocol("undecodable error payload"))?;
        return Err(error.into_net_error());
    }
    if frame.opcode != expect {
        return Err(NetError::Protocol(
            "response opcode does not match the request",
        ));
    }
    Ok(frame)
}

/// Sends one `ENUMERATE` and collects its page stream. `pages` counts the
/// pages received so far, so a caller can tell — even on failure —
/// whether any of the stream arrived. A stream no honest server sends —
/// more embeddings than `limit`, or an empty page before the last — is
/// refused rather than followed, so a broken peer can neither grow the
/// result without bound nor loop the client forever.
fn collect_pages(
    transport: &mut dyn Transport,
    request: &Frame,
    pattern_size: usize,
    limit: u64,
    pages: &Cell<u64>,
) -> Result<RemoteEnumeration, NetError> {
    transport.send(request)?;
    pages.set(0);
    let mut embeddings = Vec::new();
    loop {
        let frame = recv_reply(transport, op::ENUM_PAGE)?;
        let page = EnumPage::decode(&frame.payload)
            .ok_or(NetError::Protocol("undecodable reply payload"))?;
        if usize::from(page.pattern_size) != pattern_size {
            return Err(NetError::Protocol(
                "page pattern size does not match the request",
            ));
        }
        pages.set(pages.get() + 1);
        if !page.last && page.vertices.is_empty() {
            return Err(NetError::Protocol(
                "empty page before the end of the stream",
            ));
        }
        if (embeddings.len() + page.embeddings().len()) as u64 > limit {
            return Err(NetError::Protocol(
                "page stream exceeds the requested limit",
            ));
        }
        embeddings.extend(page.embeddings().map(<[u32]>::to_vec));
        if page.last {
            return Ok(RemoteEnumeration {
                embeddings,
                pages: pages.get(),
            });
        }
    }
}
