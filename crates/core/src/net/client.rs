//! The GraphPi client library: a thin, synchronous request/response layer
//! over any [`Transport`], plus the retrying client built on top of it.
//!
//! [`Client`] is what `graphpi-cli remote` and the network tests are built
//! on, and the only code that builds a request, sends it, and reads the
//! reply. Each method sends exactly one request frame and blocks for
//! exactly one response frame (a page stream, for enumeration); a typed
//! server error ([`op::ERROR`]) surfaces as [`NetError::Remote`] with its
//! [`ErrorCode`] intact, so callers can distinguish "your deadline
//! expired" from "your pattern is disconnected" without string matching.
//!
//! [`RetryingClient`] runs that same client through one [`RetryPolicy`]
//! loop: bounded attempts, exponential backoff with seeded jitter, and
//! automatic reconnect through a caller-supplied connector. COUNT and UPDATE retries carry a
//! client-generated request ID so a resend after an *ambiguous* failure
//! (reply lost mid-read) is answered from the server's completed-request
//! ledger instead of double-executing. [`FailoverClient`] is endpoint
//! routing over two of those.

use super::chaos::SplitMix64;
use super::protocol::{
    op, CountExt, CountOk, CountRequest, EnumPage, EnumerateRequest, ErrorCode, Frame, HealthOk,
    NetError, PromoteOk, QueryMode, StatsOk, TcpTransport, Transport, UpdateOk, UpdateRequest,
    WireError, MAX_UPDATE_EDGES,
};
use graphpi_pattern::Pattern;
use std::cell::Cell;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-query options for [`Client::count_with`] — the wire-level mirror of
/// the server-side execution flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoteCountOptions {
    /// Disable Inclusion–Exclusion counting for this query.
    pub no_iep: bool,
    /// Deadline in milliseconds covering queueing + execution (0 = none).
    pub deadline_ms: u32,
    /// Idempotency key for safe retries (0 = none; [`RetryingClient`]
    /// fills this in automatically).
    pub request_id: u64,
    /// Read-your-writes floor (0 = none): the server answers only at or
    /// after this generation, waiting briefly for replication to catch
    /// up and shedding with `RETRY_LATER` past its wait budget.
    pub min_generation: u64,
    /// Execution mode: a plain count (default), per-vertex orbit counts
    /// (summarised in the reply), or a seeded sampled estimate.
    pub mode: QueryMode,
}

/// Per-enumeration options for `Client::enumerate_with`.
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
    /// must set this ([`RetryingClient`] fills it in automatically).
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

/// A synchronous GraphPi protocol client over any [`Transport`]. A receive
/// timeout configured on the transport bounds the wait for each reply
/// frame: a quiet expiry surfaces as [`NetError::Idle`] (the TCP transport
/// of [`Client::connect`] has none and waits as long as the query runs).
#[derive(Debug)]
pub struct Client<T: Transport = TcpTransport> {
    transport: T,
}

impl Client<TcpTransport> {
    /// Connects over TCP.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Ok(Self::new(TcpTransport::connect(addr)?))
    }
}

/// The probe payload `PING` sends and expects echoed.
const PING_PAYLOAD: [u8; 3] = [0xA5, 0x5A, 0x42];

impl<T: Transport> Client<T> {
    /// Wraps an existing transport.
    pub(crate) fn new(transport: T) -> Self {
        Self { transport }
    }

    /// Consumes the client, returning its transport.
    pub fn into_transport(self) -> T {
        self.transport
    }

    /// Receives the next reply frame, which must carry opcode `expect`;
    /// a server [`op::ERROR`] frame surfaces as [`NetError::Remote`].
    fn recv_reply(&mut self, expect: u8) -> Result<Frame, NetError> {
        let frame = self.transport.recv()?;
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

    /// Sends one request frame and receives its one reply frame.
    fn exchange(&mut self, opcode: u8, payload: Vec<u8>, expect: u8) -> Result<Frame, NetError> {
        self.transport.send(&Frame::new(opcode, payload))?;
        self.recv_reply(expect)
    }

    /// [`Client::exchange`] plus decoding the reply payload.
    fn call<R>(
        &mut self,
        opcode: u8,
        payload: Vec<u8>,
        expect: u8,
        decode: fn(&[u8]) -> Option<R>,
    ) -> Result<R, NetError> {
        let reply = self.exchange(opcode, payload, expect)?;
        decode(&reply.payload).ok_or(NetError::Protocol("undecodable reply payload"))
    }

    /// Liveness probe: sends `PING`, expects the payload echoed back.
    pub fn ping(&mut self) -> Result<(), NetError> {
        let reply = self.exchange(op::PING, PING_PAYLOAD.to_vec(), op::PONG)?;
        if reply.payload != PING_PAYLOAD {
            return Err(NetError::Protocol("pong payload was not echoed"));
        }
        Ok(())
    }

    /// Counts embeddings of `pattern` with default options.
    pub fn count(&mut self, pattern: &Pattern) -> Result<RemoteCount, NetError> {
        self.count_with(pattern, RemoteCountOptions::default())
    }

    /// Counts embeddings with explicit per-query options.
    pub fn count_with(
        &mut self,
        pattern: &Pattern,
        options: RemoteCountOptions,
    ) -> Result<RemoteCount, NetError> {
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
        Ok(RemoteCount {
            count: ok.count,
            elapsed: Duration::from_micros(ok.elapsed_micros),
            ext: ok.ext,
        })
    }

    /// Enumerates up to `limit` embeddings with default options,
    /// collecting every streamed page.
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
    /// Unlike counts there is no idempotency key: an enumeration that
    /// fails mid-stream cannot be resumed — issue a fresh request (and
    /// see [`RetryingClient::enumerate_with`] for the only retry that is
    /// safe automatically: one where no page was received).
    pub(crate) fn enumerate_with(
        &mut self,
        pattern: &Pattern,
        limit: u64,
        options: RemoteEnumerateOptions,
    ) -> Result<RemoteEnumeration, NetError> {
        self.enumerate_paged(pattern, limit, options, &Cell::new(0))
    }

    /// The one page-collecting loop. `pages` counts the pages received so
    /// far, so a caller can tell — even on failure — whether any of the
    /// stream arrived.
    fn enumerate_paged(
        &mut self,
        pattern: &Pattern,
        limit: u64,
        options: RemoteEnumerateOptions,
        pages: &Cell<u64>,
    ) -> Result<RemoteEnumeration, NetError> {
        let request = EnumerateRequest {
            hub_bitsets: false,
            deadline_ms: options.deadline_ms,
            limit,
            page_size: options.page_size,
            pattern: pattern.canonical_bytes(),
        };
        self.transport
            .send(&Frame::new(op::ENUMERATE, request.encode()))?;
        pages.set(0);
        let mut embeddings = Vec::new();
        loop {
            let frame = self.recv_reply(op::ENUM_PAGE)?;
            let page = EnumPage::decode(&frame.payload)
                .ok_or(NetError::Protocol("undecodable reply payload"))?;
            if usize::from(page.pattern_size) != pattern.num_vertices() {
                return Err(NetError::Protocol(
                    "page pattern size does not match the request",
                ));
            }
            pages.set(pages.get() + 1);
            embeddings.extend(page.embeddings().map(<[u32]>::to_vec));
            if page.last {
                return Ok(RemoteEnumeration {
                    embeddings,
                    pages: pages.get(),
                });
            }
        }
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

    /// Commits one edge batch with explicit options. Batches that cannot
    /// fit one frame are refused before anything is sent — the caller
    /// must split them (see [`MAX_UPDATE_EDGES`]).
    pub fn update_with(
        &mut self,
        inserts: &[(u32, u32)],
        deletes: &[(u32, u32)],
        options: RemoteUpdateOptions,
    ) -> Result<UpdateOk, NetError> {
        if inserts.len().saturating_add(deletes.len()) > MAX_UPDATE_EDGES {
            return Err(NetError::Protocol(
                "update batch exceeds one frame; split it into MAX_UPDATE_EDGES chunks",
            ));
        }
        let request = UpdateRequest {
            deadline_ms: options.deadline_ms,
            request_id: options.request_id,
            inserts: inserts.to_vec(),
            deletes: deletes.to_vec(),
        };
        self.call(
            op::UPDATE,
            request.encode(),
            op::UPDATE_OK,
            UpdateOk::decode,
        )
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
        self.exchange(op::SHUTDOWN, vec![], op::SHUTDOWN_OK)?;
        Ok(())
    }
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

/// Retry/backoff policy for [`RetryingClient`]: bounded attempts and
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

/// Counters describing what a [`RetryingClient`] actually did — tests
/// assert on these to prove the chaos runs exercised the retry paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Wire attempts issued (first tries + retries).
    pub attempts: u64,
    /// Fresh connections dialed (includes the first).
    pub connects: u64,
    /// Retries that followed a retryable failure.
    pub retries: u64,
    /// Backoffs stretched to honor a server retry-after hint.
    pub hints_honored: u64,
}

type BoxedTransport = Box<dyn Transport + Send>;
type Connector = Box<dyn FnMut() -> Result<BoxedTransport, NetError> + Send>;

/// A [`Client`] wrapped in a [`RetryPolicy`]: reconnects through a
/// caller-supplied connector, classifies failures via `is_retryable`,
/// sleeps the policy's jittered backoff (stretched to any server
/// retry-after hint), and tags COUNT and UPDATE requests with request IDs
/// so ambiguous failures are safe to resend.
pub struct RetryingClient {
    connector: Connector,
    policy: RetryPolicy,
    client: Option<Client<BoxedTransport>>,
    id_rng: SplitMix64,
    stats: RetryStats,
}

impl RetryingClient {
    /// Builds a retrying client over any connector. The connector is
    /// called lazily — once before the first attempt, then after every
    /// connection-killing failure.
    pub fn new<F>(connector: F, policy: RetryPolicy) -> Self
    where
        F: FnMut() -> Result<Box<dyn Transport + Send>, NetError> + Send + 'static,
    {
        Self {
            connector: Box::new(connector),
            policy,
            client: None,
            // Offset the ID stream from the jitter stream so the two
            // deterministic sequences never correlate.
            id_rng: SplitMix64::new(policy.seed ^ 0x1D0_C0DE),
            stats: RetryStats::default(),
        }
    }

    /// Retrying client dialing `addr` over plain TCP.
    pub fn connect_tcp(addr: std::net::SocketAddr, policy: RetryPolicy) -> Self {
        Self::new(
            move || Ok(Box::new(TcpTransport::connect(addr)?) as BoxedTransport),
            policy,
        )
    }

    /// What this client has done so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Drops the current connection; the next attempt redials through
    /// the connector. Lets failover logic force a re-route without
    /// waiting for the dead socket to fail an exchange.
    pub(crate) fn disconnect(&mut self) {
        self.client = None;
    }

    /// Counts embeddings of `pattern` with default options, retrying per
    /// the policy.
    pub fn count(&mut self, pattern: &Pattern) -> Result<RemoteCount, NetError> {
        self.count_with(pattern, RemoteCountOptions::default())
    }

    /// Counts embeddings with explicit options, retrying per the policy.
    /// A caller-supplied `request_id` is kept; otherwise a fresh one is
    /// drawn so every attempt of this query shares one idempotency key.
    pub fn count_with(
        &mut self,
        pattern: &Pattern,
        mut options: RemoteCountOptions,
    ) -> Result<RemoteCount, NetError> {
        if options.request_id == 0 {
            options.request_id = self.next_request_id();
        }
        self.with_retries(|client| client.count_with(pattern, options), || true)
    }

    /// Enumerates up to `limit` embeddings with default options, with
    /// the zero-page retry rule of [`RetryingClient::enumerate_with`].
    pub fn enumerate(
        &mut self,
        pattern: &Pattern,
        limit: u64,
    ) -> Result<RemoteEnumeration, NetError> {
        self.enumerate_with(pattern, limit, RemoteEnumerateOptions::default())
    }

    /// Enumerates up to `limit` embeddings, retrying per the policy —
    /// but **only while no page has been received**. Enumeration carries
    /// no idempotency key and its pages are not resumable: once a page
    /// has arrived, a failure surfaces immediately rather than risking a
    /// silently interleaved second stream (a truncated-limit re-run may
    /// also legitimately return different embeddings). Callers that need
    /// to recover mid-stream issue a fresh request.
    pub fn enumerate_with(
        &mut self,
        pattern: &Pattern,
        limit: u64,
        options: RemoteEnumerateOptions,
    ) -> Result<RemoteEnumeration, NetError> {
        let pages = Cell::new(0);
        self.with_retries(
            |client| client.enumerate_paged(pattern, limit, options, &pages),
            || pages.get() == 0,
        )
    }

    /// Commits one edge batch with explicit options, retrying per the
    /// policy. A caller-supplied `request_id` is kept; otherwise a fresh
    /// one is always drawn — an untagged update must not be resent.
    pub fn update_with(
        &mut self,
        inserts: &[(u32, u32)],
        deletes: &[(u32, u32)],
        mut options: RemoteUpdateOptions,
    ) -> Result<UpdateOk, NetError> {
        if options.request_id == 0 {
            options.request_id = self.next_request_id();
        }
        self.with_retries(
            |client| client.update_with(inserts, deletes, options),
            || true,
        )
    }

    fn next_request_id(&mut self) -> u64 {
        loop {
            let id = self.id_rng.next_u64();
            if id != 0 {
                return id;
            }
        }
    }

    /// The one retry loop: up to `max_attempts` runs of `attempt`, with
    /// reconnects, backoff and hint-stretched sleeps between them. A
    /// failure is retried only when it is [`is_retryable`] *and*
    /// `resend_is_safe` still holds (requests that are not idempotent
    /// narrow it).
    fn with_retries<R>(
        &mut self,
        mut attempt: impl FnMut(&mut Client<BoxedTransport>) -> Result<R, NetError>,
        resend_is_safe: impl Fn() -> bool,
    ) -> Result<R, NetError> {
        let schedule = self.policy.backoff_schedule();
        let max_attempts = self.policy.max_attempts.max(1);
        let mut last_error = NetError::Closed;
        for n in 0..max_attempts {
            if n > 0 {
                self.stats.retries += 1;
            }
            self.stats.attempts += 1;
            let error = match self.connected().and_then(&mut attempt) {
                Ok(reply) => return Ok(reply),
                Err(error) => error,
            };
            // A typed refusal arrived on a connection the server keeps
            // open; anything else (and the two refusals that close it)
            // leaves the stream in an unknown state, so reconnect.
            let keep_connection = matches!(
                &error,
                NetError::Remote { code, .. }
                    if *code == ErrorCode::RetryLater || !code.is_retryable()
            );
            if !keep_connection {
                self.client = None;
            }
            if !is_retryable(&error) || !resend_is_safe() {
                return Err(error);
            }
            let mut wait = schedule.get(n as usize).copied().unwrap_or(Duration::ZERO);
            if let NetError::Remote {
                retry_after_ms: Some(hint_ms),
                ..
            } = error
            {
                let hint = Duration::from_millis(u64::from(hint_ms));
                if hint > wait {
                    wait = hint;
                    self.stats.hints_honored += 1;
                }
            }
            last_error = error;
            if n + 1 >= max_attempts {
                break;
            }
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
        Err(last_error)
    }

    /// The live connection for one attempt: (re)dials if needed.
    fn connected(&mut self) -> Result<&mut Client<BoxedTransport>, NetError> {
        if self.client.is_none() {
            self.stats.connects += 1;
            self.client = Some(Client::new((self.connector)()?));
        }
        Ok(self.client.as_mut().expect("connected above"))
    }
}

/// Counters describing what a [`FailoverClient`] did across its
/// endpoints — the CLI's `replication:` summary line is built from
/// these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailoverStats {
    /// Writes re-routed to a different endpoint (after a `NOT_PRIMARY`
    /// redirect or a dead primary).
    pub failovers: u64,
    /// `NOT_PRIMARY` redirects that carried the primary's address.
    pub redirects: u64,
    /// Successful reads answered per endpoint, indexed like the
    /// endpoint list passed at construction.
    pub reads_per_endpoint: Vec<u64>,
}

/// A multi-endpoint client for a replicated deployment: reads spread
/// round-robin across every reachable endpoint (each one a
/// [`RetryingClient`] that reconnects through the rotation on failure),
/// writes route to the endpoint currently believed to be the primary
/// and re-route on [`ErrorCode::NotPrimary`] — following the address in
/// the redirect when the replica knows it, advancing through the
/// rotation when it does not (or when the primary is simply dead).
///
/// With read-your-writes enabled, every read carries a generation floor
/// equal to the last acknowledged write, so a lagging replica either
/// waits until it has caught up to the client's own writes or sheds the
/// read to another endpoint.
pub struct FailoverClient {
    endpoints: Vec<SocketAddr>,
    read: RetryingClient,
    write: RetryingClient,
    /// Which endpoint the read connector dialed last (shared with the
    /// connector closure).
    last_read_endpoint: Arc<AtomicUsize>,
    /// Index of the endpoint writes currently route to (shared with the
    /// write connector closure).
    primary: Arc<AtomicUsize>,
    read_your_writes: bool,
    last_write_generation: u64,
    stats: FailoverStats,
}

impl FailoverClient {
    /// Builds a failover client over `endpoints` (at least one). Reads
    /// start round-robin from the first endpoint; writes assume
    /// `endpoints[0]` is the primary until a redirect teaches otherwise.
    pub fn connect(
        endpoints: Vec<SocketAddr>,
        policy: RetryPolicy,
        read_your_writes: bool,
    ) -> Self {
        assert!(!endpoints.is_empty(), "need at least one endpoint");
        let rr = Arc::new(AtomicUsize::new(0));
        let last_read_endpoint = Arc::new(AtomicUsize::new(0));
        let primary = Arc::new(AtomicUsize::new(0));
        let read = {
            let endpoints = endpoints.clone();
            let rr = Arc::clone(&rr);
            let last = Arc::clone(&last_read_endpoint);
            RetryingClient::new(
                move || {
                    // Try every endpoint once, starting at the rotation
                    // cursor; the first that answers wins the read.
                    let start = rr.fetch_add(1, Ordering::Relaxed);
                    let mut error = NetError::Closed;
                    for probe in 0..endpoints.len() {
                        let index = (start + probe) % endpoints.len();
                        match TcpTransport::connect(endpoints[index]) {
                            Ok(transport) => {
                                last.store(index, Ordering::Relaxed);
                                return Ok(Box::new(transport) as BoxedTransport);
                            }
                            Err(e) => error = e,
                        }
                    }
                    Err(error)
                },
                policy,
            )
        };
        let write = {
            let endpoints = endpoints.clone();
            let primary = Arc::clone(&primary);
            RetryingClient::new(
                move || {
                    let index = primary.load(Ordering::Relaxed) % endpoints.len();
                    Ok(Box::new(TcpTransport::connect(endpoints[index])?) as BoxedTransport)
                },
                // Writes and reads draw from distinct ID streams so the
                // two idempotency-key sequences never collide.
                RetryPolicy {
                    seed: policy.seed ^ 0xFA11_0E14_ED75_0B5E,
                    ..policy
                },
            )
        };
        let stats = FailoverStats {
            reads_per_endpoint: vec![0; endpoints.len()],
            ..FailoverStats::default()
        };
        Self {
            endpoints,
            read,
            write,
            last_read_endpoint,
            primary,
            read_your_writes,
            last_write_generation: 0,
            stats,
        }
    }

    /// The endpoint list this client rotates over.
    pub fn endpoints(&self) -> &[SocketAddr] {
        &self.endpoints
    }

    /// What this client has done so far, across both directions.
    pub fn stats(&self) -> &FailoverStats {
        &self.stats
    }

    /// The generation of the last acknowledged write (0 before any).
    pub fn last_write_generation(&self) -> u64 {
        self.last_write_generation
    }

    /// The endpoint writes currently route to.
    pub fn primary_endpoint(&self) -> SocketAddr {
        self.endpoints[self.primary.load(Ordering::Relaxed) % self.endpoints.len()]
    }

    /// Counts embeddings on whichever endpoint answers, with default
    /// options (plus the read-your-writes floor when enabled).
    pub fn count(&mut self, pattern: &Pattern) -> Result<RemoteCount, NetError> {
        self.count_with(pattern, RemoteCountOptions::default())
    }

    /// Counts embeddings with explicit options. When read-your-writes is
    /// on and the caller set no explicit floor, the floor is the last
    /// acknowledged write's generation.
    pub fn count_with(
        &mut self,
        pattern: &Pattern,
        mut options: RemoteCountOptions,
    ) -> Result<RemoteCount, NetError> {
        if self.read_your_writes && options.min_generation == 0 {
            options.min_generation = self.last_write_generation;
        }
        let result = self.read.count_with(pattern, options);
        if result.is_ok() {
            let index = self.last_read_endpoint.load(Ordering::Relaxed) % self.endpoints.len();
            self.stats.reads_per_endpoint[index] += 1;
        }
        result
    }

    /// Commits one edge batch on the primary, following `NOT_PRIMARY`
    /// redirects and rotating past dead endpoints. Every routing attempt
    /// reuses one request ID, so a batch that actually committed before
    /// an ambiguous failure is answered from the ledger, not re-applied
    /// — on the *same* server; a failover to a server that never saw the
    /// ID commits it there (callers that cannot tolerate that must
    /// quiesce before promoting, as the smoke test does).
    pub fn update(
        &mut self,
        inserts: &[(u32, u32)],
        deletes: &[(u32, u32)],
    ) -> Result<UpdateOk, NetError> {
        self.update_with(inserts, deletes, RemoteUpdateOptions::default())
    }

    /// Commits one edge batch with explicit options, with failover.
    pub fn update_with(
        &mut self,
        inserts: &[(u32, u32)],
        deletes: &[(u32, u32)],
        mut options: RemoteUpdateOptions,
    ) -> Result<UpdateOk, NetError> {
        if options.request_id == 0 {
            options.request_id = self.write.next_request_id();
        }
        let mut last_error = NetError::Closed;
        // One routing attempt per endpoint, plus one for the redirect
        // target itself; the per-endpoint RetryingClient already
        // retried transient failures before each error reaches us.
        for _ in 0..=self.endpoints.len() {
            match self.write.update_with(inserts, deletes, options) {
                Ok(ok) => {
                    self.last_write_generation = ok.generation;
                    return Ok(ok);
                }
                Err(NetError::Remote {
                    code: ErrorCode::NotPrimary,
                    message,
                    ..
                }) => {
                    self.stats.failovers += 1;
                    self.follow_redirect(&message);
                    self.write.disconnect();
                    last_error = NetError::Remote {
                        code: ErrorCode::NotPrimary,
                        message,
                        retry_after_ms: None,
                    };
                }
                Err(error) if is_retryable(&error) => {
                    // The believed primary is unreachable or shedding;
                    // rotate to the next endpoint and try there.
                    self.stats.failovers += 1;
                    self.primary.fetch_add(1, Ordering::Relaxed);
                    self.write.disconnect();
                    last_error = error;
                }
                Err(error) => return Err(error),
            }
        }
        Err(last_error)
    }

    /// Drops the read connection so the next read dials the next
    /// endpoint in rotation. Reads are otherwise sticky — they reuse one
    /// connection until it fails — so callers that want to spread a
    /// query burst across replicas rotate explicitly between queries.
    pub fn rotate_reads(&mut self) {
        self.read.disconnect();
    }

    /// Probes every endpoint's health directly (no retries): the CLI's
    /// lag report. Unreachable endpoints yield `None`.
    pub fn health_all(&self) -> Vec<(SocketAddr, Option<HealthOk>)> {
        self.endpoints
            .iter()
            .map(|&addr| {
                let health = TcpTransport::connect(addr).ok().and_then(|mut transport| {
                    transport
                        .set_recv_timeout(Some(Duration::from_millis(500)))
                        .ok()?;
                    Client::new(transport).health().ok()
                });
                (addr, health)
            })
            .collect()
    }

    /// Points writes at the redirect target: the address named in a
    /// `NOT_PRIMARY` error when it is one of our endpoints, the next
    /// endpoint in rotation otherwise (empty redirects included — the
    /// replica may not know its primary yet).
    fn follow_redirect(&mut self, message: &str) {
        if let Ok(addr) = message.parse::<SocketAddr>() {
            if let Some(index) = self.endpoints.iter().position(|&e| e == addr) {
                self.stats.redirects += 1;
                self.primary.store(index, Ordering::Relaxed);
                return;
            }
        }
        self.primary.fetch_add(1, Ordering::Relaxed);
    }
}
