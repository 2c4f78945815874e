//! Resilience end-to-end: clients driven through the seeded fault
//! injector must still observe counts bit-identical to in-process
//! execution (retries + request-ID idempotency doing their job), an
//! overloaded server must shed with a typed `RETRY_LATER` (plus a usable
//! retry-after hint) instead of dropping connections, the `HEALTH` opcode
//! must report readiness, a frame of any other protocol version must be
//! refused loudly, and the retrying client's one retry loop must treat
//! enumerations like counts — except that it never resends once a page
//! has arrived.

use graphpi::core::config::ServeOptions;
use graphpi::core::engine::{GraphPi, PlanCache};
use graphpi::core::exec::pool::WorkerPool;
use graphpi::core::net::protocol::{self, op, EnumPage, Frame, WireError};
use graphpi::core::net::{
    ChaosConfig, ChaosConnector, Client, ErrorCode, HealthState, NetError, RemoteCountOptions,
    RetryPolicy, Server, ServerHandle, Transport,
};
use graphpi::graph::generators;
use graphpi::pattern::prefab;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Sets the drain flag when dropped so a failed assertion unwinds instead
/// of deadlocking on the accept loop (same shape as `net_serving.rs`).
struct DrainOnDrop(ServerHandle);

impl Drop for DrainOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// The retry policy every chaos client runs: generous attempts, short
/// deterministic backoff, per-client seed.
fn chaos_policy(client_index: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 16,
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        ..RetryPolicy::default()
    }
    .with_seed(0xC0FFEE ^ client_index)
}

#[test]
fn chaos_clients_agree_with_in_process_execution() {
    const CLIENTS: u64 = 4;
    const QUERIES: usize = 50;
    let engine = GraphPi::new(generators::power_law(160, 5, 91));
    let patterns = [prefab::triangle(), prefab::house()];
    let baselines: Vec<u64> = {
        let session = engine.session();
        patterns.iter().map(|p| session.count(p).unwrap()).collect()
    };

    let pool = Arc::new(WorkerPool::new(2));
    let workers_before = pool.live_workers();
    let cache = Arc::new(PlanCache::new(8));
    let server = Server::bind_shared(
        "127.0.0.1:0",
        Arc::clone(&pool),
        cache,
        ServeOptions::default(),
    )
    .unwrap();
    let handle = server.handle().unwrap();
    let addr = handle.addr();

    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine).unwrap());

        let clients: Vec<_> = (0..CLIENTS)
            .map(|client_index| {
                let patterns = &patterns;
                scope.spawn(move || {
                    // Every connection this client dials goes through the
                    // fault injector, with faults deterministic in
                    // (seed, client, connection index).
                    let connector =
                        ChaosConnector::new(addr, ChaosConfig::gentle(0xBAD_5EED ^ client_index));
                    let probe = connector.clone();
                    let mut client = Client::with_connector(
                        vec![addr],
                        move |_| {
                            let transport = connector.connect()?;
                            Ok(Box::new(transport) as Box<dyn Transport + Send>)
                        },
                        chaos_policy(client_index),
                    );
                    let mut observed = Vec::with_capacity(QUERIES);
                    for query in 0..QUERIES {
                        let pattern = &patterns[query % patterns.len()];
                        let result = client
                            .count(pattern)
                            .unwrap_or_else(|e| panic!("client {client_index}: {e}"));
                        observed.push(result.count);
                    }
                    (observed, client.counters(), probe.connections())
                })
            })
            .collect();

        let mut attempts = 0u64;
        let mut retries = 0u64;
        let mut connections = 0u64;
        for (client_index, worker) in clients.into_iter().enumerate() {
            let (observed, stats, dialed) = worker.join().unwrap();
            for (query, &count) in observed.iter().enumerate() {
                assert_eq!(
                    count,
                    baselines[query % patterns.len()],
                    "client {client_index} query {query} diverged under chaos"
                );
            }
            attempts += stats.attempts;
            retries += stats.retries;
            connections += dialed;
        }
        // The gentle profile injects ~2% per wire operation; across
        // 4 x 50 queries the run must actually have been faulty, and every
        // fault must have forced a retry (attempts > queries).
        let queries = CLIENTS * QUERIES as u64;
        assert!(
            retries > 0 && attempts > queries,
            "chaos injected no faults: {attempts} attempts, {retries} retries for {queries} queries"
        );
        assert!(
            connections > CLIENTS,
            "reconnects expected after connection-killing faults, saw {connections} dials"
        );

        // The fault battery killed no workers and the server still answers.
        assert_eq!(pool.live_workers(), workers_before, "a worker died");
        let mut clean = Client::connect(addr).unwrap();
        assert_eq!(clean.count(&patterns[0]).unwrap().count, baselines[0]);
        drop(clean);
        handle.shutdown();
        serving.join().unwrap();
    });
}

/// A query slow enough to hold the single job slot while other clients
/// pile up behind it.
fn slow_count(client: &mut Client) -> u64 {
    client
        .count_with(
            &prefab::cycle_6_tri(),
            RemoteCountOptions {
                no_iep: true,
                ..RemoteCountOptions::default()
            },
        )
        .unwrap()
        .count
}

#[test]
fn overload_sheds_with_typed_retry_later_and_hint() {
    // Big enough that the slot-holding query runs for hundreds of
    // milliseconds — the saturation window the assertions below probe is
    // wide, not a race.
    let engine = GraphPi::new(generators::power_law(500, 8, 17));
    let baseline = {
        let session = engine.session();
        session.count(&prefab::house()).unwrap()
    };
    // One job slot, one wait-queue slot: the third concurrent query must
    // be shed, not queued and not disconnected.
    let pool = Arc::new(WorkerPool::with_max_in_flight(2, 1));
    let cache = Arc::new(PlanCache::new(8));
    let server = Server::bind_shared(
        "127.0.0.1:0",
        Arc::clone(&pool),
        cache,
        ServeOptions {
            max_queue_depth: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let handle = server.handle().unwrap();
    let addr = handle.addr();

    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine).unwrap());

        // Occupy the slot, then park one waiter in the queue.
        let slot = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            slow_count(&mut client)
        });
        std::thread::sleep(Duration::from_millis(40));
        let queued = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            slow_count(&mut client)
        });
        std::thread::sleep(Duration::from_millis(40));

        // While saturated: HEALTH reports overloaded with a hint, STATS
        // shows the queue never exceeding its bound, and a fresh COUNT is
        // shed with the typed error — on a connection that stays alive.
        let mut shed = Client::connect(addr).unwrap();
        let health = shed.health().unwrap();
        assert_eq!(health.state, HealthState::Overloaded);
        assert!(health.retry_after_ms > 0, "overload must carry a hint");
        let stats = shed.stats().unwrap();
        assert!(stats.queued <= 1, "queue depth exceeded its bound");

        let error = shed.count(&prefab::house()).unwrap_err();
        let hint = match error {
            NetError::Remote {
                code: ErrorCode::RetryLater,
                retry_after_ms,
                ..
            } => retry_after_ms.expect("v2 RETRY_LATER must carry a retry-after hint"),
            other => panic!("expected RetryLater, got {other}"),
        };
        assert!(hint > 0);
        // The shed connection is still serviceable.
        shed.ping().unwrap();

        // Honoring the hint (with the retrying client) eventually lands
        // the query; nobody is lost, every answer is bit-identical.
        let mut patient = Client::with_endpoints(
            vec![addr],
            RetryPolicy {
                max_attempts: 200,
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(10),
                ..RetryPolicy::default()
            }
            .with_seed(7),
        );
        assert_eq!(patient.count(&prefab::house()).unwrap().count, baseline);
        let retry_stats = patient.counters();
        assert!(
            retry_stats.hints_honored > 0,
            "the retrying client should have waited on at least one server hint"
        );

        assert!(slot.join().unwrap() > 0);
        assert!(queued.join().unwrap() > 0);

        let stats = shed.stats().unwrap();
        assert!(stats.overload_rejections >= 1);
        assert_eq!(stats.queued, 0, "queue must drain completely");
        // Shed queries never executed: plan-cache accounting reconciles.
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.queries_total);

        drop(shed);
        handle.shutdown();
        serving.join().unwrap();
    });
}

#[test]
fn health_reports_ready_on_an_idle_server() {
    let engine = GraphPi::new(generators::power_law(120, 5, 5));
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let handle = server.handle().unwrap();
    let addr = handle.addr();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine).unwrap());
        let mut client = Client::connect(addr).unwrap();
        let health = client.health().unwrap();
        assert_eq!(health.state, HealthState::Ready);
        assert_eq!(health.retry_after_ms, 0, "ready needs no backoff hint");
        drop(client);
        handle.shutdown();
        serving.join().unwrap();
    });
}

#[test]
fn other_protocol_versions_are_refused_loudly() {
    let engine = GraphPi::new(generators::power_law(160, 5, 91));
    let baseline = {
        let session = engine.session();
        session.count(&prefab::triangle()).unwrap()
    };
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let handle = server.handle().unwrap();
    let addr = handle.addr();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine).unwrap());

        // The retired v1 and a future v3: each frame earns exactly one
        // typed UNSUPPORTED_VERSION error and a closed connection, and is
        // counted — nothing is served down-version.
        for (refused, version) in [(1u64, 1u8), (2, 3)] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut ping = Frame::new(op::PING, vec![7]).encode();
            ping[6] = version;
            stream.write_all(&ping).unwrap();
            let reply = protocol::read_frame(&mut stream).unwrap();
            assert_eq!(reply.opcode, op::ERROR);
            let error = WireError::decode(&reply.payload).unwrap();
            assert_eq!(error.code, ErrorCode::UnsupportedVersion);
            assert_eq!(stream.read(&mut [0u8; 1]).unwrap_or(0), 0, "still open");

            // The next v2 client is served as if nothing happened.
            let mut client = Client::connect(addr).unwrap();
            assert_eq!(client.count(&prefab::triangle()).unwrap().count, baseline);
            assert_eq!(client.stats().unwrap().protocol_errors, refused);
        }

        handle.shutdown();
        serving.join().unwrap();
    });
}

/// A `Transport` that replays a script: every `recv` pops the next scripted
/// outcome, every `send` is recorded. All connections dialed by one client
/// share the script, so it reads as the client's whole conversation.
#[derive(Clone, Default)]
struct Scripted {
    replies: Arc<Mutex<VecDeque<Result<Frame, NetError>>>>,
    sent: Arc<Mutex<Vec<Frame>>>,
}

impl Transport for Scripted {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.sent.lock().unwrap().push(frame.clone());
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        let next = self.replies.lock().unwrap().pop_front();
        next.expect("the client read past the end of the script")
    }
}

/// A retrying client over `script`, with a fast deterministic backoff.
fn scripted_client(script: Vec<Result<Frame, NetError>>) -> (Client, Scripted) {
    let transport = Scripted::default();
    transport.replies.lock().unwrap().extend(script);
    let dialed = transport.clone();
    let client = Client::with_connector(
        vec![SocketAddr::from(([127, 0, 0, 1], 0))],
        move |_| Ok(Box::new(dialed.clone()) as Box<dyn Transport + Send>),
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        },
    );
    (client, transport)
}

fn triangle_page(last: bool, vertices: Vec<u32>) -> Result<Frame, NetError> {
    let page = EnumPage {
        last,
        pattern_size: 3,
        vertices,
    };
    Ok(Frame::new(op::ENUM_PAGE, page.encode()))
}

#[test]
fn enumerations_are_retried_only_while_zero_pages_arrived() {
    // The connection dies before the first page: nothing of the stream
    // was seen, so the enumeration is safely re-issued on a fresh dial.
    let (mut client, transport) = scripted_client(vec![
        Err(NetError::Closed),
        triangle_page(false, vec![0, 1, 2]),
        triangle_page(true, vec![3, 4, 5]),
    ]);
    let result = client.enumerate(&prefab::triangle(), 10).unwrap();
    assert_eq!(result.embeddings, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    assert_eq!(result.pages, 2);
    let stats = client.counters();
    assert_eq!((stats.attempts, stats.retries, stats.connects), (2, 1, 2));
    assert_eq!(transport.sent.lock().unwrap().len(), 2);

    // One page in, the same failure is final: re-running could interleave
    // a second stream with the page already delivered.
    let (mut client, transport) = scripted_client(vec![
        triangle_page(false, vec![0, 1, 2]),
        Err(NetError::Closed),
    ]);
    let error = client.enumerate(&prefab::triangle(), 10).unwrap_err();
    assert!(matches!(error, NetError::Closed), "got {error}");
    let stats = client.counters();
    assert_eq!((stats.attempts, stats.retries), (1, 0));
    assert_eq!(transport.sent.lock().unwrap().len(), 1);
}

#[test]
fn page_streams_past_the_limit_are_refused() {
    // Two embeddings against a limit of one: no honest server sends that,
    // so the client stops reading instead of growing the result.
    let (mut client, transport) =
        scripted_client(vec![triangle_page(false, vec![0, 1, 2, 3, 4, 5])]);
    let error = client.enumerate(&prefab::triangle(), 1).unwrap_err();
    assert!(matches!(error, NetError::Protocol(_)), "got {error}");
    let stats = client.counters();
    assert_eq!((stats.attempts, stats.retries), (1, 0));
    assert_eq!(transport.sent.lock().unwrap().len(), 1);
}

#[test]
fn empty_pages_before_the_last_are_refused() {
    // An empty page that is not the last could repeat forever; the
    // first one ends the stream with a protocol error.
    let (mut client, transport) = scripted_client(vec![
        triangle_page(false, vec![0, 1, 2]),
        triangle_page(false, vec![]),
    ]);
    let error = client.enumerate(&prefab::triangle(), 10).unwrap_err();
    assert!(matches!(error, NetError::Protocol(_)), "got {error}");
    let stats = client.counters();
    assert_eq!((stats.attempts, stats.retries), (1, 0));
    assert_eq!(transport.sent.lock().unwrap().len(), 1);
}

#[test]
fn shed_enumerations_honour_the_hint_and_keep_the_connection() {
    // Shed, then served: the retry waits out the server's retry-after hint
    // (far above the 1-2 ms backoff) on the connection it already has —
    // RETRY_LATER leaves the stream in sync — exactly as a count does.
    let shed = WireError::new(ErrorCode::RetryLater, "admission queue is full");
    let (mut client, transport) = scripted_client(vec![
        Ok(shed.with_retry_after(30).into()),
        triangle_page(true, vec![0, 1, 2]),
    ]);
    let started = std::time::Instant::now();
    let result = client.enumerate(&prefab::triangle(), 10).unwrap();
    assert!(started.elapsed() >= Duration::from_millis(30));
    assert_eq!(result.embeddings, vec![vec![0, 1, 2]]);
    let stats = client.counters();
    assert_eq!(stats.hints_honored, 1);
    assert_eq!(stats.connects, 1, "RETRY_LATER must not cost a redial");
    assert_eq!((stats.attempts, stats.retries), (2, 1));
    let sent = transport.sent.lock().unwrap();
    assert_eq!(sent.len(), 2);
    assert_eq!(sent[0], sent[1], "the retry resends the same request");
}
