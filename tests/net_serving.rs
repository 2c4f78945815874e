//! Network serving end-to-end: multi-client counts over real sockets must
//! be bit-identical to in-process execution, server stats must reconcile
//! (hits + misses == queries), deadlines must produce typed
//! `DeadlineExceeded` errors without disturbing other clients, and graceful
//! shutdown must drain in-flight queries and reject new connections.

use graphpi::core::config::ServeOptions;
use graphpi::core::engine::{GraphPi, PlanCache};
use graphpi::core::exec::pool::WorkerPool;
use graphpi::core::net::client::is_deadline_exceeded;
use graphpi::core::net::protocol::{op, CountOk, CountRequest, Frame, UpdateOk, UpdateRequest};
use graphpi::core::net::ServerHandle;
use graphpi::core::net::{Client, QueryMode, RemoteCountOptions, Server};
use graphpi::graph::generators;
use graphpi::pattern::prefab;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Sets the drain flag when dropped. Scoped to every `thread::scope` body
/// below so a failed assertion unwinds cleanly: without it the scope's
/// implicit join would wait forever on the still-serving accept loop and
/// the panic message would never surface.
struct DrainOnDrop(ServerHandle);

impl Drop for DrainOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// A query slow enough (tens of milliseconds at tier-1 sizes) to still be
/// running while other clients act: 6-cycle-with-triangles, enumerated
/// without IEP.
fn slow_options() -> RemoteCountOptions {
    RemoteCountOptions {
        no_iep: true,
        ..RemoteCountOptions::default()
    }
}

fn slow_pattern() -> graphpi::pattern::Pattern {
    prefab::cycle_6_tri()
}

#[test]
fn multi_client_counts_match_in_process_execution_and_stats_reconcile() {
    let engine = GraphPi::new(generators::power_law(160, 5, 91));
    let patterns: Vec<_> = prefab::evaluation_patterns().into_iter().take(3).collect();
    // In-process baselines through a Session — the same execution options
    // the server uses, so "bit-identical" is a real claim.
    let baselines: Vec<u64> = {
        let session = engine.session();
        patterns
            .iter()
            .map(|(_, p)| session.count(p).unwrap())
            .collect()
    };

    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let handle = server.handle().unwrap();
    let addr = handle.addr();
    const CLIENTS: usize = 4;
    const REPEAT: usize = 2;

    let report = std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine).unwrap());
        let workers: Vec<_> = (0..CLIENTS)
            .map(|client_index| {
                let patterns = &patterns;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut observed = Vec::new();
                    for _ in 0..REPEAT {
                        for (name, pattern) in patterns.iter() {
                            let result = client
                                .count(pattern)
                                .unwrap_or_else(|e| panic!("client {client_index} {name}: {e}"));
                            observed.push(result.count);
                        }
                    }
                    observed
                })
            })
            .collect();
        for worker in workers {
            let observed = worker.join().unwrap();
            for (slot, &count) in observed.iter().enumerate() {
                assert_eq!(
                    count,
                    baselines[slot % patterns.len()],
                    "remote count diverged from in-process execution"
                );
            }
        }

        // Aggregate accounting, read over the wire.
        let mut client = Client::connect(addr).unwrap();
        let stats = client.stats().unwrap();
        let queries = (CLIENTS * REPEAT * patterns.len()) as u64;
        assert_eq!(stats.queries_total, queries);
        assert_eq!(stats.warm_started, 0);
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            stats.queries_total,
            "plan-cache counters must reconcile with executed queries"
        );
        // Every pattern planned at least once; concurrent first-round
        // clients may race a plan for the same pattern, so the exact miss
        // count is bounded, not fixed.
        assert!(stats.cache_misses >= patterns.len() as u64);
        assert!(stats.cache_misses <= (CLIENTS * patterns.len()) as u64);
        assert_eq!(stats.latency.total(), queries);
        assert_eq!(stats.deadline_exceeded, 0);
        assert!(stats.live_workers > 0);

        drop(client);
        handle.shutdown();
        serving.join().unwrap()
    });
    assert_eq!(report.queries, (CLIENTS * REPEAT * patterns.len()) as u64);
}

#[test]
fn deadline_exceeded_while_queued_leaves_other_clients_bit_identical() {
    let engine = GraphPi::new(generators::power_law(260, 6, 17));
    let baseline = {
        let session = engine.session();
        session.count(&prefab::house()).unwrap()
    };
    // One job slot: the slow query occupies it, so the deadline client
    // expires while *queued* — true cancellation, its query never runs.
    let pool = Arc::new(WorkerPool::with_max_in_flight(2, 1));
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

        let slow = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.count_with(&slow_pattern(), slow_options()).unwrap()
        });
        // Give the slow query time to be admitted, then race a 1 ms
        // deadline against it from a second connection.
        std::thread::sleep(Duration::from_millis(30));
        let mut deadline_client = Client::connect(addr).unwrap();
        let error = deadline_client
            .count_with(
                &prefab::house(),
                RemoteCountOptions {
                    deadline_ms: 1,
                    ..RemoteCountOptions::default()
                },
            )
            .unwrap_err();
        assert!(
            is_deadline_exceeded(&error),
            "expected DeadlineExceeded, got {error}"
        );
        // The connection survives a deadline error...
        deadline_client.ping().unwrap();

        // ...the slow client is undisturbed...
        let slow_result = slow.join().unwrap();
        assert!(slow_result.count > 0);

        // ...and a fresh query still matches in-process execution exactly.
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.count(&prefab::house()).unwrap().count, baseline);

        let stats = client.stats().unwrap();
        assert!(stats.deadline_exceeded >= 1);
        // The cancelled query never executed: accounting still reconciles.
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.queries_total);
        assert_eq!(stats.live_workers as usize, pool.live_workers());

        drop(client);
        drop(deadline_client);
        handle.shutdown();
        serving.join().unwrap();
    });
}

#[test]
fn impossible_deadline_on_an_executed_query_is_reported() {
    // With a free slot the query is admitted instantly, executes, and only
    // then trips its (long-expired) deadline: the reply must still be a
    // typed DeadlineExceeded, not a stale success.
    let engine = GraphPi::new(generators::power_law(260, 6, 18));
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let handle = server.handle().unwrap();
    let addr = handle.addr();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine).unwrap());
        let mut client = Client::connect(addr).unwrap();
        let error = client
            .count_with(
                &slow_pattern(),
                RemoteCountOptions {
                    deadline_ms: 1,
                    ..slow_options()
                },
            )
            .unwrap_err();
        assert!(
            is_deadline_exceeded(&error),
            "expected DeadlineExceeded, got {error}"
        );
        client.ping().unwrap();
        drop(client);
        handle.shutdown();
        serving.join().unwrap();
    });
}

#[test]
fn graceful_shutdown_drains_in_flight_queries_and_rejects_new_connections() {
    let engine = GraphPi::new(generators::power_law(260, 6, 19));
    let baseline = {
        let session = engine.session();
        session
            .count_with(
                &slow_pattern(),
                graphpi::core::engine::CountOptions {
                    use_iep: false,
                    ..Default::default()
                },
            )
            .unwrap()
    };
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let handle = server.handle().unwrap();
    let addr = handle.addr();

    let report = std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine).unwrap());
        // Start a slow query, then request shutdown while it is (very
        // likely) still in flight. Drain semantics guarantee its reply
        // arrives complete and correct either way.
        let in_flight = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.count_with(&slow_pattern(), slow_options()).unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        let mut admin = Client::connect(addr).unwrap();
        admin.shutdown_server().unwrap();

        let drained = in_flight.join().unwrap();
        assert_eq!(drained.count, baseline, "drained query lost its answer");
        serving.join().unwrap()
    });
    assert!(report.connections >= 2);

    // The listener is gone: new connections are refused at the OS level.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    assert!(refused.is_err(), "a drained server accepted a connection");
}

#[test]
fn connection_limit_is_enforced_with_a_typed_error() {
    let engine = GraphPi::new(generators::power_law(120, 5, 5));
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            max_connections: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let handle = server.handle().unwrap();
    let addr = handle.addr();
    std::thread::scope(|scope| {
        let _drain = DrainOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine).unwrap());
        let mut first = Client::connect(addr).unwrap();
        first.ping().unwrap(); // the slot is definitely taken
        let mut second = Client::connect(addr).unwrap();
        let error = second.ping().unwrap_err();
        assert!(matches!(
            error,
            graphpi::core::net::NetError::Remote {
                code: graphpi::core::net::ErrorCode::TooManyConnections,
                ..
            }
        ));
        // The admitted client is unaffected.
        first.ping().unwrap();
        drop(first);
        drop(second);
        handle.shutdown();
        serving.join().unwrap();
    });
}

/// The traffic the perf ledger drives: a `Client::connect` client that has
/// not written sends every request untagged and unfloored — on the wire,
/// byte for byte the frame its options describe with `request_id: 0` and
/// `min_generation: 0`.
#[test]
fn connect_clients_send_untagged_unfloored_frames() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let triangle = prefab::triangle();
    let count = |mode| CountRequest {
        no_iep: false,
        hub_bitsets: false,
        deadline_ms: 0,
        request_id: 0,
        min_generation: 0,
        mode,
        pattern: triangle.canonical_bytes(),
    };
    let sample = QueryMode::sample(7, 0.5);
    let update = UpdateRequest {
        deadline_ms: 0,
        request_id: 0,
        inserts: vec![(0, 1)],
        deletes: vec![(1, 2)],
    };
    let expected = [
        Frame::new(op::COUNT, count(QueryMode::Count).encode()),
        Frame::new(op::COUNT, count(QueryMode::Orbit).encode()),
        Frame::new(op::COUNT, count(sample).encode()),
        Frame::new(op::UPDATE, update.encode()),
    ];
    let counted = Frame::new(op::COUNT_OK, CountOk::new(1, 0).encode());
    let committed = UpdateOk {
        generation: 1,
        inserted: 1,
        deleted: 1,
    };
    let committed = Frame::new(op::UPDATE_OK, committed.encode());
    let replies = [counted.clone(), counted.clone(), counted, committed];

    // A bare socket in place of the server: it records each request's raw
    // bytes (length prefix included) and answers with a canned reply.
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut received = Vec::new();
        for reply in replies {
            let mut raw = vec![0u8; 4];
            stream.read_exact(&mut raw).unwrap();
            let len = u32::from_le_bytes(raw[..4].try_into().unwrap()) as usize;
            raw.resize(4 + len, 0);
            stream.read_exact(&mut raw[4..]).unwrap();
            received.push(raw);
            stream.write_all(&reply.encode()).unwrap();
        }
        received
    });

    let mut client = Client::connect(addr).unwrap();
    client.count(&triangle).unwrap();
    for mode in [QueryMode::Orbit, sample] {
        let options = RemoteCountOptions {
            mode,
            ..RemoteCountOptions::default()
        };
        client.count_with(&triangle, options).unwrap();
    }
    client.update(&[(0, 1)], &[(1, 2)]).unwrap();
    let received = peer.join().unwrap();
    assert_eq!(received.len(), expected.len());
    for (raw, frame) in received.iter().zip(&expected) {
        assert_eq!(raw, &frame.encode(), "opcode {:#x}", frame.opcode);
    }
}
