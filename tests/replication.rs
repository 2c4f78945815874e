//! Replication & failover end to end, in process: a WAL-backed primary
//! fans committed records out to a replica applying them through its own
//! durable engine, a failover-aware client routes writes through
//! `NOT_PRIMARY` redirects and spreads guarded reads, a chaos proxy
//! between the pair tears the stream mid-batch and the replica still
//! converges bit-identically, and an explicit promotion seals the stream
//! and flips the replica to a write-accepting primary with no generation
//! gap.

use graphpi::core::config::ServeOptions;
use graphpi::core::net::{ChaosConfig, ChaosProxy};
use graphpi::core::net::{
    Client, ErrorCode, NetError, RemoteCountOptions, RemoteUpdateOptions, ReplRole, ReplState,
    RetryPolicy, Server, ServerHandle,
};
use graphpi::core::DynamicEngine;
use graphpi::graph::generators;
use graphpi::graph::DurableGraphOptions;
use graphpi::pattern::prefab;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const N: u32 = 110;

/// Unique-per-test temp dir (shared machines run suites concurrently).
fn temp_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("graphpi_repl_{label}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Opens a fresh durable engine over the shared base graph.
fn durable_engine(dir: &std::path::Path, name: &str) -> DynamicEngine {
    let wal = dir.join(name);
    std::fs::remove_file(&wal).ok();
    let mut ckpt = wal.as_os_str().to_os_string();
    ckpt.push(".ckpt");
    std::fs::remove_file(std::path::PathBuf::from(ckpt)).ok();
    let (engine, _) = DynamicEngine::durable(
        generators::power_law(N as usize, 4, 97),
        &wal,
        DurableGraphOptions::default(),
    )
    .unwrap();
    engine
}

type EdgeList = Vec<(u32, u32)>;

/// The deterministic mutation sequence every test commits: inserts and
/// deletes biased toward hubs so pattern counts really move.
fn round_ops(round: u32) -> (EdgeList, EdgeList) {
    let inserts = (0..4)
        .map(|k| {
            let u = (round * 5 + k) % N;
            (u, (u * 7 + 11 + round) % N)
        })
        .collect();
    let deletes = (0..2)
        .map(|k| {
            let u = (round * 3 + k + 1) % N;
            (u, (u + 1 + round) % N)
        })
        .collect();
    (inserts, deletes)
}

/// Spins until `predicate` holds or the deadline passes.
fn wait_until(what: &str, deadline: Duration, mut predicate: impl FnMut() -> bool) {
    let start = Instant::now();
    while !predicate() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        initial_backoff: Duration::from_millis(5),
        ..RetryPolicy::default()
    }
}

#[test]
fn failover_client_and_replica_serve_guarded_reads() {
    let dir = temp_dir("e2e");
    let primary_engine = durable_engine(&dir, "primary.wal");
    let replica_engine = durable_engine(&dir, "replica.wal");
    let pattern = prefab::triangle();

    let primary_server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let primary_addr = primary_server.local_addr().unwrap();
    let primary_handle = primary_server.handle().unwrap();
    let replica_server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let replica_addr = replica_server.local_addr().unwrap();
    let replica_handle = replica_server.handle().unwrap();

    let repl = ReplState::replica(&primary_addr.to_string());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let primary_serving = scope.spawn(|| primary_server.serve_dynamic(&primary_engine));
        let replica_repl = std::sync::Arc::clone(&repl);
        let replica_serving =
            scope.spawn(|| replica_server.serve_dynamic_with_repl(&replica_engine, replica_repl));
        let apply_loop = scope.spawn(|| {
            graphpi::core::net::run_replication(primary_addr, &replica_engine, &repl, &stop)
        });

        // The replica comes first in the endpoint list, so the very
        // first write exercises the NOT_PRIMARY redirect.
        let mut client = Client::with_endpoints(vec![replica_addr, primary_addr], retry_policy());
        const ROUNDS: u32 = 6;
        for round in 0..ROUNDS {
            let (inserts, deletes) = round_ops(round);
            let ok = client.update(&inserts, &deletes).unwrap();
            assert_eq!(ok.generation, u64::from(round) + 1);
        }
        assert_eq!(client.last_write_generation(), u64::from(ROUNDS));
        assert_eq!(client.primary_endpoint(), primary_addr);
        assert!(
            client.counters().redirects >= 1,
            "the first write must have followed a NOT_PRIMARY redirect: {:?}",
            client.counters()
        );

        // Read-your-writes: every read is guarded at the committed
        // generation, so the replica answers only once caught up — and
        // then bit-identically to the primary.
        let expected = Client::connect(primary_addr)
            .unwrap()
            .count(&pattern)
            .unwrap()
            .count;
        for query in 0..6 {
            if query > 0 {
                client.rotate_reads();
            }
            assert_eq!(client.count(&pattern).unwrap().count, expected);
        }
        let reads = &client.counters().reads_per_endpoint;
        assert_eq!(reads.iter().sum::<u64>(), 6);
        assert!(
            reads.iter().all(|&per_endpoint| per_endpoint > 0),
            "round-robin reads must touch every endpoint: {reads:?}"
        );

        // Health tells the truth about roles, and the replica names its
        // primary when refusing a direct write.
        let health = Client::connect(replica_addr).unwrap().health().unwrap();
        assert_eq!(health.role, ReplRole::Replica);
        let health = Client::connect(primary_addr).unwrap().health().unwrap();
        assert_eq!(health.role, ReplRole::Primary);
        let error = Client::connect(replica_addr)
            .unwrap()
            .update_with(&[(0, 1)], &[], RemoteUpdateOptions::default())
            .unwrap_err();
        match error {
            NetError::Remote { code, message, .. } => {
                assert_eq!(code, ErrorCode::NotPrimary);
                assert_eq!(message, primary_addr.to_string());
            }
            other => panic!("expected NOT_PRIMARY, got {other:?}"),
        }
        // The v2 stats snapshot carries the same role.
        let stats = Client::connect(replica_addr).unwrap().stats().unwrap();
        assert_eq!(stats.repl_role, ReplRole::Replica);
        stop.store(true, Ordering::Release);
        primary_handle.shutdown();
        replica_handle.shutdown();
        primary_serving.join().unwrap().unwrap();
        replica_serving.join().unwrap().unwrap();
        apply_loop.join().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lagging_replica_honors_generation_floors() {
    let dir = temp_dir("floor");
    let primary_engine = durable_engine(&dir, "primary.wal");
    let replica_engine = durable_engine(&dir, "replica.wal");
    let pattern = prefab::triangle();

    let primary_server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let primary_addr = primary_server.local_addr().unwrap();
    let primary_handle = primary_server.handle().unwrap();
    let replica_server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let replica_addr = replica_server.local_addr().unwrap();
    let replica_handle = replica_server.handle().unwrap();

    let repl = ReplState::replica(&primary_addr.to_string());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let primary_serving = scope.spawn(|| primary_server.serve_dynamic(&primary_engine));
        let replica_repl = std::sync::Arc::clone(&repl);
        let replica_serving =
            scope.spawn(|| replica_server.serve_dynamic_with_repl(&replica_engine, replica_repl));

        // Commit to generation 3 on the primary while the replica's
        // apply loop is deliberately NOT running: the replica lags.
        let mut writer = Client::connect(primary_addr).unwrap();
        for round in 0..3 {
            let (inserts, deletes) = round_ops(round);
            writer
                .update_with(&inserts, &deletes, RemoteUpdateOptions::default())
                .unwrap();
        }
        assert_eq!(primary_engine.generation(), 3);
        assert_eq!(replica_engine.generation(), 0);

        // A floored read on the lagging replica sheds with RETRY_LATER
        // (plus a usable hint) instead of serving stale data...
        let floored = RemoteCountOptions {
            min_generation: 3,
            ..RemoteCountOptions::default()
        };
        let error = Client::connect(replica_addr)
            .unwrap()
            .count_with(&pattern, floored)
            .unwrap_err();
        match error {
            NetError::Remote {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, ErrorCode::RetryLater);
                assert!(retry_after_ms.is_some(), "the shed must carry a hint");
            }
            other => panic!("expected RETRY_LATER, got {other:?}"),
        }
        // ...while an unfloored read happily serves the stale snapshot.
        let stale = Client::connect(replica_addr)
            .unwrap()
            .count(&pattern)
            .unwrap()
            .count;
        let fresh = Client::connect(primary_addr)
            .unwrap()
            .count(&pattern)
            .unwrap()
            .count;
        assert_ne!(stale, fresh, "the mutation sequence must move the count");

        // Start replication; once the replica catches up, the same
        // floored read succeeds and matches the primary bit-identically.
        let apply_loop = scope.spawn(|| {
            graphpi::core::net::run_replication(primary_addr, &replica_engine, &repl, &stop)
        });
        wait_until("replica catch-up", Duration::from_secs(20), || {
            replica_engine.generation() == 3
        });
        let caught_up = Client::connect(replica_addr)
            .unwrap()
            .count_with(&pattern, floored)
            .unwrap();
        assert_eq!(caught_up.count, fresh);
        // Lag reporting drops back to zero in HEALTH.
        let health = Client::connect(replica_addr).unwrap().health().unwrap();
        assert_eq!(health.replication_lag, 0);

        stop.store(true, Ordering::Release);
        primary_handle.shutdown();
        replica_handle.shutdown();
        primary_serving.join().unwrap().unwrap();
        replica_serving.join().unwrap().unwrap();
        apply_loop.join().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_streams_resume_and_converge_bit_identically() {
    let dir = temp_dir("torn");
    let primary_engine = durable_engine(&dir, "primary.wal");
    let replica_engine = durable_engine(&dir, "replica.wal");
    let pattern = prefab::house();

    let primary_server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let primary_addr = primary_server.local_addr().unwrap();
    let primary_handle = primary_server.handle().unwrap();

    // An aggressive byte-level chaos proxy between replica and primary:
    // stalls, mid-frame truncations (which kill the pair), resets.
    let proxy = ChaosProxy::bind(
        "127.0.0.1:0",
        primary_addr,
        ChaosConfig {
            seed: 0xBAD_5EED,
            stall_per_mille: 60,
            stall_ms: 1,
            reset_per_mille: 60,
            partial_write_per_mille: 60,
            ..ChaosConfig::default()
        },
    )
    .unwrap();
    let proxy_addr: SocketAddr = proxy.local_addr().unwrap();
    // The proxy serves until the process exits; its accept thread is
    // deliberately detached, like the standalone binary it mirrors.
    std::thread::spawn(move || proxy.run());

    let repl = ReplState::replica(&primary_addr.to_string());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let primary_serving = scope.spawn(|| primary_server.serve_dynamic(&primary_engine));

        // Deterministic torn subscription first: subscribe raw, read one
        // REPL_BATCH, then vanish without acking — the primary must shrug
        // the dead subscriber off and serve the next one from scratch.
        {
            use graphpi::core::net::protocol::{op, Frame, ReplSubscribe};
            use graphpi::core::net::{TcpTransport, Transport};
            let (inserts, deletes) = round_ops(0);
            Client::connect(primary_addr)
                .unwrap()
                .update_with(&inserts, &deletes, RemoteUpdateOptions::default())
                .unwrap();
            let mut torn = TcpTransport::connect(primary_addr).unwrap();
            torn.send(&Frame::new(
                op::REPL_SUBSCRIBE,
                ReplSubscribe::default().encode(),
            ))
            .unwrap();
            let frame = torn.recv().unwrap();
            assert_eq!(frame.opcode, op::REPL_BATCH);
            drop(torn); // no ack: the stream is cut mid-exchange
        }

        let apply_loop = scope.spawn(|| {
            graphpi::core::net::run_replication(proxy_addr, &replica_engine, &repl, &stop)
        });

        // Commit a long mutation sequence while the chaos proxy mangles
        // the stream underneath the apply loop.
        let mut writer = Client::connect(primary_addr).unwrap();
        const ROUNDS: u32 = 24;
        for round in 1..ROUNDS {
            let (inserts, deletes) = round_ops(round);
            writer
                .update_with(&inserts, &deletes, RemoteUpdateOptions::default())
                .unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let target = primary_engine.generation();
        wait_until("chaos-path convergence", Duration::from_secs(60), || {
            replica_engine.generation() == target
        });

        // Bit-identical convergence: same generation, same counts on
        // multiple patterns.
        assert_eq!(replica_engine.generation(), primary_engine.generation());
        for pattern in [&pattern, &prefab::triangle(), &prefab::rectangle()] {
            assert_eq!(
                replica_engine.pin().engine().count(pattern).unwrap(),
                primary_engine.pin().engine().count(pattern).unwrap(),
            );
        }

        stop.store(true, Ordering::Release);
        let report = apply_loop.join().unwrap();
        assert!(
            report.batches_applied >= 1,
            "the stream applied through the chaos proxy: {report:?}"
        );
        primary_handle.shutdown();
        primary_serving.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn promotion_seals_the_stream_and_continues_the_generations() {
    let dir = temp_dir("promote");
    let primary_engine = durable_engine(&dir, "primary.wal");
    let replica_engine = durable_engine(&dir, "replica.wal");

    let primary_server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let primary_addr = primary_server.local_addr().unwrap();
    let primary_handle = primary_server.handle().unwrap();
    let replica_server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let replica_addr = replica_server.local_addr().unwrap();
    let replica_handle = replica_server.handle().unwrap();

    let repl = ReplState::replica(&primary_addr.to_string());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let primary_serving = scope.spawn(|| primary_server.serve_dynamic(&primary_engine));
        let replica_repl = std::sync::Arc::clone(&repl);
        let replica_serving =
            scope.spawn(|| replica_server.serve_dynamic_with_repl(&replica_engine, replica_repl));
        let apply_loop = scope.spawn(|| {
            graphpi::core::net::run_replication(primary_addr, &replica_engine, &repl, &stop)
        });

        // Commit, quiesce, wait for full catch-up (promotion with writes
        // in flight would strand them on the old primary).
        let mut writer = Client::connect(primary_addr).unwrap();
        const ROUNDS: u32 = 5;
        for round in 0..ROUNDS {
            let (inserts, deletes) = round_ops(round);
            writer
                .update_with(&inserts, &deletes, RemoteUpdateOptions::default())
                .unwrap();
        }
        wait_until("pre-promotion catch-up", Duration::from_secs(20), || {
            replica_engine.generation() == u64::from(ROUNDS)
        });

        // Promote over the wire. The reply carries the exact generation
        // the replica was promoted at: nothing lost, nothing invented.
        let ok = Client::connect(replica_addr).unwrap().promote().unwrap();
        assert_eq!(ok.generation, u64::from(ROUNDS));
        let report = apply_loop.join().unwrap();
        assert!(report.promoted, "the apply loop sealed and flipped");
        let health = Client::connect(replica_addr).unwrap().health().unwrap();
        assert_eq!(health.role, ReplRole::Primary);

        // The promoted server now accepts writes, continuing the
        // generation sequence without a gap.
        let ok = Client::connect(replica_addr)
            .unwrap()
            .update_with(&[(1, 3)], &[], RemoteUpdateOptions::default())
            .unwrap();
        assert_eq!(ok.generation, u64::from(ROUNDS) + 1);
        // Promoting a primary is idempotent at the protocol level.
        let again = Client::connect(replica_addr).unwrap().promote().unwrap();
        assert_eq!(again.generation, u64::from(ROUNDS) + 1);

        stop.store(true, Ordering::Release);
        primary_handle.shutdown();
        replica_handle.shutdown();
        primary_serving.join().unwrap().unwrap();
        replica_serving.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Sets the drain flag when dropped, so a failed assertion unwinds instead
/// of waiting forever on the accept loop.
struct DrainOnDrop(ServerHandle);

impl Drop for DrainOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// A read shed below its generation floor moves on to the next endpoint
/// rather than waiting out the lagging server's retry-after hint there:
/// the first endpoint is left at generation 0, the second has committed
/// one batch, and a read floored at generation 1 is answered by the
/// second.
#[test]
fn a_shed_read_moves_to_the_next_endpoint() {
    let lagging_engine = DynamicEngine::volatile(generators::power_law(N as usize, 4, 97));
    let current_engine = DynamicEngine::volatile(generators::power_law(N as usize, 4, 97));
    let pattern = prefab::triangle();

    let lagging_server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let lagging_addr = lagging_server.local_addr().unwrap();
    let lagging_handle = lagging_server.handle().unwrap();
    let current_server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let current_addr = current_server.local_addr().unwrap();
    let current_handle = current_server.handle().unwrap();

    std::thread::scope(|scope| {
        let drain = [DrainOnDrop(lagging_handle), DrainOnDrop(current_handle)];
        let lagging_serving = scope.spawn(|| lagging_server.serve_dynamic(&lagging_engine));
        let current_serving = scope.spawn(|| current_server.serve_dynamic(&current_engine));

        let (inserts, deletes) = round_ops(0);
        let mut writer = Client::connect(current_addr).unwrap();
        assert_eq!(writer.update(&inserts, &deletes).unwrap().generation, 1);
        let expected = writer.count(&pattern).unwrap().count;

        // Two attempts: the shed read, then the one that must land.
        let mut client = Client::with_endpoints(
            vec![lagging_addr, current_addr],
            RetryPolicy {
                max_attempts: 2,
                ..retry_policy()
            },
        );
        let floored = RemoteCountOptions {
            min_generation: 1,
            ..RemoteCountOptions::default()
        };
        assert_eq!(
            client.count_with(&pattern, floored).unwrap().count,
            expected
        );
        let counters = client.counters();
        assert_eq!(counters.reads_per_endpoint, vec![0, 1]);
        assert_eq!(
            counters.hints_honored, 0,
            "the lagging server's hint does not hold the read back"
        );

        drop(writer);
        drop(drain);
        lagging_serving.join().unwrap().unwrap();
        current_serving.join().unwrap().unwrap();
    });
}
