//! Protocol fault-injection suite: the frame codec must round-trip
//! arbitrary frames, never panic on arbitrary bytes, and a live server fed
//! malformed input — truncated frames, oversized length prefixes, wrong
//! magic/version, unknown opcodes, mid-frame disconnects — must answer
//! every case with a typed error or a clean connection drop while its
//! worker pool stays fully alive.

use graphpi::core::config::ServeOptions;
use graphpi::core::engine::{GraphPi, PlanCache};
use graphpi::core::exec::pool::WorkerPool;
use graphpi::core::net::protocol::{
    self, op, CountExt, CountOk, CountRequest, EnumPage, EnumerateRequest, ErrorCode, Frame,
    HealthOk, HealthState, LatencyHistogram, NetError, OrbitSummary, PromoteOk, QueryMode, ReplAck,
    ReplBatch, ReplPayload, ReplRole, ReplSubscribe, SampleSummary, StatsOk, UpdateOk,
    UpdateRequest, WireError, HISTOGRAM_BUCKETS, MAX_FRAME_LEN,
};
use graphpi::core::net::{Client, RetryPolicy};
use graphpi::graph::generators;
use graphpi::pattern::prefab;
use proptest::prelude::*;
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Codec properties (no sockets).
// ---------------------------------------------------------------------------

/// The raw material arbitrary payloads are built from: a stream of `u64`
/// words biased toward the extremes (0, 1, `u64::MAX`) that break careless
/// decode arithmetic.
struct Words<'a>(std::slice::Iter<'a, u64>);

/// Enough words for the hungriest payload (`StatsOk`: 51, `ReplBatch`: up
/// to 4 + 64).
const WORDS_PER_CASE: usize = 96;

impl Words<'_> {
    fn u64(&mut self) -> u64 {
        *self.0.next().expect("WORDS_PER_CASE is too small")
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn flag(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.u64() % bound
    }

    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.u64() as u8).collect()
    }

    fn pairs(&mut self, max_len: u64) -> Vec<(u32, u32)> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| (self.u32(), self.u32())).collect()
    }
}

/// One wire payload type, as the battery and the golden test see it.
trait Payload: Sized + PartialEq + std::fmt::Debug {
    /// Whether every encoding is refused at any other length: no trailing
    /// variable-length field, no optional tail. For these, strict prefixes
    /// and extensions must decode to `None`.
    const EXACT: bool;
    /// An arbitrary valid value.
    fn arbitrary(words: &mut Words<'_>) -> Self;
    /// One pinned value and the hex of the bytes the encoder produced for
    /// it before the codecs were rewritten over the cursor.
    fn golden() -> (Self, &'static str);
    fn to_wire(&self) -> Vec<u8>;
    fn from_wire(bytes: &[u8]) -> Option<Self>;
}

/// One row of the payload table.
struct PayloadRow {
    name: &'static str,
    battery: fn(&mut Words<'_>),
    golden: fn(),
}

const fn row<T: Payload>(name: &'static str) -> PayloadRow {
    PayloadRow {
        name,
        battery: battery::<T>,
        golden: golden::<T>,
    }
}

/// All thirteen payload types of the protocol.
const PAYLOADS: &[PayloadRow] = &[
    row::<CountRequest>("CountRequest"),
    row::<CountOk>("CountOk"),
    row::<EnumerateRequest>("EnumerateRequest"),
    row::<EnumPage>("EnumPage"),
    row::<UpdateRequest>("UpdateRequest"),
    row::<UpdateOk>("UpdateOk"),
    row::<HealthOk>("HealthOk"),
    row::<StatsOk>("StatsOk"),
    row::<ReplSubscribe>("ReplSubscribe"),
    row::<ReplBatch>("ReplBatch"),
    row::<ReplAck>("ReplAck"),
    row::<PromoteOk>("PromoteOk"),
    row::<WireError>("WireError"),
];

/// Whatever decodes must re-encode to the very bytes it came from: the
/// codecs are canonical, so a mangled payload is either refused or is a
/// *different valid* payload — never a silently reinterpreted one.
fn assert_refused_or_canonical<T: Payload>(bytes: &[u8], what: &str) {
    if let Some(value) = T::from_wire(bytes) {
        assert_eq!(value.to_wire(), bytes, "{what} decoded non-canonically");
    }
}

fn battery<T: Payload>(words: &mut Words<'_>) {
    let value = T::arbitrary(words);
    let bytes = value.to_wire();
    assert_eq!(T::from_wire(&bytes).as_ref(), Some(&value));
    // Every strict prefix and every one-byte extension.
    let mut extended = bytes.clone();
    extended.push(0);
    for filler in [0x00, 0x01, 0xEE] {
        *extended.last_mut().unwrap() = filler;
        assert_refused_or_canonical::<T>(&extended, "extension");
        assert!(!T::EXACT || T::from_wire(&extended).is_none());
    }
    for cut in 0..bytes.len() {
        assert_refused_or_canonical::<T>(&bytes[..cut], "prefix");
        assert!(!T::EXACT || T::from_wire(&bytes[..cut]).is_none(), "{cut}");
    }
    // Every single-bit flip (and the full inversion) of every byte.
    let mut mutated = bytes.clone();
    for at in 0..bytes.len() {
        for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
            mutated[at] = bytes[at] ^ mask;
            assert_refused_or_canonical::<T>(&mutated, "mutation");
        }
        mutated[at] = bytes[at];
    }
}

fn golden<T: Payload>() {
    let (value, hex) = T::golden();
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|at| u8::from_str_radix(&hex[at..at + 2], 16).unwrap())
        .collect();
    assert_eq!(value.to_wire(), bytes);
    assert_eq!(T::from_wire(&bytes), Some(value));
}

/// Implements [`Payload`] for a protocol type over its own
/// `encode`/`decode`.
macro_rules! payload {
    ($ty:ty, exact: $exact:expr, golden: $hex:expr => $golden:expr, arbitrary: |$w:ident| $arbitrary:expr) => {
        impl Payload for $ty {
            const EXACT: bool = $exact;
            fn arbitrary($w: &mut Words<'_>) -> Self {
                $arbitrary
            }
            fn golden() -> (Self, &'static str) {
                ($golden, $hex)
            }
            fn to_wire(&self) -> Vec<u8> {
                self.encode()
            }
            fn from_wire(bytes: &[u8]) -> Option<Self> {
                Self::decode(bytes)
            }
        }
    };
}

fn arbitrary_mode(w: &mut Words<'_>) -> QueryMode {
    match w.below(3) {
        0 => QueryMode::Count,
        1 => QueryMode::Orbit,
        _ => QueryMode::Sample {
            seed: w.u64(),
            rate_bits: w.u64(),
        },
    }
}

const TRIANGLE: [u8; 4] = [3, 0b110, 0b101, 0b011];

payload!(CountRequest, exact: false,
golden: concat!(
        "1f04030201181716151413121128272625242322210238373635343332310000",
        "00000000d03f03060503",
    ) => CountRequest {
    no_iep: true,
    hub_bitsets: true,
    deadline_ms: 0x0102_0304,
    request_id: 0x1112_1314_1516_1718,
    min_generation: 0x2122_2324_2526_2728,
    mode: QueryMode::Sample {
        seed: 0x3132_3334_3536_3738,
        rate_bits: 0.25f64.to_bits(),
    },
    pattern: TRIANGLE.to_vec(),
},
arbitrary: |w| CountRequest {
    no_iep: w.flag(),
    hub_bitsets: w.flag(),
    deadline_ms: w.u32(),
    request_id: w.u64(),
    min_generation: w.u64(),
    mode: arbitrary_mode(w),
    pattern: w.bytes(12),
});

payload!(CountOk, exact: false,
golden: concat!(
        "4847464544434241585756555453525101610000000000000062000000000000",
        "00630000000000000067666564",
    ) => CountOk {
    count: 0x4142_4344_4546_4748,
    elapsed_micros: 0x5152_5354_5556_5758,
    ext: CountExt::Orbit(OrbitSummary {
        sum: 0x61,
        nonzero_vertices: 0x62,
        max_count: 0x63,
        max_vertex: 0x6465_6667,
    }),
},
arbitrary: |w| CountOk {
    count: w.u64(),
    elapsed_micros: w.u64(),
    ext: match w.below(3) {
        0 => CountExt::None,
        1 => CountExt::Orbit(OrbitSummary {
            sum: w.u64(),
            nonzero_vertices: w.u64(),
            max_count: w.u64(),
            max_vertex: w.u32(),
        }),
        _ => CountExt::Sample(SampleSummary {
            estimate_bits: w.u64(),
            stderr_bits: w.u64(),
            sampled_tasks: w.u64(),
            total_tasks: w.u64(),
        }),
    },
});

payload!(EnumerateRequest, exact: false,
golden: "017473727188878685848382819493929103060503" => EnumerateRequest {
    hub_bitsets: true,
    deadline_ms: 0x7172_7374,
    limit: 0x8182_8384_8586_8788,
    page_size: 0x9192_9394,
    pattern: TRIANGLE.to_vec(),
},
arbitrary: |w| EnumerateRequest {
    hub_bitsets: w.flag(),
    deadline_ms: w.u32(),
    limit: w.u64().max(1),
    page_size: w.u32(),
    pattern: w.bytes(12),
});

payload!(EnumPage, exact: true,
golden: "0103000002000000010000000200000003000000a4a3a2a10800000007000000" => EnumPage {
    last: true,
    pattern_size: 3,
    vertices: vec![1, 2, 3, 0xA1A2_A3A4, 8, 7],
},
arbitrary: |w| {
    let pattern_size = 1 + w.below(8) as u8;
    let embeddings = w.below(5);
    EnumPage {
        last: w.flag(),
        pattern_size,
        vertices: (0..embeddings * u64::from(pattern_size))
            .map(|_| w.u32())
            .collect(),
    }
});

payload!(UpdateRequest, exact: true,
golden: concat!(
        "01b4b3b2b1c8c7c6c5c4c3c2c102000000010000000000000007000000ffffff",
        "ff010000000200000005000000",
    ) => UpdateRequest {
    deadline_ms: 0xB1B2_B3B4,
    request_id: 0xC1C2_C3C4_C5C6_C7C8,
    inserts: vec![(0, 7), (u32::MAX, 1)],
    deletes: vec![(2, 5)],
},
arbitrary: |w| UpdateRequest {
    deadline_ms: w.u32(),
    request_id: w.u64(),
    inserts: w.pairs(4),
    deletes: w.pairs(4),
});

payload!(UpdateOk, exact: true,
golden: "d8d7d6d5d4d3d2d1e4e3e2e1f4f3f2f1" => UpdateOk {
    generation: 0xD1D2_D3D4_D5D6_D7D8,
    inserted: 0xE1E2_E3E4,
    deleted: 0xF1F2_F3F4,
},
arbitrary: |w| UpdateOk {
    generation: w.u64(),
    inserted: w.u32(),
    deleted: w.u32(),
});

fn arbitrary_role(w: &mut Words<'_>) -> ReplRole {
    [ReplRole::Primary, ReplRole::Replica, ReplRole::Promoting][w.below(3) as usize]
}

payload!(HealthOk, exact: true,
golden: "020d0c0b0a012b2a1f1e1d1c1b1a" => HealthOk {
    state: HealthState::Overloaded,
    retry_after_ms: 0x0A0B_0C0D,
    role: ReplRole::Replica,
    replication_lag: 0x1A1B_1C1D_1E1F_2A2B,
},
arbitrary: |w| HealthOk {
    state: [HealthState::Ready, HealthState::Draining, HealthState::Overloaded]
        [w.below(3) as usize],
    retry_after_ms: w.u32(),
    role: arbitrary_role(w),
    replication_lag: w.u64(),
});

payload!(StatsOk, exact: true,
golden: concat!(
        "0100000002000000030000000400000005000000060000000700000001080000",
        "000000000209000000000000030a000000000000040b000000000000050c0000",
        "00000000060d000000000000070e000000000000080f00000000000001010101",
        "0101010102020202020202020303030303030303040404040404040405050505",
        "0505050506060606060606060707070707070707080808080808080809090909",
        "090909090a0a0a0a0a0a0a0a0b0b0b0b0b0b0b0b0c0c0c0c0c0c0c0c0d0d0d0d",
        "0d0d0d0d0e0e0e0e0e0e0e0e0f0f0f0f0f0f0f0f101010101010101011111111",
        "1111111112121212121212121313131313131313141414141414141415151515",
        "1515151516161616161616161717171717171717181818181818181819191919",
        "191919191a1a1a1a1a1a1a1a1b1b1b1b1b1b1b1b1c1c1c1c1c1c1c1c1d1d1d1d",
        "1d1d1d1d1e1e1e1e1e1e1e1e1f1f1f1f1f1f1f1f202020202020202009100000",
        "0000000002000000000000000a110000000000000b12000000000000",
    ) => {
    let mut latency = LatencyHistogram::default();
    for (i, bucket) in latency.buckets.iter_mut().enumerate() {
        *bucket = 0x0101_0101_0101_0101u64.wrapping_mul(i as u64 + 1);
    }
    StatsOk {
        live_workers: 1,
        max_in_flight: 2,
        in_flight: 3,
        queued: 4,
        cache_len: 5,
        cache_capacity: 6,
        warm_started: 7,
        connections_total: 0x0801,
        queries_total: 0x0902,
        deadline_exceeded: 0x0A03,
        protocol_errors: 0x0B04,
        cache_hits: 0x0C05,
        cache_misses: 0x0D06,
        cache_evictions: 0x0E07,
        overload_rejections: 0x0F08,
        latency,
        replication_lag: 0x1009,
        repl_role: ReplRole::Promoting,
        enumerations_total: 0x110A,
        pages_sent: 0x120B,
    }
},
arbitrary: |w| {
    let mut latency = LatencyHistogram::default();
    for bucket in latency.buckets.iter_mut() {
        *bucket = w.u64();
    }
    StatsOk {
        live_workers: w.u32(),
        max_in_flight: w.u32(),
        in_flight: w.u32(),
        queued: w.u32(),
        cache_len: w.u32(),
        cache_capacity: w.u32(),
        warm_started: w.u32(),
        connections_total: w.u64(),
        queries_total: w.u64(),
        deadline_exceeded: w.u64(),
        protocol_errors: w.u64(),
        cache_hits: w.u64(),
        cache_misses: w.u64(),
        cache_evictions: w.u64(),
        overload_rejections: w.u64(),
        latency,
        replication_lag: w.u64(),
        repl_role: arbitrary_role(w),
        enumerations_total: w.u64(),
        pages_sent: w.u64(),
    }
});

payload!(ReplSubscribe, exact: true,
golden: "003c3b3a2f2e2d2c2b4e4d4c4b4a3f3e3d" => ReplSubscribe {
    generation: 0x2B2C_2D2E_2F3A_3B3C,
    offset: 0x3D3E_3F4A_4B4C_4D4E,
},
arbitrary: |w| ReplSubscribe {
    generation: w.u64(),
    offset: w.u64(),
});

payload!(ReplBatch, exact: true,
golden: "036a5f5e5d5c5b5a4f7c7b7a6f6e6d6c6b8e8d8c8b8a7f7e7d05000000deadbeef00" => ReplBatch {
    payload: ReplPayload::Checkpoint { done: true },
    primary_generation: 0x4F5A_5B5C_5D5E_5F6A,
    generation: 0x6B6C_6D6E_6F7A_7B7C,
    next_offset: 0x7D7E_7F8A_8B8C_8D8E,
    bytes: vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00],
},
arbitrary: |w| ReplBatch {
    payload: match w.below(3) {
        0 => ReplPayload::Records,
        1 => ReplPayload::Checkpoint { done: false },
        _ => ReplPayload::Checkpoint { done: true },
    },
    primary_generation: w.u64(),
    generation: w.u64(),
    next_offset: w.u64(),
    bytes: w.bytes(64),
});

payload!(ReplAck, exact: true,
golden: "aa9f9e9d9c9b9a8fbcbbbaafaeadacab" => ReplAck {
    generation: 0x8F9A_9B9C_9D9E_9FAA,
    offset: 0xABAC_ADAE_AFBA_BBBC,
},
arbitrary: |w| ReplAck {
    generation: w.u64(),
    offset: w.u64(),
});

payload!(PromoteOk, exact: true,
golden: "cecdcccbcabfbebd" => PromoteOk {
    generation: 0xBDBE_BFCA_CBCC_CDCE,
},
arbitrary: |w| PromoteOk {
    generation: w.u64(),
});

payload!(WireError, exact: false,
golden: "0b07006275737920c3a9dcdbdacf" =>
    WireError::new(ErrorCode::RetryLater, "busy \u{e9}").with_retry_after(0xCFDA_DBDC),
arbitrary: |w| {
    let text: String = w.bytes(40).iter().map(|&b| char::from(32 + b % 95)).collect();
    let error = WireError::new(ErrorCode::from_code(w.u64() as u8), &text);
    if w.flag() {
        error.with_retry_after(w.u32())
    } else {
        error
    }
});

/// "Wire bytes unchanged" as a test: the vectors were captured from the
/// encoders as they stood before protocol v1 was retired and the codecs
/// moved onto the cursor (`STATS_OK`/`HEALTH_OK` in their full v2 layout).
#[test]
fn golden_vectors_pin_the_wire_bytes() {
    for row in PAYLOADS {
        println!("golden: {}", row.name);
        (row.golden)();
    }
    // The frame header: length prefix, magic, version byte 2, opcode.
    let frame = Frame::new(op::COUNT_OK, CountOk::new(9, 100).encode());
    let mut expected = vec![0x14, 0, 0, 0, b'G', b'P', 0x02, 0x81];
    expected.extend_from_slice(&CountOk::new(9, 100).encode());
    assert_eq!(frame.encode(), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → read_frame is the identity for every opcode and payload.
    #[test]
    fn frame_codec_round_trips(
        opcode in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..2048),
    ) {
        let frame = Frame::new(opcode, payload);
        let decoded = protocol::read_frame(&mut Cursor::new(frame.encode())).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// The reader never panics on arbitrary bytes — every outcome is a
    /// frame or a typed error.
    #[test]
    fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = protocol::read_frame(&mut Cursor::new(bytes));
    }

    /// Truncating a valid frame anywhere yields an error, never a frame
    /// and never a panic.
    #[test]
    fn truncated_frames_error(
        payload in proptest::collection::vec(0u8..=255, 0..64),
        cut_seed in 0usize..10_000,
    ) {
        let bytes = Frame::new(op::COUNT, payload).encode();
        let cut = cut_seed % bytes.len();
        if cut < bytes.len() {
            prop_assert!(protocol::read_frame(&mut Cursor::new(bytes[..cut].to_vec())).is_err());
        }
    }

    /// The one codec battery: every payload type, from an arbitrary
    /// value, through round-trip, truncation, extension and mutation.
    #[test]
    fn payload_codecs_survive_the_battery(
        words in proptest::collection::vec(
            (0u8..4, 0u64..=u64::MAX).prop_map(|(edge, raw)| match edge {
                0 => 0,
                1 => 1,
                2 => u64::MAX,
                _ => raw,
            }),
            WORDS_PER_CASE,
        ),
    ) {
        for row in PAYLOADS {
            (row.battery)(&mut Words(words.iter()));
        }
    }

    /// Every bucket boundary is exact: a sample at a bucket's floor lands
    /// in that bucket, one microsecond below it lands in the previous
    /// one, and the last bucket absorbs everything up to `u64::MAX`.
    #[test]
    fn histogram_bucket_boundaries_are_exact(index in 0usize..HISTOGRAM_BUCKETS) {
        let floor = LatencyHistogram::bucket_floor_micros(index);
        prop_assert_eq!(LatencyHistogram::bucket_index(floor), index);
        if index > 0 && index < HISTOGRAM_BUCKETS - 1 {
            prop_assert_eq!(LatencyHistogram::bucket_index(floor - 1), index - 1);
            let next_floor = LatencyHistogram::bucket_floor_micros(index + 1);
            prop_assert_eq!(LatencyHistogram::bucket_index(next_floor - 1), index);
        }
        prop_assert_eq!(LatencyHistogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    /// Recording into a full bucket saturates instead of wrapping, and a
    /// saturated histogram still aggregates without panicking.
    #[test]
    fn histogram_record_saturates_at_full_buckets(micros in 0u64..=u64::MAX) {
        let mut hist = LatencyHistogram::default();
        let bucket = LatencyHistogram::bucket_index(micros);
        hist.buckets[bucket] = u64::MAX;
        hist.record(micros);
        prop_assert_eq!(hist.buckets[bucket], u64::MAX);
        prop_assert_eq!(hist.total(), u64::MAX);
        prop_assert!(hist.percentile_upper_bound_micros(1.0).is_some());
    }

    /// Backoff schedules are a pure function of the policy: deterministic
    /// under a fixed seed, one wait per retry, and every jittered wait
    /// stays within [0.5x, 1.5x) of the capped exponential base.
    #[test]
    fn retry_backoff_schedules_are_deterministic_and_bounded(
        seed in 0u64..=u64::MAX,
        attempts in 1u32..12,
        initial_ms in 1u64..50,
        max_ms in 1u64..500,
    ) {
        let policy = RetryPolicy {
            max_attempts: attempts,
            initial_backoff: Duration::from_millis(initial_ms),
            max_backoff: Duration::from_millis(max_ms),
            ..RetryPolicy::default()
        }
        .with_seed(seed);
        let schedule = policy.backoff_schedule();
        prop_assert_eq!(schedule.len(), (attempts - 1) as usize);
        // Same policy, same seed: bit-identical schedule.
        prop_assert_eq!(&policy.backoff_schedule(), &schedule);
        for (retry, wait) in schedule.iter().enumerate() {
            let base = Duration::from_millis(initial_ms)
                .saturating_mul(1 << retry.min(20))
                .min(Duration::from_millis(max_ms));
            prop_assert!(
                *wait >= base / 2,
                "retry {} waited {:?}, below half of base {:?}", retry, wait, base
            );
            prop_assert!(
                *wait <= base * 3 / 2,
                "retry {} waited {:?}, above 1.5x base {:?}", retry, wait, base
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Live-server fault battery.
// ---------------------------------------------------------------------------

/// Starts a server over a small power-law graph, hands the test body the
/// address and the pool (so it can watch `live_workers`), then drains.
fn with_server(body: impl FnOnce(SocketAddr, &Arc<WorkerPool>)) {
    let engine = GraphPi::new(generators::power_law(120, 5, 42));
    let pool = Arc::new(WorkerPool::with_max_in_flight(2, 2));
    let cache = Arc::new(PlanCache::new(8));
    let server = graphpi::core::net::Server::bind_shared(
        "127.0.0.1:0",
        Arc::clone(&pool),
        cache,
        ServeOptions {
            read_timeout: Duration::from_millis(10),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let handle = server.handle().unwrap();
    let addr = handle.addr();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&engine).unwrap());
        body(addr, &pool);
        handle.shutdown();
        serving.join().unwrap();
    });
}

/// Reads the server's reply to a hand-written byte blast: either one
/// typed error frame (returning its code) or a clean drop (`None`).
fn reply_after(addr: SocketAddr, raw: &[u8]) -> Option<ErrorCode> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    // The server may need a read-timeout tick to classify a stall; give
    // the reply loop plenty of slack.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match protocol::read_frame(&mut stream) {
        Ok(frame) => {
            assert_eq!(
                frame.opcode,
                op::ERROR,
                "non-error reply to malformed input"
            );
            Some(
                WireError::decode(&frame.payload)
                    .expect("undecodable error payload")
                    .code,
            )
        }
        Err(NetError::Closed) => None,
        Err(other) => panic!("unexpected failure reading the reply: {other}"),
    }
}

/// After an error frame that closes the connection, the stream must
/// actually reach EOF.
fn assert_connection_closed(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(
        stream.read(&mut buf).unwrap_or(0),
        0,
        "connection still open"
    );
}

#[test]
fn fault_battery_leaves_the_server_standing() {
    with_server(|addr, pool| {
        let workers_before = pool.live_workers();
        let expected = {
            // In-process baseline for the validity probes between faults.
            let mut client = Client::connect(addr).unwrap();
            client.count(&prefab::triangle()).unwrap().count
        };

        // Case 1: truncated length prefix, then disconnect.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&[7u8, 0]).unwrap();
            drop(stream); // mid-prefix disconnect: clean drop, no reply owed
        }

        // Case 2: length prefix below the minimum header size.
        let code = reply_after(addr, &2u32.to_le_bytes());
        assert_eq!(code, Some(ErrorCode::BadFrame));

        // Case 3: oversized length prefix — refused before allocation.
        let code = reply_after(addr, &((MAX_FRAME_LEN as u32 + 1).to_le_bytes()));
        assert_eq!(code, Some(ErrorCode::FrameTooLarge));

        // Case 4: wrong magic.
        let mut bad_magic = Frame::new(op::PING, vec![]).encode();
        bad_magic[4] = b'X';
        assert_eq!(reply_after(addr, &bad_magic), Some(ErrorCode::BadFrame));

        // Case 5: wrong version.
        let mut bad_version = Frame::new(op::PING, vec![]).encode();
        bad_version[6] = 99;
        assert_eq!(
            reply_after(addr, &bad_version),
            Some(ErrorCode::UnsupportedVersion)
        );

        // Case 6: mid-frame disconnect — a length prefix promising 100
        // bytes, 10 delivered, then the socket vanishes.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&100u32.to_le_bytes()).unwrap();
            stream.write_all(&[0xAB; 10]).unwrap();
            drop(stream);
        }

        // Case 7: mid-frame stall — same partial frame, but the client
        // keeps the socket open and goes silent. The read timeout must
        // classify it as truncation and cut it off, not hang a handler.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&100u32.to_le_bytes()).unwrap();
            stream.write_all(&[0xCD; 10]).unwrap();
            let reply = {
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                protocol::read_frame(&mut stream)
            };
            match reply {
                Ok(frame) => assert_eq!(frame.opcode, op::ERROR),
                Err(NetError::Closed) => {}
                Err(other) => panic!("stalled frame got {other}"),
            }
            assert_connection_closed(&mut stream);
        }

        // Case 8: unknown opcode in a well-formed frame — typed error and
        // the connection SURVIVES for the next request.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(&Frame::new(0x55, vec![1, 2, 3]).encode())
                .unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let frame = protocol::read_frame(&mut stream).unwrap();
            assert_eq!(frame.opcode, op::ERROR);
            assert_eq!(
                WireError::decode(&frame.payload).unwrap().code,
                ErrorCode::UnknownOpcode
            );
            // Same connection still serves a valid ping.
            stream
                .write_all(&Frame::new(op::PING, vec![9]).encode())
                .unwrap();
            let pong = protocol::read_frame(&mut stream).unwrap();
            assert_eq!(pong.opcode, op::PONG);
            assert_eq!(pong.payload, vec![9]);
        }

        // Case 9: COUNT with an undecodable payload — typed error, then a
        // valid count on the same connection returns the right answer.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(&Frame::new(op::COUNT, vec![0, 1]).encode())
                .unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let frame = protocol::read_frame(&mut stream).unwrap();
            assert_eq!(
                WireError::decode(&frame.payload).unwrap().code,
                ErrorCode::BadPayload
            );
            let valid = CountRequest {
                no_iep: false,
                hub_bitsets: false,
                deadline_ms: 0,
                request_id: 0,
                min_generation: 0,
                mode: QueryMode::Count,
                pattern: prefab::triangle().canonical_bytes(),
            };
            stream
                .write_all(&Frame::new(op::COUNT, valid.encode()).encode())
                .unwrap();
            let reply = protocol::read_frame(&mut stream).unwrap();
            assert_eq!(reply.opcode, op::COUNT_OK);
        }

        // Case 10: pattern bytes that are not a canonical pattern (a
        // self-loop) — BadPayload, connection stays.
        {
            let request = CountRequest {
                no_iep: false,
                hub_bitsets: false,
                deadline_ms: 0,
                request_id: 0,
                min_generation: 0,
                mode: QueryMode::Count,
                pattern: vec![2, 0b01], // vertex 0 adjacent to itself
            };
            let mut client = Client::connect(addr).unwrap();
            client.count(&prefab::triangle()).unwrap(); // warm the connection first
                                                        // Hand-roll the bad request through the same socket.
            let mut t = client.into_transport();
            use graphpi::core::net::Transport;
            t.send(&Frame::new(op::COUNT, request.encode())).unwrap();
            let error = match t.recv() {
                Ok(frame) if frame.opcode == op::ERROR => {
                    WireError::decode(&frame.payload).unwrap().into_net_error()
                }
                Ok(_) => panic!("bad pattern bytes were accepted"),
                Err(e) => e,
            };
            assert!(matches!(
                error,
                NetError::Remote {
                    code: ErrorCode::BadPayload,
                    ..
                }
            ));
        }

        // Case 11: a decodable but engine-rejected pattern (empty) —
        // PatternRejected, connection stays open.
        {
            let mut client = Client::connect(addr).unwrap();
            let error = client
                .count(&graphpi::pattern::Pattern::empty(0))
                .unwrap_err();
            assert!(matches!(
                error,
                NetError::Remote {
                    code: ErrorCode::PatternRejected,
                    ..
                }
            ));
            client.ping().unwrap();
        }

        // Give stall-classification handlers time to finish their drops.
        std::thread::sleep(Duration::from_millis(50));

        // The battery killed no workers and the server still answers
        // correctly, with the faults showing up in its own accounting.
        assert_eq!(pool.live_workers(), workers_before, "a worker died");
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.count(&prefab::triangle()).unwrap().count, expected);
        let stats = client.stats().unwrap();
        assert!(
            stats.protocol_errors >= 6,
            "expected the faults to be counted, saw {}",
            stats.protocol_errors
        );
        assert_eq!(stats.live_workers as usize, workers_before);
    });
}

#[test]
fn frames_pipelined_back_to_back_all_get_replies() {
    // Several valid requests written in one burst must each get exactly
    // one reply, in order — the framing keeps sync without per-request
    // round trips.
    with_server(|addr, _pool| {
        let mut stream = TcpStream::connect(addr).unwrap();
        let count = CountRequest {
            no_iep: false,
            hub_bitsets: false,
            deadline_ms: 0,
            request_id: 0,
            min_generation: 0,
            mode: QueryMode::Count,
            pattern: prefab::triangle().canonical_bytes(),
        };
        let mut burst = Vec::new();
        burst.extend_from_slice(&Frame::new(op::PING, vec![1]).encode());
        burst.extend_from_slice(&Frame::new(op::COUNT, count.encode()).encode());
        burst.extend_from_slice(&Frame::new(op::STATS, vec![]).encode());
        stream.write_all(&burst).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(protocol::read_frame(&mut stream).unwrap().opcode, op::PONG);
        assert_eq!(
            protocol::read_frame(&mut stream).unwrap().opcode,
            op::COUNT_OK
        );
        assert_eq!(
            protocol::read_frame(&mut stream).unwrap().opcode,
            op::STATS_OK
        );
    });
}
