//! Deterministic fault injection for the serving stack.
//!
//! Two layers share one seeded fault model ([`ChaosConfig`]):
//!
//! - [`ChaosTransport`] wraps any byte stream and implements
//!   [`Transport`], injecting faults *between* the client and the frame
//!   codec: stalls, dropped requests, partial writes, lost replies, and
//!   connection resets. Tests use it in-process to drive the retry layer
//!   through every ambiguous-failure shape without a real flaky network.
//! - [`ChaosProxy`] is a standalone TCP proxy (the `graphpi-cli
//!   chaos-proxy` subcommand) applying byte-level faults between real
//!   sockets, for probing a live server from the outside.
//!
//! All randomness comes from an inline SplitMix64 generator seeded from
//! [`ChaosConfig::seed`], so a given seed reproduces the exact fault
//! schedule. Probabilities are expressed per mille (0..=1000) to keep
//! CLI flags and arithmetic exact.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::protocol::{read_frame, write_frame, Frame, NetError, Transport};

/// SplitMix64: tiny, statistically solid, and dependency-free. `rand` is
/// only a dev-dependency of this crate, and the fault schedule must be
/// reproducible from a single `u64` anyway.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound` (`bound` > 0).
    pub(crate) fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// One per-mille Bernoulli trial.
    fn roll(&mut self, per_mille: u32) -> bool {
        per_mille > 0 && self.next_below(1000) < u64::from(per_mille)
    }
}

/// The seeded fault model. All probabilities are per mille (0..=1000);
/// `Default` injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosConfig {
    /// Root seed; every derived connection re-seeds deterministically.
    pub seed: u64,
    /// Probability an operation stalls for `stall_ms` first.
    pub stall_per_mille: u32,
    /// Injected stall duration in milliseconds.
    pub stall_ms: u64,
    /// Probability an outgoing frame is silently dropped (the peer never
    /// sees it; the connection then reads as closed).
    pub drop_request_per_mille: u32,
    /// Probability an outgoing frame is cut mid-write and the connection
    /// reset — the peer sees a truncated frame.
    pub partial_write_per_mille: u32,
    /// Probability an incoming frame is consumed and discarded — the
    /// peer's reply is lost *after* it did the work (the ambiguous
    /// failure that makes request IDs necessary).
    pub drop_reply_per_mille: u32,
    /// Probability the connection resets outright before an operation.
    pub reset_per_mille: u32,
}

impl ChaosConfig {
    /// A light preset: ~5% stalls of 2 ms, ~2% of each failure mode.
    /// Aggressive enough to exercise every retry path over ~50 queries,
    /// gentle enough that bounded retries always converge.
    pub fn gentle(seed: u64) -> Self {
        Self {
            seed,
            stall_per_mille: 50,
            stall_ms: 2,
            drop_request_per_mille: 20,
            partial_write_per_mille: 20,
            drop_reply_per_mille: 20,
            reset_per_mille: 20,
        }
    }

    /// The per-connection seed for connection number `index`. Mixing
    /// through SplitMix64 keeps schedules independent across reconnects
    /// while the whole run stays a pure function of the root seed.
    pub(crate) fn connection_seed(&self, index: u64) -> u64 {
        SplitMix64::new(self.seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
    }
}

/// Counts of injected faults, for assertions that a chaos run actually
/// exercised the paths it claims to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ChaosStats {
    /// Stalls injected.
    pub stalls: u64,
    /// Outgoing frames dropped.
    pub requests_dropped: u64,
    /// Outgoing frames truncated mid-write.
    pub partial_writes: u64,
    /// Incoming frames consumed and discarded.
    pub replies_dropped: u64,
    /// Outright connection resets.
    pub resets: u64,
}

/// Streams whose blocking reads can be bounded. [`ChaosTransport`]
/// forwards [`Transport::set_recv_timeout`] through this, so a caller's
/// read timeout survives the chaos wrapper.
pub(crate) trait TimeoutStream {
    /// Applies a read timeout (`None` = block forever).
    fn apply_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl TimeoutStream for TcpStream {
    fn apply_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

/// A [`Transport`] that injects seeded faults around a wrapped byte
/// stream. Once a fault kills the connection, every later call returns
/// [`NetError::Closed`] — exactly what a real dead socket looks like to
/// the retry layer, which must reconnect with a fresh transport. (The
/// stream itself is retained until drop, so tests can inspect what
/// actually went over the wire.)
pub struct ChaosTransport<S> {
    stream: S,
    dead: bool,
    rng: SplitMix64,
    config: ChaosConfig,
    stats: ChaosStats,
}

impl<S> ChaosTransport<S> {
    /// Wraps `stream` with the fault model in `config`, seeded by
    /// `seed` (use [`ChaosConfig::connection_seed`] so reconnects get
    /// independent schedules).
    pub(crate) fn new(stream: S, config: ChaosConfig, seed: u64) -> Self {
        Self {
            stream,
            dead: false,
            rng: SplitMix64::new(seed),
            config,
            stats: ChaosStats::default(),
        }
    }

    fn maybe_stall(&mut self) {
        if self.rng.roll(self.config.stall_per_mille) {
            self.stats.stalls += 1;
            std::thread::sleep(Duration::from_millis(self.config.stall_ms));
        }
    }
}

impl<S: Read + Write + TimeoutStream> Transport for ChaosTransport<S> {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        if self.dead {
            return Err(NetError::Closed);
        }
        self.maybe_stall();
        if self.rng.roll(self.config.reset_per_mille) {
            self.stats.resets += 1;
            self.dead = true;
            return Err(NetError::Closed);
        }
        if self.rng.roll(self.config.drop_request_per_mille) {
            // The frame vanishes; the connection is dead but the caller
            // only learns that when it tries to read the reply.
            self.stats.requests_dropped += 1;
            self.dead = true;
            return Ok(());
        }
        if self.rng.roll(self.config.partial_write_per_mille) {
            self.stats.partial_writes += 1;
            let bytes = frame.encode();
            let cut = 1 + self.rng.next_below(bytes.len() as u64 - 1) as usize;
            let _ = self.stream.write_all(&bytes[..cut]);
            let _ = self.stream.flush();
            self.dead = true;
            return Err(NetError::Closed);
        }
        write_frame(&mut self.stream, frame)
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        if self.dead {
            return Err(NetError::Closed);
        }
        self.maybe_stall();
        if self.rng.roll(self.config.drop_reply_per_mille) {
            // Consume the peer's reply so the work really happened, then
            // lose it — the caller cannot tell this from a crash.
            self.stats.replies_dropped += 1;
            let _ = read_frame(&mut self.stream);
            self.dead = true;
            return Err(NetError::Closed);
        }
        read_frame(&mut self.stream)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.apply_read_timeout(timeout)?;
        Ok(())
    }
}

/// A factory handing out [`ChaosTransport`]s over fresh TCP connections,
/// with per-connection seeds derived from one shared counter — the whole
/// reconnect sequence is reproducible from `config.seed`.
#[derive(Debug, Clone)]
pub struct ChaosConnector {
    addr: SocketAddr,
    config: ChaosConfig,
    connections: Arc<AtomicU64>,
}

impl ChaosConnector {
    /// Builds a connector dialing `addr` under `config`'s fault model.
    pub fn new(addr: SocketAddr, config: ChaosConfig) -> Self {
        Self {
            addr,
            config,
            connections: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Dials a fresh connection wrapped in a newly-seeded
    /// [`ChaosTransport`].
    pub fn connect(&self) -> Result<ChaosTransport<TcpStream>, NetError> {
        let index = self.connections.fetch_add(1, Ordering::Relaxed);
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        Ok(ChaosTransport::new(
            stream,
            self.config,
            self.config.connection_seed(index),
        ))
    }

    /// Connections dialed so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }
}

/// Byte-level chaos proxy: accepts downstream clients, dials the
/// upstream server once per client, and pumps bytes both ways while
/// injecting stalls, truncations, and resets from the same seeded model.
/// This is what `graphpi-cli chaos-proxy` runs.
pub struct ChaosProxy {
    listener: TcpListener,
    upstream: SocketAddr,
    config: ChaosConfig,
}

impl ChaosProxy {
    /// Binds the downstream listener.
    pub fn bind(listen: &str, upstream: SocketAddr, config: ChaosConfig) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(listen)?,
            upstream,
            config,
        })
    }

    /// The bound downstream address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and proxies connections forever (until the process dies —
    /// the chaos proxy is itself expendable infrastructure).
    pub fn run(self) -> std::io::Result<()> {
        let mut next_conn = 0u64;
        for downstream in self.listener.incoming() {
            let downstream = match downstream {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let seed = self.config.connection_seed(next_conn);
            next_conn += 1;
            let upstream_addr = self.upstream;
            let config = self.config;
            std::thread::spawn(move || {
                let Ok(upstream) = TcpStream::connect(upstream_addr) else {
                    return;
                };
                let _ = downstream.set_nodelay(true);
                let _ = upstream.set_nodelay(true);
                pump_both(downstream, upstream, config, seed);
            });
        }
        Ok(())
    }
}

/// Pumps bytes between the two sockets on two threads until either side
/// closes or a fault resets the pair.
fn pump_both(downstream: TcpStream, upstream: TcpStream, config: ChaosConfig, seed: u64) {
    let down_clone = match downstream.try_clone() {
        Ok(stream) => stream,
        Err(_) => return,
    };
    let up_clone = match upstream.try_clone() {
        Ok(stream) => stream,
        Err(_) => return,
    };
    let mut fwd_rng = SplitMix64::new(seed);
    let mut rev_rng = SplitMix64::new(seed ^ 0x5DEE_CE66_D0FF_BEEF);
    let forward = std::thread::spawn(move || pump(downstream, up_clone, config, &mut fwd_rng));
    pump(upstream, down_clone, config, &mut rev_rng);
    let _ = forward.join();
}

/// One direction of the proxy: read a chunk, maybe mangle it, write it
/// on. A truncation or reset shuts down both sockets (the clones share
/// the underlying descriptors), so the client sees a clean connection
/// failure and retries.
fn pump(mut from: TcpStream, mut to: TcpStream, config: ChaosConfig, rng: &mut SplitMix64) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if rng.roll(config.stall_per_mille) {
            std::thread::sleep(Duration::from_millis(config.stall_ms));
        }
        if rng.roll(config.reset_per_mille) {
            break;
        }
        let chunk = if rng.roll(config.partial_write_per_mille) && n > 1 {
            &buf[..1 + rng.next_below(n as u64 - 1) as usize]
        } else {
            &buf[..n]
        };
        if to.write_all(chunk).is_err() || chunk.len() < n {
            break;
        }
    }
    let _ = from.shutdown(std::net::Shutdown::Both);
    let _ = to.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory duplex stream: reads drain `input`, writes append to
    /// `output`.
    struct Loopback {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl TimeoutStream for Loopback {
        fn apply_read_timeout(&mut self, _timeout: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let run: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(run, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert!(run.windows(2).any(|w| w[0] != w[1]));
        let mut c = SplitMix64::new(43);
        assert_ne!(run[0], c.next_u64());
    }

    #[test]
    fn clean_config_passes_frames_through() {
        let reply = Frame::new(super::super::protocol::op::PONG, vec![]);
        let stream = Loopback {
            input: Cursor::new(reply.encode()),
            output: Vec::new(),
        };
        let mut chaos = ChaosTransport::new(stream, ChaosConfig::default(), 7);
        let ping = Frame::new(super::super::protocol::op::PING, vec![]);
        chaos.send(&ping).unwrap();
        assert_eq!(chaos.recv().unwrap(), reply);
        assert_eq!(chaos.stats, ChaosStats::default());
        assert_eq!(chaos.stream.output, ping.encode());
    }

    #[test]
    fn faults_fire_deterministically_and_kill_the_connection() {
        let config = ChaosConfig {
            seed: 1,
            reset_per_mille: 1000,
            ..ChaosConfig::default()
        };
        let stream = Loopback {
            input: Cursor::new(Vec::new()),
            output: Vec::new(),
        };
        let mut chaos = ChaosTransport::new(stream, config, config.connection_seed(0));
        let ping = Frame::new(super::super::protocol::op::PING, vec![]);
        assert!(matches!(chaos.send(&ping), Err(NetError::Closed)));
        assert_eq!(chaos.stats.resets, 1);
        // Dead forever after.
        assert!(matches!(chaos.recv(), Err(NetError::Closed)));
        assert!(matches!(chaos.send(&ping), Err(NetError::Closed)));
        assert_eq!(chaos.stats.resets, 1, "no double-counting after death");
    }

    #[test]
    fn partial_write_emits_a_truncated_frame() {
        let config = ChaosConfig {
            seed: 9,
            partial_write_per_mille: 1000,
            ..ChaosConfig::default()
        };
        let stream = Loopback {
            input: Cursor::new(Vec::new()),
            output: Vec::new(),
        };
        let mut chaos = ChaosTransport::new(stream, config, 9);
        let frame = Frame::new(super::super::protocol::op::COUNT, vec![0xAB; 64]);
        assert!(matches!(chaos.send(&frame), Err(NetError::Closed)));
        let written = &chaos.stream.output;
        assert!(!written.is_empty() && written.len() < frame.encode().len());
        assert_eq!(written[..], frame.encode()[..written.len()]);
        assert_eq!(chaos.stats.partial_writes, 1);
    }
}
