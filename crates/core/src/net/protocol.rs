//! The GraphPi wire protocol: length-prefixed binary frames over a byte
//! stream.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     length  u32 LE: number of bytes that follow (4 + payload)
//! 4       2     magic   "GP"
//! 6       1     version 0x02
//! 7       1     opcode  see [`op`]
//! 8       len-4 payload opcode-specific (see the codec structs below)
//! ```
//!
//! The length prefix covers the magic/version/opcode header, so
//! `length >= 4` always, and is capped at [`MAX_FRAME_LEN`] — a reader can
//! always either consume a whole well-formed frame or fail with a typed
//! [`NetError`] *before* allocating attacker-controlled amounts of memory.
//! All integers are little-endian; patterns travel as
//! [`Pattern::canonical_bytes`](graphpi_pattern::Pattern::canonical_bytes),
//! the same invertible encoding the plan cache keys on.
//!
//! The codec here is transport-agnostic: [`read_frame`]/`write_frame`
//! work over any `Read`/`Write` (the tests drive them over in-memory
//! cursors), and the [`Transport`] trait is the seam behind which an async
//! or HTTP frontend can land later without touching the engine. The
//! blocking [`TcpTransport`] is the only implementation today.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// First two payload bytes of every frame.
pub(crate) const MAGIC: [u8; 2] = *b"GP";

/// The protocol version — the only one spoken. A frame carrying any other
/// version byte is refused with [`ErrorCode::UnsupportedVersion`] and the
/// connection is closed.
pub(crate) const VERSION: u8 = 2;

/// Bytes of header covered by the length prefix (magic + version + opcode).
pub(crate) const HEADER_LEN: usize = 4;

/// Upper bound on the length prefix. Patterns are ≤ 8 vertices and stats
/// are fixed-size, so real frames are tiny; the cap exists so a corrupt or
/// hostile length prefix cannot make the reader allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Opcode bytes. Requests have the high bit clear, responses set
/// (`0x80 | request`); [`ERROR`](op::ERROR) is the one shared response
/// for every failure.
pub mod op {
    /// Count embeddings of a pattern ([`super::CountRequest`] payload).
    pub const COUNT: u8 = 0x01;
    /// Fetch server counters (empty payload).
    pub const STATS: u8 = 0x02;
    /// Liveness probe; the payload is echoed back verbatim.
    pub const PING: u8 = 0x03;
    /// Ask the server to drain and exit (empty payload).
    pub(crate) const SHUTDOWN: u8 = 0x04;
    /// Readiness probe for load balancers and supervisors (empty
    /// payload).
    pub(crate) const HEALTH: u8 = 0x05;
    /// Apply a batch of edge insertions/deletions
    /// ([`super::UpdateRequest`] payload). Static servers
    /// answer [`super::ErrorCode::ReadOnly`].
    pub(crate) const UPDATE: u8 = 0x06;
    /// Subscribe to the primary's WAL stream from a cursor
    /// ([`super::ReplSubscribe`] payload). Only durable
    /// (`--wal`) primaries accept it; the connection then alternates
    /// [`REPL_BATCH`] / `REPL_ACK` until either side closes.
    pub const REPL_SUBSCRIBE: u8 = 0x07;
    /// Replica's durable-cursor acknowledgement ([`super::ReplAck`]
    /// payload). Solicits the next [`REPL_BATCH`].
    pub(crate) const REPL_ACK: u8 = 0x08;
    /// Ask a replica to stop following its primary and serve writes
    /// (empty payload). Idempotent on a primary.
    pub(crate) const PROMOTE: u8 = 0x09;
    /// Enumerate embeddings of a pattern ([`super::EnumerateRequest`]
    /// payload). Answered by a stream of [`ENUM_PAGE`]
    /// frames. Enumeration is **not** idempotent and never enters the
    /// completed-request ledger: a retry after an ambiguous failure may
    /// re-run the query and observe a different page split (or, with a
    /// `limit` on a pooled plan, a different subset of the rows).
    pub(crate) const ENUMERATE: u8 = 0x0A;
    /// One replication shipment ([`super::ReplBatch`] payload): a raw
    /// slice of the primary's WAL record stream, a checkpoint-file chunk,
    /// or an empty heartbeat.
    pub const REPL_BATCH: u8 = 0x87;
    /// Promotion acknowledged ([`super::PromoteOk`] payload): the
    /// generation the new primary serves writes from.
    pub(crate) const PROMOTE_OK: u8 = 0x89;
    /// Successful count ([`super::CountOk`] payload).
    pub const COUNT_OK: u8 = 0x81;
    /// Counter snapshot ([`super::StatsOk`] payload).
    pub const STATS_OK: u8 = 0x82;
    /// Ping reply (echoed payload).
    pub const PONG: u8 = 0x83;
    /// Shutdown acknowledged; the server is now draining.
    pub(crate) const SHUTDOWN_OK: u8 = 0x84;
    /// Health reply ([`super::HealthOk`] payload).
    pub(crate) const HEALTH_OK: u8 = 0x85;
    /// Update applied ([`super::UpdateOk`] payload).
    pub(crate) const UPDATE_OK: u8 = 0x86;
    /// One page of an enumeration's result stream ([`super::EnumPage`]
    /// payload). The last page carries a flag; the stream is
    /// `ENUM_PAGE*` terminated by a flagged page (or an [`ERROR`] frame,
    /// after which no further pages follow).
    pub const ENUM_PAGE: u8 = 0x8A;
    /// Typed failure ([`super::WireError`] payload).
    pub const ERROR: u8 = 0x7F;
}

/// Typed error codes carried by [`op::ERROR`] frames. The comment on each
/// variant states whether the server keeps the connection open after
/// sending it — malformed *framing* closes (the stream can no longer be
/// trusted to be in sync), malformed *content* inside a well-formed frame
/// does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unparseable frame header or truncated stream. Connection closes.
    BadFrame,
    /// Version byte is not `VERSION`. Connection closes.
    UnsupportedVersion,
    /// Well-formed frame with an opcode the server does not know.
    /// Connection stays open.
    UnknownOpcode,
    /// Well-formed frame whose payload failed to decode (including pattern
    /// bytes that are not a valid canonical pattern). Connection stays open.
    BadPayload,
    /// The engine rejected the pattern (empty, disconnected, too large).
    /// Connection stays open.
    PatternRejected,
    /// The query's deadline expired (while queued for admission, or before
    /// the result could be sent). Connection stays open.
    DeadlineExceeded,
    /// The server is draining and accepts no new work. Connection closes.
    ShuttingDown,
    /// Length prefix exceeds [`MAX_FRAME_LEN`]. Connection closes.
    FrameTooLarge,
    /// The query panicked inside the engine. Connection stays open (the
    /// worker pool isolates the panic to the job's slot).
    Internal,
    /// The server is at its connection limit. Connection closes.
    TooManyConnections,
    /// The admission wait queue is full: the server is shedding load
    /// instead of queueing unboundedly. The error carries a
    /// retry-after hint derived from the server's latency histogram.
    /// Connection stays open.
    RetryLater,
    /// An `op::UPDATE` reached a server whose graph is immutable (no
    /// `--wal`). Deterministic rejection; connection stays open.
    ReadOnly,
    /// A write (or replication subscribe) reached a read replica. The
    /// error message carries the primary's address when the replica knows
    /// it (possibly empty). Deterministic until a failover changes roles;
    /// connection stays open.
    NotPrimary,
    /// A well-formed request carried an argument value the server rejects
    /// (enumeration limit of zero, sample rate outside `(0, 1]`).
    /// Deterministic rejection; connection stays open.
    InvalidArgument,
    /// A code this build does not know (forward compatibility).
    Other(u8),
}

impl ErrorCode {
    /// The wire byte for this code.
    pub(crate) fn code(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::UnknownOpcode => 3,
            ErrorCode::BadPayload => 4,
            ErrorCode::PatternRejected => 5,
            ErrorCode::DeadlineExceeded => 6,
            ErrorCode::ShuttingDown => 7,
            ErrorCode::FrameTooLarge => 8,
            ErrorCode::Internal => 9,
            ErrorCode::TooManyConnections => 10,
            ErrorCode::RetryLater => 11,
            ErrorCode::ReadOnly => 12,
            ErrorCode::NotPrimary => 13,
            ErrorCode::InvalidArgument => 14,
            ErrorCode::Other(code) => code,
        }
    }

    /// Decodes a wire byte (unknown bytes become [`ErrorCode::Other`]).
    pub fn from_code(code: u8) -> Self {
        match code {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnknownOpcode,
            4 => ErrorCode::BadPayload,
            5 => ErrorCode::PatternRejected,
            6 => ErrorCode::DeadlineExceeded,
            7 => ErrorCode::ShuttingDown,
            8 => ErrorCode::FrameTooLarge,
            9 => ErrorCode::Internal,
            10 => ErrorCode::TooManyConnections,
            11 => ErrorCode::RetryLater,
            12 => ErrorCode::ReadOnly,
            13 => ErrorCode::NotPrimary,
            14 => ErrorCode::InvalidArgument,
            other => ErrorCode::Other(other),
        }
    }

    /// Whether a client may safely retry the request that earned this
    /// code (after a backoff / the server's retry-after hint). The
    /// non-retryable codes are deterministic rejections — resending the
    /// same bytes can only fail the same way — or an expired deadline the
    /// retry could not honor either.
    pub(crate) fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::RetryLater | ErrorCode::TooManyConnections | ErrorCode::ShuttingDown
        )
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::BadFrame => write!(f, "bad frame"),
            ErrorCode::UnsupportedVersion => write!(f, "unsupported protocol version"),
            ErrorCode::UnknownOpcode => write!(f, "unknown opcode"),
            ErrorCode::BadPayload => write!(f, "bad payload"),
            ErrorCode::PatternRejected => write!(f, "pattern rejected"),
            ErrorCode::DeadlineExceeded => write!(f, "deadline exceeded"),
            ErrorCode::ShuttingDown => write!(f, "server shutting down"),
            ErrorCode::FrameTooLarge => write!(f, "frame too large"),
            ErrorCode::Internal => write!(f, "internal server error"),
            ErrorCode::TooManyConnections => write!(f, "too many connections"),
            ErrorCode::RetryLater => write!(f, "overloaded, retry later"),
            ErrorCode::ReadOnly => write!(f, "server graph is read-only"),
            ErrorCode::NotPrimary => write!(f, "server is not the primary"),
            ErrorCode::InvalidArgument => write!(f, "invalid argument"),
            ErrorCode::Other(code) => write!(f, "error code {code}"),
        }
    }
}

/// Errors raised by the codec and transports.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket/file I/O failed.
    Io(std::io::Error),
    /// The peer closed the stream cleanly (EOF on a frame boundary).
    Closed,
    /// The stream ended or stalled in the middle of a frame — the reader
    /// can no longer trust its framing and must drop the connection.
    Truncated,
    /// The frame does not start with `MAGIC`.
    BadMagic,
    /// The version byte is not `VERSION` (carries the byte seen).
    UnsupportedVersion(u8),
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (carries the length).
    FrameTooLarge(usize),
    /// The read timed out with no bytes consumed — not an error; poll
    /// again. Only surfaced by transports with a read timeout configured.
    Idle,
    /// The peer violated the protocol in a way framing cannot express
    /// (e.g. a response with the wrong opcode).
    Protocol(&'static str),
    /// The server answered with a typed [`op::ERROR`] frame.
    Remote {
        /// The typed error code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
        /// Server-suggested wait before retrying (carried by
        /// [`ErrorCode::RetryLater`]).
        retry_after_ms: Option<u32>,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Closed => write!(f, "connection closed by peer"),
            NetError::Truncated => write!(f, "stream truncated mid-frame"),
            NetError::BadMagic => write!(f, "bad frame magic"),
            NetError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            NetError::FrameTooLarge(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            NetError::Idle => write!(f, "read timed out with no data"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Remote {
                code,
                message,
                retry_after_ms,
            } => {
                write!(f, "server error ({code}): {message}")?;
                if let Some(ms) = retry_after_ms {
                    write!(f, " (retry after {ms} ms)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for Frame {
    /// The [`op::ERROR`] frame carrying this error.
    fn from(error: WireError) -> Self {
        Frame::new(op::ERROR, error.encode())
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// One decoded frame: the opcode byte plus its raw payload. The opcode is
/// kept raw (not an enum) so unknown opcodes survive decoding and can be
/// answered with a typed [`ErrorCode::UnknownOpcode`] instead of killing
/// the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The opcode byte (see [`op`]).
    pub opcode: u8,
    /// The opcode-specific payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame from an opcode and payload.
    pub fn new(opcode: u8, payload: Vec<u8>) -> Self {
        Self { opcode, payload }
    }

    /// An [`op::ERROR`] frame carrying `code` and `message` (truncated so
    /// the frame always fits [`MAX_FRAME_LEN`]; see [`WireError::new`]).
    pub(crate) fn error(code: ErrorCode, message: &str) -> Self {
        WireError::new(code, message).into()
    }

    /// Serialises the frame (length prefix + header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let len = HEADER_LEN + self.payload.len();
        let mut out = Vec::with_capacity(4 + len);
        out.extend_from_slice(&(len as u32).to_le_bytes());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.opcode);
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Reads exactly `buf.len()` bytes. `at_boundary` marks a read that starts
/// on a frame boundary: there, EOF is a clean [`NetError::Closed`] and a
/// zero-byte timeout is [`NetError::Idle`]. Once any byte of a frame has
/// been consumed, EOF and timeouts become [`NetError::Truncated`] — the
/// stream's framing can no longer be trusted.
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8], at_boundary: bool) -> Result<(), NetError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    NetError::Closed
                } else {
                    NetError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(if at_boundary && filled == 0 {
                    NetError::Idle
                } else {
                    NetError::Truncated
                });
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame from `reader`, validating length, magic and version.
/// Works over any byte stream. At a frame boundary, zero bytes followed
/// by EOF is a clean close and zero bytes followed by a timeout is
/// [`NetError::Idle`]; any partially-read frame that stalls or hits EOF
/// is [`NetError::Truncated`].
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Frame, NetError> {
    let mut len_buf = [0u8; 4];
    read_full(reader, &mut len_buf, true)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len < HEADER_LEN {
        return Err(NetError::Protocol(
            "length prefix shorter than the frame header",
        ));
    }
    if len > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge(len));
    }
    let mut body = vec![0u8; len];
    read_full(reader, &mut body, false)?;
    if body[..2] != MAGIC {
        return Err(NetError::BadMagic);
    }
    if body[2] != VERSION {
        return Err(NetError::UnsupportedVersion(body[2]));
    }
    Ok(Frame {
        opcode: body[3],
        payload: body[HEADER_LEN..].to_vec(),
    })
}

/// Writes one frame to `writer` and flushes it.
pub(crate) fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<(), NetError> {
    writer.write_all(&frame.encode())?;
    writer.flush()?;
    Ok(())
}

/// A bidirectional frame channel. The engine-facing server and client code
/// speak only this trait, so an async or HTTP transport can be swapped in
/// without touching either.
pub trait Transport {
    /// Sends one frame.
    fn send(&mut self, frame: &Frame) -> Result<(), NetError>;
    /// Receives one frame (blocking up to the transport's read timeout,
    /// surfacing [`NetError::Idle`] on a quiet timeout).
    fn recv(&mut self) -> Result<Frame, NetError>;
    /// Sets the receive timeout, after which a quiet [`Transport::recv`]
    /// surfaces [`NetError::Idle`]. Transports without timers may ignore
    /// this (the default is a no-op); the replication stream uses it to
    /// poll its stop flag between batches.
    fn set_recv_timeout(&mut self, _timeout: Option<Duration>) -> Result<(), NetError> {
        Ok(())
    }
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        (**self).send(frame)
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        (**self).recv()
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        (**self).set_recv_timeout(timeout)
    }
}

/// Blocking TCP transport ([`TcpStream`] + Nagle disabled — frames are
/// small and latency-sensitive).
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wraps an accepted or connected stream.
    pub(crate) fn new(stream: TcpStream) -> Self {
        stream.set_nodelay(true).ok();
        Self { stream }
    }

    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Ok(Self::new(TcpStream::connect(addr)?))
    }

    /// Sets the read timeout ([`NetError::Idle`] on quiet expiry).
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        write_frame(&mut self.stream, frame)
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        read_frame(&mut self.stream)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.set_read_timeout(timeout)
    }
}

/// Bounds-checked read cursor over one payload. Every payload `decode`
/// below is a straight run of `?` over these methods; [`Reader::bytes`]
/// is the one place that touches the underlying slice, so a malformed
/// payload can only ever yield `None`, never a panic or an out-of-range
/// read.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(payload: &'a [u8]) -> Self {
        Self { rest: payload }
    }

    /// The next `n` bytes; `None` (consuming nothing) when fewer remain.
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.rest.len() {
            return None;
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.bytes(N)?.try_into().ok()
    }

    fn u8(&mut self) -> Option<u8> {
        self.array().map(|[byte]| byte)
    }

    fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u64` whose presence a flag bit announces: absent reads as 0, and
    /// a present field must not *be* 0 — the flag promises a usable value.
    fn flagged_u64(&mut self, present: bool) -> Option<u64> {
        if present {
            self.u64().filter(|&value| value != 0)
        } else {
            Some(0)
        }
    }

    /// `n` little-endian `u32`s. The byte range is checked before anything
    /// is allocated, so a hostile count cannot reserve memory.
    fn u32s(&mut self, n: usize) -> Option<impl ExactSizeIterator<Item = u32> + 'a> {
        let words = self.bytes(n.checked_mul(4)?)?.chunks_exact(4);
        Some(words.map(|word| u32::from_le_bytes([word[0], word[1], word[2], word[3]])))
    }

    /// `n` `(u32, u32)` pairs.
    fn pairs(&mut self, n: usize) -> Option<Vec<(u32, u32)>> {
        let mut words = self.u32s(n.checked_mul(2)?)?;
        let mut pairs = Vec::with_capacity(n);
        while let (Some(a), Some(b)) = (words.next(), words.next()) {
            pairs.push((a, b));
        }
        Some(pairs)
    }

    /// `n` reserved bytes, which must all be zero.
    fn reserved(&mut self, n: usize) -> Option<()> {
        self.bytes(n)?.iter().all(|&byte| byte == 0).then_some(())
    }

    /// Everything left (for trailing variable-length fields).
    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// Ends the decode: `value` if the payload was consumed exactly,
    /// `None` on trailing bytes.
    fn finish<T>(self, value: T) -> Option<T> {
        self.rest.is_empty().then_some(value)
    }
}

/// The write half of the cursor pair: little-endian appends onto one
/// `Vec<u8>`, so every payload `encode` mirrors its `decode` line by line.
struct Writer(Vec<u8>);

impl Writer {
    fn with_capacity(capacity: usize) -> Self {
        Self(Vec::with_capacity(capacity))
    }

    fn u8(&mut self, value: u8) -> &mut Self {
        self.0.push(value);
        self
    }

    fn u16(&mut self, value: u16) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    fn u32(&mut self, value: u32) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// The write side of [`Reader::flagged_u64`]: 0 means absent.
    fn flagged_u64(&mut self, value: u64) -> &mut Self {
        if value != 0 {
            self.u64(value);
        }
        self
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.extend_from_slice(bytes);
        self
    }

    fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// `bit` when `on`, else 0 — for assembling flag bytes.
fn flag(on: bool, bit: u8) -> u8 {
    if on {
        bit
    } else {
        0
    }
}

/// What a [`op::COUNT`] request asks to be counted (the plain global
/// count needs no mode bytes on the wire).
///
/// Orbit and sample replies ride back in the [`CountOk`] mode extension;
/// both execute on full-depth (IEP-free) plans server-side, so the
/// `no_iep` request flag is irrelevant to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// The global embedding count.
    #[default]
    Count,
    /// Per-vertex (orbit) counts; the reply summarizes them (sum, support,
    /// argmax) — full vectors do not fit a frame for large graphs.
    Orbit,
    /// A sampled Horvitz–Thompson estimate of the count.
    Sample {
        /// Sampling seed (a fixed seed reproduces the estimate).
        seed: u64,
        /// The sampling rate's IEEE-754 bits (kept as bits so the request
        /// stays `Eq` and byte-stable; see `QueryMode::sample_rate`).
        rate_bits: u64,
    },
}

impl QueryMode {
    /// Builds a sample mode from a plain rate.
    pub fn sample(seed: u64, rate: f64) -> Self {
        QueryMode::Sample {
            seed,
            rate_bits: rate.to_bits(),
        }
    }

    /// The sampling rate, for [`QueryMode::Sample`] (`None` otherwise).
    pub(crate) fn sample_rate(&self) -> Option<f64> {
        match self {
            QueryMode::Sample { rate_bits, .. } => Some(f64::from_bits(*rate_bits)),
            _ => None,
        }
    }
}

/// [`op::COUNT`] payload: execution flags, a deadline, an optional
/// client-generated request ID, an optional generation floor, an optional
/// query mode, and the pattern.
///
/// ```text
/// offset  size  field          present
/// 0       1     flags          always: bit0 = disable IEP, bit1 = hub
///                              bitsets, bit2 = request ID, bit3 = min
///                              generation, bit4 = query mode
/// 1       4     deadline_ms    always; u32 LE, 0 = no deadline
/// 5       8     request_id     u64 LE, only when flag bit2 is set
/// +0      8     min_generation u64 LE, only when flag bit3 is set
/// +0      1     mode           only when flag bit4 is set: 1 = orbit,
///                              2 = sample (0 is malformed — plain counts
///                              omit the flag)
/// +0      16    seed,rate_bits u64 LE each, only when mode = 2
/// +0      ...   pattern        Pattern::canonical_bytes
/// ```
///
/// The request ID makes retries after *ambiguous* failures safe: a client
/// whose connection died between sending a request and reading its reply
/// cannot know whether the query executed. Resending with the same
/// nonzero ID lets the server answer from its completed-request ledger
/// instead of executing (and accounting) the query twice.
///
/// The generation floor is the read-your-writes guard for read replicas:
/// a server whose graph has not yet reached `min_generation` waits
/// briefly for the replication stream to catch up, then answers
/// [`ErrorCode::RetryLater`] instead of serving a stale count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountRequest {
    /// Disable Inclusion–Exclusion counting for this query.
    pub no_iep: bool,
    /// Intersect through the hub bitset rows (same result).
    pub hub_bitsets: bool,
    /// Query deadline in milliseconds (0 = none). The deadline covers
    /// admission queueing and execution; an expired query gets
    /// [`ErrorCode::DeadlineExceeded`].
    pub deadline_ms: u32,
    /// Client-generated idempotency key (0 = absent; never sent on the
    /// wire as 0).
    pub request_id: u64,
    /// Lowest graph generation this count may be served from (0 = any;
    /// never sent on the wire as 0).
    pub min_generation: u64,
    /// What to count ([`QueryMode::Count`] is never sent on the wire:
    /// plain counts omit the mode flag).
    pub mode: QueryMode,
    /// The pattern, as canonical bytes.
    pub pattern: Vec<u8>,
}

impl CountRequest {
    const FLAG_NO_IEP: u8 = 1 << 0;
    const FLAG_HUBS: u8 = 1 << 1;
    const FLAG_REQUEST_ID: u8 = 1 << 2;
    const FLAG_MIN_GENERATION: u8 = 1 << 3;
    const FLAG_MODE: u8 = 1 << 4;
    /// Every defined flag: they fill the low bits up to `FLAG_MODE`.
    const KNOWN_FLAGS: u8 = (Self::FLAG_MODE << 1) - 1;
    const MODE_ORBIT: u8 = 1;
    const MODE_SAMPLE: u8 = 2;

    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Writer::with_capacity(38 + self.pattern.len());
        out.u8(flag(self.no_iep, Self::FLAG_NO_IEP)
            | flag(self.hub_bitsets, Self::FLAG_HUBS)
            | flag(self.request_id != 0, Self::FLAG_REQUEST_ID)
            | flag(self.min_generation != 0, Self::FLAG_MIN_GENERATION)
            | flag(self.mode != QueryMode::Count, Self::FLAG_MODE))
            .u32(self.deadline_ms)
            .flagged_u64(self.request_id)
            .flagged_u64(self.min_generation);
        match self.mode {
            QueryMode::Count => {}
            QueryMode::Orbit => {
                out.u8(Self::MODE_ORBIT);
            }
            QueryMode::Sample { seed, rate_bits } => {
                out.u8(Self::MODE_SAMPLE).u64(seed).u64(rate_bits);
            }
        }
        out.bytes(&self.pattern);
        out.finish()
    }

    /// Parses a payload; `None` on truncation, unknown flag bits, or an
    /// unknown mode byte (the pattern bytes themselves are validated later
    /// by `Pattern::from_canonical_bytes`).
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let flags = r.u8()?;
        if flags & !Self::KNOWN_FLAGS != 0 {
            return None;
        }
        let deadline_ms = r.u32()?;
        let request_id = r.flagged_u64(flags & Self::FLAG_REQUEST_ID != 0)?;
        let min_generation = r.flagged_u64(flags & Self::FLAG_MIN_GENERATION != 0)?;
        let mode = if flags & Self::FLAG_MODE == 0 {
            QueryMode::Count
        } else {
            match r.u8()? {
                Self::MODE_ORBIT => QueryMode::Orbit,
                Self::MODE_SAMPLE => QueryMode::Sample {
                    seed: r.u64()?,
                    rate_bits: r.u64()?,
                },
                _ => return None, // the flag promises a non-count mode
            }
        };
        Some(Self {
            no_iep: flags & Self::FLAG_NO_IEP != 0,
            hub_bitsets: flags & Self::FLAG_HUBS != 0,
            deadline_ms,
            request_id,
            min_generation,
            mode,
            pattern: r.rest().to_vec(),
        })
    }
}

/// Orbit-mode summary riding in the [`CountOk`] mode extension. Full
/// per-vertex vectors are `8 × |V|` bytes — beyond [`MAX_FRAME_LEN`] for
/// any serious graph — so the wire carries the aggregate a remote caller
/// can actually act on (totals and the hottest vertex); full vectors stay
/// a local-API affair ([`crate::engine::Session::count_per_vertex`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OrbitSummary {
    /// Sum of all per-vertex counts (= pattern size × global count).
    pub sum: u64,
    /// Number of vertices with a nonzero count.
    pub nonzero_vertices: u64,
    /// The largest per-vertex count.
    pub max_count: u64,
    /// A vertex achieving `max_count` (0 when the graph is empty).
    pub max_vertex: u32,
}

impl OrbitSummary {
    /// Summarises a per-vertex count vector (indexed by vertex id).
    pub fn of(counts: &[u64]) -> Self {
        let (max_vertex, max_count) = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(v, &c)| (v as u32, c))
            .unwrap_or((0, 0));
        Self {
            sum: counts.iter().sum(),
            nonzero_vertices: counts.iter().filter(|&&c| c > 0).count() as u64,
            max_count,
            max_vertex,
        }
    }
}

/// Sample-mode result riding in the [`CountOk`] mode extension (the
/// Horvitz–Thompson estimate; see
/// [`crate::engine::Session::count_approx`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleSummary {
    /// IEEE-754 bits of the estimate (bits keep the struct `Eq`).
    pub estimate_bits: u64,
    /// IEEE-754 bits of the estimated standard error.
    pub stderr_bits: u64,
    /// Prefix tasks sampled and counted exactly.
    pub sampled_tasks: u64,
    /// Total prefix tasks the search decomposed into.
    pub total_tasks: u64,
}

/// The mode-specific tail of a [`CountOk`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountExt {
    /// A plain count: no extension bytes.
    #[default]
    None,
    /// Orbit summary (`mode` byte 1 + 28 payload bytes).
    Orbit(OrbitSummary),
    /// Sample estimate (`mode` byte 2 + 32 payload bytes).
    Sample(SampleSummary),
}

/// [`op::COUNT_OK`] payload: the embedding count and the server-side
/// execution time (`[u64 count][u64 elapsed_micros]`, LE), optionally
/// followed by a mode extension: `[u8 mode]` then, for orbit (mode 1),
/// `[u64 sum][u64 nonzero][u64 max_count][u32 max_vertex]`, or for sample
/// (mode 2), `[u64 estimate_bits][u64 stderr_bits][u64 sampled]`
/// `[u64 total]`. Plain counts are exactly 16 bytes; mode replies only
/// ever answer mode requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountOk {
    /// Number of embeddings found. For orbit mode, the global count the
    /// orbit sum is consistent with; for sample mode, the estimate rounded
    /// to the nearest integer.
    pub count: u64,
    /// Server-side execution time in microseconds (excludes queueing).
    pub elapsed_micros: u64,
    /// The mode-specific tail ([`CountExt::None`] for plain counts).
    pub ext: CountExt,
}

impl CountOk {
    /// A plain-count reply (no mode extension).
    pub fn new(count: u64, elapsed_micros: u64) -> Self {
        Self {
            count,
            elapsed_micros,
            ext: CountExt::None,
        }
    }

    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Writer::with_capacity(16 + 33);
        out.u64(self.count).u64(self.elapsed_micros);
        match self.ext {
            CountExt::None => {}
            CountExt::Orbit(orbit) => {
                out.u8(CountRequest::MODE_ORBIT)
                    .u64(orbit.sum)
                    .u64(orbit.nonzero_vertices)
                    .u64(orbit.max_count)
                    .u32(orbit.max_vertex);
            }
            CountExt::Sample(sample) => {
                out.u8(CountRequest::MODE_SAMPLE)
                    .u64(sample.estimate_bits)
                    .u64(sample.stderr_bits)
                    .u64(sample.sampled_tasks)
                    .u64(sample.total_tasks);
            }
        }
        out.finish()
    }

    /// Parses a payload; `None` unless it is exactly 16 bytes (plain
    /// count) or 16 plus a well-formed mode extension.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let count = r.u64()?;
        let elapsed_micros = r.u64()?;
        let ext = if r.is_empty() {
            CountExt::None
        } else {
            match r.u8()? {
                CountRequest::MODE_ORBIT => CountExt::Orbit(OrbitSummary {
                    sum: r.u64()?,
                    nonzero_vertices: r.u64()?,
                    max_count: r.u64()?,
                    max_vertex: r.u32()?,
                }),
                CountRequest::MODE_SAMPLE => CountExt::Sample(SampleSummary {
                    estimate_bits: r.u64()?,
                    stderr_bits: r.u64()?,
                    sampled_tasks: r.u64()?,
                    total_tasks: r.u64()?,
                }),
                _ => return None,
            }
        };
        r.finish(Self {
            count,
            elapsed_micros,
            ext,
        })
    }
}

/// `op::ENUMERATE` payload: enumerate up to `limit` embeddings,
/// streamed back as [`op::ENUM_PAGE`] frames.
///
/// ```text
/// offset  size  field        notes
/// 0       1     flags        bit0 = hub bitsets
/// 1       4     deadline_ms  u32 LE, 0 = none; checked between pages, so
///                            an expired deadline cancels the stream at
///                            the next page boundary
/// 5       8     limit        u64 LE, ≥ 1 (0 is malformed: an unbounded
///                            remote enumeration is a typo, not a query)
/// 13      4     page_size    u32 LE embeddings per page; 0 = server
///                            default, always clamped to what fits a frame
/// 17      ...   pattern      Pattern::canonical_bytes
/// ```
///
/// Enumeration never enters the completed-request ledger (replaying a
/// result stream is not a single recorded reply), so there is no request
/// ID field: a client that loses its connection mid-stream restarts the
/// enumeration from scratch and must treat already-received pages as
/// stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumerateRequest {
    /// Intersect through the hub bitset rows (same result).
    pub hub_bitsets: bool,
    /// Deadline in milliseconds (0 = none), checked between pages.
    pub deadline_ms: u32,
    /// Maximum embeddings to return across all pages (≥ 1).
    pub limit: u64,
    /// Requested embeddings per page (0 = server default; clamped).
    pub page_size: u32,
    /// The pattern, as canonical bytes.
    pub pattern: Vec<u8>,
}

impl EnumerateRequest {
    const FLAG_HUBS: u8 = 1 << 0;

    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Writer::with_capacity(17 + self.pattern.len());
        out.u8(flag(self.hub_bitsets, Self::FLAG_HUBS))
            .u32(self.deadline_ms)
            .u64(self.limit)
            .u32(self.page_size)
            .bytes(&self.pattern);
        out.finish()
    }

    /// Parses a payload; `None` on truncation, unknown flag bits, or a
    /// zero limit.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let flags = r.u8()?;
        if flags & !Self::FLAG_HUBS != 0 {
            return None;
        }
        Some(Self {
            hub_bitsets: flags & Self::FLAG_HUBS != 0,
            deadline_ms: r.u32()?,
            limit: r.u64().filter(|&limit| limit != 0)?,
            page_size: r.u32()?,
            pattern: r.rest().to_vec(),
        })
    }
}

/// Largest number of embeddings of a `pattern_size`-vertex pattern that
/// fit one [`EnumPage`] frame under [`MAX_FRAME_LEN`].
pub(crate) fn max_embeddings_per_page(pattern_size: usize) -> usize {
    (MAX_FRAME_LEN - HEADER_LEN - 8) / (4 * pattern_size.max(1))
}

/// [`op::ENUM_PAGE`] payload: one page of an enumeration's result stream.
///
/// ```text
/// offset  size   field         notes
/// 0       1      flags         bit0 = last page of the stream
/// 1       1      pattern_size  k, vertices per embedding (1..=8)
/// 2       2      reserved      must be 0
/// 4       4      n             u32 LE, embeddings in this page
/// 8       4×n×k  vertices      u32 LE, pattern-vertex order, original ids
/// ```
///
/// Every stream ends with a bit0-flagged page (possibly empty), so a
/// client knows an unflagged quiet stream means a lost server, not a
/// finished query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumPage {
    /// Whether this is the stream's final page.
    pub last: bool,
    /// Vertices per embedding.
    pub pattern_size: u8,
    /// The page's embeddings, flattened (`n × pattern_size` vertex ids in
    /// pattern-vertex order).
    pub vertices: Vec<u32>,
}

impl EnumPage {
    const FLAG_LAST: u8 = 1 << 0;

    /// Number of embeddings in this page.
    pub(crate) fn len(&self) -> usize {
        self.vertices.len() / usize::from(self.pattern_size.max(1))
    }

    /// Iterates the page's embeddings as `pattern_size`-length slices.
    pub(crate) fn embeddings(&self) -> impl Iterator<Item = &[u32]> {
        self.vertices
            .chunks_exact(usize::from(self.pattern_size.max(1)))
    }

    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        debug_assert_eq!(
            self.vertices.len() % usize::from(self.pattern_size.max(1)),
            0
        );
        let mut out = Writer::with_capacity(8 + 4 * self.vertices.len());
        out.u8(flag(self.last, Self::FLAG_LAST))
            .u8(self.pattern_size)
            .u16(0)
            .u32(self.len() as u32);
        for &vertex in &self.vertices {
            out.u32(vertex);
        }
        out.finish()
    }

    /// Parses a payload; `None` on truncation, trailing bytes, unknown
    /// flag bits, nonzero reserved bytes, a zero pattern size, or a count
    /// that disagrees with the payload length.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let flags = r.u8()?;
        if flags & !Self::FLAG_LAST != 0 {
            return None;
        }
        let pattern_size = r.u8().filter(|&k| k != 0)?;
        r.reserved(2)?;
        let n = r.u32()? as usize;
        let vertices = r.u32s(n.checked_mul(usize::from(pattern_size))?)?.collect();
        r.finish(Self {
            last: flags & Self::FLAG_LAST != 0,
            pattern_size,
            vertices,
        })
    }
}

/// Largest number of edge pairs (inserts plus deletes) one
/// [`UpdateRequest`] can carry without its frame exceeding
/// [`MAX_FRAME_LEN`]. Clients split bigger batches.
pub const MAX_UPDATE_EDGES: usize = (MAX_FRAME_LEN - HEADER_LEN - 21) / 8;

/// `op::UPDATE` payload: a batch of undirected edge insertions and
/// deletions, applied atomically — inserts first, then deletes; the reply
/// carries the generation the batch produced.
///
/// ```text
/// offset  size  field
/// 0       1     flags       bit0 = request ID present
/// 1       4     deadline_ms u32 LE, 0 = no deadline
/// 5       8     request_id  u64 LE, only when flag bit0 is set
/// 5/13    4     n_inserts   u32 LE
/// +4      4     n_deletes   u32 LE
/// +8      8×n   edges       (u32 LE, u32 LE) pairs, inserts then deletes
/// ```
///
/// Updates are *not* idempotent by nature (replaying a batch after later
/// batches committed can change the graph), so retrying clients MUST tag
/// them with a request ID: the server's completed-request ledger then
/// answers a resent batch with the recorded reply instead of applying it
/// twice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateRequest {
    /// Deadline in milliseconds covering admission queueing (0 = none).
    pub deadline_ms: u32,
    /// Client-generated idempotency key (0 = absent; never sent on the
    /// wire as 0).
    pub request_id: u64,
    /// Undirected edges to insert.
    pub inserts: Vec<(u32, u32)>,
    /// Undirected edges to delete (after the inserts).
    pub deletes: Vec<(u32, u32)>,
}

impl UpdateRequest {
    const FLAG_REQUEST_ID: u8 = 1 << 0;

    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let edges = self.inserts.len() + self.deletes.len();
        let mut out = Writer::with_capacity(21 + 8 * edges);
        out.u8(flag(self.request_id != 0, Self::FLAG_REQUEST_ID))
            .u32(self.deadline_ms)
            .flagged_u64(self.request_id)
            .u32(self.inserts.len() as u32)
            .u32(self.deletes.len() as u32);
        for &(u, v) in self.inserts.iter().chain(self.deletes.iter()) {
            out.u32(u).u32(v);
        }
        out.finish()
    }

    /// Parses a payload; `None` on truncation, trailing bytes, unknown
    /// flag bits, or edge counts that disagree with the payload length.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let flags = r.u8()?;
        if flags & !Self::FLAG_REQUEST_ID != 0 {
            return None;
        }
        let deadline_ms = r.u32()?;
        let request_id = r.flagged_u64(flags & Self::FLAG_REQUEST_ID != 0)?;
        let n_inserts = r.u32()? as usize;
        let n_deletes = r.u32()? as usize;
        let inserts = r.pairs(n_inserts)?;
        let deletes = r.pairs(n_deletes)?;
        r.finish(Self {
            deadline_ms,
            request_id,
            inserts,
            deletes,
        })
    }
}

/// `op::UPDATE_OK` payload: the generation the batch produced plus what
/// it actually changed (`[u64 generation][u32 inserted][u32 deleted]`,
/// LE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOk {
    /// Graph generation after the batch; queries pinned to this or later
    /// generations observe the batch.
    pub generation: u64,
    /// Undirected edges that became present (no-ops excluded).
    pub inserted: u32,
    /// Undirected edges that became absent (no-ops excluded).
    pub deleted: u32,
}

impl UpdateOk {
    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Writer::with_capacity(16);
        out.u64(self.generation)
            .u32(self.inserted)
            .u32(self.deleted);
        out.finish()
    }

    /// Parses a payload; `None` unless it is exactly 16 bytes.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let ok = Self {
            generation: r.u64()?,
            inserted: r.u32()?,
            deleted: r.u32()?,
        };
        r.finish(ok)
    }
}

/// Server readiness, as reported by the `op::HEALTH` opcode. Probes and
/// load balancers branch on this without issuing a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HealthState {
    /// Accepting and executing queries.
    Ready = 0,
    /// Draining: in-flight queries finish, new work is refused.
    Draining = 1,
    /// The admission wait queue is full; new queries get
    /// [`ErrorCode::RetryLater`].
    Overloaded = 2,
}

impl HealthState {
    /// The wire byte for this state (its discriminant).
    pub(crate) fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a wire byte; `None` for unknown states.
    pub(crate) fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(HealthState::Ready),
            1 => Some(HealthState::Draining),
            2 => Some(HealthState::Overloaded),
            _ => None,
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthState::Ready => write!(f, "ready"),
            HealthState::Draining => write!(f, "draining"),
            HealthState::Overloaded => write!(f, "overloaded"),
        }
    }
}

/// A server's place in a replication topology, carried by [`HealthOk`]
/// and [`StatsOk`]. A standalone server reports
/// [`ReplRole::Primary`] — replication is the only way to be anything
/// else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum ReplRole {
    /// Serves writes; fans committed WAL records out to subscribers.
    #[default]
    Primary = 0,
    /// Follows a primary's WAL stream; writes get
    /// [`ErrorCode::NotPrimary`].
    Replica = 1,
    /// Promotion requested; the replication stream is being sealed.
    Promoting = 2,
}

impl ReplRole {
    /// The wire byte for this role (its discriminant).
    pub(crate) fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a wire byte; `None` for unknown roles.
    pub(crate) fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ReplRole::Primary),
            1 => Some(ReplRole::Replica),
            2 => Some(ReplRole::Promoting),
            _ => None,
        }
    }
}

impl fmt::Display for ReplRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplRole::Primary => write!(f, "primary"),
            ReplRole::Replica => write!(f, "replica"),
            ReplRole::Promoting => write!(f, "promoting"),
        }
    }
}

/// `op::HEALTH_OK` payload:
/// `[u8 state][u32 retry_after_ms][u8 role][u64 replication_lag]` (LE),
/// exactly 14 bytes. The retry-after hint is 0 when the server is ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthOk {
    /// The server's readiness state.
    pub state: HealthState,
    /// Suggested wait before sending work (0 = none needed).
    pub retry_after_ms: u32,
    /// The server's replication role.
    pub role: ReplRole,
    /// Generations this server trails its primary by (0 on a primary or
    /// a caught-up replica).
    pub replication_lag: u64,
}

impl HealthOk {
    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Writer::with_capacity(14);
        out.u8(self.state.code())
            .u32(self.retry_after_ms)
            .u8(self.role.code())
            .u64(self.replication_lag);
        out.finish()
    }

    /// Parses a payload; `None` unless it is exactly 14 bytes with known
    /// state and role bytes.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let health = Self {
            state: HealthState::from_code(r.u8()?)?,
            retry_after_ms: r.u32()?,
            role: ReplRole::from_code(r.u8()?)?,
            replication_lag: r.u64()?,
        };
        r.finish(health)
    }
}

/// Number of buckets in the serving latency histogram: bucket 0 holds
/// sub-microsecond samples, bucket `b ≥ 1` holds `[2^(b-1), 2^b)`
/// microseconds, and the last bucket absorbs everything slower (≈ 36
/// minutes), so no sample is ever dropped.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A log2 latency histogram over microseconds (see [`HISTOGRAM_BUCKETS`]
/// for the bucket layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sample counts per bucket.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// The bucket index for a sample of `micros` microseconds.
    pub fn bucket_index(micros: u64) -> usize {
        if micros == 0 {
            0
        } else {
            ((micros.ilog2() as usize) + 1).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, micros: u64) {
        let bucket = &mut self.buckets[Self::bucket_index(micros)];
        *bucket = bucket.saturating_add(1);
    }

    /// Total number of recorded samples (saturating: decoded histograms
    /// may carry counts near `u64::MAX`).
    pub fn total(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |acc, &count| acc.saturating_add(count))
    }

    /// Inclusive lower bound (in microseconds) of bucket `index`.
    pub fn bucket_floor_micros(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << (index - 1)
        }
    }

    /// An upper bound (in microseconds) below which at least `p` (0..=1.0)
    /// of the samples fall — the histogram-resolution percentile. Returns
    /// `None` when the histogram is empty.
    pub fn percentile_upper_bound_micros(&self, p: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let target = (p.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (index, &count) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(count);
            if seen >= target.max(1) {
                return Some(if index + 1 < HISTOGRAM_BUCKETS {
                    1u64 << index
                } else {
                    u64::MAX
                });
            }
        }
        Some(u64::MAX)
    }
}

/// [`op::STATS_OK`] payload: a full server counter snapshot. Fixed-size
/// (exactly 380 bytes, all LE): seven `u32` gauges, eight `u64` counters,
/// the 32-bucket latency histogram, then
/// `[u64 replication_lag][u8 role][7 reserved zero bytes]`
/// `[u64 enumerations_total][u64 pages_sent]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsOk {
    /// Worker threads currently alive in the pool.
    pub live_workers: u32,
    /// The pool's concurrent-job limit.
    pub max_in_flight: u32,
    /// Jobs executing on the pool right now.
    pub in_flight: u32,
    /// Count requests waiting for admission (queue depth).
    pub queued: u32,
    /// Plans currently in the cache.
    pub cache_len: u32,
    /// Plan-cache capacity.
    pub cache_capacity: u32,
    /// Reserved, always 0; kept so the 380-byte layout is unchanged.
    pub warm_started: u32,
    /// Connections accepted since boot.
    pub connections_total: u64,
    /// Count queries that entered execution (admitted; includes rejected
    /// patterns and late completions, excludes queries cancelled while
    /// queued). `cache_hits + cache_misses == queries_total`.
    pub queries_total: u64,
    /// Queries whose deadline expired (while queued or before reply).
    pub deadline_exceeded: u64,
    /// Malformed frames / protocol violations observed.
    pub protocol_errors: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache evictions.
    pub cache_evictions: u64,
    /// Count queries refused with [`ErrorCode::RetryLater`] because the
    /// admission wait queue was full.
    pub overload_rejections: u64,
    /// Per-query execution latency histogram.
    pub latency: LatencyHistogram,
    /// Generations this server trails its primary by (0 on a primary).
    pub replication_lag: u64,
    /// The server's replication role.
    pub repl_role: ReplRole,
    /// Enumeration streams started.
    pub enumerations_total: u64,
    /// Enumeration result pages sent across all streams.
    pub pages_sent: u64,
}

impl StatsOk {
    const ENCODED_LEN: usize = 7 * 4 + 8 * 8 + HISTOGRAM_BUCKETS * 8 + 16 + 16;
    /// Zero bytes after the role byte: they keep the tail 8-byte aligned
    /// and leave room for the next small field without a length change.
    const RESERVED: usize = 7;

    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Writer::with_capacity(Self::ENCODED_LEN);
        for gauge in [
            self.live_workers,
            self.max_in_flight,
            self.in_flight,
            self.queued,
            self.cache_len,
            self.cache_capacity,
            self.warm_started,
        ] {
            out.u32(gauge);
        }
        for counter in [
            self.connections_total,
            self.queries_total,
            self.deadline_exceeded,
            self.protocol_errors,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.overload_rejections,
        ] {
            out.u64(counter);
        }
        for bucket in self.latency.buckets {
            out.u64(bucket);
        }
        out.u64(self.replication_lag)
            .u8(self.repl_role.code())
            .bytes(&[0; Self::RESERVED])
            .u64(self.enumerations_total)
            .u64(self.pages_sent);
        out.finish()
    }

    /// Parses a payload; `None` unless it is exactly the one fixed length,
    /// with a known role byte and zeroed reserved bytes.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let mut stats = Self::default();
        for gauge in [
            &mut stats.live_workers,
            &mut stats.max_in_flight,
            &mut stats.in_flight,
            &mut stats.queued,
            &mut stats.cache_len,
            &mut stats.cache_capacity,
            &mut stats.warm_started,
        ] {
            *gauge = r.u32()?;
        }
        for counter in [
            &mut stats.connections_total,
            &mut stats.queries_total,
            &mut stats.deadline_exceeded,
            &mut stats.protocol_errors,
            &mut stats.cache_hits,
            &mut stats.cache_misses,
            &mut stats.cache_evictions,
            &mut stats.overload_rejections,
        ] {
            *counter = r.u64()?;
        }
        for bucket in &mut stats.latency.buckets {
            *bucket = r.u64()?;
        }
        stats.replication_lag = r.u64()?;
        stats.repl_role = ReplRole::from_code(r.u8()?)?;
        r.reserved(Self::RESERVED)?;
        stats.enumerations_total = r.u64()?;
        stats.pages_sent = r.u64()?;
        r.finish(stats)
    }
}

/// Largest number of raw stream bytes one [`ReplBatch`] ships. Sized so
/// the frame stays well under [`MAX_FRAME_LEN`]; a single WAL record can
/// exceed one frame (a full-size update's record does), which is why the
/// stream is shipped as raw byte ranges a replica reassembles rather than
/// whole records.
pub(crate) const REPL_CHUNK_BYTES: usize = 48 * 1024;

/// [`op::REPL_SUBSCRIBE`] payload: the cursor a replica wants the WAL
/// stream resumed from — `[u8 flags=0][u64 generation][u64 offset]` (LE),
/// exactly 17 bytes. `generation` is the replica's current graph
/// generation; `offset` is a byte-offset hint into the primary's log (the
/// `next_offset` of the last [`ReplBatch`] it durably applied, 0 when
/// unknown). The primary trusts the hint only after re-validating it and
/// falls back to a full scan — or a checkpoint bootstrap when the cursor
/// predates the log's base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplSubscribe {
    /// The replica's current graph generation.
    pub generation: u64,
    /// Byte-offset hint into the primary's WAL (0 = unknown).
    pub offset: u64,
}

impl ReplSubscribe {
    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Writer::with_capacity(17);
        out.u8(0).u64(self.generation).u64(self.offset);
        out.finish()
    }

    /// Parses a payload; `None` unless it is exactly 17 bytes with a zero
    /// flags byte.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        r.reserved(1)?;
        let subscribe = Self {
            generation: r.u64()?,
            offset: r.u64()?,
        };
        r.finish(subscribe)
    }
}

/// What one [`ReplBatch`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplPayload {
    /// `bytes` is a raw slice of the primary's WAL record stream (not
    /// necessarily record-aligned; empty = heartbeat). `next_offset` is
    /// the primary's log offset after these bytes.
    Records,
    /// `bytes` is a chunk of the primary's checkpoint file (a cursor too
    /// old for the log bootstraps from the full graph). `next_offset` is
    /// the offset into that file after this chunk.
    Checkpoint {
        /// Whether this is the final chunk: the replica loads the file,
        /// installs it at `ReplBatch::generation`, and resubscribes from
        /// there.
        done: bool,
    },
}

/// [`op::REPL_BATCH`] payload: one shipment from primary to replica —
/// `[u8 flags][u64 primary_generation][u64 generation][u64 next_offset]`
/// `[u32 n][n bytes]` (LE), exactly `29 + n` bytes. Flag bit0 marks a
/// checkpoint chunk, bit1 (only with bit0) marks the final one; no flags
/// means raw WAL stream bytes, and an empty `bytes` is the heartbeat that
/// keeps lag reporting fresh while the replica is caught up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplBatch {
    /// What `bytes` is (see [`ReplPayload`]).
    pub payload: ReplPayload,
    /// The primary's current graph generation at send time — the replica
    /// derives its lag from this.
    pub primary_generation: u64,
    /// For records: the stream horizon these bytes were shipped under.
    /// For checkpoint chunks: the generation the finished file installs
    /// at.
    pub generation: u64,
    /// The cursor after consuming `bytes` (log offset for records, file
    /// offset for checkpoint chunks) — what the replica echoes back in
    /// its next [`ReplAck`].
    pub next_offset: u64,
    /// The shipped bytes (≤ `REPL_CHUNK_BYTES`).
    pub bytes: Vec<u8>,
}

impl ReplBatch {
    const FLAG_CHECKPOINT: u8 = 1 << 0;
    const FLAG_CHECKPOINT_DONE: u8 = 1 << 1;

    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let flags = match self.payload {
            ReplPayload::Records => 0,
            ReplPayload::Checkpoint { done } => {
                Self::FLAG_CHECKPOINT | flag(done, Self::FLAG_CHECKPOINT_DONE)
            }
        };
        let mut out = Writer::with_capacity(29 + self.bytes.len());
        out.u8(flags)
            .u64(self.primary_generation)
            .u64(self.generation)
            .u64(self.next_offset)
            .u32(self.bytes.len() as u32)
            .bytes(&self.bytes);
        out.finish()
    }

    /// Parses a payload; `None` on truncation, trailing bytes, unknown
    /// flag bits, or a done flag without the checkpoint flag.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let flags = r.u8()?;
        let payload = match flags {
            0 => ReplPayload::Records,
            Self::FLAG_CHECKPOINT => ReplPayload::Checkpoint { done: false },
            f if f == Self::FLAG_CHECKPOINT | Self::FLAG_CHECKPOINT_DONE => {
                ReplPayload::Checkpoint { done: true }
            }
            _ => return None, // unknown bits, or done without checkpoint
        };
        let primary_generation = r.u64()?;
        let generation = r.u64()?;
        let next_offset = r.u64()?;
        let n = r.u32()? as usize;
        let bytes = r.bytes(n)?.to_vec();
        r.finish(Self {
            payload,
            primary_generation,
            generation,
            next_offset,
            bytes,
        })
    }
}

/// `op::REPL_ACK` payload: the replica's durable cursor after applying
/// a [`ReplBatch`] — `[u64 generation][u64 offset]` (LE), exactly 16
/// bytes. The primary computes subscriber lag from `generation` and
/// resumes shipping from `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplAck {
    /// The replica's graph generation after applying the batch.
    pub generation: u64,
    /// The cursor the replica expects the next shipment from (echoed
    /// `next_offset`).
    pub offset: u64,
}

impl ReplAck {
    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Writer::with_capacity(16);
        out.u64(self.generation).u64(self.offset);
        out.finish()
    }

    /// Parses a payload; `None` unless it is exactly 16 bytes.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let ack = Self {
            generation: r.u64()?,
            offset: r.u64()?,
        };
        r.finish(ack)
    }
}

/// `op::PROMOTE_OK` payload: `[u64 generation]` (LE), exactly 8 bytes —
/// the generation the newly promoted (or already-) primary serves writes
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PromoteOk {
    /// The promoted server's current graph generation.
    pub generation: u64,
}

impl PromoteOk {
    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Writer::with_capacity(8);
        out.u64(self.generation);
        out.finish()
    }

    /// Parses a payload; `None` unless it is exactly 8 bytes.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let generation = r.u64()?;
        r.finish(Self { generation })
    }
}

/// [`op::ERROR`] payload: `[u8 code][u16 msg_len][msg utf8]`, optionally
/// followed by a 4-byte LE retry-after hint in milliseconds. The message
/// is capped at `WireError::MAX_MESSAGE_LEN` bytes so that the error
/// frame — hint included — always fits [`MAX_FRAME_LEN`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The typed error code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Suggested client backoff before retrying.
    pub retry_after_ms: Option<u32>,
}

impl WireError {
    /// Longest message an error frame can carry: the frame cap less the
    /// frame header, the 3-byte code/length prefix and the 4-byte hint.
    pub(crate) const MAX_MESSAGE_LEN: usize = MAX_FRAME_LEN - HEADER_LEN - 7;

    /// Builds an error payload, truncating the message (on a char
    /// boundary) to `WireError::MAX_MESSAGE_LEN` bytes.
    pub fn new(code: ErrorCode, message: &str) -> Self {
        let mut cut = message.len().min(Self::MAX_MESSAGE_LEN);
        while !message.is_char_boundary(cut) {
            cut -= 1;
        }
        Self {
            code,
            message: message[..cut].to_string(),
            retry_after_ms: None,
        }
    }

    /// Attaches a retry-after hint (milliseconds).
    pub fn with_retry_after(mut self, retry_after_ms: u32) -> Self {
        self.retry_after_ms = Some(retry_after_ms);
        self
    }

    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Writer::with_capacity(3 + self.message.len() + 4);
        out.u8(self.code.code())
            .u16(self.message.len() as u16)
            .bytes(self.message.as_bytes());
        if let Some(ms) = self.retry_after_ms {
            out.u32(ms);
        }
        out.finish()
    }

    /// Parses a payload; `None` on truncation, unexpected trailing bytes,
    /// or non-UTF-8 text. Exactly four trailing bytes decode as the
    /// retry-after hint.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let code = ErrorCode::from_code(r.u8()?);
        let msg_len = usize::from(r.u16()?);
        let message = String::from_utf8(r.bytes(msg_len)?.to_vec()).ok()?;
        let retry_after_ms = if r.is_empty() { None } else { Some(r.u32()?) };
        r.finish(Self {
            code,
            message,
            retry_after_ms,
        })
    }

    /// Converts into the error the client surfaces.
    pub fn into_net_error(self) -> NetError {
        NetError::Remote {
            code: self.code,
            message: self.message,
            retry_after_ms: self.retry_after_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trips_through_a_byte_stream() {
        for frame in [
            Frame::new(op::PING, vec![]),
            Frame::new(op::COUNT, vec![1, 2, 3, 4, 5, 6]),
            Frame::new(0xEE, vec![0; 1000]),
            Frame::error(ErrorCode::BadPayload, "nope"),
        ] {
            let bytes = frame.encode();
            let mut cursor = Cursor::new(bytes);
            assert_eq!(read_frame(&mut cursor).unwrap(), frame);
            // Nothing left: a second read sees clean EOF.
            assert!(matches!(read_frame(&mut cursor), Err(NetError::Closed)));
        }
    }

    #[test]
    fn malformed_streams_yield_typed_errors() {
        // Truncated length prefix.
        assert!(matches!(
            read_frame(&mut Cursor::new(vec![7u8, 0])),
            Err(NetError::Truncated)
        ));
        // Length shorter than the header.
        let mut short = Vec::new();
        short.extend_from_slice(&3u32.to_le_bytes());
        short.extend_from_slice(b"GP\x01");
        assert!(matches!(
            read_frame(&mut Cursor::new(short)),
            Err(NetError::Protocol(_))
        ));
        // Oversized length prefix fails before any allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(huge)),
            Err(NetError::FrameTooLarge(_))
        ));
        // Wrong magic.
        let mut bad_magic = Frame::new(op::PING, vec![]).encode();
        bad_magic[4] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(bad_magic)),
            Err(NetError::BadMagic)
        ));
        // Wrong version.
        let mut bad_version = Frame::new(op::PING, vec![]).encode();
        bad_version[6] = 9;
        assert!(matches!(
            read_frame(&mut Cursor::new(bad_version)),
            Err(NetError::UnsupportedVersion(9))
        ));
        // Body truncated mid-frame.
        let full = Frame::new(op::COUNT, vec![1, 2, 3]).encode();
        for cut in 1..full.len() {
            let result = read_frame(&mut Cursor::new(full[..cut].to_vec()));
            assert!(result.is_err(), "cut at {cut} must not parse");
        }
    }

    #[test]
    fn payload_codecs_round_trip() {
        let req = CountRequest {
            no_iep: true,
            hub_bitsets: false,
            deadline_ms: 1234,
            request_id: 0,
            min_generation: 0,
            mode: QueryMode::Count,
            pattern: vec![3, 0b110, 0b101, 0b011],
        };
        assert_eq!(CountRequest::decode(&req.encode()).unwrap(), req);
        assert!(CountRequest::decode(&[]).is_none());
        assert!(
            CountRequest::decode(&[0xFF, 0, 0, 0, 0, 1]).is_none(),
            "unknown flags"
        );

        // Request IDs round-trip and change the encoded length.
        let tagged = CountRequest {
            request_id: 0xDEAD_BEEF_CAFE_F00D,
            ..req.clone()
        };
        assert_eq!(CountRequest::decode(&tagged.encode()).unwrap(), tagged);
        assert_eq!(tagged.encode().len(), req.encode().len() + 8);
        // The flag with a zero id is malformed.
        let mut zero_id = tagged.encode();
        for byte in &mut zero_id[5..13] {
            *byte = 0;
        }
        assert!(CountRequest::decode(&zero_id).is_none());

        let ok = CountOk::new(u64::MAX - 3, 17);
        assert_eq!(CountOk::decode(&ok.encode()).unwrap(), ok);
        assert!(CountOk::decode(&ok.encode()[..15]).is_none());

        let mut stats = StatsOk {
            live_workers: 4,
            queries_total: 99,
            cache_hits: 90,
            cache_misses: 9,
            ..StatsOk::default()
        };
        stats.latency.record(0);
        stats.latency.record(1);
        stats.latency.record(1500);
        assert_eq!(StatsOk::decode(&stats.encode()).unwrap(), stats);
        assert!(StatsOk::decode(&stats.encode()[1..]).is_none());

        let err = WireError::new(ErrorCode::DeadlineExceeded, "too slow");
        assert_eq!(WireError::decode(&err.encode()).unwrap(), err);
        assert!(WireError::decode(&err.encode()[..2]).is_none());
        // A single trailing byte is neither nothing nor a 4-byte hint.
        let mut padded = err.encode();
        padded.push(0);
        assert!(WireError::decode(&padded).is_none());

        // The retry-after hint rides as exactly four trailing bytes.
        let hinted = WireError::new(ErrorCode::RetryLater, "busy").with_retry_after(250);
        assert_eq!(hinted.encode().len(), 3 + 4 + 4);
        let decoded = WireError::decode(&hinted.encode()).unwrap();
        assert_eq!(decoded, hinted);
        assert_eq!(decoded.retry_after_ms, Some(250));
        match decoded.into_net_error() {
            NetError::Remote {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, ErrorCode::RetryLater);
                assert!(code.is_retryable());
                assert_eq!(retry_after_ms, Some(250));
            }
            other => panic!("expected Remote, got {other:?}"),
        }

        let health = HealthOk {
            state: HealthState::Overloaded,
            retry_after_ms: 75,
            role: ReplRole::Primary,
            replication_lag: 0,
        };
        assert_eq!(HealthOk::decode(&health.encode()).unwrap(), health);
        assert!(
            HealthOk::decode(&[3, 0, 0, 0, 0]).is_none(),
            "unknown state"
        );
        assert!(HealthOk::decode(&health.encode()[..4]).is_none());
        for state in [
            HealthState::Ready,
            HealthState::Draining,
            HealthState::Overloaded,
        ] {
            assert_eq!(HealthState::from_code(state.code()), Some(state));
        }
    }

    #[test]
    fn update_codecs_round_trip() {
        let bare = UpdateRequest {
            deadline_ms: 0,
            request_id: 0,
            inserts: vec![],
            deletes: vec![],
        };
        assert_eq!(UpdateRequest::decode(&bare.encode()).unwrap(), bare);

        let req = UpdateRequest {
            deadline_ms: 900,
            request_id: 0x1234_5678_9ABC_DEF0,
            inserts: vec![(0, 7), (3, 3), (u32::MAX, 1)],
            deletes: vec![(2, 5)],
        };
        let bytes = req.encode();
        assert_eq!(UpdateRequest::decode(&bytes).unwrap(), req);
        // Tagged requests are 8 bytes longer than untagged ones.
        let untagged = UpdateRequest {
            request_id: 0,
            ..req.clone()
        };
        assert_eq!(bytes.len(), untagged.encode().len() + 8);

        // Truncations never parse.
        for cut in 0..bytes.len() {
            assert!(
                UpdateRequest::decode(&bytes[..cut]).is_none(),
                "cut at {cut}"
            );
        }
        // Trailing bytes never parse.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(UpdateRequest::decode(&padded).is_none());
        // Unknown flag bits never parse.
        let mut flagged = bytes.clone();
        flagged[0] |= 0x80;
        assert!(UpdateRequest::decode(&flagged).is_none());
        // The request-id flag with a zero id is malformed.
        let mut zero_id = bytes.clone();
        for byte in &mut zero_id[5..13] {
            *byte = 0;
        }
        assert!(UpdateRequest::decode(&zero_id).is_none());
        // Edge counts that disagree with the payload length never parse.
        let mut wrong_count = bytes.clone();
        wrong_count[13] = wrong_count[13].wrapping_add(1);
        assert!(UpdateRequest::decode(&wrong_count).is_none());

        let ok = UpdateOk {
            generation: u64::MAX - 9,
            inserted: 3,
            deleted: 1,
        };
        assert_eq!(UpdateOk::decode(&ok.encode()).unwrap(), ok);
        assert_eq!(ok.encode().len(), 16);
        assert!(UpdateOk::decode(&ok.encode()[..15]).is_none());

        // A full-size batch still fits in one frame.
        let full = UpdateRequest {
            deadline_ms: 0,
            request_id: 1,
            inserts: vec![(1, 2); MAX_UPDATE_EDGES],
            deletes: vec![],
        };
        assert!(Frame::new(op::UPDATE, full.encode()).encode().len() <= MAX_FRAME_LEN + 4);
        assert!(ErrorCode::ReadOnly.code() == 12 && !ErrorCode::ReadOnly.is_retryable());
    }

    #[test]
    fn every_other_version_byte_is_refused() {
        // One version is spoken: the retired v1, a future v3 and anything
        // else fail with the byte seen, before the opcode is looked at.
        for version in (0..=u8::MAX).filter(|&v| v != VERSION) {
            let mut bytes = Frame::new(op::PING, vec![]).encode();
            bytes[6] = version;
            assert!(matches!(
                read_frame(&mut Cursor::new(bytes)),
                Err(NetError::UnsupportedVersion(seen)) if seen == version
            ));
        }
    }

    #[test]
    fn oversized_error_messages_still_fit_one_frame() {
        // 70 000 bytes of message cannot ride in a 64 KiB frame: the
        // constructor truncates (on a char boundary) so the frame is
        // always readable, with and without the 4-byte hint.
        let long = "x".repeat(70_000);
        let hinted = WireError::new(ErrorCode::RetryLater, &long).with_retry_after(250);
        for frame in [
            Frame::error(ErrorCode::Internal, &long),
            hinted.clone().into(),
        ] {
            let decoded = read_frame(&mut Cursor::new(frame.encode())).unwrap();
            let error = WireError::decode(&decoded.payload).unwrap();
            assert_eq!(error.message.len(), WireError::MAX_MESSAGE_LEN);
        }
        assert_eq!(Frame::from(hinted).encode().len(), 4 + MAX_FRAME_LEN);
        // A multi-byte char straddling the cap is dropped whole.
        let wide = "\u{e9}".repeat(40_000);
        let error = WireError::new(ErrorCode::Internal, &wide);
        assert_eq!(error.message.len(), WireError::MAX_MESSAGE_LEN - 1);
        assert_eq!(WireError::decode(&error.encode()).unwrap(), error);
    }

    #[test]
    fn error_codes_round_trip() {
        for byte in 0u8..=255 {
            assert_eq!(ErrorCode::from_code(byte).code(), byte);
        }
    }

    #[test]
    fn replication_codecs_round_trip() {
        let sub = ReplSubscribe {
            generation: 42,
            offset: 8_192,
        };
        assert_eq!(sub.encode().len(), 17);
        assert_eq!(ReplSubscribe::decode(&sub.encode()), Some(sub));
        // Exactly 17 bytes with a zero flags byte, nothing else.
        assert!(ReplSubscribe::decode(&sub.encode()[..16]).is_none());
        let mut bad_flags = sub.encode();
        bad_flags[0] = 1;
        assert!(ReplSubscribe::decode(&bad_flags).is_none());

        for payload in [
            ReplPayload::Records,
            ReplPayload::Checkpoint { done: false },
            ReplPayload::Checkpoint { done: true },
        ] {
            for bytes in [vec![], vec![0xAB; 100]] {
                let batch = ReplBatch {
                    payload,
                    primary_generation: 7,
                    generation: 5,
                    next_offset: 1_234,
                    bytes,
                };
                let encoded = batch.encode();
                assert_eq!(encoded.len(), 29 + batch.bytes.len());
                assert_eq!(ReplBatch::decode(&encoded), Some(batch));
            }
        }
        let batch = ReplBatch {
            payload: ReplPayload::Records,
            primary_generation: 1,
            generation: 1,
            next_offset: 64,
            bytes: vec![1, 2, 3],
        };
        let encoded = batch.encode();
        // Truncation, trailing garbage, done-without-checkpoint and
        // unknown flag bits are all refused.
        assert!(ReplBatch::decode(&encoded[..encoded.len() - 1]).is_none());
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(ReplBatch::decode(&trailing).is_none());
        let mut done_only = encoded.clone();
        done_only[0] = 1 << 1;
        assert!(ReplBatch::decode(&done_only).is_none());
        let mut unknown = encoded;
        unknown[0] = 1 << 4;
        assert!(ReplBatch::decode(&unknown).is_none());

        let ack = ReplAck {
            generation: 9,
            offset: 77,
        };
        assert_eq!(ack.encode().len(), 16);
        assert_eq!(ReplAck::decode(&ack.encode()), Some(ack));
        assert!(ReplAck::decode(&ack.encode()[..15]).is_none());

        let ok = PromoteOk { generation: 11 };
        assert_eq!(ok.encode().len(), 8);
        assert_eq!(PromoteOk::decode(&ok.encode()), Some(ok));
        assert!(PromoteOk::decode(&[0; 7]).is_none());
    }

    #[test]
    fn stats_and_health_have_exactly_one_length() {
        let stats = StatsOk {
            enumerations_total: 12,
            pages_sent: 345,
            replication_lag: 1,
            repl_role: ReplRole::Replica,
            ..StatsOk::default()
        };
        let bytes = stats.encode();
        assert_eq!(bytes.len(), 380);
        assert_eq!(StatsOk::decode(&bytes).unwrap(), stats);
        // Any other length is refused — including the two shorter layouts
        // older builds used to emit (316 and 348 bytes).
        for len in (0..bytes.len()).rev().step_by(8).chain([316, 348]) {
            assert!(StatsOk::decode(&bytes[..len]).is_none(), "length {len}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(StatsOk::decode(&longer).is_none());
        // Reserved bytes must be zero and the role byte known.
        let mut reserved = bytes.clone();
        reserved[380 - 17] = 1;
        assert!(StatsOk::decode(&reserved).is_none());
        let mut role = bytes;
        role[380 - 24] = 9;
        assert!(StatsOk::decode(&role).is_none());

        let health = HealthOk {
            state: HealthState::Ready,
            retry_after_ms: 0,
            role: ReplRole::Replica,
            replication_lag: 3,
        };
        assert_eq!(health.encode().len(), 14);
        assert_eq!(HealthOk::decode(&health.encode()).unwrap(), health);
        assert!(HealthOk::decode(&health.encode()[..5]).is_none());
    }

    #[test]
    fn query_mode_round_trips_on_count_requests() {
        let base = CountRequest {
            no_iep: false,
            hub_bitsets: true,
            deadline_ms: 50,
            request_id: 0,
            min_generation: 0,
            mode: QueryMode::Count,
            pattern: vec![3, 0b110, 0b101, 0b011],
        };
        let orbit = CountRequest {
            mode: QueryMode::Orbit,
            ..base.clone()
        };
        assert_eq!(CountRequest::decode(&orbit.encode()).unwrap(), orbit);
        assert_eq!(orbit.encode().len(), base.encode().len() + 1);

        let sample = CountRequest {
            mode: QueryMode::sample(0xFEED, 0.25),
            ..base.clone()
        };
        let decoded = CountRequest::decode(&sample.encode()).unwrap();
        assert_eq!(decoded, sample);
        assert_eq!(decoded.mode.sample_rate(), Some(0.25));
        assert_eq!(sample.encode().len(), base.encode().len() + 17);

        // Modes compose with the other optional fields.
        let full = CountRequest {
            request_id: 7,
            min_generation: 3,
            mode: QueryMode::sample(1, 0.5),
            ..base.clone()
        };
        assert_eq!(CountRequest::decode(&full.encode()).unwrap(), full);

        // The mode flag with a zero mode byte is malformed (plain counts
        // omit the flag), as is an unknown mode byte.
        let mut zero_mode = orbit.encode();
        let mode_pos = 5; // flags + deadline, no id/generation
        assert_eq!(zero_mode[mode_pos], 1);
        zero_mode[mode_pos] = 0;
        assert!(CountRequest::decode(&zero_mode).is_none());
        zero_mode[mode_pos] = 9;
        assert!(CountRequest::decode(&zero_mode).is_none());
        // A sample mode cut off before its parameters never parses.
        let cut = sample.encode();
        assert!(CountRequest::decode(&cut[..cut.len() - sample.pattern.len() - 1]).is_none());
    }

    #[test]
    fn count_ok_mode_extensions_round_trip() {
        let plain = CountOk::new(9, 100);
        assert_eq!(plain.encode().len(), 16);
        assert_eq!(CountOk::decode(&plain.encode()).unwrap(), plain);

        let orbit = CountOk {
            count: 9,
            elapsed_micros: 100,
            ext: CountExt::Orbit(OrbitSummary {
                sum: 45,
                nonzero_vertices: 21,
                max_count: 7,
                max_vertex: 3,
            }),
        };
        assert_eq!(orbit.encode().len(), 16 + 29);
        assert_eq!(CountOk::decode(&orbit.encode()).unwrap(), orbit);

        let sample = CountOk {
            count: 10,
            elapsed_micros: 50,
            ext: CountExt::Sample(SampleSummary {
                estimate_bits: 10.25f64.to_bits(),
                stderr_bits: 1.5f64.to_bits(),
                sampled_tasks: 12,
                total_tasks: 40,
            }),
        };
        assert_eq!(sample.encode().len(), 16 + 33);
        let decoded = CountOk::decode(&sample.encode()).unwrap();
        assert_eq!(decoded, sample);
        let CountExt::Sample(s) = decoded.ext else {
            panic!("expected a sample extension");
        };
        assert_eq!(f64::from_bits(s.estimate_bits), 10.25);
        assert_eq!(f64::from_bits(s.stderr_bits), 1.5);

        // Wrong extension lengths and unknown tags are refused.
        assert!(CountOk::decode(&orbit.encode()[..16 + 28]).is_none());
        assert!(CountOk::decode(&sample.encode()[..16 + 32]).is_none());
        let mut unknown = plain.encode();
        unknown.push(9);
        assert!(CountOk::decode(&unknown).is_none());
    }

    #[test]
    fn enumerate_codecs_round_trip() {
        let req = EnumerateRequest {
            hub_bitsets: true,
            deadline_ms: 2_000,
            limit: 1_000,
            page_size: 64,
            pattern: vec![3, 0b110, 0b101, 0b011],
        };
        assert_eq!(EnumerateRequest::decode(&req.encode()).unwrap(), req);
        // Zero limits, unknown flags and truncations never parse.
        let zero_limit = EnumerateRequest {
            limit: 0,
            ..req.clone()
        };
        assert!(EnumerateRequest::decode(&zero_limit.encode()).is_none());
        let mut flagged = req.encode();
        flagged[0] |= 0x80;
        assert!(EnumerateRequest::decode(&flagged).is_none());
        assert!(EnumerateRequest::decode(&req.encode()[..16]).is_none());

        let page = EnumPage {
            last: false,
            pattern_size: 3,
            vertices: vec![1, 2, 3, 9, 8, 7],
        };
        assert_eq!(page.len(), 2);
        assert_eq!(EnumPage::decode(&page.encode()).unwrap(), page);
        assert_eq!(
            page.embeddings().collect::<Vec<_>>(),
            vec![&[1, 2, 3][..], &[9, 8, 7][..]]
        );
        let terminal = EnumPage {
            last: true,
            pattern_size: 5,
            vertices: vec![],
        };
        assert_eq!(EnumPage::decode(&terminal.encode()).unwrap(), terminal);

        // Malformed pages are refused: truncation, trailing bytes, a
        // count/length mismatch, unknown flags, nonzero reserved bytes,
        // and a zero pattern size.
        let bytes = page.encode();
        assert!(EnumPage::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(EnumPage::decode(&trailing).is_none());
        let mut wrong_count = bytes.clone();
        wrong_count[4] = 3;
        assert!(EnumPage::decode(&wrong_count).is_none());
        let mut bad_flags = bytes.clone();
        bad_flags[0] |= 0x40;
        assert!(EnumPage::decode(&bad_flags).is_none());
        let mut bad_reserved = bytes.clone();
        bad_reserved[2] = 1;
        assert!(EnumPage::decode(&bad_reserved).is_none());
        let mut zero_size = bytes;
        zero_size[1] = 0;
        assert!(EnumPage::decode(&zero_size).is_none());

        // The page-size cap keeps every legal page under the frame cap.
        for k in 1..=8usize {
            let n = max_embeddings_per_page(k);
            let page = EnumPage {
                last: true,
                pattern_size: k as u8,
                vertices: vec![0; n * k],
            };
            assert!(page.encode().len() + HEADER_LEN <= MAX_FRAME_LEN);
            assert!((n + 1) * k * 4 + 8 + HEADER_LEN > MAX_FRAME_LEN);
        }
    }

    #[test]
    fn histogram_buckets_are_log2_micros() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(
            LatencyHistogram::bucket_index(u64::MAX),
            HISTOGRAM_BUCKETS - 1
        );
        let mut h = LatencyHistogram::default();
        for us in [0, 1, 2, 3, 900, 1_000_000] {
            h.record(us);
        }
        assert_eq!(h.total(), 6);
        assert!(h.percentile_upper_bound_micros(0.5).unwrap() <= 1 << 10);
        assert!(LatencyHistogram::bucket_floor_micros(0) == 0);
        assert!(LatencyHistogram::bucket_floor_micros(11) == 1024);
    }
}
