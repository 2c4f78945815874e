//! Write-ahead log for edge batches: checksummed appends, torn-tail
//! tolerant recovery, checkpointing to the `GRPHPI02` binary format.
//!
//! The durability contract mirrors the classic WAL design:
//!
//! * **Log first.** [`DurableGraph::commit`] appends the batch to the log
//!   and `fsync`s it *before* applying it in memory; a commit is only
//!   acknowledged once it would survive `kill -9`.
//! * **Torn tails recover, corruption errors.** Appends are sequential,
//!   so a crash leaves a *prefix* of the final record. `Wal::open`
//!   scans records front to back: a record whose (self-checksummed)
//!   header is incomplete or whose payload extends past EOF is a torn
//!   tail — the file is truncated back to the last durable record and
//!   serving continues. A record that is fully present but fails its
//!   checksum cannot come from a torn append; that is real corruption
//!   and yields a typed [`WalError::Corrupt`], never a panic or a
//!   silently wrong graph.
//! * **Checkpoint + replay.** A commit that finds the log past a
//!   threshold first saves the current generation to `<wal>.ckpt` in the
//!   existing `GRPHPI02` format (atomic tmp+rename) and resets the log to
//!   a checkpoint marker, and only then logs its own batch; a failed save
//!   fails that commit before anything is logged, and the next commit
//!   retries it. Recovery = load the checkpoint (or the initial
//!   graph) + replay the log suffix. Because batch application is
//!   deterministic and normalising (see [`crate::delta`]), replaying a
//!   batch the checkpoint already contains is a no-op, so every crash
//!   window between "checkpoint written" and "log reset" still recovers
//!   bit-identical to the never-crashed graph.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! file   := header record*
//! header := "GRPHWAL1" version:u32 reserved:u32          (16 bytes)
//! record := len:u32 header_check:u32 payload_fnv:u64 payload
//! ```
//!
//! `payload_fnv` is FNV-1a over the payload bytes; `header_check` is
//! FNV-1a over the `len` and `payload_fnv` bytes (truncated to `u32`),
//! which is what lets the opener trust `len` before reading the payload
//! and so distinguish "payload torn off at EOF" from "length field
//! corrupted".

use crate::csr::CsrGraph;
use crate::delta::{
    CommitReport, DeltaError, DynamicGraph, EdgeBatch, GraphSnapshot, DEFAULT_COMPACTION_THRESHOLD,
};
use crate::io::{self, fnv1a};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Magic bytes opening every WAL file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"GRPHWAL1";
/// Current WAL format version.
pub(crate) const WAL_VERSION: u32 = 1;
/// Byte length of the WAL file header.
pub(crate) const WAL_HEADER_LEN: usize = 16;
/// Byte length of a record header (`len`, `header_check`, `payload_fnv`).
const RECORD_HEADER_LEN: usize = 16;
/// Upper bound on a single record's payload; appends beyond it are
/// rejected and claimed lengths beyond it are treated as corruption.
pub(crate) const MAX_WAL_RECORD_LEN: usize = 1 << 26;

/// Validates the 16-byte file header, for the log's writer and its
/// readers alike.
fn check_file_header(header: &[u8]) -> Result<(), WalError> {
    let field = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap());
    let reason = if &header[..8] != WAL_MAGIC {
        "wrong magic bytes".to_string()
    } else if field(8) != WAL_VERSION {
        format!("unsupported version {}", field(8))
    } else if field(12) != 0 {
        format!("nonzero reserved field {:#x}", field(12))
    } else {
        return Ok(());
    };
    Err(WalError::BadHeader { reason })
}

fn header_check(len: u32, payload_fnv: u64) -> u32 {
    let mut bytes = [0u8; 12];
    bytes[..4].copy_from_slice(&len.to_le_bytes());
    bytes[4..].copy_from_slice(&payload_fnv.to_le_bytes());
    fnv1a(&bytes) as u32
}

/// Errors from the WAL layer.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The 16-byte file header is present but invalid (wrong magic,
    /// unsupported version, nonzero reserved field).
    BadHeader {
        /// What was wrong with it.
        reason: String,
    },
    /// A fully-present record failed validation — not reachable from a
    /// torn append; the log bytes were damaged after they were synced.
    Corrupt {
        /// File offset of the offending record.
        offset: u64,
        /// What failed to validate.
        reason: String,
    },
    /// A record was too large to append.
    RecordTooLarge {
        /// The offending payload length.
        len: usize,
    },
    /// A logged batch failed to re-apply during recovery.
    Replay {
        /// Generation recorded for the failing batch.
        generation: u64,
        /// The apply error, rendered.
        reason: String,
    },
    /// The checkpoint file exists but could not be loaded.
    Checkpoint {
        /// The load error, rendered.
        reason: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(err) => write!(f, "wal i/o error: {err}"),
            WalError::BadHeader { reason } => write!(f, "bad wal header: {reason}"),
            WalError::Corrupt { offset, reason } => {
                write!(f, "corrupt wal record at offset {offset}: {reason}")
            }
            WalError::RecordTooLarge { len } => {
                write!(f, "wal record payload of {len} bytes exceeds the maximum")
            }
            WalError::Replay { generation, reason } => {
                write!(
                    f,
                    "replaying wal batch for generation {generation}: {reason}"
                )
            }
            WalError::Checkpoint { reason } => write!(f, "loading wal checkpoint: {reason}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(err: std::io::Error) -> Self {
        WalError::Io(err)
    }
}

/// Errors from the durable graph (WAL or batch application).
#[derive(Debug)]
pub enum DurableError {
    /// The log could not be written or read back.
    Wal(WalError),
    /// The batch itself was invalid (e.g. vertex id out of range); the
    /// log and the graph are unchanged.
    Delta(DeltaError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Wal(err) => err.fmt(f),
            DurableError::Delta(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<WalError> for DurableError {
    fn from(err: WalError) -> Self {
        DurableError::Wal(err)
    }
}

impl From<DeltaError> for DurableError {
    fn from(err: DeltaError) -> Self {
        DurableError::Delta(err)
    }
}

const KIND_BATCH: u8 = 1;
const KIND_CHECKPOINT: u8 = 2;

/// One logical log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// An edge batch that produced `generation`.
    Batch {
        /// Generation the batch produced when first committed.
        generation: u64,
        /// The batch itself, as committed.
        batch: EdgeBatch,
    },
    /// Marker written when the log is reset after a checkpoint: the
    /// checkpoint file holds the graph as of `generation`.
    Checkpoint {
        /// Generation captured by the checkpoint.
        generation: u64,
    },
}

/// Sorted edge pairs as they travel through record payloads.
type EdgePairs<'a> = &'a [(u32, u32)];

fn encode_payload(record: &WalRecord) -> Vec<u8> {
    let (kind, generation, inserts, deletes): (u8, u64, EdgePairs<'_>, EdgePairs<'_>) = match record
    {
        WalRecord::Batch { generation, batch } => {
            (KIND_BATCH, *generation, batch.inserts(), batch.deletes())
        }
        WalRecord::Checkpoint { generation } => (KIND_CHECKPOINT, *generation, &[], &[]),
    };
    let mut payload = Vec::with_capacity(17 + 8 * (inserts.len() + deletes.len()));
    payload.push(kind);
    payload.extend_from_slice(&generation.to_le_bytes());
    payload.extend_from_slice(&(inserts.len() as u32).to_le_bytes());
    payload.extend_from_slice(&(deletes.len() as u32).to_le_bytes());
    for &(u, v) in inserts.iter().chain(deletes.iter()) {
        payload.extend_from_slice(&u.to_le_bytes());
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload
}

fn decode_payload(payload: &[u8], offset: u64) -> Result<WalRecord, WalError> {
    let corrupt = |reason: &str| WalError::Corrupt {
        offset,
        reason: reason.to_string(),
    };
    if payload.len() < 17 {
        return Err(corrupt("payload shorter than the fixed fields"));
    }
    let kind = payload[0];
    let generation = u64::from_le_bytes(payload[1..9].try_into().unwrap());
    let n_inserts = u32::from_le_bytes(payload[9..13].try_into().unwrap()) as usize;
    let n_deletes = u32::from_le_bytes(payload[13..17].try_into().unwrap()) as usize;
    let expected = 17 + 8 * (n_inserts + n_deletes);
    if payload.len() != expected {
        return Err(corrupt("payload length disagrees with its edge counts"));
    }
    let mut pairs = payload[17..]
        .chunks_exact(8)
        .map(|pair| {
            (
                u32::from_le_bytes(pair[..4].try_into().unwrap()),
                u32::from_le_bytes(pair[4..].try_into().unwrap()),
            )
        })
        .collect::<Vec<_>>();
    let deletes = pairs.split_off(n_inserts);
    match kind {
        KIND_BATCH => Ok(WalRecord::Batch {
            generation,
            batch: EdgeBatch::from_edges(pairs, deletes),
        }),
        KIND_CHECKPOINT if n_inserts == 0 && n_deletes == 0 => {
            Ok(WalRecord::Checkpoint { generation })
        }
        KIND_CHECKPOINT => Err(corrupt("checkpoint marker carries edges")),
        _ => Err(corrupt("unknown record kind")),
    }
}

/// Tries to parse one record frame starting at `bytes[offset..]`.
/// `Ok(None)` means the frame is incomplete — a torn tail when scanning a
/// file, "wait for more bytes" when parsing a shipped stream.
/// `base_offset` is only used to report absolute positions in errors.
fn parse_frame_at(
    bytes: &[u8],
    offset: usize,
    base_offset: u64,
) -> Result<Option<(WalRecord, usize)>, WalError> {
    let at = base_offset + offset as u64;
    if bytes.len() - offset < RECORD_HEADER_LEN {
        return Ok(None); // torn record header
    }
    let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
    let check = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
    let payload_fnv = u64::from_le_bytes(bytes[offset + 8..offset + 16].try_into().unwrap());
    if check != header_check(len as u32, payload_fnv) {
        // The header bytes are all present yet do not validate: a
        // sequential append cannot produce this.
        return Err(WalError::Corrupt {
            offset: at,
            reason: "record header checksum mismatch".to_string(),
        });
    }
    if len > MAX_WAL_RECORD_LEN {
        return Err(WalError::Corrupt {
            offset: at,
            reason: format!("record claims {len} payload bytes"),
        });
    }
    let payload_start = offset + RECORD_HEADER_LEN;
    if bytes.len() - payload_start < len {
        return Ok(None); // torn payload: the tail of a killed append
    }
    let payload = &bytes[payload_start..payload_start + len];
    if fnv1a(payload) != payload_fnv {
        return Err(WalError::Corrupt {
            offset: at,
            reason: "record payload checksum mismatch".to_string(),
        });
    }
    let record = decode_payload(payload, at)?;
    Ok(Some((record, RECORD_HEADER_LEN + len)))
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WalOpenReport {
    /// Whether the file was created (or was empty) and got a fresh
    /// header.
    pub created: bool,
    /// Valid records recovered.
    pub records: usize,
    /// Torn-tail bytes dropped (0 on a clean open).
    pub truncated_bytes: u64,
}

/// An open, append-only write-ahead log.
///
/// Appends are acknowledged only after `fsync`; see the module docs for
/// the recovery rules.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
    /// Bumped on every reset (checkpoint truncation). Replication readers
    /// snapshot it around file reads: a change means byte offsets from
    /// before the reset no longer address the same stream.
    epoch: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, scans and returns
    /// every durable record, and truncates any torn tail.
    pub(crate) fn open<P: AsRef<Path>>(
        path: P,
    ) -> Result<(Self, Vec<WalRecord>, WalOpenReport), WalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut report = WalOpenReport::default();

        if bytes.len() < WAL_HEADER_LEN {
            // Missing, empty, or torn mid-header-write: start fresh.
            report.created = bytes.is_empty();
            report.truncated_bytes = bytes.len() as u64;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let mut header = Vec::with_capacity(WAL_HEADER_LEN);
            header.extend_from_slice(WAL_MAGIC);
            header.extend_from_slice(&WAL_VERSION.to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes());
            file.write_all(&header)?;
            file.sync_data()?;
            return Ok((
                Self {
                    file,
                    path,
                    len: WAL_HEADER_LEN as u64,
                    epoch: 0,
                },
                Vec::new(),
                report,
            ));
        }

        check_file_header(&bytes[..WAL_HEADER_LEN])?;

        let mut records = Vec::new();
        let mut offset = WAL_HEADER_LEN;
        let durable_end = loop {
            if offset == bytes.len() {
                break offset; // clean end
            }
            match parse_frame_at(&bytes, offset, 0)? {
                Some((record, frame_len)) => {
                    records.push(record);
                    offset += frame_len;
                }
                None => break offset, // torn tail of a killed append
            }
        };

        if durable_end < bytes.len() {
            report.truncated_bytes = (bytes.len() - durable_end) as u64;
            file.set_len(durable_end as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        report.records = records.len();
        Ok((
            Self {
                file,
                path,
                len: durable_end as u64,
                epoch: 0,
            },
            records,
            report,
        ))
    }

    /// Appends one record and `fsync`s it. When this returns `Ok`, the
    /// record survives `kill -9`.
    pub(crate) fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let frame = encode_record_frame(record);
        let payload_len = frame.len() - RECORD_HEADER_LEN;
        if payload_len > MAX_WAL_RECORD_LEN {
            return Err(WalError::RecordTooLarge { len: payload_len });
        }
        if let Err(err) = self
            .file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data())
        {
            // Cut the failed record back off: the next append must not land
            // behind a record whose commit reported an error.
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::Start(self.len));
            return Err(err.into());
        }
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Resets the log to just a checkpoint marker for `generation` —
    /// called after the checkpoint file has durably captured that
    /// generation.
    pub(crate) fn reset(&mut self, generation: u64) -> Result<(), WalError> {
        let end = self.len;
        self.reset_keeping_suffix(generation, end)
    }

    /// Resets the log to a checkpoint marker for `generation`, keeping
    /// every record byte from `suffix_start` onward. This is the
    /// short-critical-section checkpoint path: the caller captured
    /// `suffix_start` when it snapshotted `generation`, saved the
    /// checkpoint file *without* holding the commit lock, and any records
    /// appended meanwhile (all with generations past the checkpoint) are
    /// re-seated right after the fresh marker.
    pub(crate) fn reset_keeping_suffix(
        &mut self,
        generation: u64,
        suffix_start: u64,
    ) -> Result<(), WalError> {
        let mut suffix = Vec::new();
        if suffix_start < self.len {
            self.file.seek(SeekFrom::Start(suffix_start))?;
            self.file.read_to_end(&mut suffix)?;
        }
        self.file.set_len(WAL_HEADER_LEN as u64)?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_LEN as u64))?;
        self.len = WAL_HEADER_LEN as u64;
        self.epoch += 1;
        self.append(&WalRecord::Checkpoint { generation })?;
        if !suffix.is_empty() {
            self.file.write_all(&suffix)?;
            self.file.sync_data()?;
            self.len += suffix.len() as u64;
        }
        Ok(())
    }

    /// The log's file path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Current byte length of the record region (excludes the header).
    pub(crate) fn record_bytes(&self) -> u64 {
        self.len - WAL_HEADER_LEN as u64
    }

    /// Absolute end offset of the durable log (header included) — the
    /// position replication cursors address.
    pub(crate) fn end_offset(&self) -> u64 {
        self.len
    }

    /// Reset epoch: bumped every time the log is truncated back to a
    /// checkpoint marker. Offsets taken under one epoch are meaningless
    /// under another.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A read-only view of a WAL file for replication shipping: reads raw
/// record-stream bytes (checksums and all, so they can travel to a
/// replica unmodified) and resolves `(generation, offset)` cursors to
/// byte positions.
///
/// The reader holds its own file handle and takes no locks; it may
/// observe a partially-appended record at the tail (the bytes simply
/// arrive in a later read) but a concurrent *reset* invalidates offsets —
/// callers detect that through [`DurableGraph::wal_epoch`] and
/// re-resolve.
#[derive(Debug)]
pub struct WalReader {
    file: File,
}

/// Where [`WalReader::resolve_cursor`] decided shipping should start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipPoint {
    /// Stream records from this absolute file offset.
    Records {
        /// Absolute file offset of the first record to ship.
        offset: u64,
    },
    /// The cursor's generation predates this log's base: the replica
    /// must be bootstrapped from the checkpoint file first.
    NeedsCheckpoint,
}

impl WalReader {
    /// Opens the WAL at `path` read-only and validates its header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, WalError> {
        let mut file = OpenOptions::new().read(true).open(path.as_ref())?;
        let mut header = [0u8; WAL_HEADER_LEN];
        file.read_exact(&mut header)?;
        check_file_header(&header)?;
        Ok(Self { file })
    }

    /// Reads up to `max_bytes` raw stream bytes starting at `offset`.
    /// The slice is *not* record-aligned — a consumer reassembles frames
    /// with [`RecordStreamParser`]. Returns the bytes and the offset just
    /// past them.
    pub fn read_raw(&mut self, offset: u64, max_bytes: usize) -> Result<(Vec<u8>, u64), WalError> {
        self.file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; max_bytes];
        let mut filled = 0;
        while filled < buf.len() {
            match self.file.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(err) => return Err(err.into()),
            }
        }
        buf.truncate(filled);
        let next = offset + filled as u64;
        Ok((buf, next))
    }

    /// Maps a replica's `(generation, offset)` cursor to the file offset
    /// shipping should resume from. The offset hint is trusted only if a
    /// valid record parses there and continues `generation` exactly;
    /// otherwise the log is scanned front to back (it is bounded by the
    /// checkpoint threshold). A cursor older than the log's base —
    /// records begin past `generation` — needs a checkpoint bootstrap.
    pub fn resolve_cursor(
        &mut self,
        generation: u64,
        offset_hint: u64,
    ) -> Result<ShipPoint, WalError> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        if bytes.len() < WAL_HEADER_LEN {
            return Ok(ShipPoint::Records {
                offset: WAL_HEADER_LEN as u64,
            });
        }

        // Fast path: the hint addresses the exact next record.
        if offset_hint >= WAL_HEADER_LEN as u64 && offset_hint <= bytes.len() as u64 {
            if let Ok(Some((WalRecord::Batch { generation: g, .. }, _))) =
                parse_frame_at(&bytes, offset_hint as usize, 0)
            {
                if g == generation + 1 {
                    return Ok(ShipPoint::Records {
                        offset: offset_hint,
                    });
                }
            }
        }

        let mut offset = WAL_HEADER_LEN;
        let mut horizon = None;
        loop {
            if offset >= bytes.len() {
                break;
            }
            let (record, frame_len) = match parse_frame_at(&bytes, offset, 0) {
                Ok(Some(parsed)) => parsed,
                // Torn tail (an append in flight) — stop at the durable
                // prefix. Corruption mid-scan can also be a concurrent
                // reset rewriting the bytes under us; the caller's epoch
                // check sorts real corruption from that race.
                Ok(None) | Err(WalError::Corrupt { .. }) => break,
                Err(err) => return Err(err),
            };
            match record {
                WalRecord::Checkpoint { generation: g } => {
                    if horizon.is_none() {
                        horizon = Some(g);
                    }
                }
                WalRecord::Batch { generation: g, .. } => {
                    if horizon.is_none() {
                        // Records start at the initial graph: base is
                        // generation g - 1 of the sequence.
                        horizon = Some(g.saturating_sub(1));
                    }
                    if g > generation {
                        if horizon.unwrap_or(0) > generation {
                            return Ok(ShipPoint::NeedsCheckpoint);
                        }
                        return Ok(ShipPoint::Records {
                            offset: offset as u64,
                        });
                    }
                }
            }
            offset += frame_len;
        }
        if horizon.unwrap_or(0) > generation {
            return Ok(ShipPoint::NeedsCheckpoint);
        }
        // Every durable record is at or before the cursor: caught up.
        Ok(ShipPoint::Records {
            offset: offset as u64,
        })
    }
}

/// Reassembles WAL records from an arbitrarily-chunked byte stream — the
/// replica side of replication. Bytes are pushed as they arrive off the
/// wire; complete, checksum-validated records are drained in order, and a
/// partial frame simply waits for more bytes (torn-stream tolerance, the
/// same rule WAL replay applies to a torn tail). A checksum mismatch is a
/// damaged stream and surfaces as a typed error — the consumer drops the
/// connection and resubscribes from its durable cursor.
#[derive(Debug, Default)]
pub struct RecordStreamParser {
    buf: Vec<u8>,
    consumed: u64,
}

impl RecordStreamParser {
    /// Appends stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete record, with the stream-byte length of its
    /// frame. `Ok(None)` means more bytes are needed.
    pub fn next_record(&mut self) -> Result<Option<(WalRecord, u64)>, WalError> {
        match parse_frame_at(&self.buf, 0, self.consumed)? {
            Some((record, frame_len)) => {
                self.buf.drain(..frame_len);
                self.consumed += frame_len as u64;
                Ok(Some((record, frame_len as u64)))
            }
            None => Ok(None),
        }
    }

    /// Drops any partial frame (used when resubscribing after a torn
    /// stream: the gap is refetched from the durable cursor).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.consumed = 0;
    }
}

/// Encodes one record as a raw stream frame (the same checksummed bytes
/// [`Wal::append`] writes) — lets tests and the bootstrap path synthesize
/// replication streams without a file.
pub(crate) fn encode_record_frame(record: &WalRecord) -> Vec<u8> {
    let payload = encode_payload(record);
    let payload_fnv = fnv1a(&payload);
    let mut frame = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&header_check(payload.len() as u32, payload_fnv).to_le_bytes());
    frame.extend_from_slice(&payload_fnv.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Tuning for [`DurableGraph`].
#[derive(Debug, Clone, Copy)]
pub struct DurableGraphOptions {
    /// Overlay size past which the in-memory overlay folds into a fresh
    /// base CSR (see [`crate::delta::DynamicGraph`]).
    pub compaction_threshold: u64,
    /// WAL record-region size (bytes) past which a commit triggers a
    /// checkpoint + log reset. `u64::MAX` disables automatic
    /// checkpointing.
    pub checkpoint_wal_bytes: u64,
}

impl Default for DurableGraphOptions {
    fn default() -> Self {
        Self {
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            checkpoint_wal_bytes: 4 << 20,
        }
    }
}

/// What [`DurableGraph::open`] reconstructed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether the WAL was created fresh (no previous run).
    pub created: bool,
    /// Whether a checkpoint file was loaded as the base.
    pub checkpoint_loaded: bool,
    /// Batches replayed from the log.
    pub replayed_batches: usize,
    /// Torn-tail bytes dropped from the log.
    pub truncated_bytes: u64,
    /// Generation after recovery.
    pub generation: u64,
}

/// A [`DynamicGraph`] whose commits are write-ahead logged: checkpoint
/// first once the log has grown, log second (fsync), apply third.
/// Reopening after any crash reconstructs the exact acknowledged state.
///
/// ```
/// use graphpi_graph::wal::{DurableGraph, DurableGraphOptions};
/// use graphpi_graph::delta::EdgeBatch;
/// use graphpi_graph::generators;
///
/// let dir = std::env::temp_dir().join(format!("graphpi_wal_doc_{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let wal = dir.join("graph.wal");
/// let initial = generators::cycle(6);
///
/// let (durable, _) =
///     DurableGraph::open(initial.clone(), &wal, DurableGraphOptions::default()).unwrap();
/// let mut batch = EdgeBatch::new();
/// batch.insert(0, 3);
/// durable.commit(&batch).unwrap();
/// let before = durable.snapshot();
/// drop(durable); // "crash"
///
/// let (recovered, report) =
///     DurableGraph::open(initial, &wal, DurableGraphOptions::default()).unwrap();
/// assert_eq!(report.replayed_batches, 1);
/// assert_eq!(recovered.snapshot().graph(), before.graph());
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct DurableGraph {
    graph: DynamicGraph,
    wal: Mutex<Wal>,
    /// Serialises checkpointers against each other (NOT against commits
    /// — that is the point of the short-critical-section checkpoint).
    /// Nothing takes it while holding `wal`.
    ckpt_lock: Mutex<()>,
    /// Generation of the log's base: a cursor at or past this can be
    /// served from records alone, an older one needs the checkpoint file.
    horizon: AtomicU64,
    checkpoint_path: PathBuf,
    checkpoint_wal_bytes: u64,
}

/// The checkpoint file that accompanies a WAL at `wal_path`.
pub(crate) fn checkpoint_path_for(wal_path: &Path) -> PathBuf {
    let mut name = wal_path.as_os_str().to_os_string();
    name.push(".ckpt");
    PathBuf::from(name)
}

impl DurableGraph {
    /// Opens the durable graph backed by the WAL at `wal_path`: loads the
    /// checkpoint if one exists (falling back to `initial`), replays the
    /// log suffix, and truncates any torn tail.
    pub fn open<P: AsRef<Path>>(
        initial: CsrGraph,
        wal_path: P,
        options: DurableGraphOptions,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let wal_path = wal_path.as_ref().to_path_buf();
        let checkpoint_path = checkpoint_path_for(&wal_path);
        let (wal, records, open_report) = Wal::open(&wal_path)?;
        let mut checkpoint_loaded = false;
        let base = if checkpoint_path.exists() {
            let loaded = io::load_binary(&checkpoint_path).map_err(|err| WalError::Checkpoint {
                reason: err.to_string(),
            })?;
            checkpoint_loaded = true;
            loaded
        } else {
            initial
        };
        let graph = DynamicGraph::with_compaction_threshold(base, options.compaction_threshold);
        let mut generation = 0;
        let mut replayed = 0;
        let mut horizon = None;
        for record in &records {
            match record {
                WalRecord::Checkpoint { generation: g } => {
                    if horizon.is_none() {
                        horizon = Some(*g);
                    }
                    generation = *g;
                }
                WalRecord::Batch {
                    generation: g,
                    batch,
                } => {
                    graph.commit(batch).map_err(|err| WalError::Replay {
                        generation: *g,
                        reason: err.to_string(),
                    })?;
                    generation = *g;
                    replayed += 1;
                }
            }
        }
        graph.set_generation(generation);
        Ok((
            Self {
                graph,
                wal: Mutex::new(wal),
                ckpt_lock: Mutex::new(()),
                horizon: AtomicU64::new(horizon.unwrap_or(0)),
                checkpoint_path,
                checkpoint_wal_bytes: options.checkpoint_wal_bytes,
            },
            RecoveryReport {
                created: open_report.created,
                checkpoint_loaded,
                replayed_batches: replayed,
                truncated_bytes: open_report.truncated_bytes,
                generation,
            },
        ))
    }

    /// Durably commits one batch. A commit that finds the log past the
    /// checkpoint threshold first runs [`DurableGraph::checkpoint`]
    /// (skipped while another checkpointer runs one); then it validates
    /// the batch, appends it to the log, `fsync`s and applies it in
    /// memory. On `Ok` the batch survives any crash. On `Err` (an invalid
    /// batch, a failed checkpoint, a failed append) neither the log nor
    /// the graph holds the batch.
    pub fn commit(&self, batch: &EdgeBatch) -> Result<CommitReport, DurableError> {
        if self.wal.lock().expect("wal poisoned").record_bytes() >= self.checkpoint_wal_bytes {
            if let Ok(ckpt) = self.ckpt_lock.try_lock() {
                self.save_and_reset(ckpt)?;
            }
        }
        let mut wal = self.wal.lock().expect("wal poisoned");
        // Validate before logging: an invalid batch must leave both the
        // log and the graph untouched (and must never poison replay).
        self.graph.validate_batch(batch)?;
        let generation = self.graph.generation() + 1;
        wal.append(&WalRecord::Batch {
            generation,
            batch: batch.clone(),
        })?;
        let report = self
            .graph
            .commit(batch)
            .expect("validated batch must apply");
        debug_assert_eq!(report.generation, generation);
        Ok(report)
    }

    /// Forces a checkpoint: saves the current generation to the
    /// checkpoint file and resets the log. Returns the checkpointed
    /// generation.
    ///
    /// The commit lock is held only to *capture* the snapshot and to
    /// perform the final log reset — the graph save (the expensive part)
    /// runs unlocked, with commits proceeding concurrently. Records
    /// appended during the save are preserved across the reset.
    pub fn checkpoint(&self) -> Result<u64, DurableError> {
        self.save_and_reset(self.ckpt_lock.lock().expect("checkpoint lock poisoned"))
    }

    /// The checkpoint algorithm, run while the caller holds `ckpt_lock`.
    fn save_and_reset(&self, _ckpt: MutexGuard<'_, ()>) -> Result<u64, DurableError> {
        let (snapshot, suffix_start) = {
            let wal = self.wal.lock().expect("wal poisoned");
            (self.graph.snapshot(), wal.end_offset())
        };
        // Checkpoint file first (atomic tmp+rename), log reset second: a
        // crash between the two replays the old log against the new
        // checkpoint, which re-applies as no-ops.
        io::save_binary(snapshot.graph(), &self.checkpoint_path).map_err(WalError::Io)?;
        let mut wal = self.wal.lock().expect("wal poisoned");
        wal.reset_keeping_suffix(snapshot.generation(), suffix_start)?;
        self.horizon.store(snapshot.generation(), Ordering::SeqCst);
        Ok(snapshot.generation())
    }

    /// Replaces the whole graph with `base` at `generation` — the
    /// receiving end of a checkpoint bootstrap. The new base is saved as
    /// this graph's own checkpoint file and the log is reset to a marker,
    /// so the installed state is immediately crash-safe.
    pub fn install_checkpoint(&self, base: CsrGraph, generation: u64) -> Result<(), DurableError> {
        let _ckpt = self.ckpt_lock.lock().expect("checkpoint lock poisoned");
        io::save_binary(&base, &self.checkpoint_path).map_err(WalError::Io)?;
        let mut wal = self.wal.lock().expect("wal poisoned");
        wal.reset(generation)?;
        self.horizon.store(generation, Ordering::SeqCst);
        self.graph.reset_base(base, generation);
        Ok(())
    }

    /// Folds the in-memory overlay into a fresh base CSR off the commit
    /// path (see [`DynamicGraph::compact`]). Returns whether a compaction
    /// was installed.
    pub fn compact(&self) -> bool {
        self.graph.compact()
    }

    /// Pins the current generation (see [`DynamicGraph::snapshot`]).
    pub fn snapshot(&self) -> GraphSnapshot {
        self.graph.snapshot()
    }

    /// The checkpoint file path paired with this WAL.
    pub fn checkpoint_path(&self) -> &Path {
        &self.checkpoint_path
    }

    /// The log file path (what a [`WalReader`] opens to ship records).
    pub fn wal_path(&self) -> PathBuf {
        self.wal.lock().expect("wal poisoned").path().to_path_buf()
    }

    /// Current durable end of the log in bytes (header included).
    pub fn wal_len(&self) -> u64 {
        self.wal.lock().expect("wal poisoned").end_offset()
    }

    /// The log's reset epoch (see `Wal::epoch`).
    pub fn wal_epoch(&self) -> u64 {
        self.wal.lock().expect("wal poisoned").epoch()
    }

    /// Generation of the log's base: cursors at or past this can be
    /// served from log records alone, older ones need the checkpoint
    /// file first.
    pub fn replication_horizon(&self) -> u64 {
        self.horizon.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("graphpi_wal_{label}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        let mut small = EdgeBatch::new();
        small.insert(0, 5).delete(1, 2);
        let mut large = EdgeBatch::new();
        for i in 0..40u32 {
            large.insert(i, i + 7);
        }
        vec![
            WalRecord::Checkpoint { generation: 3 },
            WalRecord::Batch {
                generation: 4,
                batch: small,
            },
            WalRecord::Batch {
                generation: 5,
                batch: EdgeBatch::new(),
            },
            WalRecord::Batch {
                generation: 6,
                batch: large,
            },
        ]
    }

    /// Writes the sample records and returns the raw file bytes plus the
    /// end offset of every durable prefix (header-only, then one more
    /// record each).
    fn sample_wal(dir: &Path) -> (Vec<u8>, Vec<usize>) {
        let path = dir.join("sample.wal");
        let (mut wal, records, report) = Wal::open(&path).unwrap();
        assert!(report.created);
        assert!(records.is_empty());
        let mut boundaries = vec![WAL_HEADER_LEN];
        for record in sample_records() {
            wal.append(&record).unwrap();
            boundaries.push(wal.len as usize);
        }
        drop(wal);
        (std::fs::read(&path).unwrap(), boundaries)
    }

    #[test]
    fn roundtrips_records_through_a_reopen() {
        let dir = scratch("roundtrip");
        let (bytes, boundaries) = sample_wal(&dir);
        assert_eq!(bytes.len(), *boundaries.last().unwrap());
        let path = dir.join("sample.wal");
        let (_, records, report) = Wal::open(&path).unwrap();
        assert_eq!(records, sample_records());
        assert_eq!(
            report,
            WalOpenReport {
                created: false,
                records: 4,
                truncated_bytes: 0,
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn systematically_truncated_wals_recover_the_durable_prefix() {
        let dir = scratch("truncate");
        let (bytes, boundaries) = sample_wal(&dir);
        let expected = sample_records();
        let path = dir.join("cut.wal");
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (_, records, report) = Wal::open(&path)
                .unwrap_or_else(|err| panic!("cut at {cut} must recover, got {err}"));
            // The durable prefix: every record fully contained in the cut.
            let survivors = boundaries[1..].iter().filter(|&&end| end <= cut).count();
            assert_eq!(records, expected[..survivors], "cut at {cut}");
            let clean = cut == 0 || boundaries.contains(&cut);
            assert_eq!(
                report.truncated_bytes > 0,
                !clean,
                "cut at {cut}: report {report:?}"
            );
            // Recovery truncated the file back to the durable prefix, so
            // reopening is clean and appending works.
            let (mut wal, records, report) = Wal::open(&path).unwrap();
            assert_eq!(records.len(), survivors);
            assert_eq!(report.truncated_bytes, 0);
            wal.append(&WalRecord::Checkpoint { generation: 99 })
                .unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_single_byte_corruption_is_a_typed_error() {
        let dir = scratch("corrupt");
        let (bytes, _) = sample_wal(&dir);
        let path = dir.join("flip.wal");
        for position in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[position] ^= 0xA5;
            std::fs::write(&path, &damaged).unwrap();
            match Wal::open(&path) {
                Err(WalError::BadHeader { .. }) => assert!(
                    position < WAL_HEADER_LEN,
                    "flip at {position} blamed the header"
                ),
                Err(WalError::Corrupt { offset, .. }) => assert!(
                    position >= WAL_HEADER_LEN && (offset as usize) <= position,
                    "flip at {position} blamed offset {offset}"
                ),
                Ok(_) => panic!("flip at {position} was silently accepted"),
                Err(other) => panic!("flip at {position}: unexpected error {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_is_durable_and_reset_keeps_only_the_marker() {
        let dir = scratch("reset");
        let path = dir.join("log.wal");
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            let mut batch = EdgeBatch::new();
            batch.insert(1, 2);
            wal.append(&WalRecord::Batch {
                generation: 1,
                batch,
            })
            .unwrap();
            wal.reset(1).unwrap();
            assert!(wal.record_bytes() > 0);
        }
        let (_, records, _) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![WalRecord::Checkpoint { generation: 1 }]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_keeping_suffix_reseats_the_records_past_the_checkpoint() {
        let dir = scratch("suffix");
        let path = dir.join("log.wal");
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            let mut suffix_start = 0;
            for generation in 1..=5 {
                wal.append(&WalRecord::Batch {
                    generation,
                    batch: batch_for_round(generation as u32),
                })
                .unwrap();
                if generation == 3 {
                    suffix_start = wal.end_offset();
                }
            }
            wal.reset_keeping_suffix(3, suffix_start).unwrap();
            assert_eq!(wal.epoch(), 1);
        }
        let (_, records, report) = Wal::open(&path).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        let batch = |generation: u64| WalRecord::Batch {
            generation,
            batch: batch_for_round(generation as u32),
        };
        assert_eq!(
            records,
            vec![WalRecord::Checkpoint { generation: 3 }, batch(4), batch(5)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_and_reader_refuse_the_same_bad_header() {
        let dir = scratch("header");
        let path = dir.join("log.wal");
        drop(Wal::open(&path).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] = 1; // the reserved field
        std::fs::write(&path, &bytes).unwrap();
        let reason = |err: WalError| match err {
            WalError::BadHeader { reason } => reason,
            other => panic!("expected a bad header, got {other}"),
        };
        let from_writer = reason(Wal::open(&path).unwrap_err());
        let from_reader = reason(WalReader::open(&path).unwrap_err());
        assert_eq!(from_writer, "nonzero reserved field 0x1");
        assert_eq!(from_reader, from_writer);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commits_beside_a_checkpointing_thread_recover_bit_identical() {
        let dir = scratch("concurrent");
        let initial = generators::power_law(50, 3, 7);
        let reference = DynamicGraph::new(initial.clone());
        for round in 0..200 {
            reference.commit(&batch_for_round(round)).unwrap();
        }
        let wal_path = dir.join("graph.wal");
        let options = DurableGraphOptions {
            compaction_threshold: 16,
            checkpoint_wal_bytes: 512,
        };
        let (durable, _) = DurableGraph::open(initial.clone(), &wal_path, options).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    durable.checkpoint().unwrap();
                }
            });
            for round in 0..200 {
                durable.commit(&batch_for_round(round)).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        drop(durable);
        let (recovered, report) = DurableGraph::open(initial, &wal_path, options).unwrap();
        assert!(report.checkpoint_loaded);
        let snapshot = recovered.snapshot();
        assert_eq!(snapshot.generation(), 200);
        assert_eq!(
            snapshot.graph().as_ref(),
            reference.snapshot().graph().as_ref()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn batch_for_round(round: u32) -> EdgeBatch {
        let mut batch = EdgeBatch::new();
        batch.insert(round % 50, (round * 7 + 3) % 50);
        batch.insert(round % 50, 50 + round % 13);
        batch.delete((round + 1) % 50, (round + 2) % 50);
        batch
    }

    #[test]
    fn recovery_is_bit_identical_with_and_without_checkpoints() {
        let dir = scratch("recovery");
        let initial = generators::power_law(50, 3, 11);

        // Reference: never-crashed, no checkpoints.
        let reference = DynamicGraph::new(initial.clone());
        for round in 0..30 {
            reference.commit(&batch_for_round(round)).unwrap();
        }

        // Durable, with aggressive checkpointing (every commit crosses
        // the 1-byte threshold) and a mid-stream reopen.
        let wal_path = dir.join("graph.wal");
        let options = DurableGraphOptions {
            compaction_threshold: 4,
            checkpoint_wal_bytes: 1,
        };
        let (durable, report) = DurableGraph::open(initial.clone(), &wal_path, options).unwrap();
        assert!(report.created);
        for round in 0..17 {
            durable.commit(&batch_for_round(round)).unwrap();
        }
        drop(durable); // crash between checkpoints
        let (durable, report) = DurableGraph::open(initial.clone(), &wal_path, options).unwrap();
        assert!(report.checkpoint_loaded);
        assert_eq!(report.generation, 17);
        for round in 17..30 {
            durable.commit(&batch_for_round(round)).unwrap();
        }
        let recovered = durable.snapshot();
        assert_eq!(recovered.generation(), 30);
        assert_eq!(
            recovered.graph().as_ref(),
            reference.snapshot().graph().as_ref()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_recovers_exactly_the_acknowledged_prefix() {
        let dir = scratch("torn");
        let initial = generators::cycle(40);
        let wal_path = dir.join("graph.wal");
        let options = DurableGraphOptions {
            compaction_threshold: u64::MAX,
            checkpoint_wal_bytes: u64::MAX,
        };
        let (durable, _) = DurableGraph::open(initial.clone(), &wal_path, options).unwrap();
        let mut ends = vec![WAL_HEADER_LEN as u64];
        for round in 0..10 {
            durable.commit(&batch_for_round(round)).unwrap();
            ends.push(std::fs::metadata(&wal_path).unwrap().len());
        }
        drop(durable);
        let full = std::fs::read(&wal_path).unwrap();

        for acked in (0..=10).rev() {
            // Cut mid-way into the record after `acked` commits (or at
            // the exact boundary for the full log).
            let cut = if acked == 10 {
                full.len() as u64
            } else {
                ends[acked] + (ends[acked + 1] - ends[acked]) / 2
            };
            std::fs::write(&wal_path, &full[..cut as usize]).unwrap();
            let expected = DynamicGraph::new(initial.clone());
            for round in 0..acked {
                expected.commit(&batch_for_round(round as u32)).unwrap();
            }
            let (durable, report) =
                DurableGraph::open(initial.clone(), &wal_path, options).unwrap();
            assert_eq!(report.replayed_batches, acked);
            assert_eq!(report.generation, acked as u64);
            assert_eq!(
                durable.snapshot().graph().as_ref(),
                expected.snapshot().graph().as_ref(),
                "after {acked} acked commits"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_crash_window_replays_as_no_ops() {
        let dir = scratch("ckptwindow");
        let initial = generators::cycle(30);
        let wal_path = dir.join("graph.wal");
        let options = DurableGraphOptions {
            compaction_threshold: u64::MAX,
            checkpoint_wal_bytes: u64::MAX,
        };
        let (durable, _) = DurableGraph::open(initial.clone(), &wal_path, options).unwrap();
        for round in 0..8 {
            durable.commit(&batch_for_round(round)).unwrap();
        }
        let expected = durable.snapshot();
        // Simulate the crash window: checkpoint file written, log NOT yet
        // reset (the log still holds all 8 batches).
        io::save_binary(expected.graph(), durable.checkpoint_path()).unwrap();
        drop(durable);
        let (durable, report) = DurableGraph::open(initial, &wal_path, options).unwrap();
        assert!(report.checkpoint_loaded);
        assert_eq!(report.replayed_batches, 8);
        assert_eq!(report.generation, 8);
        assert_eq!(
            durable.snapshot().graph().as_ref(),
            expected.graph().as_ref()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_batches_leave_log_and_graph_untouched() {
        let dir = scratch("invalid");
        let wal_path = dir.join("graph.wal");
        let (durable, _) = DurableGraph::open(
            generators::cycle(10),
            &wal_path,
            DurableGraphOptions::default(),
        )
        .unwrap();
        let before = std::fs::metadata(&wal_path).unwrap().len();
        let mut hostile = EdgeBatch::new();
        hostile.insert(0, u32::MAX);
        let err = durable.commit(&hostile).unwrap_err();
        assert!(matches!(err, DurableError::Delta(_)));
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), before);
        assert_eq!(durable.snapshot().generation(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
