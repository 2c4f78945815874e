//! Cross-process plan-cache persistence (groundwork).
//!
//! A restarted server loses its compiled-plan cache and pays planning
//! latency again for every pattern of its working set. This module closes
//! half of that gap today: on graceful shutdown the server writes the
//! cache's **keys** (plus its lifetime counters) to a small checksummed
//! file, and on restart [`crate::engine::Session::warm_start`] re-plans the
//! keys that still apply, so the first client query per persisted pattern
//! is a cache hit. Full compiled-plan serialization is deliberately
//! deferred (plans hold the whole `Configuration`; re-planning is micro- to
//! milliseconds), but the file format reserves a flags field so a future
//! version can append plan bodies without breaking old readers.
//!
//! # File format (`GPPC0001`, all integers little-endian)
//!
//! ```text
//! magic   "GPPC0001"                      8 bytes
//! flags   u32 (0 = keys only)             4 bytes
//! hits    u64   ┐
//! misses  u64   │ cache counters at save time
//! evicts  u64   ┘
//! count   u32 number of keys
//! per key:
//!   graph_fingerprint     u64
//!   max_restriction_sets  u32
//!   max_schedules         u32
//!   pattern_len           u16
//!   pattern bytes         (canonical pattern serialisation)
//! checksum u64 (FNV-1a over everything above)
//! ```
//!
//! Loading validates the magic, every length, and the trailing checksum;
//! any mismatch is a typed [`PersistError`], never a panic — the file sits
//! on disk between process lifetimes and must be treated as untrusted.

use crate::engine::{CacheStats, PlanCache, SavedPlanKey};
use graphpi_graph::io::fnv1a;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

/// File magic of the plan-cache snapshot format, version 1.
pub(crate) const MAGIC: &[u8; 8] = b"GPPC0001";

/// Upper bound on keys read back (a corrupt count field must not allocate
/// unbounded memory; real caches hold tens of plans).
const MAX_KEYS: u32 = 65_536;

/// Upper bound on one serialized pattern (canonical bytes of the largest
/// plannable pattern are tens of bytes; anything bigger is corruption).
const MAX_PATTERN_LEN: u16 = 4_096;

/// A plan-cache snapshot: the persisted keys plus the counters the cache
/// had accumulated when it was saved.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct PlanCacheSnapshot {
    /// Cached keys, most recently used first.
    pub keys: Vec<SavedPlanKey>,
    /// Lifetime hits at save time.
    pub hits: u64,
    /// Lifetime misses at save time.
    pub misses: u64,
    /// Lifetime evictions at save time.
    pub evictions: u64,
}

/// Errors loading or saving a plan-cache snapshot.
#[derive(Debug)]
pub(crate) enum PersistError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// A length field is inconsistent with the file contents or limits.
    Malformed(&'static str),
    /// The trailing FNV-1a checksum does not match the payload.
    ChecksumMismatch,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "plan-cache snapshot I/O error: {e}"),
            PersistError::BadMagic => write!(f, "not a plan-cache snapshot (bad magic)"),
            PersistError::Malformed(what) => write!(f, "malformed plan-cache snapshot: {what}"),
            PersistError::ChecksumMismatch => write!(f, "plan-cache snapshot checksum mismatch"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Serialises a snapshot to bytes (see the module docs for the layout).
pub(crate) fn encode_snapshot(snapshot: &PlanCacheSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + snapshot.keys.len() * 32);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&0u32.to_le_bytes()); // flags: keys only
    out.extend_from_slice(&snapshot.hits.to_le_bytes());
    out.extend_from_slice(&snapshot.misses.to_le_bytes());
    out.extend_from_slice(&snapshot.evictions.to_le_bytes());
    out.extend_from_slice(&(snapshot.keys.len() as u32).to_le_bytes());
    for key in &snapshot.keys {
        out.extend_from_slice(&key.graph_fingerprint.to_le_bytes());
        out.extend_from_slice(&(key.max_restriction_sets as u32).to_le_bytes());
        out.extend_from_slice(&(key.max_schedules as u32).to_le_bytes());
        out.extend_from_slice(&(key.pattern.len() as u16).to_le_bytes());
        out.extend_from_slice(&key.pattern);
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Parses a snapshot from bytes, validating magic, lengths and checksum.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<PlanCacheSnapshot, PersistError> {
    if bytes.len() < MAGIC.len() + 4 + 24 + 4 + 8 {
        return Err(PersistError::Malformed(
            "file shorter than the fixed header",
        ));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if fnv1a(payload) != stored {
        return Err(PersistError::ChecksumMismatch);
    }

    let mut pos = MAGIC.len();
    let mut take = |n: usize| -> Result<&[u8], PersistError> {
        let slice = payload
            .get(pos..pos + n)
            .ok_or(PersistError::Malformed("truncated record"))?;
        pos += n;
        Ok(slice)
    };
    let read_u16 = |b: &[u8]| u16::from_le_bytes(b.try_into().expect("2-byte slice"));
    let read_u32 = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte slice"));
    let read_u64 = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte slice"));

    let flags = read_u32(take(4)?);
    if flags != 0 {
        return Err(PersistError::Malformed("unknown flags (newer format?)"));
    }
    let hits = read_u64(take(8)?);
    let misses = read_u64(take(8)?);
    let evictions = read_u64(take(8)?);
    let count = read_u32(take(4)?);
    if count > MAX_KEYS {
        return Err(PersistError::Malformed(
            "key count exceeds the format limit",
        ));
    }
    let mut keys = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let graph_fingerprint = read_u64(take(8)?);
        let max_restriction_sets = read_u32(take(4)?) as usize;
        let max_schedules = read_u32(take(4)?) as usize;
        let pattern_len = read_u16(take(2)?);
        if pattern_len > MAX_PATTERN_LEN {
            return Err(PersistError::Malformed("pattern length exceeds the limit"));
        }
        let pattern = take(pattern_len as usize)?.to_vec();
        keys.push(SavedPlanKey {
            pattern,
            max_restriction_sets,
            max_schedules,
            graph_fingerprint,
        });
    }
    if pos != payload.len() {
        return Err(PersistError::Malformed("trailing bytes after the last key"));
    }
    Ok(PlanCacheSnapshot {
        keys,
        hits,
        misses,
        evictions,
    })
}

/// Snapshots `cache` (keys + counters) and writes it to `path` atomically
/// (write to `path.tmp`, then rename). Returns the number of keys saved.
pub(crate) fn save_plan_cache(cache: &PlanCache, path: &Path) -> Result<usize, PersistError> {
    let CacheStats {
        hits,
        misses,
        evictions,
        ..
    } = cache.stats();
    let snapshot = PlanCacheSnapshot {
        keys: cache.saved_keys(),
        hits,
        misses,
        evictions,
    };
    let saved = snapshot.keys.len();
    let bytes = encode_snapshot(&snapshot);
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(saved)
}

/// Loads a snapshot from `path`. A missing file is reported as
/// [`PersistError::Io`] with [`std::io::ErrorKind::NotFound`] — callers
/// treat that as a cold start, not a failure.
pub(crate) fn load_plan_cache(path: &Path) -> Result<PlanCacheSnapshot, PersistError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode_snapshot(&bytes)
}

/// Loads a snapshot, folding every failure into "cold start". This is
/// the boot path for services that must come up no matter what is on
/// disk: a missing, truncated, or corrupt snapshot (e.g. a file caught
/// mid-write by a crash — the atomic tmp+rename in [`save_plan_cache`]
/// makes that near-impossible, but disks misbehave) yields `None`, and
/// the next periodic snapshot overwrites it.
pub(crate) fn try_load_plan_cache(path: &Path) -> Option<PlanCacheSnapshot> {
    load_plan_cache(path).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CountOptions, GraphPi, PlanOptions};
    use graphpi_graph::generators;
    use graphpi_pattern::prefab;

    fn snapshot_with(keys: Vec<SavedPlanKey>) -> PlanCacheSnapshot {
        PlanCacheSnapshot {
            keys,
            hits: 7,
            misses: 3,
            evictions: 1,
        }
    }

    fn sample_key(seed: u64) -> SavedPlanKey {
        SavedPlanKey {
            pattern: prefab::house().canonical_bytes(),
            max_restriction_sets: 64,
            max_schedules: 0,
            graph_fingerprint: seed,
        }
    }

    #[test]
    fn snapshot_round_trips() {
        for snapshot in [
            snapshot_with(vec![]),
            snapshot_with(vec![sample_key(1)]),
            snapshot_with(vec![sample_key(1), sample_key(2), sample_key(3)]),
        ] {
            let bytes = encode_snapshot(&snapshot);
            assert_eq!(decode_snapshot(&bytes).unwrap(), snapshot);
        }
    }

    #[test]
    fn corrupt_snapshots_yield_typed_errors() {
        let bytes = encode_snapshot(&snapshot_with(vec![sample_key(9)]));
        // Too short / bad magic.
        assert!(matches!(
            decode_snapshot(&[]),
            Err(PersistError::Malformed(_))
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_snapshot(&bad_magic),
            Err(PersistError::BadMagic)
        ));
        // Any flipped payload byte trips the checksum.
        let mut flipped = bytes.clone();
        flipped[MAGIC.len() + 2] ^= 0x01;
        assert!(matches!(
            decode_snapshot(&flipped),
            Err(PersistError::ChecksumMismatch)
        ));
        // Truncation is caught (by length math or the checksum).
        for cut in 1..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn save_load_warm_start_end_to_end() {
        let dir = std::env::temp_dir().join(format!("graphpi_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.gppc");

        let engine = GraphPi::new(generators::power_law(150, 5, 21));
        let cache = std::sync::Arc::new(PlanCache::new(8));
        let session = engine.session_shared(
            std::sync::Arc::new(crate::exec::pool::WorkerPool::new(1)),
            std::sync::Arc::clone(&cache),
            PlanOptions::default(),
            CountOptions::default(),
        );
        let expected = session.count(&prefab::house()).unwrap();
        session.count(&prefab::triangle()).unwrap();
        assert_eq!(save_plan_cache(&cache, &path).unwrap(), 2);

        // "Restart": fresh session over the same graph, warm from disk.
        let restarted = engine.session_with(
            crate::config::PoolOptions {
                threads: 1,
                cache_capacity: 8,
                ..Default::default()
            },
            PlanOptions::default(),
            CountOptions::default(),
        );
        let snapshot = load_plan_cache(&path).unwrap();
        assert_eq!(snapshot.keys.len(), 2);
        let report = restarted.warm_start(&snapshot.keys);
        assert_eq!(report.applicable, 2);
        assert_eq!(report.warmed, 2);
        // The first query after warm start is a HIT, and counts agree.
        assert_eq!(restarted.count(&prefab::house()).unwrap(), expected);
        let stats = restarted.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2, "only the warm-start plans were misses");

        // Keys for a different graph are inapplicable on this engine.
        let other = GraphPi::new(generators::power_law(150, 5, 22));
        let other_session = other.session_with(
            crate::config::PoolOptions {
                threads: 1,
                cache_capacity: 8,
                ..Default::default()
            },
            PlanOptions::default(),
            CountOptions::default(),
        );
        let report = other_session.warm_start(&snapshot.keys);
        assert_eq!(report.applicable, 0);
        assert_eq!(report.warmed, 0);

        // A missing file is NotFound, not a panic.
        assert!(matches!(
            load_plan_cache(&dir.join("absent.gppc")),
            Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound
        ));
        std::fs::remove_file(&path).ok();
    }
}
