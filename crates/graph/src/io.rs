//! Loading and saving data graphs.
//!
//! The paper's system takes the data graph "in the form of adjacency lists";
//! in practice graph datasets are distributed as whitespace-separated edge
//! lists (the SNAP format), so this module supports:
//!
//! * [`load_edge_list`] / [`save_edge_list`] — plain text, one `u v` pair per
//!   line, `#`-prefixed comment lines ignored, arbitrary vertex labels
//!   remapped to a dense `0..n` range.
//! * [`save_binary`] / [`load_binary`] / [`load_binary_mmap`] — the **v2
//!   binary format**: a versioned, checksummed 64-byte header followed by
//!   the raw CSR arrays, so loading is validation rather than
//!   reconstruction. [`load_binary_mmap`] maps the arrays zero-copy
//!   (64-bit Unix; elsewhere it transparently falls back to a copying
//!   read) — the path that opens the door to Patents/LiveJournal/Orkut
//!   scale ingest. The retired `GRPHPI01` edge-pair format is recognised
//!   only to be refused with a pointer to `graphpi-cli convert`.
//!
//! # v2 binary layout (little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "GRPHPI02"
//!      8     4  version (2)
//!     12     4  flags (0, reserved)
//!     16     8  num_vertices
//!     24     8  num_edges
//!     32     8  neighbors_len (= 2 * num_edges)
//!     40     8  payload checksum (FNV-1a over LE u64 words, zero-padded)
//!     48     8  header checksum (FNV-1a over bytes 0..48)
//!     56     8  reserved (0)
//!     64     -  offsets: u64 x (num_vertices + 1)
//!      -     -  neighbors: u32 x neighbors_len
//! ```
//!
//! Every open — mmap or copying — validates the magic, version, both
//! checksums, the exact file size, offset monotonicity/bounds and per-row
//! strict sortedness before a [`CsrGraph`] is produced, so truncated or
//! corrupt files fail with a typed [`LoadError`] instead of reading
//! garbage (the truncation test sweeps every prefix length).

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use crate::mmap::{MappedSlice, Region, SharedSlice};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes of the current (v2, raw-CSR) binary format.
const BINARY_MAGIC_V2: &[u8; 8] = b"GRPHPI02";

/// Magic bytes of the retired v1 (edge-pair) binary format. Nothing has
/// written it since v2 landed; it is still *recognised* so such a file is
/// refused with a useful message instead of "magic mismatch" (or, worse,
/// being sniffed as a text edge list).
const BINARY_MAGIC_V1: &[u8; 8] = b"GRPHPI01";

/// Version field written into v2 headers.
pub(crate) const BINARY_VERSION: u32 = 2;

/// Size of the v2 header in bytes.
pub(crate) const BINARY_HEADER_LEN: usize = 64;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// One FNV-1a step: folds `unit` (a byte, or a whole word in the word-wise
/// form below) into `hash`.
#[inline]
fn fnv_mix(hash: u64, unit: u64) -> u64 {
    (hash ^ unit).wrapping_mul(FNV_PRIME)
}

/// 64-bit FNV-1a over raw bytes: the checksum of WAL records and the
/// statistics fingerprint. The `GRPHPI02` payload uses the word-wise form,
/// one step per 8 bytes.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |hash, &byte| fnv_mix(hash, byte as u64))
}

/// Errors produced while loading a graph.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying IO failure.
    Io(io::Error),
    /// A line could not be parsed as an edge.
    Parse {
        /// 1-based line number of the offending line.
        line_number: usize,
        /// The offending line's text.
        line: String,
    },
    /// The binary header or payload is missing, truncated or corrupt.
    BadFormat(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Parse { line_number, line } => {
                write!(f, "cannot parse line {line_number}: {line:?}")
            }
            LoadError::BadFormat(msg) => write!(f, "bad binary format: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Parses a whitespace-separated edge list from a reader.
///
/// Vertex labels may be arbitrary `u64`s; they are remapped to dense ids in
/// first-appearance order. Lines starting with `#` or `%` and empty lines
/// are skipped.
pub(crate) fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, LoadError> {
    let reader = BufReader::new(reader);
    let mut remap: HashMap<u64, VertexId> = HashMap::new();
    let mut builder = GraphBuilder::new();
    let intern = |label: u64, remap: &mut HashMap<u64, VertexId>| -> VertexId {
        let next = remap.len() as VertexId;
        *remap.entry(label).or_insert(next)
    };
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
            return Err(LoadError::Parse {
                line_number: idx + 1,
                line,
            });
        };
        let (Ok(a), Ok(b)) = (a.parse::<u64>(), b.parse::<u64>()) else {
            return Err(LoadError::Parse {
                line_number: idx + 1,
                line,
            });
        };
        let u = intern(a, &mut remap);
        let v = intern(b, &mut remap);
        builder.push_edge(u, v);
    }
    Ok(builder.build())
}

/// Loads an edge-list file from disk. See `read_edge_list`.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<CsrGraph, LoadError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

/// Writes a graph as a plain-text edge list (each undirected edge once).
pub(crate) fn write_edge_list<W: Write>(graph: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# graphpi edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (u, v) in graph.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Saves a graph as a plain-text edge list file.
pub fn save_edge_list<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, file)
}

/// FNV-1a over the little-endian `u64` words of `bytes` (the final partial
/// word, if any, zero-padded). Matches [`payload_checksum`] on the byte
/// image the writer produces.
fn fnv1a_words(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        hash = fnv_mix(hash, word);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        hash = fnv_mix(hash, u64::from_le_bytes(buf));
    }
    hash
}

/// The payload checksum computed from the in-memory arrays (no byte
/// materialisation): the offsets section is exactly one LE word per entry,
/// and neighbor pairs pack into one word (odd tail zero-extended), so this
/// equals [`fnv1a_words`] over the serialised payload.
fn payload_checksum(offsets: &[usize], neighbors: &[VertexId]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut mix = |word: u64| hash = fnv_mix(hash, word);
    for &o in offsets {
        mix(o as u64);
    }
    let mut pairs = neighbors.chunks_exact(2);
    for pair in &mut pairs {
        mix(pair[0] as u64 | (pair[1] as u64) << 32);
    }
    if let [last] = pairs.remainder() {
        mix(*last as u64);
    }
    hash
}

/// Serialises a slice in bulk through a reusable chunk buffer (one
/// `write_all` per ~64 KiB instead of one per element — the difference is
/// seconds on dataset-scale graphs).
fn write_le_chunked<W: Write, T: Copy>(
    w: &mut W,
    values: &[T],
    to_le: impl Fn(T, &mut Vec<u8>),
) -> io::Result<()> {
    const CHUNK_BYTES: usize = 64 * 1024;
    let mut buf: Vec<u8> = Vec::with_capacity(CHUNK_BYTES + 8);
    for &v in values {
        to_le(v, &mut buf);
        if buf.len() >= CHUNK_BYTES {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)
}

/// Saves a graph in the v2 binary format (see the module docs for the
/// layout).
///
/// The file is written to a temporary sibling and atomically renamed into
/// place, so a concurrent reader holding the old file memory-mapped keeps
/// its (old) pages — truncating in place would SIGBUS it — and a crashed
/// writer never leaves a half-written file under the target name.
pub fn save_binary<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> io::Result<()> {
    let offsets = graph.offsets_slice();
    let neighbors = graph.neighbors_slice();

    let mut header = [0u8; BINARY_HEADER_LEN];
    header[0..8].copy_from_slice(BINARY_MAGIC_V2);
    header[8..12].copy_from_slice(&BINARY_VERSION.to_le_bytes());
    // flags at 12..16 stay 0.
    header[16..24].copy_from_slice(&(graph.num_vertices() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&graph.num_edges().to_le_bytes());
    header[32..40].copy_from_slice(&(neighbors.len() as u64).to_le_bytes());
    header[40..48].copy_from_slice(&payload_checksum(offsets, neighbors).to_le_bytes());
    let header_checksum = fnv1a_words(&header[0..48]);
    header[48..56].copy_from_slice(&header_checksum.to_le_bytes());
    // reserved at 56..64 stays 0.

    let path = path.as_ref();
    // Unique per target name, process AND call: `with_extension` would
    // collide for targets sharing a stem, and a bare PID would collide
    // for concurrent saves within one process.
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "graph".to_string());
    let tmp_path = path.with_file_name(format!("{file_name}.tmp.{}.{seq}", std::process::id()));
    let result = (|| {
        let file = std::fs::File::create(&tmp_path)?;
        let mut w = BufWriter::new(file);
        w.write_all(&header)?;
        write_le_chunked(&mut w, offsets, |o, buf| {
            buf.extend_from_slice(&(o as u64).to_le_bytes())
        })?;
        write_le_chunked(&mut w, neighbors, |v, buf| {
            buf.extend_from_slice(&v.to_le_bytes())
        })?;
        w.flush()?;
        std::fs::rename(&tmp_path, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp_path).ok();
    }
    result
}

/// Whether `path` starts with a binary graph magic (the current one, or
/// the retired v1 one the loaders then refuse by name). This is the sniff
/// `--format auto` front ends should use — it keeps the magic knowledge
/// next to the formats themselves.
pub fn sniff_is_binary<P: AsRef<Path>>(path: P) -> bool {
    let mut magic = [0u8; 8];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .map(|()| &magic == BINARY_MAGIC_V1 || &magic == BINARY_MAGIC_V2)
        .unwrap_or(false)
}

/// The validated fields of a v2 header.
struct HeaderV2 {
    num_vertices: usize,
    neighbors_len: usize,
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Validates magic, version, both checksums and the exact file size.
fn validate_header_v2(bytes: &[u8]) -> Result<HeaderV2, LoadError> {
    let fail = |msg: String| Err(LoadError::BadFormat(msg));
    if bytes.starts_with(BINARY_MAGIC_V1) {
        return fail("GRPHPI01 is no longer read; re-run `graphpi-cli convert`".into());
    }
    if bytes.len() < BINARY_HEADER_LEN {
        return fail(format!(
            "truncated header: {} bytes, need {BINARY_HEADER_LEN}",
            bytes.len()
        ));
    }
    if &bytes[0..8] != BINARY_MAGIC_V2 {
        return fail("magic mismatch".into());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != BINARY_VERSION {
        return fail(format!("unsupported version {version}"));
    }
    let flags = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if flags != 0 {
        return fail(format!("unsupported flags {flags:#x}"));
    }
    let stored_header_checksum = read_u64(bytes, 48);
    if fnv1a_words(&bytes[0..48]) != stored_header_checksum {
        return fail("header checksum mismatch".into());
    }
    let num_vertices = read_u64(bytes, 16);
    let num_edges = read_u64(bytes, 24);
    let neighbors_len = read_u64(bytes, 32);
    if neighbors_len != num_edges.saturating_mul(2) {
        return fail(format!(
            "neighbors_len {neighbors_len} != 2 * num_edges {num_edges}"
        ));
    }
    let expected = (num_vertices.checked_add(1))
        .and_then(|n1| n1.checked_mul(8))
        .and_then(|ob| {
            neighbors_len
                .checked_mul(4)
                .and_then(|nb| ob.checked_add(nb))
        })
        .and_then(|pb| pb.checked_add(BINARY_HEADER_LEN as u64));
    match expected {
        Some(expected) if expected == bytes.len() as u64 => {}
        Some(expected) => {
            return fail(format!(
                "file is {} bytes, header implies {expected} (truncated or trailing data)",
                bytes.len()
            ))
        }
        None => return fail("header sizes overflow".into()),
    }
    let stored_payload_checksum = read_u64(bytes, 40);
    if fnv1a_words(&bytes[BINARY_HEADER_LEN..]) != stored_payload_checksum {
        return fail("payload checksum mismatch".into());
    }
    let _ = num_edges; // consistency with neighbors_len checked above
    let num_vertices = usize::try_from(num_vertices)
        .map_err(|_| LoadError::BadFormat("num_vertices exceeds address space".into()))?;
    let neighbors_len = usize::try_from(neighbors_len)
        .map_err(|_| LoadError::BadFormat("neighbors_len exceeds address space".into()))?;
    Ok(HeaderV2 {
        num_vertices,
        neighbors_len,
    })
}

/// Release-mode validation of the CSR invariants every loaded graph must
/// satisfy: offset monotonicity and bounds, per-row strict sortedness,
/// neighbor range and no self loops.
fn validate_csr(offsets: &[usize], neighbors: &[VertexId]) -> Result<(), LoadError> {
    let fail = |msg: String| Err(LoadError::BadFormat(msg));
    let n = offsets.len() - 1;
    if offsets[0] != 0 {
        return fail(format!("offsets[0] = {} (must be 0)", offsets[0]));
    }
    if offsets[n] != neighbors.len() {
        return fail(format!(
            "offsets end at {} but there are {} neighbor entries",
            offsets[n],
            neighbors.len()
        ));
    }
    for v in 0..n {
        let (start, end) = (offsets[v], offsets[v + 1]);
        if start > end || end > neighbors.len() {
            return fail(format!("offsets not monotonic at vertex {v}"));
        }
        let row = &neighbors[start..end];
        for w in row.windows(2) {
            if w[0] >= w[1] {
                return fail(format!("adjacency of vertex {v} not strictly sorted"));
            }
        }
        for &u in row {
            if u as usize >= n {
                return fail(format!("neighbor {u} of vertex {v} out of range"));
            }
            if u as usize == v {
                return fail(format!("self loop at vertex {v}"));
            }
        }
    }
    Ok(())
}

/// Copying parse of a v2 image.
fn parse_binary_v2(bytes: &[u8]) -> Result<CsrGraph, LoadError> {
    let header = validate_header_v2(bytes)?;
    let n = header.num_vertices;
    let mut offsets = Vec::with_capacity(n + 1);
    let offsets_bytes = &bytes[BINARY_HEADER_LEN..BINARY_HEADER_LEN + 8 * (n + 1)];
    for word in offsets_bytes.chunks_exact(8) {
        let o = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        offsets.push(
            usize::try_from(o)
                .map_err(|_| LoadError::BadFormat(format!("offset {o} exceeds address space")))?,
        );
    }
    let mut neighbors = Vec::with_capacity(header.neighbors_len);
    for word in bytes[BINARY_HEADER_LEN + 8 * (n + 1)..].chunks_exact(4) {
        neighbors.push(u32::from_le_bytes(word.try_into().expect("4 bytes")));
    }
    validate_csr(&offsets, &neighbors)?;
    Ok(CsrGraph::from_shared_parts(
        offsets.into(),
        neighbors.into(),
    ))
}

/// Loads a v2 binary graph file by reading it into memory.
///
/// For large files prefer [`load_binary_mmap`], which maps the arrays
/// zero-copy where the platform supports it.
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<CsrGraph, LoadError> {
    parse_binary_v2(&std::fs::read(path)?)
}

/// Opens a v2 binary graph file **zero-copy**: the offsets and neighbors
/// arrays become views over a private read-only memory mapping, validated
/// in full (checksums, monotonicity, bounds, sortedness) before the graph
/// is returned.
///
/// On targets without the mapping fast path (non-Unix or 32-bit) the file
/// is read into an aligned heap region instead — same validation, same
/// result, one copy.
pub fn load_binary_mmap<P: AsRef<Path>>(path: P) -> Result<CsrGraph, LoadError> {
    let region = Arc::new(Region::map(path)?);
    let bytes = region.bytes();
    let header = validate_header_v2(bytes)?;
    #[cfg(all(target_pointer_width = "64", target_endian = "little"))]
    {
        // usize == u64 with matching (little-endian) byte order here, so
        // the offsets array is viewable in place.
        let n = header.num_vertices;
        let offsets = MappedSlice::<usize>::new(Arc::clone(&region), BINARY_HEADER_LEN, n + 1)
            .map_err(LoadError::BadFormat)?;
        let neighbors = MappedSlice::<VertexId>::new(
            Arc::clone(&region),
            BINARY_HEADER_LEN + 8 * (n + 1),
            header.neighbors_len,
        )
        .map_err(LoadError::BadFormat)?;
        validate_csr(offsets.as_slice(), neighbors.as_slice())?;
        Ok(CsrGraph::from_shared_parts(
            SharedSlice::Mapped(offsets),
            SharedSlice::Mapped(neighbors),
        ))
    }
    #[cfg(not(all(target_pointer_width = "64", target_endian = "little")))]
    {
        // 32-bit or big-endian: the on-disk LE u64 offsets cannot alias
        // native usizes — fall back to the copying parse.
        let _ = header;
        parse_binary_v2(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn temp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("graphpi_io_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_text_with_comments_and_labels() {
        let text = "# a comment\n% another\n\n10 20\n20 30\n10 30\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(crate::triangles::count_triangles(&g), 1);

        // CRLF, tabs, blank and comment lines, a self loop and trailing
        // tokens; labels densify in first-appearance order (7, 3, 9, 10^9+7).
        let messy = "# comment header\n\
                     7 3\n\
                     \t 3   9 \r\n\
                     % another comment\n\
                     \n\
                     1000000007 7\n\
                     9 9\n\
                     3 1000000007 trailing tokens ignored\n";
        let expected = crate::builder::from_edges(&[(0, 1), (1, 2), (3, 0), (1, 3)]);
        assert_eq!(read_edge_list(messy.as_bytes()).unwrap(), expected);
        // No trailing newline on the last line.
        assert_eq!(
            read_edge_list(messy.trim_end().as_bytes()).unwrap(),
            expected
        );
    }

    #[test]
    fn parse_error_reports_line() {
        let text = "1 2\noops\n";
        match read_edge_list(text.as_bytes()) {
            Err(LoadError::Parse { line_number, .. }) => assert_eq!(line_number, 2),
            other => panic!("expected parse error, got {other:?}"),
        }

        // A bad line mid-file with a later one also bad: the first wins,
        // comment lines counted.
        let mut text = String::from("# header\n");
        for i in 0..200 {
            text.push_str(&format!("{i} {}\n", i + 1));
        }
        text.push_str("not an edge\n");
        for i in 0..50 {
            text.push_str(&format!("{i} {}\n", i + 3));
        }
        text.push_str("also bad\n");
        match read_edge_list(text.as_bytes()) {
            Err(LoadError::Parse { line_number, line }) => {
                assert_eq!(line_number, 202);
                assert_eq!(line, "not an edge");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn text_round_trip() {
        let g = generators::power_law(100, 3, 9);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        // Vertex relabeling may permute ids, but the counts are invariant.
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(
            crate::triangles::count_triangles(&g),
            crate::triangles::count_triangles(&g2)
        );
    }

    #[test]
    fn binary_round_trip_copy_and_mmap() {
        let g = generators::erdos_renyi(50, 200, 4);
        let path = temp_dir().join("graph.bin");
        save_binary(&g, &path).unwrap();
        let copied = load_binary(&path).unwrap();
        assert_eq!(g, copied);
        assert!(!copied.is_memory_mapped());
        let mapped = load_binary_mmap(&path).unwrap();
        assert_eq!(g, mapped);
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(mapped.is_memory_mapped());
        // The mapped view must be fully usable after the file handle is
        // gone (the mapping owns the region).
        assert_eq!(
            crate::triangles::count_triangles(&mapped),
            crate::triangles::count_triangles(&g)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_isolated_graphs_round_trip() {
        for g in [
            GraphBuilder::new().build(),
            GraphBuilder::new().num_vertices(7).build(),
        ] {
            let path = temp_dir().join("degenerate.bin");
            save_binary(&g, &path).unwrap();
            assert_eq!(load_binary(&path).unwrap(), g);
            assert_eq!(load_binary_mmap(&path).unwrap(), g);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn edge_list_file_round_trip() {
        let g = generators::cycle(10);
        let path = temp_dir().join("graph.txt");
        save_edge_list(&g, &path).unwrap();
        let g2 = load_edge_list(&path).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(g.num_vertices(), g2.num_vertices());
        std::fs::remove_file(&path).ok();
    }

    /// Zero-length and sub-magic-size files must sniff as text and produce
    /// a typed error from the binary loaders — never a panic or an
    /// out-of-bounds read. Regression suite for the `--format auto` front
    /// end path, which feeds whatever the user points it at straight into
    /// [`sniff_is_binary`] and then one of the loaders.
    #[test]
    fn zero_length_and_sub_magic_files_are_handled_cleanly() {
        // Every prefix of both magics, from the empty file up to one byte
        // short of a full magic, plus arbitrary short junk.
        let mut contents: Vec<Vec<u8>> = Vec::new();
        for len in 0..8 {
            contents.push(BINARY_MAGIC_V2[..len].to_vec());
            contents.push(BINARY_MAGIC_V1[..len].to_vec());
        }
        contents.push(b"x".to_vec());
        contents.push(b"1234567".to_vec());
        for (i, bytes) in contents.iter().enumerate() {
            let path = temp_dir().join(format!("short_{i}.bin"));
            std::fs::write(&path, bytes).unwrap();
            assert!(
                !sniff_is_binary(&path),
                "{} bytes of {:?} must sniff as text",
                bytes.len(),
                bytes
            );
            for result in [load_binary(&path), load_binary_mmap(&path)] {
                assert!(
                    matches!(result, Err(LoadError::BadFormat(_))),
                    "short file {i} ({} bytes) must be a typed error, got {result:?}",
                    bytes.len()
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// A file holding exactly the 8 magic bytes and nothing else sniffs as
    /// binary (the magic is all the sniff reads) but then fails header
    /// validation with a typed truncation error on both loaders.
    #[test]
    fn magic_only_files_sniff_binary_but_fail_validation() {
        for (name, magic) in [("v2", BINARY_MAGIC_V2), ("v1", BINARY_MAGIC_V1)] {
            let path = temp_dir().join(format!("magic_only_{name}.bin"));
            std::fs::write(&path, magic).unwrap();
            assert!(sniff_is_binary(&path), "{name} magic must sniff binary");
            for result in [load_binary(&path), load_binary_mmap(&path)] {
                assert!(
                    matches!(result, Err(LoadError::BadFormat(_))),
                    "magic-only {name} file must be a typed error, got {result:?}"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// Sniffing a missing file reports text (the subsequent load produces
    /// the real IO error), and an empty edge list parses as the empty
    /// graph rather than failing.
    #[test]
    fn sniff_missing_file_and_empty_edge_list() {
        assert!(!sniff_is_binary("/nonexistent/graphpi/sniff.bin"));
        let g = read_edge_list(&b""[..]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        let g = read_edge_list(&b"# only a comment\n\n"[..]).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_dir().join("bad.bin");
        std::fs::write(&path, b"NOTAGRPH________".repeat(8)).unwrap();
        assert!(matches!(load_binary(&path), Err(LoadError::BadFormat(_))));
        assert!(matches!(
            load_binary_mmap(&path),
            Err(LoadError::BadFormat(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn systematically_truncated_files_error_cleanly() {
        let g = generators::erdos_renyi(30, 120, 11);
        let path = temp_dir().join("trunc_src.bin");
        save_binary(&g, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // Every header byte boundary, plus cuts through the offsets array,
        // the neighbors array and just short of the end.
        let mut cuts: Vec<usize> = (0..=BINARY_HEADER_LEN).collect();
        let arrays = full.len() - BINARY_HEADER_LEN;
        for k in 1..8 {
            cuts.push(BINARY_HEADER_LEN + arrays * k / 8);
        }
        cuts.push(full.len() - 1);
        for cut in cuts {
            let path = temp_dir().join(format!("trunc_{cut}.bin"));
            std::fs::write(&path, &full[..cut]).unwrap();
            for result in [load_binary(&path), load_binary_mmap(&path)] {
                match result {
                    Err(LoadError::BadFormat(_)) | Err(LoadError::Io(_)) => {}
                    other => panic!("cut at {cut}: expected error, got {other:?}"),
                }
            }
            std::fs::remove_file(&path).ok();
        }

        // Trailing garbage is also rejected.
        let mut extended = full.clone();
        extended.extend_from_slice(&[0u8; 4]);
        let path = temp_dir().join("trailing.bin");
        std::fs::write(&path, &extended).unwrap();
        assert!(matches!(load_binary(&path), Err(LoadError::BadFormat(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_and_header_are_rejected() {
        let g = generators::power_law(60, 4, 5);
        let path = temp_dir().join("corrupt_src.bin");
        save_binary(&g, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // Flip one byte in the header counts, the offsets array and the
        // neighbors array; a checksum must catch each.
        for flip_at in [17usize, BINARY_HEADER_LEN + 3, full.len() - 2] {
            let mut corrupt = full.clone();
            corrupt[flip_at] ^= 0xA5;
            let path = temp_dir().join(format!("corrupt_{flip_at}.bin"));
            std::fs::write(&path, &corrupt).unwrap();
            for result in [load_binary(&path), load_binary_mmap(&path)] {
                assert!(
                    matches!(result, Err(LoadError::BadFormat(_))),
                    "flip at {flip_at} must be detected"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn retired_v1_files_are_refused_by_name() {
        let g = generators::erdos_renyi(40, 150, 8);
        // Hand-write a complete, valid image in the v1 edge-pair format.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(BINARY_MAGIC_V1);
        bytes.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
        bytes.extend_from_slice(&g.num_edges().to_le_bytes());
        for (u, v) in g.edges() {
            bytes.extend_from_slice(&u.to_le_bytes());
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let path = temp_dir().join("retired_v1.bin");
        std::fs::write(&path, &bytes).unwrap();
        // Still sniffed as binary (never parsed as a text edge list), and
        // both loaders say what the file is and what to do about it.
        assert!(sniff_is_binary(&path));
        for result in [load_binary(&path), load_binary_mmap(&path)] {
            match result {
                Err(LoadError::BadFormat(message)) => assert_eq!(
                    message,
                    "GRPHPI01 is no longer read; re-run `graphpi-cli convert`"
                ),
                other => panic!("a GRPHPI01 image must be refused, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_word_and_byte_formulations_agree() {
        let offsets = vec![0usize, 2, 5, 5, 9];
        let neighbors: Vec<u32> = vec![1, 3, 0, 2, 4, 1, 3, 0, 2];
        let mut bytes = Vec::new();
        for &o in &offsets {
            bytes.extend_from_slice(&(o as u64).to_le_bytes());
        }
        for &v in &neighbors {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(payload_checksum(&offsets, &neighbors), fnv1a_words(&bytes));
        // Even-length neighbor arrays too.
        let even = &neighbors[..8];
        let mut bytes = Vec::new();
        for &o in &offsets {
            bytes.extend_from_slice(&(o as u64).to_le_bytes());
        }
        for &v in even {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(payload_checksum(&offsets, even), fnv1a_words(&bytes));
    }
}
