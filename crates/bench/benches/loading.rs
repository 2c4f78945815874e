//! Ingest-path benchmarks: text parse vs binary copy-load vs zero-copy
//! mmap open, and serial vs parallel CSR construction — the data-plane
//! costs that gate every dataset-scale experiment, and the one row family
//! the perf ledger has no probe for.
//!
//! Correctness is asserted before anything is timed: every load path must
//! produce a graph with the same `GraphStats::fingerprint`, and the binary
//! paths must reproduce the saved graph exactly.

use graphpi_bench::{banner, measure, scale_from_env, Table};
use graphpi_graph::builder::build_from_edge_slice;
use graphpi_graph::csr::VertexId;
use graphpi_graph::{generators, io, GraphStats};
use std::hint::black_box;

/// Timed repetitions per row, after one untimed warm-up call.
const REPS: u32 = 20;

/// Thread count used by the parallel-build bench: the available cores
/// (capped), but at least 2 so the parallel code path is always the one
/// being measured — on a single-core box this honestly reports its
/// orchestration overhead instead of silently collapsing to serial.
fn build_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(2, 8)
}

/// The bench dataset: a power-law graph scaled by `GRAPHPI_BENCH_SCALE`
/// (~120k raw edges at scale 1.0 — large enough that parse, sort and
/// placement dominate thread orchestration).
fn dataset() -> graphpi_graph::CsrGraph {
    let scale = scale_from_env();
    let n = ((20_000.0 * scale) as usize).max(500);
    generators::power_law(n, 6, 0x10AD)
}

struct LoadFixture {
    dir: std::path::PathBuf,
    text_path: std::path::PathBuf,
    bin_path: std::path::PathBuf,
    edges: Vec<(VertexId, VertexId)>,
}

impl LoadFixture {
    fn create() -> Self {
        let graph = dataset();
        let dir =
            std::env::temp_dir().join(format!("graphpi_loading_bench_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create bench dir");
        let text_path = dir.join("bench_graph.txt");
        let bin_path = dir.join("bench_graph.bin");
        io::save_edge_list(&graph, &text_path).expect("write text");
        io::save_binary(&graph, &bin_path).expect("write binary");
        let edges: Vec<(VertexId, VertexId)> = graph.edges().collect();

        // Agreement gate: all load paths must describe the same graph.
        let reference = GraphStats::compute(&graph).fingerprint();
        let text = io::load_edge_list(&text_path).expect("text load");
        assert_eq!(GraphStats::compute(&text).fingerprint(), reference);
        let copied = io::load_binary(&bin_path).expect("binary load");
        assert_eq!(copied, graph);
        let mapped = io::load_binary_mmap(&bin_path).expect("mmap load");
        assert_eq!(mapped, graph);
        assert_eq!(GraphStats::compute(&mapped).fingerprint(), reference);
        // And both build paths must construct it identically.
        assert_eq!(build_from_edge_slice(&edges, 0, 1), graph);
        assert_eq!(build_from_edge_slice(&edges, 0, build_threads()), graph);

        println!(
            "loading bench graph: {} vertices, {} edges, binary {} bytes, mmap={}",
            graph.num_vertices(),
            graph.num_edges(),
            std::fs::metadata(&bin_path).map(|m| m.len()).unwrap_or(0),
            mapped.is_memory_mapped(),
        );
        Self {
            dir,
            text_path,
            bin_path,
            edges,
        }
    }
}

/// Mean milliseconds per call of `op` over [`REPS`] calls.
fn mean_ms<T>(mut op: impl FnMut() -> T) -> f64 {
    black_box(op());
    let ((), elapsed) = measure(|| {
        for _ in 0..REPS {
            black_box(op());
        }
    });
    elapsed.as_secs_f64() * 1e3 / f64::from(REPS)
}

fn main() {
    banner(
        "Loading — text parse vs binary copy vs mmap open; serial vs parallel CSR build",
        &format!("mean of {REPS} calls per row, in milliseconds"),
    );
    let fixture = LoadFixture::create();
    let threads = build_threads();

    let text = mean_ms(|| io::load_edge_list(&fixture.text_path).expect("text load"));
    let copy = mean_ms(|| io::load_binary(&fixture.bin_path).expect("binary load"));
    let mmap = mean_ms(|| io::load_binary_mmap(&fixture.bin_path).expect("mmap load"));
    let serial = mean_ms(|| build_from_edge_slice(black_box(&fixture.edges), 0, 1));
    let parallel = mean_ms(|| build_from_edge_slice(black_box(&fixture.edges), 0, threads));
    let out = fixture.dir.join("bench_convert.bin");
    let convert = mean_ms(|| {
        let g = io::load_edge_list(&fixture.text_path).expect("text load");
        io::save_binary(&g, &out).expect("binary save");
    });
    std::fs::remove_dir_all(&fixture.dir).ok();

    let mut table = Table::new(vec!["op", "threads", "ms/call"]);
    for (op, op_threads, ms) in [
        ("loading/text_load", 1, text),
        ("loading/binary_load_copy", 1, copy),
        ("loading/binary_load_mmap", 1, mmap),
        ("loading/build_serial", 1, serial),
        ("loading/build_parallel", threads, parallel),
        ("loading/convert_text_to_binary", 1, convert),
    ] {
        table.row(vec![
            op.to_string(),
            op_threads.to_string(),
            format!("{ms:.3}"),
        ]);
    }
    println!();
    table.print();

    println!(
        "\nload speedup vs text parse: binary copy {:.2}x, mmap {:.2}x",
        text / copy,
        text / mmap,
    );
    println!(
        "build speedup vs serial: parallel({threads} threads) {:.2}x",
        serial / parallel,
    );
    // The headline the ingest overhaul is judged on: the old pipeline
    // (text parse + serial build) vs the new one (mmap open + parallel
    // build; the mmap number already contains full validation).
    println!(
        "ingest pipeline speedup: (text+serial {:.2} ms) / (mmap+parallel {:.2} ms) = {:.2}x",
        text + serial,
        mmap + parallel,
        (text + serial) / (mmap + parallel),
    );
}
