//! Shared infrastructure for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! bench target in `benches/` (`docs/REPRODUCTION.md` is the experiment
//! index). This library provides what those targets share:
//!
//! * [`bench_datasets`] — laptop-scale synthetic stand-ins for the paper's
//!   six datasets (Table I), with the original sizes kept for display. The
//!   `GRAPHPI_BENCH_SCALE` environment variable scales the stand-ins up or
//!   down (default `1.0`).
//! * [`measure`] — wall-clock timing of a closure.
//! * [`Table`] — fixed-width table printing so the bench output mirrors the
//!   paper's rows.
//! * [`cluster`] — the discrete-event cluster simulator behind Figure 12.
//!
//! How fast the system itself is — kernels, pool, plan cache, wire path,
//! WAL — is the perf ledger's job (`perfledger/`, `BENCHMARK.json`), not
//! this crate's.

pub mod cluster;

use graphpi_graph::csr::CsrGraph;
use graphpi_graph::generators;
use std::time::{Duration, Instant};

/// A stand-in dataset used by the benches.
#[derive(Debug, Clone)]
pub struct BenchDataset {
    /// Name of the original dataset in the paper.
    pub name: &'static str,
    /// |V| of the original dataset (for display).
    pub original_vertices: u64,
    /// |E| of the original dataset (for display).
    pub original_edges: u64,
    /// The synthetic stand-in graph.
    pub graph: CsrGraph,
}

impl BenchDataset {
    /// One-line description used in bench headers.
    pub fn describe(&self) -> String {
        format!(
            "{:<12} stand-in: |V|={:>6}, |E|={:>7}  (original: |V|={}, |E|={})",
            self.name,
            self.graph.num_vertices(),
            self.graph.num_edges(),
            self.original_vertices,
            self.original_edges,
        )
    }
}

/// Reads the bench scale factor from `GRAPHPI_BENCH_SCALE` (default 1.0,
/// clamped to `[0.1, 20.0]`).
pub fn scale_from_env() -> f64 {
    std::env::var("GRAPHPI_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.1, 20.0)
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64) * scale).round().max(8.0) as usize
}

/// Wiki-Vote stand-in (small, dense, clustered).
pub fn wiki_vote(scale: f64) -> BenchDataset {
    BenchDataset {
        name: "Wiki-Vote",
        original_vertices: 7_100,
        original_edges: 100_800,
        graph: generators::power_law(scaled(600, scale), 8, 0xBEEF01),
    }
}

/// MiCo stand-in (co-authorship).
pub fn mico(scale: f64) -> BenchDataset {
    BenchDataset {
        name: "MiCo",
        original_vertices: 96_600,
        original_edges: 1_100_000,
        graph: generators::power_law(scaled(1_200, scale), 6, 0xBEEF02),
    }
}

/// Patents stand-in (sparse citation graph, low clustering).
pub fn patents(scale: f64) -> BenchDataset {
    let n = scaled(2_000, scale);
    BenchDataset {
        name: "Patents",
        original_vertices: 3_800_000,
        original_edges: 16_500_000,
        graph: generators::erdos_renyi(n, n * 5, 0xBEEF03),
    }
}

/// LiveJournal stand-in (social network).
pub fn livejournal(scale: f64) -> BenchDataset {
    BenchDataset {
        name: "LiveJournal",
        original_vertices: 4_000_000,
        original_edges: 34_700_000,
        graph: generators::power_law(scaled(1_500, scale), 6, 0xBEEF04),
    }
}

/// Orkut stand-in (dense social network).
pub fn orkut(scale: f64) -> BenchDataset {
    BenchDataset {
        name: "Orkut",
        original_vertices: 3_100_000,
        original_edges: 117_200_000,
        graph: generators::power_law(scaled(800, scale), 10, 0xBEEF05),
    }
}

/// Twitter stand-in (largest; used only for scalability, as in the paper).
pub fn twitter(scale: f64) -> BenchDataset {
    BenchDataset {
        name: "Twitter",
        original_vertices: 41_700_000,
        original_edges: 1_200_000_000,
        graph: generators::power_law(scaled(2_500, scale), 8, 0xBEEF06),
    }
}

/// The five datasets used in the single-node comparison figures, in paper
/// order (Figure 8, Figure 10).
pub fn bench_datasets(scale: f64) -> Vec<BenchDataset> {
    vec![
        wiki_vote(scale),
        mico(scale),
        patents(scale),
        livejournal(scale),
        orkut(scale),
    ]
}

/// Runs a closure and returns its result with the elapsed wall-clock time.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Formats a duration in seconds with three decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// A minimal fixed-width table printer for paper-style output.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            format!("| {} |", parts.join(" | "))
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|", sep.join("-|-")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints a standard experiment banner.
pub fn banner(title: &str, notes: &str) {
    println!("\n==================================================================");
    println!("{title}");
    if !notes.is_empty() {
        println!("{notes}");
    }
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_ordered_and_nontrivial() {
        let ds = bench_datasets(0.5);
        let names: Vec<_> = ds.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            vec!["Wiki-Vote", "MiCo", "Patents", "LiveJournal", "Orkut"]
        );
        for d in &ds {
            assert!(d.graph.num_edges() > 100, "{} too small", d.name);
            assert!(!d.describe().is_empty());
        }
    }

    #[test]
    fn scale_changes_sizes() {
        let small = wiki_vote(0.5);
        let large = wiki_vote(2.0);
        assert!(large.graph.num_vertices() > small.graph.num_vertices());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["pattern", "time"]);
        t.row(vec!["P1", "0.123"]);
        t.row(vec!["P2-long-name", "45.6"]);
        let r = t.render();
        assert!(r.contains("pattern"));
        assert!(r.contains("P2-long-name"));
        assert_eq!(r.lines().count(), 4);
        let widths: Vec<usize> = r.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{r}");
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn measure_returns_value_and_time() {
        let (v, d) = measure(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(d.as_secs_f64() >= 0.0);
        assert!(!secs(d).is_empty());
    }

    #[test]
    fn env_scale_defaults_to_one() {
        // The environment variable is normally unset in tests.
        let s = scale_from_env();
        assert!((0.1..=20.0).contains(&s));
    }
}
