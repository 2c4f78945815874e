//! Outside-in span tracing: the harness records a span around every call
//! it makes into a layer. Spans live in per-thread buffers, are merged
//! and written as JSON lines when the run ends, and are folded into
//! per-name self times (span minus the part its children cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root; every span of one
/// operation shares the root's id as `request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (thread tag in the high bits, so buffers never collide).
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// The root span of the operation this span belongs to.
    pub request: u64,
    /// Layer entry point, e.g. `session.plan_cached`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's trace epoch.
    pub end_ns: u64,
}

/// Handle to an open span (`None` when tracing is off or the buffer is
/// full).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// A single thread's span buffer. With tracing off every call is one
/// branch, so the untraced run executes the same harness code.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    enabled: bool,
    tag: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    /// Most spans one buffer keeps; later ones are counted as dropped.
    const CAPACITY: usize = 1 << 20;

    /// A buffer that records nothing.
    pub fn off() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: false,
            tag: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording buffer for thread `thread` (ids are unique per thread).
    pub fn on(epoch: Instant, thread: u64) -> Self {
        Self {
            epoch,
            enabled: true,
            tag: (thread + 1) << 40,
            spans: Vec::with_capacity(4_096),
            dropped: 0,
        }
    }

    /// A buffer in the same mode as `self` for another thread.
    pub fn sibling(&self, thread: u64) -> Self {
        if self.enabled {
            Self::on(self.epoch, thread)
        } else {
            Self::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= Self::CAPACITY {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.tag | (self.spans.len() as u64 + 1);
        let (parent_id, request) = match parent {
            Some(index) => (self.spans[index].id, self.spans[index].request),
            None => (0, id),
        };
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent: parent_id,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Opens the root span of one operation.
    pub fn root(&mut self, name: &'static str) -> Open {
        self.open(name, None)
    }

    /// Opens a span caused by `parent`.
    pub fn child(&mut self, name: &'static str, parent: Open) -> Open {
        match parent.0 {
            Some(index) => self.open(name, Some(index)),
            // Parent untraced (off, or dropped at capacity): so is the child.
            None => Open(None),
        }
    }

    /// Closes a span.
    pub fn close(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.now();
        }
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the buffer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Time attributed to one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their direct children cover.
    pub self_ns: u64,
}

/// Folds spans into per-name totals. Children of one parent never overlap
/// here (each thread issues its calls one after another), so the covered
/// part of a parent is the plain sum of its children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTime> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(span.parent).or_default() += span.end_ns - span.start_ns;
    }
    let mut by_name: BTreeMap<&'static str, NameTime> = BTreeMap::new();
    for span in spans {
        let duration = span.end_ns - span.start_ns;
        let entry = by_name.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(covered.get(&span.id).copied().unwrap_or(0));
    }
    by_name
}

/// Sum of the root spans' durations: the time the traced operations took.
pub fn root_total_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Writes spans as JSON lines
/// (`{"id":…,"parent":…,"request":…,"name":"…","start_ns":…,"end_ns":…}`).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_buffer_records_nothing() {
        let mut buf = SpanBuf::off();
        let root = buf.root("op");
        let child = buf.child("layer", root);
        buf.close(child);
        buf.close(root);
        assert!(buf.into_spans().is_empty());
    }

    #[test]
    fn children_share_the_request_and_self_time_excludes_them() {
        let mut buf = SpanBuf::on(Instant::now(), 3);
        let root = buf.root("op");
        let a = buf.child("plan", root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        buf.close(a);
        let b = buf.child("execute", root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        buf.close(b);
        buf.close(root);
        let spans = buf.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert!(spans.iter().all(|s| s.request == spans[0].id));
        assert!(spans[1..].iter().all(|s| s.parent == spans[0].id));
        assert!(spans.iter().all(|s| s.id >> 40 == 4));

        let times = self_times(&spans);
        let op = times["op"];
        assert_eq!(op.count, 1);
        assert_eq!(op.total_ns, root_total_ns(&spans));
        assert_eq!(
            op.self_ns,
            op.total_ns - times["plan"].total_ns - times["execute"].total_ns
        );
        assert_eq!(times["plan"].self_ns, times["plan"].total_ns);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = [
            Span {
                id: 1,
                parent: 0,
                request: 1,
                name: "op",
                start_ns: 5,
                end_ns: 9,
            },
            Span {
                id: 2,
                parent: 1,
                request: 1,
                name: "layer",
                start_ns: 6,
                end_ns: 8,
            },
        ];
        // Next to the test binary: inside the build directory, like every
        // file the runner itself writes.
        let path = std::env::current_exe()
            .unwrap()
            .with_file_name(format!("ledger-trace-test-{}.jsonl", std::process::id()));
        write_jsonl(&path, &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let parsed = crate::json::parse(lines[1]).unwrap();
        assert_eq!(parsed.get("parent").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(parsed.get("name").and_then(|v| v.as_str()), Some("layer"));
    }
}
