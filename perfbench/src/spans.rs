//! In-memory spans recorded by the benchmark around its calls into the
//! program. Nothing here runs inside the program: a span covers exactly
//! one public call (or a group of them), and a layer reachable only
//! through another layer's call is read from that call's public outputs
//! instead.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Image index or request number the call served.
    pub id: u64,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread of calls.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose timestamps count from `origin` (share one origin
    /// between threads whose spans are later merged).
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        gpa_trace::saturating_ns(self.origin.elapsed())
    }

    /// Times `call` as a span named `name`; spans opened inside `call`
    /// through the recorder it is handed become its children.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        id: u64,
        call: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = call(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Appends another recorder's spans (same origin), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Summed duration of the spans named `name` that served `id`.
    pub fn total_ns_for(&self, name: &str, id: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.id == id)
            .map(Span::duration_ns)
            .sum()
    }

    /// Summed duration of top-level spans (no parent).
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// Summed duration of top-level spans that served `id`.
    pub fn top_level_ns_for(&self, id: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.id == id)
            .map(Span::duration_ns)
            .sum()
    }

    /// Writes one JSON object per span (`name`, `id`, `start_ns`,
    /// `end_ns`, `parent`, `self_ns`), creating the parent directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"index\":{i},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                span.name,
                span.id,
                span.start_ns,
                span.end_ns,
                span.duration_ns().saturating_sub(child_ns[i]),
            )?;
        }
        out.flush()
    }
}

/// Writes `spans` to `.bench_out/spans/<workload>-seed<seed>.jsonl` under
/// the current directory, reporting (not failing on) an I/O error.
pub fn write_out(spans: &Spans, workload: &str, seed: u64) -> String {
    let path = Path::new(".bench_out")
        .join("spans")
        .join(format!("{workload}-seed{seed}.jsonl"));
    match spans.write_jsonl(&path) {
        Ok(()) => format!(
            "{} spans written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut spans = Spans::new(Instant::now());
        spans.record("outer", 1, |s| {
            s.record("inner", 1, |_| ());
            s.record("inner", 2, |_| ());
        });
        spans.record("outer", 2, |_| ());
        let names: Vec<_> = spans.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("outer", None),
                ("inner", Some(0)),
                ("inner", Some(0)),
                ("outer", None)
            ]
        );
        assert!(spans.total_ns("outer") >= spans.total_ns("inner"));
        assert_eq!(spans.top_level_ns(), spans.total_ns("outer"));
    }

    #[test]
    fn absorbed_spans_keep_parent_links() {
        let origin = Instant::now();
        let mut a = Spans::new(origin);
        a.record("a", 0, |_| ());
        let mut b = Spans::new(origin);
        b.record("b", 0, |s| s.record("c", 0, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
