//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, operation id, parent, start, end)`. Names are
//! `layer::function`; the layer is the part before `::`, and the root span
//! of every operation (one clear, one drain, one sealed round) belongs to
//! the `op` layer. Spans are kept in memory and written out once, when the
//! run ends. With tracing off, `enter`/`exit` do nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn layer(&self) -> &'static str {
        self.name.split("::").next().unwrap_or(self.name)
    }

    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span; `exit` closes it.
#[derive(Clone, Copy)]
#[must_use]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether each span lies inside an operation (under a root span of
    /// the `op` layer); setup and comparison spans do not.
    fn in_operation(&self) -> Vec<bool> {
        let mut inside = Vec::with_capacity(self.spans.len());
        for span in &self.spans {
            let flag = match span.parent {
                Some(parent) => inside[parent],
                None => span.layer() == "op",
            };
            inside.push(flag);
        }
        inside
    }

    /// Self time per layer in seconds, over the spans inside operations:
    /// each span's duration minus its children's. Every span runs on the
    /// measuring thread, so children are disjoint and all lie on the
    /// blocking path.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let inside = self.in_operation();
        let mut child_time = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.secs();
            }
        }
        let mut by_layer = BTreeMap::new();
        for ((span, children), inside) in self.spans.iter().zip(&child_time).zip(inside) {
            if inside {
                *by_layer.entry(span.layer()).or_insert(0.0) += (span.secs() - children).max(0.0);
            }
        }
        by_layer
    }

    /// Total time of the operations (root spans of the `op` layer).
    pub fn root_time(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.layer() == "op")
            .map(Span::secs)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
