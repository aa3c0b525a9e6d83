//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public function can be
//! wrapped in [`Recorder::span`]. Spans nest (each records the span that
//! was open when it started), carry the campaign point they belong to,
//! and stay in memory until [`Recorder::write_jsonl`] writes them out at
//! the end of the run. Nothing is recorded inside the program itself.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    name: &'static str,
    item: Option<usize>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans of one benchmark run.
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span of `layer`/`name` about campaign point
    /// `item`, returning its value and its duration in milliseconds.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        item: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let start_ns = self.now_ns();
            spans.push(Span {
                layer,
                name,
                item,
                parent: self.open.borrow().last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        let end_ns = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end_ns;
        let ms = (end_ns - spans[id].start_ns) as f64 / 1e6;
        (out, ms)
    }

    /// Total milliseconds of every span of `layer` named `name`.
    pub fn total_ms(&self, layer: &str, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Write every span as one JSON object per line: id, parent, layer,
    /// call, point, and start/end nanoseconds since the run began.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"layer\":\"{}\",\"call\":\"{}\",\"point\":{},\"start_ns\":{},\"end_ns\":{}}}",
                opt(s.parent),
                s.layer,
                s.name,
                opt(s.item),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
