//! The in-memory span recorder of a traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into each layer's public functions (tracing inside the library is
//! a later issue). A span is `(name, start, end, parent, op)`; its name is
//! `<layer>.<call>`, so self time — a span's duration minus the part its
//! direct children cover — sums per layer. Spans stay in memory until the
//! run ends and are then written as one JSON file.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its tracer; the handle `begin` returns.
pub type SpanId = u32;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    parent: u32,
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span for operation `op` under `parent` (`None` for a root).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: usize) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: parent.unwrap_or(NO_PARENT),
            op: op as u32,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records `f` as one child span of `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: SpanId, op: usize, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, Some(parent), op);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Self time in seconds per layer (the part of a span's name before the
    /// first `.`), over all spans.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut layers = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layers.entry(layer).or_insert(0.0) += (s.end_ns - s.start_ns).saturating_sub(children) as f64 * 1e-9;
        }
        layers
    }

    /// Total duration in seconds of the root spans. By construction this
    /// equals the sum of [`Tracer::self_time_by_layer`]; the caller prints
    /// both so the identity is checked on every traced run.
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes the spans as JSON: a name table, the per-layer self times, and
    /// one `[id, parent, op, name, start_ns, end_ns]` row per span (`parent`
    /// is `-1` for a root; `name` indexes the table).
    pub fn write_json(&self, path: &std::path::Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"names\":[")?;
        for (i, name) in names.iter().enumerate() {
            write!(out, "{}\"{name}\"", if i == 0 { "" } else { "," })?;
        }
        write!(out, "],\"self_time_s\":{{")?;
        for (i, (layer, secs)) in self.self_time_by_layer().iter().enumerate() {
            write!(out, "{}\"{layer}\":{secs}", if i == 0 { "" } else { "," })?;
        }
        write!(
            out,
            "}},\"columns\":[\"id\",\"parent\",\"op\",\"name\",\"start_ns\",\"end_ns\"],\"spans\":["
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            let name = names.binary_search(&s.name).expect("name table holds every span name");
            let sep = if id == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n[{id},{parent},{},{name},{},{}]",
                s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}
