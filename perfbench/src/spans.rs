//! In-memory span tracer for the traced run.
//!
//! A span covers one call into a layer's public entry point: its name
//! is `<layer>.<call>` (`sim.replay`, `recovery.audit`, ...), its tag
//! names the variant (a mechanism, or empty), and it records start,
//! end, parent and run id. Spans stay in memory while the workload runs
//! and are written out as JSON lines when it ends. A disabled tracer
//! records nothing, so the untraced run pays only a branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Variant label (mechanism name), empty when none.
    pub tag: &'static str,
    /// Nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration / phase the span belongs to.
    pub run: u32,
}

impl Span {
    /// The layer the span is charged to: the name's first component.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer; `on = false` makes every call a no-op.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (only between spans).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Sets the run id stamped on new spans.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, tag: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            tag,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name, tag);
        let r = f();
        self.end();
        r
    }

    /// Records an already-finished span (one that overlaps its siblings,
    /// such as a pipelined request) under the innermost open span.
    pub fn record(&mut self, name: &'static str, tag: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            tag,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            run: self.run,
        });
    }

    /// Moves another thread's spans in, re-parenting its top-level
    /// spans under this tracer's innermost open span.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every closed span with this name and tag.
    pub fn durations(&self, name: &str, tag: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.tag == tag && s.end_ns > 0)
            .map(Span::ms)
            .collect()
    }

    /// Self time per layer (ms): each span's duration minus the part
    /// its direct children cover, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ms) {
            *out.entry(s.layer()).or_insert(0.0) += (s.ms() - c).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"run\":{}}}",
                s.name,
                s.tag,
                s.start_ns / 1000,
                s.end_ns / 1000,
                s.run
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.begin("bench.pipeline", "");
        t.scope("exec.build_trace", "", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end();
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["exec"] >= 20.0);
        assert!(by_layer["bench"] >= 5.0 && by_layer["bench"] < by_layer["exec"]);
        assert_eq!(t.durations("exec.build_trace", "").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.scope("sim.replay", "lrp", || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_nest_under_the_open_span() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch);
        main.begin("bench.closed_loop", "");
        let mut worker = Tracer::new(true, epoch);
        worker.scope("serve.request", "", || ());
        main.absorb(worker);
        main.end();
        assert_eq!(main.spans()[1].parent, Some(0));
    }
}
