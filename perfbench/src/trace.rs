//! In-memory span recording for the traced run.
//!
//! Each thread owns a [`Tracer`]; a span is opened around one call into a
//! layer's public function and records its name, start, end, parent span
//! and the request it belongs to. Nothing is written while the workload
//! runs: the spans of all threads are merged and written once at the end,
//! together with a per-name self-time summary (a span's duration minus
//! the part covered by its children).

use crate::Args;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent marker of a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, `layer.function`.
    pub name: &'static str,
    /// Nanoseconds since the run's trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's trace epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, or [`ROOT`].
    pub parent: u32,
    /// Request (or operation) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. A disabled tracer runs the wrapped calls
/// and records nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self { epoch, enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// A recorder for another thread, sharing this one's epoch; it records
    /// only when both it and this one are enabled.
    pub fn child(&self, enabled: bool) -> Self {
        Self::new(self.epoch, enabled && self.enabled)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`; spans opened
    /// inside `f` through the passed tracer become its children.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval as a root span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.enabled {
            let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
            let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span { name, start_ns, end_ns, parent: ROOT, req });
        }
    }

    /// Moves the spans of `other` (another thread's recorder) into this
    /// one, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations (ns) of every span named `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        crate::util::sorted(
            self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect(),
        )
    }

    /// Median duration (ns) of spans named `name`, 0 when there are none.
    pub fn p50_ns(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            crate::util::percentile(&d, 0.5)
        }
    }

    /// Per-name `(count, total ns, self ns)`: self time is the span's
    /// duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { "null".to_owned() } else { s.parent.to_string() };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Prints the self-time summary and writes the spans of a traced run.
pub fn write_trace(args: &Args, tracer: &Tracer) {
    println!("trace: {} spans; self time per layer call:", tracer.len());
    println!("  {:<32} {:>9} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for (name, (count, total, own)) in tracer.self_times() {
        println!("  {name:<32} {count:>9} {:>12.3} {:>12.3}", total as f64 / 1e6, own as f64 / 1e6);
    }
    let path = std::path::Path::new(".perfbench_out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("trace: spans written to {}", path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), true);
        t.span("outer", 0, |t| {
            t.span("inner", 0, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let st = t.self_times();
        let (n_out, total_out, self_out) = st["outer"];
        let (_, total_in, _) = st["inner"];
        assert_eq!(n_out, 1);
        assert_eq!(self_out, total_out - total_in);
        assert!(total_in >= 2_000_000);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        a.span("x", 0, |_| ());
        let mut b = a.child(true);
        b.span("p", 1, |t| t.span("c", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, 1);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("x", 0, |_| 7), 7);
        assert_eq!(t.len(), 0);
    }
}
