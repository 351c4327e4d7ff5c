//! Spans recorded by the benchmark's own code around its calls into the
//! workspace crates. Nothing inside the crates is instrumented: a span's
//! duration is the wall time of one public call (or of a benchmark phase
//! wrapping several), seen from outside.
//!
//! Each thread owns a [`Tracer`]; the main thread merges them when the run
//! ends and writes every span out as one JSON line. A disabled tracer
//! records nothing and never reads the clock.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Span that caused this one; 0 for a root.
    pub parent: u64,
    /// `layer.call`, where `layer` is `synth`, `graph`, `core`, `serving`
    /// or `bench` (the benchmark's own phases).
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Open-loop request id (the first request of a micro-batch); 0 outside
    /// the request path.
    pub req: u64,
    /// Work counted at the call site: batch size, closure size, nodes
    /// recomputed, requests scored.
    pub count: u64,
    /// The call was re-run on the same inputs after the real one, only to
    /// time a sub-call of a composite public call. A replayed child covers
    /// its parent by its duration, not by its interval.
    pub replayed: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span: close it with [`Tracer::close`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub id: u64,
    start_ns: u64,
}

/// Per-thread span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// `thread` keeps span ids unique across the tracers of one run.
    pub fn new(on: bool, origin: Instant, thread: u64) -> Self {
        Self { on, origin, next_id: (thread << 40) + 1, spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off, e.g. for one untraced rung of a traced
    /// run.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start a span (a no-op returning id 0 when tracing is off).
    pub fn open(&mut self) -> Open {
        if !self.on {
            return Open { id: 0, start_ns: 0 };
        }
        let id = self.next_id;
        self.next_id += 1;
        Open { id, start_ns: self.origin.elapsed().as_nanos() as u64 }
    }

    pub fn close(&mut self, open: Open, name: &'static str, parent: u64, req: u64, count: u64) {
        self.push(open, name, parent, req, count, false);
    }

    pub fn close_replayed(&mut self, open: Open, name: &'static str, parent: u64, count: u64) {
        self.push(open, name, parent, 0, count, true);
    }

    fn push(
        &mut self,
        open: Open,
        name: &'static str,
        parent: u64,
        req: u64,
        count: u64,
        replayed: bool,
    ) {
        if !self.on {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id: open.id,
            parent,
            name,
            start_ns: open.start_ns,
            end_ns,
            req,
            count,
            replayed,
        });
    }

    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
}

/// `(total seconds, total count)` over every span called `name`.
pub fn totals(spans: &[Span], name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(secs, count), s| (secs + s.secs(), count + s.count))
}

/// Self time per layer, in seconds: each span's duration minus the part its
/// children cover. Real children cover the union of their intervals clipped
/// to the parent; replayed children cover their summed durations.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut by_id: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_id.insert(s.id, i);
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(&p) = by_id.get(&s.parent) {
            children[p].push(i);
        }
    }
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let mut replayed = 0u64;
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for &c in &children[i] {
            let child = &spans[c];
            if child.replayed {
                replayed += child.end_ns - child.start_ns;
            } else {
                let lo = child.start_ns.max(s.start_ns);
                let hi = child.end_ns.min(s.end_ns);
                if hi > lo {
                    intervals.push((lo, hi));
                }
            }
        }
        intervals.sort_unstable();
        let mut covered = replayed;
        let mut reach = 0u64;
        for (lo, hi) in intervals {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9;
        match layers.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some((_, total)) => *total += own,
            None => layers.push((s.layer(), own)),
        }
    }
    layers
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"req\":{},\"count\":{},\"replayed\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req, s.count, s.replayed
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        name: &'static str,
        start: u64,
        end: u64,
        replayed: bool,
    ) -> Span {
        Span { id, parent, name, start_ns: start, end_ns: end, req: 0, count: 1, replayed }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once_and_replays_by_duration() {
        let spans = vec![
            span(1, 0, "serving.publish", 0, 100, false),
            // Two overlapping real children cover [10, 50).
            span(2, 1, "core.a", 10, 40, false),
            span(3, 1, "core.b", 30, 50, false),
            // A replay outside the parent's interval still covers 20.
            span(4, 1, "synth.replay", 200, 220, true),
        ];
        let layers = self_time_by_layer(&spans);
        let get = |l: &str| layers.iter().find(|(n, _)| *n == l).map(|(_, s)| *s).unwrap();
        assert!((get("serving") - 40e-9).abs() < 1e-15);
        assert!((get("core") - 50e-9).abs() < 1e-15);
        assert!((get("synth") - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        let o = t.open();
        t.close(o, "core.x", 0, 0, 1);
        assert!(t.take().is_empty());
    }
}
