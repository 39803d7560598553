//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, start, end, parent and (for served
//! requests) a request id. Spans are written out when the run ends,
//! followed by one self-time row per span name.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

/// Span recorder; every method is a no-op when disabled, so untraced
/// runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req: None,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.ns(Instant::now());
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Records an already-finished span under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: Option<u64>) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            req,
        };
        self.spans.push(span);
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Per name: (spans, total ns, self ns). Self time is a span's
    /// duration minus the union of its children's intervals (children of
    /// one parent may overlap, e.g. pipelined requests).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(covered);
        }
        out
    }

    /// Writes one JSON line per span, then one `self_time` line per span
    /// name. Nothing is written when tracing is off.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                w,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}",
                s.name, s.start_ns, s.end_ns
            )?;
            if let Some(p) = s.parent {
                write!(w, ", \"parent\": {p}")?;
            }
            if let Some(r) = s.req {
                write!(w, ", \"req\": {r}")?;
            }
            writeln!(w, "}}")?;
        }
        for (name, (n, total, own)) in self.self_times() {
            writeln!(
                w,
                "{{\"self_time\": \"{name}\", \"spans\": {n}, \"total_s\": {:?}, \"self_s\": {:?}}}",
                total as f64 / 1e9,
                own as f64 / 1e9
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        t.enter("parent");
        t.exit();
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.open.push(0);
        t.record(
            "a",
            o + Duration::from_nanos(10),
            o + Duration::from_nanos(50),
            None,
        );
        t.record(
            "b",
            o + Duration::from_nanos(30),
            o + Duration::from_nanos(70),
            Some(1),
        );
        t.open.pop();
        let st = t.self_times();
        assert_eq!(st["parent"], (1, 100, 40));
        assert_eq!(st["a"], (1, 40, 40));
    }
}
