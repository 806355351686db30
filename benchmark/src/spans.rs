//! In-memory spans recorded around the benchmark's own calls into the
//! program's layers: name, start, end and parent. A layer's self time
//! is its span's duration minus the part its child spans cover. Spans
//! are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = u64;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder of one traced run.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can open children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list lock").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Per span name: (calls, total self time in µs).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let spans = self.spans.lock().expect("span list lock");
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered(s.start_ns, s.end_ns, kids));
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += own as f64 / 1e3;
        }
        out
    }

    /// Mean self time of spans named `name`, in µs per call (NaN when
    /// none were recorded).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        self.self_times()
            .get(name)
            .map_or(f64::NAN, |&(n, total)| total / n as f64)
    }

    /// Total self time of spans named `name`, in µs.
    pub fn total_self_us(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(f64::NAN, |&(_, t)| t)
    }

    /// Write every span as one JSON line.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let line = serde_json::json!({
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
            });
            writeln!(out, "{}", json_line(&line))?;
        }
        out.flush()
    }
}

/// One value as compact JSON text.
pub fn json_line(v: &serde_json::Value) -> String {
    serde_json::to_string(v).expect("a JSON value serializes")
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(covered(0, 100, &[(10, 30), (20, 40), (90, 120)]), 40);
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(50, 60, &[(0, 100)]), 10);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::default();
        t.span("parent", None, |id| {
            t.span("child", Some(id), |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let times = t.self_times();
        assert_eq!(times["parent"].0, 1);
        assert_eq!(times["child"].0, 1);
        assert!(times["child"].1 >= 5_000.0);
        assert!(times["parent"].1 < times["child"].1);
    }
}
