//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span is `<layer>.<fn>` with a start, an end, the span that caused
//! it and a request id (the query id for serve, 0 elsewhere). Spans are
//! kept in memory while tracing is on and written out when the run ends;
//! a layer's self time is each span's duration minus the union of its
//! children's intervals.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (from 1).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// `<layer>.<fn>`.
    pub name: &'static str,
    /// Request id: the serve query id, 0 for batch and graph calls.
    pub req: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer prefix of the span's name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A thread-safe span recorder that can be switched on and off.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder, initially off.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turn recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span timed by the caller; returns its id (0 when off).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.is_on() {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span list lock").push(span);
        id
    }

    /// Run `f` inside a span named `name`. `f` receives the span's id to
    /// parent nested spans (`None` when recording is off). Returns `f`'s
    /// result and its wall time in seconds, measured whether or not the
    /// span is recorded.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> (R, f64) {
        let id = self
            .is_on()
            .then(|| self.next.fetch_add(1, Ordering::Relaxed));
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        if let Some(id) = id {
            let span = Span {
                id,
                parent,
                name,
                req: 0,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.lock().expect("span list lock").push(span);
        }
        (r, (end - start).as_secs_f64())
    }

    /// Every span recorded so far, by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list lock").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time in seconds per layer: each span's duration minus the part
/// of its interval that its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(s.start_ns, s.end_ns, c));
        *out.entry(s.layer()).or_insert(0.0) += dur.saturating_sub(kids) as f64 / 1e9;
    }
    out
}

/// Write `spans` as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(10, 30), (20, 40), (90, 120), (50, 50)];
        assert_eq!(covered(0, 100, &mut v), 30 + 10);
        assert_eq!(covered(0, 100, &mut []), 0);
        assert_eq!(covered(0, 100, &mut [(0, 100), (10, 20)]), 100);
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let spans = vec![
            span(1, None, "bench.iteration", 0, 1_000_000_000),
            // Overlapping children (e.g. two threads) count once.
            span(2, Some(1), "emsort.external_sort", 100_000_000, 400_000_000),
            span(3, Some(1), "emserve.rank", 300_000_000, 500_000_000),
            span(4, Some(2), "emcore.scan", 100_000_000, 200_000_000),
        ];
        let t = self_times(&spans);
        assert!((t["bench"] - 0.6).abs() < 1e-12);
        assert!((t["emsort"] - 0.2).abs() < 1e-12);
        assert!((t["emserve"] - 0.2).abs() < 1e-12);
        assert!((t["emcore"] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn recorder_parents_nested_spans_only_when_on() {
        let r = Recorder::new();
        let ((), _) = r.time("bench.off", None, |id| assert_eq!(id, None));
        r.set_on(true);
        let (inner, secs) = r.time("bench.outer", None, |id| {
            r.time("emcore.inner", id, |_| 7).0
        });
        assert_eq!(inner, 7);
        assert!(secs >= 0.0);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "bench.outer").unwrap();
        let nested = spans.iter().find(|s| s.name == "emcore.inner").unwrap();
        assert_eq!(nested.parent, Some(outer.id));
        assert!(outer.start_ns <= nested.start_ns && nested.end_ns <= outer.end_ns);
    }
}
