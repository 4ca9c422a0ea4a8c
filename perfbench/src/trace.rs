//! The traced run's span recorder. Spans are timed from the benchmark's
//! own code, around calls into the program, and kept in memory. At the end
//! they are written in the `anonet_obs` JSONL span format (close-only
//! `"ev":"span"` lines with `id`/`parent`/`path`/`wall_us`/`tid`, plus
//! `"ev":"attr"` and `"ev":"counter"` lines), which `anonet-trace` reads
//! unchanged.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use anonet_obs::Json;

/// One closed span, offsets relative to the tracer's epoch.
#[derive(Clone, Debug)]
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Duration,
    end: Duration,
    tid: u64,
    attrs: Vec<(&'static str, u64)>,
}

/// An open span: an id for children to point at, and its start.
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl OpenSpan {
    /// The span id, the parent of spans opened under it.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span and counter store, shared by reference across workers.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<Vec<(Duration, String, u64)>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ORDINAL: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|t| *t)
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span under `parent`, starting now.
    pub fn open(&self, name: &'static str, parent: Option<u64>) -> OpenSpan {
        self.open_at(name, parent, Instant::now())
    }

    /// Opens a span under `parent` that started at `start`.
    pub fn open_at(&self, name: &'static str, parent: Option<u64>, start: Instant) -> OpenSpan {
        OpenSpan { id: self.next_id.fetch_add(1, Ordering::Relaxed), parent, name, start }
    }

    /// Closes `span` now.
    pub fn close(&self, span: OpenSpan) {
        self.close_with(span, Instant::now(), Vec::new());
    }

    /// Closes `span` at `end`, attaching numeric attributes.
    pub fn close_with(&self, span: OpenSpan, end: Instant, attrs: Vec<(&'static str, u64)>) {
        let record = SpanRecord {
            id: span.id,
            parent: span.parent,
            name: span.name,
            start: span.start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            tid: thread_ordinal(),
            attrs,
        };
        self.spans.lock().expect("span store poisoned by a panicking worker").push(record);
    }

    /// Records a closed child of `parent` from a start and a duration the
    /// program measured itself (e.g. `DerandomizedRun::quotient_time`).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        start: Instant,
        wall: Duration,
    ) -> OpenSpan {
        let span = self.open_at(name, Some(parent), start);
        self.close_with(span, start + wall, Vec::new());
        span
    }

    /// Records a counter bump at the current time.
    pub fn counter(&self, name: &str, delta: u64) {
        let at = self.epoch.elapsed();
        self.counters.lock().expect("counter store poisoned by a panicking worker").push((
            at,
            name.to_string(),
            delta,
        ));
    }

    /// Self time per span name: each span's wall time minus the part of
    /// its interval covered by its children, as `(instances, total)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, Duration)> {
        let spans = self.spans.lock().expect("span store poisoned by a panicking worker");
        let mut children: HashMap<u64, Vec<(Duration, Duration)>> = HashMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, Duration)> = BTreeMap::new();
        for s in spans.iter() {
            let mut covered = Duration::ZERO;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort();
                let mut cursor = s.start;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.end.saturating_sub(s.start).saturating_sub(covered);
        }
        out
    }

    /// The trace as JSONL, lines in close-time order.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned by a panicking worker");
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        let path_of = |s: &SpanRecord| {
            let mut parts = vec![s.name];
            let mut cur = s.parent;
            while let Some(p) = cur.and_then(|id| by_id.get(&id)) {
                parts.push(p.name);
                cur = p.parent;
            }
            parts.reverse();
            parts.join("/")
        };
        let mut lines: Vec<(Duration, String)> = Vec::new();
        for s in spans.iter() {
            let us = s.end.as_micros() as u64;
            let wall_us = s.end.saturating_sub(s.start).as_micros() as u64;
            let line = Json::obj([
                ("us", Json::from(us)),
                ("ev", Json::str("span")),
                ("id", Json::from(s.id)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("name", Json::str(s.name)),
                ("path", Json::str(path_of(s))),
                ("wall_us", Json::from(wall_us)),
                ("tid", Json::from(s.tid)),
            ]);
            lines.push((s.end, line.to_string()));
            for &(key, value) in &s.attrs {
                let attr = Json::obj([
                    ("us", Json::from(us)),
                    ("ev", Json::str("attr")),
                    ("id", Json::from(s.id)),
                    ("key", Json::str(key)),
                    ("value", Json::from(value)),
                ]);
                lines.push((s.end, attr.to_string()));
            }
        }
        let counters = self.counters.lock().expect("counter store poisoned by a panicking worker");
        for (at, name, delta) in counters.iter() {
            let line = Json::obj([
                ("us", Json::from(at.as_micros() as u64)),
                ("ev", Json::str("counter")),
                ("name", Json::str(name.as_str())),
                ("delta", Json::from(*delta)),
            ]);
            lines.push((*at, line.to_string()));
        }
        // A stable sort keeps each span's attrs right after it.
        lines.sort_by_key(|(at, _)| *at);
        let mut out = String::new();
        for (_, line) in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new();
        let start = Instant::now();
        let parent = t.open_at("parent", None, start);
        // Two overlapping children cover [10, 40) of the parent's [0, 100).
        t.record(
            "child",
            parent.id(),
            start + Duration::from_millis(10),
            Duration::from_millis(20),
        );
        t.record(
            "child",
            parent.id(),
            start + Duration::from_millis(20),
            Duration::from_millis(20),
        );
        t.close_with(parent, start + Duration::from_millis(100), vec![("job", 3)]);
        let selfs = t.self_times();
        assert_eq!(selfs["parent"], (1, Duration::from_millis(70)));
        assert_eq!(selfs["child"], (2, Duration::from_millis(40)));
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains("\"path\": \"parent/child\""));
    }
}
