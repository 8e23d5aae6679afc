//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from *outside* the layers, around the benchmark's own
//! calls into public functions; nothing inside `crates/` is instrumented.
//! A span names the layer it enters (`core.pool.run`, `pbbs.gen`, a kernel),
//! and its parent is the span that was open when it started, so a layer's
//! self time is its duration minus the part its children cover: for
//! `core.pool.run` with the closure body as its child, the self time *is*
//! the pool's entry/exit cost (helper wake + quiescence).
//!
//! The untraced pass constructs a disabled recorder: every call is a branch
//! on one bool, so end-to-end numbers never pay for tracing.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u32,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The recorder.
pub struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between rounds (no span may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggling with a span open");
        self.enabled = enabled;
    }

    /// Tag subsequent spans with a round number (0 = set-up and warm-up).
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span opened with [`Spans::begin`] (spans close innermost
    /// first; anything opened after `id` and left open closes with it).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Record an already-finished interval as a child of the innermost open
    /// span — for work timed on another thread or inside a pool closure,
    /// where the recorder itself is out of reach.
    pub fn closed(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            round: self.round,
        });
    }

    /// Run `f` inside a span.
    pub fn scoped<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// JSON array of the recorded spans.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.spans.iter().map(span_to_json).collect())
    }
}

fn span_to_json(s: &Span) -> Json {
    let mut o = Json::obj();
    o.set("name", s.name.as_str())
        .set("start_ns", s.start_ns)
        .set("end_ns", s.end_ns)
        .set(
            "parent",
            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
        )
        .set("round", s.round as u64);
    o
}

/// Rebuild spans from [`Spans::to_json`] output (what a child sent back).
pub fn spans_from_json(j: &Json) -> Vec<Span> {
    j.items()
        .iter()
        .filter_map(|s| {
            Some(Span {
                name: s.get("name")?.as_str()?.to_string(),
                start_ns: s.num("start_ns")? as u64,
                end_ns: s.num("end_ns")? as u64,
                parent: s.num("parent").map(|p| p as usize),
                round: s.num("round").unwrap_or(0.0) as u32,
            })
        })
        .collect()
}

/// Self time per span name, in milliseconds, over the timed rounds
/// (`round > 0`): each span's duration minus what its direct children cover.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p < spans.len() {
                covered[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.round == 0 {
            continue;
        }
        let own = s
            .end_ns
            .saturating_sub(s.start_ns)
            .saturating_sub(covered[i]);
        *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(true);
        sp.set_round(1);
        let outer = sp.begin("outer");
        let t = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        sp.closed("inner", t, Instant::now());
        sp.end(outer);
        let spans = spans_from_json(&sp.to_json());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let st = self_time_ms(&spans);
        assert!(st["inner"] >= 5.0);
        assert!(st["outer"] < st["inner"], "{st:?}");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        let id = sp.begin("x");
        sp.closed("y", Instant::now(), Instant::now());
        sp.end(id);
        assert!(sp.spans().is_empty());
    }
}
