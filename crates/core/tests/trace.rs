//! Integration tests for the opt-in `trace` layer: a real pool run must
//! produce a coherent, time-ordered event stream, the Chrome trace-event
//! JSON export must be structurally valid (checked with a small JSON
//! parser below, not string matching), and the signal-latency reduction
//! must find send → handler-entry pairs on the signal variants.
#![cfg(feature = "trace")]

use std::sync::atomic::{AtomicU64, Ordering};

use lcws_core::{par_for_grain, Event, PoolBuilder, ThreadPool, Trace, Variant};

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to validate the Chrome export without
// trusting the producer's own formatting assumptions.

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The export is pure ASCII; reject control characters.
                    let c = self.bytes[self.pos];
                    if c < 0x20 {
                        return Err(format!("raw control byte at {}", self.pos));
                    }
                    out.push(c as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']' but found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}' but found {other:?}")),
            }
        }
    }
}

// ---------------------------------------------------------------------------

fn traced_run(pool: &ThreadPool, n: usize, grain: usize) -> Trace {
    let sum = AtomicU64::new(0);
    pool.run(|| {
        par_for_grain(0..n, grain, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
    });
    assert_eq!(sum.load(Ordering::Relaxed), (n as u64 - 1) * n as u64 / 2);
    pool.take_trace().expect("traced run must leave a trace")
}

#[test]
fn pool_run_produces_coherent_trace() {
    let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
    let trace = traced_run(&pool, 1 << 14, 8);

    assert_eq!(trace.workers, 4);
    assert!(!trace.events.is_empty());
    assert!(
        trace.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "merged trace must be time-ordered"
    );
    // Exactly one run lifecycle, bracketing everything else.
    let starts: Vec<_> = trace.of_kind(Event::RunStart).collect();
    assert_eq!(starts.len(), 1);
    assert_eq!(starts[0].payload, 4, "RunStart payload = worker count");
    assert_eq!(trace.of_kind(Event::RunClose).count(), 1);
    // The workload forks ~n/grain leaves: pushes and local pops must show.
    assert!(trace.of_kind(Event::Push).next().is_some());
    assert!(trace.of_kind(Event::LocalPop).next().is_some());
    // A second take is empty until the next run.
    assert!(pool.take_trace().is_none());

    // Parallelism is observable: eventually a helper records too. A single
    // short run can legitimately finish before any helper wakes, so retry.
    for round in 0.. {
        let trace = traced_run(&pool, 1 << 16, 1);
        let recorded: std::collections::HashSet<u16> =
            trace.events.iter().map(|e| e.worker).collect();
        if recorded.len() >= 2 {
            break;
        }
        assert!(round < 50, "helpers never recorded: {recorded:?}");
    }
}

#[test]
fn rings_reset_between_runs() {
    let pool = PoolBuilder::new(Variant::UsLcws).threads(2).build();
    let first = traced_run(&pool, 1 << 12, 4);
    let second = traced_run(&pool, 1 << 12, 4);
    // The second trace covers only the second run: one lifecycle, and no
    // event older than the second run's start.
    assert_eq!(second.of_kind(Event::RunStart).count(), 1);
    let first_close = first.of_kind(Event::RunClose).next().unwrap().ts_ns;
    assert!(
        second.events.iter().all(|e| e.ts_ns >= first_close),
        "stale events leaked across runs"
    );
}

#[test]
fn ws_variant_emits_no_signal_events() {
    let pool = PoolBuilder::new(Variant::Ws).threads(4).build();
    let trace = traced_run(&pool, 1 << 13, 4);
    for kind in [
        Event::SignalSend,
        Event::SignalSendFailed,
        Event::HandlerEntry,
        Event::HandlerExpose,
        Event::Exposure,
        Event::TargetedPoll,
    ] {
        assert_eq!(
            trace.of_kind(kind).count(),
            0,
            "classic WS must not record {kind:?}"
        );
    }
    assert!(trace.of_kind(Event::Push).next().is_some());
}

#[test]
fn signal_variant_yields_latency_samples() {
    // A long arm beside a stealable sibling makes the idle thieves'
    // request outlive its grace, so one of them signals the victim; at
    // least one send must pair with a handler entry across the attempts.
    // (Fine-grained runs are served by the flag and barely signal.)
    let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
    let mut sends = 0usize;
    for _ in 0..50 {
        pool.run(|| {
            lcws_core::join(
                || {
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < std::time::Duration::from_millis(2) {
                        std::hint::spin_loop();
                    }
                },
                || (),
            )
        });
        let trace = pool.take_trace().expect("traced run must leave a trace");
        sends += trace.of_kind(Event::SignalSend).count();
        let latencies = trace.signal_latencies_ns();
        if !latencies.is_empty() {
            assert!(
                latencies.iter().all(|&ns| ns < 60_000_000_000),
                "a latency sample exceeds a minute — pairing bug: {latencies:?}"
            );
            return;
        }
    }
    panic!("no signal latency sample in 50 runs ({sends} sends observed)");
}

#[test]
fn tiny_ring_reports_dropped_events() {
    let pool = PoolBuilder::new(Variant::Signal)
        .threads(4)
        .trace_capacity(32)
        .build();
    let trace = traced_run(&pool, 1 << 14, 1);
    assert!(
        trace.dropped > 0,
        "a 32-slot ring cannot hold a 16k-leaf run"
    );
    // Drops never corrupt what survives.
    assert!(trace.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    assert!(
        trace.events.len() <= 32 * 4 + 1,
        "kept at most cap per ring"
    );
}

/// Both sides of a table row agree: for every event that is counted *and*
/// traced, the run's trace holds as many records as the counter counted —
/// or, for the rows whose count adds a number of tasks, the same payload
/// sum. A site that counts without tracing (or the reverse) disagrees on
/// every run. A correct build can disagree on a rare one: a handler that
/// lands inside `record_now`'s head update costs the ring an event (the
/// bounded-loss window in `trace.rs`), never the counter — so the
/// assertion is one fully agreeing run in a few attempts.
#[test]
fn counted_and_traced_rows_agree() {
    let adds_payload = [Event::Exposure, Event::InjectorPush];
    let pool = PoolBuilder::new(Variant::Signal)
        .threads(2)
        .trace_capacity(1 << 18)
        .build();
    let mut disagree = Vec::new();
    for _ in 0..10 {
        let trace = traced_run(&pool, 1 << 14, 1);
        let snap = pool.metrics();
        assert_eq!(trace.dropped, 0, "rings must hold the whole run");
        assert!(snap.pushes() > 0 && snap.local_pops() > 0, "{snap}");
        disagree = Event::ALL
            .iter()
            .filter(|e| e.counter_name().is_some() && e.trace_name().is_some())
            .filter_map(|&event| {
                let records = trace.of_kind(event);
                let traced: u64 = if adds_payload.contains(&event) {
                    records.map(|e| u64::from(e.payload)).sum()
                } else {
                    records.count() as u64
                };
                (traced != snap.get(event)).then_some((event, traced, snap.get(event)))
            })
            .collect();
        if disagree.is_empty() {
            return;
        }
    }
    panic!("(event, traced, counted) disagree on every run: {disagree:?}");
}

#[test]
fn chrome_export_parses_and_matches_the_trace() {
    let pool = PoolBuilder::new(Variant::Signal).threads(4).build();
    let trace = traced_run(&pool, 1 << 13, 4);
    let json = Parser::parse(&trace.to_chrome_json()).expect("export must be valid JSON");

    assert_eq!(
        json.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    let events = match json.get("traceEvents") {
        Some(Json::Arr(items)) => items,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert_eq!(
        events.len(),
        trace.events.len(),
        "one JSON object per event"
    );

    let known: std::collections::HashSet<&str> =
        Event::ALL.iter().filter_map(|e| e.trace_name()).collect();
    let mut last_ts = f64::MIN;
    for (obj, src) in events.iter().zip(&trace.events) {
        let name = obj.get("name").and_then(Json::as_str).expect("name");
        assert!(known.contains(name), "unknown event name {name:?}");
        assert_eq!(Some(name), src.kind.trace_name());
        assert_eq!(obj.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(obj.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(obj.get("pid").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            obj.get("tid").and_then(Json::as_f64),
            Some(f64::from(src.worker))
        );
        let ts = obj.get("ts").and_then(Json::as_f64).expect("ts");
        assert!(ts >= 0.0 && ts >= last_ts, "timestamps must be sorted");
        last_ts = ts;
        let payload = obj
            .get("args")
            .and_then(|a| a.get("payload"))
            .and_then(Json::as_f64)
            .expect("args.payload");
        assert_eq!(payload, f64::from(src.payload));
    }
    // Relative timestamps: the first event sits at the origin.
    let first_ts = events[0].get("ts").and_then(Json::as_f64).unwrap();
    assert_eq!(first_ts, 0.0);
}
