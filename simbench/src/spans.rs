//! The benchmark's own tracing: spans around its calls into the
//! simulator, kept in memory and written out when the run ends.
//!
//! Every span comes from the benchmark's files — set-up phases, the
//! `engine.run*` call, the placement-policy wrapper, the export calls
//! and the layer replays. Nothing inside the simulator is instrumented,
//! so the timed (untraced) runs execute exactly the production code.
//!
//! [`timed`] always measures its closure (the end-to-end metrics need
//! the phase times) but records a span only after [`enable`], which
//! only the traced child calls.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A span too frequent to keep one record per call (the storm
/// driver's `on_event`): its calls and summed time, under one parent.
#[derive(Debug, Clone)]
struct Tally {
    name: &'static str,
    calls: u64,
    total_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Vec<Option<Span>>,
    open: Vec<usize>,
    tallies: Vec<Tally>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tallies: Vec::new(),
        })
    });
}

/// Runs `f`, returning its value and its duration in nanoseconds; when
/// recording, also records a span named `name` under the innermost open
/// span.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let slot = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let idx = rec.spans.len();
            rec.spans.push(None);
            rec.open.push(idx);
            idx
        })
    });
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    if let Some(idx) = slot {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("recorder stays enabled for the whole child");
            rec.open.pop();
            let parent = rec.open.last().copied();
            let ns = |t: Instant| t.duration_since(rec.epoch).as_nanos() as u64;
            rec.spans[idx] = Some(Span { name, start_ns: ns(start), end_ns: ns(end), parent });
        });
    }
    (value, end.duration_since(start).as_nanos() as u64)
}

/// Records an aggregated span of `calls` calls summing `total_ns`
/// under the innermost open span.
pub fn tally(name: &'static str, calls: u64, total_ns: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let parent = rec.open.last().copied();
            rec.tallies.push(Tally { name, calls, total_ns, parent });
        }
    });
}

/// Calls and summed nanoseconds of every recorded span named `name`.
pub fn total(name: &str) -> (u64, u64) {
    RECORDER.with(|r| {
        let r = r.borrow();
        let Some(rec) = r.as_ref() else { return (0, 0) };
        rec.spans
            .iter()
            .flatten()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + (s.end_ns - s.start_ns)))
    })
}

/// The recorded spans as JSON lines — `id`, `name`, `start_us`,
/// `end_us` and `parent` (the enclosing span's `id`, or null) — then
/// one line per tally with `calls` and `total_us`.
pub fn to_jsonl() -> String {
    RECORDER.with(|r| {
        let r = r.borrow();
        let mut out = String::new();
        let Some(rec) = r.as_ref() else { return out };
        let parent = |p: Option<usize>| p.map_or("null".to_string(), |p| p.to_string());
        for (i, s) in rec.spans.iter().enumerate() {
            let Some(s) = s else { continue };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                parent(s.parent)
            );
        }
        for t in &rec.tallies {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"calls\":{},\"total_us\":{:.3},\"parent\":{}}}",
                t.name,
                t.calls,
                t.total_ns as f64 / 1e3,
                parent(t.parent)
            );
        }
        out
    })
}
