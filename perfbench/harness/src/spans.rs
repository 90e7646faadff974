//! The harness's own spans, recorded from outside the program around the
//! public calls into one layer (name, start, end, parent, op id). They
//! stay in memory and are written out when the run ends; a disabled
//! tracer just runs the closure.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One finished span. `self_ns` is the duration minus the time its child
/// spans cover (children nest on the same thread, so they never overlap).
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
    pub detail: u64,
}

struct Open {
    id: u64,
    child_ns: u64,
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    thread: u64,
    next: u64,
    root_parent: u64,
    stack: Vec<Open>,
    spans: Vec<SpanRec>,
    /// Operation id stamped on every span opened from now on.
    pub op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        // ordering: Relaxed — a unique-id dispenser that publishes nothing else
        static THREADS: AtomicU64 = AtomicU64::new(1);
        Tracer {
            on,
            thread: THREADS.fetch_add(1, Ordering::Relaxed),
            next: 0,
            root_parent: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            op: 0,
        }
    }

    /// A tracer for another thread whose top-level spans parent under
    /// this tracer's innermost open span.
    pub fn child(&self) -> Tracer {
        let mut t = Tracer::new(self.on);
        t.root_parent = self.stack.last().map_or(self.root_parent, |o| o.id);
        t.op = self.op;
        t
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_detail(name, |t| (f(t), 0))
    }

    /// Like [`span`](Self::span); `f` also returns the span's detail value.
    pub fn span_detail<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (R, u64),
    ) -> R {
        if !self.on {
            return f(self).0;
        }
        self.next += 1;
        let id = (self.thread << 40) | self.next;
        let parent = self.stack.last().map_or(self.root_parent, |o| o.id);
        self.stack.push(Open { id, child_ns: 0 });
        let start_ns = now_ns();
        let (out, detail) = f(self);
        let end_ns = now_ns();
        let open = self.stack.pop().unwrap_or(Open { id, child_ns: 0 });
        let dur = end_ns.saturating_sub(start_ns);
        if let Some(up) = self.stack.last_mut() {
            up.child_ns += dur;
        }
        self.spans.push(SpanRec {
            id,
            parent,
            op: self.op,
            name,
            start_ns,
            end_ns,
            self_ns: dur.saturating_sub(open.child_ns),
            detail,
        });
        out
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// Per span name: count, total and self seconds, and the detail sum.
pub fn summarize(spans: &[SpanRec]) -> Json {
    let mut by_name: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += s.self_ns;
        e.3 += s.detail;
    }
    let mut out = Json::obj();
    for (name, (count, total, own, detail)) in by_name {
        let mut o = Json::obj();
        o.set("count", count);
        o.set("total_s", total as f64 / 1e9);
        o.set("self_s", own as f64 / 1e9);
        o.set("detail_sum", detail);
        out.set(name, o);
    }
    out
}

/// Writes every span as one JSON line.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"detail\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.self_ns, s.detail
        )?;
    }
    out.flush()
}
