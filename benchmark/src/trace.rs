//! In-memory spans around the calls the harness makes into the system.
//!
//! Each harness thread owns one [`Recorder`]; nothing is shared while a run
//! is measured. A span carries a name, start, end, the span that caused it
//! and the request it belongs to. A span's self time is its duration minus
//! the part its children cover; the recorder keeps that per name for every
//! span, and keeps the spans themselves up to [`MAX_KEPT`] per thread, which
//! are written to `out/trace-<workload>.json` when the run ends.

use std::time::Instant;

/// Spans kept per recorder for the span file. Totals cover every span; only
/// the file is capped, so a 300k requests/s run does not write gigabytes.
pub const MAX_KEPT: usize = 100_000;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent among this recorder's spans, in open order.
    pub parent: Option<u64>,
    /// The request (point query, batch or feeder cycle) the span belongs to.
    pub request: u64,
}

/// Count, total and self time of all spans of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotal {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    id: u64,
    start_ns: u64,
    children_ns: u64,
    request: u64,
}

/// A single-thread span recorder. When disabled, `enter`/`exit` do nothing,
/// so the untraced path pays one branch.
pub struct Recorder {
    thread: String,
    epoch: Instant,
    enabled: bool,
    stack: Vec<Open>,
    next_id: u64,
    kept: Vec<Span>,
    dropped: u64,
    totals: Vec<NameTotal>,
}

impl Recorder {
    /// `epoch` is shared by all recorders of a run so their spans line up.
    pub fn new(thread: &str, epoch: Instant, enabled: bool) -> Self {
        Self {
            thread: thread.to_string(),
            epoch,
            enabled,
            stack: Vec::with_capacity(8),
            next_id: 0,
            kept: Vec::new(),
            dropped: 0,
            totals: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggle tracing between requests");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open { name, id, start_ns, children_ns: 0, request });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without enter");
        let duration = end_ns - open.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.children_ns += duration;
            p.id
        });
        let total = match self.totals.iter_mut().find(|t| t.name == open.name) {
            Some(total) => total,
            None => {
                self.totals.push(NameTotal { name: open.name, ..NameTotal::default() });
                self.totals.last_mut().expect("just pushed")
            }
        };
        total.count += 1;
        total.total_ns += duration;
        total.self_ns += duration.saturating_sub(open.children_ns);
        if self.kept.len() < MAX_KEPT {
            self.kept.push(Span {
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent,
                request: open.request,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// Runs `f` inside a span and also returns how long it took, in
    /// nanoseconds, whether or not spans are being recorded.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let started = Instant::now();
        let out = self.span(name, request, f);
        (out, started.elapsed().as_nanos() as u64)
    }

    pub fn totals(&self) -> &[NameTotal] {
        &self.totals
    }

    /// Appends this recorder's part of the span file: one JSON object.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        write!(
            out,
            "{{\"thread\": \"{}\", \"dropped_spans\": {}, \"totals\": [",
            self.thread, self.dropped
        )
        .expect("write to string");
        for (i, t) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}{{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.name, t.count, t.total_ns, t.self_ns
            )
            .expect("write to string");
        }
        out.push_str("], \"spans\": [");
        for (i, s) in self.kept.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )
            .expect("write to string");
        }
        out.push_str("]}");
    }
}

/// Sums the per-name totals of several recorders.
pub fn merge_totals<'a>(recorders: impl IntoIterator<Item = &'a Recorder>) -> Vec<NameTotal> {
    let mut merged: Vec<NameTotal> = Vec::new();
    for t in recorders.into_iter().flat_map(|r| r.totals()) {
        match merged.iter_mut().find(|m| m.name == t.name) {
            Some(m) => {
                m.count += t.count;
                m.total_ns += t.total_ns;
                m.self_ns += t.self_ns;
            }
            None => merged.push(t.clone()),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new("t", Instant::now(), true);
        r.enter("request", 7);
        r.span("client.send", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        r.span("client.wait", 7, || std::thread::sleep(std::time::Duration::from_millis(3)));
        r.exit();
        let get = |name: &str| r.totals().iter().find(|t| t.name == name).unwrap().clone();
        let (req, send, wait) = (get("request"), get("client.send"), get("client.wait"));
        assert_eq!((req.count, send.count, wait.count), (1, 1, 1));
        assert_eq!(req.self_ns, req.total_ns - send.total_ns - wait.total_ns);
        assert_eq!(send.self_ns, send.total_ns);
        assert!(send.total_ns >= 2_000_000 && wait.total_ns >= 3_000_000);
        // Children close before the parent and point at it.
        assert_eq!(r.kept[0].parent, Some(0));
        assert_eq!(r.kept[2].parent, None);
        assert!(r.kept.iter().all(|s| s.request == 7));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new("t", Instant::now(), false);
        r.span("x", 0, || ());
        assert!(r.totals().is_empty() && r.kept.is_empty());
    }

    #[test]
    fn file_is_capped_but_totals_are_not() {
        let mut r = Recorder::new("t", Instant::now(), true);
        for i in 0..(MAX_KEPT as u64 + 5) {
            r.span("x", i, || ());
        }
        assert_eq!(r.kept.len(), MAX_KEPT);
        assert_eq!(r.dropped, 5);
        assert_eq!(r.totals()[0].count, MAX_KEPT as u64 + 5);
        let merged = merge_totals([&r, &r]);
        assert_eq!(merged[0].count, 2 * (MAX_KEPT as u64 + 5));
    }
}
