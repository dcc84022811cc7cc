//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! of the program (nothing inside the program is instrumented). Each
//! span has a name, a start and end on one monotonic clock, the span
//! that was open when it began (its parent) and the trace id of the
//! pass it belongs to. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `campaign.plan`.
    pub name: &'static str,
    /// The pass this span belongs to.
    pub trace: u64,
    /// Unique within a run.
    pub id: u64,
    /// The span open when this one began, if any.
    pub parent: Option<u64>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A handle to an open span, returned by [`Tracer::enter`].
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Open(Option<usize>);

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced passes read no clock on behalf of the tracer.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    trace: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), trace: 0, spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new trace id for the spans that follow, and returns it.
    pub fn next_trace(&mut self) -> u64 {
        self.trace += 1;
        self.trace
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace: self.trace,
            id: index as u64,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`] (and any left open
    /// inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| String::from("null"), |p| p.to_string());
            out.push_str(&format!(
                "{{\"trace\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.trace, s.id, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Self time of `span`: its duration minus the part of its interval
/// that `children` cover. Children may nest, overlap each other (work
/// on parallel threads) or run back to back; covered time is counted
/// once, and only inside the parent's interval.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    span.duration_ns().saturating_sub(covered)
}

/// Self time of every span, indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| self_time_ns(s, children.get(&s.id).map_or(&[][..], Vec::as_slice)))
        .collect()
}

/// Summed self time, in seconds, of the spans named `name`, per trace
/// id (only traces that have such a span appear).
pub fn self_seconds_per_trace(spans: &[Span], name: &str) -> BTreeMap<u64, f64> {
    let mut out: BTreeMap<u64, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        if s.name == name {
            *out.entry(s.trace).or_default() += t as f64 * 1e-9;
        }
    }
    out
}

/// Durations, in microseconds, of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 * 1e-3).collect()
}
