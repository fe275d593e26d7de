//! In-memory spans of a traced run, written out at the end as Chrome
//! trace-event JSON (the object form `cftcg fuzz --trace-events` writes,
//! loadable in Perfetto or `chrome://tracing`).
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; the program itself is not instrumented. A span is
//! recorded from the two clock readings the benchmark takes anyway to time
//! the call, so the bookkeeping lands between timed intervals, not inside.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
struct Span {
    /// Layer call, e.g. `codegen.compile`.
    name: &'static str,
    /// Start, nanoseconds from the trace epoch.
    start_ns: u64,
    /// End, nanoseconds from the trace epoch.
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Campaign the span belongs to (`None` for set-up).
    campaign: Option<u32>,
}

/// The span buffer: a stack of open spans plus every finished one.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that encloses the spans recorded until [`Spans::close`].
    /// A `None` campaign inherits the enclosing span's.
    pub fn open(&mut self, name: &'static str, campaign: Option<u32>) {
        let parent = self.open.last().copied();
        let campaign = campaign.or_else(|| parent.and_then(|p| self.spans[p].campaign));
        let now = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, campaign });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let i = self.open.pop().expect("close without open span");
        self.spans[i].end_ns = self.ns(Instant::now());
    }

    /// Records a finished leaf span under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let parent = self.open.last().copied();
        let campaign = parent.and_then(|p| self.spans[p].campaign);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, campaign });
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children never overlap: the run is one thread).
    fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// Renders the spans as Chrome trace-event JSON: one complete (`X`)
    /// event per span, with its id, parent, campaign and self time as args.
    pub fn to_chrome_json(&self) -> String {
        let self_ns = self.self_ns();
        let mut out = String::from(
            "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"cftcg-perfbench\"},\"traceEvents\":[\n",
        );
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"benchmark\"}}",
        );
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"campaign\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                opt(s.parent.map(|p| p as u64)),
                opt(s.campaign.map(u64::from)),
                self_ns[i] as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
