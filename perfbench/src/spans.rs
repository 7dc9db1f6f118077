//! The traced run's span recorder.
//!
//! Spans are taken from outside the program: the benchmark wraps each call
//! into a layer's public functions (`monotasks_core::run_with_faults`,
//! `sparklike::run_with_faults`, `mt_trace::export_mono`, ...) and nothing is
//! added inside the program. Spans stay in memory and are written once, at
//! the end, as Chrome JSON through `mt_trace::TraceDoc`, the repository's
//! one trace format. When the recorder is off every call runs bare.

use std::collections::BTreeMap;
use std::time::Instant;

use mt_trace::{Arg, Event, TraceDoc};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer (crate) the span's call went into, e.g. `"core"`.
    pub layer: &'static str,
    /// Operation within the layer, e.g. `"run"`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was made.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Counters attached after the call (e.g. the run's `SimStats`).
    pub args: Vec<(&'static str, Arg)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder. Spans nest: a span opened with [`begin`]
/// encloses every span recorded until its [`end`].
///
/// [`begin`]: Recorder::begin
/// [`end`]: Recorder::end
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (spans already recorded stay).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span enclosing everything recorded until the matching
    /// [`end`](Recorder::end). Returns its index (meaningless when off).
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn call<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.begin(layer, name);
        let out = f();
        self.end();
        out
    }

    /// Attaches counters to the most recently closed or opened span.
    pub fn annotate(&mut self, args: Vec<(&'static str, Arg)>) {
        if let Some(last) = self.spans.last_mut() {
            last.args.extend(args);
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the time its direct
    /// children cover (children never overlap; calls are sequential).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e9)
            .collect()
    }

    /// Self seconds summed per `layer.name`, over the spans recorded since
    /// span index `from`.
    pub fn self_by_op(&self, from: usize) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let selfs = self.self_secs();
        for (s, &secs) in self.spans.iter().zip(&selfs).skip(from) {
            *out.entry(format!("{}.{}", s.layer, s.name)).or_insert(0.0) += secs;
        }
        out
    }

    /// The spans as a Chrome trace: one process for the benchmark, one track
    /// per nesting depth, each span named `layer.name` with category `layer`.
    pub fn to_doc(&self, title: &str) -> TraceDoc {
        let mut doc = TraceDoc::default();
        doc.events.push(Event::ProcessName {
            pid: 1,
            name: title.to_string(),
        });
        let depth = |mut i: usize| {
            let mut d = 0u64;
            while let Some(p) = self.spans[i].parent {
                d += 1;
                i = p;
            }
            d
        };
        let depths: Vec<u64> = (0..self.spans.len()).map(depth).collect();
        let max_depth = depths.iter().copied().max().unwrap_or(0);
        for tid in 0..=max_depth {
            doc.events.push(Event::ThreadName {
                pid: 1,
                tid,
                name: if tid == 0 {
                    "set-ups and iterations".into()
                } else {
                    "layer calls".into()
                },
            });
        }
        for (s, &tid) in self.spans.iter().zip(&depths) {
            doc.events.push(Event::Span {
                pid: 1,
                tid,
                name: format!("{}.{}", s.layer, s.name),
                cat: s.layer,
                ts_ns: s.start_ns,
                dur_ns: s.end_ns - s.start_ns,
                args: s.args.clone(),
            });
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.call("core", "run", || 5), 5);
        r.begin("bench", "iteration");
        r.end();
        assert!(r.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        r.begin("bench", "iteration");
        r.call("core", "run", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        r.annotate(vec![("events", Arg::U64(3))]);
        r.end();
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let selfs = r.self_secs();
        assert!(selfs[1] >= 0.005);
        assert!((selfs[0] + selfs[1] - spans[0].secs()).abs() < 1e-9);
        let json = r.to_doc("t").to_json();
        let stats = mt_trace::validate_chrome_json(&json).expect("valid");
        assert_eq!(stats.spans, 2);
        assert!(json.contains("\"events\":3"));
    }
}
