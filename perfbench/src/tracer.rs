//! Spans recorded around the benchmark's own calls into the library's public
//! functions: name, start, end, parent and repetition. They stay in memory and
//! are written out once, when the benchmark ends.
//!
//! With tracing off, [`Tracer::time`] is a plain `Instant` measurement and
//! records nothing, so the end-to-end run pays no tracing cost.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    rep: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    /// Time spent in the tracer's own bookkeeping around this span.
    overhead_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    rep: Cell<Option<u32>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            rep: Cell::new(None),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags the spans opened from now on with repetition `rep` (`None` for
    /// set-up, verification and the standalone sub-call timings).
    pub fn set_rep(&self, rep: Option<u32>) {
        self.rep.set(rep);
    }

    /// Runs `f` and returns its result with its wall time in seconds. With
    /// tracing on, also records a span whose parent is the innermost open span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.on {
            let t = Instant::now();
            let r = f();
            return (r, t.elapsed().as_secs_f64());
        }
        let entry = Instant::now();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent: self.stack.borrow().last().copied(),
                rep: self.rep.get(),
                start_ns: 0,
                end_ns: 0,
                overhead_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let t = Instant::now();
        let r = f();
        let end = Instant::now();
        self.stack.borrow_mut().pop();
        {
            let mut spans = self.spans.borrow_mut();
            spans[idx].start_ns = (t - self.epoch).as_nanos() as u64;
            spans[idx].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        let exit = Instant::now();
        self.spans.borrow_mut()[idx].overhead_ns = ((t - entry) + (exit - end)).as_nanos() as u64;
        (r, (end - t).as_secs_f64())
    }

    /// Sum of the durations of the top-level spans (no parent) of repetition
    /// `rep` outside its solve window (`setup.*` and `verify.*`), in seconds.
    pub fn top_level_s(&self, rep: u32) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| {
                s.parent.is_none()
                    && s.rep == Some(rep)
                    && !s.name.starts_with("setup.")
                    && !s.name.starts_with("verify.")
            })
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Time the tracer spent on its own bookkeeping in repetition `rep`, in
    /// seconds.
    pub fn overhead_s(&self, rep: u32) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.rep == Some(rep))
            .map(|s| s.overhead_ns as f64 * 1e-9)
            .sum()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let rep = s.rep.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"rep\":{rep},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
