//! In-memory host-time spans recorded around the calls the benchmark makes.
//!
//! A span has a name, a start, an end, a parent (the span open around it)
//! and the op it belongs to. Every span is folded into per-name aggregates
//! (count, total time, self time); the first [`RAW_CAP`] spans are also kept
//! verbatim and written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept verbatim for the trace file; later ones only feed aggregates.
pub const RAW_CAP: usize = 50_000;

#[derive(Debug, Clone, Copy)]
struct Raw {
    name: &'static str,
    id: u32,
    op: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    name: &'static str,
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

/// Totals of every closed span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct children.
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration in nanoseconds (0 when no span closed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean self time in nanoseconds (0 when no span closed).
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// A span recorder. Begin/end pairs must nest.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    op: u64,
    next_id: u32,
    stack: Vec<Open>,
    aggs: Vec<(&'static str, Agg)>,
    raw: Vec<Raw>,
    closed: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            op: 0,
            next_id: 0,
            stack: Vec::with_capacity(8),
            aggs: Vec::new(),
            raw: Vec::with_capacity(RAW_CAP),
            closed: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the op identifier stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            id,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span and returns its duration.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (a begin/end mismatch in the benchmark).
    pub fn end(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span end without a matching begin");
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let agg = match self.aggs.iter_mut().find(|(n, _)| *n == open.name) {
            Some((_, agg)) => agg,
            None => {
                self.aggs.push((open.name, Agg::default()));
                &mut self.aggs.last_mut().expect("just pushed").1
            }
        };
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if self.raw.len() < RAW_CAP {
            self.raw.push(Raw {
                name: open.name,
                id: open.id,
                op: self.op,
                start_ns: open.start_ns,
                end_ns,
                parent,
            });
        }
        self.closed += 1;
        dur
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Aggregates of `name` (zeroed when no such span closed).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Agg::default, |(_, a)| *a)
    }

    /// All spans closed so far.
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// The kept spans as JSON lines. `id` numbers spans in opening order;
    /// `parent` is the `id` of the span that was open around this one.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.raw.len() * 96);
        for r in &self.raw {
            let parent = r
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                r.id, r.name, r.op, r.start_ns, r.end_ns, parent
            );
        }
        out
    }
}
