//! Span recorder for the traced run.
//!
//! Every timed call into a layer opens a span; the parent is whatever span
//! is open on the same thread (a per-thread stack), so controller calls
//! nest inside sender spans and telemetry records inside whichever layer
//! emitted them. A traced run makes ~10⁷ calls, so spans are not stored:
//! each closes straight into a per-thread `(kind, parent)` aggregate of
//! call count, total and self time, and [`take`] merges the aggregates of
//! every thread when the run ends.
//!
//! Self time is a span's duration minus the durations of its direct
//! children. Summed over a whole tree it telescopes to the root span's
//! duration; [`Profile::self_sum_error`] checks exactly that.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

/// A span kind: one layer boundary the benchmark times from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Simulation::run_until` / `ShardedSimulation::run_until`.
    Engine,
    /// A call into a transport sender (`MpSender` as `Endpoint`).
    Sender,
    /// A call into a transport receiver (`MpReceiver` as `Endpoint`).
    Receiver,
    /// A call into the MPCC controller (`MultipathCc`).
    Controller,
    /// One record handed to the telemetry sink stack (`TraceSink`).
    Sink,
    /// `UdpPeer::run`, one per thread.
    UdpHost,
}

const KINDS: usize = 6;
/// Parent slot of a root span.
const ROOT: usize = KINDS;

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Engine => "engine",
            Kind::Sender => "sender",
            Kind::Receiver => "receiver",
            Kind::Controller => "controller",
            Kind::Sink => "sink",
            Kind::UdpHost => "udp_host",
        }
    }
}

/// Aggregate of every span of one `(kind, parent)` pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), nanoseconds.
    pub self_ns: u64,
}

impl Agg {
    fn add(&mut self, o: &Agg) {
        self.calls += o.calls;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
    }
}

struct Frame {
    kind: usize,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    stack: Vec<Frame>,
    agg: [[Agg; KINDS + 1]; KINDS],
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

static MERGED: Mutex<Option<Profile>> = Mutex::new(None);

/// Turns span recording on or off for the calling thread. Threads start
/// with recording off, so an untraced run pays one thread-local branch
/// per wrapped call (and untraced workloads do not wrap at all).
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Runs `f` inside a span of `kind` when recording is on for this thread.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let on = REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            r.stack.push(Frame {
                kind: kind as usize,
                start: Instant::now(),
                child_ns: 0,
            });
        }
        r.on
    });
    let out = f();
    if on {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = Instant::now();
            let f = r.stack.pop().expect("span stack underflow");
            let dur = end.duration_since(f.start).as_nanos() as u64;
            let parent = match r.stack.last_mut() {
                Some(p) => {
                    p.child_ns += dur;
                    p.kind
                }
                None => ROOT,
            };
            let a = &mut r.agg[f.kind][parent];
            a.calls += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(f.child_ns);
        });
    }
    out
}

/// Counts a call of `kind` under the open span without timing it, for
/// calls far cheaper than a span (~50 ns of clock reads): their time
/// stays in the parent's self time.
#[inline]
pub fn count(kind: Kind) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            let parent = r.stack.last().map_or(ROOT, |f| f.kind);
            r.agg[kind as usize][parent].calls += 1;
        }
    });
}

/// Moves the calling thread's aggregates into the process-wide profile.
/// Every thread that recorded spans calls this before it ends.
pub fn flush_thread() {
    let agg = REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "flush with open spans");
        std::mem::take(&mut r.agg)
    });
    let mut m = MERGED.lock().expect("span merge lock poisoned");
    let p = m.get_or_insert_with(Profile::default);
    for (k, row) in agg.iter().enumerate() {
        for (parent, a) in row.iter().enumerate() {
            p.agg[k][parent].add(a);
        }
    }
}

/// Takes (and clears) the merged profile of every flushed thread.
pub fn take() -> Profile {
    flush_thread();
    MERGED
        .lock()
        .expect("span merge lock poisoned")
        .take()
        .unwrap_or_default()
}

/// Merged span aggregates of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    agg: [[Agg; KINDS + 1]; KINDS],
}

impl Profile {
    /// All spans of `kind`, whatever their parent.
    pub fn of(&self, kind: Kind) -> Agg {
        let mut a = Agg::default();
        for row in &self.agg[kind as usize] {
            a.add(row);
        }
        a
    }

    /// Summed duration of every root span (spans opened with none open).
    pub fn root_ns(&self) -> u64 {
        self.agg.iter().map(|row| row[ROOT].total_ns).sum()
    }

    /// `|Σ self − Σ root| / Σ root`: zero when every child span nested
    /// inside its parent and none was lost.
    pub fn self_sum_error(&self) -> f64 {
        let self_sum: u64 = self.agg.iter().flatten().map(|a| a.self_ns).sum();
        let root = self.root_ns();
        if root == 0 {
            return 0.0;
        }
        (self_sum as f64 - root as f64).abs() / root as f64
    }

    /// One line per non-empty `(kind, parent)` pair, for the report.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (k, row) in self.agg.iter().enumerate() {
            for (p, a) in row.iter().enumerate() {
                if a.calls == 0 {
                    continue;
                }
                let parent = if p == ROOT {
                    "root"
                } else {
                    KIND_ALL[p].name()
                };
                out.push(format!(
                    "span {:>10} <- {:<10} calls {:>10} total {:>9.3} s self {:>9.3} s",
                    KIND_ALL[k].name(),
                    parent,
                    a.calls,
                    a.total_ns as f64 * 1e-9,
                    a.self_ns as f64 * 1e-9
                ));
            }
        }
        out
    }
}

const KIND_ALL: [Kind; KINDS] = [
    Kind::Engine,
    Kind::Sender,
    Kind::Receiver,
    Kind::Controller,
    Kind::Sink,
    Kind::UdpHost,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope_to_the_root() {
        set_enabled(true);
        span(Kind::Engine, || {
            span(Kind::Sender, || {
                span(Kind::Controller, || std::hint::black_box(1 + 1));
                span(Kind::Sink, || ());
            });
            span(Kind::Receiver, || ());
        });
        set_enabled(false);
        let p = take();
        assert_eq!(p.of(Kind::Controller).calls, 1);
        assert_eq!(
            p.agg[Kind::Controller as usize][Kind::Sender as usize].calls,
            1
        );
        assert_eq!(p.agg[Kind::Engine as usize][ROOT].calls, 1);
        assert!(p.self_sum_error() < 1e-12);
    }
}
