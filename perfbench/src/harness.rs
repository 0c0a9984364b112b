//! Shared measurement machinery: repetition loops, medians, results.

use crate::span;
use crate::sys;
use std::time::Instant;

/// Command-line options every workload sees.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Workload seed; the same seed builds the same inputs.
    pub seed: u64,
    /// Measurement budget, seconds (untraced and traced reps share it in
    /// a traced run).
    pub seconds: f64,
    /// Produce the per-layer split (a traced run) instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Tiny inputs, for the smoke test.
    pub tiny: bool,
}

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (connections, flows, transfers) over all reps.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// One message per failed check (any entry makes the run incorrect).
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced reps only).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layer: Vec<Metric>,
    /// Human-readable report lines: workload-specific results, sample
    /// counts, the machine facts that qualify them.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a correctness check; a failed one is an error line.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.push(Metric { name, value, unit });
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// One measured repetition.
pub struct Rep<T> {
    /// Wall seconds of the measured part.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) of the measured part.
    pub cpu_s: f64,
    /// The repetition's result.
    pub out: T,
}

/// The repetitions of one run kind, plus every set-up time sampled along
/// the way.
pub struct Reps<T> {
    /// Measured repetitions, in run order.
    pub reps: Vec<Rep<T>>,
    /// Set-up seconds: each rep's own build, plus `extra_setups` builds
    /// timed (and dropped) before each rep. Spreading the samples over
    /// the whole run keeps a burst of machine noise from moving all of
    /// them at once.
    pub setups: Vec<f64>,
}

impl<T> Reps<T> {
    /// The fastest rep's wall seconds. Every rep of a seed does the same
    /// work, and other tenants of the machine only ever add time, so the
    /// fastest rep is the least disturbed measurement of that work.
    pub fn best_wall(&self) -> f64 {
        self.reps
            .iter()
            .map(|r| r.wall_s)
            .fold(f64::INFINITY, f64::min)
    }

    /// The least CPU seconds any rep used.
    pub fn best_cpu(&self) -> f64 {
        self.reps
            .iter()
            .map(|r| r.cpu_s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Report line: rep count and the sorted wall seconds of every rep.
    pub fn line(&self, what: &str) -> String {
        let mut w: Vec<f64> = self.reps.iter().map(|r| r.wall_s).collect();
        w.sort_by(f64::total_cmp);
        let list: Vec<String> = w.iter().map(|x| format!("{x:.4}")).collect();
        format!(
            "{what}: {} reps, wall s min {:.4} median {:.4} max {:.4}; sorted: {}",
            w.len(),
            w[0],
            median(&w),
            w[w.len() - 1],
            list.join(" ")
        )
    }
}

/// Fewest reps of each kind a run makes, whatever its budget.
const MIN_REPS: usize = 3;
/// Most reps of each kind a run makes (tiny inputs finish fast).
const MAX_REPS: usize = 100;

/// Runs `build` then `run` repeatedly until `budget_s` of measured wall
/// time is spent, at least [`MIN_REPS`] and at most [`MAX_REPS`] times.
/// With `traced`, span recording is on for the calling thread during
/// `run` only.
fn reps<B, T>(
    budget_s: f64,
    extra_setups: usize,
    traced: bool,
    mut build: impl FnMut() -> B,
    mut run: impl FnMut(B) -> T,
) -> Reps<T> {
    let mut out = Reps {
        reps: Vec::new(),
        setups: Vec::new(),
    };
    let mut spent = 0.0;
    while out.reps.len() < MAX_REPS && (out.reps.len() < MIN_REPS || spent < budget_s) {
        for _ in 0..extra_setups {
            let t0 = Instant::now();
            let b = build();
            out.setups.push(t0.elapsed().as_secs_f64());
            drop(b);
        }
        let t0 = Instant::now();
        let b = build();
        out.setups.push(t0.elapsed().as_secs_f64());
        let cpu0 = sys::process_cpu_s();
        let t1 = Instant::now();
        span::set_enabled(traced);
        let r = run(b);
        span::set_enabled(false);
        let wall_s = t1.elapsed().as_secs_f64();
        let cpu_s = sys::process_cpu_s() - cpu0;
        spent += wall_s;
        out.reps.push(Rep {
            wall_s,
            cpu_s,
            out: r,
        });
    }
    out
}

/// The reps of one workload run: one unmeasured warm-up rep, untraced
/// reps for `opts.seconds` (half of it in a traced run), then in a traced
/// run traced reps for the other half. `build(traced)` makes a rep's
/// inputs, `run(inputs, traced)` runs it.
pub fn measure<B, T>(
    opts: &Opts,
    extra_setups: usize,
    build: impl Fn(bool) -> B,
    run: impl Fn(B, bool) -> T,
) -> (Reps<T>, Option<Reps<T>>) {
    run(build(false), false);
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = reps(
        budget,
        extra_setups,
        false,
        || build(false),
        |b| run(b, false),
    );
    let traced = opts.trace.then(|| {
        let _ = span::take();
        reps(budget, 0, true, || build(true), |b| run(b, true))
    });
    (plain, traced)
}

/// Every rep's result, untraced then traced.
pub fn outs<'a, T>(plain: &'a Reps<T>, traced: &'a Option<Reps<T>>) -> Vec<&'a T> {
    plain
        .reps
        .iter()
        .chain(traced.iter().flat_map(|t| &t.reps))
        .map(|r| &r.out)
        .collect()
}

/// Median (mean of the middle pair for even counts).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolation quantile of `v` at `q` ∈ [0, 1].
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Compares the exact counts of every rep with the first and records a
/// failure on any drift. `label` names the counts in the message.
pub fn check_repeat<C: PartialEq + std::fmt::Debug>(
    o: &mut Outcome,
    label: &str,
    counts: impl IntoIterator<Item = C>,
) {
    let mut it = counts.into_iter();
    let Some(first) = it.next() else { return };
    for (i, c) in it.enumerate() {
        o.check(c == first, || {
            format!(
                "{label}: rep {} drifted from rep 0: {c:?} != {first:?}",
                i + 1
            )
        });
    }
}

/// The checks and figures every traced run reports: the self-time sum
/// against the root spans, and traced over untraced wall time.
pub fn trace_checks<T>(o: &mut Outcome, p: &span::Profile, plain: &Reps<T>, traced: &Reps<T>) {
    let err = p.self_sum_error();
    o.check(err <= 0.01, || {
        format!("span self times miss the root total by {:.3}%", err * 100.0)
    });
    let overhead = traced.best_wall() / plain.best_wall();
    o.layer("trace.self_sum_err", err, "ratio");
    o.layer("trace.overhead", overhead, "ratio");
    o.note(traced.line("traced"));
    o.note(format!(
        "trace: self-time sum vs root {:.4}% (limit 1%), overhead traced/untraced wall {overhead:.3}",
        err * 100.0
    ));
    o.notes.extend(p.lines());
}
