//! End-to-end and per-layer benchmark of the MPCC reproduction.
//!
//! ```text
//! perfbench [--workload mpcc-parallel|churn-clos|udp-paced|all] [--seed N]
//!           [--seconds S] [--trace 0|1] [--tiny]
//! ```
//!
//! Each workload is built from `--seed`, warmed up once, then repeated
//! until `--seconds` of measured wall time is spent; times are those of
//! the fastest repetition, set-up time the median of its samples.
//! `--trace 0` reports the end-to-end metrics of untraced repetitions.
//! `--trace 1` spends half the budget untraced and half traced — every
//! layer call wrapped and timed from outside (see `wrap.rs`, `span.rs`) —
//! and reports the per-layer split, the span self-time sum check and the
//! tracing overhead. Outputs are checked in every run, and exact
//! simulator counts must repeat across repetitions; any failure makes the
//! run incorrect and the exit code 1.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--workload all` the three workloads run in this one process and
//! metric names are prefixed with the workload.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux /proc and a 64-bit `struct timespec`");

mod churn;
mod harness;
mod parallel;
mod span;
mod sys;
mod udp;
mod wrap;

use harness::{Metric, Opts, Outcome};
use std::process::ExitCode;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["mpcc-parallel", "churn-clos", "udp-paced"];

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
const LAYER_METRICS: [(&str, &str); 33] = [
    ("netsim.engine_self_s", "s"),
    ("netsim.self_ns_per_event", "ns"),
    ("netsim.events", "count"),
    ("simcore.peak_queue_len", "count"),
    ("simcore.wheel_cascades", "count"),
    ("netsim.link_drops", "count"),
    ("netsim.epochs", "count"),
    ("netsim.handoffs", "count"),
    ("netsim.stale_frac", "ratio"),
    ("churn.pool_reuse_frac", "ratio"),
    ("transport.sender_self_s", "s"),
    ("transport.sender_calls", "count"),
    ("transport.receiver_self_s", "s"),
    ("transport.receiver_calls", "count"),
    ("transport.lost_pkts", "count"),
    ("transport.useful_frac", "ratio"),
    ("transport.mi_reports", "count"),
    ("mpcc.controller_self_s", "s"),
    ("mpcc.controller_calls", "count"),
    ("telemetry.sink_self_s", "s"),
    ("telemetry.records", "count"),
    ("telemetry.records_per_event", "ratio"),
    ("udp.endpoint_self_s", "s"),
    ("udp.host_self_s", "s"),
    ("udp.timers_fired", "count"),
    ("udp.idle_sleeps", "count"),
    ("udp.send_drops", "count"),
    ("udp.decode_errors", "count"),
    ("udp.delivered_over_offered", "ratio"),
    ("udp.codec_ns_per_pkt", "ns"),
    ("udp.loss_pct", "%"),
    ("trace.self_sum_err", "ratio"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: String,
    opts: Opts,
}

fn usage() -> String {
    "usage: perfbench [--workload mpcc-parallel|churn-clos|udp-paced|all] [--seed N] \
     [--seconds S] [--trace 0|1] [--tiny]"
        .into()
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        opts: Opts {
            seed: 1,
            seconds: 20.0,
            trace: false,
            tiny: false,
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            a.opts.tiny = true;
            continue;
        }
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("bad {flag} value {val:?}: {what}");
        match flag.as_str() {
            "--workload" if val == "all" || WORKLOADS.contains(&val.as_str()) => a.workload = val,
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => a.opts.seed = val.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                a.opts.seconds = val.parse().map_err(|_| bad("not a number"))?;
                if !(a.opts.seconds > 0.0 && a.opts.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                a.opts.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(a)
}

fn measure(workload: &str, opts: &Opts) -> Outcome {
    match workload {
        "mpcc-parallel" => parallel::measure(opts),
        "churn-clos" => churn::measure(opts),
        "udp-paced" => udp::measure(opts),
        other => unreachable!("workload {other} passed argument parsing"),
    }
}

/// The metrics a run reports: end-to-end ones untraced, the full
/// per-layer list (zero-filled) traced.
fn reported(o: &mut Outcome, trace: bool) -> Vec<Metric> {
    if !trace {
        return std::mem::take(&mut o.e2e);
    }
    for m in &o.layer {
        assert!(
            LAYER_METRICS
                .iter()
                .any(|&(n, u)| n == m.name && u == m.unit),
            "per-layer metric {} [{}] is not registered",
            m.name,
            m.unit
        );
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = o
                .layer
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric { name, value, unit }
        })
        .collect()
}

fn json_metrics(out: &mut String, prefix: &str, ms: &[Metric], first: &mut bool) {
    for m in ms {
        if !*first {
            out.push_str(", ");
        }
        *first = false;
        out.push_str(&format!(
            "\"{prefix}{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    println!(
        "machine: {{\"nproc\": {}, \"churn_backend\": \"{}\", \"udp_link\": \"loopback\", \
         \"profile\": \"{}\", \"features\": \"default\", \"commit\": \"{}\", \"seed\": {}}}",
        sys::nproc(),
        churn::backend(),
        sys::profile(),
        sys::commit(),
        args.opts.seed
    );
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut body = String::new();
    let mut first = true;
    for name in &names {
        let rss_scoped = sys::reset_peak_rss();
        let mut o = measure(name, &args.opts);
        if !rss_scoped {
            o.note("peak_rss_mb spans the whole process (watermark reset refused)".into());
        }
        let mut ms = reported(&mut o, args.opts.trace);
        for m in &mut ms {
            if !m.value.is_finite() {
                o.failures.push(format!("{} is not finite", m.name));
                m.value = 0.0;
            }
        }
        for line in &o.notes {
            println!("{line}");
        }
        for m in &ms {
            println!("{name} {:<32} {:>18.6} {}", m.name, m.value, m.unit);
        }
        for f in &o.failures {
            println!("CHECK FAILED [{name}]: {f}");
        }
        attempted += o.attempted;
        failed += o.failed;
        correct &= o.failures.is_empty();
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        json_metrics(&mut body, &prefix, &ms, &mut first);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
