//! Shard-count and backend invariance of the partitioned engine.
//!
//! DESIGN.md §16: every *emitted* quantity of a sharded run — flow
//! completion times, the event digest, total event work, stale-event
//! count — must be byte-identical at any shard count and under either
//! epoch backend (sequential or barrier-synchronised threads). The
//! connection-churn workload is the hardest case: endpoints are created
//! and destroyed mid-run at epoch boundaries, so any drift in boundary
//! placement or cross-shard handoff ordering shows up immediately.

use mpcc_experiments::runner::{Executor, MetricsConfig, TraceConfig};
use mpcc_experiments::scenarios::churn::{self, ChurnConfig, ChurnOutcome};
use mpcc_experiments::scenarios::fig19;
use mpcc_experiments::ExpConfig;
use mpcc_telemetry::LayerMask;
use std::path::PathBuf;

/// Runs the small churn workload at `shards` shards on the chosen
/// backend and returns the full outcome.
fn outcome(shards: u8, threaded: bool) -> ChurnOutcome {
    // 300 connections over ~4 s: enough lifetimes to exercise arrival,
    // retirement, pool reuse, and cross-shard traffic, small enough for
    // a debug-build test.
    let cfg = ChurnConfig::small(20201201, shards, 300, 4);
    let mut run = churn::build(&cfg);
    run.sim.set_threaded(threaded);
    run.sim.run_until(cfg.duration);
    run.collect()
}

#[test]
fn churn_outcome_invariant_across_shard_counts() {
    let base = outcome(1, false);
    assert!(
        base.fcts.len() > 200,
        "workload must complete most connections ({} done)",
        base.fcts.len()
    );
    for shards in [2u8, 4] {
        let o = outcome(shards, false);
        assert_eq!(
            base.fcts, o.fcts,
            "flow completion times differ at {shards} shards"
        );
        assert_eq!(
            base.digest, o.digest,
            "event digest differs at {shards} shards"
        );
        assert_eq!(
            base.total_events, o.total_events,
            "event work differs at {shards} shards"
        );
        assert_eq!(
            base.stale_events, o.stale_events,
            "stale-event count differs at {shards} shards"
        );
        assert_eq!(
            (base.incomplete, base.skipped),
            (o.incomplete, o.skipped),
            "completion accounting differs at {shards} shards"
        );
    }
}

/// A scratch directory with trace + metrics sinks wired into an
/// [`Executor`], so a scenario run leaves merged telemetry files behind.
struct TelemetryDir {
    dir: PathBuf,
    trace: PathBuf,
    metrics: PathBuf,
    exec: Executor,
}

impl TelemetryDir {
    fn new(tag: &str) -> TelemetryDir {
        let dir =
            std::env::temp_dir().join(format!("mpcc-shard-telem-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let metrics = dir.join("metrics.csv");
        let exec = Executor::new(
            1,
            Some(TraceConfig {
                path: trace.clone(),
                mask: LayerMask::ALL,
            }),
        )
        .with_metrics(MetricsConfig::new(metrics.clone()));
        TelemetryDir {
            dir,
            trace,
            metrics,
            exec,
        }
    }

    /// Reads both merged streams and removes the scratch directory.
    fn collect(self) -> (Vec<u8>, Vec<u8>) {
        let t = std::fs::read(&self.trace).unwrap();
        let m = std::fs::read(&self.metrics).unwrap();
        let _ = std::fs::remove_dir_all(&self.dir);
        (t, m)
    }
}

/// Runs the small churn workload with per-shard trace + metrics sinks
/// attached and returns the merged byte streams.
fn churn_telemetry(shards: u8, threaded: bool, tag: &str) -> (Vec<u8>, Vec<u8>) {
    let td = TelemetryDir::new(tag);
    let cfg = ChurnConfig::small(20201201, shards, 300, 4);
    let mut run = churn::build(&cfg);
    run.sim.set_threaded(threaded);
    let mut telem = td.exec.shard_telemetry("churn").expect("sinks configured");
    telem
        .install(&mut run.sim)
        .expect("install per-shard sinks");
    run.sim.run_until(cfg.duration);
    run.sim.flush_tracers();
    telem.merge().expect("merge part streams");
    td.collect()
}

/// Runs the scaled-down fig19 workload (one protocol) through the real
/// executor path — `run_protocols` claims the telemetry, installs it on
/// the sharded engine, and merges it — and returns the merged bytes.
fn fig19_telemetry(shards: u8, tag: &str) -> (Vec<u8>, Vec<u8>) {
    let td = TelemetryDir::new(tag);
    let cfg = ExpConfig {
        exec: td.exec.clone(),
        shards,
        ..ExpConfig::default()
    };
    fig19::run_protocols_scaled(&cfg, &["mpcc-loss"], 5);
    td.collect()
}

/// DESIGN.md §16 extended to the telemetry plane: the merged `--trace`
/// and `--metrics` byte streams — not just the scenario outcome — must be
/// identical at every shard count and on either backend. This is the
/// regression test for the sharded-run telemetry blackout: before the
/// per-shard sinks existed these files came out empty.
#[test]
fn churn_telemetry_bytes_invariant_across_shards_and_backends() {
    let (t1, m1) = churn_telemetry(1, false, "churn-s1");
    assert!(
        t1.len() > 10_000,
        "trace suspiciously small ({} bytes): sinks not attached?",
        t1.len()
    );
    assert!(
        m1.len() > 500,
        "metrics suspiciously small ({} bytes): sinks not attached?",
        m1.len()
    );
    for (shards, threaded, tag) in [
        (2, false, "churn-s2"),
        (4, false, "churn-s4"),
        (4, true, "churn-s4t"),
    ] {
        let (t, m) = churn_telemetry(shards, threaded, tag);
        assert!(
            t1 == t,
            "trace bytes differ at {shards} shards (threaded={threaded})"
        );
        assert!(
            m1 == m,
            "metrics bytes differ at {shards} shards (threaded={threaded})"
        );
    }
}

/// Same invariant for fig19 through the executor path, across shard
/// counts 1, 2 and 4 and across the sequential/threaded backends via
/// `MPCC_SHARD_THREADS`.
#[test]
fn fig19_telemetry_bytes_invariant_across_shards_and_backends() {
    std::env::set_var("MPCC_SHARD_THREADS", "0");
    let (t1, m1) = fig19_telemetry(1, "fig19-s1");
    let (t2, m2) = fig19_telemetry(2, "fig19-s2");
    let (t4, m4) = fig19_telemetry(4, "fig19-s4");
    std::env::set_var("MPCC_SHARD_THREADS", "1");
    let (t4t, m4t) = fig19_telemetry(4, "fig19-s4t");
    std::env::remove_var("MPCC_SHARD_THREADS");
    assert!(
        t1.len() > 10_000,
        "trace suspiciously small ({} bytes): sinks not attached?",
        t1.len()
    );
    assert!(
        m1.len() > 500,
        "metrics suspiciously small ({} bytes)",
        m1.len()
    );
    assert!(t1 == t2, "trace bytes differ between 1 and 2 shards");
    assert!(m1 == m2, "metrics bytes differ between 1 and 2 shards");
    assert!(t1 == t4, "trace bytes differ between 1 and 4 shards");
    assert!(m1 == m4, "metrics bytes differ between 1 and 4 shards");
    assert!(t1 == t4t, "trace bytes differ between backends");
    assert!(m1 == m4t, "metrics bytes differ between backends");
}

#[test]
fn churn_outcome_invariant_across_backends() {
    let seq = outcome(4, false);
    let thr = outcome(4, true);
    assert_eq!(seq.fcts, thr.fcts, "backends disagree on completion times");
    assert_eq!(seq.digest, thr.digest, "backends disagree on the digest");
    assert_eq!(seq.total_events, thr.total_events);
    assert_eq!(seq.stale_events, thr.stale_events);
    // Epoch layout and handoff counts are functions of the partition, not
    // the backend, so even these N-variant internals must match here.
    assert_eq!(seq.epochs, thr.epochs);
    assert_eq!(seq.handoffs, thr.handoffs);
}
