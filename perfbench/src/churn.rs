//! `churn-clos`: the `experiments churn --full` script, 20,000 Reno
//! 2-subflow connections with Poisson arrivals over 120 s, bounded-Pareto
//! sizes from 10 KB to 50 MB, and 0.05% loss on the 1.25 Gbit/s, 50 µs
//! Clos fabric, partitioned into shards, telemetry off. Connection set-up
//! and teardown (endpoint pools, arenas, `reset_for_reuse`), multi-hop
//! forwarding and shard lockstep do the work; the MPCC controller and
//! telemetry do none.
//!
//! The churn endpoints are built inside `scenarios::churn` and cannot be
//! wrapped, so the traced split is the engine total plus exact counts.

use crate::harness::{self, median, quantile, Opts, Outcome};
use crate::span::{self, span, Kind};
use crate::sys;
use mpcc_experiments::scenarios::churn::{self, ChurnConfig, ChurnOutcome, ChurnSim};
use mpcc_netsim::LinkId;
use mpcc_simcore::rng::splitmix64;
use mpcc_simcore::{SimDuration, SimTime};

/// Shard count: the fabric is partitioned, so epochs, handoffs and the
/// lockstep engine do their work.
const SHARDS: u8 = 2;

fn config(seed: u64, tiny: bool) -> ChurnConfig {
    // Same seed derivation as `experiments churn --seed N`.
    let seed = splitmix64(seed ^ 0xC09);
    if tiny {
        return ChurnConfig::small(seed, SHARDS, 300, 2);
    }
    ChurnConfig {
        conns: 20_000,
        window: SimDuration::from_secs(120),
        duration: SimTime::from_secs(150),
        max_bytes: 50_000_000,
        ..ChurnConfig::small(seed, SHARDS, 1, 1)
    }
}

/// Everything a rep produces that must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
struct Counts {
    digest: u64,
    events: u64,
    stale: u64,
    reuses: u64,
    fresh: u64,
    epochs: u64,
    handoffs: u64,
    peak_queue: usize,
    cascades: u64,
    link_drops: u64,
    completed: usize,
    incomplete: u64,
    skipped: u64,
    violations: u64,
}

struct Out {
    counts: Counts,
    outcome: ChurnOutcome,
    threaded: bool,
}

/// `churn::build` on the sequential backend: with one shard thread per
/// core, a spin barrier per epoch makes every run as slow as the most
/// disturbed core, and the fastest of a run's reps swung by a quarter
/// between runs of one seed on a shared 2-core machine. Results are
/// identical on both backends.
fn build(cfg: &ChurnConfig) -> ChurnSim {
    let mut cs = churn::build(cfg);
    cs.sim.set_threaded(false);
    cs
}

fn run(mut cs: ChurnSim, cfg: &ChurnConfig) -> Out {
    span(Kind::Engine, || cs.sim.run_until(cfg.duration));
    let outcome = cs.collect();
    let links = 2 * cfg.clos.tors * (cfg.clos.hosts_per_tor + cfg.clos.spines);
    let (mut cascades, mut link_drops) = (0, 0);
    for i in 0..cs.sim.shards() {
        let shard = cs.sim.shard(i);
        cascades += shard.profile().cascades;
        for l in 0..links {
            let st = shard.link_stats(LinkId(l as u32));
            link_drops += st.dropped_overflow + st.dropped_random;
        }
    }
    Out {
        counts: Counts {
            digest: outcome.digest,
            events: outcome.total_events,
            stale: outcome.stale_events,
            reuses: outcome.reuses,
            fresh: outcome.fresh,
            epochs: outcome.epochs,
            handoffs: outcome.handoffs,
            peak_queue: outcome.peak_queue,
            cascades,
            link_drops,
            completed: outcome.fcts.len(),
            incomplete: outcome.incomplete,
            skipped: outcome.skipped,
            violations: mpcc_check::violations(),
        },
        outcome,
        threaded: cs.sim.threaded(),
    }
}

/// Runs the workload under `opts`.
pub fn measure(opts: &Opts) -> Outcome {
    let cfg = config(opts.seed, opts.tiny);
    let mut o = Outcome::default();
    mpcc_check::reset();
    let (plain, traced) = harness::measure(opts, 1, |_| build(&cfg), |b, _| run(b, &cfg));
    let all = harness::outs(&plain, &traced);
    harness::check_repeat(
        &mut o,
        "churn-clos exact counts",
        all.iter().map(|x| x.counts.clone()),
    );
    for x in &all {
        let c = &x.counts;
        o.attempted += cfg.conns as u64;
        o.failed += c.incomplete + c.skipped;
        o.check(
            c.completed as u64 + c.incomplete + c.skipped == cfg.conns as u64,
            || {
                format!(
                    "completed {} + unfinished {} + skipped {} != scripted {}",
                    c.completed, c.incomplete, c.skipped, cfg.conns
                )
            },
        );
        o.check(c.violations == 0, || {
            format!("{} invariant violations", c.violations)
        });
    }

    let first = all[0];
    let c = &first.counts;
    let fcts: Vec<f64> = first.outcome.fcts.iter().map(|&(_, _, ms)| ms).collect();
    let bytes: u64 = first.outcome.fcts.iter().map(|&(_, b, _)| b).sum();
    let flow_mbps: Vec<f64> = first
        .outcome
        .fcts
        .iter()
        .map(|&(_, b, ms)| b as f64 * 8.0 / (ms * 1e3))
        .collect();
    let mean_flow_mbps = flow_mbps.iter().sum::<f64>() / flow_mbps.len().max(1) as f64;
    let wall = plain.best_wall();
    o.e2e("setup_s", median(&plain.setups), "s");
    o.e2e("peak_rss_mb", sys::peak_rss_mb(), "MB");
    o.e2e("wall_s", wall, "s");
    o.e2e(
        "cpu_ns_per_byte",
        plain.best_cpu() * 1e9 / bytes as f64,
        "ns/B",
    );
    o.e2e("goodput_mbps", mean_flow_mbps, "Mbit/s");
    let secs = cfg.duration.as_secs_f64();
    o.note(plain.line("churn-clos untraced"));
    o.note(format!(
        "churn-clos: {} conns, {SHARDS} shards, threaded backend {}: sim_s_per_wall_s {:.3}, \
         fct_p50_ms {:.4}, fct_p99_ms {:.4} (n = {} completed flows), aggregate {:.2} Mbit/s, \
         flow_jain {:.4}, fail_frac {}",
        cfg.conns,
        first.threaded,
        secs / wall,
        quantile(&fcts, 0.5),
        quantile(&fcts, 0.99),
        fcts.len(),
        bytes as f64 * 8.0 / secs / 1e6,
        mpcc_metrics::jain_index(&flow_mbps),
        o.failed as f64 / o.attempted.max(1) as f64
    ));
    o.note(format!("churn-clos exact counts: {c:?}"));

    if let Some(traced) = &traced {
        let p = span::take();
        let n = traced.reps.len() as f64;
        let eng = p.of(Kind::Engine);
        o.layer("netsim.engine_self_s", eng.self_ns as f64 * 1e-9 / n, "s");
        o.layer(
            "netsim.self_ns_per_event",
            eng.self_ns as f64 / n / c.events as f64,
            "ns",
        );
        o.layer("netsim.events", c.events as f64, "count");
        o.layer("simcore.peak_queue_len", c.peak_queue as f64, "count");
        o.layer("simcore.wheel_cascades", c.cascades as f64, "count");
        o.layer("netsim.link_drops", c.link_drops as f64, "count");
        o.layer("netsim.epochs", c.epochs as f64, "count");
        o.layer("netsim.handoffs", c.handoffs as f64, "count");
        o.layer(
            "netsim.stale_frac",
            c.stale as f64 / c.events as f64,
            "ratio",
        );
        o.layer(
            "churn.pool_reuse_frac",
            c.reuses as f64 / (c.reuses + c.fresh).max(1) as f64,
            "ratio",
        );
        harness::trace_checks(&mut o, &p, &plain, traced);
    }
    o
}

/// The shard backend the workload runs on.
pub fn backend() -> &'static str {
    let probe = build(&ChurnConfig::small(0, SHARDS, 1, 1));
    if probe.sim.threaded() {
        "threaded"
    } else {
        "sequential"
    }
}
