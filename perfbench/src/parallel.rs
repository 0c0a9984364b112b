//! `mpcc-parallel`: four staggered `mpcc-loss` connections, each with one
//! subflow on each of two shared paper-default links (100 Mbit/s, 30 ms,
//! 375 KB), with the metrics pipeline attached as `--metrics` attaches
//! it. The paper's core setting (equilibrium is LMMF): the per-packet
//! path, the MPCC controller and telemetry do the work; there is no
//! connection churn, no sharding and no socket.

use crate::harness::{self, median, Opts, Outcome};
use crate::span::{self, span, Kind};
use crate::sys;
use crate::wrap::{self, TimedCc, TimedSink};
use mpcc_experiments::protocols;
use mpcc_netsim::topology::parallel_links;
use mpcc_netsim::{EndpointId, LinkId, LinkParams, Simulation};
use mpcc_simcore::rng::splitmix64;
use mpcc_simcore::SimTime;
use mpcc_telemetry::{LayerMask, MetricsPipeline, PipelineConfig, TraceSink, Tracer};
use mpcc_transport::{MpReceiver, MpSender, SenderConfig};
use std::sync::Arc;

const PROTO: &str = "mpcc-loss";
const CONNS: usize = 4;
const LINKS: usize = 2;

/// Run shape: connection `i` starts at `i · stagger_ms`; goodput is
/// measured over `[window_from_s, secs]`, after the last one started.
struct Shape {
    secs: u64,
    stagger_ms: u64,
    window_from_s: u64,
}

fn shape(tiny: bool) -> Shape {
    if tiny {
        Shape {
            secs: 6,
            stagger_ms: 1000,
            window_from_s: 4,
        }
    } else {
        Shape {
            secs: 60,
            stagger_ms: 5000,
            window_from_s: 20,
        }
    }
}

struct Built {
    sim: Simulation,
    links: Vec<LinkId>,
    senders: Vec<EndpointId>,
    receivers: Vec<EndpointId>,
}

fn build(seed: u64, sh: &Shape, traced: bool) -> Built {
    let sim_seed = splitmix64(seed ^ 0x9A7A_11E1);
    let mut net = parallel_links(sim_seed, &[LinkParams::paper_default(); LINKS]);
    let paths: Vec<Vec<_>> = (0..CONNS)
        .map(|_| (0..LINKS).map(|l| net.path(l)).collect())
        .collect();
    let links = net.links.clone();
    let mut sim = net.sim;
    // Rows are formatted exactly as for a `--metrics` file; the bytes are
    // discarded so disk writes do not add noise to the wall time.
    let pipeline: Arc<dyn TraceSink> = Arc::new(MetricsPipeline::new(
        PipelineConfig::default(),
        false,
        Box::new(std::io::sink()),
    ));
    let sink: Arc<dyn TraceSink> = if traced {
        Arc::new(TimedSink(pipeline))
    } else {
        pipeline
    };
    sim.set_tracer(Tracer::new(sink, LayerMask::ALL));
    let (mut senders, mut receivers) = (Vec::new(), Vec::new());
    for (i, paths) in paths.into_iter().enumerate() {
        let rx = Box::new(MpReceiver::paper_default());
        let recv = sim.add_endpoint(wrap::endpoint(traced, Kind::Receiver, rx));
        let mut cc = protocols::make(
            PROTO,
            splitmix64(sim_seed ^ splitmix64(0xC0FFEE + i as u64)),
        );
        if traced {
            cc = Box::new(TimedCc(cc));
        }
        let cfg = SenderConfig::bulk(recv, paths)
            .with_scheduler(protocols::scheduler_for(PROTO))
            .with_start_at(SimTime::from_millis(i as u64 * sh.stagger_ms));
        let tx = Box::new(MpSender::new(cfg, cc));
        senders.push(sim.add_endpoint(wrap::endpoint(traced, Kind::Sender, tx)));
        receivers.push(recv);
    }
    Built {
        sim,
        links,
        senders,
        receivers,
    }
}

/// Everything a rep produces that must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
struct Counts {
    events: u64,
    peak_queue: usize,
    cascades: u64,
    mi_reports: u64,
    link_drops: u64,
    lost_pkts: u64,
    sent_payload: u64,
    acked_payload: u64,
    conn_acked: Vec<u64>,
    conn_window_bytes: Vec<u64>,
    violations: u64,
}

struct Out {
    counts: Counts,
    receiver_ok: bool,
}

fn run(mut b: Built, sh: &Shape) -> Out {
    let acked = |sim: &Simulation, ids: &[EndpointId]| -> Vec<u64> {
        ids.iter()
            .map(|&id| sim.endpoint::<MpSender>(id).data_acked())
            .collect()
    };
    let mut at_window = vec![0; CONNS];
    // One-second slices, as the scenario runner samples.
    for s in 1..=sh.secs {
        span(Kind::Engine, || b.sim.run_until(SimTime::from_secs(s)));
        if s == sh.window_from_s {
            at_window = acked(&b.sim, &b.senders);
        }
    }
    b.sim.tracer().flush();
    let end = SimTime::from_secs(sh.secs);
    let conn_acked = acked(&b.sim, &b.senders);
    let (mut mi_reports, mut lost, mut sent, mut ack_payload) = (0, 0, 0, 0);
    for &id in &b.senders {
        let tx = b.sim.endpoint::<MpSender>(id);
        mi_reports += tx.mi_reports();
        for k in 0..tx.num_subflows() {
            let st = tx.subflow_stats(k, end);
            lost += st.lost_packets;
            sent += st.sent_bytes;
            ack_payload += st.delivered_bytes;
        }
    }
    let receiver_ok = b.senders.iter().zip(&b.receivers).all(|(&tx, &rx)| {
        b.sim.endpoint::<MpSender>(tx).data_acked()
            <= b.sim.endpoint::<MpReceiver>(rx).delivered_bytes()
    });
    let link_drops = b
        .links
        .iter()
        .map(|&l| {
            let st = b.sim.link_stats(l);
            st.dropped_overflow + st.dropped_random
        })
        .sum();
    Out {
        counts: Counts {
            events: b.sim.total_events(),
            peak_queue: b.sim.peak_queue_len(),
            cascades: b.sim.profile().cascades,
            mi_reports,
            link_drops,
            lost_pkts: lost,
            sent_payload: sent,
            acked_payload: ack_payload,
            conn_window_bytes: conn_acked
                .iter()
                .zip(&at_window)
                .map(|(a, w)| a - w)
                .collect(),
            conn_acked,
            violations: mpcc_check::violations(),
        },
        receiver_ok,
    }
}

/// Runs the workload under `opts`.
pub fn measure(opts: &Opts) -> Outcome {
    let sh = shape(opts.tiny);
    let mut o = Outcome::default();
    mpcc_check::reset();
    // Set-up takes microseconds: 20 extra samples per rep.
    let (plain, traced) = harness::measure(
        opts,
        20,
        |traced| build(opts.seed, &sh, traced),
        |b, _| run(b, &sh),
    );
    let all = harness::outs(&plain, &traced);
    harness::check_repeat(
        &mut o,
        "mpcc-parallel exact counts",
        all.iter().map(|x| x.counts.clone()),
    );

    let c = &all[0].counts;
    let window_s = (sh.secs - sh.window_from_s) as f64;
    let conn_mbps: Vec<f64> = c
        .conn_window_bytes
        .iter()
        .map(|&b| b as f64 * 8.0 / window_s / 1e6)
        .collect();
    let goodput: f64 = conn_mbps.iter().sum();
    let jain = mpcc_metrics::jain_index(&conn_mbps);
    let capacity_bits = LinkParams::paper_default().capacity.bps() * LINKS as f64 * sh.secs as f64;
    for x in &all {
        o.attempted += CONNS as u64;
        let silent = x
            .counts
            .conn_window_bytes
            .iter()
            .filter(|&&b| b == 0)
            .count();
        o.check(silent == 0, || {
            format!("{silent} connections delivered nothing in the window")
        });
        let total_bits = x.counts.conn_acked.iter().sum::<u64>() as f64 * 8.0;
        let fits = total_bits <= capacity_bits;
        o.check(fits, || {
            format!("aggregate {total_bits} bits exceeds link capacity x time {capacity_bits}")
        });
        o.check(x.receiver_ok, || {
            "a sender saw more acked than its receiver delivered".into()
        });
        let clean = x.counts.violations == 0;
        o.check(clean, || {
            format!("{} invariant violations", x.counts.violations)
        });
        o.failed += if fits && x.receiver_ok && clean {
            silent as u64
        } else {
            CONNS as u64
        };
    }

    let wall = plain.best_wall();
    let payload: u64 = c.conn_acked.iter().sum();
    o.e2e("setup_s", median(&plain.setups), "s");
    o.e2e("peak_rss_mb", sys::peak_rss_mb(), "MB");
    o.e2e("wall_s", wall, "s");
    o.e2e(
        "cpu_ns_per_byte",
        plain.best_cpu() * 1e9 / payload as f64,
        "ns/B",
    );
    o.e2e("goodput_mbps", goodput, "Mbit/s");
    o.note(plain.line("mpcc-parallel untraced"));
    o.note(format!(
        "mpcc-parallel: {CONNS} x {PROTO} over {LINKS} x 100 Mbit/s, {} sim-s: \
         sim_s_per_wall_s {:.3}, sim_goodput_mbps {goodput:.2} (window {}-{} s), sim_jain {jain:.4}, \
         fail_frac {}",
        sh.secs,
        sh.secs as f64 / wall,
        sh.window_from_s,
        sh.secs,
        o.failed as f64 / o.attempted.max(1) as f64
    ));
    o.note(format!("mpcc-parallel exact counts: {c:?}"));

    if let Some(traced) = &traced {
        let p = span::take();
        let n = traced.reps.len() as f64;
        let per = |ns: u64| ns as f64 * 1e-9 / n;
        let eng = p.of(Kind::Engine);
        let (snd, rcv) = (p.of(Kind::Sender), p.of(Kind::Receiver));
        let (cc, sink) = (p.of(Kind::Controller), p.of(Kind::Sink));
        o.layer("netsim.engine_self_s", per(eng.self_ns), "s");
        o.layer(
            "netsim.self_ns_per_event",
            eng.self_ns as f64 / n / c.events as f64,
            "ns",
        );
        o.layer("netsim.events", c.events as f64, "count");
        o.layer("simcore.peak_queue_len", c.peak_queue as f64, "count");
        o.layer("simcore.wheel_cascades", c.cascades as f64, "count");
        o.layer("netsim.link_drops", c.link_drops as f64, "count");
        o.layer("transport.sender_self_s", per(snd.self_ns), "s");
        o.layer("transport.sender_calls", snd.calls as f64 / n, "count");
        o.layer("transport.receiver_self_s", per(rcv.self_ns), "s");
        o.layer("transport.receiver_calls", rcv.calls as f64 / n, "count");
        o.layer("transport.lost_pkts", c.lost_pkts as f64, "count");
        o.layer(
            "transport.useful_frac",
            c.acked_payload as f64 / c.sent_payload as f64,
            "ratio",
        );
        o.layer("transport.mi_reports", c.mi_reports as f64, "count");
        o.layer("mpcc.controller_self_s", per(cc.self_ns), "s");
        o.layer("mpcc.controller_calls", cc.calls as f64 / n, "count");
        o.layer("telemetry.sink_self_s", per(sink.self_ns), "s");
        o.layer("telemetry.records", sink.calls as f64 / n, "count");
        o.layer(
            "telemetry.records_per_event",
            sink.calls as f64 / n / c.events as f64,
            "ratio",
        );
        harness::trace_checks(&mut o, &p, &plain, traced);
    }
    o
}
