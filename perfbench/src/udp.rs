//! `udp-paced`: one 2-path transfer of a fixed byte count over loopback
//! UDP. Sender and receiver `UdpPeer`s run on two threads of this
//! process. A benchmark-owned fixed-rate controller offers 200 Mbit/s per
//! path, so the load is open loop: MPCC-driven loopback goodput swings
//! several-fold between identical runs, a fixed rate repeats. Traffic
//! crosses the host's loopback interface, not a real link.

use crate::harness::{self, median, Opts, Outcome};
use crate::span::{self, span, Kind};
use crate::sys;
use crate::wrap;
use mpcc_simcore::{Rate, SimDuration, SimTime};
use mpcc_telemetry::Tracer;
use mpcc_transport::wire::{AckHeader, DataHeader, Header, SackBlocks, SeqRange};
use mpcc_transport::{
    EndpointId, MpReceiver, MpSender, MultipathCc, Packet, PathId, SchedulerKind, SenderConfig,
    MSS_PAYLOAD, MSS_WIRE,
};
use mpcc_udp::{HostStats, UdpPath, UdpPeer};
use std::hint::black_box;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const PATHS: usize = 2;
const RATE_MBPS: f64 = 200.0;
/// Inflight cap: ample for loopback RTTs at the offered rate, so pacing,
/// not the window, sets the load.
const CWND: u64 = 4_000_000;
const RTT_HINT: SimDuration = SimDuration::from_millis(2);
const RECEIVE_BUFFER: u64 = 300_000_000;

/// Open-loop load: a constant pacing rate on every subflow, no reaction
/// to loss or delay.
struct FixedRate(Rate);

impl MultipathCc for FixedRate {
    fn name(&self) -> &'static str {
        "fixed-rate"
    }
    fn init_subflow(&mut self, _subflow: usize, _now: SimTime) {}
    fn is_rate_based(&self) -> bool {
        true
    }
    fn cwnd_bytes(&self, _subflow: usize, _srtt: SimDuration) -> u64 {
        CWND
    }
    fn pacing_rate(&self, _subflow: usize) -> Option<Rate> {
        Some(self.0)
    }
}

fn transfer_bytes(tiny: bool) -> u64 {
    if tiny {
        1_000_000
    } else {
        50_000_000
    }
}

struct Built {
    sender: UdpPeer,
    receiver: UdpPeer,
}

fn bind() -> UdpSocket {
    UdpSocket::bind("127.0.0.1:0").expect("cannot bind a loopback UDP socket")
}

fn build(seed: u64, bytes: u64, traced: bool) -> Built {
    let (tx_id, rx_id) = (EndpointId(0), EndpointId(1));
    let rx_socks: Vec<UdpSocket> = (0..PATHS).map(|_| bind()).collect();
    let addrs: Vec<_> = rx_socks
        .iter()
        .map(|s| s.local_addr().expect("bound socket has an address"))
        .collect();
    let receiver = UdpPeer::new(
        rx_id,
        mpcc_netsim::endpoint_rng(seed, rx_id),
        Tracer::off(),
        rx_socks
            .into_iter()
            .map(|s| UdpPath::listening(s, RTT_HINT))
            .collect(),
        wrap::endpoint(
            traced,
            Kind::Receiver,
            Box::new(MpReceiver::new(RECEIVE_BUFFER)),
        ),
    )
    .expect("cannot set up the receiving peer");
    let paths = (0..PATHS as u32).map(PathId).collect();
    let cfg =
        SenderConfig::file(rx_id, paths, bytes).with_scheduler(SchedulerKind::paper_rate_based());
    let cc = Box::new(FixedRate(Rate::from_mbps(RATE_MBPS)));
    let sender = UdpPeer::new(
        tx_id,
        mpcc_netsim::endpoint_rng(seed, tx_id),
        Tracer::off(),
        addrs
            .into_iter()
            .map(|a| UdpPath::to(bind(), a, RTT_HINT))
            .collect(),
        wrap::endpoint(traced, Kind::Sender, Box::new(MpSender::new(cfg, cc))),
    )
    .expect("cannot set up the sending peer");
    Built { sender, receiver }
}

struct Out {
    completed: bool,
    transfer_s: f64,
    acked: u64,
    delivered: u64,
    path_bytes: Vec<u64>,
    lost_pkts: u64,
    sent_payload: u64,
    acked_payload: u64,
    tx: HostStats,
    rx: HostStats,
    violations: u64,
}

fn run(b: Built, deadline: SimTime, traced: bool) -> Out {
    let Built {
        mut sender,
        mut receiver,
    } = b;
    let stop = AtomicBool::new(false);
    let stop = &stop;
    std::thread::scope(|s| {
        let rx = s.spawn(move || {
            span::set_enabled(traced);
            // The receiver outlives the sender's deadline by a margin so
            // it is never the side that gives up first.
            span(Kind::UdpHost, || {
                receiver.run(deadline + SimDuration::from_secs(5), |_| {
                    stop.load(Ordering::Relaxed)
                })
            });
            span::set_enabled(false);
            span::flush_thread();
            receiver
        });
        let t0 = Instant::now();
        let completed = span(Kind::UdpHost, || {
            sender.run(deadline, |ep| {
                ep.as_any()
                    .downcast_ref::<MpSender>()
                    .expect("sender endpoint")
                    .is_complete()
            })
        });
        let transfer_s = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let receiver = rx.join().expect("receiver thread panicked");
        let now = sender.now();
        let tx = sender.endpoint::<MpSender>();
        let (mut path_bytes, mut lost, mut sent, mut acked) = (Vec::new(), 0, 0, 0);
        for k in 0..tx.num_subflows() {
            let st = tx.subflow_stats(k, now);
            path_bytes.push(st.delivered_bytes);
            lost += st.lost_packets;
            sent += st.sent_bytes;
            acked += st.delivered_bytes;
        }
        Out {
            completed,
            transfer_s,
            acked: tx.data_acked(),
            delivered: receiver.endpoint::<MpReceiver>().delivered_bytes(),
            path_bytes,
            lost_pkts: lost,
            sent_payload: sent,
            acked_payload: acked,
            tx: sender.stats(),
            rx: receiver.stats(),
            violations: mpcc_check::violations(),
        }
    })
}

/// Nanoseconds to encode and decode one packet, over an even mix of full
/// data packets and ACKs carrying three SACK blocks.
fn codec_ns_per_pkt(iters: usize) -> f64 {
    let data = Packet {
        id: 7,
        src: EndpointId(0),
        dst: EndpointId(1),
        path: PathId(1),
        hop: usize::MAX,
        size: MSS_WIRE,
        header: Header::Data(DataHeader {
            subflow: 1,
            seq: 123_456,
            dsn: 987_654_321,
            payload_len: MSS_PAYLOAD,
            sent_at: SimTime::from_micros(1_234_567),
            is_retransmission: false,
        }),
    };
    let sack = SackBlocks::from_ranges((0..3u64).map(|i| SeqRange {
        start: 1000 + 10 * i,
        end: 1005 + 10 * i,
    }));
    let ack = Packet {
        size: mpcc_transport::ACK_SIZE,
        header: Header::Ack(AckHeader {
            subflow: 1,
            cum_ack: 990,
            sack,
            ack_seq: 1024,
            echo_sent_at: SimTime::from_micros(1_234_000),
            data_acked: 1_433_520,
            rcv_window: RECEIVE_BUFFER,
        }),
        ..data
    };
    let pkts = [data, ack];
    let mut buf = Vec::with_capacity(mpcc_udp::codec::max_encoded_len(MSS_WIRE));
    let t0 = Instant::now();
    for i in 0..iters {
        mpcc_udp::codec::encode(black_box(&pkts[i & 1]), &mut buf);
        let back = mpcc_udp::codec::decode(black_box(&buf)).expect("own encoding decodes");
        black_box(back);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs the workload under `opts`.
pub fn measure(opts: &Opts) -> Outcome {
    let bytes = transfer_bytes(opts.tiny);
    let deadline = SimTime::from_secs(60);
    let mut o = Outcome::default();
    mpcc_check::reset();
    let (plain, traced) = harness::measure(
        opts,
        20,
        |traced| build(opts.seed, bytes, traced),
        |b, traced| run(b, deadline, traced),
    );
    for x in harness::outs(&plain, &traced) {
        o.attempted += 1;
        let checks = [
            (
                x.completed,
                format!(
                    "transfer unfinished at the deadline: {} of {bytes} B acked",
                    x.acked
                ),
            ),
            (x.acked == bytes, format!("acked {} of {bytes} B", x.acked)),
            (
                x.delivered == bytes,
                format!("receiver delivered {} of {bytes} B", x.delivered),
            ),
            (
                x.rx.decode_errors == 0 && x.tx.decode_errors == 0,
                format!(
                    "decode errors: sender {} receiver {}",
                    x.tx.decode_errors, x.rx.decode_errors
                ),
            ),
            (
                x.rx.received_datagrams <= x.tx.sent_datagrams,
                format!(
                    "received {} datagrams of {} sent",
                    x.rx.received_datagrams, x.tx.sent_datagrams
                ),
            ),
            (
                x.path_bytes.iter().all(|&b| b > 0),
                format!("a path carried nothing: {:?}", x.path_bytes),
            ),
            (
                x.violations == 0,
                format!("{} invariant violations", x.violations),
            ),
        ];
        let mut ok = true;
        for (pass, msg) in checks {
            ok &= pass;
            o.check(pass, || msg);
        }
        o.failed += u64::from(!ok);
    }

    let transfer = plain
        .reps
        .iter()
        .map(|r| r.out.transfer_s)
        .fold(f64::INFINITY, f64::min);
    let goodput = bytes as f64 * 8.0 / transfer / 1e6;
    let sent: u64 = plain
        .reps
        .iter()
        .map(|r| r.out.tx.sent_datagrams + r.out.rx.sent_datagrams)
        .sum();
    let recv: u64 = plain
        .reps
        .iter()
        .map(|r| r.out.tx.received_datagrams + r.out.rx.received_datagrams)
        .sum();
    let loss_pct = 100.0 * sent.saturating_sub(recv) as f64 / sent.max(1) as f64;
    let jain = median(
        &plain
            .reps
            .iter()
            .map(|r| {
                mpcc_metrics::jain_index(
                    &r.out
                        .path_bytes
                        .iter()
                        .map(|&b| b as f64)
                        .collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>(),
    );
    let cpu_per_byte = plain.best_cpu() * 1e9 / bytes as f64;
    o.e2e("setup_s", median(&plain.setups), "s");
    o.e2e("peak_rss_mb", sys::peak_rss_mb(), "MB");
    o.e2e("wall_s", transfer, "s");
    o.e2e("cpu_ns_per_byte", cpu_per_byte, "ns/B");
    o.e2e("goodput_mbps", goodput, "Mbit/s");
    o.note(plain.line("udp-paced untraced"));
    o.note(format!(
        "udp-paced: {bytes} B over {PATHS} loopback paths at {RATE_MBPS} Mbit/s each (open loop): \
         udp_goodput_mbps {goodput:.2}, udp_loss_pct {loss_pct:.4}, udp_cpu_ns_per_byte {cpu_per_byte:.3}, \
         path_jain {jain:.6}, fail_frac {}",
        o.failed as f64 / o.attempted.max(1) as f64
    ));

    if let Some(traced) = &traced {
        let p = span::take();
        let t = traced.reps.len() as f64;
        let per = |ns: u64| ns as f64 * 1e-9 / t;
        let avg =
            |f: &dyn Fn(&Out) -> u64| traced.reps.iter().map(|r| f(&r.out)).sum::<u64>() as f64 / t;
        let (snd, rcv, host) = (
            p.of(Kind::Sender),
            p.of(Kind::Receiver),
            p.of(Kind::UdpHost),
        );
        o.layer("transport.sender_self_s", per(snd.self_ns), "s");
        o.layer("transport.sender_calls", snd.calls as f64 / t, "count");
        o.layer("transport.receiver_self_s", per(rcv.self_ns), "s");
        o.layer("transport.receiver_calls", rcv.calls as f64 / t, "count");
        o.layer("transport.lost_pkts", avg(&|x| x.lost_pkts), "count");
        o.layer(
            "transport.useful_frac",
            avg(&|x| x.acked_payload) / avg(&|x| x.sent_payload),
            "ratio",
        );
        o.layer("udp.endpoint_self_s", per(snd.self_ns + rcv.self_ns), "s");
        o.layer("udp.host_self_s", per(host.self_ns), "s");
        o.layer(
            "udp.timers_fired",
            avg(&|x| x.tx.timers_fired + x.rx.timers_fired),
            "count",
        );
        o.layer(
            "udp.idle_sleeps",
            avg(&|x| x.tx.idle_sleeps + x.rx.idle_sleeps),
            "count",
        );
        o.layer(
            "udp.send_drops",
            avg(&|x| x.tx.send_drops + x.rx.send_drops),
            "count",
        );
        o.layer(
            "udp.decode_errors",
            avg(&|x| x.tx.decode_errors + x.rx.decode_errors),
            "count",
        );
        o.layer(
            "udp.delivered_over_offered",
            goodput / (RATE_MBPS * PATHS as f64),
            "ratio",
        );
        o.layer(
            "udp.codec_ns_per_pkt",
            codec_ns_per_pkt(if opts.tiny { 2_000 } else { 2_000_000 }),
            "ns",
        );
        o.layer("udp.loss_pct", loss_pct, "%");
        harness::trace_checks(&mut o, &p, &plain, traced);
    }
    o
}
