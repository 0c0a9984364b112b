//! The pacer under a driver that wakes late.
//!
//! `UdpPeer` sleeps until the next timer deadline and the operating system
//! wakes it tens of microseconds after it. Every timer that was not yet due
//! when the loop went to sleep therefore fires late, while timers armed for
//! the current instant fire at once in the same turn. [`LateHost`] models
//! exactly that on a virtual clock, with no sockets: each wake lands a fixed
//! lateness after the deadline it slept for, and everything due by then
//! fires at that instant in deadline order. Outbound packets are logged,
//! not delivered, so the sender never sees an ACK; a fixed-rate, MI-driven
//! test controller keeps it sending regardless.
//!
//! The checks: a late driver still gets the commanded rate (the pacer
//! schedules each slot from the previous slot, not from the wake time),
//! catching up never lets a monitor interval send more than its own rate
//! allows, a stall longer than the pacer's lag cap is not made up in one
//! burst, and with zero lateness the host reproduces an on-time driver's
//! send times exactly.

use mpcc_netsim::endpoint_rng;
use mpcc_simcore::{EventQueue, Rate, SimDuration, SimRng, SimTime};
use mpcc_telemetry::{LayerMask, RingSink, TraceEvent, Tracer, TransportEvent};
use mpcc_transport::wire::{EndpointId, Header, PathId, MSS_WIRE};
use mpcc_transport::{Endpoint, HostCtx, MpSender, MultipathCc, SenderConfig};
use mpcc_udp::ReplayHost;
use std::sync::{Arc, Mutex};

const SEED: u64 = 5;
const ME: EndpointId = EndpointId(0);
const HORIZON: SimTime = SimTime::from_millis(100);
/// Wake lateness of the modelled socket loop (the order `UdpPeer` shows on
/// a loaded 2-vCPU box).
const LATE: SimDuration = SimDuration::from_micros(70);
/// 200 Mbit/s: one 1500-byte packet per 60 µs, shorter than `LATE`.
const PACED: f64 = 200.0;
/// Alternating MI rates of 1 Gbit/s and 400 Mbit/s: one packet per 12 µs
/// and per 30 µs. A late wake owes several slots, so credit leaking from
/// one interval into the next would show as several extra sends.
const STEPS: [f64; 2] = [1000.0, 400.0];
/// An MI length that is never a multiple of either pacing interval, so no
/// interval boundary ties with a pacing slot.
const SHORT_MI: SimDuration = SimDuration::from_nanos(7_000_001);

/// What the sender did, in the order it happened.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ev {
    /// The controller opened a monitor interval at this rate.
    MiBegin(SimTime, Rate),
    /// A data packet left the sender.
    Send(SimTime),
}

type Log = Arc<Mutex<Vec<Ev>>>;

/// Cycles through `rates`, one per monitor interval, with a fixed MI
/// length and a window that never binds.
struct Stepped {
    rates: Vec<Rate>,
    mi: SimDuration,
    next: usize,
    log: Log,
}

impl MultipathCc for Stepped {
    fn name(&self) -> &'static str {
        "stepped"
    }
    fn init_subflow(&mut self, _subflow: usize, _now: SimTime) {}
    fn uses_mi(&self) -> bool {
        true
    }
    fn is_rate_based(&self) -> bool {
        true
    }
    fn begin_mi(&mut self, _subflow: usize, now: SimTime) -> Rate {
        let rate = self.rates[self.next % self.rates.len()];
        self.next += 1;
        self.log.lock().unwrap().push(Ev::MiBegin(now, rate));
        rate
    }
    fn mi_duration(
        &mut self,
        _subflow: usize,
        _srtt: SimDuration,
        _rng: &mut SimRng,
    ) -> SimDuration {
        self.mi
    }
    fn cwnd_bytes(&self, _subflow: usize, _srtt: SimDuration) -> u64 {
        1 << 40
    }
    fn pacing_rate(&self, _subflow: usize) -> Option<Rate> {
        None
    }
}

fn sender(rates: &[f64], mi: SimDuration, log: &Log) -> MpSender {
    let cc = Stepped {
        rates: rates.iter().map(|&m| Rate::from_mbps(m)).collect(),
        mi,
        next: 0,
        log: log.clone(),
    };
    MpSender::new(
        SenderConfig::bulk(EndpointId(1), vec![PathId(0)]),
        Box::new(cc),
    )
}

/// A virtual-clock driver whose every wake from sleep is `lateness` past
/// the deadline it slept for (see the module docs).
struct LateHost {
    now: SimTime,
    lateness: SimDuration,
    rng: SimRng,
    tracer: Tracer,
    timers: EventQueue<u64>,
    log: Log,
}

impl HostCtx for LateHost {
    fn now(&self) -> SimTime {
        self.now
    }
    fn self_id(&self) -> EndpointId {
        ME
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
    fn tracer(&self) -> &Tracer {
        &self.tracer
    }
    fn send(&mut self, _path: PathId, _dst: EndpointId, _size: u64, header: Header) {
        assert!(matches!(header, Header::Data(_)), "a sender sends data");
        self.log.lock().unwrap().push(Ev::Send(self.now));
    }
    fn send_reverse(&mut self, _path: PathId, _dst: EndpointId, _size: u64, _header: Header) {
        unreachable!("a sender never answers on the reverse path");
    }
    fn set_timer(&mut self, at: SimTime, token: u64) {
        self.timers.schedule(at.max(self.timers.now()), token);
    }
    fn path_base_rtt(&self, _path: PathId) -> SimDuration {
        SimDuration::from_millis(2)
    }
}

/// Runs `ep` on a [`LateHost`] until the clock would pass `HORIZON`.
fn run_late(mut ep: MpSender, lateness: SimDuration, log: &Log) {
    let mut host = LateHost {
        now: SimTime::ZERO,
        lateness,
        rng: endpoint_rng(SEED, ME),
        tracer: Tracer::off(),
        timers: EventQueue::new(),
        log: log.clone(),
    };
    ep.start(&mut host);
    while let Some(next) = host.timers.peek_time() {
        if next > host.now {
            // Nothing due: sleep until the deadline, and oversleep.
            host.now = next + host.lateness;
        }
        if host.now > HORIZON {
            break;
        }
        while host.timers.peek_time().is_some_and(|t| t <= host.now) {
            let (_, token) = host.timers.pop().expect("peeked");
            ep.on_timer(token, &mut host);
        }
    }
}

fn sends(log: &Log) -> Vec<SimTime> {
    let log = log.lock().unwrap();
    log.iter()
        .filter_map(|e| match *e {
            Ev::Send(t) => Some(t),
            Ev::MiBegin(..) => None,
        })
        .collect()
}

#[test]
fn late_wakes_keep_the_commanded_rate() {
    // One interval spans the whole run, so this measures the pacer alone;
    // interval boundaries are the next test's subject.
    let log = Log::default();
    run_late(
        sender(&[PACED], SimDuration::from_secs(1), &log),
        LATE,
        &log,
    );
    let sent = sends(&log).len() as f64;
    let expected = Rate::from_mbps(PACED).bytes_in(HORIZON - SimTime::ZERO) / MSS_WIRE as f64;
    assert!(
        (sent - expected).abs() <= 2.0,
        "sent {sent} packets in {HORIZON:?} with {LATE:?} wake lateness; \
         {PACED} Mbit/s commands {expected:.1}"
    );
}

#[test]
fn catching_up_stays_inside_each_interval_budget() {
    let log = Log::default();
    run_late(sender(&STEPS, SHORT_MI, &log), LATE, &log);
    // Every slot of an interval lies at or after its start, one pacing
    // interval apart, and no packet leaves before its slot. So at every
    // instant an interval has sent at most elapsed / interval + 1 packets,
    // measured from its start. A catch-up that took credit from before
    // the start would send several packets at the opening instant.
    let mut current: Option<(SimTime, u64)> = None; // (start, pacing interval)
    let (mut intervals, mut sent) = (0, 0u64);
    for e in log.lock().unwrap().iter() {
        match *e {
            Ev::MiBegin(t, rate) => {
                current = Some((t, rate.serialize_time(MSS_WIRE).as_nanos()));
                intervals += 1;
                sent = 0;
            }
            Ev::Send(t) => {
                let (start, interval) = current.expect("sends start inside an MI");
                sent += 1;
                let budget = (t - start).as_nanos() / interval + 1;
                assert!(
                    sent <= budget,
                    "MI {intervals} from {start:?}: send {sent} at {t:?} exceeds {budget}"
                );
            }
        }
    }
    assert!(intervals >= 10, "only {intervals} intervals ran");
}

#[test]
fn a_long_stall_is_not_made_up_in_a_burst() {
    // Every wake is 2 ms late, far past the pacer's 500 µs lag cap: each
    // wake may send what the cap owes it and no more.
    let log = Log::default();
    run_late(
        sender(&[PACED], SimDuration::from_secs(1), &log),
        SimDuration::from_millis(2),
        &log,
    );
    let interval = Rate::from_mbps(PACED).serialize_time(MSS_WIRE).as_nanos();
    let cap = SimDuration::from_micros(500).as_nanos() / interval + 1;
    let sends = sends(&log);
    let burst = sends
        .chunk_by(|a, b| a == b)
        .map(<[SimTime]>::len)
        .max()
        .unwrap_or(0) as u64;
    assert!(
        (2..=cap).contains(&burst),
        "largest same-instant burst {burst}; the lag cap allows {cap}"
    );
}

#[test]
fn without_lateness_sends_match_an_on_time_driver() {
    let late_log = Log::default();
    run_late(
        sender(&STEPS, SHORT_MI, &late_log),
        SimDuration::ZERO,
        &late_log,
    );

    let sink = Arc::new(RingSink::new(1 << 16));
    let tracer = Tracer::new(sink.clone(), LayerMask::parse("transport").unwrap());
    let mut on_time = ReplayHost::new(
        ME,
        endpoint_rng(SEED, ME),
        tracer,
        vec![SimDuration::from_millis(2)],
        Box::new(sender(&STEPS, SHORT_MI, &Log::default())),
    );
    on_time.run(HORIZON);
    let on_time_sends: Vec<SimTime> = sink
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Transport(TransportEvent::Send { .. }) => Some(r.t),
            _ => None,
        })
        .collect();

    assert!(on_time_sends.len() > 1000, "{} sends", on_time_sends.len());
    assert_eq!(sends(&late_log), on_time_sends);
}
