//! Same-instant dispatch order under both deterministic drivers.
//!
//! `tests/udp_crosscheck.rs` compares the two drivers on a recorded MPCC
//! run, which only exercises the ties that run happens to produce. This
//! test pins the ordering itself: a recording endpoint sees several
//! arrivals and timers due at one instant — armed and injected in the
//! reverse of their key order, plus a timer armed for the current instant
//! during the dispatch — and the simulator (`Simulation::inject`) and the
//! UDP replay host (`ReplayHost`) must dispatch them identically: arrivals
//! by packet id, then timers by token, then the follow-up batch.

use mpcc_netsim::{endpoint_rng, Simulation};
use mpcc_simcore::{SimDuration, SimTime};
use mpcc_telemetry::Tracer;
use mpcc_transport::wire::{DataHeader, EndpointId, Header, Packet, PathId};
use mpcc_transport::{Endpoint, HostCtx, PacketTrace};
use mpcc_udp::ReplayHost;
use std::any::Any;

const SEED: u64 = 11;
const T1: SimTime = SimTime::from_millis(1);
const T2: SimTime = SimTime::from_millis(2);
const HORIZON: SimTime = SimTime::from_millis(3);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seen {
    Arrival(u64),
    Timer(u64),
}

/// Arms timers 7 then 3 for `T1` and 5 for `T2`; timer 3 arms timer 1
/// for the instant it fires at. Logs every callback.
#[derive(Default)]
struct Recorder {
    log: Vec<(SimTime, Seen)>,
}

impl Endpoint for Recorder {
    fn start(&mut self, ctx: &mut dyn HostCtx) {
        ctx.set_timer(T1, 7);
        ctx.set_timer(T1, 3);
        ctx.set_timer(T2, 5);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn HostCtx) {
        self.log.push((ctx.now(), Seen::Arrival(pkt.id)));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn HostCtx) {
        self.log.push((ctx.now(), Seen::Timer(token)));
        if token == 3 {
            ctx.set_timer(ctx.now(), 1);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn packet(id: u64) -> Packet {
    Packet {
        id,
        src: EndpointId(1),
        dst: EndpointId(0),
        path: PathId(0),
        hop: 1,
        size: 100,
        header: Header::Data(DataHeader {
            subflow: 0,
            seq: id,
            dsn: 0,
            payload_len: 0,
            sent_at: SimTime::ZERO,
            is_retransmission: false,
        }),
    }
}

/// Arrivals in trace order; ids 20 and 10 tie at `T1`.
fn trace() -> PacketTrace {
    let mut trace = PacketTrace::new();
    trace.push(T1, packet(20));
    trace.push(T1, packet(10));
    trace.push(T2, packet(30));
    trace
}

fn sim_log() -> Vec<(SimTime, Seen)> {
    let mut sim = Simulation::new(SEED);
    let id = sim.add_endpoint(Box::<Recorder>::default());
    assert_eq!(id, EndpointId(0));
    for e in &trace().entries {
        sim.inject(e.at, e.pkt);
    }
    sim.run_until(HORIZON);
    sim.endpoint::<Recorder>(id).log.clone()
}

fn replay_log() -> Vec<(SimTime, Seen)> {
    let mut host = ReplayHost::new(
        EndpointId(0),
        endpoint_rng(SEED, EndpointId(0)),
        Tracer::off(),
        vec![SimDuration::from_millis(10)],
        Box::<Recorder>::default(),
    );
    host.load(&trace());
    host.run(HORIZON);
    host.endpoint::<Recorder>().log.clone()
}

#[test]
fn simulator_and_replay_host_order_same_instant_events_identically() {
    use Seen::*;
    let expected = vec![
        (T1, Arrival(10)),
        (T1, Arrival(20)),
        (T1, Timer(3)),
        (T1, Timer(7)),
        (T1, Timer(1)),
        (T2, Arrival(30)),
        (T2, Timer(5)),
    ];
    assert_eq!(sim_log(), expected, "simulator order");
    assert_eq!(replay_log(), expected, "replay host order");
}
