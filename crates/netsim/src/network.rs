//! The event loop tying links, paths and endpoints together.
//!
//! Endpoints (transport senders and receivers) implement
//! [`mpcc_transport::Endpoint`] and interact with the network exclusively
//! through the [`mpcc_transport::HostCtx`] seam: sending packets down a
//! path, setting timers, and drawing randomness. This simulator is one
//! driver behind that seam ([`Ctx`] is its `HostCtx` implementation); the
//! `mpcc-udp` crate provides another, backed by real sockets. The
//! simulation is a single-threaded deterministic event loop in the spirit
//! of smoltcp's event-driven design — no async runtime, no hidden
//! concurrency.

use crate::ids::{EndpointId, LinkId, PathId};
use crate::link::{Admission, DropKind, Link, LinkParams, LinkStats, TxOutcome};
use crate::packet::{Header, Packet};
use mpcc_simcore::{
    rng::splitmix64, DispatchStamp, EventQueue, ProfCat, ProfileReport, Profiler, SimDuration,
    SimRng, SimTime,
};
use mpcc_telemetry::{Layer, LinkEvent, Tracer};
use mpcc_transport::{arrival_key, timer_key, DispatchKey};
use std::sync::Arc;

pub use mpcc_transport::{Endpoint, HostCtx};

/// A forward path: an ordered list of links, plus the delay the reverse
/// (ACK) direction experiences.
///
/// The reverse direction is modelled as pure delay: none of the paper's
/// topologies congest the ACK path, and this halves the event count.
#[derive(Clone, Debug)]
pub struct Path {
    /// Links traversed in order by data packets.
    pub links: Vec<LinkId>,
    /// Fixed delay applied to ACKs travelling back to the sender.
    pub reverse_delay: SimDuration,
}

/// Events processed by the simulation loop.
enum Event {
    /// A link finished serializing its head packet.
    TxComplete(LinkId),
    /// The packet parked in `slot` of the packet slab finished propagating
    /// toward its next hop (or toward its destination endpoint if past the
    /// last hop). `id` and `hop` are the packet's [`arrival_key`] fields,
    /// so ordering and hashing never touch the slab.
    Arrive { slot: u32, id: u64, hop: u64 },
    /// An endpoint timer fired.
    Timer(EndpointId, u64),
    /// A scheduled link parameter change (boxed: it is rare, and inline it
    /// would widen every queue entry).
    LinkChange(LinkId, Box<LinkParams>),
}

// Every wheel slot, drain buffer and same-time batch is sized in queue
// entries, so one wide variant would inflate all of them.
const _: () = assert!(std::mem::size_of::<Event>() <= 32);

/// In-flight packets, parked here so the event queue carries only their
/// slot index: a `Vec` of packets plus a free list of vacated slots. Its
/// capacity only grows toward the in-flight high-water mark, like the
/// wheel slots' (see [`Simulation::reserve_event_capacity`]).
#[derive(Default)]
struct PacketSlab {
    packets: Vec<Packet>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// Parks `pkt` and returns the arrival event that will deliver it.
    fn park(&mut self, pkt: Packet) -> Event {
        let (_, id, hop) = arrival_key(&pkt);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.packets[slot as usize] = pkt;
                slot
            }
            None => {
                self.packets.push(pkt);
                (self.packets.len() - 1) as u32
            }
        };
        Event::Arrive { slot, id, hop }
    }

    /// Takes the packet out of `slot` and frees the slot.
    fn take(&mut self, slot: u32) -> Packet {
        self.free.push(slot);
        self.packets[slot as usize]
    }

    fn get(&self, slot: u32) -> &Packet {
        &self.packets[slot as usize]
    }

    /// Pre-sizes the slab for `n` packets in flight at once.
    fn reserve(&mut self, n: usize) {
        self.packets.reserve(n.saturating_sub(self.packets.len()));
        self.free.reserve(n.saturating_sub(self.free.len()));
    }
}

/// The canonical dispatch key of an event: same-time events are
/// dispatched in ascending key order, making dispatch order a function of
/// event *content* rather than queue insertion order. Arrivals and timers
/// use the driver seam's keys, which the UDP replay host sorts by too.
/// Keys are unique within a timestamp except for duplicate-fault packet
/// twins (same id, same hop), which are bit-identical packets — their
/// relative order is immaterial.
fn canon_key(ev: &Event) -> DispatchKey {
    match ev {
        Event::TxComplete(l) => (0, l.0 as u64, 0),
        // The class of `arrival_key`, whose other fields `park` stored.
        Event::Arrive { id, hop, .. } => (1, *id, *hop),
        Event::Timer(e, tok) => timer_key(*e, *tok),
        Event::LinkChange(l, _) => (3, l.0 as u64, 0),
    }
}

/// Per-event hash folded (by wrapping addition, so order-insensitively)
/// into the event digest. Packet ids are per-endpoint, so the hash of
/// every event is shard-count invariant.
fn event_digest(t: SimTime, ev: &Event) -> u64 {
    let (class, a, b) = canon_key(ev);
    splitmix64(t.as_nanos() ^ splitmix64(class as u64 ^ splitmix64(a ^ splitmix64(b))))
}

/// Cross-shard configuration of one shard instance of a partitioned
/// topology (absent in the default single-instance mode).
///
/// Every shard constructs the *entire* topology (all links, paths and
/// endpoint slots, with endpoint boxes only in owned slots) so ids and
/// RNG forks agree across shards; this table says which shard *processes*
/// each link's service and each endpoint's events.
#[derive(Clone, Debug)]
struct ShardCfg {
    /// This shard's index.
    me: u8,
    /// Owner shard of each link, indexed by `LinkId`.
    shard_of_link: Vec<u8>,
    /// Owner shard of each endpoint slot, indexed by `EndpointId`.
    shard_of_ep: Vec<u8>,
    /// The topology's conservative lookahead at configuration
    /// ([`Simulation::min_lookahead`]); a `LinkChange` must not lower a
    /// link delay below it.
    lookahead: SimDuration,
}

/// The simulator's implementation of the [`HostCtx`] driver seam: the
/// capabilities an endpoint has while handling an event.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: EndpointId,
    events: &'a mut EventQueue<Event>,
    packets: &'a mut PacketSlab,
    links: &'a mut [Link],
    link_rngs: &'a mut [SimRng],
    paths: &'a [Path],
    rng: &'a mut SimRng,
    /// The sending endpoint's next packet id.
    next_packet_id: &'a mut u64,
    shard: Option<&'a ShardCfg>,
    outbox: &'a mut Vec<(u8, SimTime, Packet)>,
    tracer: &'a Tracer,
}

impl HostCtx for Ctx<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn self_id(&self) -> EndpointId {
        self.self_id
    }

    fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    fn tracer(&self) -> &Tracer {
        self.tracer
    }

    /// Sends a packet down `path` toward `dst`. The packet enters the first
    /// link's queue immediately (host NIC queueing is not modelled; pacing
    /// is the transport's job).
    fn send(&mut self, path: PathId, dst: EndpointId, size: u64, header: Header) {
        let id = *self.next_packet_id;
        *self.next_packet_id += 1;
        let pkt = Packet {
            id,
            src: self.self_id,
            dst,
            path,
            hop: 0,
            size,
            header,
        };
        self.forward(pkt);
    }

    /// The reverse direction is modelled as pure delay (none of the paper's
    /// topologies congest the ACK path), so a reverse send bypasses all
    /// links and arrives after the path's configured reverse delay.
    fn send_reverse(&mut self, path: PathId, dst: EndpointId, size: u64, header: Header) {
        let delay = self.paths[path.0 as usize].reverse_delay;
        self.send_direct(dst, delay, size, header);
    }

    fn set_timer(&mut self, at: SimTime, token: u64) {
        self.events.schedule(at, Event::Timer(self.self_id, token));
    }

    fn path_base_rtt(&self, path: PathId) -> SimDuration {
        let p = &self.paths[path.0 as usize];
        let forward = p
            .links
            .iter()
            .map(|l| self.links[l.0 as usize].params().delay)
            .fold(SimDuration::ZERO, |a, b| a + b);
        forward + p.reverse_delay
    }
}

impl<'a> Ctx<'a> {
    /// Sends a packet directly to `dst` after `delay`, bypassing all links.
    /// Used for the delay-only reverse (ACK) direction.
    pub fn send_direct(&mut self, dst: EndpointId, delay: SimDuration, size: u64, header: Header) {
        let id = *self.next_packet_id;
        *self.next_packet_id += 1;
        let pkt = Packet {
            id,
            src: self.self_id,
            dst,
            // The path is irrelevant for a direct packet; hop = MAX marks it
            // as past its last hop so arrival delivers it.
            path: PathId(u32::MAX),
            hop: usize::MAX,
            size,
            header,
        };
        let at = self.now + delay;
        if let Some(sc) = self.shard {
            let owner = sc.shard_of_ep[dst.0 as usize];
            if owner != sc.me {
                // Cross-shard delivery: handed off at the epoch barrier.
                self.outbox.push((owner, at, pkt));
                return;
            }
        }
        self.events.schedule(at, self.packets.park(pkt));
    }

    /// The links of `path`, for topology-aware helpers (e.g. base-RTT
    /// computation at connection setup). Transport logic must not use this
    /// to peek at queue state.
    pub fn path_links(&self, path: PathId) -> &[LinkId] {
        &self.paths[path.0 as usize].links
    }

    /// The reverse-direction delay of `path`.
    pub fn path_reverse_delay(&self, path: PathId) -> SimDuration {
        self.paths[path.0 as usize].reverse_delay
    }

    /// Current parameters of a link (for experiment oracles).
    pub fn link_params(&self, link: LinkId) -> LinkParams {
        self.links[link.0 as usize].params()
    }

    fn forward(&mut self, pkt: Packet) {
        let path = &self.paths[pkt.path.0 as usize];
        if pkt.hop >= path.links.len() {
            // Past the last hop: deliver. Reached only from Arrive dispatch;
            // a fresh send always has at least one link in our topologies.
            self.events.schedule(self.now, self.packets.park(pkt));
            return;
        }
        let link_id = path.links[pkt.hop];
        // Partitioning rule: the first hop of every path is co-owned with
        // its sending endpoint (a send enters the NIC-adjacent link
        // synchronously, so it cannot cross a shard boundary).
        debug_assert!(
            self.shard
                .is_none_or(|sc| sc.shard_of_link[link_id.0 as usize] == sc.me),
            "endpoint {:?} sends on a link owned by another shard",
            self.self_id
        );
        let link = &mut self.links[link_id.0 as usize];
        let rng = &mut self.link_rngs[link_id.0 as usize];
        let bytes = pkt.size;
        let admission = link.admit(pkt, self.now, rng);
        trace_admission(self.tracer, self.now, link_id, bytes, link, &admission);
        check_admission(self.tracer, self.now, link_id, link, &admission);
        if let Admission::StartTx(done) = admission {
            self.events.schedule(done, Event::TxComplete(link_id));
        }
    }
}

/// Emits the link-layer event corresponding to an admission outcome.
/// Pure observation: reads the link, never touches sim state.
fn trace_admission(
    tracer: &Tracer,
    now: SimTime,
    link_id: LinkId,
    bytes: u64,
    link: &Link,
    admission: &Admission,
) {
    tracer.emit_with(Layer::Link, now, || match admission {
        Admission::StartTx(_) | Admission::Queued => LinkEvent::Enqueue {
            link: link_id.0,
            bytes,
            queued_bytes: link.queued_bytes(),
        },
        Admission::Dropped(DropKind::Overflow) => LinkEvent::DropOverflow {
            link: link_id.0,
            bytes,
            queued_bytes: link.queued_bytes(),
        },
        Admission::Dropped(DropKind::Random) => LinkEvent::DropRandom {
            link: link_id.0,
            bytes,
        },
        Admission::Dropped(DropKind::Burst) => LinkEvent::DropBurst {
            link: link_id.0,
            bytes,
        },
        Admission::Dropped(DropKind::Outage) => LinkEvent::DropOutage {
            link: link_id.0,
            bytes,
        },
    });
}

/// Link-layer invariants (see crates/check and DESIGN.md §12), probed after
/// each *successful* admission: the droptail bound and (sampled) the queue
/// byte-accounting. Drops are exempt because a mid-run buffer shrink via
/// `LinkChange` may legitimately leave the queue above the new bound.
#[cfg(any(debug_assertions, feature = "invariants"))]
fn check_admission(tracer: &Tracer, now: SimTime, link_id: LinkId, link: &Link, adm: &Admission) {
    use mpcc_telemetry::CheckEvent;
    if matches!(adm, Admission::Dropped(_)) {
        return;
    }
    if let Some((observed, expected)) = link.queue_bound_violation() {
        mpcc_check::fail(
            tracer,
            now,
            CheckEvent::Violation {
                invariant: "link_queue_bound",
                conn: link_id.0 as u64,
                subflow: -1,
                observed: observed as f64,
                expected: expected as f64,
            },
        );
    }
    if link.stats().enqueued.is_multiple_of(64) {
        if let Some((cached, actual)) = link.queue_accounting_violation() {
            mpcc_check::fail(
                tracer,
                now,
                CheckEvent::Violation {
                    invariant: "link_queue_accounting",
                    conn: link_id.0 as u64,
                    subflow: -1,
                    observed: cached as f64,
                    expected: actual as f64,
                },
            );
        }
    }
}

#[cfg(not(any(debug_assertions, feature = "invariants")))]
#[inline(always)]
fn check_admission(_: &Tracer, _: SimTime, _: LinkId, _: &Link, _: &Admission) {}

/// The deterministic random stream endpoint `id` receives in a simulation
/// seeded with `seed`.
///
/// Public so alternate drivers (the UDP replay host in `mpcc-udp`, the
/// sim-vs-real cross-check harness) can hand an endpoint the exact stream
/// it would draw inside the simulator — a prerequisite for reproducing its
/// controller decisions bit-for-bit.
pub fn endpoint_rng(seed: u64, id: EndpointId) -> SimRng {
    SimRng::seed_from_u64(0).fork(seed, splitmix64(0xEE00 ^ id.0 as u64))
}

/// The top-level simulator: owns links, paths, endpoints and the event loop.
pub struct Simulation {
    seed: u64,
    events: EventQueue<Event>,
    /// The packets of every pending `Event::Arrive`.
    packets: PacketSlab,
    links: Vec<Link>,
    link_rngs: Vec<SimRng>,
    paths: Vec<Path>,
    endpoints: Vec<Option<Box<dyn Endpoint>>>,
    ep_rngs: Vec<SimRng>,
    now: SimTime,
    started: Vec<EndpointId>,
    tracer: Tracer,
    /// Clamped-schedule count already reported through the tracer.
    warned_clamps: u64,
    /// Self-profiler; zero-sized and inert unless the `profiler` feature
    /// is enabled.
    profiler: Profiler,
    /// Per-endpoint next packet id: the endpoint id in the high 32 bits,
    /// a send counter in the low bits, so ids never depend on the global
    /// interleaving of sends (which differs across shard counts).
    next_packet_ids: Vec<u64>,
    /// Cross-shard role of this instance, when part of a sharded run.
    shard: Option<ShardCfg>,
    /// Packets bound for other shards, staged until the epoch barrier:
    /// `(destination shard, arrival time, packet)`.
    outbox: Vec<(u8, SimTime, Packet)>,
    /// Reusable same-timestamp batch buffer.
    batch: Vec<Event>,
    /// Link completions executed inline by batched link service instead of
    /// through the event queue.
    inline_completions: u64,
    /// Upper bound for inline link completions: the end of the window the
    /// current `run_*` call is allowed to simulate (see `run_epoch`).
    inline_limit: SimTime,
    /// Commutative (wrapping-add) digest over all dispatched events;
    /// invariant across shard counts.
    digest: u64,
    /// Events dropped because their endpoint slot was empty (reserved but
    /// not installed, or already removed by a churn driver).
    stale_events: u64,
    /// Canonical-dispatch position cell shared with this shard's keyed
    /// telemetry sink (`None` when untraced — the stamping branch then
    /// costs one `Option` check per dispatched event and nothing else).
    trace_stamp: Option<Arc<DispatchStamp>>,
}

impl Simulation {
    /// Creates an empty simulation with the given experiment seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            seed,
            events: EventQueue::new(),
            packets: PacketSlab::default(),
            links: Vec::new(),
            link_rngs: Vec::new(),
            paths: Vec::new(),
            endpoints: Vec::new(),
            ep_rngs: Vec::new(),
            now: SimTime::ZERO,
            started: Vec::new(),
            tracer: Tracer::off(),
            warned_clamps: 0,
            profiler: Profiler::new(),
            next_packet_ids: Vec::new(),
            shard: None,
            outbox: Vec::new(),
            batch: Vec::new(),
            inline_completions: 0,
            inline_limit: SimTime::MAX,
            digest: 0,
            stale_events: 0,
            trace_stamp: None,
        }
    }

    /// The experiment seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Installs a tracer; link events and (through [`Ctx::tracer`]) the
    /// transport/controller layers will record into it. Install before
    /// running — events that already happened are not replayed.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The simulation's tracer handle.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Shares the canonical-dispatch position cell with this instance's
    /// keyed telemetry sink (see [`mpcc_simcore::DispatchStamp`]). The
    /// event loop publishes `(time, same-time round, canon-key)` into the
    /// cell before dispatching each event; endpoint `start` hooks run as
    /// round 0 keyed by endpoint id, and inline link completions as a
    /// round-1 singleton keyed like the `TxComplete` they replace.
    pub fn set_trace_stamp(&mut self, stamp: Arc<DispatchStamp>) {
        self.trace_stamp = Some(stamp);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events popped off the event queue. Excludes inline link
    /// completions; [`Simulation::total_events`] is the unit of work.
    pub fn events_processed(&self) -> u64 {
        self.events.events_popped()
    }

    /// High-water mark of the future-event list.
    pub fn peak_queue_len(&self) -> usize {
        self.events.peak_len()
    }

    /// Times an event was scheduled in the past and clamped to `now`
    /// (release builds only; debug builds panic on past schedules).
    pub fn clamped_schedules(&self) -> u64 {
        self.events.clamped_schedules()
    }

    /// Pre-sizes the event queue's wheel slots and drain buffers (see
    /// [`EventQueue::reserve_slot_capacity`]) and the slab that parks
    /// packets in flight for `in_flight` packets. Churning workloads call
    /// this at build time so occupancy maxima discovered late in a run
    /// never allocate.
    ///
    /// [`EventQueue::reserve_slot_capacity`]: mpcc_simcore::EventQueue::reserve_slot_capacity
    pub fn reserve_event_capacity(&mut self, per_slot: usize, drain: usize, in_flight: usize) {
        self.events.reserve_slot_capacity(per_slot, drain);
        self.packets.reserve(in_flight);
    }

    /// Adds a link and returns its handle.
    pub fn add_link(&mut self, params: LinkParams) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        let mut link = Link::new(params);
        // Faults draw from their own forked stream so configuring a fault
        // plan never perturbs the random-loss sequence of any link.
        link.set_fault_rng(
            SimRng::seed_from_u64(0).fork(self.seed, splitmix64(0xFA17 ^ id.0 as u64)),
        );
        self.links.push(link);
        self.link_rngs
            .push(SimRng::seed_from_u64(0).fork(self.seed, splitmix64(0x11CC ^ id.0 as u64)));
        id
    }

    /// Adds a forward path over `links`. If `reverse_delay` is `None` it
    /// defaults to the sum of the links' current propagation delays
    /// (a symmetric path).
    pub fn add_path(&mut self, links: Vec<LinkId>, reverse_delay: Option<SimDuration>) -> PathId {
        let reverse_delay = reverse_delay.unwrap_or_else(|| {
            links
                .iter()
                .map(|l| self.links[l.0 as usize].delay())
                .fold(SimDuration::ZERO, |a, b| a + b)
        });
        let id = PathId(self.paths.len() as u32);
        self.paths.push(Path {
            links,
            reverse_delay,
        });
        id
    }

    /// Registers an endpoint. Its `start` hook runs when the simulation is
    /// next driven (so endpoints added before `run_*` all start at time
    /// zero, in registration order).
    pub fn add_endpoint(&mut self, ep: Box<dyn Endpoint>) -> EndpointId {
        let id = self.reserve_endpoint();
        self.endpoints[id.0 as usize] = Some(ep);
        self.started.push(id);
        id
    }

    /// Reserves an endpoint slot without installing an endpoint.
    ///
    /// Two uses: a shard of a partitioned topology reserves slots for the
    /// endpoints other shards own (so ids and RNG forks line up across
    /// shards), and churn drivers reserve slots for connections that are
    /// created mid-run via [`Simulation::install_endpoint`]. Events
    /// addressed to an empty slot are dropped and counted in
    /// [`Simulation::stale_events`].
    pub fn reserve_endpoint(&mut self) -> EndpointId {
        let id = EndpointId(self.endpoints.len() as u32);
        self.endpoints.push(None);
        self.ep_rngs.push(endpoint_rng(self.seed, id));
        self.next_packet_ids.push((id.0 as u64) << 32);
        id
    }

    /// Installs an endpoint into a reserved (empty) slot. Its `start` hook
    /// runs when the simulation is next driven, at the then-current clock.
    pub fn install_endpoint(&mut self, id: EndpointId, ep: Box<dyn Endpoint>) {
        let slot = &mut self.endpoints[id.0 as usize];
        assert!(slot.is_none(), "endpoint slot {id:?} already occupied");
        *slot = Some(ep);
        self.started.push(id);
    }

    /// Removes an installed endpoint, returning its box (for pooling and
    /// in-place reuse). The slot stays reserved: later events addressed to
    /// it — stray timers, spurious retransmissions in flight — are dropped
    /// and counted in [`Simulation::stale_events`].
    pub fn remove_endpoint(&mut self, id: EndpointId) -> Box<dyn Endpoint> {
        self.endpoints[id.0 as usize]
            .take()
            .expect("removing an endpoint that is not installed")
    }

    /// `true` while the slot holds an installed endpoint.
    pub fn endpoint_installed(&self, id: EndpointId) -> bool {
        self.endpoints[id.0 as usize].is_some()
    }

    /// Events dropped because their endpoint slot was empty.
    pub fn stale_events(&self) -> u64 {
        self.stale_events
    }

    /// Schedules `pkt` to arrive at its destination endpoint at absolute
    /// time `at`, bypassing every link. Replay harnesses use this to feed
    /// a recorded packet trace back into a simulation (see [`crate::replay`]).
    ///
    /// Same-instant events dispatch in canonical order, which puts an
    /// injected arrival ahead of any timer pending for the same instant;
    /// a timer armed *at* that instant by the dispatch itself follows in
    /// a later round. The UDP replay host preserves exactly this ordering.
    pub fn inject(&mut self, at: SimTime, mut pkt: Packet) {
        // Mark the packet past its last hop so arrival delivers it instead
        // of re-offering it to a link of whatever path id it recorded.
        pkt.hop = usize::MAX;
        self.events.schedule(at, self.packets.park(pkt));
    }

    /// Schedules a link parameter change at absolute time `at`.
    pub fn schedule_link_change(&mut self, at: SimTime, link: LinkId, params: LinkParams) {
        self.events
            .schedule(at, Event::LinkChange(link, Box::new(params)));
    }

    // ------------------------------------------------------------------
    // Sharded execution (see DESIGN.md §16)
    // ------------------------------------------------------------------

    /// Declares this instance to be shard `me` of a partitioned topology.
    /// `shard_of_link[l]` / `shard_of_ep[e]` give the owning shard of each
    /// link / endpoint slot; both must cover everything registered so far.
    pub fn configure_shard(&mut self, me: u8, shard_of_link: Vec<u8>, shard_of_ep: Vec<u8>) {
        assert_eq!(shard_of_link.len(), self.links.len());
        assert_eq!(shard_of_ep.len(), self.endpoints.len());
        self.shard = Some(ShardCfg {
            me,
            shard_of_link,
            shard_of_ep,
            lookahead: self.min_lookahead().unwrap_or(SimDuration::ZERO),
        });
    }

    /// The conservative lookahead this topology supports: the minimum over
    /// all link propagation delays and all path reverse delays. Any
    /// partition of the topology is safe with epochs of this length,
    /// because every cross-shard handoff (a link-to-link hop, a final-hop
    /// delivery, or a delay-only reverse path) takes at least this long.
    /// `None` if the topology has no links. Mid-run `LinkChange`s must not
    /// lower a delay below this value; a shard instance records it at
    /// [`Simulation::configure_shard`] and panics on a change that does.
    pub fn min_lookahead(&self) -> Option<SimDuration> {
        let link_min = self.links.iter().map(|l| l.params().delay).min();
        let rev_min = self.paths.iter().map(|p| p.reverse_delay).min();
        match (link_min, rev_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Schedules a packet handed off from another shard. Unlike
    /// [`Simulation::inject`], the packet's hop is preserved: mid-path
    /// packets re-enter at their next link, past-last-hop packets deliver
    /// to their destination endpoint.
    pub fn inject_arrival(&mut self, at: SimTime, pkt: Packet) {
        self.events.schedule(at, self.packets.park(pkt));
    }

    /// Takes the staged cross-shard packets (cleared on return). The
    /// sharded engine routes them into the destination shards' wheels at
    /// the epoch barrier, swapping the buffer back via
    /// [`Simulation::give_outbox`] to keep its capacity.
    pub fn take_outbox(&mut self) -> Vec<(u8, SimTime, Packet)> {
        std::mem::take(&mut self.outbox)
    }

    /// Returns a drained outbox buffer so its capacity is reused.
    pub fn give_outbox(&mut self, mut buf: Vec<(u8, SimTime, Packet)>) {
        buf.clear();
        if buf.capacity() > self.outbox.capacity() {
            self.outbox = buf;
        }
    }

    /// The order-insensitive event digest: a wrapping sum of per-event
    /// hashes, so the combined digest over all shards is
    /// invariant across shard counts even though each shard dispatches a
    /// different subset.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Link completions executed inline by batched link service.
    pub fn inline_completions(&self) -> u64 {
        self.inline_completions
    }

    /// Total simulation work: queue-dispatched events plus inline link
    /// completions. Invariant across shard counts (unlike the raw popped
    /// count, since inline-batching decisions depend on each shard's local
    /// queue head).
    pub fn total_events(&self) -> u64 {
        self.events.events_popped() + self.inline_completions
    }

    /// The earliest pending event time, if any (the sharded engine's
    /// epoch-skip input).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Runs endpoint `start` hooks that are pending (normally done by
    /// `run_*`; the sharded engine calls it after a boundary hook installs
    /// endpoints so their first events are visible to epoch planning).
    pub fn flush_starts(&mut self) {
        self.start_pending();
    }

    /// Attributes a span to this shard's profiler (the sharded engine uses
    /// it for cross-shard handoff and barrier-wait time).
    pub fn profiler_record(&mut self, cat: ProfCat, stamp: mpcc_simcore::Stamp) {
        self.profiler.record(cat, stamp);
    }

    /// Read access to a link (statistics, current parameters).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Accumulated statistics of a link.
    pub fn link_stats(&self, id: LinkId) -> LinkStats {
        self.links[id.0 as usize].stats()
    }

    /// Downcasts an endpoint to its concrete type for inspection.
    ///
    /// # Panics
    /// Panics if the endpoint is currently being dispatched or has a
    /// different concrete type.
    pub fn endpoint<T: 'static>(&self, id: EndpointId) -> &T {
        self.endpoints[id.0 as usize]
            .as_ref()
            .expect("endpoint is mid-dispatch")
            .as_any()
            .downcast_ref::<T>()
            .expect("endpoint type mismatch")
    }

    /// Mutable variant of [`Simulation::endpoint`].
    pub fn endpoint_mut<T: 'static>(&mut self, id: EndpointId) -> &mut T {
        self.endpoints[id.0 as usize]
            .as_mut()
            .expect("endpoint is mid-dispatch")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("endpoint type mismatch")
    }

    /// Runs until the event queue is exhausted or the clock passes `until`.
    /// On return the clock reads exactly `until` (or the last event time if
    /// the queue drained first).
    pub fn run_until(&mut self, until: SimTime) {
        self.run_bounded(until, true);
    }

    /// Runs one synchronization epoch: all events strictly before `end`
    /// (or up to and including `end` when `inclusive`, for the final
    /// window of a sharded run). On return the clock reads exactly `end`.
    /// Cross-shard packets produced during the epoch are staged in the
    /// outbox for the caller to route.
    pub fn run_epoch(&mut self, end: SimTime, inclusive: bool) {
        self.run_bounded(end, inclusive);
    }

    fn run_bounded(&mut self, until: SimTime, inclusive: bool) {
        self.inline_limit = until;
        self.start_pending();
        self.run_loop(until, inclusive);
        self.inline_limit = SimTime::MAX;
        if self.now < until {
            self.now = until;
        }
    }

    /// The event loop: all events sharing a timestamp are popped as a
    /// batch and dispatched in canonical-key order, so dispatch order does
    /// not depend on queue insertion order — the one quantity that differs
    /// between an inline schedule (same shard) and a mailbox drain
    /// (cross-shard handoff). The sort may be unstable: the only possible
    /// key ties are duplicate-fault packet twins, which are bit-identical
    /// `Copy` packets, so either order dispatches the same events.
    /// (`sort_unstable` also never allocates, keeping churn steady state
    /// off the allocator; the stable sort takes per-call scratch.)
    fn run_loop(&mut self, until: SimTime, inclusive: bool) {
        // Same-time batches are numbered as *rounds* (1, 2, … per
        // timestamp; endpoint starts are round 0) for the telemetry
        // dispatch stamp. Rounds are partition-invariant: same-time
        // follow-up chains are shard-local (every cross-shard handoff
        // travels at least one lookahead into the future), so the union
        // over shards of round-`r` batches at `t` equals the one-shard
        // round-`r` batch.
        let mut round_t = SimTime::ZERO;
        let mut round = 0u64;
        while let Some(t) = self.events.peek_time() {
            if t > until || (!inclusive && t == until) {
                break;
            }
            let (_, first) = self.events.pop().expect("peeked");
            self.now = t;
            if t != round_t {
                round_t = t;
                round = 0;
            }
            round += 1;
            // Most timestamps hold a single event: dispatch it directly,
            // skipping the batch buffer and the sort.
            if self.events.peek_time() != Some(t) {
                self.dispatch_stamped(t, round, first, true);
                continue;
            }
            // Drain the batch at time `t`. Events scheduled *for* `t`
            // during the batch's dispatch form a follow-up batch (the
            // outer loop re-peeks), which is fine: their creation order is
            // itself canonical by induction.
            let mut batch = std::mem::take(&mut self.batch);
            batch.push(first);
            while self.events.peek_time() == Some(t) {
                batch.push(self.events.pop().expect("peeked").1);
            }
            batch.sort_unstable_by_key(canon_key);
            let n = batch.len();
            for (i, ev) in batch.drain(..).enumerate() {
                // Inline link service is only sound for the final event of
                // the batch: any earlier event still has same-time work
                // pending that could touch the link being serviced.
                self.dispatch_stamped(t, round, ev, i + 1 == n);
            }
            self.batch = batch;
        }
    }

    /// Dispatches one event of the round-`round` batch at `t`: publishes
    /// its telemetry stamp, folds it into the digest, and attributes it
    /// to the self-profiler.
    fn dispatch_stamped(&mut self, t: SimTime, round: u64, ev: Event, may_inline: bool) {
        if let Some(stamp) = &self.trace_stamp {
            let (class, a, b) = canon_key(&ev);
            stamp.set(t.as_nanos(), round, (class as u64, a, b));
        }
        // With the feature off, `ENABLED` is a false constant: the
        // classification, the stamp, and the record all fold away.
        let cat = if Profiler::ENABLED {
            Some(self.classify(&ev))
        } else {
            None
        };
        #[allow(clippy::let_unit_value)] // `Stamp` is `()` with the feature off
        let stamp = Profiler::start();
        self.digest = self.digest.wrapping_add(event_digest(t, &ev));
        self.dispatch(ev, may_inline);
        if let Some(cat) = cat {
            self.profiler.record(cat, stamp);
        }
        // Surface release-mode past-schedule clamps (debug builds panic
        // instead). A single u64 compare in the common (zero-clamp) case.
        let clamped = self.events.clamped_schedules();
        if clamped > self.warned_clamps {
            self.warned_clamps = clamped;
            self.tracer
                .emit_with(Layer::Link, self.now, || LinkEvent::ClockClamp {
                    count: clamped,
                });
        }
    }

    /// Runs for `d` beyond the current clock.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.now + d;
        self.run_until(until);
    }

    /// Runs until no events remain (useful for finite workloads).
    pub fn run_to_completion(&mut self) {
        self.run_until(SimTime::MAX);
    }

    fn start_pending(&mut self) {
        // Same-instant starts run in ascending endpoint-id order — the
        // canonical order for starts, exactly as same-time event batches
        // dispatch in canon-key order. This is partition invariant
        // (endpoints sharing any mutable state are co-sharded with it, and
        // co-sharded ids sort the same way in every partition), and it is
        // what lets start-hook telemetry be keyed by endpoint id: each
        // shard's round-0 stamps are then monotonic, so its keyed part
        // stream stays sorted.
        let mut started = std::mem::take(&mut self.started);
        started.sort_unstable();
        for &id in &started {
            if let Some(stamp) = &self.trace_stamp {
                stamp.set(self.now.as_nanos(), 0, (0, id.0 as u64, 0));
            }
            self.with_endpoint(id, |ep, ctx| ep.start(ctx));
        }
        started.clear();
        self.started = started;
    }

    /// The profiling category an event will dispatch into. Pure
    /// observation (mirrors `dispatch`'s branch structure); only called
    /// when the `profiler` feature is on.
    fn classify(&self, ev: &Event) -> ProfCat {
        match ev {
            Event::TxComplete(_) => ProfCat::LinkTx,
            Event::Arrive { slot, .. } => {
                let pkt = self.packets.get(*slot);
                let past_last_hop = match self.paths.get(pkt.path.0 as usize) {
                    Some(path) => pkt.hop >= path.links.len(),
                    None => true,
                };
                if !past_last_hop {
                    ProfCat::Forward
                } else if pkt.ack().is_some() {
                    ProfCat::ArriveAck
                } else {
                    ProfCat::ArriveData
                }
            }
            Event::Timer(..) => ProfCat::Timer,
            Event::LinkChange(..) => ProfCat::LinkChange,
        }
    }

    /// Snapshot of the self-profiler plus the timer wheel's always-on
    /// introspection counters.
    pub fn profile(&self) -> ProfileReport {
        self.profiler.report(
            self.events.cascades(),
            self.events.overflow_promotions(),
            self.events.occupied_slots(),
        )
    }

    fn dispatch(&mut self, ev: Event, may_inline: bool) {
        match ev {
            Event::TxComplete(link_id) => loop {
                let link = &mut self.links[link_id.0 as usize];
                let (outcome, next) = link.complete_tx(self.now);
                let delay = link.delay();
                match outcome {
                    TxOutcome::Deliver {
                        mut pkt,
                        extra,
                        duplicate,
                    } => {
                        if !extra.is_zero() {
                            self.tracer.emit_with(Layer::Link, self.now, || {
                                LinkEvent::FaultReorder {
                                    link: link_id.0,
                                    bytes: pkt.size,
                                    extra_delay_ns: extra.as_nanos(),
                                }
                            });
                        }
                        pkt.hop = pkt.hop.saturating_add(1);
                        // `Packet` is `Copy`, so the rare duplication fault
                        // is a stack copy and the common path never clones.
                        if let Some(trail) = duplicate {
                            self.tracer.emit_with(Layer::Link, self.now, || {
                                LinkEvent::FaultDuplicate {
                                    link: link_id.0,
                                    bytes: pkt.size,
                                    extra_delay_ns: trail.as_nanos(),
                                }
                            });
                            self.schedule_arrive(self.now + delay + extra + trail, pkt);
                        }
                        self.schedule_arrive(self.now + delay + extra, pkt);
                    }
                    TxOutcome::Blackholed(pkt) => {
                        self.tracer
                            .emit_with(Layer::Link, self.now, || LinkEvent::DropOutage {
                                link: link_id.0,
                                bytes: pkt.size,
                            });
                    }
                }
                let Some(done) = next else { break };
                // Batched link service: when this completion is provably
                // the very next event this instance would execute —
                // nothing else pending in the current same-time batch,
                // strictly earlier than the queue head, and inside the
                // current run window — execute it inline instead of
                // round-tripping through the event queue. The decision is
                // outcome-neutral (the completion runs at
                // the same simulated time against the same link state
                // either way), so the shard-local queue head it depends on
                // never leaks into results.
                if may_inline
                    && done < self.inline_limit
                    && self.events.peek_time().is_none_or(|t| done < t)
                {
                    self.now = done;
                    self.inline_completions += 1;
                    self.digest = self
                        .digest
                        .wrapping_add(event_digest(done, &Event::TxComplete(link_id)));
                    if let Some(stamp) = &self.trace_stamp {
                        // Inline service is provably the only activity at
                        // `done` on any shard, so it stamps exactly as the
                        // round-1 singleton batch the queued `TxComplete`
                        // would have formed — the stamp is inline-decision
                        // neutral.
                        let (class, a, b) = canon_key(&Event::TxComplete(link_id));
                        stamp.set(done.as_nanos(), 1, (class as u64, a, b));
                    }
                    continue;
                }
                self.events.schedule(done, Event::TxComplete(link_id));
                break;
            },
            Event::Arrive { slot, .. } => {
                // Freed before the endpoint lookup, so a stale-endpoint
                // drop recycles its slot too.
                let pkt = self.packets.take(slot);
                let past_last_hop = match self.paths.get(pkt.path.0 as usize) {
                    Some(path) => pkt.hop >= path.links.len(),
                    None => true, // direct (delay-only) packet
                };
                if past_last_hop {
                    let dst = pkt.dst;
                    self.with_endpoint(dst, |ep, ctx| ep.on_packet(pkt, ctx));
                } else {
                    self.reforward(pkt);
                }
            }
            Event::Timer(id, token) => {
                self.with_endpoint(id, |ep, ctx| ep.on_timer(token, ctx));
            }
            Event::LinkChange(id, params) => {
                if let Some(sc) = &self.shard {
                    // A shorter delay would let a cross-shard handoff land
                    // inside an epoch that has already run.
                    assert!(
                        params.delay >= sc.lookahead,
                        "LinkChange on {id:?} lowers its delay to {:?}, below the \
                         sharded lookahead {:?}",
                        params.delay,
                        sc.lookahead
                    );
                }
                self.links[id.0 as usize].set_params(*params);
            }
        }
    }

    /// Schedules a packet arrival, routing it through the outbox when its
    /// processing shard (the owner of its next link, or of its destination
    /// endpoint once past the last hop) is not this instance. In the
    /// default single-instance mode this is a plain schedule.
    fn schedule_arrive(&mut self, at: SimTime, pkt: Packet) {
        if let Some(sc) = &self.shard {
            let owner = match self.paths.get(pkt.path.0 as usize) {
                Some(path) if pkt.hop < path.links.len() => {
                    sc.shard_of_link[path.links[pkt.hop].0 as usize]
                }
                _ => sc.shard_of_ep[pkt.dst.0 as usize],
            };
            if owner != sc.me {
                self.outbox.push((owner, at, pkt));
                return;
            }
        }
        self.events.schedule(at, self.packets.park(pkt));
    }

    /// Re-offers a mid-path packet to its next link (no endpoint involved).
    fn reforward(&mut self, pkt: Packet) {
        let path = &self.paths[pkt.path.0 as usize];
        let link_id = path.links[pkt.hop];
        let link = &mut self.links[link_id.0 as usize];
        let rng = &mut self.link_rngs[link_id.0 as usize];
        let bytes = pkt.size;
        let admission = link.admit(pkt, self.now, rng);
        trace_admission(&self.tracer, self.now, link_id, bytes, link, &admission);
        check_admission(&self.tracer, self.now, link_id, link, &admission);
        if let Admission::StartTx(done) = admission {
            self.events.schedule(done, Event::TxComplete(link_id));
        }
    }

    fn with_endpoint<F>(&mut self, id: EndpointId, f: F)
    where
        F: FnOnce(&mut Box<dyn Endpoint>, &mut Ctx<'_>),
    {
        let idx = id.0 as usize;
        let Some(mut ep) = self.endpoints[idx].take() else {
            // Reserved-but-empty slot: the endpoint is owned by another
            // shard, or a churn driver already retired the connection and
            // this is a stray in-flight packet or stale timer. Drop it.
            self.stale_events += 1;
            return;
        };
        {
            let mut ctx = Ctx {
                now: self.now,
                self_id: id,
                events: &mut self.events,
                packets: &mut self.packets,
                links: &mut self.links,
                link_rngs: &mut self.link_rngs,
                paths: &self.paths,
                rng: &mut self.ep_rngs[idx],
                next_packet_id: &mut self.next_packet_ids[idx],
                shard: self.shard.as_ref(),
                outbox: &mut self.outbox,
                tracer: &self.tracer,
            };
            f(&mut ep, &mut ctx);
        }
        self.endpoints[idx] = Some(ep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{AckHeader, DataHeader, SackBlocks, MSS_PAYLOAD, MSS_WIRE};
    use std::any::Any;

    /// Sends `count` packets at start, records ACK arrival times.
    struct TestSender {
        path: PathId,
        peer: EndpointId,
        count: u64,
        acks: Vec<SimTime>,
        timer_fired: bool,
    }

    impl Endpoint for TestSender {
        fn start(&mut self, ctx: &mut dyn HostCtx) {
            for seq in 0..self.count {
                ctx.send(
                    self.path,
                    self.peer,
                    MSS_WIRE,
                    Header::Data(DataHeader {
                        subflow: 0,
                        seq,
                        dsn: seq * MSS_PAYLOAD,
                        payload_len: MSS_PAYLOAD,
                        sent_at: ctx.now(),
                        is_retransmission: false,
                    }),
                );
            }
            ctx.set_timer(SimTime::from_millis(500), 7);
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn HostCtx) {
            assert!(pkt.ack().is_some());
            self.acks.push(ctx.now());
        }
        fn on_timer(&mut self, token: u64, _ctx: &mut dyn HostCtx) {
            assert_eq!(token, 7);
            self.timer_fired = true;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Echoes every data packet with an ACK over the reverse delay.
    struct TestReceiver {
        received: u64,
    }

    impl Endpoint for TestReceiver {
        fn start(&mut self, _ctx: &mut dyn HostCtx) {}
        fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn HostCtx) {
            let data = *pkt.data().expect("receiver gets data");
            self.received += 1;
            ctx.send_reverse(
                pkt.path,
                pkt.src,
                crate::packet::ACK_SIZE,
                Header::Ack(AckHeader {
                    subflow: data.subflow,
                    cum_ack: data.seq + 1,
                    sack: SackBlocks::EMPTY,
                    ack_seq: data.seq,
                    echo_sent_at: data.sent_at,
                    data_acked: data.dsn + data.payload_len,
                    rcv_window: u64::MAX,
                }),
            );
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut dyn HostCtx) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn packets_traverse_link_and_acks_return() {
        let mut sim = Simulation::new(1);
        let link = sim.add_link(LinkParams::paper_default());
        let path = sim.add_path(vec![link], None);
        // Sender must be endpoint 0 (receiver addresses ACKs to it).
        let sender = sim.add_endpoint(Box::new(TestSender {
            path,
            peer: EndpointId(1),
            count: 10,
            acks: vec![],
            timer_fired: false,
        }));
        let receiver = sim.add_endpoint(Box::new(TestReceiver { received: 0 }));
        sim.run_until(SimTime::from_secs(1));

        assert_eq!(sim.endpoint::<TestReceiver>(receiver).received, 10);
        let s = sim.endpoint::<TestSender>(sender);
        assert_eq!(s.acks.len(), 10);
        assert!(s.timer_fired);
        // First ACK: 120us serialization + 30ms + 30ms reverse.
        let expected = SimTime::ZERO + SimDuration::from_micros(120) + SimDuration::from_millis(60);
        assert_eq!(s.acks[0], expected);
        // Packets are serialized back to back: ACK spacing = 120us.
        assert_eq!(
            s.acks[1].saturating_since(s.acks[0]),
            SimDuration::from_micros(120)
        );
        assert_eq!(sim.link_stats(link).delivered_packets, 10);
    }

    #[test]
    fn two_hop_path_accumulates_delay() {
        let mut sim = Simulation::new(2);
        let l1 = sim.add_link(LinkParams::paper_default());
        let l2 = sim.add_link(LinkParams::paper_default().with_delay(SimDuration::from_millis(10)));
        let path = sim.add_path(vec![l1, l2], None);
        let sender = sim.add_endpoint(Box::new(TestSender {
            path,
            peer: EndpointId(1),
            count: 1,
            acks: vec![],
            timer_fired: false,
        }));
        sim.add_endpoint(Box::new(TestReceiver { received: 0 }));
        sim.run_until(SimTime::from_secs(1));
        let s = sim.endpoint::<TestSender>(sender);
        // 120us + 30ms + 120us + 10ms forward, 40ms reverse.
        let expected = SimTime::ZERO + SimDuration::from_micros(240) + SimDuration::from_millis(80);
        assert_eq!(s.acks[0], expected);
    }

    #[test]
    fn scheduled_link_change_takes_effect() {
        let mut sim = Simulation::new(3);
        let link = sim.add_link(LinkParams::paper_default());
        sim.schedule_link_change(
            SimTime::from_millis(10),
            link,
            LinkParams::paper_default().with_capacity(Rate::from_mbps(1.0)),
        );
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.link(link).params().capacity, Rate::from_mbps(1.0));
    }

    use mpcc_simcore::Rate;

    /// A sender + receiver over one link; the receiver is endpoint 1.
    fn one_link_pair(params: LinkParams, count: u64) -> (Simulation, EndpointId, EndpointId) {
        let mut sim = Simulation::new(5);
        let link = sim.add_link(params);
        let path = sim.add_path(vec![link], None);
        let sender = sim.add_endpoint(Box::new(TestSender {
            path,
            peer: EndpointId(1),
            count,
            acks: vec![],
            timer_fired: false,
        }));
        let receiver = sim.add_endpoint(Box::new(TestReceiver { received: 0 }));
        (sim, sender, receiver)
    }

    #[test]
    fn packet_slots_are_reused_after_delivery() {
        let (mut sim, sender, receiver) = one_link_pair(LinkParams::paper_default(), 3);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.endpoint::<TestReceiver>(receiver).received, 3);
        assert_eq!(sim.endpoint::<TestSender>(sender).acks.len(), 3);
        // Six arrivals (3 data, 3 ACKs) through three slots: each ACK is
        // parked in the slot its data packet vacated.
        assert_eq!(sim.packets.packets.len(), 3);
        assert_eq!(sim.packets.free.len(), 3);
    }

    #[test]
    fn arrival_at_empty_endpoint_slot_frees_its_packet_slot() {
        let mut sim = Simulation::new(6);
        let ghost = sim.reserve_endpoint();
        let pkt = |id| Packet {
            id,
            src: ghost,
            dst: ghost,
            path: PathId(u32::MAX),
            hop: 0,
            size: crate::packet::ACK_SIZE,
            header: Header::Ack(AckHeader {
                subflow: 0,
                cum_ack: 0,
                sack: SackBlocks::EMPTY,
                ack_seq: 0,
                echo_sent_at: SimTime::ZERO,
                data_acked: 0,
                rcv_window: u64::MAX,
            }),
        };
        sim.inject(SimTime::from_millis(1), pkt(1));
        sim.run_until(SimTime::from_millis(2));
        assert_eq!(sim.stale_events(), 1);
        assert_eq!(sim.packets.free, vec![0]);
        sim.inject(SimTime::from_millis(3), pkt(2));
        sim.run_until(SimTime::from_millis(4));
        assert_eq!(sim.stale_events(), 2);
        assert_eq!(
            sim.packets.packets.len(),
            1,
            "the stale drop's slot is reused"
        );
    }

    #[test]
    fn duplicate_fault_twins_take_two_slots_and_both_deliver() {
        let dup = crate::fault::FaultPlan::NONE.with_duplicate(1.0, SimDuration::ZERO);
        let params = LinkParams::paper_default().with_faults(dup);
        let (mut sim, sender, receiver) = one_link_pair(params, 1);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.endpoint::<TestReceiver>(receiver).received, 2);
        assert_eq!(sim.endpoint::<TestSender>(sender).acks.len(), 2);
        // The twins arrive at the same instant, so both are parked at once.
        assert_eq!(sim.packets.packets.len(), 2);
        assert_eq!(sim.packets.free.len(), 2);
    }

    #[test]
    #[should_panic(expected = "below the sharded lookahead")]
    fn sharded_link_change_below_lookahead_panics() {
        let mut sim = Simulation::new(7);
        let link = sim.add_link(LinkParams::paper_default());
        sim.add_path(vec![link], None);
        sim.configure_shard(0, vec![0], vec![]);
        sim.schedule_link_change(
            SimTime::from_millis(10),
            link,
            LinkParams::paper_default().with_delay(SimDuration::from_millis(1)),
        );
        sim.run_until(SimTime::from_millis(20));
    }

    #[test]
    fn clock_reaches_run_until_target_even_when_idle() {
        let mut sim = Simulation::new(4);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }
}
