//! The real-socket driver: non-blocking UDP under a monotonic clock.
//!
//! [`UdpPeer`] drives one transport [`Endpoint`] the same way
//! `mpcc_netsim::Simulation` does — it owns the endpoint, hands it a
//! [`HostCtx`] per callback, and fires its timers — except that packets
//! travel over real UDP sockets (one socket per path) and "now" comes
//! from a [`MonotonicClock`] anchored at driver construction.
//!
//! The loop is work-batching: each turn reads the clock once, fires every
//! due timer, then drains every socket until it would block; it only
//! sleeps when a full turn found nothing to do, and never longer than the
//! next timer deadline (capped at 500 µs so a newly arrived datagram is
//! picked up promptly). The sleep overshoots, so timers fire late; the
//! loop leaves that alone, and the transport's pacer absorbs it by
//! scheduling each send from the deadline it armed, not from the wake
//! time. Send-side `WouldBlock` and malformed inbound datagrams are
//! counted and dropped — to the transport they are indistinguishable from
//! network loss, which is exactly what a real network would do.

use crate::codec::{self, DecodeError};
use mpcc_simcore::{Clock, EventQueue, MonotonicClock, SimDuration, SimRng, SimTime};
use mpcc_telemetry::Tracer;
use mpcc_transport::wire::{EndpointId, Header, Packet, PathId, MSS_WIRE};
use mpcc_transport::{Endpoint, HostCtx};
use std::net::{SocketAddr, UdpSocket};

/// One path of a [`UdpPeer`]: a bound (and usually connected) socket plus
/// the a-priori RTT hint the transport seeds its estimator with.
pub struct UdpPath {
    /// The socket carrying this path's datagrams (both directions).
    pub socket: UdpSocket,
    /// Where this path's datagrams go. `None` until learned from the
    /// first inbound datagram (listener side).
    pub peer: Option<SocketAddr>,
    /// A-priori RTT estimate handed to the transport at setup
    /// ([`HostCtx::path_base_rtt`]).
    pub base_rtt_hint: SimDuration,
}

impl UdpPath {
    /// A path over `socket` sending to `peer`, with a base-RTT hint.
    pub fn to(socket: UdpSocket, peer: SocketAddr, base_rtt_hint: SimDuration) -> Self {
        UdpPath {
            socket,
            peer: Some(peer),
            base_rtt_hint,
        }
    }

    /// A listening path: the peer address is learned from the first
    /// datagram that arrives on `socket`.
    pub fn listening(socket: UdpSocket, base_rtt_hint: SimDuration) -> Self {
        UdpPath {
            socket,
            peer: None,
            base_rtt_hint,
        }
    }
}

/// Counters the loop accumulates; see [`UdpPeer::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct HostStats {
    /// Datagrams handed to the kernel.
    pub sent_datagrams: u64,
    /// Datagrams received and decoded.
    pub received_datagrams: u64,
    /// Sends dropped (kernel buffer full or transient send error).
    pub send_drops: u64,
    /// Inbound datagrams that failed to decode.
    pub decode_errors: u64,
    /// Timer callbacks dispatched.
    pub timers_fired: u64,
    /// Turns that found no work and slept.
    pub idle_sleeps: u64,
}

/// The driver-state half of [`UdpPeer`]; this is what the endpoint sees
/// as its [`HostCtx`]. Split from the endpoint itself so dispatch can
/// borrow both halves at once.
struct HostState {
    now: SimTime,
    clock: MonotonicClock,
    self_id: EndpointId,
    rng: SimRng,
    tracer: Tracer,
    timers: EventQueue<u64>,
    paths: Vec<UdpPath>,
    next_packet_id: u64,
    encode_buf: Vec<u8>,
    stats: HostStats,
}

impl HostState {
    fn transmit(&mut self, path: PathId, dst: EndpointId, size: u64, header: Header) {
        let Some(p) = self.paths.get_mut(path.0 as usize) else {
            debug_assert!(false, "send on unknown {path:?}");
            self.stats.send_drops += 1;
            return;
        };
        let Some(peer) = p.peer else {
            // Listener side before the first inbound datagram: nowhere to
            // send yet. Counted as a drop; the transport retransmits.
            self.stats.send_drops += 1;
            return;
        };
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let pkt = Packet {
            id,
            src: self.self_id,
            dst,
            path,
            hop: usize::MAX,
            size,
            header,
        };
        codec::encode(&pkt, &mut self.encode_buf);
        match p.socket.send_to(&self.encode_buf, peer) {
            Ok(_) => self.stats.sent_datagrams += 1,
            Err(_) => self.stats.send_drops += 1,
        }
    }
}

impl HostCtx for HostState {
    fn now(&self) -> SimTime {
        self.now
    }

    fn self_id(&self) -> EndpointId {
        self.self_id
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn send(&mut self, path: PathId, dst: EndpointId, size: u64, header: Header) {
        self.transmit(path, dst, size, header);
    }

    /// On a socket driver the "reverse direction" is the same socket the
    /// data arrived on: UDP sockets are bidirectional.
    fn send_reverse(&mut self, path: PathId, dst: EndpointId, size: u64, header: Header) {
        self.transmit(path, dst, size, header);
    }

    fn set_timer(&mut self, at: SimTime, token: u64) {
        // The transport arms timers relative to the frozen callback `now`,
        // which can trail the queue's last-fired deadline by the time the
        // callback itself took; clamp rather than panic.
        self.timers.schedule(at.max(self.timers.now()), token);
    }

    fn path_base_rtt(&self, path: PathId) -> SimDuration {
        self.paths[path.0 as usize].base_rtt_hint
    }
}

/// Longest idle sleep: short enough that a datagram arriving mid-sleep
/// adds at most ~0.5 ms of latency, long enough not to spin.
const MAX_IDLE_SLEEP: SimDuration = SimDuration::from_micros(500);
/// Datagrams drained per socket per turn before timers get another look.
const RECV_BATCH: usize = 64;

/// A real-socket host driving one transport endpoint.
pub struct UdpPeer {
    state: HostState,
    endpoint: Box<dyn Endpoint>,
    started: bool,
    recv_buf: Box<[u8]>,
}

impl UdpPeer {
    /// Creates a host for `endpoint` speaking over `paths`.
    ///
    /// Sockets are switched to non-blocking mode here. `rng` is the
    /// endpoint's private stream — pass `mpcc_netsim::endpoint_rng(seed,
    /// self_id)` to make controller decisions comparable with a simulated
    /// run of the same endpoint.
    pub fn new(
        self_id: EndpointId,
        rng: SimRng,
        tracer: Tracer,
        paths: Vec<UdpPath>,
        endpoint: Box<dyn Endpoint>,
    ) -> std::io::Result<Self> {
        assert!(!paths.is_empty(), "a UDP host needs at least one path");
        for p in &paths {
            p.socket.set_nonblocking(true)?;
        }
        Ok(UdpPeer {
            state: HostState {
                now: SimTime::ZERO,
                clock: MonotonicClock::new(),
                self_id,
                rng,
                tracer,
                timers: EventQueue::new(),
                paths,
                next_packet_id: 0,
                encode_buf: Vec::with_capacity(codec::max_encoded_len(MSS_WIRE)),
                stats: HostStats::default(),
            },
            endpoint,
            started: false,
            recv_buf: vec![0u8; 65_536].into_boxed_slice(),
        })
    }

    /// Loop counters.
    pub fn stats(&self) -> HostStats {
        self.state.stats
    }

    /// The driver clock's current reading (nanoseconds since construction).
    pub fn now(&mut self) -> SimTime {
        self.state.clock.now()
    }

    /// Downcasts the endpoint for inspection.
    ///
    /// # Panics
    /// Panics on a concrete-type mismatch.
    pub fn endpoint<T: 'static>(&self) -> &T {
        self.endpoint
            .as_any()
            .downcast_ref::<T>()
            .expect("endpoint type mismatch")
    }

    /// Drives the endpoint until `done` returns `true` (checked once per
    /// turn) or the driver clock passes `deadline`. Returns `true` if
    /// `done` fired, `false` on deadline.
    pub fn run(&mut self, deadline: SimTime, mut done: impl FnMut(&dyn Endpoint) -> bool) -> bool {
        loop {
            let now = self.state.clock.now();
            self.state.now = now;
            if !self.started {
                self.started = true;
                self.endpoint.start(&mut self.state);
                continue;
            }
            let mut worked = false;
            // Fire every due timer at this turn's frozen `now`.
            while self.state.timers.peek_time().is_some_and(|t| t <= now) {
                let (_, token) = self.state.timers.pop().expect("peeked");
                self.state.stats.timers_fired += 1;
                self.endpoint.on_timer(token, &mut self.state);
                worked = true;
            }
            // Drain each socket (bounded per turn so timers stay timely).
            for i in 0..self.state.paths.len() {
                for _ in 0..RECV_BATCH {
                    let r = self.state.paths[i].socket.recv_from(&mut self.recv_buf);
                    let (len, from) = match r {
                        Ok(ok) => ok,
                        Err(_) => break, // WouldBlock or transient error
                    };
                    if self.state.paths[i].peer.is_none() {
                        self.state.paths[i].peer = Some(from);
                    }
                    match codec::decode(&self.recv_buf[..len]) {
                        Ok(mut pkt) => {
                            // The wire carries the sender's path numbering;
                            // locally the packet arrived on path `i`.
                            pkt.path = PathId(i as u32);
                            self.state.stats.received_datagrams += 1;
                            self.endpoint.on_packet(pkt, &mut self.state);
                            worked = true;
                        }
                        Err(DecodeError::Truncated { .. })
                        | Err(DecodeError::BadMagic)
                        | Err(DecodeError::BadVersion(_))
                        | Err(DecodeError::BadKind(_))
                        | Err(DecodeError::BadSackCount(_)) => {
                            self.state.stats.decode_errors += 1;
                        }
                    }
                }
            }
            if done(self.endpoint.as_ref()) {
                return true;
            }
            if now >= deadline {
                return false;
            }
            if !worked {
                // Nothing due, nothing readable: sleep until the next
                // timer (capped) instead of spinning.
                let until_timer = self
                    .state
                    .timers
                    .peek_time()
                    .map(|t| t.saturating_since(now))
                    .unwrap_or(MAX_IDLE_SLEEP);
                let nap = until_timer.min(MAX_IDLE_SLEEP);
                if !nap.is_zero() {
                    self.state.stats.idle_sleeps += 1;
                    std::thread::sleep(std::time::Duration::from_nanos(nap.as_nanos()));
                }
            }
        }
    }
}
