//! Timing wrappers around the public layer traits.
//!
//! Each wrapper owns the real object, forwards every trait method to it
//! unchanged, and records a [`span`] around the call. The controller's
//! read-only getters (`cwnd_bytes`, `pacing_rate`, `rate_estimate`) run
//! about ten times per sender call and cost a few nanoseconds, less than
//! the clock reads of a span: they are counted, not timed. Downcasts
//! (`Endpoint::as_any`) are forwarded too, so harness code that inspects
//! `MpSender`/`MpReceiver` statistics works on a wrapped endpoint exactly
//! as on a bare one. Traced workloads install these; untraced workloads
//! run the bare objects.

use crate::span::{count, span, Kind};
use mpcc_simcore::{Rate, SimDuration, SimRng, SimTime};
use mpcc_telemetry::{Record, TraceSink, Tracer};
use mpcc_transport::{AckInfo, Endpoint, HostCtx, LossInfo, MiReport, MultipathCc, Packet};
use std::any::Any;
use std::sync::Arc;

/// Times every call into a congestion controller.
pub struct TimedCc(pub Box<dyn MultipathCc>);

impl MultipathCc for TimedCc {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn init_subflow(&mut self, subflow: usize, now: SimTime) {
        span(Kind::Controller, || self.0.init_subflow(subflow, now))
    }
    fn set_tracer(&mut self, tracer: Tracer, conn: u64) {
        self.0.set_tracer(tracer, conn)
    }
    fn uses_mi(&self) -> bool {
        self.0.uses_mi()
    }
    fn is_rate_based(&self) -> bool {
        self.0.is_rate_based()
    }
    fn begin_mi(&mut self, subflow: usize, now: SimTime) -> Rate {
        span(Kind::Controller, || self.0.begin_mi(subflow, now))
    }
    fn mi_duration(&mut self, subflow: usize, srtt: SimDuration, rng: &mut SimRng) -> SimDuration {
        span(Kind::Controller, || self.0.mi_duration(subflow, srtt, rng))
    }
    fn on_mi_complete(&mut self, report: &MiReport) {
        span(Kind::Controller, || self.0.on_mi_complete(report))
    }
    fn on_ack(&mut self, info: &AckInfo) {
        span(Kind::Controller, || self.0.on_ack(info))
    }
    fn on_loss(&mut self, info: &LossInfo) {
        span(Kind::Controller, || self.0.on_loss(info))
    }
    fn on_rto(&mut self, subflow: usize, now: SimTime) {
        span(Kind::Controller, || self.0.on_rto(subflow, now))
    }
    fn reset_for_reuse(&mut self) -> bool {
        self.0.reset_for_reuse()
    }
    fn cwnd_bytes(&self, subflow: usize, srtt: SimDuration) -> u64 {
        count(Kind::Controller);
        self.0.cwnd_bytes(subflow, srtt)
    }
    fn pacing_rate(&self, subflow: usize) -> Option<Rate> {
        count(Kind::Controller);
        self.0.pacing_rate(subflow)
    }
    fn rate_estimate(&self, subflow: usize, srtt: SimDuration) -> Rate {
        count(Kind::Controller);
        self.0.rate_estimate(subflow, srtt)
    }
}

/// Times every call into a transport endpoint, as `kind`
/// ([`Kind::Sender`] or [`Kind::Receiver`]).
pub struct TimedEndpoint {
    kind: Kind,
    inner: Box<dyn Endpoint>,
}

impl TimedEndpoint {
    /// Wraps `inner`; its calls are recorded as `kind` spans.
    pub fn new(kind: Kind, inner: Box<dyn Endpoint>) -> Self {
        TimedEndpoint { kind, inner }
    }
}

impl Endpoint for TimedEndpoint {
    fn start(&mut self, ctx: &mut dyn HostCtx) {
        span(self.kind, || self.inner.start(ctx))
    }
    fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn HostCtx) {
        span(self.kind, || self.inner.on_packet(pkt, ctx))
    }
    fn on_timer(&mut self, token: u64, ctx: &mut dyn HostCtx) {
        span(self.kind, || self.inner.on_timer(token, ctx))
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// `ep` wrapped in a [`TimedEndpoint`] of `kind` when `traced`, else
/// `ep` itself.
pub fn endpoint(traced: bool, kind: Kind, ep: Box<dyn Endpoint>) -> Box<dyn Endpoint> {
    if traced {
        Box::new(TimedEndpoint::new(kind, ep))
    } else {
        ep
    }
}

/// Times every record handed to a telemetry sink.
pub struct TimedSink(pub Arc<dyn TraceSink>);

impl TraceSink for TimedSink {
    fn record(&self, rec: &Record) {
        span(Kind::Sink, || self.0.record(rec))
    }
    fn flush(&self) {
        self.0.flush()
    }
}
