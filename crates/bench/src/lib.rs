//! # mpcc-bench
//!
//! Shared helpers for the Criterion benchmark suites:
//!
//! * `benches/simulator.rs` — event-loop and data-structure throughput;
//! * `benches/controllers.rs` — per-event cost of every congestion
//!   controller and of the MPCC decision machinery;
//! * `benches/figures.rs` — miniature (few-simulated-seconds) versions of
//!   the paper's headline scenarios, so regressions in end-to-end cost
//!   show up;
//! * `benches/ablations.rs` — cost of the theory oracles (LMMF, fluid
//!   convergence) the figure harness calls.

use mpcc_netsim::link::LinkParams;
use mpcc_netsim::topology::uniform_parallel_links;
use mpcc_simcore::{ProfileReport, SimDuration, SimTime};
use mpcc_transport::{MpReceiver, MpSender, MultipathCc, SenderConfig};

/// What one [`run_bulk_sim`] call did, for per-event throughput reporting.
#[derive(Clone, Copy, Debug)]
pub struct BulkRun {
    /// Connection-level bytes acknowledged by the end of the run.
    pub delivered_bytes: u64,
    /// Events the simulation executed, queue pops plus inline link
    /// completions ([`Simulation::total_events`]) — the simulator's unit
    /// of work, so wall time divided by this is the cost per event.
    ///
    /// [`Simulation::total_events`]: mpcc_netsim::Simulation::total_events
    pub events: u64,
    /// Events popped off the event queue; the self-profiler attributes
    /// each to exactly one category.
    pub popped: u64,
    /// High-water mark of the future-event list.
    pub peak_queue_len: usize,
    /// Self-profiler snapshot (wall-clock attribution is all zeros unless
    /// built with `--features profiler`; the wheel counters are always on).
    pub profile: ProfileReport,
}

/// Runs one bulk connection (controller `cc`) over `n_links` paper-default
/// links for `sim_secs` simulated seconds. Benchmarks wrap this to measure
/// wall time per simulated second and per event.
pub fn run_bulk_sim(
    cc: Box<dyn MultipathCc>,
    scheduler: mpcc_transport::SchedulerKind,
    n_links: usize,
    sim_secs: u64,
    seed: u64,
) -> BulkRun {
    let mut net = uniform_parallel_links(seed, n_links, LinkParams::paper_default());
    let paths: Vec<_> = (0..n_links).map(|i| net.path(i)).collect();
    let mut sim = net.sim;
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg = SenderConfig::bulk(recv, paths).with_scheduler(scheduler);
    let sender = sim.add_endpoint(Box::new(MpSender::new(cfg, cc)));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(sim_secs));
    BulkRun {
        delivered_bytes: sim.endpoint::<MpSender>(sender).data_acked(),
        events: sim.total_events(),
        popped: sim.events_processed(),
        peak_queue_len: sim.peak_queue_len(),
        profile: sim.profile(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcc_cc::reno;
    use mpcc_transport::SchedulerKind;

    #[test]
    fn helper_moves_data() {
        let run = run_bulk_sim(Box::new(reno()), SchedulerKind::Default, 1, 3, 9);
        assert!(run.delivered_bytes > 1_000_000, "{run:?}");
        assert!(run.events > 10_000, "{run:?}");
        assert!(run.peak_queue_len > 0, "{run:?}");
        // The wheel introspection counters are always on; RTO/MI timers
        // land in coarse slots, so a multi-second run must cascade.
        assert!(run.profile.cascades > 0, "{run:?}");
        if !mpcc_simcore::Profiler::ENABLED {
            assert_eq!(run.profile.total_count(), 0, "off build must not count");
        } else {
            assert_eq!(run.profile.total_count(), run.popped, "{run:?}");
        }
    }
}
