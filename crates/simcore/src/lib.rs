//! # mpcc-simcore
//!
//! The deterministic discrete-event engine underneath the MPCC reproduction:
//! integer-nanosecond simulation time ([`SimTime`]/[`SimDuration`]), data-rate
//! units ([`Rate`]), a stable-ordered future-event queue ([`EventQueue`]), and
//! seeded, forkable randomness ([`SimRng`]).
//!
//! Nothing in this crate knows about networks; it only guarantees that a
//! simulation driven from these primitives is bit-reproducible given its
//! seed, which the experiment harness relies on.

#![warn(missing_docs)]

pub mod clock;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod time;
pub mod units;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use queue::{EventQueue, WheelStats};
pub use rng::SimRng;
pub use shard::{DispatchStamp, SpinBarrier};
pub use time::{SimDuration, SimTime};
pub use units::{bdp_bytes, bytes, Rate};
