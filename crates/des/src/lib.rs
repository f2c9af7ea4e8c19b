//! A small deterministic discrete-event simulation engine.
//!
//! The Monte-Carlo side of the Pollux reproduction runs event-level
//! simulations of clusters and overlays; this crate provides the generic
//! machinery:
//!
//! * [`SimTime`] — simulation clock values with a total order.
//! * [`EventQueue`] — the future-event list: an index-based 4-ary
//!   min-heap with deterministic FIFO tie-breaking at equal timestamps.
//! * [`Simulation`] — the main loop driving a user [`EventHandler`].
//! * [`churn`] — Poisson arrival processes for churn generation.
//! * [`stats`] — Welford accumulators and summaries with
//!   normal-approximation confidence intervals.
//! * [`replication`] — seeded, embarrassingly parallel Monte-Carlo
//!   replication over OS threads.
//!
//! The engine is deliberately model-agnostic. The whole-overlay DES,
//! `pollux::des_overlay` (10⁵–10⁷ nodes), uses this crate's clock,
//! statistics, churn mix and replication seeding but not its queue: its
//! clusters are independent, so it plays each cluster's own Poisson
//! arrival stream to its end, 1024-cluster block by block, instead of
//! interleaving the streams through an [`EventQueue`].
//!
//! # Example
//!
//! ```
//! use pollux_des::{EventHandler, Scheduler, SimTime, Simulation};
//!
//! struct Counter(u32);
//! impl EventHandler for Counter {
//!     type Event = ();
//!     fn handle(&mut self, t: SimTime, _ev: (), sched: &mut Scheduler<()>) {
//!         self.0 += 1;
//!         if self.0 < 5 {
//!             sched.schedule(t + 1.0, ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter(0));
//! sim.schedule(SimTime::ZERO, ());
//! sim.run();
//! assert_eq!(sim.handler().0, 5);
//! assert_eq!(sim.now(), SimTime::from(4.0));
//! ```

mod backend;
pub mod churn;
mod engine;
mod queue;
pub mod replication;
pub mod stats;
mod time;

pub use backend::QueueBackend;
pub use engine::{EventHandler, Scheduler, Simulation};
pub use queue::EventQueue;
pub use time::SimTime;
