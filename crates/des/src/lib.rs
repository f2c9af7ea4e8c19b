//! Simulation primitives shared by the Pollux reproduction's Monte-Carlo
//! paths:
//!
//! * [`SimTime`] — simulation clock values with a total order.
//! * [`churn`] — the paper's balanced join/leave coin.
//! * [`stats`] — Welford accumulators and summaries with
//!   normal-approximation confidence intervals.
//! * [`replication`] — counter-based stream seeding and seeded,
//!   embarrassingly parallel Monte-Carlo replication over OS threads.
//!
//! There is no event loop here. The whole-overlay DES,
//! `pollux::des_overlay` (10⁵–10⁷ nodes), seeds every cluster's own
//! stream with [`replication::replication_seed`] and, the clusters being
//! independent, plays each cluster's Poisson arrivals to their end,
//! 1024-cluster block by block, with no future-event list; the
//! single-cluster simulator `pollux::simulation` replicates with
//! [`replication::run_parallel`].
//!
//! # Example
//!
//! ```
//! use pollux_des::churn::{ChurnKind, EventMix};
//! use pollux_des::replication::run_parallel;
//! use pollux_des::stats::Welford;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Each replication counts the joins among 1 000 balanced coin flips
//! // drawn from its own seeded stream.
//! let joins = |_: usize, seed: u64| {
//!     let mut rng = StdRng::seed_from_u64(seed);
//!     let mix = EventMix::balanced();
//!     (0..1_000).filter(|_| mix.sample(&mut rng) == ChurnKind::Join).count() as f64
//! };
//! let counts = run_parallel(8, 2011, 1, joins);
//! // Results come back in replication order at any thread count.
//! assert_eq!(counts, run_parallel(8, 2011, 4, joins));
//!
//! let mut w = Welford::new();
//! for &c in &counts {
//!     w.push(c);
//! }
//! assert!((w.mean() - 500.0).abs() < 50.0);
//! ```

pub mod churn;
pub mod replication;
pub mod stats;
mod time;

pub use time::SimTime;
