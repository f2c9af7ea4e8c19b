//! `pollux-resilience` — the crash-safe execution spine of the Pollux
//! reproduction.
//!
//! The paper's subject is how a large-scale dynamic system survives
//! adversarial perturbation; this crate is the analogue for our own
//! evaluation machinery. Long-running sweeps (multi-hour campaign
//! matrices, planet-scale DES ladders) must survive the faults that
//! real runs actually hit — a panicking cell, a solver that refuses to
//! converge, a run that outgrows memory, a process killed halfway
//! through — without losing completed work or perturbing a single
//! output byte. Four pillars:
//!
//! * **Panic isolation** ([`panic_guard`]) — a unit of work runs under
//!   `catch_unwind`; a panic becomes a structured [`FailureKind::Panic`]
//!   instead of poisoning shared state and cascading.
//! * **Deterministic bounded retry** ([`retry`]) — transient failures
//!   re-run the unit from its original seed. Evaluation is a pure
//!   function of `(config, seed)`, so a successful retry is
//!   *byte-identical* to a first-attempt success; retries can change
//!   whether output exists, never what it contains.
//! * **Crash-safe checkpoint/resume** ([`journal`]) — an append-only
//!   JSONL journal of completed units (key + FNV-64 content hash +
//!   payload). Each line commits one unit; a crash mid-append leaves at
//!   most one partial tail line, which replay discards. Any other
//!   corruption fails loudly, naming the file and line.
//! * **Memory-budget pre-flight** ([`memory`]) — predicted footprints
//!   are admitted against an explicit budget *before* allocation, so a
//!   run degrades (shedding DES shards, which never changes output
//!   bytes) or refuses with a structured error instead of OOM-dying.
//!
//! The [`fault`] module is the proof obligation: an injection plan
//! (worker panics at chosen cells/attempts, a simulated kill between
//! units) that the test suite and CI drive through every recovery path
//! to show each one actually fires.
//!
//! The crate is std-only and knows nothing about sweeps or solvers; the
//! `pollux-sweep` runner and the harness binaries wire it through the
//! execution machinery.

mod error;
pub mod fault;
pub mod journal;
pub mod json;
pub mod memory;
pub mod panic_guard;
pub mod retry;

pub use error::{CellFailure, FailureKind};
pub use fault::FaultPlan;
pub use journal::{
    atomic_write, fnv1a64, Journal, JournalEntry, JournalError, JournalHeader, JournalReplay,
};
pub use memory::MemoryBudget;
pub use panic_guard::catch_panic;
pub use retry::{run_with_retry, RetryPolicy};
