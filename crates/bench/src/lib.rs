//! The reproduction harness: the `reproduce_all` front-end (see
//! `src/bin/reproduce_all.rs`), which regenerates every artefact of the
//! DSN'11 paper and every beyond-paper grid as a named `pollux-sweep`
//! scenario, and the perf-trajectory benches under `benches/`.
//!
//! The library half holds what the benches share with the repository's
//! examples: the [`des_ladder`] scaling workload.

pub mod des_ladder;
