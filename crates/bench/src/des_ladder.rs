//! The `des_at_scale` scaling ladder, shared between the `des_overlay`
//! bench (which serializes `BENCH_des.json`) and the repository's
//! `examples/des_at_scale`, so the recorded perf trajectory and the
//! example always measure the same workload the same way.
//!
//! The workload is the absorption ladder: `2^bits` clusters at `λ = 1`
//! with a non-binding 3 000-events-per-cluster budget (`E(T) ≈ 13`
//! events, so every cluster absorbs and unused budget costs nothing
//! without regeneration), under the paper's targeted adversary at
//! `μ = 0.25`, `d = 0.9`, seeded with [`LADDER_SEED`]. The per-rung
//! event counts are deterministic and part of the recorded trajectory —
//! any engine change that moves them is an RNG-stream break, not a perf
//! delta.

use std::time::Instant;

use pollux::des_overlay::{
    des_memory_audit, run_des_overlay, run_des_overlay_duel_with_stats, DesOverlayConfig,
    DesOverlayReport, DesShardStats,
};
use pollux::{InitialCondition, ModelParams};
use pollux_adversary::Strategy;
use pollux_defense::NullDefense;
use pollux_obs::mem::MemoryAudit;

/// The ladder's historical seed; rung event counts are recorded
/// trajectory facts under it (209 399 events at 2¹⁴, 13 454 853 at 2²⁰).
pub const LADDER_SEED: u64 = 2011;

/// Default rungs: 2¹⁴ = 16k, 2¹⁷ = 131k and 2²⁰ ≈ 1M clusters —
/// ≈1.6·10⁵ to ≈10⁷ nodes at `C = Δ = 7`.
pub const LADDER_BITS: [u32; 3] = [14, 17, 20];

/// The ladder's model point: paper defaults at `μ = 0.25`, `d = 0.9`.
#[must_use]
pub fn ladder_params() -> ModelParams {
    ModelParams::paper_defaults().with_mu(0.25).with_d(0.9)
}

/// The ladder workload at one rung (one shard; callers add shards).
#[must_use]
pub fn ladder_config(bits: u32) -> DesOverlayConfig {
    DesOverlayConfig::new(bits, 1.0, 3_000 << bits)
}

/// Best-of-`samples` single-shard run. The ladder is deterministic, so
/// the fastest sample is the least-perturbed one; the report is
/// byte-identical across samples by construction.
pub fn time_single<S: Strategy + Sync>(
    params: &ModelParams,
    strategy: &S,
    config: &DesOverlayConfig,
    samples: usize,
) -> (DesOverlayReport, f64) {
    let mut best: Option<(DesOverlayReport, f64)> = None;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        let r = run_des_overlay(
            params,
            &InitialCondition::Delta,
            strategy,
            config,
            LADDER_SEED,
        );
        let secs = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, b)| secs < *b) {
            best = Some((r, secs));
        }
    }
    best.expect("at least one sample")
}

/// Best-of-`samples` sharded run (fastest aggregate wall clock wins),
/// returning the per-shard stats of the winning sample.
pub fn time_sharded<S: Strategy + Sync>(
    params: &ModelParams,
    strategy: &S,
    config: &DesOverlayConfig,
    samples: usize,
) -> (DesOverlayReport, DesShardStats, f64) {
    let mut best: Option<(DesOverlayReport, DesShardStats, f64)> = None;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        let (r, stats) = run_des_overlay_duel_with_stats(
            params,
            &InitialCondition::Delta,
            strategy,
            &NullDefense::new(),
            config,
            LADDER_SEED,
        );
        let secs = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, _, b)| secs < *b) {
            best = Some((r, stats, secs));
        }
    }
    best.expect("at least one sample")
}

/// One rung's memory block: the exact analytic audit for this config
/// plus the kernel's peak RSS (monotonic over the process, so it
/// reflects the largest rung run so far).
#[must_use]
pub fn rung_memory(params: &ModelParams, config: &DesOverlayConfig) -> (MemoryAudit, Option<u64>) {
    (
        des_memory_audit(params, config),
        pollux_obs::mem::peak_rss_bytes(),
    )
}

/// Human-readable one-liner for a rung's memory block.
#[must_use]
pub fn format_memory_line(audit: &MemoryAudit, peak_rss_bytes: Option<u64>) -> String {
    format!(
        "memory: {:.2} B/node audited ({} nodes, {:.1} MiB total), peak RSS {}",
        audit.bytes_per_node(),
        audit.nodes(),
        audit.total_bytes() as f64 / (1024.0 * 1024.0),
        peak_rss_bytes.map_or("n/a".to_string(), |b| format!(
            "{:.1} MiB",
            b as f64 / (1024.0 * 1024.0)
        )),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_adversary::TargetedStrategy;

    /// A small rung runs byte-identically on one worker and on two —
    /// the trajectory's anchor fact.
    #[test]
    fn bits_ten_rung_is_deterministic_across_shard_counts() {
        let params = ladder_params();
        let strategy = TargetedStrategy::new(params.k(), params.nu()).unwrap();
        let config = ladder_config(10);
        let (single, _) = time_single(&params, &strategy, &config, 1);
        let (sharded, stats, _) =
            time_sharded(&params, &strategy, &config.clone().with_shards(2), 1);
        assert_eq!(single, sharded);
        assert_eq!(stats.shards(), 2);
        let (audit, _) = rung_memory(&params, &config);
        assert!(audit.bytes_per_node() < 25.0);
        assert!(format_memory_line(&audit, Some(1 << 20)).contains("B/node"));
    }
}
