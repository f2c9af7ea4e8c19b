//! The whole overlay as a discrete-event simulation, at production scale.
//!
//! Runs `pollux::des_overlay` at 10⁵ and ~1.3·10⁶ nodes and prints the
//! measured sojourn/absorption statistics next to the Markov chain's
//! predictions — the cross-validation loop behind the `des_validate`
//! sweep scenarios — plus wall-clock throughput (events per second),
//! single-shard and sharded: per-shard and aggregate rates, so a
//! multi-core run finally yields a worker-pool scaling number, and a
//! per-rung memory block (the analytic byte audit next to peak RSS).
//! The ladder workload itself lives in `pollux_bench::des_ladder`,
//! shared with the `des_overlay` bench, so this example and
//! `BENCH_des.json` always measure the same thing.
//!
//! ```text
//! cargo run --release --example des_at_scale
//! ```
//!
//! The shard count defaults to the machine's available parallelism;
//! override it with `POLLUX_DES_SHARDS=N`.
//!
//! `POLLUX_DES_TRACE=path.jsonl` additionally exports the tail of the
//! DES event trace (the last 65 536 events per shard, merged in time
//! order) as JSON Lines — one `{"cluster":…,"kind":…,"time":…,"x":…,
//! "y":…}` record per line. The trace only populates in builds with the
//! `metrics` cargo feature; recording it never changes the report bytes
//! (the run is re-executed through the observed entry point and checked
//! against the plain one).

use std::time::Instant;

use pollux::des_overlay::run_des_overlay_duel_observed;
use pollux::{ClusterAnalysis, InitialCondition};
use pollux_adversary::TargetedStrategy;
use pollux_bench::des_ladder::{
    format_memory_line, ladder_config, ladder_params, rung_memory, time_sharded, time_single,
    LADDER_SEED,
};
use pollux_defense::NullDefense;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = ladder_params();
    let strategy = TargetedStrategy::new(params.k(), params.nu()).unwrap();
    let analysis = ClusterAnalysis::new(&params, InitialCondition::Delta)?;
    let e_ts = analysis.expected_safe_events()?;
    let e_tp = analysis.expected_polluted_events()?;
    let amp = analysis.absorption_split()?.polluted_merge;

    let shards = std::env::var("POLLUX_DES_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1);

    println!("model: {params}");
    println!("markov: E(T_S) = {e_ts:.4}  E(T_P) = {e_tp:.4}  p(AmP) = {amp:.4}\n");

    for bits in [14u32, 17] {
        // The shared ladder workload: a generous per-cluster budget
        // (E(T) ≈ 13 events, and unused budget costs nothing without
        // regeneration) keeps the censoring probability of the sojourn
        // tail negligible.
        let config = ladder_config(bits);
        let (r, secs) = time_single(&params, &strategy, &config, 1);
        println!(
            "n = {} clusters ({} nodes at t=0, peak {}):",
            r.n_clusters, r.initial_nodes, r.peak_nodes
        );
        println!(
            "  des:    T_S = {}  T_P = {}  p(AmP) = {:.4}  censored = {}",
            r.safe_events, r.polluted_events, r.absorption.2, r.censored
        );
        println!(
            "  1 shard:   {} events in {:.2} s — {:.1}M events/s, end time {:.1}",
            r.events,
            secs,
            r.events as f64 / secs / 1e6,
            r.end_time
        );

        // The same run sharded: byte-identical report, scaled wall clock.
        let sharded_config = config.clone().with_shards(shards);
        let (sharded, stats, sharded_secs) = time_sharded(&params, &strategy, &sharded_config, 1);
        assert_eq!(r, sharded, "sharding must never change the bytes");
        let per_shard: Vec<String> = stats
            .shard_events_per_sec()
            .iter()
            .map(|rate| format!("{:.2}M", rate / 1e6))
            .collect();
        println!(
            "  {} shards:  {:.2} s aggregate — {:.1}M events/s ({:.2}x), per shard [{}] events/s",
            stats.shards(),
            sharded_secs,
            sharded.events as f64 / sharded_secs / 1e6,
            secs / sharded_secs,
            per_shard.join(", "),
        );
        let (audit, peak) = rung_memory(&params, &config);
        assert!(
            audit.bytes_per_node() < 25.0,
            "memory audit over the 25.0 B/node ceiling"
        );
        println!("  {}\n", format_memory_line(&audit, peak));

        // Optional trace export for the first (16k) rung only — the tail
        // of a 10⁶-node run is just as representative and much smaller.
        if bits == 14 {
            if let Ok(path) = std::env::var("POLLUX_DES_TRACE") {
                let start = Instant::now();
                let (traced, _, obs) = run_des_overlay_duel_observed(
                    &params,
                    &InitialCondition::Delta,
                    &strategy,
                    &NullDefense::new(),
                    &config,
                    LADDER_SEED,
                    65_536,
                );
                let traced_secs = start.elapsed().as_secs_f64();
                assert_eq!(r, traced, "tracing must never change the bytes");
                if pollux_obs::METRICS_ENABLED {
                    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
                    obs.write_trace_jsonl(&mut f)?;
                    println!(
                        "  trace: wrote {} records to {path} ({traced_secs:.2} s)\n",
                        obs.trace.len()
                    );
                } else {
                    eprintln!("  trace: {path} skipped — rebuild with --features metrics\n");
                }
            }
        }
    }
    Ok(())
}
