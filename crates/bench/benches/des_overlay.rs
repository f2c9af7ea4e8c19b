//! Perf trajectory of the whole-overlay DES hot loop, serialized to
//! `BENCH_des.json` at the repository root — the simulation-side
//! counterpart of `BENCH_markov.json`.
//!
//! Drives `pollux::des_overlay` over the shared `des_at_scale` ladder
//! (`pollux_bench::des_ladder`: 2¹⁴ = 16k, 2¹⁷ = 131k and 2²⁰ ≈ 1M
//! clusters — ≈1.6·10⁵ to ≈10⁷ nodes — the absorption workload: every
//! cluster runs to absorption under a non-binding per-cluster budget,
//! no regeneration) and records events/second:
//!
//! * **single shard** — the raw hot-loop number (one worker running
//!   its four cluster blocks one after another), compared in the
//!   headline against the recorded pre-PR baseline (`BinaryHeap`
//!   future-event list, one global RNG, per-event exponential draws);
//! * **sharded** — one shard per available core, per-shard and
//!   aggregate rates, so a multi-core run produces the worker-pool
//!   scaling number the ROADMAP asked for (the JSON records the
//!   `available_parallelism` count).
//!
//! Both runs of a rung must produce byte-identical reports (asserted
//! here, on top of the test suite), and every rung's analytic memory
//! audit must come in under 25.0 bytes per node (asserted — the memory
//! ceiling).
//!
//! Each rung also records a `memory` block: the exact analytic byte
//! audit from `pollux::des_overlay::des_memory_audit` (bitset flags,
//! SoA hot records, event queue, accumulators → **bytes per node**,
//! identical across platforms) plus the kernel's `VmHWM` peak RSS. Peak
//! RSS is monotonic over the process, so it reflects the largest rung
//! run *so far*; per-rung structure sizes come from the audit.
//!
//! Environment switches:
//!
//! * `POLLUX_BENCH_QUICK=1` — CI smoke: 16k clusters only, two samples
//!   (still every assertion).
//!
//! Timings are min-of-N (N = 3): the ladder is deterministic, so the
//! fastest run is the least-perturbed one.

use pollux_adversary::TargetedStrategy;
use pollux_bench::des_ladder::{
    ladder_config, ladder_params, rung_memory, time_sharded, time_single, LADDER_BITS,
};
use pollux_obs::mem::MemoryAudit;

/// Single-shard events/s of the 16k-cluster ladder point measured on the
/// pre-PR engine (`BinaryHeap` queue, one global `StdRng`, unbatched
/// exponential draws; `examples/des_at_scale` on the PR-4 tree, same
/// workload, best of 5). The headline below reports the current engine
/// relative to this.
const PRE_PR_EVENTS_PER_S_16K: f64 = 3.4e6;

struct LadderPoint {
    bits: u32,
    clusters: usize,
    nodes: u64,
    events: u64,
    single_s: f64,
    single_rate: f64,
    shards: usize,
    sharded_s: f64,
    sharded_rate: f64,
    per_shard_rates: Vec<f64>,
    audit: MemoryAudit,
    peak_rss_bytes: Option<u64>,
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let quick = std::env::var_os("POLLUX_BENCH_QUICK").is_some();
    let ladder: Vec<u32> = if quick {
        vec![14]
    } else {
        LADDER_BITS.to_vec()
    };
    let samples = if quick { 2 } else { 3 };
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let params = ladder_params();
    let strategy = TargetedStrategy::new(params.k(), params.nu()).unwrap();

    let mut points = Vec::new();
    for &bits in &ladder {
        let config = ladder_config(bits);
        let (report, single_s) = time_single(&params, &strategy, &config, samples);
        let sharded_cfg = config.clone().with_shards(cpus);
        let (sharded, stats, sharded_s) = time_sharded(&params, &strategy, &sharded_cfg, samples);
        assert_eq!(report, sharded, "sharding must never change the bytes");

        let (audit, peak) = rung_memory(&params, &config);
        assert!(
            audit.bytes_per_node() < 25.0,
            "audit at 2^{bits} is {:.3} B/node — over the 25.0 ceiling",
            audit.bytes_per_node()
        );
        let point = LadderPoint {
            bits,
            clusters: report.n_clusters,
            nodes: report.initial_nodes,
            events: report.events,
            single_s,
            single_rate: report.events as f64 / single_s,
            shards: stats.shards(),
            sharded_s,
            sharded_rate: sharded.events as f64 / sharded_s,
            per_shard_rates: stats.shard_events_per_sec(),
            audit,
            // Read *after* the rung's runs so it covers them; monotonic.
            peak_rss_bytes: peak,
        };
        let per_shard: Vec<String> = point
            .per_shard_rates
            .iter()
            .map(|r| format!("{:.2}M", r / 1e6))
            .collect();
        println!(
            "2^{} = {} clusters ({} nodes): 1 shard {:.1}M events/s ({:.3} s); \
             {} shards {:.1}M events/s aggregate ({:.3} s), per shard [{}]",
            point.bits,
            point.clusters,
            point.nodes,
            point.single_rate / 1e6,
            point.single_s,
            point.shards,
            point.sharded_rate / 1e6,
            point.sharded_s,
            per_shard.join(", "),
        );
        println!(
            "    memory: {:.2} B/node (audited), peak RSS {}",
            point.audit.bytes_per_node(),
            point.peak_rss_bytes.map_or("n/a".to_string(), |b| format!(
                "{:.1} MiB",
                b as f64 / (1024.0 * 1024.0)
            )),
        );
        points.push(point);
    }

    let p16 = points
        .iter()
        .find(|p| p.bits == 14)
        .expect("16k point is on every ladder");
    let speedup = p16.single_rate / PRE_PR_EVENTS_PER_S_16K;
    println!(
        "\nheadline @ 16k clusters: {:.1}M events/s single shard — \
         {speedup:.2}x the pre-PR hot loop ({:.1}M events/s)",
        p16.single_rate / 1e6,
        PRE_PR_EVENTS_PER_S_16K / 1e6,
    );

    // Serialize the trajectory. Timings are measurements (not part of any
    // determinism contract); structural fields are exact.
    let mut rows = Vec::new();
    for p in &points {
        let per_shard: Vec<String> = p.per_shard_rates.iter().map(|&r| json_f64(r)).collect();
        let peak = p
            .peak_rss_bytes
            .map_or("null".to_string(), |b| b.to_string());
        rows.push(format!(
            "    {{\"cluster_bits\": {}, \"clusters\": {}, \"nodes\": {}, \"events\": {}, \
             \"single_shard_s\": {}, \"single_shard_events_per_s\": {}, \"shards\": {}, \
             \"sharded_s\": {}, \"sharded_events_per_s\": {}, \
             \"per_shard_events_per_s\": [{}], \
             \"memory\": {{\"bytes_per_node\": {}, \"peak_rss_bytes\": {}, \"audit\": {}}}}}",
            p.bits,
            p.clusters,
            p.nodes,
            p.events,
            json_f64(p.single_s),
            json_f64(p.single_rate),
            p.shards,
            json_f64(p.sharded_s),
            json_f64(p.sharded_rate),
            per_shard.join(", "),
            json_f64(p.audit.bytes_per_node()),
            peak,
            p.audit.to_json(),
        ));
    }
    let json = format!(
        "{{\n  \"suite\": \"des_overlay\",\n  \"mode\": \"{}\",\n  \
         \"model\": \"C=7, Delta=7, k=1, mu=0.25, d=0.9, initial=delta, lambda=1, \
         run-to-absorption (non-binding 3000-event budgets), no regeneration\",\n  \"cpus\": {},\n  \
         \"baseline_pre_pr\": {{\"events_per_s_16k\": {}, \"engine\": \
         \"BinaryHeap queue, global StdRng, unbatched draws (PR 4 tree, best of 5)\"}},\n  \
         \"headline\": {{\"single_shard_events_per_s_16k\": {}, \
         \"speedup_vs_pre_pr\": {}}},\n  \"ladder\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "default" },
        cpus,
        json_f64(PRE_PR_EVENTS_PER_S_16K),
        json_f64(p16.single_rate),
        json_f64(speedup),
        rows.join(",\n"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_des.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
