//! Whole-overlay discrete-event simulation at production scale.
//!
//! [`crate::simulation`] replays one cluster per replication and
//! [`crate::overlay_sim`] steps `n` abstract chain states round-robin;
//! this module runs the **actual overlay** — every node of every cluster —
//! as a continuous-time discrete-event simulation at 10⁵–10⁶ nodes, on
//! [`pollux_des`]'s clock, churn coin, stream seeding and Welford
//! statistics:
//!
//! * every cluster owns an independent Poisson arrival stream whose
//!   arrivals flip the paper's balanced join/leave coin
//!   ([`pollux_des::churn::EventMix`]); the superposition of `n`
//!   equal-rate streams delivers events to uniformly random clusters,
//!   exactly the competing-chains semantics of Section VIII;
//! * nodes are concrete: each cluster's core/spare membership slots
//!   carry one malicious flag per node, packed into u64 bitsets (one
//!   *bit* per membership — the only node attribute the dynamics ever
//!   read back). Joins draw fresh 256-bit [`pollux_overlay::NodeId`]s
//!   inside the cluster's prefix region ([`pollux_overlay::Label`]) and
//!   validate the prefix routing invariant (the identifiers are
//!   *write-only* for the dynamics, so nothing retains them),
//!   departures clear slots, and the `protocol_k` maintenance procedure
//!   moves real nodes between the core and spare sets (the
//!   hypergeometric kernel `τ(x, a, b)` of the analytical chain emerges
//!   from the uniform draws rather than being sampled directly);
//! * the adversary is pluggable: any [`pollux_adversary::Strategy`]
//!   drives Rule 1, Rule 2 and the maintenance bias, gated by the
//!   [`crate::AdversaryToggles`] carried in [`ModelParams`];
//! * the defense is pluggable too: [`run_des_overlay_duel`] consults a
//!   [`pollux_defense::Defense`] inside the event loop — induced-churn
//!   preemptions, join-admission shaping (including the cluster-size
//!   taper) and incarnation-refresh evictions — turning a one-sided
//!   attack run into an adversary-vs-defense duel. A
//!   [`pollux_defense::NullDefense`] consumes no randomness, so its runs
//!   are bit-identical to plain [`run_des_overlay`] calls;
//! * **regeneration mode** ([`DesOverlayConfig::regenerate`]) re-seeds an
//!   absorbed cluster from the initial condition on its next arrival
//!   (mirroring `overlay_sim`'s flag: the arrival that performs the
//!   re-seed is the renewal–reward "+1" event), so the overlay runs
//!   forever and the share of events landing on polluted clusters
//!   estimates the long-run polluted fraction that
//!   [`crate::ClusterAnalysis::steady_state_fractions`] predicts in
//!   closed form; live safe/polluted cluster fractions are additionally
//!   sampled on the fixed time grid of
//!   [`DesOverlayConfig::sample_times`].
//!
//! # The RNG-stream determinism contract
//!
//! Every cluster owns its **own counter-seeded random stream**: cluster
//! `c` of a run seeded with `seed` draws exclusively from a
//! [`rand::rngs::StdRng`] seeded with the SplitMix64 derivation
//! [`pollux_des::replication::replication_seed`]`(seed, c)` — the same
//! scheme the sweep pool uses per grid cell. The stream drives, in a
//! fixed cluster-local order, the cluster's initial-state draw, its node
//! identifiers, its Poisson inter-arrival gaps and every churn outcome.
//! Clusters are probabilistically independent in the model, so giving
//! each one a private stream changes no distribution — but it makes every
//! cluster's entire sample path a function of `(seed, c)` **alone**,
//! independent of how cluster events interleave in wall-clock or
//! simulated time. Event interleaving, shard assignment and shard count
//! therefore cannot affect results: a run is *shard-invariant by
//! construction*, and the engine exploits exactly that.
//!
//! # The block plan
//!
//! Every run, at every [`DesOverlayConfig::shards`] value, executes one
//! deterministic partition. The `n` clusters are cut into
//! `nblocks = max(⌈n / 1024⌉, shards)` even contiguous **blocks** of
//! (at most) 1024 clusters — block `b` covers
//! `[b·n/nblocks, (b+1)·n/nblocks)`, and `shards` is clamped to `n` —
//! and worker `w` of the `shards` workers (`std::thread::scope`, as in
//! the `pollux-sweep` pool) runs blocks `w, w + shards, w + 2·shards, …`
//! one after another. A block is **cluster-major**: it plays its
//! clusters one at a time, each from its first arrival to the end of its
//! stream (budget spent, or absorbed without regeneration), on a local
//! clock. No event reads another cluster's state and every cross-cluster
//! report field is an integer sum, a maximum or an ordered merge, so
//! interleaving the clusters by time would carry no information; no
//! future-event list is kept.
//!
//! Each worker sends its finished blocks' outcomes, in order, over a
//! channel of its own to the calling thread, which folds them **in block
//! order** (= cluster order) — block `b` is the next message on worker
//! `b mod shards`'s channel. The channels are bounded: a worker 32
//! blocks ahead of the fold waits, so at most 32 outcomes (about 72 KiB
//! each) per worker are held at once. The fold combines
//! integer tallies by summation, sojourn and lifetime moments by ordered
//! Welford merges, occupancy-grid counts by summation. The fold is the
//! same left-to-right reduction over the clusters at every shard count,
//! so `shards = 1` and `shards = 64` produce byte-identical
//! [`DesOverlayReport`]s (test-enforced, like the sweep pool's
//! thread-count invariance), and a block's per-cluster accumulators live
//! only until it is folded.
//!
//! Blocks are assigned statically rather than claimed off a shared
//! cursor: a cursor measured no faster, and it made the per-worker
//! [`DesShardStats`] depend on thread timing. A worker drops one block's
//! flags and hot columns before it builds the next, so whatever the
//! overlay size its live state is one 1024-cluster block: about 130 KiB
//! of hot columns and flags at `C = Δ = 7`, plus 72 KiB of accumulators
//! that the fold frees.
//!
//! The event budget is likewise defined shard-invariantly:
//! [`DesOverlayConfig::max_events`] is distributed over the clusters as
//! fixed per-cluster budgets (`⌈max_events / n⌉` for the first
//! `max_events mod n` clusters, `⌊max_events / n⌋` for the rest), so
//! which events a run processes never depends on a global, order-coupled
//! cutoff. In regeneration mode every budget is consumed exactly, so a
//! run processes exactly `max_events` events; without regeneration a
//! cluster also stops at absorption, and a cluster still transient when
//! its budget runs out is censored with its partial counts, as in
//! [`crate::simulation::estimate`].
//!
//! The hot event loop is allocation-free and touches one cluster at a
//! time: its arrival time is a local running sum of gaps, per-cluster
//! hot state lives in structure-of-arrays columns grouped by access
//! phase — one 64-byte *draw line* per cluster (the RNG state plus the
//! batch of exponential gaps drawn through
//! [`pollux_prob::exponential::fill`]) and one 64-byte *bookkeeping
//! line* (six-byte counter pack, cycle tallies, budget, warm-up, sample
//! cursor) — membership flags are packed bitsets, and the maintenance
//! draw uses two reusable scratch buffers. A cluster's lines stay in
//! cache for the length of its stream instead of being fetched anew for
//! every event. A 10⁶-node overlay processes 10⁶ events in well under a
//! second per worker.
//!
//! Per-cluster sojourn counts (`T_S`, `T_P` in events) and the absorption
//! split are accumulated with Welford statistics, so one run yields `n`
//! independent samples of the quantities the cluster-level Markov chain
//! predicts analytically (Relations 5–6 and 9) — the cross-validation
//! consumed by `pollux-sweep`'s `DesValidation` scenarios far beyond the
//! state-space sizes the matrix can enumerate.
//!
//! # Example
//!
//! ```
//! use pollux::des_overlay::{run_des_overlay, DesOverlayConfig};
//! use pollux::{ClusterAnalysis, InitialCondition, ModelParams};
//! use pollux_adversary::TargetedStrategy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = ModelParams::paper_defaults().with_mu(0.2).with_d(0.8);
//! let strategy = TargetedStrategy::new(params.k(), params.nu()).unwrap();
//! // 2^8 = 256 clusters ≈ 2 500 nodes.
//! let config = DesOverlayConfig::new(8, 1.0, 200_000);
//! let report = run_des_overlay(&params, &InitialCondition::Delta, &strategy, &config, 42);
//! assert_eq!(report.n_clusters, 256);
//! assert!(report.initial_nodes >= 2_500);
//!
//! // Sharding never changes the bytes, only the wall clock.
//! let sharded = config.clone().with_shards(4);
//! let report4 = run_des_overlay(&params, &InitialCondition::Delta, &strategy, &sharded, 42);
//! assert_eq!(report, report4);
//!
//! // The measured mean sojourn agrees with the Markov prediction.
//! let analysis = ClusterAnalysis::new(&params, InitialCondition::Delta)?;
//! let predicted = analysis.expected_safe_events()?;
//! let measured = report.safe_events;
//! assert!((measured.mean - predicted).abs() < 5.0 * measured.ci_half_width);
//! # Ok(())
//! # }
//! ```

use pollux_adversary::{ClusterView, JoinDecision, Strategy};
use pollux_defense::{effective_join_admission, effective_survival, Defense, NullDefense};
use pollux_des::churn::{ChurnKind, EventMix};
use pollux_des::replication::replication_seed;
use pollux_des::stats::{Summary, Welford};
use pollux_des::SimTime;
use pollux_obs::mem::MemoryAudit;
use pollux_obs::{
    DesEventKind, MetricsRecorder, NullRecorder, Recorder, Registry, TraceRecord, TraceRing,
};
#[cfg(debug_assertions)]
use pollux_overlay::Label;
use pollux_overlay::NodeId;
use pollux_prob::{exponential, AliasTable};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::sync::mpsc;

use crate::{
    AdversaryToggles, ClusterState, InitialCondition, ModelParams, ModelSpace, StateClass,
};

/// The queue-backend selector, kept for provenance only: a benchmark
/// that records which future-event list a result was measured on still
/// prints [`QueueBackend::resolve`]. This module's runs use no
/// future-event list (see the module docs' block plan), so the value
/// names the 4-ary heap the DES once ran on, not one a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueBackend {
    /// The default; resolves to [`QueueBackend::Heap`].
    #[default]
    Auto,
    /// The 4-ary min-heap the DES once ran on.
    Heap,
}

impl QueueBackend {
    /// The backend a run records: always [`QueueBackend::Heap`].
    #[must_use]
    pub fn resolve(self) -> QueueBackend {
        QueueBackend::Heap
    }
}

/// Configuration of a whole-overlay discrete-event run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesOverlayConfig {
    /// The overlay holds `n = 2^cluster_bits` clusters (a power of two so
    /// cluster labels tile the identifier space evenly). `10` is ~10⁴
    /// nodes, `14` is ~1.6·10⁵, `17` is ~1.3·10⁶ at the paper's sizes.
    pub cluster_bits: u32,
    /// Per-cluster churn rate (events per simulated time unit); the
    /// overlay-wide arrival rate is `n · lambda`.
    pub lambda: f64,
    /// Global cap on churn events, distributed over the clusters as fixed
    /// per-cluster budgets (see the module docs): cluster `c` processes at
    /// most `⌊max_events / n⌋ + (c < max_events mod n)` events before it
    /// is censored (or, in regeneration mode, before its stream ends). In
    /// regeneration mode a run therefore processes exactly `max_events`
    /// events; without it, at most.
    pub max_events: u64,
    /// When `true`, an absorbed cluster is re-seeded from the initial
    /// condition by its **next arrival** (the event is consumed by the
    /// regeneration, counting toward neither sojourn — the "+1" of the
    /// renewal–reward cycle), so the overlay never drains and long-run
    /// fractions are measurable.
    pub regenerate: bool,
    /// Fixed time grid (sorted, increasing) at which the live
    /// safe/polluted cluster fractions are recorded into
    /// [`DesOverlayReport::occupancy`]. Points beyond the end of the run
    /// (no cluster processed an event at or after them) are dropped.
    pub sample_times: Vec<f64>,
    /// Per-cluster warm-up: each cluster's first `warmup_events` events
    /// are processed normally (they drive the dynamics, sojourns and
    /// occupancy exactly like any other event) but are excluded from the
    /// steady-state event tallies, so the safe-heavy transient of the
    /// fresh-start initial condition cannot bias the long-run fractions.
    /// Steady-state scenarios typically spend half the budget here.
    pub warmup_events: u64,
    /// Worker threads the cluster blocks are assigned to (see the module
    /// docs' block plan). Affects wall-clock time only, never output
    /// bytes; clamped to the cluster count.
    pub shards: usize,
}

impl DesOverlayConfig {
    /// The historical one-shot configuration: no regeneration, no time
    /// grid, a single shard.
    pub fn new(cluster_bits: u32, lambda: f64, max_events: u64) -> Self {
        DesOverlayConfig {
            cluster_bits,
            lambda,
            max_events,
            regenerate: false,
            sample_times: Vec::new(),
            warmup_events: 0,
            shards: 1,
        }
    }

    /// Switches regeneration mode on.
    pub fn with_regeneration(mut self) -> Self {
        self.regenerate = true;
        self
    }

    /// Sets the occupancy sample grid.
    ///
    /// # Panics
    ///
    /// Panics when the grid is not sorted increasing.
    pub fn with_sample_times(mut self, sample_times: Vec<f64>) -> Self {
        assert!(
            sample_times.windows(2).all(|w| w[0] <= w[1]),
            "sample times must be sorted"
        );
        self.sample_times = sample_times;
        self
    }

    /// Sets the per-cluster warm-up (events excluded from the
    /// steady-state tallies).
    pub fn with_warmup_events(mut self, warmup_events: u64) -> Self {
        self.warmup_events = warmup_events;
        self
    }

    /// Sets the worker-shard count (min 1). Thread parallelism over
    /// contiguous cluster blocks; byte-identical output at any value.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// Aggregated results of one whole-overlay run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesOverlayReport {
    /// Number of clusters simulated.
    pub n_clusters: usize,
    /// Nodes alive at `t = 0`: core plus spares over every cluster not
    /// born absorbed.
    pub initial_nodes: u64,
    /// Sum of per-cluster peak concurrent node counts — the arena
    /// capacity the run actually touched (each cluster's peak is reached
    /// at its own time, so this bounds the instantaneous overlay-wide
    /// peak from above).
    pub peak_nodes: u64,
    /// Churn events processed.
    pub events: u64,
    /// Simulation clock at the end of the run (the latest event time over
    /// all clusters).
    pub end_time: f64,
    /// Per-cluster safe sojourn `T_S` (events; censored clusters included
    /// with their partial counts, as in [`crate::simulation::estimate`]).
    pub safe_events: Summary,
    /// Per-cluster polluted sojourn `T_P` (events).
    pub polluted_events: Summary,
    /// Per-cluster lifetime to absorption in simulated time units
    /// (absorbed clusters only).
    pub lifetime: Summary,
    /// Empirical absorption frequencies `(AmS, AℓS, AmP, AℓP)` over the
    /// absorbed clusters.
    pub absorption: (f64, f64, f64, f64),
    /// Raw absorption counts `[AmS, AℓS, AmP, AℓP]` (for exact binomial
    /// confidence intervals on the frequencies).
    pub absorption_counts: [u64; 4],
    /// Completed absorptions. Without regeneration this is the number of
    /// absorbed clusters; with it, the number of completed renewal cycles
    /// over all clusters.
    pub absorbed: u64,
    /// Clusters still transient when their event budget ran out. In
    /// regeneration mode these are mid-cycle clusters (their partial
    /// sojourns are **not** pushed into the per-cycle summaries).
    pub censored: u64,
    /// Events that found their cluster in a safe transient state.
    pub safe_event_total: u64,
    /// Events that found their cluster in a polluted transient state.
    pub polluted_event_total: u64,
    /// Events discarded as per-cluster warm-up (see
    /// [`DesOverlayConfig::warmup_events`]); they are processed normally
    /// but excluded from the steady-state tallies above.
    pub warmup_events: u64,
    /// Completed cycles whose absorption fell **after** their cluster's
    /// warm-up window — the independent-trial count behind the
    /// renewal-adjusted Wilson interval on the steady-state fractions.
    pub measured_cycles: u64,
    /// Events consumed by regenerations (regeneration mode only; the
    /// renewal–reward "+1" per cycle).
    pub regen_events: u64,
    /// `(t, safe fraction, polluted fraction)` of **live** clusters at
    /// each reached point of [`DesOverlayConfig::sample_times`].
    pub occupancy: Vec<(f64, f64, f64)>,
}

impl DesOverlayReport {
    /// Measured long-run `(safe, polluted)` event fractions: the share of
    /// post-warm-up events that found their cluster safe resp. polluted —
    /// the regeneration-mode estimator of
    /// [`crate::ClusterAnalysis::steady_state_fractions`].
    ///
    /// The event-indexed class process regenerates at every absorption,
    /// so it converges geometrically to its long-run law — but from a
    /// fresh δ start the transient is *safe-heavy* and, on slowly-mixing
    /// parameter corners, biases an unwarmed share low by `O(1/budget)`.
    /// Validation scenarios therefore discard each cluster's first
    /// [`DesOverlayConfig::warmup_events`] events (typically half the
    /// budget), after which the residual bias is exponentially small.
    pub fn steady_state_fractions(&self) -> (f64, f64) {
        let total = (self.events - self.warmup_events).max(1) as f64;
        (
            self.safe_event_total as f64 / total,
            self.polluted_event_total as f64 / total,
        )
    }

    /// Mean events per completed renewal cycle (the decorrelation length
    /// of the steady-state estimator).
    pub fn mean_cycle_events(&self) -> f64 {
        self.events as f64 / self.absorbed.max(1) as f64
    }
}

/// Per-worker execution statistics of a run, one entry per shard summed
/// over its blocks. Events are a deterministic function of the inputs
/// (blocks are assigned statically); seconds are wall-clock only, which
/// is why the stats are deliberately **not** part of
/// [`DesOverlayReport`], whose bytes must be identical across shard
/// counts.
#[derive(Debug, Clone, PartialEq)]
pub struct DesShardStats {
    /// Events processed by each shard, in shard order.
    pub shard_events: Vec<u64>,
    /// Wall-clock seconds each shard spent playing its clusters: seeding
    /// each one at the start of its turn, then its event loop.
    pub shard_seconds: Vec<f64>,
}

impl DesShardStats {
    /// Number of shards that ran.
    pub fn shards(&self) -> usize {
        self.shard_events.len()
    }

    /// Per-shard throughput in events per second, in shard order.
    pub fn shard_events_per_sec(&self) -> Vec<f64> {
        self.shard_events
            .iter()
            .zip(&self.shard_seconds)
            .map(|(&e, &s)| if s > 0.0 { e as f64 / s } else { 0.0 })
            .collect()
    }
}

/// Where an absorbed cluster ended up (compact per-cluster status).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum ClusterStatus {
    Transient,
    SafeMerge,
    SafeSplit,
    PollutedMerge,
    PollutedSplit,
}

/// Batched inter-arrival gaps kept per cluster: one
/// [`exponential::fill`] refill covers this many arrivals.
const GAP_BATCH: usize = 4;

/// The per-cluster membership counters and loop-control bytes — the
/// fields *every* event reads — packed into six bytes so ten clusters'
/// worth fit one cache line. One column of the SoA hot-record split: the
/// old 128-byte-aligned AoS record forced every event to pull two cache
/// lines of cluster state even when it only needed the counters; the
/// split lets each phase of the dispatch loop stream just the column it
/// touches (counters here, RNG + gap buffers only on draws, cycle
/// tallies only on class accounting and absorption).
#[derive(Debug, Clone, Copy)]
struct HotCounters {
    /// Spare-set size `s`.
    s: u8,
    /// Malicious core count `x` (cached; ground truth is the flag bits).
    x: u8,
    /// Malicious spare count `y`.
    y: u8,
    /// Largest `s` the cluster ever held (peak-residency accounting).
    peak_s: u8,
    /// Next unconsumed gap-buffer slot (`GAP_BATCH` forces a refill).
    gap_idx: u8,
    status: ClusterStatus,
}

impl Default for HotCounters {
    fn default() -> Self {
        HotCounters {
            s: 0,
            x: 0,
            y: 0,
            peak_s: 0,
            // An empty gap buffer: the first draw forces a refill.
            gap_idx: GAP_BATCH as u8,
            status: ClusterStatus::Transient,
        }
    }
}

/// Per-cycle tallies: touched once per event (one class increment) and
/// read out at absorption. 16 bytes.
#[derive(Debug, Clone, Copy, Default)]
struct CycleTallies {
    /// Birth time of the current cycle (0 for the initial population).
    birth: f64,
    /// Events observed in transient safe states this cycle.
    safe_ev: u32,
    /// Events observed in transient polluted states this cycle.
    poll_ev: u32,
}

/// Per-cluster draw state: the private counter-seeded stream and its
/// batch of pre-drawn exponential gaps. Exactly one cache line (32 + 32
/// bytes, 64-aligned), so the draw side of an event touches one line.
#[derive(Debug)]
#[repr(align(64))]
struct DrawState {
    /// The cluster's private counter-seeded stream.
    rng: StdRng,
    /// Buffered exponential inter-arrival gaps (front to back).
    gaps: [f64; GAP_BATCH],
}

/// Per-cluster accounting, one 64-aligned line per cluster: the
/// membership counters, cycle tallies, event budget, warm-up window and
/// occupancy cursor that a single event's bookkeeping touches. They are
/// always touched together, so they share one line, while the
/// phase-specific columns (draw state, flag bitsets, Welford
/// accumulators) stay split.
#[derive(Debug, Clone, Default)]
#[repr(align(64))]
struct ClusterAcct {
    /// Per-cycle class tallies.
    cycle: CycleTallies,
    /// Remaining event budget.
    budget: u64,
    /// Remaining warm-up events.
    warmup: u64,
    /// Membership counters + loop-control bytes.
    ctr: HotCounters,
    /// Next unrecorded occupancy-grid index.
    next_sample: u32,
}

/// Reads bit `i` of a packed-u64 bitset.
#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 == 1
}

/// Writes bit `i` of a packed-u64 bitset.
#[inline]
fn bit_set(words: &mut [u64], i: usize, v: bool) {
    let mask = 1u64 << (i & 63);
    let w = &mut words[i >> 6];
    if v {
        *w |= mask;
    } else {
        *w &= !mask;
    }
}

/// Number of `u64` words a bitset of `bits` bits needs.
#[inline]
fn bitset_words(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// What one block hands back for merging: integer tallies plus
/// per-cluster moment accumulators in cluster order (so the caller's
/// ordered merge is identical for every partition of the same overlay).
struct BlockOutcome {
    events: u64,
    safe_event_total: u64,
    poll_event_total: u64,
    warmup_total: u64,
    measured_cycles: u64,
    regen_events: u64,
    absorption_counts: [u64; 4],
    censored: u64,
    initial_nodes: u64,
    peak_nodes: u64,
    end_time: f64,
    /// Per-cluster accumulators, local cluster order (= global order for
    /// contiguous blocks).
    safe_w: Vec<Welford>,
    poll_w: Vec<Welford>,
    life_w: Vec<Welford>,
    /// Per-grid-point counts of clusters observed transient-safe /
    /// transient-polluted (exact integers: summable in any order).
    occ_safe: Vec<u64>,
    occ_poll: Vec<u64>,
    /// Wall-clock seconds of the block's per-cluster pass (seeding and
    /// event loops).
    seconds: f64,
}

/// One cluster block: clusters `[lo, lo + count)` of the overlay,
/// structure-of-arrays, played one cluster at a time. Generic over a
/// [`Recorder`] so the observed and unobserved hot loops are separate
/// monomorphizations: with [`NullRecorder`] every recording call inlines
/// to nothing and the loop is the uninstrumented machine code.
///
/// Per-cluster state is split into SoA columns by access pattern (see
/// [`HotCounters`]), and node state is two packed-u64 **malicious-flag
/// bitsets**: a node's only attribute the dynamics ever read is its
/// flag (identifiers are drawn, prefix-checked and discarded — see
/// [`BlockSim::draw_id`]), so the old handle arena + membership tables
/// (9 bytes/node) collapse into one bit per core/spare *slot*
/// (~0.125 bytes/node). Set membership is positional: core slot `r` of
/// local cluster `l` is bit `l·C + r` of `core_mal`, spare slot `j` is
/// bit `l·Δ + j` of `spare_mal`, and only slots below the cached sizes
/// are alive. Every uniform draw over members/slots is unchanged, so
/// per-cluster RNG streams — and therefore all reports — are
/// bit-identical to the arena engine's.
struct BlockSim<'a, S: Strategy, D: Defense + ?Sized, R: Recorder> {
    params: &'a ModelParams,
    strategy: &'a S,
    defense: &'a D,
    mix: EventMix,
    lambda: f64,
    /// First global cluster index of the block.
    lo: usize,
    cluster_bits: u32,
    regenerate: bool,
    /// The initial distribution's sampler and the state table (shared,
    /// read-only).
    table: &'a AliasTable,
    states: &'a [ClusterState],
    sample_times: &'a [f64],
    /// SoA columns, local cluster index, grouped by access phase: the
    /// draw line (RNG + gap batch)…
    draw: Vec<DrawState>,
    /// …and the bookkeeping line (counters, cycle tallies, budget,
    /// warm-up, occupancy cursor).
    acct: Vec<ClusterAcct>,
    /// Malicious flags of the core slots: bit `l * C + r`.
    core_mal: Vec<u64>,
    /// Malicious flags of the spare slots: bit `l * Δ + j` (alive below
    /// `ctr[l].s` only).
    spare_mal: Vec<u64>,
    /// Prefix label of each cluster (depth `cluster_bits`). Read only by
    /// the prefix-routing debug assertions, so release builds skip the
    /// per-cluster allocations entirely.
    #[cfg(debug_assertions)]
    labels: Vec<Label>,
    /// Reusable maintenance scratch: demotion slot indices, then the
    /// candidate pool as 0/1 malicious flags (pool members carry no
    /// other identity).
    pool: Vec<u32>,
    /// Reusable maintenance scratch: core slots awaiting promotion.
    empty_slots: Vec<usize>,
    // Accumulators.
    initial_nodes: u64,
    events: u64,
    safe_event_total: u64,
    poll_event_total: u64,
    warmup_total: u64,
    measured_cycles: u64,
    regen_events: u64,
    absorption_counts: [u64; 4],
    end_time: f64,
    safe_w: Vec<Welford>,
    poll_w: Vec<Welford>,
    life_w: Vec<Welford>,
    occ_safe: Vec<u64>,
    occ_poll: Vec<u64>,
    /// The worker's recorder, lent to this block — consulted only
    /// *after* an event's effects are committed, never drawing
    /// randomness (the inertness contract of `pollux-obs`).
    rec: R,
}

impl<S: Strategy, D: Defense + ?Sized, R: Recorder> BlockSim<'_, S, D, R> {
    fn c_size(&self) -> usize {
        self.params.core_size()
    }

    fn delta(&self) -> usize {
        self.params.max_spare()
    }

    /// The next buffered inter-arrival gap of cluster `l`, refilling the
    /// batch from the cluster's stream when it runs dry.
    fn next_gap(&mut self, l: usize) -> f64 {
        let mut gi = self.acct[l].ctr.gap_idx as usize;
        if gi == GAP_BATCH {
            let d = &mut self.draw[l];
            exponential::fill(&mut d.rng, self.lambda, &mut d.gaps);
            gi = 0;
        }
        let g = self.draw[l].gaps[gi];
        self.acct[l].ctr.gap_idx = gi as u8 + 1;
        g
    }

    /// Draws a fresh 256-bit identifier uniformly inside cluster `l`'s
    /// prefix region: random bits with the first `cluster_bits` bits
    /// forced to the global cluster index (PeerCube routes a joiner to
    /// the unique cluster whose label prefixes its identifier, so
    /// conditioning on "this join reached cluster c" is conditioning on
    /// the prefix). The prefix is blended into the leading four bytes in
    /// one masked word operation (`cluster_bits ≤ 24`), not bit by bit.
    fn draw_id(&mut self, l: usize) -> NodeId {
        let mut bytes = [0u8; 32];
        self.draw[l].rng.fill(&mut bytes);
        if self.cluster_bits > 0 {
            let c = (self.lo + l) as u32;
            let shift = 32 - self.cluster_bits;
            let mask = u32::MAX << shift;
            let head = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let blended = (head & !mask) | (c << shift);
            bytes[..4].copy_from_slice(&blended.to_be_bytes());
        }
        NodeId::from_bytes(bytes)
    }

    /// `true` when none of `count` malicious identifiers expired at this
    /// event (probability `d_eff^count`), as in the analytical chain.
    /// `d_eff` is the defense-shaped survival probability of the current
    /// cluster (exactly `d` under a neutral defense).
    fn survives(&mut self, l: usize, d_eff: f64, count: usize) -> bool {
        if d_eff <= 0.0 {
            return false;
        }
        self.draw[l]
            .rng
            .random_bool(d_eff.powi(count as i32).clamp(0.0, 1.0))
    }

    /// Removes spare slot `j` of cluster `l` (swap-remove; slot selection
    /// is uniform, so the arrangement never biases the dynamics) and
    /// returns the departing member's malicious flag.
    fn take_spare(&mut self, l: usize, j: usize) -> bool {
        let base = l * self.delta();
        let s = self.acct[l].ctr.s as usize;
        debug_assert!(j < s);
        let mal = bit_get(&self.spare_mal, base + j);
        let last = bit_get(&self.spare_mal, base + s - 1);
        bit_set(&mut self.spare_mal, base + j, last);
        mal
    }

    /// Picks a uniformly random malicious (or, with `malicious == false`,
    /// honest) spare of cluster `l`; returns its slot index.
    fn pick_spare_by_kind(&mut self, l: usize, malicious: bool) -> usize {
        let base = l * self.delta();
        let s = self.acct[l].ctr.s as usize;
        let y = self.acct[l].ctr.y as usize;
        let want = if malicious { y } else { s - y };
        debug_assert!(want > 0);
        let target = self.draw[l].rng.random_range(0..want);
        let mut seen = 0usize;
        for j in 0..s {
            if bit_get(&self.spare_mal, base + j) == malicious {
                if seen == target {
                    return j;
                }
                seen += 1;
            }
        }
        unreachable!("cached y count matches the flag bits");
    }

    /// The `protocol_k` maintenance procedure after the core member in
    /// `leaver_slot` departed (its node already released, the cached `x`
    /// already reflecting the departure): demote `k − 1` uniformly chosen
    /// remaining core members into the candidate pool (the `s` spares
    /// plus the demoted), promote `k` uniformly chosen pool members into
    /// the vacant core slots, and keep the remaining `s − 1` candidates
    /// as the new spare set. The cached malicious counts are updated
    /// incrementally from the demoted/promoted members (no full rescan of
    /// the core).
    fn maintenance(&mut self, l: usize, leaver_slot: usize) {
        let c_size = self.c_size();
        let delta = self.delta();
        let k = self.params.k();
        let s = self.acct[l].ctr.s as usize;
        debug_assert!(s >= 1);

        self.pool.clear();
        self.empty_slots.clear();
        self.empty_slots.push(leaver_slot);
        let mut mal_demoted = 0usize;

        // Demote k − 1 of the C − 1 remaining core members: partial
        // Fisher–Yates over the slot indices, skipping the leaver.
        if k > 1 {
            // `pool` temporarily holds candidate *slots* for demotion.
            for slot in 0..c_size {
                if slot != leaver_slot {
                    self.pool.push(slot as u32);
                }
            }
            for i in 0..k - 1 {
                let j = self.draw[l].rng.random_range(i..self.pool.len());
                self.pool.swap(i, j);
            }
            for i in 0..k - 1 {
                self.empty_slots.push(self.pool[i] as usize);
            }
            self.pool.truncate(k - 1);
            // Replace the demoted slots with their members' malicious
            // flags (the only identity a pool member carries), counting
            // the malicious ones on the way through.
            for entry in self.pool.iter_mut() {
                let mal = bit_get(&self.core_mal, l * c_size + *entry as usize);
                mal_demoted += usize::from(mal);
                *entry = u32::from(mal);
            }
        }

        // The candidate pool: every spare plus the demoted members.
        let base = l * delta;
        for j in 0..s {
            self.pool
                .push(u32::from(bit_get(&self.spare_mal, base + j)));
        }
        debug_assert_eq!(self.pool.len(), s + k - 1);

        // Promote k uniformly chosen candidates into the vacant slots.
        for i in 0..k {
            let j = self.draw[l].rng.random_range(i..self.pool.len());
            self.pool.swap(i, j);
        }
        let mut mal_promoted = 0usize;
        for (i, &slot) in self.empty_slots.iter().enumerate() {
            let mal = self.pool[i] == 1;
            mal_promoted += usize::from(mal);
            bit_set(&mut self.core_mal, l * c_size + slot, mal);
        }
        // The rest of the pool is the new spare set (s − 1 members).
        for (j, &flag) in self.pool[k..].iter().enumerate() {
            bit_set(&mut self.spare_mal, base + j, flag == 1);
        }

        // Incremental count update: the pool held every spare (y
        // malicious) plus the demoted (mal_demoted), of which
        // mal_promoted moved into the core.
        let ctr = &mut self.acct[l].ctr;
        let x_new = ctr.x as usize - mal_demoted + mal_promoted;
        let y_new = ctr.y as usize + mal_demoted - mal_promoted;
        ctr.x = x_new as u8;
        ctr.y = y_new as u8;
        debug_assert_eq!(
            x_new,
            (0..c_size)
                .filter(|&r| bit_get(&self.core_mal, l * c_size + r))
                .count()
        );
        debug_assert_eq!(y_new, self.pool[k..].iter().filter(|&&f| f == 1).count());
    }

    /// Plays one churn event on (transient) cluster `l`, mirroring the
    /// probabilities of the analytical chain at node granularity. The
    /// defense hooks gate in exactly the chain builder's three places;
    /// neutral hooks consume no randomness, so a [`NullDefense`] run's
    /// RNG streams are bit-identical to a defense-free run's.
    ///
    /// Returns what happened, for the event-kind tallies and the tracer;
    /// the return value never feeds back into the dynamics.
    fn churn_event(&mut self, l: usize) -> DesEventKind {
        let c_size = self.c_size();
        let delta = self.delta();
        let quorum = self.params.quorum();
        let mu = self.params.mu();
        let toggles = *self.params.toggles();
        let s = self.acct[l].ctr.s as usize;
        let x = self.acct[l].ctr.x as usize;
        let y = self.acct[l].ctr.y as usize;
        let polluted = x > quorum;

        let view =
            ClusterView::new(c_size, delta, s, x, y).expect("simulated clusters stay inside Ω");
        // Induced churn preempts the event with a forced eviction.
        let eta = self.defense.induced_churn(&view);
        if eta > 0.0 && self.draw[l].rng.random_bool(eta.clamp(0.0, 1.0)) {
            self.induced_eviction(l, polluted, toggles);
            return DesEventKind::InducedEviction;
        }
        let d_eff = effective_survival(self.defense, &view, self.params.d());

        let mix = self.mix;
        match mix.sample(&mut self.draw[l].rng) {
            ChurnKind::Join => {
                // Join-rate shaping (plus the cluster-size taper): the
                // defense may drop the join before the cluster sees it.
                let g = effective_join_admission(self.defense, &view);
                if g < 1.0 && !self.draw[l].rng.random_bool(g.clamp(0.0, 1.0)) {
                    return DesEventKind::JoinRejected;
                }
                let malicious = mu > 0.0 && self.draw[l].rng.random_bool(mu);
                let accept = if polluted && toggles.rule2 {
                    self.strategy.join_decision(&view, malicious) == JoinDecision::Accept
                } else {
                    true
                };
                if accept {
                    let id = self.draw_id(l);
                    #[cfg(debug_assertions)]
                    debug_assert!(self.labels[l].is_prefix_of(&id));
                    let _ = id; // drawn and checked, deliberately not stored
                    bit_set(&mut self.spare_mal, l * delta + s, malicious);
                    let ctr = &mut self.acct[l].ctr;
                    ctr.s += 1;
                    ctr.peak_s = ctr.peak_s.max(ctr.s);
                    if malicious {
                        ctr.y += 1;
                    }
                    DesEventKind::Join
                } else {
                    DesEventKind::JoinRejected
                }
            }
            ChurnKind::Leave => {
                // One uniformly selected member of the C + s present.
                let r = self.draw[l].rng.random_range(0..c_size + s);
                if r >= c_size {
                    // A spare was selected (slot r − C is uniform).
                    let j = r - c_size;
                    let malicious = bit_get(&self.spare_mal, l * delta + j);
                    if !malicious {
                        let _ = self.take_spare(l, j);
                        self.acct[l].ctr.s -= 1;
                        DesEventKind::Leave
                    } else if !self.survives(l, d_eff, y) {
                        // Property 1 (or the defense's incarnation
                        // refresh) forces the expired identifier out.
                        let _ = self.take_spare(l, j);
                        let ctr = &mut self.acct[l].ctr;
                        ctr.s -= 1;
                        ctr.y -= 1;
                        DesEventKind::Leave
                    } else {
                        // A valid malicious spare refuses to leave.
                        DesEventKind::SelfLoop
                    }
                } else {
                    self.core_leave(l, r, polluted, toggles, d_eff)
                }
            }
        }
    }

    /// Handles a leave event that selected core slot `r`, reporting
    /// whether a member actually departed or the event self-looped.
    fn core_leave(
        &mut self,
        l: usize,
        r: usize,
        polluted: bool,
        toggles: AdversaryToggles,
        d_eff: f64,
    ) -> DesEventKind {
        let c_size = self.c_size();
        let delta = self.delta();
        let quorum = self.params.quorum();
        let s = self.acct[l].ctr.s as usize;
        let x = self.acct[l].ctr.x as usize;
        let y = self.acct[l].ctr.y as usize;
        let malicious = bit_get(&self.core_mal, l * c_size + r);

        if !malicious {
            // An honest core member leaves.
            if polluted && toggles.bias {
                // The adversary refills the slot with a malicious spare
                // when it has one (x grows), an honest one otherwise.
                let j = self.pick_spare_by_kind(l, y > 0);
                let promoted = self.take_spare(l, j);
                bit_set(&mut self.core_mal, l * c_size + r, promoted);
                if y > 0 {
                    let ctr = &mut self.acct[l].ctr;
                    ctr.x += 1;
                    ctr.y -= 1;
                }
            } else {
                self.maintenance(l, r);
            }
            self.acct[l].ctr.s -= 1;
            DesEventKind::Leave
        } else if !self.survives(l, d_eff, x) {
            // A malicious core member whose identifier expired is forced
            // out by Property 1.
            let x_rem = x - 1;
            if x_rem > quorum && toggles.bias {
                let j = self.pick_spare_by_kind(l, y > 0);
                let promoted = self.take_spare(l, j);
                bit_set(&mut self.core_mal, l * c_size + r, promoted);
                let ctr = &mut self.acct[l].ctr;
                if y > 0 {
                    ctr.y -= 1; // malicious replacement keeps x
                } else {
                    ctr.x -= 1; // honest replacement
                }
            } else {
                self.acct[l].ctr.x -= 1;
                self.maintenance(l, r);
            }
            self.acct[l].ctr.s -= 1;
            DesEventKind::Leave
        } else if !polluted && toggles.rule1 {
            // A valid malicious core member of a safe cluster may leave
            // voluntarily (Rule 1) to re-roll the maintenance dice.
            let view =
                ClusterView::new(c_size, delta, s, x, y).expect("simulated clusters stay inside Ω");
            if self.strategy.voluntary_core_leave(&view) {
                self.acct[l].ctr.x -= 1;
                self.maintenance(l, r);
                self.acct[l].ctr.s -= 1;
                DesEventKind::Leave
            } else {
                DesEventKind::SelfLoop
            }
        } else {
            // A valid malicious core member otherwise stays: self-loop.
            DesEventKind::SelfLoop
        }
    }

    /// The defense's forced eviction of a uniformly chosen member of
    /// cluster `l` — the DES mirror of the chain builder's induced-churn
    /// kernel. Unlike a voluntary leave, a valid malicious member cannot
    /// refuse (the protocol revokes the membership), so no survival roll
    /// happens; the replacement machinery is the usual one.
    fn induced_eviction(&mut self, l: usize, polluted: bool, toggles: AdversaryToggles) {
        let c_size = self.c_size();
        let quorum = self.params.quorum();
        let s = self.acct[l].ctr.s as usize;
        let x = self.acct[l].ctr.x as usize;
        let y = self.acct[l].ctr.y as usize;

        let r = self.draw[l].rng.random_range(0..c_size + s);
        if r >= c_size {
            // Evicted spare (slot r − C is uniform).
            let j = r - c_size;
            let malicious = self.take_spare(l, j);
            let ctr = &mut self.acct[l].ctr;
            ctr.s -= 1;
            if malicious {
                ctr.y -= 1;
            }
        } else {
            let malicious = bit_get(&self.core_mal, l * c_size + r);
            if malicious {
                // The defense expels a captured seat.
                if x - 1 > quorum && toggles.bias {
                    let j = self.pick_spare_by_kind(l, y > 0);
                    let promoted = self.take_spare(l, j);
                    bit_set(&mut self.core_mal, l * c_size + r, promoted);
                    let ctr = &mut self.acct[l].ctr;
                    if y > 0 {
                        ctr.y -= 1; // malicious replacement keeps x
                    } else {
                        ctr.x -= 1; // honest replacement
                    }
                } else {
                    self.acct[l].ctr.x -= 1;
                    self.maintenance(l, r);
                }
            } else if polluted && toggles.bias {
                // The adversary exploits the vacancy like any other.
                let j = self.pick_spare_by_kind(l, y > 0);
                let promoted = self.take_spare(l, j);
                bit_set(&mut self.core_mal, l * c_size + r, promoted);
                if y > 0 {
                    let ctr = &mut self.acct[l].ctr;
                    ctr.x += 1;
                    ctr.y -= 1;
                }
            } else {
                self.maintenance(l, r);
            }
            self.acct[l].ctr.s -= 1;
        }
    }

    /// Records the absorption of cluster `l` at time `t` (ending the
    /// current renewal cycle in regeneration mode).
    fn absorb(&mut self, l: usize, t: SimTime) {
        let ctr = self.acct[l].ctr;
        let polluted = ctr.x as usize > self.params.quorum();
        let (status, slot) = if ctr.s == 0 {
            if polluted {
                (ClusterStatus::PollutedMerge, 2)
            } else {
                (ClusterStatus::SafeMerge, 0)
            }
        } else if polluted {
            (ClusterStatus::PollutedSplit, 3)
        } else {
            (ClusterStatus::SafeSplit, 1)
        };
        self.absorption_counts[slot] += 1;
        if self.acct[l].warmup == 0 {
            // A cycle completing after the warm-up window: one
            // independent trial of the steady-state measurement.
            self.measured_cycles += 1;
        }
        let cy = self.acct[l].cycle;
        self.safe_w[l].push(f64::from(cy.safe_ev));
        self.poll_w[l].push(f64::from(cy.poll_ev));
        self.life_w[l].push(t.value() - cy.birth);
        // The cluster's chain reached a closed state; the overlay would
        // merge or split it, retiring these memberships. The flag bits
        // need no clearing: slots are dead once the sizes reset, and
        // every re-seed rewrites the bits it uses before reading them.
        self.acct[l].ctr.status = status;
    }

    /// Materializes cluster `l` from a freshly drawn initial state at
    /// time `t` — the initial population (`t = 0`) and every
    /// regeneration go through here. A start state with absorbing mass
    /// (legal for `Custom` initial distributions) absorbs immediately: a
    /// zero-event cycle.
    fn seed_cluster(&mut self, l: usize, t: SimTime) {
        let c_size = self.c_size();
        let delta = self.delta();
        let start = self.states[{
            let table = self.table;
            table.sample(&mut self.draw[l].rng)
        }];
        {
            let ctr = &mut self.acct[l].ctr;
            ctr.s = start.s as u8;
            ctr.x = start.x as u8;
            ctr.y = start.y as u8;
            ctr.peak_s = ctr.peak_s.max(start.s as u8);
            ctr.status = ClusterStatus::Transient;
        }
        self.acct[l].cycle = CycleTallies {
            birth: t.value(),
            safe_ev: 0,
            poll_ev: 0,
        };
        for slot in 0..c_size {
            let malicious = slot < start.x;
            let id = self.draw_id(l);
            #[cfg(debug_assertions)]
            debug_assert!(self.labels[l].is_prefix_of(&id));
            let _ = id;
            bit_set(&mut self.core_mal, l * c_size + slot, malicious);
        }
        for j in 0..start.s {
            let malicious = j < start.y;
            let id = self.draw_id(l);
            #[cfg(debug_assertions)]
            debug_assert!(self.labels[l].is_prefix_of(&id));
            let _ = id;
            bit_set(&mut self.spare_mal, l * delta + j, malicious);
        }
        if !matches!(
            start.classify(self.params),
            StateClass::TransientSafe | StateClass::TransientPolluted
        ) {
            self.absorb(l, t);
        }
    }

    /// Records every sample-grid point of cluster `l` reached strictly
    /// before its event about to be processed at `t` (the recorded class
    /// is the one left by the cluster's previous event); absorbed
    /// clusters contribute to neither count.
    fn sample_to(&mut self, l: usize, t: f64) {
        let mut idx = self.acct[l].next_sample as usize;
        if idx >= self.sample_times.len() || self.sample_times[idx] > t {
            return;
        }
        let ctr = self.acct[l].ctr;
        let transient = ctr.status == ClusterStatus::Transient;
        let polluted = ctr.x as usize > self.params.quorum();
        while idx < self.sample_times.len() && self.sample_times[idx] <= t {
            if transient {
                if polluted {
                    self.occ_poll[idx] += 1;
                } else {
                    self.occ_safe[idx] += 1;
                }
            }
            idx += 1;
        }
        self.acct[l].next_sample = idx as u32;
    }

    /// The block's event loop, cluster-major: seeds each cluster and
    /// plays its own arrival stream from its first arrival to its end
    /// before the next cluster starts. A cluster draws only from its own
    /// stream, in the order seed → first gap → events, and no event reads
    /// another cluster's state, so the order the clusters are played in
    /// changes no report byte.
    fn run(&mut self) {
        let c_size = self.c_size() as u64;
        let delta = self.delta();
        let quorum = self.params.quorum();
        let sampling = !self.sample_times.is_empty();
        for li in 0..self.acct.len() {
            // The cluster's first draw is its start state, materialized
            // as concrete members. It joins the overlay's population at
            // t = 0 with C core members plus its spares, unless it was
            // born absorbed and retired its memberships on the spot.
            self.seed_cluster(li, SimTime::ZERO);
            let ctr = self.acct[li].ctr;
            if ctr.status == ClusterStatus::Transient {
                self.initial_nodes += c_size + u64::from(ctr.s);
            }
            // The cluster's clock: its arrivals are the running sums of
            // its own gaps.
            let mut t = SimTime::ZERO;
            // The stream ends when the budget is spent, or when the
            // cluster absorbs without regeneration (an absorbed chain
            // sits in a closed state forever; its arrivals carry no
            // further information). In regeneration mode a cluster born
            // absorbed still gets arrivals — its first performs the
            // re-seed, upholding the "overlay never drains" contract for
            // Custom initial distributions with absorbing mass.
            while self.acct[li].budget > 0
                && (self.regenerate || self.acct[li].ctr.status == ClusterStatus::Transient)
            {
                t += self.next_gap(li);
                let tv = t.value();
                if sampling {
                    self.sample_to(li, tv);
                }
                self.events += 1;
                self.acct[li].budget -= 1;

                let kind = if self.acct[li].ctr.status != ClusterStatus::Transient {
                    // Only regeneration mode plays absorbed clusters:
                    // this arrival is consumed by the re-seed (the
                    // renewal–reward "+1" event, counted toward neither
                    // sojourn).
                    debug_assert!(self.regenerate);
                    if self.acct[li].warmup > 0 {
                        self.acct[li].warmup -= 1;
                        self.warmup_total += 1;
                    } else {
                        self.regen_events += 1;
                    }
                    self.seed_cluster(li, t);
                    DesEventKind::Regeneration
                } else {
                    // The event counts toward the sojourn of the class it
                    // lands in (the same accounting as the single-cluster
                    // simulator); the steady-state tallies additionally
                    // skip each cluster's warm-up window.
                    {
                        let polluted = self.acct[li].ctr.x as usize > quorum;
                        if polluted {
                            self.acct[li].cycle.poll_ev += 1;
                        } else {
                            self.acct[li].cycle.safe_ev += 1;
                        }
                        if self.acct[li].warmup > 0 {
                            self.acct[li].warmup -= 1;
                            self.warmup_total += 1;
                        } else if polluted {
                            self.poll_event_total += 1;
                        } else {
                            self.safe_event_total += 1;
                        }
                    }
                    let kind = self.churn_event(li);
                    let s = self.acct[li].ctr.s as usize;
                    if s == 0 || s == delta {
                        self.absorb(li, t);
                    }
                    kind
                };

                // Observation — strictly after the event's effects
                // committed (the inertness contract): tally the kind,
                // trace the post-event state, and tally an absorption
                // when this event closed the cluster. With `NullRecorder`
                // every line below compiles away.
                {
                    let c = (self.lo + li) as u32;
                    let ctr = self.acct[li].ctr;
                    let (x, y, absorbed_now) = (
                        u32::from(ctr.x),
                        u32::from(ctr.y),
                        ctr.status != ClusterStatus::Transient,
                    );
                    self.rec.add(kind.counter_key(), 1);
                    self.rec.trace(tv, c, kind, x, y);
                    if absorbed_now {
                        self.rec.add(DesEventKind::Absorption.counter_key(), 1);
                        self.rec.trace(tv, c, DesEventKind::Absorption, x, y);
                    }
                }
            }
            // Arrival times only grow, so the stream's last one is its
            // latest event.
            self.end_time = self.end_time.max(t.value());
        }
    }

    /// Finishes the block: censors still-transient clusters, freezes the
    /// occupancy contribution of clusters whose stream ended before the
    /// grid did, and packages the outcome together with the recorder
    /// (returned separately — observation data never enters the
    /// byte-stable outcome).
    fn into_outcome(mut self, seconds: f64) -> (BlockOutcome, R) {
        let grid_len = self.sample_times.len();
        let quorum = self.params.quorum();
        let mut censored = 0u64;
        let mut peak_nodes = 0u64;
        let c_size = self.c_size() as u64;
        for l in 0..self.acct.len() {
            let ctr = self.acct[l].ctr;
            let transient = ctr.status == ClusterStatus::Transient;
            if transient {
                censored += 1;
                if !self.regenerate {
                    // Partial sojourns of censored clusters enter the
                    // estimates, exactly as in `simulation::estimate`;
                    // regeneration-mode mid-cycle counts do not.
                    self.safe_w[l].push(f64::from(self.acct[l].cycle.safe_ev));
                    self.poll_w[l].push(f64::from(self.acct[l].cycle.poll_ev));
                }
            }
            peak_nodes += c_size + u64::from(ctr.peak_s);
            // A cluster whose stream ended keeps contributing its final
            // class to the rest of the grid (points past the global end
            // of the run are dropped at merge time).
            if (self.acct[l].next_sample as usize) < grid_len {
                if transient {
                    let polluted = ctr.x as usize > quorum;
                    for g in self.acct[l].next_sample as usize..grid_len {
                        if polluted {
                            self.occ_poll[g] += 1;
                        } else {
                            self.occ_safe[g] += 1;
                        }
                    }
                }
                self.acct[l].next_sample = grid_len as u32;
            }
        }
        // Per-block utilization: busy seconds and the block's share of
        // the event total, the spread that shows whether the even blocks
        // carry even work.
        self.rec.span("des.shard.busy_s", seconds);
        self.rec.observe("des.shard.events", self.events);
        let outcome = BlockOutcome {
            events: self.events,
            safe_event_total: self.safe_event_total,
            poll_event_total: self.poll_event_total,
            warmup_total: self.warmup_total,
            measured_cycles: self.measured_cycles,
            regen_events: self.regen_events,
            absorption_counts: self.absorption_counts,
            censored,
            initial_nodes: self.initial_nodes,
            peak_nodes,
            end_time: self.end_time,
            safe_w: self.safe_w,
            poll_w: self.poll_w,
            life_w: self.life_w,
            occ_safe: self.occ_safe,
            occ_poll: self.occ_poll,
            seconds,
        };
        (outcome, self.rec)
    }
}

/// Builds, runs and packages one block covering global clusters
/// `[lo, lo + count)`, observing through `rec`.
#[allow(clippy::too_many_arguments)]
fn run_block<S: Strategy, D: Defense + ?Sized, R: Recorder>(
    params: &ModelParams,
    strategy: &S,
    defense: &D,
    config: &DesOverlayConfig,
    table: &AliasTable,
    states: &[ClusterState],
    seed: u64,
    lo: usize,
    count: usize,
    n_total: usize,
    rec: R,
) -> (BlockOutcome, R) {
    let c_size = params.core_size();
    let delta = params.max_spare();
    let base_budget = config.max_events / n_total as u64;
    let budget_rem = (config.max_events % n_total as u64) as usize;

    let mut block = BlockSim {
        params,
        strategy,
        defense,
        mix: EventMix::balanced(),
        lambda: config.lambda,
        lo,
        cluster_bits: config.cluster_bits,
        regenerate: config.regenerate,
        table,
        states,
        sample_times: &config.sample_times,
        draw: Vec::with_capacity(count),
        acct: Vec::with_capacity(count),
        core_mal: vec![0; bitset_words(count * c_size)],
        spare_mal: vec![0; bitset_words(count * delta)],
        #[cfg(debug_assertions)]
        labels: Vec::with_capacity(count),
        pool: Vec::with_capacity(c_size + delta),
        empty_slots: Vec::with_capacity(c_size),
        initial_nodes: 0,
        events: 0,
        safe_event_total: 0,
        poll_event_total: 0,
        warmup_total: 0,
        measured_cycles: 0,
        regen_events: 0,
        absorption_counts: [0; 4],
        end_time: 0.0,
        safe_w: vec![Welford::new(); count],
        poll_w: vec![Welford::new(); count],
        life_w: vec![Welford::new(); count],
        occ_safe: vec![0; config.sample_times.len()],
        occ_poll: vec![0; config.sample_times.len()],
        rec,
    };
    for l in 0..count {
        let c = lo + l;
        #[cfg(debug_assertions)]
        {
            let bits: Vec<bool> = (0..config.cluster_bits)
                .map(|bit| (c >> (config.cluster_bits - 1 - bit)) & 1 == 1)
                .collect();
            block.labels.push(Label::from_bits(bits));
        }
        block.draw.push(DrawState {
            rng: StdRng::seed_from_u64(replication_seed(seed, c as u64)),
            gaps: [0.0; GAP_BATCH],
        });
        block.acct.push(ClusterAcct {
            budget: base_budget + u64::from(c < budget_rem),
            warmup: config.warmup_events,
            ..ClusterAcct::default()
        });
    }

    let start = std::time::Instant::now();
    block.run();
    let seconds = start.elapsed().as_secs_f64();
    block.into_outcome(seconds)
}

/// Runs one whole-overlay discrete-event simulation (no defense).
///
/// Deterministic in `(params, initial, strategy, config, seed)` and
/// **byte-identical across [`DesOverlayConfig::shards`] values**: every
/// cluster's sample path is a function of its own counter-seeded stream
/// (see the module docs), so shard assignment affects wall-clock time
/// only. Equivalent to [`run_des_overlay_duel`] with a [`NullDefense`] —
/// bit-identically so, because neutral defense hooks consume no
/// randomness.
///
/// # Panics
///
/// As [`run_des_overlay_duel`].
pub fn run_des_overlay<S: Strategy + Sync>(
    params: &ModelParams,
    initial: &InitialCondition,
    strategy: &S,
    config: &DesOverlayConfig,
    seed: u64,
) -> DesOverlayReport {
    run_des_overlay_duel(params, initial, strategy, &NullDefense::new(), config, seed)
}

/// Runs one whole-overlay discrete-event simulation with a [`Defense`]
/// consulted inside the event loop — the measured half of an
/// adversary-vs-defense duel.
///
/// Deterministic in `(params, initial, strategy, defense, config, seed)`
/// and byte-identical across shard counts. The hot path stays
/// allocation-free: defense hooks are evaluated against a stack
/// [`ClusterView`], and a hook returning its neutral element costs no
/// random draw.
///
/// # Panics
///
/// Panics when `cluster_bits > 24` (16.7M clusters — past any sensible
/// memory budget), when `C + Δ > 255` (membership counters are `u8`),
/// when `lambda` is not a positive finite rate, when the sample grid is
/// unsorted, or when the initial condition is invalid for the parameters.
pub fn run_des_overlay_duel<S: Strategy + Sync, D: Defense + Sync + ?Sized>(
    params: &ModelParams,
    initial: &InitialCondition,
    strategy: &S,
    defense: &D,
    config: &DesOverlayConfig,
    seed: u64,
) -> DesOverlayReport {
    run_des_overlay_duel_with_stats(params, initial, strategy, defense, config, seed).0
}

/// As [`run_des_overlay_duel`], additionally reporting per-shard
/// statistics (events and wall-clock seconds per worker) — the
/// measurement hook behind `examples/des_at_scale` and the
/// `des_overlay` bench. The seconds are timing-dependent, so the stats
/// are deliberately kept out of the byte-stable [`DesOverlayReport`].
///
/// # Panics
///
/// As [`run_des_overlay_duel`].
pub fn run_des_overlay_duel_with_stats<S: Strategy + Sync, D: Defense + Sync + ?Sized>(
    params: &ModelParams,
    initial: &InitialCondition,
    strategy: &S,
    defense: &D,
    config: &DesOverlayConfig,
    seed: u64,
) -> (DesOverlayReport, DesShardStats) {
    let (report, stats, _) =
        run_duel_core(params, initial, strategy, defense, config, seed, || {
            NullRecorder
        });
    (report, stats)
}

/// The merged observation data of one observed DES run — everything the
/// recorders captured, kept strictly **outside** the byte-stable
/// [`DesOverlayReport`] (sidecar data only).
#[derive(Debug, Clone, Default)]
pub struct DesObs {
    /// Per-shard registries merged in shard order: event-kind counters,
    /// per-block busy-time spans and event-share histogram.
    pub registry: Registry,
    /// The ring-buffer traces of all shards merged chronologically (ties
    /// broken by shard order). Each shard keeps its *own* last
    /// `trace_capacity` events, and a worker plays each cluster's stream
    /// to its end before the next, so a ring holds the complete
    /// histories of the last clusters that worker ran (the tail of its
    /// last block), not a time window of the global stream.
    pub trace: Vec<TraceRecord>,
}

impl DesObs {
    /// Writes the merged trace as JSONL (one record per line, oldest
    /// first) — the post-mortem export knob.
    ///
    /// # Errors
    /// Propagates I/O errors from `w`.
    pub fn write_trace_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        for rec in &self.trace {
            writeln!(w, "{}", rec.to_jsonl())?;
        }
        Ok(())
    }
}

/// As [`run_des_overlay_duel_with_stats`], but observed: every shard
/// runs with a [`MetricsRecorder`] holding a `trace_capacity`-deep event
/// ring (0 = no tracer), and the merged observation data comes back as a
/// [`DesObs`] alongside the untouched report.
///
/// The report and stats are **byte-identical** to the unobserved run's —
/// recorders draw no randomness and never reorder events (test-enforced).
///
/// # Panics
///
/// As [`run_des_overlay_duel`].
pub fn run_des_overlay_duel_observed<S: Strategy + Sync, D: Defense + Sync + ?Sized>(
    params: &ModelParams,
    initial: &InitialCondition,
    strategy: &S,
    defense: &D,
    config: &DesOverlayConfig,
    seed: u64,
    trace_capacity: usize,
) -> (DesOverlayReport, DesShardStats, DesObs) {
    let (report, stats, recorders) =
        run_duel_core(params, initial, strategy, defense, config, seed, || {
            MetricsRecorder::with_trace(trace_capacity)
        });
    let mut registry = Registry::new();
    let mut rings = Vec::new();
    for rec in recorders {
        let (reg, ring) = rec.into_parts();
        registry.merge(&reg);
        if let Some(ring) = ring {
            rings.push(ring);
        }
    }
    let ring_refs: Vec<&TraceRing> = rings.iter().collect();
    let trace = TraceRing::merge_in_order(&ring_refs);
    (report, stats, DesObs { registry, trace })
}

/// The exact byte audit of a [`run_des_overlay_duel`] run's simulation
/// state, computed from the allocation formulas (never sampled), plus
/// the slot-capacity node count it normalizes by.
///
/// The figures are totals over all blocks of the block plan (see the
/// module docs), up to one 8-byte rounding word per bitset per block.
/// They bound the live set from above: each worker drops a block's flags
/// and hot columns before starting its next block, and the calling
/// thread frees a block's accumulators as soon as it folds them, so the
/// live set is `shards` blocks of columns plus the accumulators of the
/// blocks not yet folded.
///
/// Structure keys: `des.flags` (the packed core/spare malicious
/// bitsets — one *bit* per membership slot, all a node's identity the
/// simulation ever reads back), `des.cluster_hot` (the SoA per-cluster
/// columns, two 64-byte lines per cluster: the draw line — RNG state +
/// gap batch — and the bookkeeping line — counter pack, cycle tallies,
/// budget, warm-up, sample cursor) and `des.accumulators` (per-cluster
/// Welford triples).
pub fn des_memory_audit(params: &ModelParams, config: &DesOverlayConfig) -> MemoryAudit {
    let n = 1u64 << config.cluster_bits;
    let c_size = params.core_size() as u64;
    let delta = params.max_spare() as u64;
    let capacity = n * (c_size + delta);
    let mut audit = MemoryAudit::new(capacity);
    // One bit per core slot + one per spare slot, packed into u64 words.
    let words = |bits: u64| bits.div_ceil(64);
    audit.record("des.flags", (words(n * c_size) + words(n * delta)) * 8);
    // The SoA hot columns: one draw line + one bookkeeping line per
    // cluster (both 64-aligned; the padding is the audit's to count).
    let hot_stride = (std::mem::size_of::<DrawState>() + std::mem::size_of::<ClusterAcct>()) as u64;
    audit.record("des.cluster_hot", n * hot_stride);
    // Three Welford accumulators (count, mean, M2) per cluster.
    audit.record(
        "des.accumulators",
        n * 3 * std::mem::size_of::<Welford>() as u64,
    );
    audit
}

/// Clusters per block of the block plan (see the module docs).
const BLOCK_CLUSTERS: usize = 1024;

/// Finished blocks a worker may queue for the fold before its next send
/// waits, so the channels hold at most `shards · FOLD_WINDOW` block
/// outcomes however far one worker runs ahead of the others.
const FOLD_WINDOW: usize = 32;

/// The recorder-generic core behind every public entry point: runs the
/// block plan (each worker with its own recorder from `make_rec`, handed
/// from block to block) and folds block outcomes in block order on the
/// calling thread as they arrive. Returns the recorders in worker order
/// so observed callers can merge them; the unobserved path passes
/// [`NullRecorder`] and the compiler erases every observation site from
/// the hot loop.
///
/// Every cluster's sample path depends only on `(seed, cluster)`, and
/// blocks are contiguous cluster ranges folded in block order, so the
/// fold visits the clusters in cluster order at every shard count.
#[allow(clippy::too_many_arguments)]
fn run_duel_core<S, D, R, F>(
    params: &ModelParams,
    initial: &InitialCondition,
    strategy: &S,
    defense: &D,
    config: &DesOverlayConfig,
    seed: u64,
    make_rec: F,
) -> (DesOverlayReport, DesShardStats, Vec<R>)
where
    S: Strategy + Sync,
    D: Defense + Sync + ?Sized,
    R: Recorder + Send,
    F: Fn() -> R + Sync,
{
    assert!(
        config.cluster_bits <= 24,
        "cluster_bits = {} exceeds the 2^24-cluster ceiling",
        config.cluster_bits
    );
    let c_size = params.core_size();
    let delta = params.max_spare();
    assert!(
        c_size + delta <= u8::MAX as usize,
        "C + Δ = {} overflows the per-cluster u8 counters",
        c_size + delta
    );
    assert!(
        config.lambda > 0.0 && config.lambda.is_finite(),
        "lambda must be a positive rate, got {}",
        config.lambda
    );
    assert!(
        config.sample_times.windows(2).all(|w| w[0] <= w[1]),
        "sample times must be sorted"
    );
    let n = 1usize << config.cluster_bits;
    let shards = config.shards.clamp(1, n);
    let nblocks = n.div_ceil(BLOCK_CLUSTERS).max(shards);

    let space = ModelSpace::new(params);
    let alpha = initial
        .distribution(&space)
        .expect("initial condition must be valid for the parameters");
    let table = AliasTable::new(&alpha).expect("alpha is a distribution");
    let states: Vec<ClusterState> = space.iter().map(|(_, st)| *st).collect();

    // The fold: integer tallies sum (order-free), the moment
    // accumulators merge cluster by cluster in cluster order (so the
    // floating-point result is identical at every shard count).
    let mut safe_w = Welford::new();
    let mut poll_w = Welford::new();
    let mut life_w = Welford::new();
    let mut events = 0u64;
    let mut safe_event_total = 0u64;
    let mut poll_event_total = 0u64;
    let mut warmup_events = 0u64;
    let mut measured_cycles = 0u64;
    let mut regen_events = 0u64;
    let mut absorption_counts = [0u64; 4];
    let mut censored = 0u64;
    let mut initial_nodes = 0u64;
    let mut peak_nodes = 0u64;
    let mut end_time = 0.0f64;
    let mut occ_safe = vec![0u64; config.sample_times.len()];
    let mut occ_poll = vec![0u64; config.sample_times.len()];
    let mut shard_events = vec![0u64; shards];
    let mut shard_seconds = vec![0.0f64; shards];

    // One bounded channel per worker: worker w sends blocks w,
    // w + shards, … in order, so block b is the next message on channel
    // b mod shards.
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards)
        .map(|_| mpsc::sync_channel::<BlockOutcome>(FOLD_WINDOW))
        .unzip();
    let recorders: Vec<R> = std::thread::scope(|scope| {
        let handles: Vec<_> = txs
            .into_iter()
            .enumerate()
            .map(|(w, tx)| {
                let (table, states, make_rec) = (&table, &states[..], &make_rec);
                scope.spawn(move || {
                    let mut rec = make_rec();
                    for b in (w..nblocks).step_by(shards) {
                        let (lo, hi) = (b * n / nblocks, (b + 1) * n / nblocks);
                        let (outcome, block_rec) = run_block(
                            params,
                            strategy,
                            defense,
                            config,
                            table,
                            states,
                            seed,
                            lo,
                            hi - lo,
                            n,
                            rec,
                        );
                        rec = block_rec;
                        tx.send(outcome)
                            .expect("the calling thread folds every block");
                    }
                    rec
                })
            })
            .collect();
        // Fold strictly in block order (= cluster order); a block's
        // per-cluster accumulators are freed as soon as it is folded.
        for b in 0..nblocks {
            // A worker that panicked has hung up; its join reports it.
            let Ok(o) = rxs[b % shards].recv() else {
                break;
            };
            for w in &o.safe_w {
                safe_w.merge(w);
            }
            for w in &o.poll_w {
                poll_w.merge(w);
            }
            for w in &o.life_w {
                life_w.merge(w);
            }
            events += o.events;
            safe_event_total += o.safe_event_total;
            poll_event_total += o.poll_event_total;
            warmup_events += o.warmup_total;
            measured_cycles += o.measured_cycles;
            regen_events += o.regen_events;
            for (acc, &c) in absorption_counts.iter_mut().zip(&o.absorption_counts) {
                *acc += c;
            }
            censored += o.censored;
            initial_nodes += o.initial_nodes;
            peak_nodes += o.peak_nodes;
            end_time = end_time.max(o.end_time);
            for (acc, &c) in occ_safe.iter_mut().zip(&o.occ_safe) {
                *acc += c;
            }
            for (acc, &c) in occ_poll.iter_mut().zip(&o.occ_poll) {
                *acc += c;
            }
            // Block b ran on worker b mod shards.
            shard_events[b % shards] += o.events;
            shard_seconds[b % shards] += o.seconds;
        }
        // Hang up before joining, so a worker still sending after another
        // one panicked fails instead of waiting for the fold.
        drop(rxs);
        handles
            .into_iter()
            .map(|h| h.join().expect("DES shard panicked"))
            .collect()
    });

    // Grid points past the run's last event are dropped.
    let occupancy: Vec<(f64, f64, f64)> = config
        .sample_times
        .iter()
        .enumerate()
        .take_while(|&(_, &t)| t <= end_time && events > 0)
        .map(|(g, &t)| {
            (
                t,
                occ_safe[g] as f64 / n as f64,
                occ_poll[g] as f64 / n as f64,
            )
        })
        .collect();

    let absorbed: u64 = absorption_counts.iter().sum();
    let denom = absorbed.max(1) as f64;
    let report = DesOverlayReport {
        n_clusters: n,
        initial_nodes,
        peak_nodes,
        events,
        end_time,
        safe_events: safe_w.summary(1.96),
        polluted_events: poll_w.summary(1.96),
        lifetime: life_w.summary(1.96),
        absorption: (
            absorption_counts[0] as f64 / denom,
            absorption_counts[1] as f64 / denom,
            absorption_counts[2] as f64 / denom,
            absorption_counts[3] as f64 / denom,
        ),
        absorption_counts,
        absorbed,
        censored,
        safe_event_total,
        polluted_event_total: poll_event_total,
        warmup_events,
        measured_cycles,
        regen_events,
        occupancy,
    };
    (
        report,
        DesShardStats {
            shard_events,
            shard_seconds,
        },
        recorders,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterAnalysis;
    use pollux_adversary::baselines::{PassiveAdversary, RecklessAdversary};
    use pollux_adversary::TargetedStrategy;
    use pollux_obs::{Histogram, SpanStats};

    fn params(mu: f64, d: f64) -> ModelParams {
        ModelParams::paper_defaults().with_mu(mu).with_d(d)
    }

    fn config(bits: u32) -> DesOverlayConfig {
        DesOverlayConfig::new(bits, 1.0, 5_000_000)
    }

    #[test]
    fn deterministic_per_seed() {
        let p = params(0.2, 0.8);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let a = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &config(6), 11);
        let b = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &config(6), 11);
        assert_eq!(a, b);
        let c = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &config(6), 12);
        assert_ne!(a.safe_events.mean, c.safe_events.mean);
    }

    #[test]
    fn sharded_runs_are_byte_identical() {
        // The tentpole contract: shard count changes wall-clock only.
        let p = params(0.25, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        for cfg in [
            config(6),
            config(6).with_regeneration(),
            config(6)
                .with_regeneration()
                .with_sample_times(vec![0.0, 5.0, 25.0, 1e9]),
        ] {
            let one = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &cfg, 5);
            for shards in [2usize, 3, 8, 64] {
                let sharded = run_des_overlay(
                    &p,
                    &InitialCondition::Delta,
                    &strategy,
                    &cfg.clone().with_shards(shards),
                    5,
                );
                assert_eq!(one, sharded, "shards = {shards}");
            }
        }
        // Shard counts past the cluster count clamp.
        let tiny = DesOverlayConfig::new(2, 1.0, 400).with_shards(64);
        let a = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &tiny, 1);
        assert_eq!(a.n_clusters, 4);
    }

    #[test]
    fn shard_stats_partition_the_events() {
        let p = params(0.25, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let cfg = config(7).with_shards(4);
        let (report, stats) = run_des_overlay_duel_with_stats(
            &p,
            &InitialCondition::Delta,
            &strategy,
            &NullDefense::new(),
            &cfg,
            3,
        );
        assert_eq!(stats.shards(), 4);
        assert_eq!(stats.shard_events.iter().sum::<u64>(), report.events);
        assert_eq!(stats.shard_events_per_sec().len(), 4);
    }

    #[test]
    fn observed_run_is_byte_identical_to_plain_run() {
        // The inertness contract: attaching recorders (at any shard
        // count) changes neither the report nor the shard partition of
        // the events.
        let p = params(0.25, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        for cfg in [
            config(6),
            config(6).with_regeneration().with_warmup_events(10),
            config(6).with_shards(8),
        ] {
            let (plain, plain_stats) = run_des_overlay_duel_with_stats(
                &p,
                &InitialCondition::Delta,
                &strategy,
                &pollux_defense::NullDefense::new(),
                &cfg,
                9,
            );
            let (observed, obs_stats, obs) = run_des_overlay_duel_observed(
                &p,
                &InitialCondition::Delta,
                &strategy,
                &pollux_defense::NullDefense::new(),
                &cfg,
                9,
                64,
            );
            assert_eq!(plain, observed);
            assert_eq!(plain_stats.shard_events, obs_stats.shard_events);
            // Every processed event was tallied under exactly one
            // churn kind (absorption tallies ride on top).
            let churn: u64 = [
                DesEventKind::Join,
                DesEventKind::JoinRejected,
                DesEventKind::Leave,
                DesEventKind::SelfLoop,
                DesEventKind::InducedEviction,
                DesEventKind::Regeneration,
            ]
            .iter()
            .filter_map(|k| obs.registry.counter(k.counter_key()))
            .sum();
            assert_eq!(churn, observed.events);
            assert_eq!(
                obs.registry.counter(DesEventKind::Absorption.counter_key()),
                Some(observed.absorbed).filter(|&a| a > 0)
            );
            // One busy span and one event-share sample per block of the
            // plan, the samples jointly covering every processed event.
            let nblocks = 64usize.div_ceil(BLOCK_CLUSTERS).max(cfg.shards);
            assert_eq!(
                obs.registry
                    .span_stats("des.shard.busy_s")
                    .map(SpanStats::count),
                Some(nblocks as u64)
            );
            assert_eq!(
                obs.registry
                    .histogram("des.shard.events")
                    .map(Histogram::sum),
                Some(observed.events)
            );
            assert!(!obs.trace.is_empty());
            assert!(obs.trace.windows(2).all(|w| w[0].time <= w[1].time));
        }
    }

    #[test]
    fn memory_audit_matches_allocation_formulas() {
        let p = params(0.2, 0.8);
        let cfg = config(6);
        let audit = des_memory_audit(&p, &cfg);
        let n = 64u64;
        let c_size = p.core_size() as u64;
        let delta = p.max_spare() as u64;
        assert_eq!(audit.nodes(), n * (c_size + delta));
        // One bit per membership slot, rounded up to whole u64 words per
        // bitset.
        assert_eq!(
            audit.get("des.flags"),
            Some(((n * c_size).div_ceil(64) + (n * delta).div_ceil(64)) * 8)
        );
        // The SoA strides: one 64 B draw line (32 B RNG + 32 B gap
        // batch) plus one 64 B bookkeeping line (6 B counters + 16 B
        // cycle tallies + 8 B budget + 8 B warm-up + 4 B cursor,
        // 64-aligned) per cluster.
        assert_eq!(audit.get("des.cluster_hot"), Some(n * 128));
        // The headline number the scaling ladder asserts on: the packed
        // layout sits well under the pre-refactor 25.0 B/node.
        assert!(
            audit.bytes_per_node() < 25.0,
            "bytes/node regressed: {}",
            audit.bytes_per_node()
        );
        // Shard count never changes the audit's inputs.
        assert_eq!(audit, des_memory_audit(&p, &cfg.clone().with_shards(8)));
    }

    #[test]
    fn block_plan_is_byte_identical_at_any_shard_count() {
        // The block-plan contract: at every worker count — including
        // counts that divide neither the cluster count nor the block
        // count, counts that split a sub-block overlay into one block per
        // worker, and counts that leave a worker several blocks whose
        // outcomes reach the fold out of order — the report reproduces
        // the single-shard bytes exactly.
        let p = params(0.25, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let grid = vec![0.0, 5.0, 25.0];
        let legs = [
            config(4)
                .with_regeneration()
                .with_sample_times(grid.clone()),
            config(6)
                .with_regeneration()
                .with_sample_times(grid.clone()),
            DesOverlayConfig::new(12, 1.0, 40 << 12)
                .with_regeneration()
                .with_sample_times(grid),
        ];
        for base in legs {
            let bits = base.cluster_bits;
            let one = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &base, 5);
            for shards in [2usize, 3, 8] {
                let cfg = base.clone().with_shards(shards);
                let blocked = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &cfg, 5);
                assert_eq!(one, blocked, "bits {bits} shards {shards}");
            }
        }
    }

    /// A report's integer fields, then the bit patterns of its end time,
    /// summary moments and occupancy grid.
    fn report_bits(r: &DesOverlayReport) -> (Vec<u64>, Vec<u64>) {
        let mut ints = vec![
            r.n_clusters as u64,
            r.initial_nodes,
            r.peak_nodes,
            r.events,
            r.absorbed,
            r.censored,
            r.safe_event_total,
            r.polluted_event_total,
            r.warmup_events,
            r.measured_cycles,
            r.regen_events,
            r.safe_events.count,
            r.polluted_events.count,
            r.lifetime.count,
        ];
        ints.extend(r.absorption_counts);
        let mut bits = vec![r.end_time.to_bits()];
        for s in [&r.safe_events, &r.polluted_events, &r.lifetime] {
            bits.extend([s.mean.to_bits(), s.variance.to_bits()]);
        }
        for &(t, safe, poll) in &r.occupancy {
            bits.extend([t.to_bits(), safe.to_bits(), poll.to_bits()]);
        }
        (ints, bits)
    }

    #[test]
    fn des_reports_match_the_interleaved_engine() {
        // Pinned to the bytes of the engine that interleaved every
        // block's clusters through one future-event list: a cluster's
        // sample path depends on its own stream alone, so playing the
        // clusters one after another must reproduce them exactly.
        let p = params(0.25, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let absorb = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &config(11), 2011);
        let duel_cfg = DesOverlayConfig::new(8, 1.0, 200 << 8)
            .with_regeneration()
            .with_warmup_events(50)
            .with_sample_times(vec![0.0, 5.0, 25.0]);
        let duel = run_des_overlay_duel(
            &p,
            &InitialCondition::Delta,
            &strategy,
            &pollux_defense::IncarnationRefresh::new(8.0, 0.5).unwrap(),
            &duel_cfg,
            2011,
        );
        assert_eq!(
            report_bits(&absorb),
            (
                vec![
                    2048, 20480, 25280, 25617, 2048, 0, 23591, 2026, 0, 2048, 0, 2048, 2048, 2048,
                    980, 958, 110, 0,
                ],
                vec![
                    4638572962468510191,
                    4622674262757474310,
                    4634889183905611732,
                    4607085661776773114,
                    4630252350154402783,
                    4623223121369341878,
                    4639302109437845516,
                ],
            )
        );
        assert_eq!(
            report_bits(&duel),
            (
                vec![
                    256, 2560, 3584, 51200, 3780, 243, 33985, 1571, 12800, 2857, 2844, 3780, 3780,
                    3780, 1796, 1841, 143, 0,
                ],
                vec![
                    4642599127477861842,
                    4622603375381224594,
                    4634658551748393210,
                    4601158556441291154,
                    4621594783611672415,
                    4622888130180688134,
                    4637051003488159865,
                    0,
                    4607182418800017408,
                    0,
                    4617315517961601024,
                    4606478731358240768,
                    0,
                    4627730092099895296,
                    4606478731358240768,
                    4580160821035794432,
                ],
            )
        );
    }

    #[test]
    fn block_plan_stats_are_per_worker_and_partition_the_events() {
        let p = params(0.25, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        // Four 1024-cluster blocks on three workers: worker 0 owns
        // blocks 0 and 3.
        let cfg = config(12).with_shards(3);
        let run = || {
            run_des_overlay_duel_with_stats(
                &p,
                &InitialCondition::Delta,
                &strategy,
                &NullDefense::new(),
                &cfg,
                3,
            )
        };
        let (report, stats) = run();
        // One stats row per worker (not per block), jointly covering
        // every processed event.
        assert_eq!(stats.shards(), 3);
        assert_eq!(stats.shard_events.iter().sum::<u64>(), report.events);
        // Blocks are assigned statically, so the per-worker event split
        // is a function of the inputs, not of thread timing.
        assert_eq!(run().1.shard_events, stats.shard_events);
    }

    #[test]
    fn mu_zero_matches_random_walk_closed_form() {
        // Attack-free overlay from δ: E(T_S) = 12, merge:split = 4:7 vs
        // 3:7, no pollution anywhere (closed forms from the paper).
        let p = params(0.0, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let r = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &config(11), 1);
        assert_eq!(r.censored, 0);
        assert_eq!(r.absorbed, 2048);
        assert!(
            (r.safe_events.mean - 12.0).abs() < 4.0 * r.safe_events.ci_half_width,
            "E(T_S) {} vs 12",
            r.safe_events
        );
        assert_eq!(r.polluted_events.mean, 0.0);
        assert!((r.absorption.0 - 4.0 / 7.0).abs() < 0.04);
        assert!((r.absorption.1 - 3.0 / 7.0).abs() < 0.04);
        assert_eq!(r.absorption.2, 0.0);
    }

    #[test]
    fn sojourns_and_absorption_match_the_markov_chain() {
        let p = params(0.25, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let r = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &config(11), 7);
        assert_eq!(r.censored, 0, "d = 0.9 absorbs well before the cap");

        let a = ClusterAnalysis::new(&p, InitialCondition::Delta).unwrap();
        let e_ts = a.expected_safe_events().unwrap();
        let e_tp = a.expected_polluted_events().unwrap();
        let split = a.absorption_split().unwrap();
        assert!(
            (r.safe_events.mean - e_ts).abs() < 4.0 * r.safe_events.ci_half_width,
            "T_S: des {} vs markov {e_ts}",
            r.safe_events
        );
        assert!(
            (r.polluted_events.mean - e_tp).abs() < 4.0 * r.polluted_events.ci_half_width.max(0.01),
            "T_P: des {} vs markov {e_tp}",
            r.polluted_events
        );
        assert!(
            (r.absorption.2 - split.polluted_merge).abs() < 0.02,
            "AmP: des {} vs markov {}",
            r.absorption.2,
            split.polluted_merge
        );
        // Time layer consistent with the event layer: mean lifetime ≈
        // mean per-cluster events / λ.
        let per_cluster_events = r.safe_events.mean + r.polluted_events.mean;
        assert!(
            (r.lifetime.mean - per_cluster_events).abs() < 5.0 * r.lifetime.ci_half_width + 1.0,
            "lifetime {} vs events-per-cluster {per_cluster_events}",
            r.lifetime.mean
        );
    }

    #[test]
    fn beta_initial_and_k7_run_under_all_strategies() {
        let p = params(0.3, 0.8).with_k(7).unwrap();
        let cfg = config(7);
        let targeted = TargetedStrategy::new(7, 0.1).unwrap();
        let t = run_des_overlay(&p, &InitialCondition::Beta, &targeted, &cfg, 3);
        let passive = PassiveAdversary::new();
        let pa = run_des_overlay(&p, &InitialCondition::Beta, &passive, &cfg, 3);
        let reckless = RecklessAdversary::new();
        let re = run_des_overlay(&p, &InitialCondition::Beta, &reckless, &cfg, 3);
        for r in [&t, &pa, &re] {
            assert_eq!(r.absorbed + r.censored, 128);
            let total = r.absorption.0 + r.absorption.1 + r.absorption.2 + r.absorption.3;
            assert!((total - 1.0).abs() < 1e-9);
        }
        // β starts polluted with positive probability, so the targeted
        // adversary accrues polluted sojourn mass.
        assert!(t.polluted_events.mean > 0.0);
    }

    #[test]
    fn event_budgets_censor_and_bound_the_run() {
        let p = params(0.2, 0.99);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        // ~6 events per cluster: far too few for most clusters to absorb,
        // so the budgets censor the run.
        let cfg = DesOverlayConfig::new(5, 2.0, 200);
        let r = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &cfg, 9);
        // Budgets bound the total exactly from above; clusters absorbing
        // early return part of theirs.
        assert!(r.events <= 200, "budget overrun: {}", r.events);
        assert!(r.censored > 0);
        assert_eq!(r.absorbed + r.censored, 32);
        assert!(r.end_time > 0.0);
        // In regeneration mode no budget is ever returned: the run
        // processes exactly max_events.
        let r = run_des_overlay(
            &p,
            &InitialCondition::Delta,
            &strategy,
            &cfg.clone().with_regeneration(),
            9,
        );
        assert_eq!(r.events, 200, "regeneration consumes every budget");
    }

    #[test]
    fn node_accounting_balances() {
        let p = params(0.2, 0.8);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let r = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &config(8), 21);
        // δ start: every cluster has C + ⌊Δ/2⌋ = 10 members.
        assert_eq!(r.initial_nodes, 256 * 10);
        assert!(r.peak_nodes >= r.initial_nodes);
        // Peak is bounded by the arena's worst case.
        assert!(r.peak_nodes <= 256 * 14);
    }

    #[test]
    fn null_defense_run_is_bit_identical_to_defense_free() {
        use pollux_defense::NullDefense;
        let p = params(0.25, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        for cfg in [
            config(7),
            config(6).with_regeneration(),
            config(6)
                .with_regeneration()
                .with_sample_times(vec![5.0, 10.0, 20.0])
                .with_shards(4),
        ] {
            let plain = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &cfg, 5);
            let duel = run_des_overlay_duel(
                &p,
                &InitialCondition::Delta,
                &strategy,
                &NullDefense::new(),
                &cfg,
                5,
            );
            assert_eq!(plain, duel);
        }
    }

    #[test]
    fn regeneration_keeps_the_overlay_alive_and_measures_steady_state() {
        let p = params(0.25, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let cfg = DesOverlayConfig::new(9, 1.0, 800 << 9).with_regeneration();
        let r = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &cfg, 13);
        // The budgets (not drain-out) end the run, with every cluster
        // live or awaiting regeneration.
        assert_eq!(r.events, 800 << 9);
        assert!(r.absorbed > 10_000, "cycles: {}", r.absorbed);
        assert!(r.regen_events > 0);
        assert_eq!(
            r.safe_event_total + r.polluted_event_total + r.regen_events,
            r.events
        );
        // The event fractions match the renewal–reward closed form (this
        // run has no warm-up, so measured cycles = all cycles).
        let a = ClusterAnalysis::new(&p, InitialCondition::Delta).unwrap();
        let (want_safe, want_poll) = a.steady_state_fractions().unwrap();
        let (got_safe, got_poll) = r.steady_state_fractions();
        assert_eq!(r.measured_cycles, r.absorbed);
        let (lo, hi) = crate::duel::renewal_wilson(
            r.polluted_event_total,
            r.events - r.warmup_events,
            r.measured_cycles,
            4.0,
        );
        assert!(
            (lo..=hi).contains(&want_poll),
            "polluted: des {got_poll} ∉ [{lo}, {hi}] around analytic {want_poll}"
        );
        assert!(
            (got_safe - want_safe).abs() < 0.02,
            "{got_safe} vs {want_safe}"
        );
        // Mean cycle length is E(T_S) + E(T_P) + 1.
        let want_cycle =
            a.expected_safe_events().unwrap() + a.expected_polluted_events().unwrap() + 1.0;
        assert!(
            (r.mean_cycle_events() - want_cycle).abs() < 0.5,
            "cycle {} vs {want_cycle}",
            r.mean_cycle_events()
        );
    }

    #[test]
    fn occupancy_sampling_tracks_the_time_grid() {
        let p = params(0.2, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let grid: Vec<f64> = (0..20).map(|i| i as f64 * 5.0).collect();
        let cfg = DesOverlayConfig::new(7, 1.0, 200 << 7)
            .with_regeneration()
            .with_sample_times(grid.clone());
        let r = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &cfg, 17);
        // The run lasts ~200 time units (λ = 1), so the whole grid is hit.
        assert_eq!(r.occupancy.len(), grid.len());
        for (i, &(t, safe, poll)) in r.occupancy.iter().enumerate() {
            assert_eq!(t, grid[i]);
            assert!((0.0..=1.0).contains(&safe) && (0.0..=1.0).contains(&poll));
            assert!(safe + poll <= 1.0 + 1e-12);
        }
        // t = 0 (before any event): everything transient from δ.
        assert_eq!(r.occupancy[0].1, 1.0);
        assert_eq!(r.occupancy[0].2, 0.0);
        // In steady state most clusters stay live (regeneration wait is
        // one event of ~14 per cycle).
        let last = r.occupancy.last().unwrap();
        assert!(last.1 + last.2 > 0.8, "live fraction {}", last.1 + last.2);
        // A truncated run drops unreached grid points.
        let short = DesOverlayConfig::new(5, 1.0, 50)
            .with_regeneration()
            .with_sample_times(vec![0.0, 1e6]);
        let r = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &short, 17);
        assert_eq!(r.occupancy.len(), 1);
    }

    #[test]
    fn regeneration_revives_clusters_born_absorbed() {
        // A Custom initial with mass on an absorbing state: in
        // regeneration mode those clusters still get arrivals, and the
        // first one re-seeds them — the overlay never drains.
        let p = params(0.2, 0.8);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let space = ModelSpace::new(&p);
        // Half the mass born absorbed (safe merge, s = 0), half at δ.
        let alpha = r2_alpha(&space);
        let initial = InitialCondition::Custom(alpha.clone());
        let plain = DesOverlayConfig::new(6, 1.0, 100 << 6);
        let cfg = plain.clone().with_regeneration();
        let r = run_des_overlay(&p, &initial, &strategy, &cfg, 31);

        // The population at t = 0 follows from each cluster's first draw
        // alone (the stream contract): a transient start adds C + s, an
        // absorbing start adds 0 — at any shard count, with or without
        // regeneration.
        let table = AliasTable::new(&alpha).unwrap();
        let starts: Vec<ClusterState> = (0..64u64)
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(replication_seed(31, c));
                *space.state(table.sample(&mut rng))
            })
            .collect();
        let transient = |st: &ClusterState| {
            matches!(
                st.classify(&p),
                StateClass::TransientSafe | StateClass::TransientPolluted
            )
        };
        let born_absorbed = starts.iter().filter(|st| !transient(st)).count();
        assert!(0 < born_absorbed && born_absorbed < 64, "{born_absorbed}");
        let want_initial: u64 = starts
            .iter()
            .filter(|st| transient(st))
            .map(|st| (p.core_size() + st.s) as u64)
            .sum();
        for config in [&plain, &cfg] {
            for shards in [1, 3] {
                let sharded = config.clone().with_shards(shards);
                let rs = run_des_overlay(&p, &initial, &strategy, &sharded, 31);
                assert_eq!(rs.initial_nodes, want_initial, "{shards} shards");
            }
        }
        // Every cluster keeps cycling: far more completed cycles than the
        // 64 clusters, and regeneration events from both birth paths.
        assert_eq!(r.events, 100 << 6);
        assert!(r.absorbed > 64, "cycles: {}", r.absorbed);
        assert!(r.regen_events >= r.absorbed / 2);
        // The event fractions match the renewal closed form under the
        // same Custom initial (cycles born absorbed contribute length-1
        // cycles: T_S = T_P = 0 plus the regeneration event).
        let a = ClusterAnalysis::new(&p, InitialCondition::Custom(r2_alpha(&space))).unwrap();
        let (_, want_poll) = a.steady_state_fractions().unwrap();
        let (lo, hi) = crate::duel::renewal_wilson(
            r.polluted_event_total,
            r.events - r.warmup_events,
            r.measured_cycles,
            5.0,
        );
        assert!(
            (lo..=hi).contains(&want_poll),
            "polluted ∉ [{lo}, {hi}] around {want_poll}"
        );
    }

    /// The Custom distribution of the test above: half the mass born
    /// absorbed (safe merge, s = 0), half at δ.
    fn r2_alpha(space: &ModelSpace) -> Vec<f64> {
        let mut alpha = vec![0.0; space.len()];
        alpha[space.index(&ClusterState::new(0, 0, 0))] = 0.5;
        alpha[space.index(&ClusterState::new(3, 0, 0))] = 0.5;
        alpha
    }

    #[test]
    fn explicit_backends_resolve_to_themselves() {
        assert_eq!(QueueBackend::Heap.resolve(), QueueBackend::Heap);
        assert_eq!(QueueBackend::Auto.resolve(), QueueBackend::Heap);
        // The string a benchmark records as its `des_queue` provenance.
        assert_eq!(format!("{:?}", QueueBackend::Auto.resolve()), "Heap");
    }

    #[test]
    fn warmup_excludes_early_events_without_changing_the_dynamics() {
        let p = params(0.25, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let base = DesOverlayConfig::new(7, 1.0, 400 << 7).with_regeneration();
        let warmed = base.clone().with_warmup_events(200);
        let r0 = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &base, 29);
        let rw = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &warmed, 29);
        // Warm-up is pure bookkeeping: the sample paths are identical —
        // same events, sojourn summaries, absorptions and end time.
        assert_eq!(r0.events, rw.events);
        assert_eq!(r0.safe_events, rw.safe_events);
        assert_eq!(r0.absorption_counts, rw.absorption_counts);
        assert_eq!(r0.end_time, rw.end_time);
        // Exactly 200 events per cluster moved into the warm-up bucket,
        // and the event-accounting identity holds on both sides.
        assert_eq!(rw.warmup_events, 200 << 7);
        assert_eq!(r0.warmup_events, 0);
        for r in [&r0, &rw] {
            assert_eq!(
                r.safe_event_total + r.polluted_event_total + r.regen_events + r.warmup_events,
                r.events
            );
        }
        // Measured cycles shrink accordingly but stay plentiful, and the
        // warmed estimator still matches the closed form.
        assert!(rw.measured_cycles < r0.measured_cycles);
        assert_eq!(r0.measured_cycles, r0.absorbed);
        let a = ClusterAnalysis::new(&p, InitialCondition::Delta).unwrap();
        let (_, want_poll) = a.steady_state_fractions().unwrap();
        let (lo, hi) = crate::duel::renewal_wilson(
            rw.polluted_event_total,
            rw.events - rw.warmup_events,
            rw.measured_cycles,
            5.0,
        );
        assert!(
            (lo..=hi).contains(&want_poll),
            "[{lo}, {hi}] vs {want_poll}"
        );
        // Sharding invariance holds with warm-up in play.
        let rw8 = run_des_overlay(
            &p,
            &InitialCondition::Delta,
            &strategy,
            &warmed.clone().with_shards(8),
            29,
        );
        assert_eq!(rw, rw8);
    }

    #[test]
    fn induced_churn_defense_suppresses_pollution_in_the_loop() {
        use pollux_defense::InducedChurn;
        let p = params(0.25, 0.9);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let cfg = DesOverlayConfig::new(9, 1.0, 500 << 9).with_regeneration();
        let plain = run_des_overlay(&p, &InitialCondition::Delta, &strategy, &cfg, 23);
        let defended = run_des_overlay_duel(
            &p,
            &InitialCondition::Delta,
            &strategy,
            &InducedChurn::new(0.2).unwrap(),
            &cfg,
            23,
        );
        let (_, poll_plain) = plain.steady_state_fractions();
        let (_, poll_defended) = defended.steady_state_fractions();
        assert!(
            poll_defended < 0.6 * poll_plain,
            "induced churn: {poll_defended} vs undefended {poll_plain}"
        );
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_sample_grid_panics() {
        let _ = DesOverlayConfig::new(5, 1.0, 10).with_sample_times(vec![3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn oversized_cluster_bits_panics() {
        let p = params(0.1, 0.5);
        let strategy = TargetedStrategy::new(1, 0.1).unwrap();
        let cfg = DesOverlayConfig::new(25, 1.0, 10);
        run_des_overlay(&p, &InitialCondition::Delta, &strategy, &cfg, 1);
    }
}
