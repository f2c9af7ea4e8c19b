//! The worker pool: cells fan out over OS threads through a channel,
//! results re-assemble in canonical order, so a sweep's artefacts are
//! byte-identical whether it runs on 1 thread or 64.
//!
//! The pool is crash-safe (`pollux-resilience`): each cell evaluates
//! under `catch_unwind` with bounded deterministic retry, a panicking
//! cell surfaces as a structured [`CellFailure`] naming the cell while
//! every other cell completes, DES cells pre-flight their predicted
//! footprint against an optional memory budget (shedding shards — an
//! output-invariant degradation — before refusing), and an optional
//! append-only journal commits each completed cell so an interrupted
//! sweep resumes byte-identically, recomputing only missing cells.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};

use pollux_des::replication::replication_seed;
use pollux_obs::Registry;
use pollux_resilience::{
    catch_panic, fault::SIMULATED_KILL_EXIT_CODE, fnv1a64, run_with_retry, CellFailure,
    FailureKind, FaultPlan, Journal, JournalEntry, JournalError, JournalHeader, MemoryBudget,
    RetryPolicy,
};

use crate::codec::{decode_rows, encode_rows};
use crate::{OutputKind, Scenario, SweepCell, SweepError, SweepReport, Value};

/// The keyed rows one cell contributes to its scenario's report.
type CellRows = Vec<Vec<Value>>;
/// What a worker reports back: the owning scenario, the cell's rows and
/// the cell's wall time — `None` for a cell replayed from the journal,
/// which this process never evaluated.
type CellOutcome = (usize, Result<CellRows, SweepError>, Option<f64>);

/// File name of the completion journal inside a journal directory.
pub const JOURNAL_FILE: &str = "sweep.journal.jsonl";

/// Instrumentation sidecar of one scenario's sweep: per-cell wall-time
/// spans and cell/row counters, merged in canonical cell order so the
/// aggregate is independent of worker scheduling. Recording it leaves
/// the reports of [`SweepRunner::run_all_observed`] byte-identical to
/// [`SweepRunner::run_all`]'s.
#[derive(Debug, Clone, Default)]
pub struct SweepObs {
    /// The scenario this sidecar describes.
    pub scenario: String,
    /// `sweep.cells` / `sweep.rows` counters over every cell, plus the
    /// `sweep.cell_wall_s` span over the wall seconds of the cells this
    /// process evaluated (a resumed run's journal-replayed cells have no
    /// wall time, so they add no span).
    pub registry: Registry,
}

/// Default master seed (only Monte-Carlo kinds consume it).
pub const DEFAULT_SEED: u64 = 0xD51_2011; // DSN 2011

/// A deterministic multi-threaded scenario executor.
///
/// Parallelism is over grid cells: each cell gets a seed derived from
/// `(master_seed, cell index)` via SplitMix64 and is evaluated
/// independently; rows are then stitched together in cell order. Thread
/// count therefore affects wall-clock time only, never output bytes —
/// and so do retries, shard shedding and checkpoint/resume, all of which
/// re-derive the same per-cell seeds.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    master_seed: u64,
    progress: bool,
    retry: RetryPolicy,
    fault_plan: FaultPlan,
    memory_budget: MemoryBudget,
    journal_dir: Option<PathBuf>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner using every available core and the default seed.
    pub fn new() -> Self {
        SweepRunner {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            master_seed: DEFAULT_SEED,
            progress: false,
            retry: RetryPolicy::default(),
            fault_plan: FaultPlan::none(),
            memory_budget: MemoryBudget::unlimited(),
            journal_dir: None,
        }
    }

    /// Sets the worker-thread count (min 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the master seed for Monte-Carlo kinds.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Enables a per-cell progress/ETA line on stderr. Progress goes to
    /// stderr only — artefact bytes are unaffected.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Sets the bounded-retry policy for panicking cells (default: two
    /// attempts). Retries re-run from the cell's original
    /// seed, so they can change whether output exists, never its bytes.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs a fault-injection plan (tests and the CI harness; the
    /// default plan injects nothing). Panic injections key on the global
    /// cell slot — the cell's position in the pooled job list across all
    /// scenarios of the call — and the 1-based attempt number.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the memory budget that DES cells pre-flight their predicted
    /// footprint against (default: unlimited). Over-budget cells first
    /// shed DES shards (output-invariant), then fail with a structured
    /// [`FailureKind::MemoryBudget`].
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory_budget = budget;
        self
    }

    /// Enables the crash-safe completion journal in `dir`
    /// (`dir/sweep.journal.jsonl`). If the journal already exists the
    /// run *resumes*: committed cells are replayed from the journal
    /// (after verifying the master seed, per-cell seeds, schema hashes
    /// and payload hashes) and only missing cells are recomputed — the
    /// assembled artefacts are byte-identical to an uninterrupted run.
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one scenario.
    ///
    /// # Errors
    ///
    /// Propagates grid expansion and cell evaluation failures (the first
    /// failing cell in canonical order wins).
    pub fn run(&self, scenario: &Scenario) -> Result<SweepReport, SweepError> {
        Ok(self
            .run_all(std::slice::from_ref(scenario))?
            .pop()
            .expect("run_all returns exactly one report per scenario"))
    }

    /// Runs several scenarios as **one** job pool: all cells of all
    /// scenarios share the worker threads, so a long tail in one scenario
    /// overlaps with the start of the next.
    ///
    /// # Errors
    ///
    /// Propagates grid expansion and cell evaluation failures.
    pub fn run_all(&self, scenarios: &[Scenario]) -> Result<Vec<SweepReport>, SweepError> {
        Ok(self.run_all_observed(scenarios)?.0)
    }

    /// As [`SweepRunner::run_all`], additionally returning one
    /// [`SweepObs`] instrumentation sidecar per scenario. The reports are
    /// byte-identical to the unobserved path: observation happens
    /// strictly after each cell's rows are computed and draws no
    /// randomness.
    ///
    /// # Errors
    ///
    /// As [`SweepRunner::run_all`].
    pub fn run_all_observed(
        &self,
        scenarios: &[Scenario],
    ) -> Result<(Vec<SweepReport>, Vec<SweepObs>), SweepError> {
        struct Job<'s> {
            slot: usize,
            scenario_index: usize,
            cell: SweepCell,
            seed: u64,
            scenario: &'s Scenario,
        }

        let mut jobs = Vec::new();
        let mut cell_counts = Vec::with_capacity(scenarios.len());
        for (scenario_index, scenario) in scenarios.iter().enumerate() {
            let cells = scenario.cells()?;
            cell_counts.push(cells.len());
            for cell in cells {
                // The cell seed mixes the scenario's name into the master
                // seed so re-ordering scenarios never re-seeds a cell.
                let scenario_seed = replication_seed(self.master_seed, hash_name(&scenario.name));
                let seed = replication_seed(scenario_seed, cell.index as u64);
                jobs.push(Job {
                    slot: jobs.len(),
                    scenario_index,
                    cell,
                    seed,
                    scenario,
                });
            }
        }

        let n_slots = jobs.len();
        let mut outcomes: Vec<Option<CellOutcome>> = (0..n_slots).map(|_| None).collect();
        // (scenario name, scenario index, cell index, seed) per slot, for
        // journaling completions and naming cells whose worker died.
        let slot_meta: Vec<(String, usize, usize, u64)> = jobs
            .iter()
            .map(|j| {
                (
                    j.scenario.name.clone(),
                    j.scenario_index,
                    j.cell.index,
                    j.seed,
                )
            })
            .collect();

        // Checkpoint/resume: replay an existing journal (prefilling
        // outcomes for committed cells) and open it for appending.
        let mut journal = match &self.journal_dir {
            None => None,
            Some(dir) => {
                let path = dir.join(JOURNAL_FILE);
                let columns_hash: Vec<u64> = scenarios
                    .iter()
                    .map(|s| fnv1a64(s.columns().join("\t").as_bytes()))
                    .collect();
                let by_key: HashMap<(&str, usize), usize> = slot_meta
                    .iter()
                    .enumerate()
                    .map(|(slot, (name, _, cell_index, _))| ((name.as_str(), *cell_index), slot))
                    .collect();
                if path.exists() {
                    let replay = Journal::replay(&path)?;
                    if replay.header.master_seed != self.master_seed {
                        return Err(SweepError::Journal(JournalError::Header {
                            path,
                            reason: format!(
                                "journal was written with master seed {:#x}, this run uses {:#x} \
                                 — refusing to mix sample paths",
                                replay.header.master_seed, self.master_seed
                            ),
                        }));
                    }
                    for (i, entry) in replay.entries.iter().enumerate() {
                        // Header is line 1; entry i is line i + 2.
                        let line = i + 2;
                        // Entries for scenarios outside this run (a wider
                        // earlier invocation) are stale, not corrupt.
                        let Some(&slot) =
                            by_key.get(&(entry.scenario.as_str(), entry.cell_index as usize))
                        else {
                            continue;
                        };
                        let (_, scenario_index, _, seed) = slot_meta[slot];
                        if entry.seed != seed {
                            return Err(SweepError::Journal(JournalError::Header {
                                path,
                                reason: format!(
                                    "cell {} of '{}' was journaled with seed {:#x} but this run \
                                     derives {:#x} — different run configuration",
                                    entry.cell_index, entry.scenario, entry.seed, seed
                                ),
                            }));
                        }
                        if entry.columns_hash != columns_hash[scenario_index] {
                            return Err(SweepError::Journal(JournalError::Header {
                                path,
                                reason: format!(
                                    "scenario '{}' changed its output schema since the journal \
                                     was written — delete the journal to restart",
                                    entry.scenario
                                ),
                            }));
                        }
                        let rows = decode_rows(&entry.payload).map_err(|reason| {
                            SweepError::Journal(JournalError::Corrupt {
                                path: path.clone(),
                                line,
                                reason,
                            })
                        })?;
                        outcomes[slot] = Some((scenario_index, Ok(rows), None));
                    }
                    Some((Journal::open_append(&path)?, columns_hash))
                } else {
                    let label: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
                    let header = JournalHeader::new(self.master_seed, &label.join(","));
                    Some((Journal::create(&path, &header)?, columns_hash))
                }
            }
        };

        // Only cells the journal did not already commit are enqueued.
        let jobs: Vec<Job<'_>> = jobs
            .into_iter()
            .filter(|j| outcomes[j.slot].is_none())
            .collect();
        let n_jobs = jobs.len();

        let (job_tx, job_rx) = mpsc::channel::<Job<'_>>();
        let (result_tx, result_rx) = mpsc::channel();
        for job in jobs {
            job_tx.send(job).expect("receiver alive");
        }
        drop(job_tx);
        let job_rx = Mutex::new(job_rx);

        let threads = self.threads;
        let retry = self.retry;
        let fault_plan = &self.fault_plan;
        let memory_budget = self.memory_budget;
        let mut journaled = 0u64;
        std::thread::scope(|scope| {
            for _ in 0..threads.min(n_jobs.max(1)) {
                let job_rx = &job_rx;
                let result_tx = result_tx.clone();
                scope.spawn(move || loop {
                    // Holding the lock only while popping keeps workers
                    // independent during evaluation; recovering from
                    // poison keeps one panicking worker (there should be
                    // none — cells evaluate under catch_unwind — but a
                    // worker can still die between cells) from cascading
                    // into every other worker. The queue itself is
                    // always in a consistent state: the critical section
                    // is a single try_recv.
                    let job = match job_rx
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .try_recv()
                    {
                        Ok(job) => job,
                        Err(_) => break,
                    };
                    let cell_start = std::time::Instant::now();
                    let rows = evaluate_resilient(
                        job.scenario,
                        &job.cell,
                        job.seed,
                        job.slot,
                        threads,
                        retry,
                        fault_plan,
                        &memory_budget,
                    );
                    let cell_seconds = cell_start.elapsed().as_secs_f64();
                    let keyed = rows.map(|rows| {
                        rows.into_iter()
                            .map(|row| {
                                let mut full = job.cell.key_values();
                                full.extend(row);
                                full
                            })
                            .collect::<Vec<_>>()
                    });
                    if result_tx
                        .send((job.slot, (job.scenario_index, keyed, Some(cell_seconds))))
                        .is_err()
                    {
                        break;
                    }
                });
            }
            drop(result_tx);
            let started = std::time::Instant::now();
            let mut done = 0usize;
            for (slot, outcome) in result_rx {
                // Commit successful cells to the journal before counting
                // them done: once the append returns, the cell survives
                // even SIGKILL.
                if let Some((journal, columns_hash)) = journal.as_mut() {
                    if let (scenario_index, Ok(rows), _) = &outcome {
                        let (name, _, cell_index, seed) = &slot_meta[slot];
                        let entry = JournalEntry::new(
                            name,
                            *cell_index as u64,
                            *seed,
                            columns_hash[*scenario_index],
                            encode_rows(rows),
                        );
                        if let Err(e) = journal.append(&entry) {
                            // Journaling is an aid, not a gate: warn and
                            // keep computing (the run itself is intact).
                            eprintln!("sweep: journal append failed: {e}");
                        } else {
                            journaled += 1;
                            if self.fault_plan.exit_after() == Some(journaled) {
                                // Fault injection: simulate SIGKILL
                                // between cells. Committed work stays on
                                // disk; everything in flight is lost.
                                std::process::exit(SIMULATED_KILL_EXIT_CODE);
                            }
                        }
                    }
                }
                outcomes[slot] = Some(outcome);
                done += 1;
                if self.progress {
                    // stderr only: progress never touches artefact bytes.
                    let elapsed = started.elapsed().as_secs_f64();
                    let eta = elapsed / done as f64 * (n_jobs - done) as f64;
                    eprintln!(
                        "sweep: {done}/{n_jobs} cells ({:.1}%) elapsed {elapsed:.1}s eta {eta:.1}s",
                        100.0 * done as f64 / n_jobs as f64,
                    );
                }
            }
        });

        let mut reports: Vec<SweepReport> = scenarios
            .iter()
            .map(|s| SweepReport {
                scenario: s.name.clone(),
                columns: s.columns(),
                rows: Vec::new(),
            })
            .collect();
        let mut obs: Vec<SweepObs> = scenarios
            .iter()
            .map(|s| SweepObs {
                scenario: s.name.clone(),
                registry: Registry::new(),
            })
            .collect();
        // Canonical slot order makes the span merge order — and thus the
        // sidecar's aggregate moments — independent of which worker
        // finished first. It also decides which failure surfaces when
        // several cells failed: the first in canonical order.
        for (slot, outcome) in outcomes.into_iter().enumerate() {
            // A missing slot means the worker died between dequeuing the
            // job and sending its result (evaluation itself is
            // panic-guarded, so this is a harness defect, not a model
            // one) — surface it as a structured failure naming the cell
            // rather than a second-hand panic.
            let (scenario_index, rows, cell_seconds) = outcome.unwrap_or_else(|| {
                let (name, scenario_index, cell_index, seed) = slot_meta[slot].clone();
                (
                    scenario_index,
                    Err(SweepError::Cell(CellFailure {
                        scenario: name,
                        cell_index,
                        seed,
                        attempts: 0,
                        kind: FailureKind::Panic(
                            "worker thread died without reporting a result".into(),
                        ),
                    })),
                    None,
                )
            });
            let rows = rows?;
            let registry = &mut obs[scenario_index].registry;
            registry.add("sweep.cells", 1);
            registry.add("sweep.rows", rows.len() as u64);
            if let Some(seconds) = cell_seconds {
                registry.span("sweep.cell_wall_s", seconds);
            }
            reports[scenario_index].rows.extend(rows);
        }
        for (report, count) in reports.iter_mut().zip(cell_counts) {
            debug_assert!(
                report.rows.len() >= count,
                "every cell contributes at least one row"
            );
        }
        Ok((reports, obs))
    }
}

/// One cell's full resilient evaluation: memory pre-flight (with shard
/// shedding), fault injection, panic isolation, bounded retry of panics
/// from the *same seed*, and structured failure assembly.
///
/// The pre-flight runs once: a refusal depends on the cell and the
/// budget alone. An evaluation error (invalid grid, singular system,
/// solver non-convergence, …) keeps its original [`SweepError`] after
/// one attempt, since re-running the same `(cell, seed)` replays the
/// same solves.
#[allow(clippy::too_many_arguments)]
fn evaluate_resilient(
    scenario: &Scenario,
    cell: &SweepCell,
    seed: u64,
    slot: usize,
    threads: usize,
    retry: RetryPolicy,
    fault_plan: &FaultPlan,
    memory_budget: &MemoryBudget,
) -> Result<Vec<Vec<Value>>, SweepError> {
    let failure = |kind, attempts| {
        SweepError::Cell(CellFailure {
            scenario: scenario.name.clone(),
            cell_index: cell.index,
            seed,
            attempts,
            kind,
        })
    };
    let shards = plan_shards(&scenario.kind, cell, threads, memory_budget)
        .map_err(|kind| failure(kind, 1))?;
    let outcome = run_with_retry(retry, |attempt| {
        catch_panic(|| {
            if fault_plan.should_panic(slot, attempt) {
                panic!("injected fault: panic-cell={slot}@{attempt}");
            }
            // The runner's thread count doubles as the DES shard count
            // (a sweep with few, large DES cells still uses every core)
            // unless the memory pre-flight shed shards; shard-invariance
            // keeps the bytes independent of it either way.
            scenario.kind.evaluate(cell, seed, shards)
        })
    });
    match outcome {
        Ok((rows, _attempts)) => rows,
        Err((kind, attempts)) => Err(failure(kind, attempts)),
    }
}

/// Memory pre-flight: picks the largest shard count whose predicted
/// footprint fits the budget, walking down a halving ladder from the
/// requested count (shedding shards never changes DES output bytes).
/// Kinds without a footprint prediction run at the requested count.
fn plan_shards(
    kind: &OutputKind,
    cell: &SweepCell,
    threads: usize,
    budget: &MemoryBudget,
) -> Result<usize, FailureKind> {
    if kind.predicted_memory_bytes(cell, threads).is_none() || budget.limit_bytes().is_none() {
        return Ok(threads);
    }
    let mut ladder = Vec::new();
    let mut shards = threads.max(1);
    loop {
        let predicted = kind
            .predicted_memory_bytes(cell, shards)
            .expect("prediction exists for this kind");
        ladder.push((shards, predicted));
        if shards == 1 {
            break;
        }
        shards /= 2;
    }
    budget.admit_degrading(ladder)
}

/// Stable FNV-1a hash of a scenario name (part of the seed derivation;
/// delegates to the workspace-standard [`fnv1a64`], which implements the
/// identical polynomial, so historical seeds are unchanged).
fn hash_name(name: &str) -> u64 {
    fnv1a64(name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OutputKind, ParamGrid};

    fn tiny_scenario() -> Scenario {
        Scenario::new(
            "tiny",
            "test grid",
            ParamGrid::paper().mu(vec![0.0, 0.2]).d(vec![0.3, 0.9]),
            OutputKind::Sojourns,
        )
    }

    fn des_scenario() -> Scenario {
        Scenario::new(
            "des",
            "small DES",
            ParamGrid::paper().mu(vec![0.2]).d(vec![0.9]),
            OutputKind::DesValidation {
                cluster_bits: vec![4],
                lambda: 1.0,
                max_events_per_cluster: 100,
                sigmas: 4.0,
            },
        )
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pollux-runner-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn rows_follow_canonical_cell_order() {
        let scenario = tiny_scenario();
        let report = SweepRunner::new().with_threads(4).run(&scenario).unwrap();
        assert_eq!(report.rows.len(), 4);
        let mu_col = report.column("mu").unwrap();
        let d_col = report.column("d").unwrap();
        let order: Vec<(f64, f64)> = report
            .rows
            .iter()
            .map(|r| (r[d_col].as_f64().unwrap(), r[mu_col].as_f64().unwrap()))
            .collect();
        assert_eq!(order, vec![(0.3, 0.0), (0.3, 0.2), (0.9, 0.0), (0.9, 0.2)]);
    }

    #[test]
    fn thread_count_never_changes_bytes() {
        let scenario = Scenario::new(
            "mc",
            "monte-carlo determinism",
            ParamGrid::paper().mu(vec![0.1, 0.2]).d(vec![0.8]),
            OutputKind::McValidation {
                replications: 300,
                sigmas: 4.0,
            },
        );
        let one = SweepRunner::new().with_threads(1).run(&scenario).unwrap();
        let many = SweepRunner::new().with_threads(8).run(&scenario).unwrap();
        assert_eq!(one.to_tsv(), many.to_tsv());
    }

    #[test]
    fn run_all_pools_scenarios_without_cross_talk() {
        let a = tiny_scenario();
        let b = Scenario::new(
            "abs",
            "absorption",
            ParamGrid::paper().mu(vec![0.3]).d(vec![0.9]),
            OutputKind::Absorption,
        );
        let pooled = SweepRunner::new()
            .with_threads(3)
            .run_all(&[a.clone(), b.clone()])
            .unwrap();
        let solo_a = SweepRunner::new().with_threads(1).run(&a).unwrap();
        let solo_b = SweepRunner::new().with_threads(1).run(&b).unwrap();
        assert_eq!(pooled[0], solo_a);
        assert_eq!(pooled[1], solo_b);
    }

    #[test]
    fn master_seed_changes_only_monte_carlo_output() {
        let analytic = tiny_scenario();
        let r1 = SweepRunner::new().with_seed(1).run(&analytic).unwrap();
        let r2 = SweepRunner::new().with_seed(2).run(&analytic).unwrap();
        assert_eq!(r1, r2);

        let mc = Scenario::new(
            "mc",
            "seeded",
            ParamGrid::paper().mu(vec![0.2]).d(vec![0.8]),
            OutputKind::McValidation {
                replications: 200,
                sigmas: 4.0,
            },
        );
        let m1 = SweepRunner::new().with_seed(1).run(&mc).unwrap();
        let m2 = SweepRunner::new().with_seed(2).run(&mc).unwrap();
        assert_ne!(m1.f64(0, "sim_T_S"), m2.f64(0, "sim_T_S"));
    }

    #[test]
    fn observed_run_matches_plain_run_and_populates_the_sidecar() {
        let scenario = tiny_scenario();
        let runner = SweepRunner::new().with_threads(4);
        let plain = runner.run_all(std::slice::from_ref(&scenario)).unwrap();
        let (observed, obs) = runner
            .run_all_observed(std::slice::from_ref(&scenario))
            .unwrap();
        assert_eq!(plain, observed);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].scenario, "tiny");
        assert_eq!(obs[0].registry.counter("sweep.cells"), Some(4));
        assert_eq!(
            obs[0].registry.counter("sweep.rows"),
            Some(observed[0].rows.len() as u64)
        );
        let span = obs[0].registry.span_stats("sweep.cell_wall_s").unwrap();
        assert_eq!(span.count(), 4);
    }

    #[test]
    fn grid_errors_propagate() {
        let bad = Scenario::new(
            "bad",
            "invalid",
            ParamGrid::paper().mu(vec![2.0]),
            OutputKind::Sojourns,
        );
        assert!(SweepRunner::new().run(&bad).is_err());
    }

    #[test]
    fn injected_panics_recover_via_retry_byte_identically() {
        let scenario = tiny_scenario();
        let clean = SweepRunner::new().with_threads(2).run(&scenario).unwrap();
        // Panic cells 0 and 3 on their first attempt: the default
        // two-attempt policy recovers both from the same seed.
        let plan = FaultPlan::parse("panic-cell=0@1,panic-cell=3@1").unwrap();
        let faulted = SweepRunner::new()
            .with_threads(2)
            .with_fault_plan(plan)
            .run(&scenario)
            .unwrap();
        assert_eq!(clean.to_tsv(), faulted.to_tsv());
    }

    #[test]
    fn persistent_panic_names_the_failing_cell_and_others_complete() {
        let scenario = tiny_scenario();
        // Cell 2 panics on both attempts — past the retry budget.
        let plan = FaultPlan::parse("panic-cell=2@1,panic-cell=2@2").unwrap();
        let err = SweepRunner::new()
            .with_threads(2)
            .with_fault_plan(plan)
            .run(&scenario)
            .unwrap_err();
        match err {
            SweepError::Cell(failure) => {
                assert_eq!(failure.scenario, "tiny");
                assert_eq!(failure.cell_index, 2);
                assert_eq!(failure.attempts, 2);
                assert!(matches!(failure.kind, FailureKind::Panic(_)));
                assert!(failure.to_string().contains("injected fault"));
            }
            other => panic!("expected Cell failure, got {other}"),
        }
    }

    #[test]
    fn journal_resume_is_byte_identical_and_skips_completed_cells() {
        let dir = temp_dir("resume");
        let scenario = tiny_scenario();
        let clean = SweepRunner::new().with_threads(1).run(&scenario).unwrap();

        // Full journaled run…
        let full = SweepRunner::new()
            .with_threads(1)
            .with_journal_dir(&dir)
            .run(&scenario)
            .unwrap();
        assert_eq!(clean.to_tsv(), full.to_tsv());
        let journal_path = dir.join(JOURNAL_FILE);
        assert!(journal_path.exists());

        // …then simulate a crash after two committed cells by chopping
        // the journal, and resume.
        let text = std::fs::read_to_string(&journal_path).unwrap();
        let keep: Vec<&str> = text.lines().take(3).collect(); // header + 2 cells
        std::fs::write(&journal_path, keep.join("\n") + "\n").unwrap();
        // Panic the journaled cells unconditionally: if resume tried to
        // recompute them, the run would fail — completing proves the
        // journal supplied them.
        let plan = FaultPlan::parse("panic-cell=0@1,panic-cell=0@2,panic-cell=1@1,panic-cell=1@2")
            .unwrap();
        let (resumed, obs) = SweepRunner::new()
            .with_threads(1)
            .with_journal_dir(&dir)
            .with_fault_plan(plan)
            .run_all_observed(std::slice::from_ref(&scenario))
            .unwrap();
        assert_eq!(clean.to_tsv(), resumed[0].to_tsv());
        // Every cell counts, but only the two this run evaluated have a
        // wall time: replayed cells must not enter the span as 0 s.
        assert_eq!(obs[0].registry.counter("sweep.cells"), Some(4));
        let span = obs[0].registry.span_stats("sweep.cell_wall_s").unwrap();
        assert_eq!(span.count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_under_a_different_master_seed_is_refused() {
        let dir = temp_dir("seed-mismatch");
        let scenario = tiny_scenario();
        SweepRunner::new()
            .with_seed(1)
            .with_journal_dir(&dir)
            .run(&scenario)
            .unwrap();
        let err = SweepRunner::new()
            .with_seed(2)
            .with_journal_dir(&dir)
            .run(&scenario)
            .unwrap_err();
        assert!(matches!(err, SweepError::Journal(_)), "{err}");
        assert!(err.to_string().contains("master seed"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_budget_sheds_shards_without_changing_bytes() {
        let scenario = des_scenario();
        let unlimited = SweepRunner::new().with_threads(4).run(&scenario).unwrap();
        // The 2^4-cluster DES tables are tiny (~10 KiB); 2 MiB admits
        // the tables plus one shard's working set, forcing the ladder
        // down from 4 shards — and shard count never changes bytes.
        let shed = SweepRunner::new()
            .with_threads(4)
            .with_memory_budget(MemoryBudget::bytes(2 << 20))
            .run(&scenario)
            .unwrap();
        assert_eq!(unlimited.to_tsv(), shed.to_tsv());
    }

    #[test]
    fn exhausted_memory_budget_is_a_structured_refusal() {
        let scenario = des_scenario();
        let err = SweepRunner::new()
            .with_threads(2)
            .with_memory_budget(MemoryBudget::bytes(1))
            .run(&scenario)
            .unwrap_err();
        match err {
            SweepError::Cell(failure) => {
                assert_eq!(failure.scenario, "des");
                assert!(matches!(failure.kind, FailureKind::MemoryBudget { .. }));
                // A refusal depends on the cell and the budget alone, so
                // it is never retried.
                assert_eq!(failure.attempts, 1);
                let msg = failure.to_string();
                assert!(msg.contains("memory budget"), "{msg}");
            }
            other => panic!("expected Cell failure, got {other}"),
        }
        // Analytical kinds have no prediction and are never refused.
        assert!(SweepRunner::new()
            .with_memory_budget(MemoryBudget::bytes(1))
            .run(&tiny_scenario())
            .is_ok());
    }
}
