//! End-to-end resilience proof for the crash-safe sweep path.
//!
//! The property at the heart of `--resume`: for ANY scenario, ANY kill
//! point (simulated by truncating the journal at an entry boundary, with
//! or without the torn tail line a real `SIGKILL` leaves behind), ANY
//! retry budget and ANY thread count, the resumed run's artefacts are
//! **byte-identical** to an uninterrupted single-thread run. Proptest
//! drives that quantifier; the deterministic tests below it pin the loud
//! failure modes (corrupt journals must name the file and refuse).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use pollux_resilience::{FaultPlan, JournalError, RetryPolicy};
use pollux_sweep::{
    OutputKind, ParamGrid, Scenario, SweepError, SweepReport, SweepRunner, JOURNAL_FILE,
};
use proptest::prelude::*;

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh per-case scratch directory (proptest reuses the process, so a
/// plain pid-based name would collide across cases).
fn scratch_dir() -> PathBuf {
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("pollux-resilience-it-{}-{id}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small, fast scenarios covering an analytic kind, a second analytic
/// schema, and a seed-consuming Monte-Carlo kind.
fn scenario(index: usize) -> Scenario {
    match index {
        0 => Scenario::new(
            "tiny",
            "sojourn grid",
            ParamGrid::paper().mu(vec![0.0, 0.2]).d(vec![0.3, 0.9]),
            OutputKind::Sojourns,
        ),
        1 => Scenario::new(
            "abs",
            "absorption",
            ParamGrid::paper().mu(vec![0.0, 0.3]).d(vec![0.9]),
            OutputKind::Absorption,
        ),
        _ => Scenario::new(
            "mc",
            "monte-carlo",
            ParamGrid::paper().mu(vec![0.1]).d(vec![0.8]),
            OutputKind::McValidation {
                replications: 120,
                sigmas: 4.0,
            },
        ),
    }
}

/// Every artefact byte a run would emit, in one comparable string.
fn artefact_bytes(reports: &[SweepReport]) -> String {
    reports
        .iter()
        .map(|r| format!("{}\n{}", r.to_tsv(), r.to_json()))
        .collect()
}

/// Truncates the journal to its header plus `keep` entries, optionally
/// leaving the torn half-line a mid-append kill produces.
fn chop_journal(dir: &Path, keep: usize, torn_tail: bool) {
    let path = dir.join(JOURNAL_FILE);
    let text = fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let keep = keep.min(lines.len().saturating_sub(1));
    let mut out = String::new();
    for line in &lines[..=keep] {
        out.push_str(line);
        out.push('\n');
    }
    if torn_tail {
        if let Some(next) = lines.get(keep + 1) {
            out.push_str(&next[..next.len() / 2]);
        }
    }
    fs::write(&path, out).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn killed_and_resumed_runs_are_byte_identical(
        scenario_index in 0usize..3,
        kill_after in 0usize..5,
        torn_tail in any::<bool>(),
        retries in 0u32..3,
        threads in 1usize..4,
        seed in (0usize..3).prop_map(|i| [7u64, 42, 20_110_627][i]),
    ) {
        let s = scenario(scenario_index);

        // The oracle: an uninterrupted, unjournaled single-thread run.
        let clean = SweepRunner::new()
            .with_threads(1)
            .with_seed(seed)
            .run_all(std::slice::from_ref(&s))
            .unwrap();
        let want = artefact_bytes(&clean);

        // A journaled run writes the same bytes…
        let dir = scratch_dir();
        let journaled = SweepRunner::new()
            .with_threads(threads)
            .with_seed(seed)
            .with_journal_dir(&dir)
            .run_all(std::slice::from_ref(&s))
            .unwrap();
        prop_assert_eq!(&artefact_bytes(&journaled), &want);

        // …and after a kill at an arbitrary point (any completed-entry
        // count, with or without a torn tail line), resuming still does.
        chop_journal(&dir, kill_after, torn_tail);
        let resumed = SweepRunner::new()
            .with_threads(threads)
            .with_seed(seed)
            .with_journal_dir(&dir)
            .with_retry(RetryPolicy::new(retries + 1))
            .run_all(std::slice::from_ref(&s))
            .unwrap();
        prop_assert_eq!(&artefact_bytes(&resumed), &want);

        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn resume_replays_journaled_cells_without_recomputing() {
    // After a complete journaled run, every cell is on disk. Resuming
    // with a plan that panics EVERY slot on its only attempt can only
    // succeed if no cell is ever re-evaluated.
    let s = scenario(0);
    let dir = scratch_dir();
    let first = SweepRunner::new()
        .with_threads(2)
        .with_journal_dir(&dir)
        .run_all(std::slice::from_ref(&s))
        .unwrap();

    let sabotage = FaultPlan {
        panic_cells: (0..4).map(|slot| (slot, 1)).collect(),
        exit_after_cells: None,
    };
    let resumed = SweepRunner::new()
        .with_threads(2)
        .with_journal_dir(&dir)
        .with_retry(RetryPolicy::new(1))
        .with_fault_plan(sabotage)
        .run_all(std::slice::from_ref(&s))
        .unwrap();
    assert_eq!(artefact_bytes(&resumed), artefact_bytes(&first));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_journal_refuses_loudly_and_names_the_file() {
    let s = scenario(0);
    let dir = scratch_dir();
    SweepRunner::new()
        .with_threads(1)
        .with_journal_dir(&dir)
        .run_all(std::slice::from_ref(&s))
        .unwrap();

    // Flip a committed entry line into junk that is still a full line —
    // this is tampering/bit-rot, not a crash signature, and must refuse.
    let path = dir.join(JOURNAL_FILE);
    let text = fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert!(lines.len() >= 2, "journaled run produced no entries");
    lines[1] = lines[1].replacen('{', "[", 1);
    fs::write(&path, lines.join("\n") + "\n").unwrap();

    let err = SweepRunner::new()
        .with_threads(1)
        .with_journal_dir(&dir)
        .run_all(std::slice::from_ref(&s))
        .unwrap_err();
    match &err {
        SweepError::Journal(JournalError::Corrupt { path: p, line, .. }) => {
            assert_eq!(p, &path);
            assert_eq!(*line, 2);
        }
        other => panic!("expected a journal corruption error, got: {other}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains(JOURNAL_FILE) && msg.contains("refusing to resume"),
        "message must name the file and refuse: {msg}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_transient_panic_heals_and_persistent_panic_reports() {
    let s = scenario(0);

    let clean = SweepRunner::new()
        .with_threads(1)
        .run_all(std::slice::from_ref(&s))
        .unwrap();

    // One first-attempt panic: deterministic retry absorbs it without
    // changing a byte.
    let healed = SweepRunner::new()
        .with_threads(2)
        .with_fault_plan(FaultPlan::parse("panic-cell=1@1").unwrap())
        .with_retry(RetryPolicy::new(2))
        .run_all(std::slice::from_ref(&s))
        .unwrap();
    assert_eq!(artefact_bytes(&healed), artefact_bytes(&clean));

    // Panic on every attempt: the run fails with a structured report
    // naming the cell, scenario and attempt count.
    let err = SweepRunner::new()
        .with_threads(2)
        .with_fault_plan(FaultPlan::parse("panic-cell=1@1,panic-cell=1@2").unwrap())
        .with_retry(RetryPolicy::new(2))
        .run_all(std::slice::from_ref(&s))
        .unwrap_err();
    let SweepError::Cell(failure) = &err else {
        panic!("expected a structured cell failure, got: {err}");
    };
    assert_eq!(failure.scenario, "tiny");
    assert_eq!(failure.cell_index, 1);
    assert_eq!(failure.attempts, 2);
}
