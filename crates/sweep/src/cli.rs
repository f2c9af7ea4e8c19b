//! The sweep command line of the `reproduce_all` front-end:
//! `--threads N --seed S --out-dir DIR --format tsv|json|both [names…]`.

use std::path::PathBuf;

use crate::OutputFormat;

/// Parsed common arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Worker threads (defaults to the machine's parallelism).
    pub threads: Option<usize>,
    /// Master seed override.
    pub seed: Option<u64>,
    /// Artefact directory; `None` prints each report as a table.
    pub out_dir: Option<PathBuf>,
    /// Artefact format (default TSV).
    pub format: OutputFormat,
    /// Directory for `<scenario>.metrics.json` instrumentation sidecars
    /// (`--metrics-dir`); `None` means no sidecars. Keep this distinct
    /// from `out_dir` when artefact directories are diffed for
    /// determinism — sidecars carry wall times.
    pub metrics_dir: Option<PathBuf>,
    /// Per-cell progress/ETA on stderr (`--progress`).
    pub progress: bool,
    /// Include beyond-paper scenarios (`--extended`).
    pub extended: bool,
    /// List scenarios and exit (`--list`).
    pub list: bool,
    /// Crash-safe mode (`--resume DIR`): journal completed cells to
    /// `DIR/sweep.journal.jsonl`, replaying any existing journal first so
    /// only missing cells are recomputed. Output is byte-identical to an
    /// uninterrupted run.
    pub resume: Option<PathBuf>,
    /// Extra evaluation attempts after a panicking cell
    /// (`--retries N`; default 1). Retries re-run from the cell's
    /// original seed, so they never change output bytes.
    pub retries: Option<u32>,
    /// Memory budget DES cells pre-flight against (`--mem-budget-bytes
    /// B`; unlimited when absent).
    pub mem_budget_bytes: Option<u64>,
    /// Positional scenario names (empty = every paper artefact).
    pub scenarios: Vec<String>,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            threads: None,
            seed: None,
            out_dir: None,
            format: OutputFormat::Tsv,
            metrics_dir: None,
            progress: false,
            extended: false,
            list: false,
            resume: None,
            retries: None,
            mem_budget_bytes: None,
            scenarios: Vec::new(),
        }
    }
}

/// The usage string appended to parse errors and `--help`.
pub const USAGE: &str = "options:
  --threads N          worker threads (default: all cores)
  --seed S             master seed for Monte-Carlo scenarios
  --out-dir DIR        write artefacts under DIR (default: print tables)
  --format FMT         artefact format: tsv | json | both (default tsv)
  --metrics-dir DIR    write <scenario>.metrics.json sidecars under DIR
  --progress           per-cell progress/ETA on stderr
  --extended           include beyond-paper scenarios
  --list               list available scenarios and exit
  --resume DIR         crash-safe mode: journal completed cells under DIR
                       and resume from an existing journal (output is
                       byte-identical to an uninterrupted run)
  --retries N          extra attempts after a panicking cell
                       (default 1; same seed, so bytes never change)
  --mem-budget-bytes B refuse/degrade DES cells whose predicted footprint
                       exceeds B bytes (default: unlimited)
  --help               this message
  [NAME…]              scenario names to run (default: every paper artefact)";

impl SweepArgs {
    /// Parses `std::env::args().skip(1)`-style arguments.
    ///
    /// # Errors
    ///
    /// A human-readable message (print it with [`USAGE`] and exit).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = SweepArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
                    if n == 0 {
                        return Err("--threads must be >= 1".into());
                    }
                    out.threads = Some(n);
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = Some(v.parse().map_err(|_| format!("bad seed '{v}'"))?);
                }
                "--out-dir" => {
                    let v = it.next().ok_or("--out-dir needs a value")?;
                    out.out_dir = Some(PathBuf::from(v));
                }
                "--format" => {
                    let v = it.next().ok_or("--format needs a value")?;
                    out.format = OutputFormat::parse(&v)
                        .ok_or_else(|| format!("bad format '{v}' (tsv | json | both)"))?;
                }
                "--metrics-dir" => {
                    let v = it.next().ok_or("--metrics-dir needs a value")?;
                    out.metrics_dir = Some(PathBuf::from(v));
                }
                "--progress" => out.progress = true,
                "--extended" => out.extended = true,
                "--list" => out.list = true,
                "--resume" => {
                    let v = it.next().ok_or("--resume needs a directory")?;
                    out.resume = Some(PathBuf::from(v));
                }
                "--retries" => {
                    let v = it.next().ok_or("--retries needs a value")?;
                    out.retries = Some(v.parse().map_err(|_| format!("bad retry count '{v}'"))?);
                }
                "--mem-budget-bytes" => {
                    let v = it.next().ok_or("--mem-budget-bytes needs a value")?;
                    out.mem_budget_bytes =
                        Some(v.parse().map_err(|_| format!("bad byte budget '{v}'"))?);
                }
                "--help" | "-h" => return Err("help".into()),
                name if !name.starts_with('-') => out.scenarios.push(name.to_string()),
                unknown => return Err(format!("unknown flag '{unknown}'")),
            }
        }
        Ok(out)
    }

    /// Builds the runner these arguments describe, with the fault plan
    /// of the `POLLUX_FAULT` environment variable (CI's fault-injection
    /// hook; see [`pollux_resilience::FaultPlan`]).
    ///
    /// # Errors
    ///
    /// A human-readable message when `POLLUX_FAULT` is set but
    /// malformed: a typo'd plan must not silently become "no faults".
    pub fn runner(&self) -> Result<crate::SweepRunner, String> {
        let mut runner = crate::SweepRunner::new();
        if let Some(threads) = self.threads {
            runner = runner.with_threads(threads);
        }
        if let Some(seed) = self.seed {
            runner = runner.with_seed(seed);
        }
        if let Some(dir) = &self.resume {
            runner = runner.with_journal_dir(dir);
        }
        if let Some(retries) = self.retries {
            runner = runner.with_retry(pollux_resilience::RetryPolicy::new(retries + 1));
        }
        if let Some(bytes) = self.mem_budget_bytes {
            runner = runner.with_memory_budget(pollux_resilience::MemoryBudget::bytes(bytes));
        }
        let plan = pollux_resilience::FaultPlan::from_env()?;
        if !plan.is_empty() {
            runner = runner.with_fault_plan(plan);
        }
        Ok(runner.with_progress(self.progress))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        SweepArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn full_flag_set() {
        let args = parse(&[
            "--threads",
            "8",
            "--seed",
            "42",
            "--out-dir",
            "out",
            "--format",
            "both",
            "--metrics-dir",
            "obs",
            "--progress",
            "--extended",
            "fig3",
            "table1",
        ])
        .unwrap();
        assert_eq!(args.threads, Some(8));
        assert_eq!(args.seed, Some(42));
        assert_eq!(args.out_dir.as_deref(), Some(std::path::Path::new("out")));
        assert_eq!(args.format, OutputFormat::Both);
        assert_eq!(
            args.metrics_dir.as_deref(),
            Some(std::path::Path::new("obs"))
        );
        assert!(args.progress);
        assert!(args.extended);
        assert_eq!(args.scenarios, vec!["fig3", "table1"]);
    }

    #[test]
    fn defaults_are_empty() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, SweepArgs::default());
    }

    #[test]
    fn errors_are_actionable() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "zero"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--format", "xml"]).is_err());
        assert!(parse(&["--metrics-dir"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert_eq!(parse(&["--help"]).unwrap_err(), "help");
    }

    #[test]
    fn runner_reflects_flags() {
        let runner = parse(&["--threads", "3"]).unwrap().runner().unwrap();
        assert_eq!(runner.threads(), 3);
    }

    #[test]
    fn resilience_flags_parse_and_reject_garbage() {
        let args = parse(&[
            "--resume",
            "ckpt",
            "--retries",
            "3",
            "--mem-budget-bytes",
            "1048576",
        ])
        .unwrap();
        assert_eq!(args.resume.as_deref(), Some(std::path::Path::new("ckpt")));
        assert_eq!(args.retries, Some(3));
        assert_eq!(args.mem_budget_bytes, Some(1_048_576));
        assert!(parse(&["--resume"]).is_err());
        assert!(parse(&["--retries", "many"]).is_err());
        assert!(parse(&["--mem-budget-bytes", "-5"]).is_err());
    }
}
