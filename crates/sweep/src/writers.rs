//! Artefact writers: one TSV/JSON file per report under an output
//! directory (the sink `reproduce_all` writes through). Files land via
//! tmp-and-rename ([`pollux_resilience::atomic_write`]), so a crash or
//! injected kill mid-write can never leave a torn artefact behind — a
//! later `--resume` run sees either the complete previous file or none.

use std::fs;
use std::path::{Path, PathBuf};

use pollux_resilience::atomic_write;

use crate::{SweepError, SweepReport};

/// On-disk artefact formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Tab-separated values (the default, diff-friendly).
    Tsv,
    /// A JSON object per report.
    Json,
    /// Both TSV and JSON.
    Both,
}

impl OutputFormat {
    /// Parses a `--format` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tsv" => Some(OutputFormat::Tsv),
            "json" => Some(OutputFormat::Json),
            "both" => Some(OutputFormat::Both),
            _ => None,
        }
    }
}

/// Writes `report` as `<dir>/<scenario>.tsv`, creating `dir` as needed.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_tsv(report: &SweepReport, dir: &Path) -> Result<PathBuf, SweepError> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.tsv", report.scenario));
    atomic_write(&path, report.to_tsv().as_bytes())?;
    Ok(path)
}

/// Writes `report` as `<dir>/<scenario>.json`, creating `dir` as needed.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_json(report: &SweepReport, dir: &Path) -> Result<PathBuf, SweepError> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", report.scenario));
    atomic_write(&path, report.to_json().as_bytes())?;
    Ok(path)
}

/// Writes `report` in `format`, returning the paths written.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_report(
    report: &SweepReport,
    dir: &Path,
    format: OutputFormat,
) -> Result<Vec<PathBuf>, SweepError> {
    let mut paths = Vec::new();
    if matches!(format, OutputFormat::Tsv | OutputFormat::Both) {
        paths.push(write_tsv(report, dir)?);
    }
    if matches!(format, OutputFormat::Json | OutputFormat::Both) {
        paths.push(write_json(report, dir)?);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn report() -> SweepReport {
        SweepReport {
            scenario: "writer_demo".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![vec![Value::U64(1), Value::F64(0.5)]],
        }
    }

    #[test]
    fn writes_both_formats() {
        let dir = std::env::temp_dir().join(format!("pollux-sweep-writers-{}", std::process::id()));
        let paths = write_report(&report(), &dir, OutputFormat::Both).unwrap();
        assert_eq!(paths.len(), 2);
        let tsv = fs::read_to_string(&paths[0]).unwrap();
        assert_eq!(tsv, "a\tb\n1\t0.5\n");
        let json = fs::read_to_string(&paths[1]).unwrap();
        assert!(json.contains("\"writer_demo\""));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn format_parsing() {
        assert_eq!(OutputFormat::parse("tsv"), Some(OutputFormat::Tsv));
        assert_eq!(OutputFormat::parse("json"), Some(OutputFormat::Json));
        assert_eq!(OutputFormat::parse("both"), Some(OutputFormat::Both));
        assert_eq!(OutputFormat::parse("xml"), None);
    }
}
