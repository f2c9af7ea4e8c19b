//! The crash-safe completion journal: append-only JSONL with per-line
//! commit semantics, content hashing, and loud corruption failures.
//!
//! A resilient sweep appends one line per *completed* unit of work
//! (cell key + seed + FNV-64 content hash + the unit's encoded output
//! payload). The line is flushed and synced before the unit counts as
//! committed, so a crash — even `SIGKILL` — loses at most the line
//! being appended. On resume, replay tolerates exactly that one
//! incomplete tail line (no trailing newline ⇒ the append never
//! committed ⇒ the unit simply re-runs); every *other* malformation —
//! a truncated line in the middle, malformed JSON, a payload whose
//! hash does not match — is corruption and fails loudly with the file
//! and line number named. Silent partial resume is the one behaviour
//! this module must never exhibit.
//!
//! Whole-file artefacts (final TSV/JSON reports) go through
//! [`atomic_write`] instead: write to a sibling temp file, sync, then
//! rename over the target, so readers never observe a half-written
//! artefact.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::json::{self, Json};

/// Stable FNV-1a 64-bit hash (the workspace's standard content hash —
/// the same scheme the sweep runner uses for scenario-name seeding).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Journal failures: IO, a bad header, or corruption (always naming the
/// file, and the line for corruption).
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem failure on `path`.
    Io {
        /// The journal file involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The header line is missing, malformed, or from an incompatible
    /// journal version.
    Header {
        /// The journal file involved.
        path: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
    /// A committed line (i.e. one terminated by a newline) is malformed
    /// or its payload hash does not match — the journal is corrupt and
    /// must not be silently resumed from.
    Corrupt {
        /// The journal file involved.
        path: PathBuf,
        /// 1-based line number of the corrupt line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal {}: {source}", path.display())
            }
            JournalError::Header { path, reason } => {
                write!(f, "journal {}: bad header: {reason}", path.display())
            }
            JournalError::Corrupt { path, line, reason } => write!(
                f,
                "journal {} is corrupt at line {line}: {reason} \
                 (refusing to resume; delete the file to restart from scratch)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The journal's first line: format version plus the run configuration
/// a resume must match (resuming under a different master seed would
/// silently mix incompatible sample paths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Journal format version (currently 1).
    pub version: u64,
    /// The sweep's master seed.
    pub master_seed: u64,
    /// Free-form run label (binary name, scenario set, …).
    pub label: String,
}

impl JournalHeader {
    /// A version-1 header.
    #[must_use]
    pub fn new(master_seed: u64, label: &str) -> Self {
        JournalHeader {
            version: 1,
            master_seed,
            label: label.to_string(),
        }
    }

    fn to_line(&self) -> String {
        format!(
            "{{\"pollux_journal\":{},\"master_seed\":{},\"label\":\"{}\"}}",
            self.version,
            self.master_seed,
            json::escape(&self.label)
        )
    }

    fn parse(line: &str) -> Result<Self, String> {
        let line = parse_line(line)?;
        Ok(JournalHeader {
            version: field(&line, "pollux_journal", Json::as_u64)?,
            master_seed: field(&line, "master_seed", Json::as_u64)?,
            label: field(&line, "label", Json::as_str)?.to_string(),
        })
    }
}

/// One committed unit of work: its key (scenario, cell index, seed), a
/// hash of the output-schema columns, the FNV-64 hash of the payload,
/// and the payload itself (the unit's encoded output bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Owning scenario name.
    pub scenario: String,
    /// Cell index in the scenario's canonical expansion order.
    pub cell_index: u64,
    /// The cell's deterministic seed (resume re-derives it and refuses
    /// entries that disagree — they belong to a different run config).
    pub seed: u64,
    /// FNV-64 of the scenario's output column names, guarding against
    /// resuming across a schema change.
    pub columns_hash: u64,
    /// FNV-64 of `payload`.
    pub hash: u64,
    /// The unit's encoded output (opaque to the journal).
    pub payload: String,
}

impl JournalEntry {
    /// Builds an entry, computing the payload hash.
    #[must_use]
    pub fn new(
        scenario: &str,
        cell_index: u64,
        seed: u64,
        columns_hash: u64,
        payload: String,
    ) -> Self {
        let hash = fnv1a64(payload.as_bytes());
        JournalEntry {
            scenario: scenario.to_string(),
            cell_index,
            seed,
            columns_hash,
            hash,
            payload,
        }
    }

    fn to_line(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"cell\":{},\"seed\":{},\"columns\":{},\"hash\":{},\"payload\":\"{}\"}}",
            json::escape(&self.scenario),
            self.cell_index,
            self.seed,
            self.columns_hash,
            self.hash,
            json::escape(&self.payload)
        )
    }

    fn parse(line: &str) -> Result<Self, String> {
        let line = parse_line(line)?;
        let entry = JournalEntry {
            scenario: field(&line, "scenario", Json::as_str)?.to_string(),
            cell_index: field(&line, "cell", Json::as_u64)?,
            seed: field(&line, "seed", Json::as_u64)?,
            columns_hash: field(&line, "columns", Json::as_u64)?,
            hash: field(&line, "hash", Json::as_u64)?,
            payload: field(&line, "payload", Json::as_str)?.to_string(),
        };
        let actual = fnv1a64(entry.payload.as_bytes());
        if actual != entry.hash {
            return Err(format!(
                "payload hash mismatch (recorded {:#x}, actual {:#x})",
                entry.hash, actual
            ));
        }
        Ok(entry)
    }
}

/// The result of replaying a journal file.
#[derive(Debug)]
pub struct JournalReplay {
    /// The parsed header.
    pub header: JournalHeader,
    /// Every committed (newline-terminated, hash-verified) entry.
    pub entries: Vec<JournalEntry>,
    /// `true` when the file ended in a partial line — the signature of
    /// a crash mid-append. The partial unit simply re-runs.
    pub dropped_partial_tail: bool,
}

/// An open, append-mode completion journal.
///
/// Created fresh with [`Journal::create`] (writes the header) or opened
/// for continuation with [`Journal::open_append`] after a successful
/// [`Journal::replay`].
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: BufWriter<File>,
}

impl Journal {
    /// Creates (truncating) the journal at `path` and commits the header
    /// line.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Self, JournalError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|source| JournalError::Io {
                path: path.to_path_buf(),
                source,
            })?;
        }
        let file = File::create(path).map_err(|source| JournalError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let mut journal = Journal {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
        };
        journal.commit_line(&header.to_line())?;
        Ok(journal)
    }

    /// Opens an existing journal for appending (validate it first with
    /// [`Journal::replay`]). If the file ends in a partial line from a
    /// crash mid-append, the tail is truncated away so the next append
    /// starts on a clean line boundary.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure.
    pub fn open_append(path: &Path) -> Result<Self, JournalError> {
        let io_err = |source| JournalError::Io {
            path: path.to_path_buf(),
            source,
        };
        let bytes = std::fs::read(path).map_err(io_err)?;
        let committed = match bytes.iter().rposition(|&b| b == b'\n') {
            Some(last_newline) => last_newline + 1,
            None => 0,
        };
        let file = OpenOptions::new().write(true).open(path).map_err(io_err)?;
        file.set_len(committed as u64).map_err(io_err)?;
        let mut file = file;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0)).map_err(io_err)?;
        Ok(Journal {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
        })
    }

    /// Appends and durably commits one entry (flush + `sync_data`): when
    /// this returns `Ok`, the entry survives `SIGKILL`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), JournalError> {
        self.commit_line(&entry.to_line())
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn commit_line(&mut self, line: &str) -> Result<(), JournalError> {
        let io_err = |source| JournalError::Io {
            path: self.path.clone(),
            source,
        };
        self.writer.write_all(line.as_bytes()).map_err(io_err)?;
        self.writer.write_all(b"\n").map_err(io_err)?;
        self.writer.flush().map_err(io_err)?;
        self.writer.get_ref().sync_data().map_err(io_err)
    }

    /// Replays the journal at `path`: parses the header, verifies every
    /// committed line's structure and payload hash, and drops at most
    /// one partial tail line.
    ///
    /// # Errors
    ///
    /// * [`JournalError::Io`] — the file cannot be read.
    /// * [`JournalError::Header`] — the header line is missing/invalid.
    /// * [`JournalError::Corrupt`] — a committed line is malformed or
    ///   fails hash verification (file and line named; never silently
    ///   skipped).
    pub fn replay(path: &Path) -> Result<JournalReplay, JournalError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|source| JournalError::Io {
                path: path.to_path_buf(),
                source,
            })?;
        let text = String::from_utf8(bytes).map_err(|e| JournalError::Header {
            path: path.to_path_buf(),
            reason: format!("not UTF-8: {e}"),
        })?;

        let dropped_partial_tail = !text.is_empty() && !text.ends_with('\n');
        let mut lines: Vec<&str> = text.split('\n').collect();
        // split leaves either a trailing "" (committed final newline) or
        // the partial tail; drop it either way.
        lines.pop();

        let mut it = lines.into_iter().enumerate();
        let header = match it.next() {
            None => {
                return Err(JournalError::Header {
                    path: path.to_path_buf(),
                    reason: "empty journal (no header line)".into(),
                })
            }
            Some((_, line)) => {
                JournalHeader::parse(line).map_err(|reason| JournalError::Header {
                    path: path.to_path_buf(),
                    reason,
                })?
            }
        };
        if header.version != 1 {
            return Err(JournalError::Header {
                path: path.to_path_buf(),
                reason: format!("unsupported journal version {}", header.version),
            });
        }

        let mut entries = Vec::new();
        for (i, line) in it {
            let entry = JournalEntry::parse(line).map_err(|reason| JournalError::Corrupt {
                path: path.to_path_buf(),
                line: i + 1,
                reason,
            })?;
            entries.push(entry);
        }
        Ok(JournalReplay {
            header,
            entries,
            dropped_partial_tail,
        })
    }
}

/// Atomically replaces `path` with `bytes`: write a sibling temp file,
/// sync it, rename over the target. Readers observe either the old or
/// the new content, never a torn write — the contract final artefacts
/// need under kill/resume.
///
/// # Errors
///
/// Propagates filesystem failures (the temp file is cleaned up on
/// rename failure).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(parent) = parent {
        std::fs::create_dir_all(parent)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------
// Line codec: the workspace's one JSON codec (`crate::json`) escapes the
// strings and parses the lines. The journal's lines are machine-written
// flat objects whose values are non-negative integers or strings; a line
// of any other shape is rejected rather than guessed at.
// ---------------------------------------------------------------------

/// Parses one line: a single JSON object whose values are all
/// non-negative integers or strings.
fn parse_line(line: &str) -> Result<Json, String> {
    let value = Json::parse(line)?;
    let Json::Obj(fields) = &value else {
        return Err("expected a JSON object".into());
    };
    for (key, v) in fields {
        if !matches!(v, Json::Str(_)) && v.as_u64().is_none() {
            return Err(format!("unsupported value for '{key}': {v:?}"));
        }
    }
    Ok(value)
}

/// Field `key` of a line from [`parse_line`], read through `as_t`.
fn field<'a, T>(line: &'a Json, key: &str, as_t: fn(&'a Json) -> Option<T>) -> Result<T, String> {
    let value = line
        .get(key)
        .ok_or_else(|| format!("missing field '{key}'"))?;
    as_t(value).ok_or_else(|| format!("field '{key}' has the wrong type"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::awkward_char;
    use proptest::prelude::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "pollux-journal-{}-{name}.jsonl",
            std::process::id()
        ))
    }

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry::new("fig3", 0, 11, 42, "u1,f3ff0000000000000".into()),
            JournalEntry::new(
                "fig3",
                2,
                13,
                42,
                "payload with \"quotes\"\nand newline".into(),
            ),
            JournalEntry::new("table1", 0, 17, 99, String::new()),
        ]
    }

    #[test]
    fn round_trips_header_and_entries() {
        let path = temp_path("roundtrip");
        let header = JournalHeader::new(0xD51_2011, "reproduce_all");
        let mut journal = Journal::create(&path, &header).unwrap();
        for e in sample_entries() {
            journal.append(&e).unwrap();
        }
        drop(journal);
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.header, header);
        assert_eq!(replay.entries, sample_entries());
        assert!(!replay.dropped_partial_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partial_tail_line_is_dropped_not_fatal() {
        let path = temp_path("partial");
        let header = JournalHeader::new(1, "x");
        let mut journal = Journal::create(&path, &header).unwrap();
        let entries = sample_entries();
        for e in &entries {
            journal.append(e).unwrap();
        }
        drop(journal);
        // Simulate a crash mid-append: chop the file mid-way through the
        // last line.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.entries, entries[..2].to_vec());
        assert!(replay.dropped_partial_tail);
        // Re-opening for append truncates the partial tail, so the next
        // committed entry lands on a clean line boundary.
        let mut journal = Journal::open_append(&path).unwrap();
        journal.append(&entries[2]).unwrap();
        drop(journal);
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.entries.len(), 3);
        assert_eq!(replay.entries[2], entries[2]);
        assert!(!replay.dropped_partial_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_truncation_fails_loudly_naming_file_and_line() {
        let path = temp_path("midfile");
        let mut journal = Journal::create(&path, &JournalHeader::new(1, "x")).unwrap();
        for e in sample_entries() {
            journal.append(&e).unwrap();
        }
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let chopped = &lines[1][..lines[1].len() / 2];
        lines[1] = chopped;
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = Journal::replay(&path).unwrap_err();
        match &err {
            JournalError::Corrupt { path: p, line, .. } => {
                assert_eq!(p, &path);
                // Header is line 1; the chopped first entry is line 2.
                assert_eq!(*line, 2);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(err.to_string().contains("pollux-journal"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hash_mismatch_fails_loudly() {
        let path = temp_path("badhash");
        let mut journal = Journal::create(&path, &JournalHeader::new(1, "x")).unwrap();
        journal
            .append(&JournalEntry::new("s", 0, 1, 2, "row-bytes-v1".into()))
            .unwrap();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replace("row-bytes-v1", "row-bytes-v2");
        std::fs::write(&path, tampered).unwrap();
        let err = Journal::replay(&path).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { line: 2, .. }));
        assert!(err.to_string().contains("hash mismatch"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_or_garbage_header_is_a_header_error() {
        let path = temp_path("header");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            Journal::replay(&path),
            Err(JournalError::Header { .. })
        ));
        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(matches!(
            Journal::replay(&path),
            Err(JournalError::Header { .. })
        ));
        std::fs::write(
            &path,
            "{\"pollux_journal\":9,\"master_seed\":1,\"label\":\"x\"}\n",
        )
        .unwrap();
        let err = Journal::replay(&path).unwrap_err();
        assert!(err.to_string().contains("version 9"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_write_replaces_content() {
        let path = temp_path("atomic");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer content").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer content");
        // No temp droppings left behind.
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_str().unwrap().to_string();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let n = e.file_name().to_string_lossy().to_string();
                n.starts_with(&stem) && n != stem
            })
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn escaping_round_trips_awkward_strings() {
        let awkward = "tabs\tnewlines\nquotes\"backslash\\ctrl\u{1}";
        let entry = JournalEntry::new(awkward, 1, 2, 3, awkward.to_string());
        let parsed = JournalEntry::parse(&entry.to_line()).unwrap();
        assert_eq!(parsed, entry);
    }

    #[test]
    fn non_integer_and_nested_values_are_corrupt() {
        // A committed line whose `cell` is not a non-negative integer
        // (a float, a negative, a numeric string, a nested object), or
        // that carries a nested value in a field nobody reads, fails as
        // corruption naming its line, like any other malformed line.
        for bad in ["1.5", "-1", "\"7\"", "{\"n\":7}", "2,\"note\":[1]"] {
            let path = temp_path("badvalue");
            let mut journal = Journal::create(&path, &JournalHeader::new(1, "x")).unwrap();
            for e in &sample_entries()[..2] {
                journal.append(e).unwrap();
            }
            drop(journal);
            let text = std::fs::read_to_string(&path).unwrap();
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            assert!(lines[2].contains("\"cell\":2,"));
            lines[2] = lines[2].replace("\"cell\":2,", &format!("\"cell\":{bad},"));
            std::fs::write(&path, lines.join("\n") + "\n").unwrap();
            match Journal::replay(&path) {
                // Header is line 1; the tampered second entry is line 3.
                Err(JournalError::Corrupt { line: 3, .. }) => {}
                other => panic!("cell {bad}: expected Corrupt at line 3, got {other:?}"),
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn entry_lines_round_trip(
            scenario in collection::vec(any::<u32>(), 0..24),
            payload in collection::vec(any::<u32>(), 0..48),
            (cell, seed, columns) in (any::<u64>(), any::<u64>(), any::<u64>()),
        ) {
            let scenario: String = scenario.into_iter().filter_map(awkward_char).collect();
            let payload: String = payload.into_iter().filter_map(awkward_char).collect();
            let entry = JournalEntry::new(&scenario, cell, seed, columns, payload);
            prop_assert_eq!(JournalEntry::parse(&entry.to_line()).unwrap(), entry);
        }
    }
}
