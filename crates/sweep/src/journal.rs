//! Crash-safe execution journals.
//!
//! A journal is a JSON-lines file that makes a running sweep's artifact
//! on disk *always a valid partial result*: the first line identifies
//! the spec (a content hash over its canonical JSON), and every
//! subsequent line is one completed [`PointRecord`], appended and
//! flushed the moment the point finishes. Kill the process at any
//! instant — SIGKILL, OOM, power loss — and the journal holds every
//! point that completed, with at most one torn trailing line (which the
//! loader tolerates).
//!
//! Points are **content-addressed**: [`point_hash`] is a stable FNV-1a
//! hash of the point's canonical JSON — its workload parameters, machine
//! axes, model, techniques, cycle budget, expansion index, and the seed
//! derived from that index. Resume matches journal entries against the
//! freshly expanded grid by *both* index and hash, so a journal can
//! never smuggle a stale row into a changed spec: edit any axis and the
//! affected points simply re-execute.
//!
//! Determinism under resume: a [`PointRecord`] is a pure function of its
//! [`SweepPoint`], and the journal stores records verbatim (integers,
//! enums and strings only — nothing lossy). Replaying a journal and
//! re-executing the remainder therefore reassembles a row vector equal,
//! field for field, to an uninterrupted run's — which is what lets the
//! JSON/CSV artifacts stay byte-identical across kills and resumes.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::Path;

use mcsim_core::RunTelemetry;
use serde::{Deserialize, Serialize};

use crate::result::PointRecord;
use crate::spec::{SweepPoint, SweepSpec};

/// Journal schema version; bumped on any incompatible line change.
pub const JOURNAL_VERSION: u32 = 1;

/// Why a journal could not be opened, read, or written. Every open path
/// — resume, append, or a read by a process that did not write the file
/// (the serve layer tails journals across restarts) — validates the
/// header and reports mismatches as typed variants rather than skipping
/// silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The file could not be created, read, or written.
    Io {
        /// Journal path.
        path: String,
        /// The underlying I/O error, rendered.
        error: String,
    },
    /// The file exists but holds nothing — not a journal.
    Empty {
        /// Journal path.
        path: String,
    },
    /// The first line is not a [`JournalHeader`].
    NoHeader {
        /// Journal path.
        path: String,
    },
    /// Written by an incompatible schema version.
    Version {
        /// Journal path.
        path: String,
        /// The version the file declares.
        found: u32,
    },
    /// The header identifies a different computation (different spec
    /// hash, including the fault-injection setting).
    SpecMismatch {
        /// Journal path.
        path: String,
        /// Sweep name the journal was written for.
        journal_sweep: String,
        /// Spec hash the journal was written for.
        journal_hash: String,
        /// Sweep name being executed now.
        want_sweep: String,
        /// Spec hash being executed now.
        want_hash: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, error } => write!(f, "journal {path}: {error}"),
            JournalError::Empty { path } => write!(f, "journal {path} is empty"),
            JournalError::NoHeader { path } => {
                write!(f, "journal {path} does not start with a header line")
            }
            JournalError::Version { path, found } => write!(
                f,
                "journal {path} is version {found}, this build reads {JOURNAL_VERSION}"
            ),
            JournalError::SpecMismatch {
                path,
                journal_sweep,
                journal_hash,
                want_sweep,
                want_hash,
            } => write!(
                f,
                "journal {path} was written for spec '{journal_sweep}' ({journal_hash}), \
                 not the requested spec '{want_sweep}' ({want_hash}) — refusing to merge \
                 different computations"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// FNV-1a 64-bit over a byte string — stable across platforms and
/// builds, cheap, and collision-safe at grid scale (thousands of
/// points, not billions).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Content address of one grid point: the hash of its canonical JSON
/// (every axis value, the expansion index, the derived seed, and the
/// cycle budget). 16 lowercase hex digits.
#[must_use]
pub fn point_hash(point: &SweepPoint) -> String {
    let canonical = serde_json::to_string(point).expect("SweepPoint serializes");
    format!("{:016x}", fnv1a(canonical.as_bytes()))
}

/// Content address of a whole spec, plus the execution settings that
/// change what a point *computes* (fault injection). Settings that only
/// change how fast a point runs (`--jobs`, fast-forward, isolation) are
/// deliberately excluded: results are bit-identical across them, so a
/// journal written under any of those settings resumes under any other.
#[must_use]
pub fn spec_hash(spec: &SweepSpec, inject: Option<&str>) -> String {
    let canonical = serde_json::to_string(spec).expect("SweepSpec serializes");
    let mut h = fnv1a(canonical.as_bytes());
    if let Some(fault) = inject {
        h ^= fnv1a(fault.as_bytes()).rotate_left(17);
    }
    format!("{:016x}", h)
}

/// The journal's first line: which computation this file belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Schema version ([`JOURNAL_VERSION`]).
    pub version: u32,
    /// Sweep name, for humans reading the file.
    pub sweep: String,
    /// [`spec_hash`] of the spec (+ fault injection) being executed.
    pub spec_hash: String,
    /// Grid size the spec expands to.
    pub points: usize,
}

/// One completed point: its content address, its record, and the
/// machine-loop telemetry that produced it (telemetry is itself
/// deterministic — stepped/skipped cycle counts are simulated
/// quantities — so restoring it on resume keeps aggregate timing
/// truthful).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// [`point_hash`] of the point this record belongs to.
    pub hash: String,
    /// The completed row, exactly as an uninterrupted run would hold it.
    pub record: PointRecord,
    /// Machine-loop telemetry for the run that produced the record.
    pub telemetry: RunTelemetry,
}

/// One line of the journal file. Externally tagged, one compact JSON
/// object per line. Lines are parsed and consumed one at a time, never
/// held in bulk, so the variant size spread is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalLine {
    /// First line of every journal.
    Header(JournalHeader),
    /// One completed point.
    Point(JournalEntry),
}

impl JournalLine {
    /// Renders the line as compact single-line JSON (no trailing
    /// newline).
    #[must_use]
    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("journal lines serialize")
    }
}

/// Append-side of a journal: writes the header on creation and flushes
/// every entry as it lands, so the on-disk file is complete up to the
/// last finished point at all times.
#[derive(Debug)]
pub struct JournalWriter {
    out: BufWriter<File>,
}

impl JournalWriter {
    /// Starts a fresh journal at `path` (truncating any previous file)
    /// and writes its header.
    ///
    /// # Errors
    /// On I/O failure, with the path in the message.
    pub fn create(
        path: &Path,
        spec: &SweepSpec,
        inject: Option<&str>,
    ) -> Result<Self, JournalError> {
        let file = File::create(path).map_err(|e| JournalError::Io {
            path: path.display().to_string(),
            error: format!("cannot create: {e}"),
        })?;
        let mut w = JournalWriter {
            out: BufWriter::new(file),
        };
        w.write_line(&JournalLine::Header(JournalHeader {
            version: JOURNAL_VERSION,
            sweep: spec.name.clone(),
            spec_hash: spec_hash(spec, inject),
            points: spec.len(),
        }))?;
        Ok(w)
    }

    /// Reopens an existing journal for appending (resume). The on-disk
    /// header is validated against `spec` + `inject` first — appending
    /// to a journal that belongs to a different computation (or an
    /// incompatible schema version) is refused with a typed error, the
    /// same check every read path performs.
    ///
    /// # Errors
    /// On I/O failure, or when the header is missing, from another
    /// schema version, or from a different spec.
    pub fn append_to(
        path: &Path,
        spec: &SweepSpec,
        inject: Option<&str>,
    ) -> Result<Self, JournalError> {
        let header = read_header(path)?;
        validate_header(&header, path, spec, inject)?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| JournalError::Io {
                path: path.display().to_string(),
                error: format!("cannot append: {e}"),
            })?;
        Ok(JournalWriter {
            out: BufWriter::new(file),
        })
    }

    /// Appends one completed point and flushes it to the OS, so a
    /// subsequent kill cannot lose it.
    ///
    /// # Errors
    /// On I/O failure.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), JournalError> {
        self.write_line(&JournalLine::Point(entry.clone()))
    }

    fn write_line(&mut self, line: &JournalLine) -> Result<(), JournalError> {
        self.out
            .write_all(line.render().as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .and_then(|()| self.out.flush())
            .map_err(|e| JournalError::Io {
                path: "<open journal>".to_string(),
                error: format!("write failed: {e}"),
            })
    }
}

/// Reads and parses a journal's header line — the common first step of
/// every open path (resume load, append reopen, and the serve layer's
/// tail endpoint, which reads journals it did not write).
///
/// # Errors
/// If the file is unreadable, empty, missing its header, or written by
/// another schema version.
pub fn read_header(path: &Path) -> Result<JournalHeader, JournalError> {
    let file = File::open(path).map_err(|e| JournalError::Io {
        path: path.display().to_string(),
        error: format!("cannot read: {e}"),
    })?;
    let mut first = String::new();
    let mut reader = std::io::BufReader::new(file);
    std::io::BufRead::read_line(&mut reader, &mut first).map_err(|e| JournalError::Io {
        path: path.display().to_string(),
        error: format!("cannot read: {e}"),
    })?;
    if first.trim().is_empty() {
        return Err(JournalError::Empty {
            path: path.display().to_string(),
        });
    }
    let header = match serde_json::from_str::<JournalLine>(first.trim_end()) {
        Ok(JournalLine::Header(h)) => h,
        _ => {
            return Err(JournalError::NoHeader {
                path: path.display().to_string(),
            })
        }
    };
    if header.version != JOURNAL_VERSION {
        return Err(JournalError::Version {
            path: path.display().to_string(),
            found: header.version,
        });
    }
    Ok(header)
}

/// Checks a parsed header against the computation being executed.
///
/// # Errors
/// [`JournalError::SpecMismatch`] when the spec hashes differ.
pub fn validate_header(
    header: &JournalHeader,
    path: &Path,
    spec: &SweepSpec,
    inject: Option<&str>,
) -> Result<(), JournalError> {
    let want = spec_hash(spec, inject);
    if header.spec_hash != want {
        return Err(JournalError::SpecMismatch {
            path: path.display().to_string(),
            journal_sweep: header.sweep.clone(),
            journal_hash: header.spec_hash.clone(),
            want_sweep: spec.name.clone(),
            want_hash: want,
        });
    }
    Ok(())
}

/// What [`load`] recovered from a journal.
#[derive(Debug)]
pub struct LoadedJournal {
    /// Per expansion index: the completed entry, if the journal holds a
    /// record whose index *and* content hash match the current grid.
    pub entries: Vec<Option<JournalEntry>>,
    /// Lines that did not parse (a torn tail from a kill mid-write) or
    /// parsed but matched no current point (spec drift on a point the
    /// hash check rejected). Informational; never fatal.
    pub skipped_lines: usize,
}

impl LoadedJournal {
    /// Number of points the journal completes.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}

/// Replays a journal against a freshly expanded grid.
///
/// The header must match `spec` (same [`spec_hash`], including the
/// fault-injection setting) — resuming a journal into a *different*
/// computation is refused loudly rather than merged wrongly. Point
/// lines are accepted only where both the expansion index and the
/// content hash agree with `hashes` (the current grid's [`point_hash`]
/// values, in expansion order); anything else — torn trailing line,
/// duplicate, stale point — is counted in
/// [`LoadedJournal::skipped_lines`]. Duplicates keep the first
/// occurrence: entries are deterministic, so any duplicate is equal
/// anyway.
///
/// # Errors
/// If the file is unreadable, empty, missing its header, or written for
/// a different spec / journal version.
pub fn load(
    path: &Path,
    spec: &SweepSpec,
    inject: Option<&str>,
    hashes: &[String],
) -> Result<LoadedJournal, JournalError> {
    let header = read_header(path)?;
    validate_header(&header, path, spec, inject)?;
    let text = std::fs::read_to_string(path).map_err(|e| JournalError::Io {
        path: path.display().to_string(),
        error: format!("cannot read: {e}"),
    })?;
    let lines = text.lines().skip(1); // header, validated above

    let mut entries: Vec<Option<JournalEntry>> = vec![None; hashes.len()];
    let mut skipped_lines = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        match serde_json::from_str::<JournalLine>(line) {
            Ok(JournalLine::Point(entry)) => {
                let idx = entry.record.index;
                let matches_grid = hashes.get(idx).is_some_and(|h| *h == entry.hash);
                if matches_grid && entries[idx].is_none() {
                    entries[idx] = Some(entry);
                } else {
                    skipped_lines += 1;
                }
            }
            // A second header (or a torn/garbled line) — tolerate.
            _ => skipped_lines += 1,
        }
    }
    Ok(LoadedJournal {
        entries,
        skipped_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{PointOutcome, PointRecord};
    use crate::spec::WorkloadSpec;

    fn spec() -> SweepSpec {
        let mut s = SweepSpec::new("journal-unit", "journal unit tests");
        s.workloads = vec![
            WorkloadSpec::PaperExample1,
            WorkloadSpec::ArraySweep { n: 2, stores: true },
        ];
        s
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mcsim-journal-{name}-{}", std::process::id()))
    }

    #[test]
    fn point_hashes_are_stable_distinct_and_axis_sensitive() {
        let s = spec();
        let points = s.points();
        let hashes: Vec<String> = points.iter().map(point_hash).collect();
        assert_eq!(hashes, points.iter().map(point_hash).collect::<Vec<_>>());
        let mut uniq = hashes.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), hashes.len(), "hashes must be distinct");
        // Any axis change moves the hash.
        let mut moved = points[0].clone();
        moved.miss_latency += 2;
        assert_ne!(point_hash(&moved), hashes[0]);
        // So does the seed alone.
        let mut reseeded = points[0].clone();
        reseeded.seed ^= 1;
        assert_ne!(point_hash(&reseeded), hashes[0]);
        assert_eq!(hashes[0].len(), 16);
    }

    /// Journals and served jobs on disk are keyed by these hashes, so a
    /// serialization change that moves them strands every existing one.
    /// The literals were produced by an earlier build; never re-derive
    /// them from this one.
    #[test]
    fn e6_hashes_match_journals_written_by_earlier_builds() {
        let spec = crate::builtin("e6-equalization").expect("built-in");
        assert_eq!(spec_hash(&spec, None), "85f69cbc4d11a0a1");
        let points = spec.points();
        assert_eq!(point_hash(&points[0]), "51e44b0c3de5ef80");
        assert_eq!(point_hash(&points[83]), "b485bdee9a10b427");
        assert_eq!(points.len(), 84);
    }

    #[test]
    fn spec_hash_depends_on_injection() {
        let s = spec();
        assert_ne!(spec_hash(&s, None), spec_hash(&s, Some("drop-inv:1")));
        assert_eq!(spec_hash(&s, None), spec_hash(&s, None));
    }

    #[test]
    fn journal_round_trips_and_replays() {
        let s = spec();
        let points = s.points();
        let hashes: Vec<String> = points.iter().map(point_hash).collect();
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&path, &s, None).unwrap();
        let entry = JournalEntry {
            hash: hashes[1].clone(),
            record: PointRecord::new(&points[1], PointOutcome::TimedOut { cycles: 9 }),
            telemetry: RunTelemetry::default(),
        };
        w.append(&entry).unwrap();
        drop(w);
        let loaded = load(&path, &s, None, &hashes).unwrap();
        assert_eq!(loaded.completed(), 1);
        assert_eq!(loaded.skipped_lines, 0);
        assert_eq!(loaded.entries[1].as_ref().unwrap(), &entry);
        assert!(loaded.entries[0].is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_tolerated() {
        let s = spec();
        let points = s.points();
        let hashes: Vec<String> = points.iter().map(point_hash).collect();
        let path = tmp("torn");
        let mut w = JournalWriter::create(&path, &s, None).unwrap();
        w.append(&JournalEntry {
            hash: hashes[0].clone(),
            record: PointRecord::new(&points[0], PointOutcome::TimedOut { cycles: 1 }),
            telemetry: RunTelemetry::default(),
        })
        .unwrap();
        drop(w);
        // Simulate a kill mid-write: append half a line.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"Point\":{{\"hash\":\"dead").unwrap();
        drop(f);
        let loaded = load(&path, &s, None, &hashes).unwrap();
        assert_eq!(loaded.completed(), 1);
        assert_eq!(loaded.skipped_lines, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_spec_is_refused() {
        let s = spec();
        let points = s.points();
        let hashes: Vec<String> = points.iter().map(point_hash).collect();
        let path = tmp("mismatch");
        drop(JournalWriter::create(&path, &s, None).unwrap());
        let mut other = spec();
        other.seed = 77;
        let other_hashes: Vec<String> = other.points().iter().map(point_hash).collect();
        let err = load(&path, &other, None, &other_hashes).unwrap_err();
        assert!(matches!(err, JournalError::SpecMismatch { .. }), "{err}");
        assert!(err.to_string().contains("different computation"), "{err}");
        // Same spec but different injection is a different computation too.
        let err = load(&path, &s, Some("corrupt:1"), &hashes).unwrap_err();
        assert!(matches!(err, JournalError::SpecMismatch { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_reopen_validates_the_header_like_every_other_open() {
        // The regression this pins: `append_to` used to trust its caller
        // to have validated the header. Every open path must check it.
        let s = spec();
        let path = tmp("append-validate");
        drop(JournalWriter::create(&path, &s, None).unwrap());
        // Matching spec: reopen succeeds.
        assert!(JournalWriter::append_to(&path, &s, None).is_ok());
        // Different computation: typed refusal, not a silent append.
        let mut other = spec();
        other.seed = 99;
        let err = JournalWriter::append_to(&path, &other, None).unwrap_err();
        assert!(matches!(err, JournalError::SpecMismatch { .. }), "{err}");
        // Different injection setting: same refusal.
        let err = JournalWriter::append_to(&path, &s, Some("drop-inv:1")).unwrap_err();
        assert!(matches!(err, JournalError::SpecMismatch { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_errors_are_typed_per_failure_mode() {
        let s = spec();
        let hashes: Vec<String> = s.points().iter().map(point_hash).collect();

        // Missing file: Io.
        let path = tmp("typed-missing");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(read_header(&path), Err(JournalError::Io { .. })));

        // Empty file: Empty.
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            read_header(&path),
            Err(JournalError::Empty { .. })
        ));
        assert!(matches!(
            load(&path, &s, None, &hashes),
            Err(JournalError::Empty { .. })
        ));

        // Garbage first line: NoHeader.
        std::fs::write(&path, "not json\n").unwrap();
        assert!(matches!(
            read_header(&path),
            Err(JournalError::NoHeader { .. })
        ));

        // A point line first (journal without header): NoHeader too.
        let entry = JournalEntry {
            hash: hashes[0].clone(),
            record: PointRecord::new(&s.points()[0], PointOutcome::TimedOut { cycles: 1 }),
            telemetry: RunTelemetry::default(),
        };
        std::fs::write(&path, JournalLine::Point(entry).render() + "\n").unwrap();
        assert!(matches!(
            read_header(&path),
            Err(JournalError::NoHeader { .. })
        ));

        // Future schema version: Version, carrying what was found.
        let header = JournalLine::Header(JournalHeader {
            version: JOURNAL_VERSION + 1,
            sweep: s.name.clone(),
            spec_hash: spec_hash(&s, None),
            points: s.len(),
        });
        std::fs::write(&path, header.render() + "\n").unwrap();
        match read_header(&path) {
            Err(JournalError::Version { found, .. }) => assert_eq!(found, JOURNAL_VERSION + 1),
            other => panic!("expected Version error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_point_lines_are_skipped_not_merged() {
        let s = spec();
        let points = s.points();
        let hashes: Vec<String> = points.iter().map(point_hash).collect();
        let path = tmp("stale");
        let mut w = JournalWriter::create(&path, &s, None).unwrap();
        // An entry whose index exists but whose hash does not match the
        // grid (as if the workload axis changed under the journal).
        w.append(&JournalEntry {
            hash: "0123456789abcdef".to_string(),
            record: PointRecord::new(&points[0], PointOutcome::TimedOut { cycles: 1 }),
            telemetry: RunTelemetry::default(),
        })
        .unwrap();
        drop(w);
        let loaded = load(&path, &s, None, &hashes).unwrap();
        assert_eq!(loaded.completed(), 0);
        assert_eq!(loaded.skipped_lines, 1);
        let _ = std::fs::remove_file(&path);
    }
}
