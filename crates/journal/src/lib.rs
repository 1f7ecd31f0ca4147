//! Crash-safe run lifecycle for phylogenetic placement.
//!
//! A placement run over millions of queries can take hours; a crash,
//! `kill`, or wall-clock deadline should not discard finished work. This
//! crate provides the durable half of that story:
//!
//! * [`frame`] — a self-delimiting, CRC32-checked binary frame per
//!   completed query chunk (placements + per-chunk stats, floats as
//!   exact bit patterns);
//! * [`manifest`] — a run fingerprint (input content hashes + effective
//!   chunking/scoring config) that makes `--resume` refuse mismatched
//!   inputs with a typed error instead of merging garbage;
//! * [`RunJournal`] — the session object: `create` starts a fresh
//!   journal directory, `resume` validates the manifest, replays the
//!   valid frame prefix (a torn or corrupt tail — the expected residue
//!   of a crash mid-append — is detected and truncated away, not
//!   fatal), and positions the writer to continue; `append` makes one
//!   chunk durable (`write` + `fsync`) before the orchestrator advances.
//!
//! Durability contract: when `append` returns `Ok`, the frame survives
//! process death (the bytes and the file length are synced). The
//! manifest is written first, via the same atomic-rename +
//! directory-fsync dance the jplace writer uses, so a journal directory
//! is either absent, empty-but-described, or a valid prefix of the run.
//!
//! Fault sites (armed under the `faults` feature):
//! `journal::torn_write` appends half a frame and fails without syncing
//! — the torn-tail path; `journal::crash_after_chunk` fails *after* the
//! frame is durable — the "process died between chunks" path, which a
//! resume must complete from exactly.

pub mod frame;
pub mod manifest;
pub mod shard;

pub use frame::{ChunkFrame, ChunkStats, PlacementRecord, QueryRecord};
pub use manifest::{fnv1a64, Manifest, MANIFEST_FORMAT};
pub use shard::{ShardSetManifest, SHARD_MANIFEST_FILE, SHARD_MANIFEST_FORMAT};

use frame::{FRAME_HEADER_LEN, FRAME_MAGIC, MAX_PAYLOAD_LEN};
use phylo_obs::crc32;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Manifest file name inside a journal directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// Chunk-journal file name inside a journal directory.
pub const JOURNAL_FILE: &str = "chunks.journal";

/// Errors from journal creation, appends, and resume validation.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O operation failed; `context` says which.
    Io { context: String, source: std::io::Error },
    /// `--resume` pointed at a directory with no manifest (not a
    /// checkpoint directory, or the run died before writing it).
    ManifestMissing { path: PathBuf },
    /// The manifest file exists but cannot be parsed.
    ManifestParse { path: PathBuf, detail: String },
    /// The resumed run's inputs or configuration differ from the
    /// checkpointed run's; `expected` is the on-disk (checkpointed) value.
    ManifestMismatch { field: &'static str, expected: String, found: String },
    /// A replayed frame disagrees with the current run's chunking (e.g.
    /// a query name mismatch detected by the orchestrator).
    FrameMismatch { chunk: u32, detail: String },
    /// The `journal::crash_after_chunk` fault site fired: the frame is
    /// durable but the process "died". Tests treat this like a kill.
    InjectedCrash,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { context, source } => write!(f, "journal I/O: {context}: {source}"),
            JournalError::ManifestMissing { path } => {
                write!(f, "not a checkpoint directory: no manifest at {}", path.display())
            }
            JournalError::ManifestParse { path, detail } => {
                write!(f, "unreadable manifest {}: {detail}", path.display())
            }
            JournalError::ManifestMismatch { field, expected, found } => write!(
                f,
                "cannot resume: {field} differs from the checkpointed run \
                 (checkpoint has {expected}, this run has {found})"
            ),
            JournalError::FrameMismatch { chunk, detail } => {
                write!(f, "journal frame {chunk} does not match this run: {detail}")
            }
            JournalError::InjectedCrash => write!(f, "injected crash after durable append"),
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

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> JournalError {
    let context = context.into();
    move |source| JournalError::Io { context, source }
}

/// Fsyncs a directory so a just-created/renamed entry inside it is
/// durable. Best-effort on platforms where directories cannot be opened.
fn sync_dir(dir: &Path) -> Result<(), JournalError> {
    match File::open(dir) {
        Ok(d) => d.sync_all().map_err(io_err(format!("fsync dir {}", dir.display()))),
        Err(_) => Ok(()),
    }
}

/// Writes `contents` to `path` crash-atomically *and durably*: the bytes
/// go to `<path>.tmp` first, are fsynced, renamed into place, and the
/// parent directory is fsynced so the rename itself survives power loss.
/// A crash or failure mid-write leaves either the previous file or none
/// — never a truncated one — and the temp file is cleaned up on error.
///
/// This is the single write idiom for every user-visible artifact of a
/// run (jplace output, slot traces, shard manifests, merged results);
/// callers that need a deterministic failure-injection point use
/// [`write_text_atomic_probed`].
pub fn write_text_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    write_text_atomic_impl(path, contents, None)
}

/// As [`write_text_atomic`], probing the named fault site between the
/// data fsync and the rename — the precise point where a crash would
/// leave a durable temp file but an unchanged destination.
pub fn write_text_atomic_probed(
    path: &Path,
    contents: &str,
    fault_site: &str,
) -> std::io::Result<()> {
    write_text_atomic_impl(path, contents, Some(fault_site))
}

fn write_text_atomic_impl(
    path: &Path,
    contents: &str,
    fault_site: Option<&str>,
) -> std::io::Result<()> {
    let tmp = path.with_extension(match path.extension() {
        Some(e) => format!("{}.tmp", e.to_string_lossy()),
        None => "tmp".to_string(),
    });
    let write = || -> std::io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        // Data must be durable before the rename publishes the name;
        // otherwise a crash could leave the final path pointing at a
        // zero-length inode.
        f.sync_all()?;
        drop(f);
        if fault_site.is_some_and(phylo_faults::fire) {
            return Err(std::io::Error::other(format!(
                "injected {} write failure",
                path.extension().map(|e| e.to_string_lossy().into_owned()).unwrap_or_default()
            )));
        }
        std::fs::rename(&tmp, path)?;
        // The rename lives in the directory; fsync it (best-effort on
        // platforms where directories cannot be opened for sync).
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                d.sync_all()?;
            }
        }
        Ok(())
    };
    let r = write();
    if r.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    r
}

/// Result of scanning a journal file: the decodable frame prefix, the
/// byte offset where it ends, and whether a torn/corrupt tail followed.
#[derive(Debug)]
pub struct Replay {
    pub frames: Vec<ChunkFrame>,
    /// End offset of each frame in `frames` (monotonic); the last entry
    /// — or 0 — is the length a continuing writer must truncate to.
    pub frame_ends: Vec<u64>,
    /// True when bytes past the valid prefix were discarded.
    pub torn_tail: bool,
}

impl Replay {
    fn empty() -> Self {
        Replay { frames: Vec::new(), frame_ends: Vec::new(), torn_tail: false }
    }

    /// Byte length of the valid prefix.
    pub fn valid_len(&self) -> u64 {
        self.frame_ends.last().copied().unwrap_or(0)
    }
}

/// Scans `path` and decodes the longest valid frame prefix. A missing
/// file is an empty replay; a torn tail stops the scan (recorded in
/// `torn_tail`) but is not an error — it is the expected shape of a
/// journal whose writer died mid-append.
pub fn replay(path: &Path) -> Result<Replay, JournalError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::empty()),
        Err(e) => return Err(io_err(format!("open {}", path.display()))(e)),
    };
    let mut buf = Vec::new();
    file.read_to_end(&mut buf).map_err(io_err(format!("read {}", path.display())))?;
    let mut out = Replay::empty();
    let mut pos = 0usize;
    loop {
        let rest = &buf[pos..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < FRAME_HEADER_LEN {
            out.torn_tail = true;
            break;
        }
        let magic = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        let payload_len = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[8..12].try_into().unwrap());
        if magic != FRAME_MAGIC || payload_len > MAX_PAYLOAD_LEN {
            out.torn_tail = true;
            break;
        }
        let end = FRAME_HEADER_LEN + payload_len as usize;
        if rest.len() < end {
            out.torn_tail = true;
            break;
        }
        let payload = &rest[FRAME_HEADER_LEN..end];
        if crc32(payload) != crc {
            out.torn_tail = true;
            break;
        }
        match ChunkFrame::decode_payload(payload) {
            Some(f) => out.frames.push(f),
            None => {
                out.torn_tail = true;
                break;
            }
        }
        pos += end;
        out.frame_ends.push(pos as u64);
    }
    if out.torn_tail {
        phylo_obs::counter!("journal.torn_tails").inc();
    }
    phylo_obs::counter!("journal.replayed_frames").add(out.frames.len() as u64);
    Ok(out)
}

/// Append-only frame writer with per-append durability.
struct JournalWriter {
    file: File,
    path: PathBuf,
}

impl JournalWriter {
    fn create(path: &Path) -> Result<Self, JournalError> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(io_err(format!("create {}", path.display())))?;
        Ok(JournalWriter { file, path: path.to_owned() })
    }

    /// Opens an existing journal for continuation: truncates away any
    /// torn tail past `valid_len` and positions at the end.
    fn continue_at(path: &Path, valid_len: u64) -> Result<Self, JournalError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io_err(format!("open {}", path.display())))?;
        let ctx = || format!("truncate {} to valid prefix", path.display());
        file.set_len(valid_len).map_err(io_err(ctx()))?;
        file.sync_all().map_err(io_err(ctx()))?;
        let mut w = JournalWriter { file, path: path.to_owned() };
        w.file.seek(SeekFrom::Start(valid_len)).map_err(io_err(ctx()))?;
        Ok(w)
    }

    fn append(&mut self, frame: &ChunkFrame) -> Result<(), JournalError> {
        let bytes = frame.encode();
        let ctx = || format!("append chunk {} to {}", frame.chunk_index, self.path.display());
        if phylo_faults::fire("journal::torn_write") {
            // Simulates a crash mid-append: half the frame reaches the
            // file, nothing is synced, and the process "dies". Replay
            // must shed exactly this tail.
            let half = &bytes[..bytes.len() / 2];
            self.file.write_all(half).map_err(io_err(ctx()))?;
            let _ = self.file.flush();
            return Err(JournalError::Io {
                context: ctx(),
                source: std::io::Error::other("injected torn write"),
            });
        }
        self.file.write_all(&bytes).map_err(io_err(ctx()))?;
        // sync_all (not sync_data): the file grows on every append, so
        // the size metadata is part of the durability contract.
        self.file.sync_all().map_err(io_err(ctx()))?;
        phylo_obs::counter!("journal.appends").inc();
        phylo_obs::counter!("journal.append_bytes").add(bytes.len() as u64);
        if phylo_faults::fire("journal::crash_after_chunk") {
            return Err(JournalError::InjectedCrash);
        }
        Ok(())
    }
}

/// One run's checkpoint session: a journal directory with a validated
/// manifest, the frames replayed from a previous attempt (if any), and
/// a durable writer for the chunks still to come.
pub struct RunJournal {
    dir: PathBuf,
    writer: JournalWriter,
    replayed: Vec<ChunkFrame>,
    torn_tail: bool,
}

impl RunJournal {
    /// Starts a fresh checkpoint directory: creates `dir`, writes the
    /// manifest atomically (tmp + fsync + rename + dir fsync), and
    /// truncates any stale journal so old frames can never leak into
    /// this run.
    pub fn create(dir: &Path, manifest: &Manifest) -> Result<RunJournal, JournalError> {
        std::fs::create_dir_all(dir).map_err(io_err(format!("create dir {}", dir.display())))?;
        let man_path = dir.join(MANIFEST_FILE);
        // The one atomic-writer implementation in the workspace: tmp +
        // file fsync + rename + parent-dir fsync. Keeping the manifest
        // on the same helper as every other run artifact (jplace, slot
        // traces, shards.json) means an audit of crash-atomicity has a
        // single code path to read.
        write_text_atomic(&man_path, &manifest.to_json())
            .map_err(io_err(format!("write manifest {}", man_path.display())))?;
        let writer = JournalWriter::create(&dir.join(JOURNAL_FILE))?;
        sync_dir(dir)?;
        Ok(RunJournal { dir: dir.to_owned(), writer, replayed: Vec::new(), torn_tail: false })
    }

    /// Resumes from an existing checkpoint directory. Validates the
    /// on-disk manifest against `expected` (the current run), replays
    /// the valid frame prefix — frames must be the contiguous sequence
    /// `0, 1, 2, …`; anything after a gap or reorder is discarded with
    /// the tail — truncates the journal to that prefix, and positions
    /// the writer to append the next chunk.
    pub fn resume(dir: &Path, expected: &Manifest) -> Result<RunJournal, JournalError> {
        let man_path = dir.join(MANIFEST_FILE);
        let text = match std::fs::read_to_string(&man_path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(JournalError::ManifestMissing { path: man_path })
            }
            Err(e) => return Err(io_err(format!("read {}", man_path.display()))(e)),
        };
        let on_disk = Manifest::parse(&text)
            .map_err(|detail| JournalError::ManifestParse { path: man_path, detail })?;
        expected.check_matches(&on_disk)?;
        let journal_path = dir.join(JOURNAL_FILE);
        let scan = replay(&journal_path)?;
        // Keep only the contiguous 0..k prefix; a non-sequential index
        // means foreign or stale frames (defensive — normal appends are
        // sequential), which we shed exactly like a torn tail.
        let mut keep = 0usize;
        while keep < scan.frames.len() && scan.frames[keep].chunk_index == keep as u32 {
            keep += 1;
        }
        let torn_tail = scan.torn_tail || keep < scan.frames.len();
        let valid_len = if keep == 0 { 0 } else { scan.frame_ends[keep - 1] };
        let mut frames = scan.frames;
        frames.truncate(keep);
        let writer = JournalWriter::continue_at(&journal_path, valid_len)?;
        Ok(RunJournal { dir: dir.to_owned(), writer, replayed: frames, torn_tail })
    }

    /// The checkpoint directory this session writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Frames recovered by [`RunJournal::resume`] (empty after `create`).
    pub fn replayed(&self) -> &[ChunkFrame] {
        &self.replayed
    }

    /// Takes ownership of the replayed frames (the orchestrator consumes
    /// them once, at the start of the chunk loop).
    pub fn take_replayed(&mut self) -> Vec<ChunkFrame> {
        std::mem::take(&mut self.replayed)
    }

    /// True when resume discarded a torn/corrupt tail or out-of-sequence
    /// frames (informational; the run continues from the valid prefix).
    pub fn had_torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// Durably appends one completed chunk. On `Ok`, the frame survives
    /// process death.
    pub fn append(&mut self, frame: &ChunkFrame) -> Result<(), JournalError> {
        self.writer.append(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("phylo-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn manifest() -> Manifest {
        Manifest {
            format: MANIFEST_FORMAT,
            tree_hash: 1,
            ref_msa_hash: 2,
            query_hash: 3,
            alphabet: "dna".into(),
            gamma_alpha_bits: None,
            chunk_size: 4,
            n_queries: 10,
            thorough_fraction_bits: 0.25f64.to_bits(),
            thorough_min: 1,
            blo_iterations: 4,
        }
    }

    fn frame(i: u32) -> ChunkFrame {
        ChunkFrame {
            chunk_index: i,
            stats: ChunkStats { n_prescored: 4, n_thorough: 1, ..Default::default() },
            queries: vec![QueryRecord {
                name: format!("q{i}"),
                placements: vec![PlacementRecord {
                    edge: i,
                    log_likelihood: -10.5 - i as f64,
                    pendant_length: 0.01,
                    distal_length: 0.5,
                }],
            }],
        }
    }

    #[test]
    fn create_publishes_manifest_atomically_with_no_tmp_residue() {
        let dir = tmpdir("atomic-manifest");
        let j = RunJournal::create(&dir, &manifest()).unwrap();
        drop(j);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().any(|n| n == MANIFEST_FILE), "manifest missing: {names:?}");
        assert!(!names.iter().any(|n| n.ends_with(".tmp")), "tmp residue left: {names:?}");
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        Manifest::parse(&text).expect("published manifest parses");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_append_resume_roundtrip() {
        let dir = tmpdir("roundtrip");
        let m = manifest();
        let mut j = RunJournal::create(&dir, &m).unwrap();
        for i in 0..3 {
            j.append(&frame(i)).unwrap();
        }
        drop(j);
        let r = RunJournal::resume(&dir, &m).unwrap();
        assert_eq!(r.replayed().len(), 3);
        assert!(!r.had_torn_tail());
        for (i, f) in r.replayed().iter().enumerate() {
            assert_eq!(*f, frame(i as u32));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_sheds_torn_tail_and_continues() {
        let dir = tmpdir("torn");
        let m = manifest();
        let mut j = RunJournal::create(&dir, &m).unwrap();
        j.append(&frame(0)).unwrap();
        j.append(&frame(1)).unwrap();
        drop(j);
        // Simulate a crash mid-append: raw half-frame at the tail.
        let path = dir.join(JOURNAL_FILE);
        let bytes = frame(2).encode();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&bytes[..bytes.len() / 2]).unwrap();
        drop(f);
        let mut r = RunJournal::resume(&dir, &m).unwrap();
        assert_eq!(r.replayed().len(), 2);
        assert!(r.had_torn_tail());
        // The writer truncated the tail; appending chunk 2 now yields a
        // clean 3-frame journal.
        r.append(&frame(2)).unwrap();
        drop(r);
        let r2 = RunJournal::resume(&dir, &m).unwrap();
        assert_eq!(r2.replayed().len(), 3);
        assert!(!r2.had_torn_tail());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_sheds_corrupt_middle_as_tail() {
        let dir = tmpdir("corrupt");
        let m = manifest();
        let mut j = RunJournal::create(&dir, &m).unwrap();
        for i in 0..3 {
            j.append(&frame(i)).unwrap();
        }
        drop(j);
        // Flip a payload byte inside frame 1: frames 1 and 2 are gone
        // (replay cannot trust anything past the first bad CRC).
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let f0_len = frame(0).encode().len();
        bytes[f0_len + FRAME_HEADER_LEN + 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let r = RunJournal::resume(&dir, &m).unwrap();
        assert_eq!(r.replayed().len(), 1);
        assert!(r.had_torn_tail());
        assert_eq!(r.replayed()[0], frame(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_missing_and_mismatched_manifest() {
        let dir = tmpdir("mismatch");
        let m = manifest();
        match RunJournal::resume(&dir.join("nope"), &m) {
            Err(JournalError::ManifestMissing { .. }) => {}
            r => panic!("expected ManifestMissing, got {:?}", r.err()),
        }
        RunJournal::create(&dir, &m).unwrap();
        let other = Manifest { query_hash: 999, ..manifest() };
        match RunJournal::resume(&dir, &other) {
            Err(JournalError::ManifestMismatch { field, .. }) => assert_eq!(field, "query_hash"),
            r => panic!("expected ManifestMismatch, got {:?}", r.err()),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_truncates_stale_journal() {
        let dir = tmpdir("stale");
        let m = manifest();
        let mut j = RunJournal::create(&dir, &m).unwrap();
        j.append(&frame(0)).unwrap();
        drop(j);
        // A fresh run over the same directory must not inherit frames.
        let j2 = RunJournal::create(&dir, &m).unwrap();
        assert!(j2.replayed().is_empty());
        drop(j2);
        let r = RunJournal::resume(&dir, &m).unwrap();
        assert!(r.replayed().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
