//! Checkpointing: persist run results, model parameters, and — since v2
//! — the *full* training state needed to restart a killed parameter
//! server or rejoin a crashed worker without losing optimizer momentum,
//! δ-threshold history, or elastic membership.
//!
//! Three formats live here:
//!
//! * **Results** serialize as JSON (human-inspectable, matches the
//!   harnesses' JSON rows).
//! * **v1 params** (`SSYN` magic): a bare little-endian `f32` dump, kept
//!   for `--save-params` / warm-start compatibility.
//! * **v2 state** (`SSV2` magic): a self-describing sectioned container
//!   with a CRC32 per section, written crash-consistently — temp file +
//!   `fsync` + atomic rename, with the previous generation retained as
//!   `<name>.prev`. A kill at *any* byte offset of the write sequence
//!   leaves a loadable checkpoint: either the new file is complete and
//!   valid, or [`load_state_with_fallback`] detects the damage via magic
//!   /length/CRC checks and falls back to the previous generation with a
//!   typed [`CheckpointError`] trail — never silently wrong parameters.

use crate::metrics::RunResult;
use selsync_stats::RelativeGradChange;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"SSYN";

/// Magic of the v2 sectioned training-state checkpoint.
pub const STATE_MAGIC: &[u8; 4] = b"SSV2";
/// Current version of the v2 container layout.
pub const STATE_VERSION: u32 = 2;

// Section ids of the v2 container. Unknown ids are skipped on load (a
// newer writer may add sections), required ones are checked after the
// scan so truncation anywhere yields a typed error.
const SEC_META: u32 = 1;
const SEC_PARAMS: u32 = 2;
const SEC_MEMBERSHIP: u32 = 3;
const SEC_HISTORY: u32 = 4;
const SEC_OPTIM: u32 = 5;
const SEC_DELTA: u32 = 6;

/// Why a checkpoint failed to load. Every variant names the damage so
/// recovery code (and humans reading logs) can tell a missing file from
/// a torn write from bit rot.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error (including file-not-found).
    Io(io::Error),
    /// The file does not start with [`STATE_MAGIC`].
    BadMagic { found: [u8; 4] },
    /// The container version is newer than this build understands.
    BadVersion { found: u32 },
    /// The file ends in the middle of `what` — a torn write.
    Truncated { what: &'static str },
    /// A section's stored CRC32 does not match its bytes.
    CrcMismatch { section: u32 },
    /// A required section is absent (torn tail or writer bug).
    MissingSection { section: u32 },
    /// A section parsed but its contents are inconsistent.
    Malformed { section: u32, what: String },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::BadMagic { found } => {
                write!(f, "not a SSV2 checkpoint (magic {found:?})")
            }
            CheckpointError::BadVersion { found } => {
                write!(f, "unsupported checkpoint version {found}")
            }
            CheckpointError::Truncated { what } => {
                write!(f, "checkpoint truncated while reading {what}")
            }
            CheckpointError::CrcMismatch { section } => {
                write!(f, "checkpoint section {section} failed its CRC32 check")
            }
            CheckpointError::MissingSection { section } => {
                write!(f, "checkpoint is missing required section {section}")
            }
            CheckpointError::Malformed { section, what } => {
                write!(f, "checkpoint section {section} malformed: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The full recoverable training state of one rank.
///
/// The parameter server checkpoints the *global* view (params,
/// membership, sync history) after every sync round; workers checkpoint
/// their *local* view (optimizer slots, δ-tracker) after every synced
/// step. Both use the same container so one loader serves resume,
/// rejoin, and standby promotion.
#[derive(Debug, Clone)]
pub struct TrainState {
    /// Next step/round to execute (everything below it is durable).
    pub step: u64,
    /// Completed synchronization rounds.
    pub syncs: u64,
    /// Completed heartbeat rounds (elastic PS only; equals `step`).
    pub rounds: u64,
    /// Root RNG seed of the run (partitions, injection draws).
    pub seed: u64,
    /// Batches drawn from the current cursor since the last partition
    /// rebuild. Recorded for diagnostics; rejoin rebuilds cursors
    /// deterministically on the membership change, so it is not replayed.
    pub cursor_consumed: u64,
    /// Adam's bias-correction step count (0 for SGD / the PS).
    pub optim_t: u64,
    /// Flat parameters (global on the PS, replica on a worker).
    pub params: Vec<f32>,
    /// Elastic membership: which worker ranks are alive.
    pub alive: Vec<bool>,
    /// Elastic membership: which worker ranks finished cleanly.
    pub done: Vec<bool>,
    /// Eviction history as `(round, rank)` pairs.
    pub evictions: Vec<(u64, usize)>,
    /// Join history as `(round, rank)` pairs.
    pub joins: Vec<(u64, usize)>,
    /// Optimizer slot buffers (SGD velocity, or Adam m ++ v), empty on
    /// the PS.
    pub optim_slots: Vec<Vec<f32>>,
    /// The worker's Δ(g) tracker (EWMA window + previous smoothed norm),
    /// `None` on the PS.
    pub delta_state: Option<RelativeGradChange>,
}

impl TrainState {
    /// A state with only parameters filled in — what a fresh PS would
    /// checkpoint before any rounds have run.
    pub fn fresh(n_workers: usize, params: Vec<f32>) -> Self {
        TrainState {
            step: 0,
            syncs: 0,
            rounds: 0,
            seed: 0,
            cursor_consumed: 0,
            optim_t: 0,
            params,
            alive: vec![true; n_workers],
            done: vec![false; n_workers],
            evictions: Vec::new(),
            joins: Vec::new(),
            optim_slots: Vec::new(),
            delta_state: None,
        }
    }
}

/// The checksum stamped on every checkpoint section: the workspace's
/// one CRC32 (IEEE), shared with the wire codec.
pub use selsync_comm::crc32;

// ---------------------------------------------------------------------
// v2 encode
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_section(out: &mut Vec<u8>, id: u32, body: &[u8]) {
    put_u32(out, id);
    put_u64(out, body.len() as u64);
    put_u32(out, crc32(body));
    out.extend_from_slice(body);
}

fn put_f32_slice(out: &mut Vec<u8>, vals: &[f32]) {
    put_u64(out, vals.len() as u64);
    let mut body = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        body.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&body);
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[(u64, usize)]) {
    put_u64(out, pairs.len() as u64);
    for &(step, rank) in pairs {
        put_u64(out, step);
        put_u64(out, rank as u64);
    }
}

/// Serialize a [`TrainState`] to the v2 container bytes. Public so the
/// torn-write tests can sweep kill offsets over the exact byte stream
/// [`save_state`] produces.
pub fn encode_state(state: &TrainState) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(STATE_MAGIC);
    put_u32(&mut out, STATE_VERSION);
    let n_sections = 5 + u32::from(state.delta_state.is_some());
    put_u32(&mut out, n_sections);

    let mut body = Vec::new();
    for v in [
        state.step,
        state.syncs,
        state.rounds,
        state.seed,
        state.cursor_consumed,
        state.optim_t,
    ] {
        put_u64(&mut body, v);
    }
    put_section(&mut out, SEC_META, &body);

    body.clear();
    put_f32_slice(&mut body, &state.params);
    put_section(&mut out, SEC_PARAMS, &body);

    body.clear();
    assert_eq!(state.alive.len(), state.done.len(), "membership vectors");
    put_u64(&mut body, state.alive.len() as u64);
    for (a, d) in state.alive.iter().zip(&state.done) {
        body.push(u8::from(*a) | (u8::from(*d) << 1));
    }
    put_section(&mut out, SEC_MEMBERSHIP, &body);

    body.clear();
    put_pairs(&mut body, &state.evictions);
    put_pairs(&mut body, &state.joins);
    put_section(&mut out, SEC_HISTORY, &body);

    body.clear();
    put_u64(&mut body, state.optim_slots.len() as u64);
    for slot in &state.optim_slots {
        put_f32_slice(&mut body, slot);
    }
    put_section(&mut out, SEC_OPTIM, &body);

    if let Some(delta) = &state.delta_state {
        // lint:allow(unwrap-in-prod): serializing a plain struct of numeric
        // fields (no maps, no non-UTF8) is infallible in serde_json
        let json = serde_json::to_string(delta).expect("δ-tracker serializes");
        put_section(&mut out, SEC_DELTA, json.as_bytes());
    }
    out
}

// ---------------------------------------------------------------------
// v2 decode
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, CheckpointError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, CheckpointError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32s(&mut self, section: u32) -> Result<Vec<f32>, CheckpointError> {
        let len = self.u64("f32 slice length")? as usize;
        if len > self.buf.len() {
            return Err(CheckpointError::Malformed {
                section,
                what: format!("slice length {len} exceeds section"),
            });
        }
        let body = self.take(len * 4, "f32 slice body")?;
        Ok(body
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn pairs(&mut self, section: u32) -> Result<Vec<(u64, usize)>, CheckpointError> {
        let n = self.u64("pair count")? as usize;
        if n > self.buf.len() {
            return Err(CheckpointError::Malformed {
                section,
                what: format!("pair count {n} exceeds section"),
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let step = self.u64("pair step")?;
            let rank = self.u64("pair rank")? as usize;
            out.push((step, rank));
        }
        Ok(out)
    }
}

fn require<'a>(sections: &'a [(u32, &[u8])], id: u32) -> Result<Reader<'a>, CheckpointError> {
    sections
        .iter()
        .find(|(sid, _)| *sid == id)
        .map(|(_, body)| Reader { buf: body, pos: 0 })
        .ok_or(CheckpointError::MissingSection { section: id })
}

/// Parse v2 container bytes back into a [`TrainState`].
///
/// # Errors
/// Typed [`CheckpointError`] on any damage: wrong magic, future version,
/// truncation anywhere, per-section CRC mismatch, missing required
/// section, or inconsistent contents.
pub fn decode_state(bytes: &[u8]) -> Result<TrainState, CheckpointError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let magic = r.take(4, "magic")?;
    if magic != STATE_MAGIC {
        return Err(CheckpointError::BadMagic {
            found: [magic[0], magic[1], magic[2], magic[3]],
        });
    }
    let version = r.u32("version")?;
    if version > STATE_VERSION {
        return Err(CheckpointError::BadVersion { found: version });
    }
    let n_sections = r.u32("section count")?;

    let mut sections: Vec<(u32, &[u8])> = Vec::with_capacity(n_sections as usize);
    for _ in 0..n_sections {
        let id = r.u32("section id")?;
        let len = r.u64("section length")? as usize;
        let stored_crc = r.u32("section crc")?;
        let body = r.take(len, "section body")?;
        if crc32(body) != stored_crc {
            return Err(CheckpointError::CrcMismatch { section: id });
        }
        sections.push((id, body));
    }

    let mut meta = require(&sections, SEC_META)?;
    let step = meta.u64("meta step")?;
    let syncs = meta.u64("meta syncs")?;
    let rounds = meta.u64("meta rounds")?;
    let seed = meta.u64("meta seed")?;
    let cursor_consumed = meta.u64("meta cursor")?;
    let optim_t = meta.u64("meta optim_t")?;

    let params = require(&sections, SEC_PARAMS)?.f32s(SEC_PARAMS)?;

    let mut mem = require(&sections, SEC_MEMBERSHIP)?;
    let n = mem.u64("membership count")? as usize;
    let bits = mem.take(n, "membership bytes")?;
    let alive: Vec<bool> = bits.iter().map(|b| b & 1 != 0).collect();
    let done: Vec<bool> = bits.iter().map(|b| b & 2 != 0).collect();

    let mut hist = require(&sections, SEC_HISTORY)?;
    let evictions = hist.pairs(SEC_HISTORY)?;
    let joins = hist.pairs(SEC_HISTORY)?;

    let mut optim = require(&sections, SEC_OPTIM)?;
    let n_slots = optim.u64("optim slot count")? as usize;
    if n_slots > bytes.len() {
        return Err(CheckpointError::Malformed {
            section: SEC_OPTIM,
            what: format!("slot count {n_slots} exceeds file"),
        });
    }
    let mut optim_slots = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        optim_slots.push(optim.f32s(SEC_OPTIM)?);
    }

    let delta_state = match sections.iter().find(|(id, _)| *id == SEC_DELTA) {
        Some((_, body)) => {
            let text = std::str::from_utf8(body).map_err(|e| CheckpointError::Malformed {
                section: SEC_DELTA,
                what: e.to_string(),
            })?;
            Some(
                serde_json::from_str(text).map_err(|e| CheckpointError::Malformed {
                    section: SEC_DELTA,
                    what: e.to_string(),
                })?,
            )
        }
        None => None,
    };

    Ok(TrainState {
        step,
        syncs,
        rounds,
        seed,
        cursor_consumed,
        optim_t,
        params,
        alive,
        done,
        evictions,
        joins,
        optim_slots,
        delta_state,
    })
}

// ---------------------------------------------------------------------
// v2 durable file I/O
// ---------------------------------------------------------------------

/// Path of the retained previous generation for `path`.
pub fn prev_path(path: &Path) -> PathBuf {
    sibling(path, "prev")
}

fn tmp_path(path: &Path) -> PathBuf {
    sibling(path, "tmp")
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!("{name}.{suffix}"))
}

/// Durably write `state` to `path`: encode, write to a temp file,
/// `fsync`, rotate any existing `path` to `path.prev`, then atomically
/// rename the temp file into place. A crash at any byte offset leaves
/// either the old generation at `path`, or the old generation at
/// `path.prev` (with `path` absent or complete) — never a file that
/// parses to wrong state.
///
/// # Errors
/// [`CheckpointError::Io`] on filesystem failure.
pub fn save_state(path: impl AsRef<Path>, state: &TrainState) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let bytes = encode_state(state);
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    if path.exists() {
        fs::rename(path, prev_path(path))?;
    }
    fs::rename(&tmp, path)?;
    // Best-effort directory sync so the renames themselves are durable;
    // not all filesystems allow opening a directory for sync.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Load a v2 checkpoint from `path`, strictly.
///
/// # Errors
/// Typed [`CheckpointError`] on any read or parse failure.
pub fn load_state(path: impl AsRef<Path>) -> Result<TrainState, CheckpointError> {
    let bytes = fs::read(path)?;
    decode_state(&bytes)
}

/// Load a v2 checkpoint, falling back to the retained `.prev` generation
/// when the current file is missing, torn, or corrupt. Returns the state
/// and whether the fallback generation was used.
///
/// # Errors
/// The *primary* file's error when neither generation loads (so logs
/// point at the real damage, not at a possibly-absent `.prev`).
pub fn load_state_with_fallback(
    path: impl AsRef<Path>,
) -> Result<(TrainState, bool), CheckpointError> {
    let path = path.as_ref();
    match load_state(path) {
        Ok(state) => Ok((state, false)),
        Err(primary) => match load_state(prev_path(path)) {
            Ok(state) => Ok((state, true)),
            Err(_) => Err(primary),
        },
    }
}

// ---------------------------------------------------------------------
// v2 generation probing (serving-tier rolling reload)
// ---------------------------------------------------------------------

/// A checkpoint file's generation identity, cheap enough to poll: the
/// serving tier's reload watcher compares successive probes to notice
/// that the trainer atomically renamed a new SSV2 image into place,
/// without reading the (large) parameter section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateGeneration {
    /// `step` from the checkpoint's meta section.
    pub step: u64,
    /// `syncs` from the checkpoint's meta section.
    pub syncs: u64,
    /// Total file length in bytes.
    pub file_len: u64,
}

fn read_exact_probe(
    f: &mut File,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), CheckpointError> {
    f.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated { what }
        } else {
            CheckpointError::Io(e)
        }
    })
}

/// Probe `path` for its generation: validates magic/version, walks the
/// section table reading only headers, and CRC-checks just the 48-byte
/// meta section. Reads O(sections) bytes regardless of model size, so a
/// replica can poll it on a short interval without touching the
/// parameter payload.
///
/// Falls back to the retained `.prev` generation when the current file
/// is missing, torn, or fails its header CRC — the same policy as
/// [`load_state_with_fallback`], so the watcher and the loader agree on
/// which generation is live: a torn in-progress rewrite of the current
/// file surfaces the previous generation instead of stalling the reload
/// loop on an error.
///
/// # Errors
/// The *primary* file's typed [`CheckpointError`] when neither
/// generation probes (missing/unreadable file, bad magic or version,
/// truncation, a corrupt meta section, or a missing meta section) — the
/// same taxonomy as the full loader, so a watcher can log a torn
/// in-progress write distinctly from real damage.
pub fn probe_state_generation(path: impl AsRef<Path>) -> Result<StateGeneration, CheckpointError> {
    let path = path.as_ref();
    match probe_one_generation(path) {
        Ok(gen) => Ok(gen),
        Err(primary) => match probe_one_generation(&prev_path(path)) {
            Ok(gen) => Ok(gen),
            Err(_) => Err(primary),
        },
    }
}

fn probe_one_generation(path: &Path) -> Result<StateGeneration, CheckpointError> {
    let mut f = File::open(path)?;
    let file_len = f.metadata()?.len();
    let mut head = [0u8; 12];
    read_exact_probe(&mut f, &mut head, "header")?;
    if &head[..4] != STATE_MAGIC {
        return Err(CheckpointError::BadMagic {
            found: [head[0], head[1], head[2], head[3]],
        });
    }
    let version = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if version > STATE_VERSION {
        return Err(CheckpointError::BadVersion { found: version });
    }
    let n_sections = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
    for _ in 0..n_sections {
        let mut sh = [0u8; 16];
        read_exact_probe(&mut f, &mut sh, "section header")?;
        let id = u32::from_le_bytes([sh[0], sh[1], sh[2], sh[3]]);
        let len = u64::from_le_bytes([sh[4], sh[5], sh[6], sh[7], sh[8], sh[9], sh[10], sh[11]]);
        let stored_crc = u32::from_le_bytes([sh[12], sh[13], sh[14], sh[15]]);
        if id == SEC_META {
            if len != 48 {
                return Err(CheckpointError::Malformed {
                    section: SEC_META,
                    what: format!("meta section is {len} bytes, expected 48"),
                });
            }
            let mut body = [0u8; 48];
            read_exact_probe(&mut f, &mut body, "meta body")?;
            if crc32(&body) != stored_crc {
                return Err(CheckpointError::CrcMismatch { section: SEC_META });
            }
            let step = u64::from_le_bytes([
                body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
            ]);
            let syncs = u64::from_le_bytes([
                body[8], body[9], body[10], body[11], body[12], body[13], body[14], body[15],
            ]);
            return Ok(StateGeneration {
                step,
                syncs,
                file_len,
            });
        }
        let skip = i64::try_from(len).map_err(|_| CheckpointError::Malformed {
            section: id,
            what: format!("section length {len} overflows a seek"),
        })?;
        f.seek(SeekFrom::Current(skip))?;
    }
    Err(CheckpointError::MissingSection { section: SEC_META })
}

// ---------------------------------------------------------------------
// Results + v1 params (kept for --save-params / warm-start compat)
// ---------------------------------------------------------------------

/// Write a [`RunResult`] as pretty JSON.
pub fn save_result(path: impl AsRef<Path>, result: &RunResult) -> io::Result<()> {
    let file = File::create(path)?;
    serde_json::to_writer_pretty(BufWriter::new(file), result)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Read a [`RunResult`] back from JSON.
pub fn load_result(path: impl AsRef<Path>) -> io::Result<RunResult> {
    let file = File::open(path)?;
    serde_json::from_reader(BufReader::new(file))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Write a flat parameter vector in the v1 binary checkpoint format.
/// The body is assembled into one buffer and written with a single
/// `write_all` (one syscall through the writer instead of one per
/// element).
pub fn save_params(path: impl AsRef<Path>, params: &[f32]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(params.len() as u64).to_le_bytes())?;
    let mut body = Vec::with_capacity(params.len() * 4);
    for &v in params {
        body.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&body)?;
    w.flush()
}

/// Read a flat parameter vector from the v1 binary checkpoint format.
///
/// # Errors
/// Fails with `InvalidData` on a bad magic, truncated body, or length
/// mismatch.
pub fn load_params(path: impl AsRef<Path>) -> io::Result<Vec<f32>> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a SSYN checkpoint",
        ));
    }
    let mut len_bytes = [0u8; 8];
    r.read_exact(&mut len_bytes)?;
    let len = u64::from_le_bytes(len_bytes) as usize;
    let mut body = Vec::new();
    r.read_to_end(&mut body)?;
    if body.len() != len * 4 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected {} parameter bytes, found {}", len * 4, body.len()),
        ));
    }
    Ok(body
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RunConfig, Strategy};
    use crate::trainer::run_distributed;
    use crate::workload::Workload;
    use proptest::prelude::*;
    use selsync_nn::models::ModelKind;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("selsync_ckpt_{}_{name}", std::process::id()));
        p
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn sample_state(tag: u64) -> TrainState {
        let mut delta = RelativeGradChange::new(5, 0.3);
        delta.update(1.0 + tag as f32);
        delta.update(2.5);
        TrainState {
            step: 7 + tag,
            syncs: 4,
            rounds: 7 + tag,
            seed: 42,
            cursor_consumed: 13,
            optim_t: 3,
            params: (0..257)
                .map(|i| ((i as f32) * 0.31 + tag as f32).sin())
                .collect(),
            alive: vec![true, false, true],
            done: vec![false, false, true],
            evictions: vec![(3, 1)],
            joins: vec![(5, 1), (6, 2)],
            optim_slots: vec![vec![0.5, -0.25], vec![], vec![1.0; 7]],
            delta_state: Some(delta),
        }
    }

    fn assert_states_equal(a: &TrainState, b: &TrainState) {
        assert_eq!(a.step, b.step);
        assert_eq!(a.syncs, b.syncs);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.cursor_consumed, b.cursor_consumed);
        assert_eq!(a.optim_t, b.optim_t);
        assert_eq!(bits(&a.params), bits(&b.params));
        assert_eq!(a.alive, b.alive);
        assert_eq!(a.done, b.done);
        assert_eq!(a.evictions, b.evictions);
        assert_eq!(a.joins, b.joins);
        assert_eq!(a.optim_slots.len(), b.optim_slots.len());
        for (x, y) in a.optim_slots.iter().zip(&b.optim_slots) {
            assert_eq!(bits(x), bits(y));
        }
        assert_eq!(
            serde_json::to_string(&a.delta_state).unwrap(),
            serde_json::to_string(&b.delta_state).unwrap()
        );
    }

    #[test]
    fn state_roundtrips_bitwise() {
        let state = sample_state(0);
        let back = decode_state(&encode_state(&state)).unwrap();
        assert_states_equal(&state, &back);
    }

    #[test]
    fn state_without_delta_roundtrips() {
        let mut state = sample_state(1);
        state.delta_state = None;
        let back = decode_state(&encode_state(&state)).unwrap();
        assert!(back.delta_state.is_none());
        assert_states_equal(&state, &back);
    }

    #[test]
    fn save_load_state_via_file() {
        let path = tmp("v2.ckpt");
        let state = sample_state(2);
        save_state(&path, &state).unwrap();
        let back = load_state(&path).unwrap();
        assert_states_equal(&state, &back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let state = sample_state(3);
        let mut bytes = encode_state(&state);
        bytes[0] = b'X';
        assert!(matches!(
            decode_state(&bytes),
            Err(CheckpointError::BadMagic { .. })
        ));
        let mut bytes = encode_state(&state);
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_state(&bytes),
            Err(CheckpointError::BadVersion { found: 99 })
        ));
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        // cut the container at *every* byte offset; no prefix may parse
        // into a state (the full file must, obviously)
        let bytes = encode_state(&sample_state(4));
        for cut in 0..bytes.len() {
            let err = decode_state(&bytes[..cut]);
            assert!(
                err.is_err(),
                "prefix of {cut}/{} bytes must not parse",
                bytes.len()
            );
        }
        assert!(decode_state(&bytes).is_ok());
    }

    #[test]
    fn save_retains_previous_generation_and_fallback_loads_it() {
        let path = tmp("gen.ckpt");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(prev_path(&path)).ok();

        let gen1 = sample_state(10);
        let gen2 = sample_state(20);
        save_state(&path, &gen1).unwrap();
        save_state(&path, &gen2).unwrap();

        // both generations on disk, current wins
        let (cur, fell_back) = load_state_with_fallback(&path).unwrap();
        assert!(!fell_back);
        assert_eq!(cur.step, gen2.step);

        // corrupt the current file -> fallback to gen1, flagged
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (prev, fell_back) = load_state_with_fallback(&path).unwrap();
        assert!(fell_back);
        assert_eq!(prev.step, gen1.step);

        // remove the current file entirely -> still the previous gen
        std::fs::remove_file(&path).unwrap();
        let (prev, fell_back) = load_state_with_fallback(&path).unwrap();
        assert!(fell_back);
        assert_eq!(prev.step, gen1.step);

        // neither generation -> the primary error surfaces
        std::fs::remove_file(prev_path(&path)).unwrap();
        assert!(load_state_with_fallback(&path).is_err());
    }

    #[test]
    fn torn_write_sweep_always_leaves_a_loadable_checkpoint() {
        // Simulate the writer being killed at every byte offset of the
        // gen-2 image, in the worst ordering imaginable: the partial
        // image already renamed over `path` (stronger than the real
        // save, whose rename is atomic). The durable gen-1 must load
        // through the fallback for every torn prefix.
        let gen1 = sample_state(100);
        let gen2 = sample_state(200);
        let image = encode_state(&gen2);
        let path = tmp("torn.ckpt");
        for cut in 0..=image.len() {
            std::fs::write(prev_path(&path), encode_state(&gen1)).unwrap();
            std::fs::write(&path, &image[..cut]).unwrap();
            let (state, fell_back) =
                load_state_with_fallback(&path).unwrap_or_else(|e| panic!("offset {cut}: {e}"));
            if cut == image.len() {
                assert!(!fell_back);
                assert_eq!(state.step, gen2.step);
            } else {
                assert!(fell_back, "torn prefix of {cut} bytes must fall back");
                assert_eq!(state.step, gen1.step);
                assert_eq!(bits(&state.params), bits(&gen1.params));
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(prev_path(&path)).ok();
    }

    proptest! {
        #[test]
        fn prop_state_roundtrips(
            step in 0u64..1000,
            seed in 0u64..=u64::MAX,
            params in proptest::collection::vec(0u32..=u32::MAX, 0..64),
            n_workers in 0usize..8,
            slots in proptest::collection::vec(
                proptest::collection::vec(0u32..=u32::MAX, 0..16), 0..4),
        ) {
            let state = TrainState {
                step,
                syncs: step / 2,
                rounds: step,
                seed,
                cursor_consumed: step % 7,
                optim_t: step % 5,
                params: params.iter().map(|b| f32::from_bits(*b)).collect(),
                alive: (0..n_workers).map(|i| i % 2 == 0).collect(),
                done: (0..n_workers).map(|i| i % 3 == 0).collect(),
                evictions: vec![(step, 1)],
                joins: Vec::new(),
                optim_slots: slots
                    .iter()
                    .map(|s| s.iter().map(|b| f32::from_bits(*b)).collect())
                    .collect(),
                delta_state: None,
            };
            let back = decode_state(&encode_state(&state)).unwrap();
            prop_assert_eq!(bits(&state.params), bits(&back.params));
            prop_assert_eq!(state.step, back.step);
            prop_assert_eq!(state.alive, back.alive);
            prop_assert_eq!(state.done, back.done);
            prop_assert_eq!(state.optim_slots.len(), back.optim_slots.len());
            for (x, y) in state.optim_slots.iter().zip(&back.optim_slots) {
                prop_assert_eq!(bits(x), bits(y));
            }
        }

        #[test]
        fn prop_bit_flips_never_parse_silently(
            flip_at in 0usize..2048,
            flip_mask in 1u16..256,
        ) {
            // flipping any byte anywhere in the container must yield a
            // typed error — or, if it lands in dead space (there is
            // none, but keep the property honest), an identical state
            let state = sample_state(9);
            let mut bytes = encode_state(&state);
            let at = flip_at % bytes.len();
            bytes[at] ^= flip_mask as u8;
            match decode_state(&bytes) {
                Err(_) => {}
                Ok(back) => {
                    // a flip that still parses must not have silently
                    // changed the trained parameters
                    prop_assert_eq!(bits(&state.params), bits(&back.params));
                }
            }
        }

        #[test]
        fn prop_truncations_never_parse(cut_frac in 0.0f64..1.0) {
            let bytes = encode_state(&sample_state(11));
            let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(decode_state(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn probe_reports_generation_and_tracks_rewrites() {
        let path = tmp("probe.ckpt");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(prev_path(&path)).ok();
        assert!(matches!(
            probe_state_generation(&path),
            Err(CheckpointError::Io(_))
        ));

        let gen1 = sample_state(30);
        save_state(&path, &gen1).unwrap();
        let g1 = probe_state_generation(&path).unwrap();
        assert_eq!(g1.step, gen1.step);
        assert_eq!(g1.syncs, gen1.syncs);
        assert_eq!(g1.file_len, encode_state(&gen1).len() as u64);

        // same state re-saved probes equal; a new generation differs
        save_state(&path, &gen1).unwrap();
        assert_eq!(probe_state_generation(&path).unwrap(), g1);
        let gen2 = sample_state(31);
        save_state(&path, &gen2).unwrap();
        let g2 = probe_state_generation(&path).unwrap();
        assert_ne!(g2, g1);
        assert_eq!(g2.step, gen2.step);

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(prev_path(&path)).ok();
    }

    #[test]
    fn probe_rejects_damage_with_typed_errors() {
        let path = tmp("probe_bad.ckpt");
        let state = sample_state(32);
        let image = encode_state(&state);

        std::fs::write(&path, b"XXXX").unwrap();
        assert!(matches!(
            probe_state_generation(&path),
            Err(CheckpointError::Truncated { .. })
        ));

        let mut bad = image.clone();
        bad[0] = b'Z';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            probe_state_generation(&path),
            Err(CheckpointError::BadMagic { .. })
        ));

        // flip a byte inside the meta body: CRC catches it
        let mut bad = image.clone();
        bad[12 + 16] ^= 0xFF; // first byte of the meta section body
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            probe_state_generation(&path),
            Err(CheckpointError::CrcMismatch { section: 1 })
        ));

        // cut inside the meta body: truncation, not a parse
        std::fs::write(&path, &image[..12 + 16 + 20]).unwrap();
        assert!(matches!(
            probe_state_generation(&path),
            Err(CheckpointError::Truncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn probe_falls_back_to_prev_on_torn_header() {
        let path = tmp("probe_torn.ckpt");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(prev_path(&path)).ok();
        let gen1 = sample_state(33);
        let gen2 = sample_state(34);
        save_state(&path, &gen1).unwrap();
        save_state(&path, &gen2).unwrap(); // .prev now holds gen1

        // tear the current file mid-header, as a crash during a rewrite
        // would: the probe must surface the durable .prev generation
        let image = encode_state(&gen2);
        std::fs::write(&path, &image[..7]).unwrap();
        let g = probe_state_generation(&path).unwrap();
        assert_eq!(g.step, gen1.step, "fallback reports the .prev state");
        assert_eq!(g.syncs, gen1.syncs);

        // a meta-CRC failure in the current file falls back the same way
        let mut bad = image.clone();
        bad[12 + 16] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(probe_state_generation(&path).unwrap().step, gen1.step);

        // both generations damaged: the *primary* error is reported
        std::fs::write(prev_path(&path), b"XX").unwrap();
        assert!(matches!(
            probe_state_generation(&path),
            Err(CheckpointError::CrcMismatch { section: 1 })
        ));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(prev_path(&path)).ok();
    }

    #[test]
    fn params_roundtrip_bitwise() {
        let path = tmp("params.bin");
        let params: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin()).collect();
        save_params(&path, &params).unwrap();
        let back = load_params(&path).unwrap();
        assert_eq!(params, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("bad.bin");
        std::fs::write(&path, b"NOPE12345678").unwrap();
        assert!(load_params(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_body_is_rejected() {
        let path = tmp("trunc.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&10u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]); // 3 floats instead of 10
        std::fs::write(&path, bytes).unwrap();
        assert!(load_params(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn result_roundtrip_preserves_run() {
        let wl = Workload::vision(ModelKind::VggMini, 64, 16, 3);
        let cfg = RunConfig {
            strategy: Strategy::LocalOnly,
            n_workers: 2,
            max_steps: 4,
            eval_every: 4,
            ..RunConfig::quick_defaults()
        };
        let r = run_distributed(&cfg, &wl);
        let path = tmp("result.json");
        save_result(&path, &r).unwrap();
        let back = load_result(&path).unwrap();
        assert_eq!(back.steps_run, r.steps_run);
        assert_eq!(back.final_params, r.final_params);
        assert_eq!(back.lssr, r.lssr);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_start_resumes_from_checkpoint() {
        let wl = Workload::vision(ModelKind::ResNetMini, 128, 40, 4);
        let cfg = RunConfig {
            strategy: Strategy::Bsp {
                aggregation: crate::config::Aggregation::Parameter,
            },
            n_workers: 2,
            max_steps: 12,
            eval_every: 12,
            ..RunConfig::quick_defaults()
        };
        let first = run_distributed(&cfg, &wl);
        let path = tmp("warm.bin");
        save_params(&path, &first.final_params).unwrap();

        // resume: a warm-started workload must begin where we stopped
        let mut warm = wl.clone();
        warm.init_params = Some(load_params(&path).unwrap());
        let resumed = run_distributed(&cfg, &warm);
        // the second leg of training continues improving (or at least
        // does not regress catastrophically from the checkpoint)
        assert!(
            resumed.final_metric >= first.final_metric - 0.1,
            "resumed {} vs first {}",
            resumed.final_metric,
            first.final_metric
        );
        std::fs::remove_file(&path).ok();
    }
}
