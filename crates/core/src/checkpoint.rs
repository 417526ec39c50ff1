//! Save and resume whole simulations, in memory and crash-safely on disk.
//!
//! A [`Simulation`]`<`[`CappedProcess`]`>` is a pure function of its state
//! and its RNG stream, so checkpointing both resumes a run *bit-exactly*:
//! the continued trajectory is identical to the uninterrupted one. Useful
//! for long paper-scale runs and for archiving the exact state behind a
//! published measurement.
//!
//! Two layers:
//!
//! - [`save`] / [`restore`] — bytes in memory. The payload carries a CRC32
//!   footer (see `iba_sim::codec`), so **any** single-byte corruption is
//!   rejected deterministically at restore time.
//! - [`RotatingFile`] — crash-safe files for any checkpoint's bytes (this
//!   one, the service's envelope, the sweep's progress): each save is
//!   written to a temporary sibling, fsynced and atomically renamed into
//!   place after the previous generation was rotated to `<path>.prev`,
//!   and a load falls back to `.prev` when the newest file is missing or
//!   does not decode.
//!
//! # Examples
//!
//! ```
//! use iba_core::checkpoint;
//! use iba_core::{CappedConfig, CappedProcess};
//! use iba_sim::{Simulation, SimRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = CappedConfig::new(64, 2, 0.75)?;
//! let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(1));
//! sim.run_rounds(100);
//!
//! let bytes = checkpoint::save(&sim);
//! let mut restored = checkpoint::restore(&bytes)?;
//! // Both continuations produce the identical trajectory.
//! assert_eq!(sim.step(), restored.step());
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use iba_sim::codec::{CodecError, Decoder, Encoder};
use iba_sim::rng::SimRng;
use iba_sim::Simulation;

use crate::process::CappedProcess;

/// Checkpoint format tag.
const TAG: &str = "IBA1";
/// Current checkpoint format version. Version 2 added per-bin live
/// capacities (fault injection can diverge them from the configured
/// profile) and the CRC32 payload footer.
const VERSION: u32 = 2;

/// Serializes a CAPPED simulation (process state + RNG stream position).
pub fn save(sim: &Simulation<CappedProcess>) -> Vec<u8> {
    save_parts(sim.process(), sim.rng())
}

/// [`save`] for a process and the RNG stream that steps it, held apart
/// (as the dispatch service holds them): the same bytes.
pub fn save_parts(process: &CappedProcess, rng: &SimRng) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.header(TAG, VERSION);
    for word in rng.state() {
        enc.u64(word);
    }
    process.encode_into(&mut enc);
    enc.finish()
}

/// Restores a CAPPED simulation from checkpoint bytes.
///
/// # Errors
///
/// Returns a [`CodecError`] if the bytes are corrupted (checksum
/// mismatch), truncated, malformed, from a newer or superseded format
/// version, carry trailing garbage, or encode a state that violates the
/// process invariants.
pub fn restore(bytes: &[u8]) -> Result<Simulation<CappedProcess>, CodecError> {
    let mut dec = Decoder::new(bytes)?;
    let version = dec.header(TAG, VERSION)?;
    if version < VERSION {
        // v1 lacked per-bin capacities and the payload checksum; a v1
        // checkpoint cannot even reach this point (no CRC footer), so any
        // input claiming version 1 is not something we can trust.
        return Err(CodecError::Invalid {
            what: "superseded checkpoint version (v1 has no per-bin capacities; re-create the checkpoint)",
        });
    }
    let state = [
        dec.u64("rng state 0")?,
        dec.u64("rng state 1")?,
        dec.u64("rng state 2")?,
        dec.u64("rng state 3")?,
    ];
    if state.iter().all(|&w| w == 0) {
        return Err(CodecError::Invalid { what: "rng state" });
    }
    let rng = SimRng::from_state(state);
    let process = CappedProcess::decode_from(&mut dec)?;
    if !dec.is_exhausted() {
        return Err(CodecError::Invalid {
            what: "trailing bytes",
        });
    }
    Ok(Simulation::new(process, rng))
}

/// Error from checkpoint file I/O: either the filesystem failed or the
/// file's contents did not decode.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem operation failed.
    Io(std::io::Error),
    /// The file was read but its contents are corrupt, malformed or from
    /// an unsupported format version.
    Codec(CodecError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint file I/O failed: {e}"),
            CheckpointError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Codec(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

/// Writes `bytes` to `path` crash-safely: write to a `.tmp` sibling,
/// fsync it, atomically rename over `path`, then fsync the directory so
/// the rename itself survives a power loss.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = sibling_with_suffix(path, ".tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Directory fsync is advisory on some filesystems; ignore failure
        // (the data file itself is already durable).
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn sibling_with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map(ToOwned::to_owned).unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// A checkpoint file with one-deep rotation: `<path>` holds the newest
/// generation and `<path>.prev` the one before it.
///
/// [`save`](Self::save) rotates the current file to `.prev` and writes the
/// new bytes crash-safely (temp file, fsync, atomic rename, directory
/// fsync), so after a crash at any point one complete generation is left.
/// [`load`](Self::load) decodes the newest generation that decodes. The
/// bytes are the caller's: a [`save`]d simulation, a service envelope, a
/// sweep's progress.
///
/// # Examples
///
/// ```no_run
/// use iba_core::checkpoint::{self, CheckpointError, RotatingFile};
/// # fn demo(sim: &iba_sim::Simulation<iba_core::CappedProcess>) -> Result<(), CheckpointError> {
/// let file = RotatingFile::new("run.ckpt");
/// file.save(&checkpoint::save(sim))?;
/// let (resumed, from) = file.load(|bytes| Ok::<_, CheckpointError>(checkpoint::restore(bytes)?))?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RotatingFile {
    path: PathBuf,
    prev: PathBuf,
}

impl RotatingFile {
    /// The rotating file at `path`, its previous generation at
    /// `<path>.prev`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let prev = sibling_with_suffix(&path, ".prev");
        RotatingFile { path, prev }
    }

    /// The newest generation's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The previous generation's path, `<path>.prev`.
    pub fn prev_path(&self) -> &Path {
        &self.prev
    }

    /// Rotates the current file (if any) to `.prev`, then writes `bytes`
    /// as the newest generation crash-safely.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn save(&self, bytes: &[u8]) -> io::Result<()> {
        if self.path.exists() {
            fs::rename(&self.path, &self.prev)?;
        }
        write_atomic(&self.path, bytes)
    }

    /// Decodes the newest usable generation: `<path>` first, then
    /// `<path>.prev` if the newest is missing, unreadable or fails
    /// `decode`. Returns the value and the path it was decoded from.
    ///
    /// # Errors
    ///
    /// If neither generation decodes, the **newest** file's error (the
    /// more informative one: the fallback usually just does not exist).
    pub fn load<T, E: From<io::Error>>(
        &self,
        mut decode: impl FnMut(&[u8]) -> Result<T, E>,
    ) -> Result<(T, &Path), E> {
        let mut read = |path: &Path| decode(&fs::read(path)?);
        match read(&self.path) {
            Ok(value) => Ok((value, &self.path)),
            Err(newest) => read(&self.prev)
                .map(|value| (value, self.prev.as_path()))
                .map_err(|_| newest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Capacity, CappedConfig};
    use iba_sim::AllocationProcess;

    fn running_sim(rounds: u64) -> Simulation<CappedProcess> {
        let config = CappedConfig::new(48, 2, 0.75).expect("valid");
        let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(9));
        sim.run_rounds(rounds);
        sim
    }

    /// Unique-per-test scratch directory (no tempfile dependency).
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iba-ckpt-{}-{test}", std::process::id()));
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn roundtrip_resumes_bit_exactly() {
        let mut original = running_sim(150);
        let bytes = save(&original);
        let mut restored = restore(&bytes).expect("restores");
        for _ in 0..100 {
            assert_eq!(original.step(), restored.step());
        }
    }

    #[test]
    fn checkpoint_preserves_counters_and_round() {
        let sim = running_sim(77);
        let restored = restore(&save(&sim)).expect("restores");
        assert_eq!(restored.process().round(), 77);
        assert_eq!(
            restored.process().total_generated(),
            sim.process().total_generated()
        );
        assert_eq!(
            restored.process().total_deleted(),
            sim.process().total_deleted()
        );
        assert_eq!(restored.process().pool_size(), sim.process().pool_size());
        assert!(restored.process().conserves_balls());
    }

    #[test]
    fn checkpoint_preserves_fault_mask_and_profile() {
        let config = CappedConfig::new(8, 2, 0.5)
            .expect("valid")
            .with_capacity_profile(vec![1, 3, 1, 3, 1, 3, 1, 3])
            .expect("valid profile");
        let mut process = CappedProcess::new(config);
        process.set_bin_offline(3, true);
        let mut sim = Simulation::new(process, SimRng::seed_from(2));
        sim.run_rounds(40);
        let mut restored = restore(&save(&sim)).expect("restores");
        assert_eq!(restored.process().offline_count(), 1);
        assert_eq!(
            restored.process().config().capacity_profile(),
            sim.process().config().capacity_profile()
        );
        for _ in 0..20 {
            assert_eq!(sim.step(), restored.step());
        }
    }

    #[test]
    fn checkpoint_preserves_degraded_live_capacities() {
        // Fault injection diverges live capacities from the configured
        // profile; format v2 must round-trip them, including a bin left
        // over its (lowered) capacity.
        let mut sim = running_sim(60);
        sim.process_mut()
            .set_bin_capacity(0, Capacity::finite(1).unwrap());
        sim.process_mut().set_bin_capacity(1, Capacity::Infinite);
        let mut restored = restore(&save(&sim)).expect("restores");
        assert_eq!(
            restored.process().bin(0).capacity(),
            Capacity::finite(1).unwrap()
        );
        assert_eq!(restored.process().bin(1).capacity(), Capacity::Infinite);
        for _ in 0..50 {
            assert_eq!(sim.step(), restored.step());
        }
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let sim = running_sim(10);
        let mut bytes = save(&sim);
        bytes.truncate(bytes.len() - 5);
        assert!(restore(&bytes).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let sim = running_sim(10);
        let mut bytes = save(&sim);
        // Append a byte *inside* the checksummed payload boundary: any
        // naive append lands after the footer and already fails the CRC,
        // so re-seal a payload that legitimately carries an extra byte.
        bytes.truncate(bytes.len() - 4);
        bytes.push(0);
        let crc = iba_sim::codec::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            restore(&bytes),
            Err(CodecError::Invalid {
                what: "trailing bytes"
            })
        ));
    }

    #[test]
    fn corrupted_counter_breaks_conservation_check() {
        // Deterministic, exhaustive corruption detection: flipping any
        // single byte anywhere in the checkpoint — header, RNG state,
        // counters, pool, bin queues, fault mask or footer — must be
        // rejected outright by the CRC32 footer. No probabilistic
        // "hopefully some invariant catches it".
        let sim = running_sim(25);
        let bytes = save(&sim);
        assert!(restore(&bytes).is_ok());
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xff;
            assert!(
                matches!(
                    restore(&corrupted),
                    Err(CodecError::ChecksumMismatch { .. })
                ),
                "byte flip at offset {i} was not rejected"
            );
        }
    }

    #[test]
    fn future_version_is_rejected_with_actionable_error() {
        // A checkpoint written by a hypothetical newer binary: valid CRC,
        // valid tag, version VERSION + 1.
        let mut enc = Encoder::new();
        enc.header(TAG, VERSION + 1);
        enc.u64(123);
        let bytes = enc.finish();
        match restore(&bytes) {
            Err(CodecError::FutureVersion {
                tag,
                found,
                max_supported,
            }) => {
                assert_eq!(tag, TAG);
                assert_eq!(found, VERSION + 1);
                assert_eq!(max_supported, VERSION);
                let msg = CodecError::FutureVersion {
                    tag,
                    found,
                    max_supported,
                }
                .to_string();
                assert!(msg.contains("newer format revision"), "unhelpful: {msg}");
                assert!(msg.contains("upgrade the binary"), "unhelpful: {msg}");
            }
            other => panic!("expected FutureVersion, got {other:?}"),
        }
    }

    #[test]
    fn superseded_version_is_rejected() {
        let mut enc = Encoder::new();
        enc.header(TAG, 1);
        enc.u64(123);
        let bytes = enc.finish();
        assert!(matches!(
            restore(&bytes),
            Err(CodecError::Invalid { what }) if what.contains("superseded")
        ));
    }

    #[test]
    fn forged_bin_count_is_rejected_without_allocating_for_it() {
        // A CRC-valid checkpoint of about 100 bytes whose configuration
        // claims n = 2⁴⁰ bins: the decoder must run out of bytes, not
        // reserve per-bin state for the claimed count first.
        let n = 1usize << 40;
        let config = CappedConfig::new(n, 2, 0.5).expect("valid");
        let mut enc = Encoder::new();
        enc.header(TAG, VERSION);
        for word in [1, 2, 3, 4] {
            enc.u64(word);
        }
        config.encode_into(&mut enc);
        enc.u64(0); // round
        enc.u64(0); // total generated
        enc.u64(0); // total deleted
        enc.u64_seq(std::iter::empty());
        enc.usize(n);
        let bytes = enc.finish();
        assert!(bytes.len() < 128, "{} bytes", bytes.len());
        assert!(matches!(
            restore(&bytes),
            Err(CodecError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn wrong_tag_is_rejected() {
        assert!(restore(b"NOPE").is_err());
        assert!(restore(&[]).is_err());
    }

    /// Loads a simulation from `file`'s newest usable generation.
    fn load(file: &RotatingFile) -> Result<(Simulation<CappedProcess>, PathBuf), CheckpointError> {
        file.load(|bytes| Ok::<_, CheckpointError>(restore(bytes)?))
            .map(|(sim, from)| (sim, from.to_path_buf()))
    }

    #[test]
    fn file_roundtrip_resumes_bit_exactly() {
        let dir = scratch_dir("file-roundtrip");
        let file = RotatingFile::new(dir.join("state.ckpt"));
        let mut original = running_sim(90);
        file.save(&save(&original)).expect("saves");
        assert!(
            !sibling_with_suffix(file.path(), ".tmp").exists(),
            "tmp cleaned"
        );
        let (mut restored, from) = load(&file).expect("loads");
        assert_eq!(from, file.path());
        for _ in 0..60 {
            assert_eq!(original.step(), restored.step());
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn load_from_missing_path_is_io_error() {
        let dir = scratch_dir("missing");
        match load(&RotatingFile::new(dir.join("nope.ckpt"))) {
            Err(CheckpointError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
            }
            other => panic!("expected Io(NotFound), got {other:?}"),
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn rotating_file_saved_on_an_interval_keeps_the_previous_generation() {
        let dir = scratch_dir("interval");
        let file = RotatingFile::new(dir.join("run.ckpt"));
        let config = CappedConfig::new(32, 2, 0.75).expect("valid");
        let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(4));
        let mut saves = 0;
        for _ in 0..25 {
            sim.step();
            if sim.process().round().is_multiple_of(10) {
                file.save(&save(&sim)).expect("saves");
                saves += 1;
            }
        }
        assert_eq!(saves, 2, "rounds 10 and 20");
        assert!(file.prev_path().exists(), "rotation keeps the previous");
        // The newest generation is round 20; .prev is round 10.
        let (latest, _) = load(&file).expect("loads");
        assert_eq!(latest.process().round(), 20);
        let prev = restore(&fs::read(file.prev_path()).expect("reads prev")).expect("restores");
        assert_eq!(prev.process().round(), 10);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn rotating_file_falls_back_to_previous_on_corruption() {
        let dir = scratch_dir("fallback");
        let file = RotatingFile::new(dir.join("run.ckpt"));
        let mut sim = running_sim(0);
        sim.step();
        file.save(&save(&sim)).expect("first save");
        sim.step();
        file.save(&save(&sim)).expect("second save");
        // Corrupt the newest checkpoint (simulating a torn disk).
        let mut bytes = fs::read(file.path()).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(file.path(), &bytes).expect("write corrupt");
        let (recovered, from) = load(&file).expect("falls back to .prev");
        assert_eq!(recovered.process().round(), 1);
        assert_eq!(from, file.prev_path());
        // With the fallback also gone, the newest file's error surfaces.
        fs::remove_file(file.prev_path()).expect("remove prev");
        assert!(matches!(
            load(&file),
            Err(CheckpointError::Codec(CodecError::ChecksumMismatch { .. }))
        ));
        let _ = fs::remove_dir_all(dir);
    }
}
