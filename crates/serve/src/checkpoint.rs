//! Crash-safe persistence for a running [`CappedService`].
//!
//! The service's checkpoint is a two-layer format: the inner layer is a
//! complete `iba_core::checkpoint` payload (tag `IBA1` — byte for byte the
//! checkpoint of the equivalent `CappedProcess`, driver RNG stream
//! included, and restorable by the core tooling on its own), wrapped in a
//! serve envelope (tag `IBSV`) that adds the state only the serving layer
//! owns: the ticket-id watermark, lifetime admission counters, the pending
//! ticket map, and the shard topology. See
//! [`CappedService::checkpoint_bytes`] for the capture protocol and
//! [`CappedService::resume`] for the recovery guarantees (bit-identical
//! continuation).
//!
//! This module supplies the error type and the file-level plumbing:
//! atomic writes with `.prev` rotation ([`ServeAutosaver`]) and a
//! matching loader that falls back to the previous generation when the
//! newest file is corrupt or torn.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use iba_core::checkpoint::CheckpointError;
use iba_sim::codec::CodecError;

use crate::service::{CappedService, ServiceConfig};

/// Why [`CappedService::resume`] rejected a checkpoint.
#[derive(Debug)]
pub enum ResumeError {
    /// The bytes are corrupt, truncated, or not a serve checkpoint.
    Codec(CodecError),
    /// The checkpoint was taken under a different CAPPED(c, λ)
    /// configuration than the caller's.
    ConfigMismatch,
    /// The envelope decoded but a field is inconsistent — an RNG mode
    /// other than the driver-owned stream, shard range ends that do not
    /// tile the live bins, out-of-order pending labels, pending ids that
    /// are not one ascending range per label, pending tickets without
    /// balls, trailing bytes.
    Invalid {
        /// Which field failed validation.
        what: &'static str,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Codec(e) => write!(f, "corrupt serve checkpoint: {e}"),
            ResumeError::ConfigMismatch => {
                write!(f, "checkpoint was taken under a different configuration")
            }
            ResumeError::Invalid { what } => write!(f, "invalid serve checkpoint: {what}"),
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for ResumeError {
    fn from(e: CodecError) -> Self {
        ResumeError::Codec(e)
    }
}

/// Why a file-level save or load failed.
#[derive(Debug)]
pub enum ServeCheckpointError {
    /// Filesystem operation failed.
    Io(std::io::Error),
    /// The file was read but could not be resumed from.
    Resume(ResumeError),
}

impl fmt::Display for ServeCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeCheckpointError::Io(e) => write!(f, "serve checkpoint I/O: {e}"),
            ServeCheckpointError::Resume(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeCheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeCheckpointError::Io(e) => Some(e),
            ServeCheckpointError::Resume(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServeCheckpointError {
    fn from(e: std::io::Error) -> Self {
        ServeCheckpointError::Io(e)
    }
}

impl From<ResumeError> for ServeCheckpointError {
    fn from(e: ResumeError) -> Self {
        ServeCheckpointError::Resume(e)
    }
}

impl From<CheckpointError> for ServeCheckpointError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(io) => ServeCheckpointError::Io(io),
            CheckpointError::Codec(c) => ServeCheckpointError::Resume(ResumeError::Codec(c)),
        }
    }
}

/// Saves a service checkpoint to `path` crash-safely (temp file + fsync +
/// atomic rename): after a crash at any point, `path` holds either the
/// previous checkpoint or the new one in full, never a torn write.
///
/// # Errors
///
/// [`ServeCheckpointError::Io`] if any filesystem operation fails.
pub fn save_to_path(
    service: &mut CappedService,
    path: impl AsRef<Path>,
) -> Result<(), ServeCheckpointError> {
    let bytes = service.checkpoint_bytes();
    iba_core::checkpoint::write_bytes_atomic(path, &bytes)?;
    Ok(())
}

/// Loads and resumes a service from the checkpoint at `path`.
///
/// # Errors
///
/// [`ServeCheckpointError::Io`] if the file cannot be read,
/// [`ServeCheckpointError::Resume`] if its contents cannot be resumed
/// from (corrupt, or incompatible with `config`).
pub fn load_from_path(
    config: ServiceConfig,
    path: impl AsRef<Path>,
) -> Result<CappedService, ServeCheckpointError> {
    let bytes = fs::read(path)?;
    Ok(CappedService::resume(config, &bytes)?)
}

fn sibling_with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map(ToOwned::to_owned).unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// Periodic checkpointing for a live service, with one-deep rotation:
/// before each save the current file is renamed to `<path>.prev`, so a
/// corrupt newest generation never leaves the operator with nothing.
#[derive(Debug)]
pub struct ServeAutosaver {
    path: PathBuf,
    every: u64,
    last_saved_round: u64,
}

impl ServeAutosaver {
    /// An autosaver writing to `path` every `every` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(path: impl Into<PathBuf>, every: u64) -> Self {
        assert!(every > 0, "autosave interval must be at least one round");
        ServeAutosaver {
            path: path.into(),
            every,
            last_saved_round: 0,
        }
    }

    /// The checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The rotation path holding the previous checkpoint generation.
    pub fn prev_path(&self) -> PathBuf {
        sibling_with_suffix(&self.path, ".prev")
    }

    /// Saves if the service has advanced at least `every` rounds since the
    /// last save; returns whether a checkpoint was written.
    ///
    /// # Errors
    ///
    /// Propagates [`save_now`](Self::save_now) failures.
    pub fn tick(&mut self, service: &mut CappedService) -> Result<bool, ServeCheckpointError> {
        let round = service.round();
        if round > 0 && round.saturating_sub(self.last_saved_round) >= self.every {
            self.save_now(service)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Rotates the current file to `.prev` (if present) and saves now.
    ///
    /// # Errors
    ///
    /// [`ServeCheckpointError::Io`] if rotation or the write fails.
    pub fn save_now(&mut self, service: &mut CappedService) -> Result<(), ServeCheckpointError> {
        if self.path.exists() {
            fs::rename(&self.path, self.prev_path())?;
        }
        save_to_path(service, &self.path)?;
        self.last_saved_round = service.round();
        Ok(())
    }

    /// Resumes from the newest loadable generation: the main path first,
    /// falling back to `.prev` if the main file is missing or corrupt.
    ///
    /// # Errors
    ///
    /// The error from the *last* attempted generation if none loads.
    pub fn recover(&self, config: ServiceConfig) -> Result<CappedService, ServeCheckpointError> {
        match load_from_path(config.clone(), &self.path) {
            Ok(service) => Ok(service),
            Err(_) => load_from_path(config, self.prev_path()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::CappedConfig;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iba-serve-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn running_service(rounds: u64) -> (ServiceConfig, CappedService) {
        let config = ServiceConfig::new(CappedConfig::new(16, 2, 0.75).unwrap(), 2, 99)
            .with_model_arrivals(true);
        let mut service = CappedService::spawn(config.clone()).unwrap();
        for _ in 0..rounds {
            service.run_round();
        }
        (config, service)
    }

    #[test]
    fn save_load_roundtrips_through_a_file() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("serve.ckpt");
        let (config, mut original) = running_service(40);
        save_to_path(&mut original, &path).expect("saves");
        let mut restored = load_from_path(config, &path).expect("loads");
        for _ in 0..20 {
            assert_eq!(original.run_round(), restored.run_round());
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn load_from_missing_path_is_io_error() {
        let dir = scratch_dir("missing");
        let (config, _service) = running_service(1);
        match load_from_path(config, dir.join("nope.ckpt")) {
            Err(ServeCheckpointError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn autosaver_rotates_and_recovers_from_corrupt_newest() {
        let dir = scratch_dir("rotate");
        let path = dir.join("serve.ckpt");
        let mut saver = ServeAutosaver::new(&path, 10);
        let (config, mut service) = running_service(0);
        assert!(!saver.tick(&mut service).expect("tick"), "round 0: no save");
        for _ in 0..10 {
            service.run_round();
        }
        assert!(saver.tick(&mut service).expect("tick"), "round 10 saves");
        assert!(!saver.tick(&mut service).expect("tick"), "no double save");
        for _ in 0..10 {
            service.run_round();
        }
        assert!(saver.tick(&mut service).expect("tick"), "round 20 saves");
        assert!(saver.prev_path().exists(), "previous generation rotated");

        // Corrupt the newest file; recovery falls back to `.prev`.
        fs::write(&path, b"garbage").expect("corrupt");
        let recovered = saver.recover(config).expect("recovers from .prev");
        assert_eq!(recovered.round(), 10);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn errors_display() {
        let e = ResumeError::Invalid { what: "rng mode" };
        assert!(e.to_string().contains("rng mode"));
        assert!(ResumeError::ConfigMismatch
            .to_string()
            .contains("different"));
        let io: ServeCheckpointError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
    }
}
