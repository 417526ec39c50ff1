//! Crash-safe persistence for a running [`CappedService`](crate::CappedService).
//!
//! The service's checkpoint is a two-layer format: the inner layer is a
//! complete `iba_core::checkpoint` payload (tag `IBA1` — byte for byte the
//! checkpoint of the equivalent `CappedProcess`, driver RNG stream
//! included, and restorable by the core tooling on its own), wrapped in a
//! serve envelope (tag `IBSV`) that adds the state only the serving layer
//! owns: the ticket-id watermark, lifetime admission counters, the pending
//! ticket map, and the bin range list. See
//! [`CappedService::checkpoint_bytes`](crate::CappedService::checkpoint_bytes) for the capture protocol and
//! [`CappedService::resume`](crate::CappedService::resume) for the recovery guarantees (bit-identical
//! continuation).
//!
//! This module supplies the error types. Files go through
//! [`iba_core::checkpoint::RotatingFile`], whose `.prev` rotation and
//! fallback load serve every checkpoint in the workspace:
//!
//! ```no_run
//! use iba_core::checkpoint::RotatingFile;
//! use iba_serve::{CappedService, ServeCheckpointError, ServiceConfig};
//! # fn demo(service: &mut CappedService, config: ServiceConfig) -> Result<(), ServeCheckpointError> {
//! let file = RotatingFile::new("serve.ckpt");
//! file.save(&service.checkpoint_bytes())?;
//! let (resumed, from) =
//!     file.load(|bytes| Ok::<_, ServeCheckpointError>(CappedService::resume(config.clone(), bytes)?))?;
//! # Ok(())
//! # }
//! ```

use std::fmt;

use iba_sim::codec::CodecError;

/// Why [`CappedService::resume`](crate::CappedService::resume) rejected a checkpoint.
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

/// Why a service checkpoint file could not be saved or resumed from.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{CappedService, ServiceConfig};
    use iba_core::checkpoint::RotatingFile;
    use iba_core::CappedConfig;
    use std::fs;
    use std::path::PathBuf;

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

    /// Resumes a service from `file`'s newest usable generation.
    fn recover(
        file: &RotatingFile,
        config: &ServiceConfig,
    ) -> Result<CappedService, ServeCheckpointError> {
        file.load(|bytes| Ok(CappedService::resume(config.clone(), bytes)?))
            .map(|(service, _)| service)
    }

    #[test]
    fn save_load_roundtrips_through_a_file() {
        let dir = scratch_dir("roundtrip");
        let file = RotatingFile::new(dir.join("serve.ckpt"));
        let (config, mut original) = running_service(40);
        file.save(&original.checkpoint_bytes()).expect("saves");
        let mut restored = recover(&file, &config).expect("loads");
        for _ in 0..20 {
            assert_eq!(original.run_round(), restored.run_round());
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn load_from_missing_path_is_io_error() {
        let dir = scratch_dir("missing");
        let (config, _service) = running_service(1);
        match recover(&RotatingFile::new(dir.join("nope.ckpt")), &config) {
            Err(ServeCheckpointError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn rotating_file_recovers_a_service_from_corrupt_newest() {
        let dir = scratch_dir("rotate");
        let file = RotatingFile::new(dir.join("serve.ckpt"));
        let (config, mut service) = running_service(0);
        for _ in 0..2 {
            for _ in 0..10 {
                service.run_round();
            }
            file.save(&service.checkpoint_bytes()).expect("saves");
        }
        assert!(file.prev_path().exists(), "previous generation rotated");

        // Corrupt the newest file; recovery falls back to `.prev`.
        fs::write(file.path(), b"garbage").expect("corrupt");
        let recovered = recover(&file, &config).expect("recovers from .prev");
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
