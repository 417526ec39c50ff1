//! Configuration for the CAPPED(c, λ) process.

use std::fmt;
use std::num::NonZeroU32;

use iba_sim::arrivals::ArrivalModel;
use iba_sim::error::ConfigError;

/// The largest buffer capacity a bin may have, configured or raised by a
/// fault. Balls enter a bin only by acceptance, so no load exceeds it
/// either, and a bin's ring in the
/// [`BinArena`](crate::arena::BinArena) never needs more slots.
pub const MAX_CAPACITY: u32 = 4096;

/// A bin's buffer capacity: the `c ∈ ℕ` of CAPPED(c, λ), at least 1 and
/// at most [`MAX_CAPACITY`].
///
/// CAPPED(∞, λ) is the parallel GREEDY\[1\] process (Section II), which
/// `iba_baselines::GreedyBatchProcess` with `d = 1` implements; a
/// capacity no load reaches (such as [`MAX_CAPACITY`] at a small `n`)
/// rejects nothing and so runs the same trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capacity(NonZeroU32);

impl Capacity {
    /// Creates a capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroCapacity`] if `c == 0` and
    /// [`ConfigError::OutOfDomain`] if `c > MAX_CAPACITY`.
    pub fn finite(c: u32) -> Result<Self, ConfigError> {
        if c > MAX_CAPACITY {
            return Err(ConfigError::OutOfDomain {
                name: "capacity",
                domain: "c <= MAX_CAPACITY (4096)",
            });
        }
        NonZeroU32::new(c)
            .map(Capacity)
            .ok_or(ConfigError::ZeroCapacity)
    }

    /// The capacity's value, in `1..=MAX_CAPACITY`.
    #[inline]
    pub fn get(self) -> u32 {
        self.0.get()
    }

    /// Whether a buffer currently holding `load` balls can accept another.
    #[inline]
    pub fn has_room(&self, load: usize) -> bool {
        load < self.get() as usize
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<u32> for Capacity {
    type Error = ConfigError;
    fn try_from(c: u32) -> Result<Self, Self::Error> {
        Capacity::finite(c)
    }
}

/// Retired checkpoint word: choices per ball (Algorithm 1 makes one).
const RETIRED_CHOICES: u32 = 1;
/// Retired checkpoint word: acceptance policy (`0` was oldest-first).
const RETIRED_POLICY: u32 = 0;

/// Full configuration of a CAPPED(c, λ) run.
///
/// Construct with [`CappedConfig::new`] (the paper's deterministic-arrival
/// model) and refine with the builder methods. All constructors validate the
/// Section-II model constraints.
///
/// # Examples
///
/// ```
/// use iba_core::config::{CappedConfig, Capacity};
///
/// # fn main() -> Result<(), iba_sim::error::ConfigError> {
/// let config = CappedConfig::new(1 << 10, 3, 0.75)?
///     .with_capacity_profile((0..1 << 10).map(|i| 2 + 2 * (i % 2)).collect())?;
/// assert_eq!(config.bins(), 1024);
/// assert_eq!(config.capacity().get(), 4); // the profile's maximum
/// assert_eq!(config.mean_capacity(), 3.0);
/// assert_eq!(config.arrivals().mean(), 768.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CappedConfig {
    bins: usize,
    capacity: Capacity,
    lambda: f64,
    arrivals: ArrivalModel,
    /// Optional per-bin capacity override (heterogeneous-server
    /// extension); when set, `capacity` holds the maximum entry.
    capacity_profile: Option<Vec<u32>>,
}

impl CappedConfig {
    /// Creates the paper's standard configuration: `n` bins, finite capacity
    /// `c`, deterministic arrivals of `λn` balls per round, one random
    /// choice per ball.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `n == 0`, `c ∉ [1, MAX_CAPACITY]`,
    /// `λ ∉ [0, 1 − 1/n]`, or `λn` is not an integer.
    pub fn new(bins: usize, capacity: u32, lambda: f64) -> Result<Self, ConfigError> {
        let arrivals = ArrivalModel::deterministic_rate(bins, lambda)?;
        Ok(CappedConfig {
            bins,
            capacity: Capacity::finite(capacity)?,
            lambda,
            arrivals,
            capacity_profile: None,
        })
    }

    /// Replaces the arrival model (e.g. with the footnote-2 Bernoulli model
    /// or a Poisson stream) while keeping `λ` for labeling and burn-in
    /// scaling.
    pub fn with_arrivals(mut self, arrivals: ArrivalModel) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// The same configuration with a different bin count — the elastic
    /// membership view of a resized system. Everything else is kept
    /// verbatim, **including the arrival model**: membership changes scale
    /// the service's capacity while the external load stays what it was,
    /// so λn is *not* re-derived from the new `bins` (and λ's usual
    /// `1 − 1/n` domain bound is deliberately not re-checked — the rate
    /// was validated against the original n).
    ///
    /// Mid-resize checkpoints embed the resized view so the core restore
    /// path validates ball conservation against the live bin count.
    ///
    /// # Errors
    ///
    /// `ConfigError::OutOfDomain` if `bins == 0`, or if the configuration
    /// carries a heterogeneous capacity profile (a profile pins one
    /// capacity per original bin; elastic membership requires the uniform
    /// capacity class).
    pub fn resized(mut self, bins: usize) -> Result<Self, ConfigError> {
        if bins == 0 {
            return Err(ConfigError::OutOfDomain {
                name: "bins",
                domain: "n >= 1",
            });
        }
        if self.capacity_profile.is_some() {
            return Err(ConfigError::OutOfDomain {
                name: "capacity_profile",
                domain: "uniform capacities (elastic membership)",
            });
        }
        self.bins = bins;
        Ok(self)
    }

    /// Sets a heterogeneous per-bin capacity profile (the non-uniform-bins
    /// extension): `profile[i]` is bin `i`'s buffer capacity. Overrides
    /// the uniform capacity; [`capacity`](Self::capacity) then reports the
    /// profile's maximum.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfDomain`] if the profile length differs
    /// from the number of bins or an entry exceeds [`MAX_CAPACITY`], or
    /// [`ConfigError::ZeroCapacity`] if any entry is zero.
    pub fn with_capacity_profile(mut self, profile: Vec<u32>) -> Result<Self, ConfigError> {
        if profile.len() != self.bins {
            return Err(ConfigError::OutOfDomain {
                name: "capacity_profile",
                domain: "one entry per bin",
            });
        }
        let max = profile.iter().copied().max().ok_or(ConfigError::ZeroBins)?;
        if profile.contains(&0) {
            return Err(ConfigError::ZeroCapacity);
        }
        self.capacity = Capacity::finite(max)?;
        self.capacity_profile = Some(profile);
        Ok(self)
    }

    /// The per-bin capacity profile, if heterogeneous capacities are
    /// configured.
    pub fn capacity_profile(&self) -> Option<&[u32]> {
        self.capacity_profile.as_deref()
    }

    /// Capacity of bin `i` (the profile entry, or the uniform capacity).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn capacity_of(&self, i: usize) -> Capacity {
        assert!(i < self.bins, "bin index out of range");
        match &self.capacity_profile {
            Some(profile) => {
                Capacity::finite(profile[i]).expect("profile validated at construction")
            }
            None => self.capacity,
        }
    }

    /// Mean capacity across bins (used by the warm-start predictor).
    pub fn mean_capacity(&self) -> f64 {
        match &self.capacity_profile {
            Some(profile) => {
                profile.iter().map(|&c| f64::from(c)).sum::<f64>() / profile.len() as f64
            }
            None => f64::from(self.capacity.get()),
        }
    }

    /// Number of bins `n`.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Buffer capacity `c`.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Injection rate `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Arrival model.
    pub fn arrivals(&self) -> &ArrivalModel {
        &self.arrivals
    }

    /// Serializes the configuration into a checkpoint encoder.
    ///
    /// The IBA1 v2 layout keeps two retired words, written as constants:
    /// the choices per ball (`1`) and the acceptance policy (`0`,
    /// oldest-first). Checkpoints therefore stay byte-identical to those
    /// of versions that still had the two ablation knobs.
    pub fn encode_into(&self, enc: &mut iba_sim::codec::Encoder) {
        enc.usize(self.bins);
        enc.u32(self.capacity.get());
        enc.f64(self.lambda);
        self.arrivals.encode_into(enc);
        enc.u32(RETIRED_CHOICES);
        match &self.capacity_profile {
            Some(profile) => {
                enc.bool(true);
                enc.u64_seq(profile.iter().map(|&c| u64::from(c)));
            }
            None => enc.bool(false),
        }
        enc.u32(RETIRED_POLICY);
    }

    /// Deserializes a configuration from a checkpoint decoder.
    ///
    /// # Errors
    ///
    /// Returns a [`iba_sim::codec::CodecError`] on truncated or malformed
    /// input: a capacity word of 0 or above [`MAX_CAPACITY`], a retired
    /// word other than its constant, a profile that fails
    /// [`with_capacity_profile`](Self::with_capacity_profile)'s validation
    /// (length, zero or out-of-range entries), or a capacity word that is
    /// not the profile's maximum.
    pub fn decode_from(
        dec: &mut iba_sim::codec::Decoder<'_>,
    ) -> Result<Self, iba_sim::codec::CodecError> {
        use iba_sim::codec::CodecError;
        let bins = dec.usize("config bins")?;
        let raw_capacity = dec.u32("config capacity")?;
        let capacity = Capacity::finite(raw_capacity).map_err(|_| CodecError::Invalid {
            what: "config capacity",
        })?;
        let lambda = dec.f64("config lambda")?;
        let arrivals = ArrivalModel::decode_from(dec)?;
        let choices = dec.u32("config choices")?;
        let capacity_profile = if dec.bool("config profile flag")? {
            let raw = dec.u64_seq("config profile")?;
            let profile: Option<Vec<u32>> = raw.iter().map(|&c| u32::try_from(c).ok()).collect();
            // `with_capacity_profile`'s invariants: one non-zero entry per
            // bin, and the capacity word holds the maximum.
            let valid = |p: &Vec<u32>| {
                p.len() == bins && !p.contains(&0) && p.iter().max() == Some(&raw_capacity)
            };
            let invalid = CodecError::Invalid {
                what: "capacity profile",
            };
            Some(profile.filter(valid).ok_or(invalid)?)
        } else {
            None
        };
        if choices != RETIRED_CHOICES || dec.u32("config policy")? != RETIRED_POLICY {
            return Err(CodecError::Invalid {
                what: "retired ablation word",
            });
        }
        if bins == 0 || !(0.0..=1.0).contains(&lambda) {
            return Err(CodecError::Invalid {
                what: "configuration fields",
            });
        }
        Ok(CappedConfig {
            bins,
            capacity,
            lambda,
            arrivals,
            capacity_profile,
        })
    }

    /// The pool size the theory predicts for the stationary regime,
    /// `n·ln(1/(1−λ))/c + n` for finite `c` (the Section-V empirical fit).
    /// Used by [`CappedProcess::warm_start`](crate::process::CappedProcess::warm_start)
    /// to skip most of the transient.
    pub fn predicted_stationary_pool(&self) -> usize {
        let n = self.bins as f64;
        let c = self.mean_capacity();
        let log_term = if self.lambda < 1.0 {
            (1.0 / (1.0 - self.lambda)).ln()
        } else {
            0.0
        };
        ((n * log_term) / c + n).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_everything() {
        assert!(CappedConfig::new(0, 1, 0.5).is_err());
        assert!(CappedConfig::new(10, 0, 0.5).is_err());
        assert!(CappedConfig::new(10, 1, 0.33).is_err()); // 3.3 balls per round
        assert!(CappedConfig::new(10, 1, 0.95).is_err()); // > 1 - 1/n
        assert!(CappedConfig::new(10, 1, 0.5).is_ok());
    }

    #[test]
    fn capacity_room_checks() {
        let c2 = Capacity::finite(2).unwrap();
        assert!(c2.has_room(0));
        assert!(c2.has_room(1));
        assert!(!c2.has_room(2));
        assert_eq!(c2.get(), 2);
        let max = Capacity::finite(MAX_CAPACITY).unwrap();
        assert!(max.has_room(MAX_CAPACITY as usize - 1));
        assert!(!max.has_room(MAX_CAPACITY as usize));
    }

    #[test]
    fn capacity_conversions_and_display() {
        assert_eq!(Capacity::try_from(0u32), Err(ConfigError::ZeroCapacity));
        assert!(matches!(
            Capacity::try_from(MAX_CAPACITY + 1),
            Err(ConfigError::OutOfDomain {
                name: "capacity",
                ..
            })
        ));
        assert!(CappedConfig::new(8, MAX_CAPACITY + 1, 0.5).is_err());
        let c = Capacity::try_from(5u32).unwrap();
        assert_eq!(c.to_string(), "5");
        assert_eq!(Capacity::try_from(MAX_CAPACITY).unwrap().get(), 4096);
    }

    #[test]
    fn predicted_pool_matches_fit() {
        // n = 1024, c = 1, λ = 0.75: n·ln(4) + n ≈ 1024·1.386 + 1024 ≈ 2444.
        let cfg = CappedConfig::new(1024, 1, 0.75).unwrap();
        let p = cfg.predicted_stationary_pool();
        assert!((2400..2500).contains(&p), "{p}");
        // Larger capacity predicts a smaller pool.
        let cfg3 = CappedConfig::new(1024, 3, 0.75).unwrap();
        assert!(cfg3.predicted_stationary_pool() < p);
    }

    #[test]
    fn capacity_profile_validation_and_accessors() {
        let base = CappedConfig::new(4, 2, 0.5).unwrap();
        // Wrong length rejected.
        assert!(base.clone().with_capacity_profile(vec![1, 2]).is_err());
        // Zero entry rejected.
        assert!(base
            .clone()
            .with_capacity_profile(vec![1, 0, 2, 3])
            .is_err());
        // Valid profile: capacity() is the max, per-bin values preserved.
        let cfg = base.with_capacity_profile(vec![1, 3, 1, 3]).unwrap();
        assert_eq!(cfg.capacity().get(), 3);
        assert_eq!(cfg.capacity_of(0).get(), 1);
        assert_eq!(cfg.capacity_of(1).get(), 3);
        assert_eq!(cfg.mean_capacity(), 2.0);
        assert_eq!(cfg.capacity_profile(), Some(&[1u32, 3, 1, 3][..]));
    }

    #[test]
    fn uniform_config_has_no_profile() {
        let cfg = CappedConfig::new(4, 2, 0.5).unwrap();
        assert_eq!(cfg.capacity_profile(), None);
        assert_eq!(cfg.capacity_of(3).get(), 2);
        assert_eq!(cfg.mean_capacity(), 2.0);
    }

    /// Encodes a config word by word in the IBA1 v2 layout, with every
    /// field under the caller's control (including the two retired words
    /// and unvalidated profile entries), and finishes it with the CRC.
    fn parent_layout(capacity: u32, choices: u32, profile: Option<&[u64]>, policy: u32) -> Vec<u8> {
        use iba_sim::codec::Encoder;
        let mut enc = Encoder::new();
        enc.usize(4);
        enc.u32(capacity);
        enc.f64(0.5);
        ArrivalModel::deterministic_rate(4, 0.5)
            .unwrap()
            .encode_into(&mut enc);
        enc.u32(choices);
        match profile {
            Some(p) => {
                enc.bool(true);
                enc.u64_seq(p.iter().copied());
            }
            None => enc.bool(false),
        }
        enc.u32(policy);
        enc.finish()
    }

    fn decode(bytes: &[u8]) -> Result<CappedConfig, iba_sim::codec::CodecError> {
        CappedConfig::decode_from(&mut iba_sim::codec::Decoder::new(bytes)?)
    }

    #[test]
    fn codec_keeps_the_retired_words_and_round_trips() {
        let plain = CappedConfig::new(4, 2, 0.5).unwrap();
        let profiled = plain
            .clone()
            .with_capacity_profile(vec![1, 3, 1, 3])
            .unwrap();
        for (cfg, layout) in [
            (&plain, parent_layout(2, 1, None, 0)),
            (&profiled, parent_layout(3, 1, Some(&[1, 3, 1, 3]), 0)),
        ] {
            let mut enc = iba_sim::codec::Encoder::new();
            cfg.encode_into(&mut enc);
            assert_eq!(enc.finish(), layout, "byte layout of {cfg:?}");
            assert_eq!(&decode(&layout).unwrap(), cfg);
        }
    }

    #[test]
    fn decode_rejects_retired_ablation_values() {
        use iba_sim::codec::CodecError;
        // A two-choice configuration, as an older version could save it.
        assert!(matches!(
            decode(&parent_layout(2, 2, None, 0)),
            Err(CodecError::Invalid { .. })
        ));
        // A random-priority configuration (policy word 2).
        assert!(matches!(
            decode(&parent_layout(2, 1, None, 2)),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn decode_rejects_profiles_the_builder_would_refuse() {
        use iba_sim::codec::CodecError;
        let invalid = |bytes: Vec<u8>| matches!(decode(&bytes), Err(CodecError::Invalid { .. }));
        // 2^32 + 1 must not narrow to capacity 1.
        assert!(invalid(parent_layout(
            3,
            1,
            Some(&[(1 << 32) + 1, 3, 1, 3]),
            0
        )));
        // The capacity word must be the profile's maximum.
        assert!(invalid(parent_layout(2, 1, Some(&[1, 3, 1, 3]), 0)));
        assert!(invalid(parent_layout(0, 1, Some(&[1, 3, 1, 3]), 0)));
        // A capacity word of 0 (which once meant unbounded) or past the
        // maximum, with or without a profile.
        assert!(invalid(parent_layout(0, 1, None, 0)));
        assert!(invalid(parent_layout(MAX_CAPACITY + 1, 1, None, 0)));
        let past = u64::from(MAX_CAPACITY + 1);
        assert!(invalid(parent_layout(
            MAX_CAPACITY + 1,
            1,
            Some(&[1, past, 1, 3]),
            0
        )));
        // Zero entries and wrong lengths, as before.
        assert!(invalid(parent_layout(3, 1, Some(&[1, 3, 0, 3]), 0)));
        assert!(invalid(parent_layout(3, 1, Some(&[1, 3, 3]), 0)));
    }

    #[test]
    fn with_arrivals_overrides_model() {
        use iba_sim::arrivals::ArrivalModel;
        let cfg = CappedConfig::new(100, 1, 0.5)
            .unwrap()
            .with_arrivals(ArrivalModel::poisson_rate(100, 0.5).unwrap());
        assert!(matches!(cfg.arrivals(), ArrivalModel::Poisson { .. }));
        assert_eq!(cfg.lambda(), 0.5);
    }
}
