//! Pool-bound-driven autoscaling policy.
//!
//! Theorem 2 of the source paper bounds the stationary pool of a healthy
//! CAPPED(c, λ) system. The telemetry layer exports the live pool size as
//! a gauge (`iba_serve_pool_size`) but not the bound; the caller computes
//! the bound and passes it in. The [`Autoscaler`] closes the loop:
//! a pool persistently *above* a high-water fraction of the bound means
//! the fleet is under-capacitated (faults, surges, or organic load) and
//! bins should be added; a pool persistently *below* a low-water fraction
//! means capacity can be handed back.
//!
//! The policy is deliberately boring — hysteresis (distinct high/low
//! ratios), patience (consecutive rounds before acting), and cooldown
//! (quiet rounds after an action, letting the system re-stabilize before
//! the next decision) — and fully deterministic, so elastic runs replay
//! bit-exactly.

use crate::plan::MembershipEvent;

/// Tuning knobs for the [`Autoscaler`].
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalerConfig {
    /// Scale up when `pool > high_ratio · bound` (persistently).
    pub high_ratio: f64,
    /// Scale down when `pool < low_ratio · bound` (persistently).
    pub low_ratio: f64,
    /// Consecutive breaching rounds required before acting.
    pub patience: u32,
    /// Bins added or removed per action.
    pub step: usize,
    /// Never shrink below this many bins.
    pub min_bins: usize,
    /// Never grow past this many bins.
    pub max_bins: usize,
    /// Quiet rounds after an action before observations count again.
    pub cooldown: u64,
}

impl AutoscalerConfig {
    /// Defaults tuned for the serve demo: act after 5 consecutive rounds
    /// past the 1.5×/0.25× bound watermarks, ±1/8 of `max_bins` per step,
    /// 10-round cooldown.
    pub fn new(min_bins: usize, max_bins: usize) -> Self {
        assert!(min_bins >= 1, "min_bins must be at least 1");
        assert!(max_bins >= min_bins, "max_bins must be >= min_bins");
        AutoscalerConfig {
            high_ratio: 1.5,
            low_ratio: 0.25,
            patience: 5,
            step: (max_bins / 8).max(1),
            min_bins,
            max_bins,
            cooldown: 10,
        }
    }

    /// Sets the high/low watermark ratios.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= low < high` and both are finite.
    #[must_use]
    pub fn with_ratios(mut self, low: f64, high: f64) -> Self {
        assert!(
            low.is_finite() && high.is_finite() && 0.0 <= low && low < high,
            "need 0 <= low < high"
        );
        self.low_ratio = low;
        self.high_ratio = high;
        self
    }

    /// Sets the patience (consecutive breaching rounds before acting).
    #[must_use]
    pub fn with_patience(mut self, patience: u32) -> Self {
        assert!(patience >= 1, "patience must be at least 1 round");
        self.patience = patience;
        self
    }

    /// Sets the per-action step size in bins.
    #[must_use]
    pub fn with_step(mut self, step: usize) -> Self {
        assert!(step >= 1, "step must be at least 1 bin");
        self.step = step;
        self
    }

    /// Sets the post-action cooldown in rounds.
    #[must_use]
    pub fn with_cooldown(mut self, cooldown: u64) -> Self {
        self.cooldown = cooldown;
        self
    }
}

/// What the autoscaler decided on an observation (reported for logs and
/// dashboards; the accompanying event, if any, is returned separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Pool within the watermarks (or patience still accumulating).
    Hold,
    /// Cooling down after a recent action.
    Cooldown,
    /// Scale-up triggered.
    Up,
    /// Scale-down triggered.
    Down,
}

/// The deterministic scaling policy. Feed it one observation per round
/// via [`observe`](Self::observe); it occasionally returns a
/// [`MembershipEvent`] to schedule at the next round boundary.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    high_streak: u32,
    low_streak: u32,
    last_action: Option<u64>,
    actions: u64,
}

impl Autoscaler {
    /// Creates the policy.
    pub fn new(config: AutoscalerConfig) -> Self {
        Autoscaler {
            config,
            high_streak: 0,
            low_streak: 0,
            last_action: None,
            actions: 0,
        }
    }

    /// The policy's configuration.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }

    /// Lifetime number of scaling actions emitted.
    pub fn actions(&self) -> u64 {
        self.actions
    }

    /// Observes one round: the live bin count, the pool size, and the
    /// Theorem-2 stationary pool bound for the *current* capacity.
    /// Returns the membership event to apply at the next round boundary,
    /// if the policy fired, plus the decision taken.
    pub fn observe(
        &mut self,
        round: u64,
        live_bins: usize,
        pool: u64,
        bound: f64,
    ) -> (ScaleDecision, Option<MembershipEvent>) {
        if let Some(last) = self.last_action {
            if round < last.saturating_add(self.config.cooldown) {
                self.high_streak = 0;
                self.low_streak = 0;
                return (ScaleDecision::Cooldown, None);
            }
        }
        let pool = pool as f64;
        if bound.is_finite() && pool > self.config.high_ratio * bound {
            self.high_streak += 1;
            self.low_streak = 0;
        } else if bound.is_finite() && pool < self.config.low_ratio * bound {
            self.low_streak += 1;
            self.high_streak = 0;
        } else {
            self.high_streak = 0;
            self.low_streak = 0;
        }

        if self.high_streak >= self.config.patience {
            let headroom = self.config.max_bins.saturating_sub(live_bins);
            let step = self.config.step.min(headroom);
            self.high_streak = 0;
            if step > 0 {
                self.last_action = Some(round);
                self.actions += 1;
                return (
                    ScaleDecision::Up,
                    Some(MembershipEvent::AddBins { count: step }),
                );
            }
        } else if self.low_streak >= self.config.patience {
            let slack = live_bins.saturating_sub(self.config.min_bins);
            let step = self.config.step.min(slack);
            self.low_streak = 0;
            if step > 0 {
                self.last_action = Some(round);
                self.actions += 1;
                return (
                    ScaleDecision::Down,
                    Some(MembershipEvent::RemoveBins { count: step }),
                );
            }
        }
        (ScaleDecision::Hold, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> Autoscaler {
        Autoscaler::new(
            AutoscalerConfig::new(8, 64)
                .with_ratios(0.25, 1.5)
                .with_patience(3)
                .with_step(8)
                .with_cooldown(5),
        )
    }

    #[test]
    fn scales_up_after_patience_and_respects_cooldown() {
        let mut scaler = policy();
        let bound = 100.0;
        // Two breaching rounds: patience not met.
        assert_eq!(scaler.observe(1, 16, 200, bound).1, None);
        assert_eq!(scaler.observe(2, 16, 200, bound).1, None);
        // Third consecutive breach fires.
        let (decision, event) = scaler.observe(3, 16, 200, bound);
        assert_eq!(decision, ScaleDecision::Up);
        assert_eq!(event, Some(MembershipEvent::AddBins { count: 8 }));
        // Cooldown swallows further breaches.
        for round in 4..8 {
            let (decision, event) = scaler.observe(round, 24, 500, bound);
            assert_eq!(decision, ScaleDecision::Cooldown, "round {round}");
            assert_eq!(event, None);
        }
        // After cooldown the streak restarts from zero.
        assert_eq!(scaler.observe(8, 24, 500, bound).1, None);
        assert_eq!(scaler.observe(9, 24, 500, bound).1, None);
        let (_, event) = scaler.observe(10, 24, 500, bound);
        assert_eq!(event, Some(MembershipEvent::AddBins { count: 8 }));
        assert_eq!(scaler.actions(), 2);
    }

    #[test]
    fn scales_down_on_sustained_slack_and_clamps_at_min() {
        let mut scaler = policy();
        let bound = 100.0;
        for round in 1..=2 {
            assert_eq!(scaler.observe(round, 16, 5, bound).1, None);
        }
        let (decision, event) = scaler.observe(3, 16, 5, bound);
        assert_eq!(decision, ScaleDecision::Down);
        assert_eq!(event, Some(MembershipEvent::RemoveBins { count: 8 }));
        // At min_bins there is nothing to hand back: no event, no action.
        let mut floored = policy();
        for round in 1..=10 {
            let (_, event) = floored.observe(round, 8, 0, bound);
            assert_eq!(event, None, "round {round}");
        }
        assert_eq!(floored.actions(), 0);
    }

    #[test]
    fn in_band_pool_holds_and_resets_streaks() {
        let mut scaler = policy();
        let bound = 100.0;
        scaler.observe(1, 16, 200, bound);
        scaler.observe(2, 16, 200, bound);
        // Dip back in band: streak resets, no fire on the next breach.
        assert_eq!(scaler.observe(3, 16, 100, bound).0, ScaleDecision::Hold);
        assert_eq!(scaler.observe(4, 16, 200, bound).1, None);
        assert_eq!(scaler.observe(5, 16, 200, bound).1, None);
        assert!(scaler.observe(6, 16, 200, bound).1.is_some());
    }

    #[test]
    fn up_clamps_at_max_bins() {
        let mut scaler = policy();
        let bound = 100.0;
        for round in 1..=6 {
            let (_, event) = scaler.observe(round, 64, 500, bound);
            assert_eq!(event, None, "already at max_bins (round {round})");
        }
    }
}
