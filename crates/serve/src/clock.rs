//! The round clock: logical epochs with optional wall-clock pacing.
//!
//! CAPPED(c, λ) is a synchronous-round process; the serving layer keeps
//! rounds logical (a round takes as long as its work takes) unless a
//! pacing interval is configured, in which case the clock spaces round
//! starts at a fixed wall-clock cadence — the mode a latency-measuring
//! deployment would run in.

use std::time::{Duration, Instant};

/// How round starts are spaced in wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pacing {
    /// Run rounds back-to-back as fast as the process goes (benchmark mode).
    #[default]
    Immediate,
    /// Start rounds at a fixed interval; a round that overruns its slot is
    /// followed immediately by the next (no attempt to "catch up" by
    /// running multiple rounds in one slot).
    Interval(Duration),
}

/// Drives round starts according to a [`Pacing`] policy.
///
/// # Examples
///
/// ```
/// use iba_serve::clock::{Pacing, RoundClock};
/// let mut clock = RoundClock::new(Pacing::Immediate);
/// clock.wait(); // returns immediately
/// ```
#[derive(Debug)]
pub struct RoundClock {
    pacing: Pacing,
    next_start: Option<Instant>,
}

impl RoundClock {
    /// Creates a clock with the given pacing policy.
    pub fn new(pacing: Pacing) -> Self {
        RoundClock {
            pacing,
            next_start: None,
        }
    }

    /// The pacing policy this clock runs with.
    pub fn pacing(&self) -> Pacing {
        self.pacing
    }

    /// Blocks until the next round may start. Under
    /// [`Pacing::Immediate`] this returns at once; under
    /// [`Pacing::Interval`] it sleeps out the remainder of the current
    /// slot (the first call starts the schedule and does not sleep).
    pub fn wait(&mut self) {
        let Pacing::Interval(period) = self.pacing else {
            return;
        };
        let now = Instant::now();
        match self.next_start {
            None => self.next_start = Some(now + period),
            Some(deadline) => {
                if deadline > now {
                    std::thread::sleep(deadline - now);
                }
                // Overruns restart the schedule from now rather than
                // accumulating debt.
                self.next_start = Some(deadline.max(now) + period);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_never_sleeps() {
        let mut clock = RoundClock::new(Pacing::Immediate);
        let start = Instant::now();
        for _ in 0..1000 {
            clock.wait();
        }
        assert!(start.elapsed() < Duration::from_millis(100));
        assert_eq!(clock.pacing(), Pacing::Immediate);
    }

    #[test]
    fn interval_spaces_rounds() {
        let period = Duration::from_millis(5);
        let mut clock = RoundClock::new(Pacing::Interval(period));
        let start = Instant::now();
        clock.wait(); // starts the schedule, no sleep
        clock.wait();
        clock.wait();
        // Two full periods must have elapsed (with generous slack for CI).
        assert!(start.elapsed() >= 2 * period - Duration::from_millis(1));
    }

    #[test]
    fn overrun_does_not_accumulate_debt() {
        let period = Duration::from_millis(2);
        let mut clock = RoundClock::new(Pacing::Interval(period));
        clock.wait();
        std::thread::sleep(Duration::from_millis(20)); // massive overrun
        let start = Instant::now();
        clock.wait(); // deadline long past: no sleep
        assert!(start.elapsed() < Duration::from_millis(10));
    }
}
