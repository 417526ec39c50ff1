//! Continuous-time (asynchronous) CAPPED: the retrial-queue analog behind
//! the `ASYNC` experiment.
//!
//! The paper's model is round-synchronous: arrivals, allocation and
//! service happen in lockstep. Real request systems are asynchronous. The
//! natural continuous-time analog replaces each synchronous ingredient by
//! its memoryless counterpart:
//!
//! | synchronous (paper) | continuous (this module) |
//! |---|---|
//! | `λn` arrivals per round | Poisson arrival process of rate `λn` |
//! | one deletion per non-empty bin per round | exponential service, rate 1 per busy server |
//! | rejected balls retry next round | rejected balls join a retrial *orbit* and retry after Exp(1) |
//!
//! This is a network of `n` M/M/1/c queues with uniform random routing
//! and a shared retrial orbit — the classic *retrial queue* shape.
//!
//! Every clock is exponential, so the system is a continuous-time Markov
//! chain, and [`ContinuousCapped`] simulates its jump chain without an
//! event queue (uniformization). From a state with `k` orbiting jobs the
//! next event comes after Exp(`R`), `R = λn + n + k`, and one uniform
//! draw on `[0, R)` picks it: an arrival, a service at one of the `n`
//! servers (a no-op if that server is idle), or a retry of one of the `k`
//! orbit entries. Each step is O(1).

use std::collections::VecDeque;

use iba_sim::rng::SimRng;
use iba_sim::stats::{Histogram, Summary};

/// Service rate per busy server (the paper's analog of one deletion per
/// non-empty bin per round).
const SERVICE_RATE: f64 = 1.0;

/// Retry rate per orbiting job (the paper's analog of retrying next round).
const RETRY_RATE: f64 = 1.0;

/// Configuration of the continuous-time system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContinuousConfig {
    /// Number of servers `n`.
    pub servers: usize,
    /// Buffer capacity `c` per server (including the job in service).
    pub capacity: u32,
    /// Normalized arrival rate λ (arrivals come at rate `λ·n`).
    pub lambda: f64,
}

impl ContinuousConfig {
    /// The paper-analog configuration: service rate 1, retry rate 1.
    ///
    /// # Panics
    ///
    /// Panics if `n = 0`, `c = 0`, or `λ` is not in `[0, 1)`.
    pub fn paper_analog(servers: usize, capacity: u32, lambda: f64) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(capacity > 0, "capacity must be positive");
        assert!((0.0..1.0).contains(&lambda), "lambda must be in [0, 1)");
        ContinuousConfig {
            servers,
            capacity,
            lambda,
        }
    }
}

/// Metrics collected over an observation window of the continuous system.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousStats {
    /// Sojourn times (arrival to service completion) of completed jobs.
    pub sojourns: Summary,
    /// Histogram of sojourn times rounded down to integers (for quantiles).
    pub sojourn_histogram: Histogram,
    /// Time-averaged orbit size (the continuous analog of the pool).
    pub mean_orbit: f64,
    /// Time-averaged number of jobs in the whole system.
    pub mean_in_system: f64,
    /// Jobs completed in the window.
    pub completed: u64,
    /// Observation window length (time units).
    pub window: f64,
}

/// What [`ContinuousCapped::observe`] adds up over its window.
struct Tally {
    orbit_area: f64,
    system_area: f64,
    sojourns: Summary,
    sojourn_histogram: Histogram,
}

/// The continuous-time CAPPED system.
///
/// # Examples
///
/// ```
/// use iba_bench::continuous::{ContinuousCapped, ContinuousConfig};
/// use iba_sim::SimRng;
///
/// let config = ContinuousConfig::paper_analog(256, 2, 0.75);
/// let mut system = ContinuousCapped::new(config);
/// let mut rng = SimRng::seed_from(3);
/// system.run_for(200.0, &mut rng);          // warm up
/// let stats = system.observe(500.0, &mut rng);
/// assert!(stats.completed > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ContinuousCapped {
    config: ContinuousConfig,
    /// Per-server FIFO of arrival times (the front is in service).
    queues: Vec<VecDeque<f64>>,
    /// Arrival times of the orbiting jobs, in no particular order.
    orbit: Vec<f64>,
    /// Jobs in the server queues, in service included.
    queued: u64,
    time: f64,
}

impl ContinuousCapped {
    /// Creates the system empty at time 0.
    pub fn new(config: ContinuousConfig) -> Self {
        ContinuousCapped {
            queues: vec![VecDeque::new(); config.servers],
            orbit: Vec::new(),
            queued: 0,
            time: 0.0,
            config,
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current orbit size (retrying balls) — the analog of the pool.
    pub fn orbit(&self) -> u64 {
        self.orbit.len() as u64
    }

    /// Total jobs in the system (queued + in service + orbiting).
    pub fn in_system(&self) -> u64 {
        self.orbit() + self.queued
    }

    /// Routes a job (fresh or retrying) to a uniformly random server; a
    /// full server sends it to the orbit.
    fn route(&mut self, arrived_at: f64, rng: &mut SimRng) {
        let queue = &mut self.queues[rng.uniform_bin(self.config.servers)];
        if queue.len() < self.config.capacity as usize {
            queue.push_back(arrived_at);
            self.queued += 1;
        } else {
            self.orbit.push(arrived_at);
        }
    }

    /// Advances the simulation for `duration` time units, discarding
    /// metrics.
    pub fn run_for(&mut self, duration: f64, rng: &mut SimRng) {
        self.advance(duration, rng, None);
    }

    /// Advances the simulation for `duration` time units, collecting
    /// statistics.
    pub fn observe(&mut self, duration: f64, rng: &mut SimRng) -> ContinuousStats {
        let mut tally = Tally {
            orbit_area: 0.0,
            system_area: 0.0,
            sojourns: Summary::new(),
            sojourn_histogram: Histogram::new(),
        };
        self.advance(duration, rng, Some(&mut tally));
        ContinuousStats {
            completed: tally.sojourns.count(),
            sojourns: tally.sojourns,
            sojourn_histogram: tally.sojourn_histogram,
            mean_orbit: tally.orbit_area / duration.max(1e-12),
            mean_in_system: tally.system_area / duration.max(1e-12),
            window: duration,
        }
    }

    /// The jump chain: each step holds the current state for an Exp(`R`)
    /// time, adds it to the tally, then applies one event. The step that
    /// would overshoot the deadline stops there instead; every clock is
    /// memoryless, so discarding its draw is exact.
    fn advance(&mut self, duration: f64, rng: &mut SimRng, mut tally: Option<&mut Tally>) {
        let deadline = self.time + duration;
        let arrival_rate = self.config.lambda * self.config.servers as f64;
        let served_below = arrival_rate + self.config.servers as f64 * SERVICE_RATE;
        loop {
            let orbit = self.orbit.len();
            let total = served_below + orbit as f64 * RETRY_RATE;
            // unit_f64 ∈ [0, 1); 1 − u ∈ (0, 1] keeps ln finite.
            let dt = -(1.0 - rng.unit_f64()).ln() / total;
            let held = dt.min(deadline - self.time);
            if let Some(tally) = tally.as_deref_mut() {
                tally.orbit_area += orbit as f64 * held;
                tally.system_area += (orbit as u64 + self.queued) as f64 * held;
            }
            if held < dt {
                self.time = deadline;
                return;
            }
            self.time += dt;
            // u < total, so an empty orbit never reaches the retry arm; the
            // `min`s keep a subtraction that rounds up inside its range.
            let u = rng.unit_f64() * total;
            if u < arrival_rate {
                self.route(self.time, rng);
            } else if u < served_below {
                let server = ((u - arrival_rate) / SERVICE_RATE) as usize;
                let queue = &mut self.queues[server.min(self.config.servers - 1)];
                if let Some(arrived_at) = queue.pop_front() {
                    self.queued -= 1;
                    if let Some(tally) = tally.as_deref_mut() {
                        let sojourn = self.time - arrived_at;
                        tally.sojourns.push(sojourn);
                        tally.sojourn_histogram.record(sojourn.floor() as u64);
                    }
                }
            } else {
                let entry = ((u - served_below) / RETRY_RATE) as usize;
                let arrived_at = self.orbit.swap_remove(entry.min(orbit - 1));
                self.route(arrived_at, rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stationary_stats(n: usize, c: u32, lambda: f64, seed: u64) -> ContinuousStats {
        let config = ContinuousConfig::paper_analog(n, c, lambda);
        let mut sys = ContinuousCapped::new(config);
        let mut rng = SimRng::seed_from(seed);
        sys.run_for(500.0, &mut rng);
        sys.observe(1_000.0, &mut rng)
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn config_rejects_lambda_one() {
        ContinuousConfig::paper_analog(4, 1, 1.0);
    }

    #[test]
    fn empty_system_with_zero_rate_stays_empty() {
        let config = ContinuousConfig::paper_analog(4, 1, 0.0);
        let mut sys = ContinuousCapped::new(config);
        let mut rng = SimRng::seed_from(1);
        sys.run_for(100.0, &mut rng);
        assert_eq!(sys.in_system(), 0);
        assert_eq!(sys.orbit(), 0);
        assert_eq!(sys.time(), 100.0);
    }

    #[test]
    fn system_is_stable_and_serves_throughput() {
        let stats = stationary_stats(256, 2, 0.75, 2);
        // Throughput must be ≈ λ·n = 192 per time unit.
        let throughput = stats.completed as f64 / stats.window;
        assert!((throughput - 192.0).abs() < 10.0, "throughput {throughput}");
        assert!(stats.mean_in_system > 0.0);
    }

    #[test]
    fn orbit_shrinks_with_capacity() {
        let o1 = stationary_stats(256, 1, 0.75, 4).mean_orbit;
        let o3 = stationary_stats(256, 3, 0.75, 4).mean_orbit;
        assert!(
            o3 < o1 / 2.0,
            "orbit c=3 ({o3}) should be well below c=1 ({o1})"
        );
    }

    #[test]
    fn sojourns_grow_with_lambda() {
        let light = stationary_stats(128, 2, 0.25, 5).sojourns.mean();
        let heavy = stationary_stats(128, 2, 0.9375, 5).sojourns.mean();
        assert!(heavy > light, "{heavy} vs {light}");
    }

    /// One server at λ = 0.5, observed for 4·10⁵ time units. Over 10
    /// seeds of this run the per-seed standard deviations were, at c = 1:
    /// 0.016 (`mean_in_system`), 0.014 (`mean_orbit`), 0.025 (sojourn);
    /// at c = 64: 0.0064 (`mean_in_system`), 0.011 (sojourn). Each
    /// tolerance below is about five of those deviations.
    fn single_server_stats(capacity: u32) -> ContinuousStats {
        let mut sys = ContinuousCapped::new(ContinuousConfig::paper_analog(1, capacity, 0.5));
        let mut rng = SimRng::seed_from(11);
        sys.run_for(100.0, &mut rng);
        sys.observe(400_000.0, &mut rng)
    }

    #[test]
    fn one_slot_single_server_is_the_classic_retrial_queue() {
        // M/M/1 retrial queue with μ = θ = 1 and ρ = λ = 0.5: the orbit
        // holds 2ρ²/(1−ρ) = 1, the system orbit + ρ = 1.5, and a job
        // stays L/λ = 3.
        let stats = single_server_stats(1);
        let (orbit, in_system) = (stats.mean_orbit, stats.mean_in_system);
        assert!((orbit - 1.0).abs() < 0.07, "mean orbit {orbit}");
        assert!((in_system - 1.5).abs() < 0.08, "mean in system {in_system}");
        let sojourn = stats.sojourns.mean();
        assert!((sojourn - 3.0).abs() < 0.12, "mean sojourn {sojourn}");
    }

    #[test]
    fn deep_buffer_single_server_is_mm1() {
        // With c = 64 a job is turned away with probability ρ^64 ≈ 5e-20,
        // so this is M/M/1: L = ρ/(1−ρ) = 1 and W = 1/(μ−λ) = 2.
        let stats = single_server_stats(64);
        let in_system = stats.mean_in_system;
        assert!(
            (in_system - 1.0).abs() < 0.035,
            "mean in system {in_system}"
        );
        let sojourn = stats.sojourns.mean();
        assert!((sojourn - 2.0).abs() < 0.06, "mean sojourn {sojourn}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = stationary_stats(64, 2, 0.75, 7);
        let b = stationary_stats(64, 2, 0.75, 7);
        assert_eq!(a, b);
    }
}
