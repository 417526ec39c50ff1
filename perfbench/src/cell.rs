//! The measured cell, seed derivation, report digests and timing helpers
//! shared by the workloads.

use std::time::{Duration, Instant};

use iba_analysis::bounds::{theorem2_pool_bound, theorem2_waiting_bound};
use iba_core::CappedConfig;
use iba_obs::json::fnv1a64;
use iba_sim::RoundReport;

/// One CAPPED(c, λ) cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub n: usize,
    pub c: u32,
    pub lambda: f64,
}

impl Cell {
    /// The paper's cell: n = 2^15, c = 2, λ = 15/16.
    pub fn paper(tiny: bool) -> Cell {
        Cell {
            n: if tiny { 1 << 10 } else { 1 << 15 },
            c: 2,
            lambda: 15.0 / 16.0,
        }
    }

    pub fn config(&self) -> CappedConfig {
        CappedConfig::new(self.n, self.c, self.lambda).expect("the benchmark cells are valid")
    }

    /// Balls generated per round, λn.
    pub fn per_round(&self) -> u64 {
        (self.lambda * self.n as f64).round() as u64
    }

    pub fn pool_bound(&self) -> f64 {
        theorem2_pool_bound(self.n, self.c, self.lambda)
    }

    pub fn wait_bound(&self) -> f64 {
        theorem2_waiting_bound(self.n, self.c, self.lambda)
    }

    pub fn params(&self) -> [(&'static str, String); 3] {
        [
            ("n", self.n.to_string()),
            ("c", self.c.to_string()),
            ("lambda", self.lambda.to_string()),
        ]
    }
}

/// The seed of set-up `i` of a run seeded with `seed` (SplitMix64 mix).
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a digest over whole round reports, waiting times included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, r: &RoundReport) {
        let mut bytes = Vec::with_capacity(8 * (10 + r.waiting_times.len()));
        bytes.extend_from_slice(&self.0.to_le_bytes());
        for v in [
            r.round,
            r.generated,
            r.thrown,
            r.accepted,
            r.deleted,
            r.failed_deletions,
            r.pool_size,
            r.buffered,
            r.max_load,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for w in &r.waiting_times {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.0 = fnv1a64(&bytes);
    }
}

/// Rounds whose reports are digested for the determinism checks.
pub const DIGEST_ROUNDS: u64 = 32;

/// Round-level timing and counting shared by every workload: per-round
/// durations, thrown and deleted balls, and the largest pool seen.
#[derive(Debug)]
pub struct Rounds {
    pub durations: crate::stats::Windowed,
    pub rounds: u64,
    pub generated: u64,
    pub thrown: u64,
    pub accepted: u64,
    pub deleted: u64,
    pub max_pool: u64,
    pub conserved: bool,
    pub digest: Digest,
    pub start: Instant,
    pub last: Instant,
}

impl Rounds {
    pub fn new(start: Instant) -> Self {
        Rounds {
            durations: crate::stats::Windowed::new(),
            rounds: 0,
            generated: 0,
            thrown: 0,
            accepted: 0,
            deleted: 0,
            max_pool: 0,
            conserved: true,
            digest: Digest::default(),
            start,
            last: start,
        }
    }

    /// Books a round that ended at `end`.
    pub fn round_ended(&mut self, r: &RoundReport, end: Instant) {
        self.durations
            .record(nanos(end - self.start), nanos(end - self.last));
        self.last = end;
        self.rounds += 1;
        self.generated += r.generated;
        self.thrown += r.thrown;
        self.accepted += r.accepted;
        self.deleted += r.deleted;
        self.max_pool = self.max_pool.max(r.pool_size);
        self.conserved &= r.conserves_balls();
        if self.rounds <= DIGEST_ROUNDS {
            self.digest.add(r);
        }
    }

    /// Seconds between the start and the end of the last round.
    pub fn elapsed(&self) -> f64 {
        (self.last - self.start).as_secs_f64()
    }

    pub fn mean_round_ns(&self) -> f64 {
        self.durations.all().mean()
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds per ball of `SimRng::fill_uniform_bins(n, ..)` on a buffer
/// of `balls` entries, timed off the round path for `budget`.
pub fn rng_fill_ns_per_ball(n: usize, balls: usize, seed: u64, budget: Duration) -> (f64, u64) {
    let mut rng = iba_sim::SimRng::seed_from(seed);
    let mut buf = vec![0u32; balls.max(1)];
    let start = Instant::now();
    let mut fills = 0u64;
    while start.elapsed() < budget || fills == 0 {
        rng.fill_uniform_bins(n, &mut buf);
        std::hint::black_box(&buf);
        fills += 1;
    }
    let per_ball = nanos(start.elapsed()) as f64 / (fills * buf.len() as u64) as f64;
    (per_ball, fills)
}

/// Telemetry of the traced segment, read from the global registry.
pub struct Telemetry(iba_obs::RegistrySnapshot);

impl Telemetry {
    /// Zeroes the registry and turns telemetry on.
    pub fn start() {
        iba_obs::global().reset();
        iba_obs::set_enabled(true);
    }

    /// Turns telemetry off and captures what it recorded.
    pub fn stop() -> Telemetry {
        iba_obs::set_enabled(false);
        Telemetry(iba_obs::global().snapshot())
    }

    /// `(count, sum)` of a histogram (zeros if it never registered).
    pub fn hist(&self, name: &str) -> (u64, u64) {
        self.0
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map_or((0, 0), |(_, h)| (h.count, h.sum))
    }

    pub fn hist_mean(&self, name: &str) -> f64 {
        let (count, sum) = self.hist(name);
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Pins the calling thread to CPU `cpu`; threads it spawns afterwards
/// inherit the mask. Returns whether the kernel accepted it.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    if cpu >= 64 {
        return false;
    }
    // A 1024-bit cpu_set_t with one bit set.
    let mut mask = [0u64; 16];
    mask[0] = 1 << cpu;
    // SAFETY: `mask` is an initialised buffer of the size passed, alive for
    // the whole call, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpu: usize) -> bool {
    false
}
