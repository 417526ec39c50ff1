//! Front-end placement strategies for a dynamic bin set.
//!
//! A [`Router`] maps a population of keys (balls, requests, partitions)
//! onto the live bins `0..n` and is re-consulted after every membership
//! change. The figure of merit is **keys moved per membership change**:
//! every key whose bin assignment changes is state the fleet must
//! physically relocate.
//!
//! Two strategies, benchmarked head-to-head by `membership_baseline`:
//!
//! - [`RoundRobinRouter`] — the classic resharder: key `k` lands in bin
//!   `k mod n`. Perfectly balanced, but a change of `n` reshuffles almost
//!   every key (`k mod n ≠ k mod n'` for most `k`).
//! - [`BoundedLoadRouter`] — consistent hashing with bounded loads
//!   (Aamand–Knudsen–Thorup, arXiv:2104.05093): each bin owns `V` virtual
//!   nodes on a `u64` hash ring; a key walks clockwise from its hash to
//!   the first bin whose load is below ⌈(1+ε)·keys/n⌉. Balance is within
//!   a (1+ε) factor and a membership change only re-homes the keys whose
//!   ring segment changed hands — `O(keys/n)` expected.
//!
//! Both routers are deterministic: same key population + same membership
//! history ⇒ same assignment, with no RNG anywhere.

/// SplitMix64 finalizer — the crate's only hash. Good avalanche, cheap,
/// and dependency-free.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Decorrelates key hashes from virtual-node hashes on the shared ring.
const KEY_SALT: u64 = 0x51C3_9A1B_7D4E_F002;

/// A placement strategy over a dynamic set of bins `0..n`.
///
/// Membership is LIFO, matching the serve layer:
/// [`add_bins`](Router::add_bins) appends bin ids at the top,
/// [`remove_bins`](Router::remove_bins) retires from the top. [`assign`](Router::assign)
/// maps every key to a live bin; diffing two assignments with
/// [`moved_keys`] counts the relocation cost of the change in between.
pub trait Router: std::fmt::Debug {
    /// Short strategy name for reports and benchmark tables.
    fn name(&self) -> &'static str;

    /// Number of live bins.
    fn bins(&self) -> usize;

    /// Adds `count` bins at the top of the index space.
    fn add_bins(&mut self, count: usize);

    /// Removes the top `count` bins (never below one).
    fn remove_bins(&mut self, count: usize);

    /// Assigns every key to a live bin, in key order. Deterministic:
    /// repeated calls under the same membership return the same vector.
    fn assign(&mut self, keys: &[u64]) -> Vec<u32>;
}

/// Number of keys whose assignment differs between two placements of the
/// same key population.
///
/// # Panics
///
/// Panics if the placements cover different key counts.
pub fn moved_keys(before: &[u32], after: &[u32]) -> usize {
    assert_eq!(before.len(), after.len(), "same key population");
    before.iter().zip(after).filter(|(a, b)| a != b).count()
}

/// The round-robin resharder: key `k` lands in bin `k mod n`.
#[derive(Debug, Clone)]
pub struct RoundRobinRouter {
    bins: usize,
}

impl RoundRobinRouter {
    /// Creates the resharder over `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn new(bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        RoundRobinRouter { bins }
    }
}

impl Router for RoundRobinRouter {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn bins(&self) -> usize {
        self.bins
    }

    fn add_bins(&mut self, count: usize) {
        self.bins += count;
    }

    fn remove_bins(&mut self, count: usize) {
        assert!(count < self.bins, "must keep at least one bin");
        self.bins -= count;
    }

    fn assign(&mut self, keys: &[u64]) -> Vec<u32> {
        let n = self.bins as u64;
        keys.iter().map(|&k| (k % n) as u32).collect()
    }
}

/// Consistent hashing with bounded loads: virtual nodes on a `u64` ring,
/// per-bin load cap ⌈(1+ε)·keys/n⌉.
#[derive(Debug, Clone)]
pub struct BoundedLoadRouter {
    bins: usize,
    vnodes_per_bin: usize,
    epsilon: f64,
    /// `(vnode hash, bin)` sorted by hash (ties broken by bin id) — the
    /// ring. `bins · vnodes_per_bin` entries.
    ring: Vec<(u64, u32)>,
    /// Per-bin load scratch, reused across `assign` calls.
    loads: Vec<u32>,
}

impl BoundedLoadRouter {
    /// Creates the router with `vnodes_per_bin` virtual nodes per bin and
    /// balance slack `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, `vnodes_per_bin == 0`, or `epsilon` is
    /// negative or non-finite.
    pub fn new(bins: usize, vnodes_per_bin: usize, epsilon: f64) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(vnodes_per_bin > 0, "need at least one virtual node");
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be finite and non-negative"
        );
        let mut router = BoundedLoadRouter {
            bins: 0,
            vnodes_per_bin,
            epsilon,
            ring: Vec::with_capacity(bins * vnodes_per_bin),
            loads: Vec::new(),
        };
        router.add_bins(bins);
        router
    }

    /// The configured balance slack ε (load cap is ⌈(1+ε)·avg⌉).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The configured virtual nodes per bin.
    pub fn vnodes_per_bin(&self) -> usize {
        self.vnodes_per_bin
    }

    fn vnode_hash(bin: usize, vnode: usize) -> u64 {
        mix64((bin as u64) << 24 | vnode as u64)
    }
}

impl Router for BoundedLoadRouter {
    fn name(&self) -> &'static str {
        "bounded_load"
    }

    fn bins(&self) -> usize {
        self.bins
    }

    fn add_bins(&mut self, count: usize) {
        for bin in self.bins..self.bins + count {
            for v in 0..self.vnodes_per_bin {
                self.ring.push((Self::vnode_hash(bin, v), bin as u32));
            }
        }
        self.bins += count;
        self.ring.sort_unstable();
    }

    fn remove_bins(&mut self, count: usize) {
        assert!(count < self.bins, "must keep at least one bin");
        self.bins -= count;
        let keep = self.bins as u32;
        self.ring.retain(|&(_, bin)| bin < keep);
    }

    fn assign(&mut self, keys: &[u64]) -> Vec<u32> {
        let n = self.bins;
        let cap = (((1.0 + self.epsilon) * keys.len() as f64) / n as f64)
            .ceil()
            .max(1.0) as u32;
        self.loads.clear();
        self.loads.resize(n, 0);
        let ring = &self.ring;
        keys.iter()
            .map(|&key| {
                let h = mix64(key ^ KEY_SALT);
                let mut i = ring.partition_point(|&(vh, _)| vh < h);
                // cap·n ≥ ⌈(1+ε)·keys⌉ ≥ keys, so a bin below its cap
                // always exists and the clockwise walk terminates.
                loop {
                    if i == ring.len() {
                        i = 0;
                    }
                    let bin = ring[i].1;
                    if self.loads[bin as usize] < cap {
                        self.loads[bin as usize] += 1;
                        return bin;
                    }
                    i += 1;
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(m: usize) -> Vec<u64> {
        (0..m as u64).collect()
    }

    #[test]
    fn round_robin_balances_sequential_keys_perfectly() {
        let mut router = RoundRobinRouter::new(10);
        let assignment = router.assign(&keys(1000));
        let mut loads = [0u32; 10];
        for &bin in &assignment {
            loads[bin as usize] += 1;
        }
        assert!(loads.iter().all(|&l| l == 100));
    }

    #[test]
    fn bounded_load_respects_the_cap_and_is_deterministic() {
        let mut router = BoundedLoadRouter::new(16, 64, 0.25);
        let population = keys(4096);
        let a = router.assign(&population);
        let b = router.assign(&population);
        assert_eq!(a, b, "assignment is deterministic");
        let cap = (1.25_f64 * 4096.0 / 16.0).ceil() as u32;
        let mut loads = vec![0u32; 16];
        for &bin in &a {
            assert!((bin as usize) < 16);
            loads[bin as usize] += 1;
        }
        assert!(
            loads.iter().all(|&l| l <= cap),
            "cap {cap} violated: {loads:?}"
        );
        assert!(loads.iter().all(|&l| l > 0), "every bin takes load");
    }

    #[test]
    fn bounded_load_moves_far_fewer_keys_than_round_robin() {
        let population = keys(8192);
        let mut rr = RoundRobinRouter::new(32);
        let mut bl = BoundedLoadRouter::new(32, 64, 0.25);
        let rr_before = rr.assign(&population);
        let bl_before = bl.assign(&population);

        rr.add_bins(2);
        bl.add_bins(2);
        let rr_moved = moved_keys(&rr_before, &rr.assign(&population));
        let bl_moved = moved_keys(&bl_before, &bl.assign(&population));
        assert!(
            bl_moved < rr_moved,
            "grow: bounded-load moved {bl_moved}, round-robin {rr_moved}"
        );

        let rr_before = rr.assign(&population);
        let bl_before = bl.assign(&population);
        rr.remove_bins(5);
        bl.remove_bins(5);
        let rr_moved = moved_keys(&rr_before, &rr.assign(&population));
        let bl_moved = moved_keys(&bl_before, &bl.assign(&population));
        assert!(
            bl_moved < rr_moved,
            "shrink: bounded-load moved {bl_moved}, round-robin {rr_moved}"
        );
    }

    #[test]
    fn removing_bins_only_rehomes_their_keys_mostly() {
        // The signature consistent-hashing property: removing one of 64
        // bins moves roughly keys/64, far below a full reshuffle.
        let population = keys(16384);
        let mut bl = BoundedLoadRouter::new(64, 64, 0.5);
        let before = bl.assign(&population);
        bl.remove_bins(1);
        let moved = moved_keys(&before, &bl.assign(&population));
        assert!(
            moved < population.len() / 8,
            "removing 1/64 bins moved {moved} of {} keys",
            population.len()
        );
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn removing_every_bin_panics() {
        let mut router = RoundRobinRouter::new(4);
        router.remove_bins(4);
    }
}
