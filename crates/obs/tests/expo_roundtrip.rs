//! Exposition round-trip on a fully-populated live registry: what the
//! scrape plane renders must survive `render → strict parse → re-render`
//! **byte-identically**, including histograms with observations in every
//! one of the 65 power-of-two buckets and the `iba_run_info` provenance
//! labels. This is the guarantee that lets the replication tooling scrape
//! a running service, archive the exposition, and re-emit it later with
//! zero loss.

use iba_obs::expo::{parse, render_exposition, render_with_provenance, RUN_INFO_METRIC};
use iba_obs::json::{Provenance, SCHEMA_VERSION};
use iba_obs::registry::HISTOGRAM_BUCKETS;
use iba_obs::{set_enabled, Registry};

fn fully_populated_registry() -> Registry {
    // Both tests of this binary run concurrently and record through the
    // process-global switch, so it is only ever switched on here: a test
    // switching it off could race the other's recording.
    set_enabled(true);
    let r = Registry::new();
    r.counter("iba_balls_total").add(12_345);
    r.counter("iba_rounds_total").add(1);
    // A counter past 2^53: exercises the raw-token fidelity path (the
    // value does not round-trip through f64).
    r.counter("iba_huge_total").add((1 << 60) + 1);
    r.gauge("iba_pool_size").set(987);
    r.gauge("iba_backlog").set(3);
    let h = r.histogram("iba_round_nanos");
    // One observation per bucket: 0 lands in bucket 0, and 2^k lands in
    // bucket k+1 for k = 0..=63, so all 65 buckets hold a count and the
    // sum exceeds 2^63 (another raw-fidelity case).
    h.record(0);
    for k in 0..64u32 {
        h.record(1u64 << k);
    }
    let sparse = r.histogram("iba_wait_rounds");
    sparse.record(1);
    sparse.record(1_000_000);
    r
}

#[test]
fn full_registry_round_trips_byte_identically_with_provenance() {
    let registry = fully_populated_registry();
    let prov = Provenance {
        schema_version: SCHEMA_VERSION,
        git_rev: "0123456789abcdef0123456789abcdef01234567".into(),
        git_dirty: false,
        host: "ci-runner-\"quoted\"".into(),
        cores: 4,
        kernel: Some("arena_simd".into()),
        threads: Some(2),
    };
    let rendered = render_with_provenance(&registry.snapshot(), Some(&prov));

    // Every bucket of the fully-populated histogram is present.
    let bucket_lines = rendered
        .lines()
        .filter(|l| l.starts_with("iba_round_nanos_bucket"))
        .count();
    assert_eq!(bucket_lines, HISTOGRAM_BUCKETS);

    let expo = parse(&rendered).expect("strict parse of the live exposition");
    let rerendered = render_exposition(&expo);
    assert_eq!(rerendered, rendered, "re-render must be byte-identical");

    // The provenance labels survived the trip, unescaped.
    let info = expo
        .samples
        .iter()
        .find(|s| s.name == RUN_INFO_METRIC)
        .expect("run-info sample present");
    let label = |key: &str| {
        info.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    assert_eq!(
        label("git_rev"),
        Some("0123456789abcdef0123456789abcdef01234567")
    );
    assert_eq!(label("dirty"), Some("false"));
    assert_eq!(label("host"), Some("ci-runner-\"quoted\""));
    assert_eq!(label("cores"), Some("4"));
    assert_eq!(label("kernel"), Some("arena_simd"));
    assert_eq!(label("threads"), Some("2"));
    assert_eq!(info.value, 1.0);

    // Parse → re-render is a fixpoint: one more trip changes nothing.
    let again = parse(&rerendered).expect("re-rendered text still parses strictly");
    assert_eq!(render_exposition(&again), rerendered);
}

#[test]
fn round_trip_without_provenance_matches_plain_render() {
    let registry = fully_populated_registry();
    let plain = iba_obs::expo::render(&registry.snapshot());
    let with_none = render_with_provenance(&registry.snapshot(), None);
    assert_eq!(plain, with_none);
    let expo = parse(&plain).unwrap();
    assert_eq!(render_exposition(&expo), plain);
    assert!(!plain.contains(RUN_INFO_METRIC));
}
