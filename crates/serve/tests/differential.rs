//! Differential validation: in [`RngMode::Central`] the sharded service's
//! round-by-round trajectory is **bit-identical** to the bare
//! [`CappedProcess`] (and, under a fault plan, to [`FaultedProcess`])
//! driven by the same seed — every field of every [`RoundReport`],
//! including the waiting-time vectors, for any shard count.
//!
//! This is the serving layer's correctness anchor: if routing, merging,
//! or the shard rounds ever drop, duplicate, or reorder a ball, one
//! of these comparisons breaks on the first divergent round.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use iba_core::spec::SpecCapped;
use iba_core::{checkpoint, CappedConfig, CappedProcess};
use iba_serve::proto::MAGIC;
use iba_serve::{CappedService, Frame, FrameDecoder, NetFrontend, RngMode, ServiceConfig};
use iba_sim::codec::Decoder;
use iba_sim::faults::{FaultEvent, FaultPlan, FaultedProcess};
use iba_sim::process::AllocationProcess;
use iba_sim::{SimRng, Simulation};

/// The (n, c, λ) cells exercised by every differential test. λn must be
/// integral; the cells cover tight (c = 1), paper-typical (c = 2..4), and
/// high-λ regimes.
const CELLS: &[(usize, u32, f64)] = &[(64, 2, 0.75), (128, 1, 0.5), (96, 3, 0.875), (50, 4, 0.6)];

const SEEDS: &[u64] = &[1, 42, 0xDEAD_BEEF];

fn spawn_central(config: CappedConfig, shards: usize, seed: u64) -> CappedService {
    CappedService::spawn(
        ServiceConfig::new(config, shards, seed)
            .with_rng_mode(RngMode::Central)
            .with_model_arrivals(true),
    )
    .expect("valid service config")
}

/// Runs the service and the bare process side by side and asserts every
/// report is equal, field for field.
fn assert_matches_bare(n: usize, c: u32, lambda: f64, shards: usize, seed: u64, rounds: u64) {
    let config = CappedConfig::new(n, c, lambda).expect("valid cell");
    let mut reference = CappedProcess::new(config.clone());
    let mut rng = SimRng::seed_from(seed);
    let mut service = spawn_central(config, shards, seed);
    for _ in 0..rounds {
        let expected = reference.step(&mut rng);
        let actual = service.run_round();
        assert_eq!(
            actual, expected,
            "trajectory diverged: n={n} c={c} lambda={lambda} shards={shards} seed={seed}"
        );
    }
    assert_eq!(service.pool_size(), reference.pool_size());
    assert!(service.conserves_balls());
}

#[test]
fn single_shard_is_bit_identical_to_capped_process() {
    for &(n, c, lambda) in CELLS {
        for &seed in SEEDS {
            assert_matches_bare(n, c, lambda, 1, seed, 150);
        }
    }
}

#[test]
fn multi_shard_is_bit_identical_to_capped_process() {
    for &(n, c, lambda) in CELLS {
        for shards in [2, 4, 7, 8] {
            assert_matches_bare(n, c, lambda, shards, 42, 150);
        }
    }
}

#[test]
fn shard_count_does_not_change_the_trajectory() {
    // Transitivity check run directly: S = 3 and S = 5 services agree
    // with each other round by round (both already agree with the bare
    // process above, but this pins the service-vs-service statement).
    let config = CappedConfig::new(60, 2, 0.8).expect("valid");
    let mut a = spawn_central(config.clone(), 3, 7);
    let mut b = spawn_central(config, 5, 7);
    for _ in 0..200 {
        assert_eq!(a.run_round(), b.run_round());
    }
}

/// A scenario touching every fault type: crashes, recoveries, capacity
/// degradation and restoration, an arrival burst, and a pool surge.
fn scenario() -> FaultPlan {
    FaultPlan::new()
        .with(
            5,
            FaultEvent::CrashBins {
                bins: vec![0, 3, 17],
            },
        )
        .with(
            8,
            FaultEvent::DegradeCapacity {
                bins: vec![4, 5, 6],
                capacity: 1,
            },
        )
        .with(
            10,
            FaultEvent::ArrivalBurst {
                extra_per_round: 9,
                rounds: 4,
            },
        )
        .with(12, FaultEvent::PoolSurge { extra: 30 })
        .with(15, FaultEvent::RecoverBins { bins: vec![0, 3] })
        .with(
            18,
            FaultEvent::DegradeCapacity {
                bins: vec![4, 5, 6],
                capacity: 64,
            },
        )
        .with(20, FaultEvent::RecoverBins { bins: vec![17] })
}

#[test]
fn faulted_trajectory_is_bit_identical_to_faulted_process() {
    for shards in [1, 4, 6] {
        let config = CappedConfig::new(48, 2, 0.75).expect("valid");
        let mut reference = FaultedProcess::new(CappedProcess::new(config.clone()), scenario());
        let mut rng = SimRng::seed_from(99);
        let mut service = spawn_central(config, shards, 99);
        service.schedule(scenario());
        for _ in 0..120 {
            let expected = reference.step(&mut rng);
            let actual = service.run_round();
            assert_eq!(actual, expected, "faulted divergence at shards={shards}");
        }
        assert!(service.conserves_balls());
    }
}

#[test]
fn sharded_arena_kernel_is_bit_identical_to_scalar_reference() {
    // The service's process accepts through the flat-arena kernel; the
    // reference here is the literal scalar specification (`SpecCapped`:
    // one draw per ball, per-bin request sorting), so this differential
    // proves Algorithm 1 == service end to end, whatever the (inert)
    // shard count.
    for &(n, c, lambda) in CELLS {
        for shards in [1usize, 3, 8] {
            for &seed in SEEDS {
                let config = CappedConfig::new(n, c, lambda).expect("valid cell");
                let mut reference = SpecCapped::from_config(&config);
                let mut rng = SimRng::seed_from(seed);
                let mut service = spawn_central(config, shards, seed);
                for round in 0..150 {
                    let expected = reference.step(&mut rng);
                    let actual = service.run_round();
                    assert_eq!(
                        actual, expected,
                        "arena service diverged from the spec: n={n} c={c} \
                         lambda={lambda} shards={shards} seed={seed} round={round}"
                    );
                }
                assert!(service.conserves_balls());
            }
        }
    }
}

#[test]
fn faulted_sharded_arena_kernel_matches_faulted_scalar_reference() {
    // Same statement under fault injection: offline bins and capacity
    // degradation (including the raise back to the configured bound) flow
    // through the shards' arena storage and must not perturb a single
    // report relative to the faulted specification.
    for shards in [1usize, 4, 6] {
        let config = CappedConfig::new(48, 2, 0.75).expect("valid");
        let mut reference = FaultedProcess::new(SpecCapped::from_config(&config), scenario());
        let mut rng = SimRng::seed_from(99);
        let mut service = spawn_central(config, shards, 99);
        service.schedule(scenario());
        for round in 0..120 {
            let expected = reference.step(&mut rng);
            let actual = service.run_round();
            assert_eq!(
                actual, expected,
                "faulted arena-vs-spec divergence at shards={shards} round={round}"
            );
        }
        assert!(service.conserves_balls());
    }
}

/// The differential statement with the network ingress active: a
/// Central-mode service fed exactly λn requests per round **over TCP**
/// (no model arrivals) produces the same bit-identical trajectory as the
/// bare process with its deterministic λn arrival model. This holds
/// because the deterministic arrival model consumes no randomness and
/// admitted requests get the same round label as model arrivals — so
/// swapping the arrival source from the model to the wire must not move
/// a single ball.
#[test]
fn central_trajectory_is_bit_identical_with_network_ingress_active() {
    let (n, c, lambda, shards, seed) = (64usize, 2u32, 0.75, 4usize, 42u64);
    let per_round = (lambda * n as f64).round() as u64;
    let config = CappedConfig::new(n, c, lambda).expect("valid cell");
    let mut reference = CappedProcess::new(config.clone());
    let mut rng = SimRng::seed_from(seed);
    let mut service = CappedService::spawn(
        ServiceConfig::new(config, shards, seed).with_rng_mode(RngMode::Central),
    )
    .expect("valid service config");
    let completions = service.take_completions().expect("fresh service");
    let dispatcher = service.dispatcher();
    let mut frontend = NetFrontend::bind("127.0.0.1:0").expect("bind loopback");

    let mut client = TcpStream::connect(frontend.local_addr()).expect("connect");
    client.set_nodelay(true).expect("nodelay");
    client
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("read timeout");
    client.write_all(&MAGIC).expect("preface");
    let mut decoder = FrameDecoder::new();
    let mut next_req = 0u64;
    let mut completions_seen = 0u64;

    for round in 1..=100u64 {
        // Offer exactly λn requests and pump the event loop until every
        // one is ticketed, so the ingress queue holds the full batch when
        // the round executes (single connection → FIFO admission order).
        let mut wire = Vec::new();
        for _ in 0..per_round {
            Frame::Alloc { req_id: next_req }.encode_into(&mut wire);
            next_req += 1;
        }
        client.write_all(&wire).expect("offer batch");
        let mut accepted = 0u64;
        let mut buf = [0u8; 4096];
        let deadline = Instant::now() + Duration::from_secs(30);
        while accepted < per_round {
            assert!(
                Instant::now() < deadline,
                "timed out awaiting admissions in round {round}"
            );
            frontend.poll(&dispatcher);
            match client.read(&mut buf) {
                Ok(0) => panic!("server closed the connection"),
                Ok(k) => decoder.push(&buf[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => panic!("client read failed: {e}"),
            }
            while let Some(frame) = decoder.next_frame().expect("well-formed server stream") {
                match frame {
                    Frame::Accepted { .. } => accepted += 1,
                    Frame::Completed {
                        bin,
                        admitted_round,
                        served_round,
                        waiting_rounds,
                        ..
                    } => {
                        assert!(bin < n as u64, "served bin index is global and in range");
                        assert_eq!(waiting_rounds, served_round - admitted_round);
                        completions_seen += 1;
                    }
                    other => panic!("unexpected server frame {other:?}"),
                }
            }
        }
        let expected = reference.step(&mut rng);
        let actual = service.run_round();
        assert_eq!(actual, expected, "net-active divergence at round {round}");
        while let Ok(completion) = completions.try_recv() {
            frontend.notify(&completion);
        }
        frontend.poll(&dispatcher);
    }
    assert!(service.conserves_balls());
    assert!(
        completions_seen > 0,
        "completion notifications flowed back over the wire"
    );
    assert_eq!(frontend.stats().allocs_accepted, 100 * per_round);
}

/// The crash-restart differential: checkpoint a live Central-mode service
/// mid-run, tear it down entirely, resume a new
/// service from the bytes — possibly on a different shard topology — and
/// the combined trajectory is bit-identical to one uninterrupted bare
/// [`CappedProcess`]. A crash/restart cycle is invisible in the reports.
#[test]
fn crash_restart_trajectory_is_bit_identical_to_uninterrupted_process() {
    for &(n, c, lambda) in CELLS {
        let config = CappedConfig::new(n, c, lambda).expect("valid cell");
        let mut reference = CappedProcess::new(config.clone());
        let mut rng = SimRng::seed_from(1337);
        let mut service = spawn_central(config.clone(), 4, 1337);
        for round in 0..60 {
            assert_eq!(
                service.run_round(),
                reference.step(&mut rng),
                "pre-crash divergence: n={n} round={round}"
            );
        }
        let bytes = service.checkpoint_bytes();
        service.shutdown(); // the "crash": no later round runs

        // Restart on a *different* shard count — Central mode owns all
        // randomness in the driver, so topology is free to change.
        let resumed_config = ServiceConfig::new(config, 7, 1337)
            .with_rng_mode(RngMode::Central)
            .with_model_arrivals(true);
        let mut resumed = CappedService::resume(resumed_config, &bytes).expect("resume");
        assert_eq!(resumed.round(), 60);
        for round in 60..120 {
            assert_eq!(
                resumed.run_round(),
                reference.step(&mut rng),
                "post-restart divergence: n={n} round={round}"
            );
        }
        assert_eq!(resumed.pool_size(), reference.pool_size());
        assert!(resumed.conserves_balls());
    }
}

/// The service's embedded core checkpoint is the bare process's
/// checkpoint, byte for byte: after a faulted lock-step run, the `IBA1`
/// payload inside `checkpoint_bytes()` equals `iba_core::checkpoint::save`
/// of the reference simulation (same pool, bin queues, live capacities,
/// offline mask, counters, and RNG position), for any shard count.
#[test]
fn embedded_core_checkpoint_is_byte_identical_to_process_checkpoint() {
    for shards in [1usize, 4] {
        let config = CappedConfig::new(48, 2, 0.75).expect("valid");
        let mut reference = FaultedProcess::new(CappedProcess::new(config.clone()), scenario());
        let mut rng = SimRng::seed_from(2024);
        let mut service = spawn_central(config, shards, 2024);
        service.schedule(scenario());
        for round in 0..40 {
            assert_eq!(
                service.run_round(),
                reference.step(&mut rng),
                "divergence at shards={shards} round={round}"
            );
        }
        let envelope = service.checkpoint_bytes();
        let mut dec = Decoder::new(&envelope).expect("valid envelope");
        dec.header("IBSV", 2).expect("serve envelope header");
        let embedded = dec.byte_seq("core checkpoint").expect("embedded core");
        let expected = checkpoint::save(&Simulation::new(reference.inner().clone(), rng.clone()));
        assert!(
            embedded == expected.as_slice(),
            "embedded IBA1 bytes differ from the process checkpoint at shards={shards}"
        );
    }
}

#[test]
fn central_mode_runs_identically_after_restart_of_reference() {
    // The differential holds from any prefix: running the reference 50
    // rounds, then comparing the next 50, still matches a service that
    // ran the same 100 — i.e. divergence cannot hide in early rounds.
    let config = CappedConfig::new(64, 2, 0.75).expect("valid");
    let mut reference = CappedProcess::new(config.clone());
    let mut rng = SimRng::seed_from(5);
    let mut service = spawn_central(config, 4, 5);
    for _ in 0..50 {
        reference.step(&mut rng);
        service.run_round();
    }
    for _ in 0..50 {
        assert_eq!(service.run_round(), reference.step(&mut rng));
    }
}
