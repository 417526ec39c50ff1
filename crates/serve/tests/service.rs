//! The service's public surface: spawn validation, rounds and ticket
//! completions (each served ball takes the longest-waiting ticket of its
//! label), the ingress (consecutive ids, exact depth, contiguous
//! admission ranges under concurrent submitters, parked
//! `submit_blocking` callers woken by admission and by shutdown),
//! admission caps and backpressure, scheduled faults, checkpoint
//! resume (across shard counts, with pending tickets, and against hostile
//! envelopes), ticket TTL reaping, shutdown, and the fault telemetry a
//! service run records.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use iba_core::{CappedConfig, CappedProcess};
use iba_serve::{CappedService, ResumeError, ServiceConfig, SubmitError, Ticket};
use iba_sim::codec::{Decoder, Encoder};
use iba_sim::faults::{FaultEvent, FaultPlan};
use iba_sim::{AllocationProcess, SimRng};

fn config(n: usize, c: u32, lambda: f64) -> CappedConfig {
    CappedConfig::new(n, c, lambda).unwrap()
}

fn model_service(n: usize, c: u32, lambda: f64, shards: usize) -> CappedService {
    CappedService::spawn(
        ServiceConfig::new(config(n, c, lambda), shards, 42).with_model_arrivals(true),
    )
    .unwrap()
}

#[test]
fn spawn_rejects_invalid_configs() {
    let base = config(8, 2, 0.75);
    assert!(CappedService::spawn(ServiceConfig::new(base.clone(), 0, 1)).is_err());
    assert!(CappedService::spawn(ServiceConfig::new(base, 9, 1)).is_err());
}

#[test]
fn model_rounds_conserve_and_report() {
    let mut service = model_service(32, 2, 0.75, 4);
    for _ in 0..100 {
        let report = service.run_round();
        assert!(report.conserves_balls());
        assert!(service.conserves_balls());
        assert!(report.max_load <= 2);
        assert_eq!(report.generated, 24);
    }
    assert_eq!(service.round(), 100);
    assert!(service.total_served() > 0);
    service.shutdown();
    assert!(service.conserves_balls());
}

#[test]
fn submitted_requests_complete_with_waiting_times() {
    let mut service = CappedService::spawn(ServiceConfig::new(config(16, 2, 0.0), 2, 7)).unwrap();
    let completions = service.take_completions().unwrap();
    assert!(service.take_completions().is_none(), "receiver taken once");
    let dispatcher = service.dispatcher();
    let tickets: Vec<Ticket> = (0..10).map(|_| dispatcher.submit().unwrap()).collect();
    let report = service.run_round();
    assert_eq!(report.generated, 10);
    assert_eq!(service.total_admitted(), 10);
    // Drain until everything is served.
    let mut done = Vec::new();
    while done.len() < 10 {
        while let Ok(completion) = completions.try_recv() {
            done.push(completion);
        }
        if done.len() < 10 {
            service.run_round();
        }
    }
    assert_eq!(service.pending_tickets(), 0);
    let mut served_ids: Vec<u64> = done.iter().map(|c| c.ticket.id()).collect();
    served_ids.sort_unstable();
    let mut expected: Vec<u64> = tickets.iter().map(Ticket::id).collect();
    expected.sort_unstable();
    assert_eq!(served_ids, expected);
    for completion in &done {
        assert_eq!(completion.admitted_round, 1);
        assert!(completion.bin < 16, "bin index is global and in range");
        assert_eq!(
            completion.waiting_rounds,
            completion.served_round - completion.admitted_round
        );
    }
    assert!(service.conserves_balls());
}

#[test]
fn admission_cap_defers_excess_to_later_rounds() {
    let mut service = CappedService::spawn(
        ServiceConfig::new(config(16, 2, 0.0), 2, 7).with_max_admit_per_round(Some(3)),
    )
    .unwrap();
    let dispatcher = service.dispatcher();
    for _ in 0..8 {
        dispatcher.submit().unwrap();
    }
    assert_eq!(service.run_round().generated, 3);
    assert_eq!(service.run_round().generated, 3);
    assert_eq!(service.run_round().generated, 2);
    assert_eq!(service.total_admitted(), 8);
}

#[test]
fn ingress_backpressure_saturates() {
    let mut service =
        CappedService::spawn(ServiceConfig::new(config(16, 2, 0.0), 2, 7).with_ingress_capacity(4))
            .unwrap();
    let dispatcher = service.dispatcher();
    for _ in 0..4 {
        dispatcher.submit().unwrap();
    }
    assert_eq!(dispatcher.submit(), Err(SubmitError::Saturated));
    // Admission drains the queue; submission works again.
    service.run_round();
    assert!(dispatcher.submit().is_ok());
}

#[test]
fn scheduled_crash_rejects_that_bins_requests() {
    // n = 2, 2 shards: bin 0 is shard 0's only bin. Crash it; model
    // arrivals (λ = 0.5 → 1 ball/round) can then only land in bin 1.
    let mut service = CappedService::spawn(
        ServiceConfig::new(config(2, 1, 0.5), 2, 11).with_model_arrivals(true),
    )
    .unwrap();
    service.schedule(FaultPlan::new().with(1, FaultEvent::CrashBins { bins: vec![0] }));
    let mut served_total = 0;
    for _ in 0..50 {
        let report = service.run_round();
        assert!(report.conserves_balls());
        assert!(service.conserves_balls());
        served_total += report.deleted;
    }
    // Bin 1 can serve at most one ball per round; with bin 0 down the
    // pool backs up rather than losing balls.
    assert!(served_total <= 50);
    assert!(service.pool_size() > 0 || service.buffered() > 0 || served_total == 50);
}

#[test]
fn pool_surge_enters_with_pre_round_label() {
    let mut service = model_service(8, 1, 0.5, 2);
    service.run_round();
    service.schedule(FaultPlan::new().with(2, FaultEvent::PoolSurge { extra: 5 }));
    let report = service.run_round();
    // 4 model balls + 5 surged (labeled round 1) all compete.
    assert_eq!(report.generated, 4);
    assert!(report.thrown >= 9);
    assert!(service.conserves_balls());
}

#[test]
fn snapshot_reflects_counters() {
    let mut service = model_service(32, 2, 0.75, 4);
    for _ in 0..20 {
        service.run_round();
    }
    let snap = service.snapshot();
    assert_eq!(snap.round, 20);
    assert_eq!(snap.total_generated, 20 * 24);
    assert!(snap.max_load <= 2, "c = 2 bounds every load");
    assert_eq!(snap.pool_size, service.pool_size() as u64);
    assert!(snap.wait.is_some());
    let line = snap.to_json_line();
    assert!(line.contains("\"round\":20"));
}

#[test]
#[should_panic(expected = "shut down")]
fn run_after_shutdown_panics() {
    let mut service = model_service(8, 1, 0.5, 2);
    service.shutdown();
    service.run_round();
}

#[test]
fn checkpoint_resume_continues_bit_identically() {
    let config = ServiceConfig::new(config(32, 2, 0.75), 4, 42).with_model_arrivals(true);
    let mut original = CappedService::spawn(config.clone()).unwrap();
    for _ in 0..30 {
        original.run_round();
    }
    let bytes = original.checkpoint_bytes();
    let mut resumed = CappedService::resume(config, &bytes).unwrap();
    assert_eq!(resumed.round(), 30);
    assert_eq!(resumed.total_generated(), original.total_generated());
    assert_eq!(resumed.pool_size(), original.pool_size());
    assert_eq!(resumed.buffered(), original.buffered());
    assert!(resumed.conserves_balls());
    for r in 0..25 {
        assert_eq!(
            original.run_round(),
            resumed.run_round(),
            "diverged at +{r}"
        );
    }
}

#[test]
fn central_resume_works_across_shard_counts() {
    let capped = config(32, 2, 0.75);
    let cfg4 = ServiceConfig::new(capped.clone(), 4, 9).with_model_arrivals(true);
    let mut original = CappedService::spawn(cfg4.clone()).unwrap();
    for _ in 0..20 {
        original.run_round();
    }
    let bytes = original.checkpoint_bytes();
    // The driver owns all the randomness, so the resumed topology is
    // free to differ.
    let cfg2 = ServiceConfig::new(capped, 2, 9).with_model_arrivals(true);
    let mut resumed = CappedService::resume(cfg2, &bytes).unwrap();
    for _ in 0..20 {
        assert_eq!(original.run_round(), resumed.run_round());
    }
}

#[test]
fn resume_rejects_incompatible_configs() {
    let base = ServiceConfig::new(config(16, 2, 0.5), 2, 7).with_model_arrivals(true);
    let mut service = CappedService::spawn(base.clone()).unwrap();
    service.run_rounds(5);
    let bytes = service.checkpoint_bytes();

    let other_capped = ServiceConfig::new(config(16, 3, 0.5), 2, 7).with_model_arrivals(true);
    assert!(matches!(
        CappedService::resume(other_capped, &bytes),
        Err(ResumeError::ConfigMismatch)
    ));

    // A per-shard envelope in the layout older versions wrote (mode
    // word 1, then one 4-word RNG stream per shard) is well-formed
    // and CRC-valid, and still rejected at the mode word.
    let mut dec = Decoder::new(&bytes).unwrap();
    dec.header("IBSV", 2).unwrap();
    let mut enc = Encoder::new();
    enc.header("IBSV", 2);
    enc.byte_seq(dec.byte_seq("core checkpoint").unwrap());
    assert_eq!(dec.u32("rng mode").unwrap(), 0);
    enc.u32(1);
    let shards = dec.usize("shard count").unwrap();
    enc.usize(shards);
    enc.u64_seq((0..4 * shards).map(|w| w as u64));
    for what in ["ticket watermark", "total admitted", "total expired"] {
        enc.u64(dec.u64(what).unwrap());
    }
    assert_eq!(dec.usize("pending ticket map").unwrap(), 0);
    enc.usize(0);
    enc.usize(dec.usize("live bin count").unwrap());
    enc.u64_seq(dec.u64_seq("shard range ends").unwrap().into_iter());
    enc.u64(dec.u64("balls moved").unwrap());
    enc.u64(dec.u64("membership events").unwrap());
    assert!(dec.is_exhausted());
    assert!(matches!(
        CappedService::resume(base.clone(), &enc.finish()),
        Err(ResumeError::Invalid { what: "rng mode" })
    ));

    // Corruption fails the CRC before any field parses.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    assert!(matches!(
        CappedService::resume(base.clone(), &corrupt),
        Err(ResumeError::Codec(_))
    ));
    assert!(CappedService::resume(base, &bytes[..20]).is_err());
}

#[test]
fn pending_tickets_survive_a_checkpoint() {
    let cfg = ServiceConfig::new(config(16, 2, 0.0), 2, 7);
    let mut service = CappedService::spawn(cfg.clone()).unwrap();
    // Crash every bin so admitted requests stay pooled, pinning their
    // tickets in the pending map across the checkpoint.
    service.schedule(FaultPlan::new().with(
        1,
        FaultEvent::CrashBins {
            bins: (0..16).collect(),
        },
    ));
    let dispatcher = service.dispatcher();
    let tickets: Vec<u64> = (0..6).map(|_| dispatcher.submit().unwrap().id()).collect();
    service.run_round();
    assert_eq!(service.pending_tickets(), 6);
    let bytes = service.checkpoint_bytes();

    let mut resumed = CappedService::resume(cfg, &bytes).unwrap();
    assert_eq!(resumed.pending_tickets(), 6);
    let completions = resumed.take_completions().unwrap();
    // New submissions never collide with pre-crash ticket ids.
    let fresh = resumed.dispatcher().submit().unwrap().id();
    assert!(fresh > *tickets.iter().max().unwrap());
    // Recover the bins; the pre-crash tickets complete on the resumed
    // service with their original ids.
    resumed.schedule(FaultPlan::new().with(
        2,
        FaultEvent::RecoverBins {
            bins: (0..16).collect(),
        },
    ));
    let mut done = Vec::new();
    for _ in 0..50 {
        resumed.run_round();
        while let Ok(c) = completions.try_recv() {
            done.push(c.ticket.id());
        }
        if done.len() >= 7 {
            break;
        }
    }
    for id in &tickets {
        assert!(done.contains(id), "pre-crash ticket {id} completed");
    }
}

#[test]
fn ticket_ttl_reaps_notification_state() {
    let mut service = CappedService::spawn(
        ServiceConfig::new(config(4, 1, 0.0), 2, 3).with_ticket_ttl_rounds(Some(3)),
    )
    .unwrap();
    // No bin ever serves: all crashed from round 1.
    service.schedule(FaultPlan::new().with(
        1,
        FaultEvent::CrashBins {
            bins: vec![0, 1, 2, 3],
        },
    ));
    let dispatcher = service.dispatcher();
    for _ in 0..5 {
        dispatcher.submit().unwrap();
    }
    service.run_round(); // admitted at round 1
    assert_eq!(service.pending_tickets(), 5);
    service.run_round(); // waited 1
    service.run_round(); // waited 2
    assert_eq!(service.pending_tickets(), 5, "not yet expired");
    service.run_round(); // waited 3 = TTL: reaped
    assert_eq!(service.pending_tickets(), 0);
    assert_eq!(service.total_expired(), 5);
    assert_eq!(service.drain_expired_tickets().len(), 5);
    assert!(service.drain_expired_tickets().is_empty(), "drained once");
    // The balls themselves are still conserved (pooled, not lost).
    assert!(service.conserves_balls());
    assert_eq!(service.pool_size(), 5);
}

#[test]
#[should_panic(expected = "at least one round")]
fn zero_ttl_is_rejected() {
    let _ = ServiceConfig::new(config(4, 1, 0.0), 1, 3).with_ticket_ttl_rounds(Some(0));
}

#[test]
fn resume_rejects_a_pending_count_past_the_data() {
    let cfg = ServiceConfig::new(config(16, 2, 0.5), 2, 7).with_model_arrivals(true);
    let mut service = CappedService::spawn(cfg.clone()).unwrap();
    service.run_rounds(5);
    let bytes = service.checkpoint_bytes();

    // Re-encode the envelope field by field, claiming u64::MAX pending
    // labels: CRC-valid, and the count must not size any buffer.
    let mut dec = Decoder::new(&bytes).unwrap();
    dec.header("IBSV", 2).unwrap();
    let mut enc = Encoder::new();
    enc.header("IBSV", 2);
    enc.byte_seq(dec.byte_seq("core checkpoint").unwrap());
    enc.u32(dec.u32("rng mode").unwrap());
    enc.usize(dec.usize("shard count").unwrap());
    for what in ["ticket watermark", "total admitted", "total expired"] {
        enc.u64(dec.u64(what).unwrap());
    }
    assert_eq!(dec.usize("pending ticket map").unwrap(), 0);
    enc.u64(u64::MAX);
    enc.usize(dec.usize("live bin count").unwrap());
    enc.u64_seq(dec.u64_seq("shard range ends").unwrap().into_iter());
    enc.u64(dec.u64("balls moved").unwrap());
    enc.u64(dec.u64("membership events").unwrap());
    assert!(dec.is_exhausted());
    assert!(CappedService::resume(cfg, &enc.finish()).is_err());
}

#[test]
fn resume_rejects_a_core_checkpoint_with_a_forged_bin_count() {
    let cfg = ServiceConfig::new(config(16, 2, 0.5), 2, 7).with_model_arrivals(true);
    let mut service = CappedService::spawn(cfg.clone()).unwrap();
    service.run_rounds(5);
    let bytes = service.checkpoint_bytes();

    // A CRC-valid core checkpoint whose configuration claims n = 2⁴⁰ bins
    // and stops after the bin count: the restore must run out of bytes,
    // not reserve per-bin state for the claimed count.
    let n = 1usize << 40;
    let mut core = Encoder::new();
    core.header("IBA1", 2);
    for word in [1, 2, 3, 4] {
        core.u64(word);
    }
    config(n, 2, 0.5).encode_into(&mut core);
    for _ in ["round", "total generated", "total deleted"] {
        core.u64(0);
    }
    core.u64_seq(std::iter::empty());
    core.usize(n);

    // Swap it into the otherwise unchanged envelope.
    let mut dec = Decoder::new(&bytes).unwrap();
    dec.header("IBSV", 2).unwrap();
    dec.byte_seq("core checkpoint").unwrap();
    let mut enc = Encoder::new();
    enc.header("IBSV", 2);
    enc.byte_seq(&core.finish());
    enc.u32(dec.u32("rng mode").unwrap());
    enc.usize(dec.usize("shard count").unwrap());
    for what in ["ticket watermark", "total admitted", "total expired"] {
        enc.u64(dec.u64(what).unwrap());
    }
    assert_eq!(dec.usize("pending ticket map").unwrap(), 0);
    enc.usize(0);
    enc.usize(dec.usize("live bin count").unwrap());
    enc.u64_seq(dec.u64_seq("shard range ends").unwrap().into_iter());
    enc.u64(dec.u64("balls moved").unwrap());
    enc.u64(dec.u64("membership events").unwrap());
    assert!(dec.is_exhausted());
    assert!(matches!(
        CappedService::resume(cfg, &enc.finish()),
        Err(ResumeError::Codec(_))
    ));
}

#[test]
fn resume_rejects_a_core_checkpoint_whose_arena_cannot_be_allocated() {
    let cfg = ServiceConfig::new(config(16, 2, 0.5), 2, 7).with_model_arrivals(true);
    let mut service = CappedService::spawn(cfg.clone()).unwrap();
    service.run_rounds(5);
    let bytes = service.checkpoint_bytes();

    // A CRC-valid, conserving core checkpoint of 2¹⁷ bins at c = 2 whose
    // bin 0 holds 2²⁰ balls: its arena would be 2³⁷ slots of 8 B = 1 TiB.
    // Resuming used to abort the process in the allocator.
    let (n, load) = (1usize << 17, 1usize << 20);
    let mut core = Encoder::new();
    core.header("IBA1", 2);
    for word in [1, 2, 3, 4] {
        core.u64(word);
    }
    config(n, 2, 0.5).encode_into(&mut core);
    core.u64(1); // round
    core.u64(load as u64); // total generated
    core.u64(0); // total deleted
    core.u64_seq(std::iter::empty());
    core.usize(n);
    for b in 0..n {
        core.u64(2);
        core.u64_seq(std::iter::repeat_n(1, if b == 0 { load } else { 0 }));
    }
    for _ in 0..n {
        core.bool(false);
    }

    // Swap it into the otherwise unchanged envelope.
    let mut dec = Decoder::new(&bytes).unwrap();
    dec.header("IBSV", 2).unwrap();
    dec.byte_seq("core checkpoint").unwrap();
    let mut enc = Encoder::new();
    enc.header("IBSV", 2);
    enc.byte_seq(&core.finish());
    enc.u32(dec.u32("rng mode").unwrap());
    enc.usize(dec.usize("shard count").unwrap());
    for what in ["ticket watermark", "total admitted", "total expired"] {
        enc.u64(dec.u64(what).unwrap());
    }
    assert_eq!(dec.usize("pending ticket map").unwrap(), 0);
    enc.usize(0);
    enc.usize(dec.usize("live bin count").unwrap());
    enc.u64_seq(dec.u64_seq("shard range ends").unwrap().into_iter());
    enc.u64(dec.u64("balls moved").unwrap());
    enc.u64(dec.u64("membership events").unwrap());
    assert!(dec.is_exhausted());
    assert!(matches!(
        CappedService::resume(cfg, &enc.finish()),
        Err(ResumeError::Codec(_))
    ));
}

#[test]
fn service_faults_advance_the_fault_counters() {
    // Other tests of this binary run concurrently: telemetry is only ever
    // switched on here, and the counter is compared as a lower bound.
    iba_obs::set_enabled(true);
    let crashed = iba_obs::global().counter("iba_sim_fault_crashed_bins_total");
    let before = crashed.get();
    let mut service = model_service(8, 2, 0.5, 2);
    // Bin 99 is out of range and skipped.
    service.schedule(FaultPlan::new().with(
        2,
        FaultEvent::CrashBins {
            bins: vec![1, 5, 6, 99],
        },
    ));
    service.run_rounds(3);
    assert!(crashed.get() - before >= 3);
    assert!(service.conserves_balls());

    // The ingress depth is sampled as each round starts admitting. The
    // gauge is global and other tests' rounds may overwrite it between
    // the set and the read, so a round that lost the race is retried.
    let depth = iba_obs::global().gauge("iba_serve_ingress_depth");
    let dispatcher = service.dispatcher();
    let sampled = (0..100).any(|_| {
        for _ in 0..3 {
            dispatcher.submit().unwrap();
        }
        service.run_round();
        depth.get() == 3
    });
    assert!(sampled, "the gauge holds the depth the round admitted from");
}

#[test]
fn rounds_of_thousands_of_balls_match_the_bare_process() {
    // λn = 3 840 balls arrive every round, so the driver draws and routes
    // a round's bins in several bulk draws, over three uneven shards.
    let config = config(4096, 2, 0.9375);
    let mut reference = CappedProcess::new(config.clone());
    let mut rng = SimRng::seed_from(9);
    let mut service =
        CappedService::spawn(ServiceConfig::new(config, 3, 9).with_model_arrivals(true)).unwrap();
    for round in 1..=40 {
        assert_eq!(
            service.run_round(),
            reference.step(&mut rng),
            "round {round}"
        );
    }
}

#[test]
fn completions_take_the_longest_waiting_ticket_of_each_label() {
    let mut service = CappedService::spawn(ServiceConfig::new(config(24, 2, 0.0), 3, 11)).unwrap();
    let completions = service.take_completions().unwrap();
    let dispatcher = service.dispatcher();
    // Two thirds of the bins are down for rounds 3..8, so tickets of
    // several labels wait several rounds, spread over all three shards.
    service.schedule(
        FaultPlan::new()
            .with(
                3,
                FaultEvent::CrashBins {
                    bins: (0..24).filter(|i| i % 3 != 0).collect(),
                },
            )
            .with(
                8,
                FaultEvent::RecoverBins {
                    bins: (0..24).collect(),
                },
            ),
    );
    let mut submitted = Vec::new();
    for _ in 0..12 {
        submitted.extend((0..20).map(|_| dispatcher.submit().unwrap().id()));
        service.run_round();
    }
    for _ in 0..200 {
        if service.pending_tickets() == 0 {
            break;
        }
        service.run_round();
    }
    assert_eq!(service.pending_tickets(), 0);

    let mut by_label: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut completed = Vec::new();
    let mut longest_wait = 0;
    while let Ok(c) = completions.try_recv() {
        by_label
            .entry(c.admitted_round)
            .or_default()
            .push(c.ticket.id());
        completed.push(c.ticket.id());
        longest_wait = longest_wait.max(c.waiting_rounds);
    }
    assert!(longest_wait >= 3, "the crash left tickets waiting");
    for (label, ids) in &by_label {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "label {label} completed out of admission order: {ids:?}"
        );
    }
    completed.sort_unstable();
    assert_eq!(completed, submitted, "every ticket completes exactly once");
}

/// The driver runs the shards one after another and hands out each
/// round's completions in bin order, as one `CappedProcess` round serves:
/// across 4 shards, through a crash and a recovery, a round's completions
/// come in ascending bin, and their waits, in arrival order, are the
/// round's reported waiting times.
#[test]
fn completions_arrive_in_bin_order_with_the_reported_waits() {
    let mut service = CappedService::spawn(ServiceConfig::new(config(32, 2, 0.75), 4, 19)).unwrap();
    let completions = service.take_completions().unwrap();
    let dispatcher = service.dispatcher();
    service.schedule(
        FaultPlan::new()
            .with(
                3,
                FaultEvent::CrashBins {
                    bins: vec![1, 9, 10, 11, 17, 26, 31],
                },
            )
            .with(
                9,
                FaultEvent::RecoverBins {
                    bins: vec![1, 9, 10, 11, 17, 26, 31],
                },
            ),
    );
    let mut shards_in_one_round = 0;
    let mut longest_wait = 0;
    for round in 1..=60u64 {
        if round <= 30 {
            for _ in 0..24 {
                dispatcher.submit().unwrap();
            }
        }
        let report = service.run_round();
        let done: Vec<_> = completions.try_iter().collect();
        assert_eq!(done.len() as u64, report.deleted, "round {round}");
        assert!(
            done.windows(2).all(|w| w[0].bin < w[1].bin),
            "round {round}: completions out of bin order"
        );
        let waits: Vec<u64> = done.iter().map(|c| c.waiting_rounds).collect();
        assert_eq!(waits, report.waiting_times, "round {round}");
        assert!(done.iter().all(|c| c.served_round == round));
        let mut shards: Vec<u64> = done.iter().map(|c| c.bin / 8).collect();
        shards.dedup();
        shards_in_one_round = shards_in_one_round.max(shards.len());
        longest_wait = longest_wait.max(waits.iter().copied().max().unwrap_or(0));
    }
    assert_eq!(shards_in_one_round, 4, "a round served every shard");
    assert!(longest_wait >= 2, "the crash left tickets waiting");
    assert_eq!(service.pending_tickets(), 0);
    assert!(service.conserves_balls());
}

#[test]
fn ttl_reaps_the_oldest_label_first_after_a_resume() {
    let cfg = ServiceConfig::new(config(8, 1, 0.0), 2, 5);
    let mut service = CappedService::spawn(cfg.clone()).unwrap();
    service.schedule(FaultPlan::new().with(
        1,
        FaultEvent::CrashBins {
            bins: (0..8).collect(),
        },
    ));
    // Labels 1..=4 hold three tickets each; no bin serves any of them.
    let dispatcher = service.dispatcher();
    let mut submitted = Vec::new();
    for _ in 0..4 {
        submitted.extend((0..3).map(|_| dispatcher.submit().unwrap().id()));
        service.run_round();
    }
    assert_eq!(service.pending_tickets(), 12);
    let bytes = service.checkpoint_bytes();

    // A TTL of four rounds expires one label per round from round 5 on.
    let ttl_cfg = cfg.with_ticket_ttl_rounds(Some(4));
    let again = CappedService::resume(ttl_cfg.clone(), &bytes).unwrap();
    assert_eq!(
        again.checkpoint_bytes(),
        bytes,
        "checkpoint -> resume -> checkpoint"
    );
    let mut resumed = CappedService::resume(ttl_cfg, &bytes).unwrap();
    let mut expired = Vec::new();
    for round in 5..=8 {
        resumed.run_round();
        let reaped = resumed.drain_expired_tickets();
        let label = (round - 4) as usize;
        assert_eq!(
            reaped,
            submitted[3 * (label - 1)..3 * label],
            "round {round}"
        );
        expired.extend(reaped);
    }
    assert_eq!(expired, submitted);
    assert_eq!(resumed.pending_tickets(), 0);
}

/// A 2-shard service whose bins all crashed in round 1, checkpointed
/// after round 3 with tickets 0..4 pending under label 1 (watermark 4).
fn checkpoint_with_pending_tickets() -> (ServiceConfig, Vec<u8>) {
    let cfg = ServiceConfig::new(config(16, 2, 0.0), 2, 7);
    let mut service = CappedService::spawn(cfg.clone()).unwrap();
    service.schedule(FaultPlan::new().with(
        1,
        FaultEvent::CrashBins {
            bins: (0..16).collect(),
        },
    ));
    let dispatcher = service.dispatcher();
    for _ in 0..4 {
        dispatcher.submit().unwrap();
    }
    service.run_rounds(3);
    assert_eq!(service.pending_tickets(), 4);
    (cfg, service.checkpoint_bytes())
}

/// Re-encodes a service envelope field by field with its pending-ticket
/// section replaced by `pending`.
fn with_pending(bytes: &[u8], pending: &[(u64, &[u64])]) -> Vec<u8> {
    let mut dec = Decoder::new(bytes).unwrap();
    dec.header("IBSV", 2).unwrap();
    let mut enc = Encoder::new();
    enc.header("IBSV", 2);
    enc.byte_seq(dec.byte_seq("core checkpoint").unwrap());
    enc.u32(dec.u32("rng mode").unwrap());
    enc.usize(dec.usize("shard count").unwrap());
    for what in ["ticket watermark", "total admitted", "total expired"] {
        enc.u64(dec.u64(what).unwrap());
    }
    for _ in 0..dec.usize("pending ticket map").unwrap() {
        dec.u64("pending label").unwrap();
        dec.u64_seq("pending ticket ids").unwrap();
    }
    enc.usize(pending.len());
    for (label, ids) in pending {
        enc.u64(*label);
        enc.u64_seq(ids.iter().copied());
    }
    enc.usize(dec.usize("live bin count").unwrap());
    enc.u64_seq(dec.u64_seq("shard range ends").unwrap().into_iter());
    enc.u64(dec.u64("balls moved").unwrap());
    enc.u64(dec.u64("membership events").unwrap());
    assert!(dec.is_exhausted());
    enc.finish()
}

#[test]
fn resume_rejects_a_pending_label_past_the_checkpoint_round() {
    let (cfg, bytes) = checkpoint_with_pending_tickets();
    assert_eq!(with_pending(&bytes, &[(1, &[0, 1, 2, 3])]), bytes);
    // Round 3 is the checkpoint's last: a label-4 entry would take the
    // completions of the tickets the resumed service admits in round 4.
    let forged = with_pending(&bytes, &[(4, &[0, 1, 2, 3])]);
    assert!(matches!(
        CappedService::resume(cfg, &forged),
        Err(ResumeError::Invalid { .. })
    ));
}

#[test]
fn resume_rejects_a_pending_ticket_id_at_the_watermark() {
    let (cfg, bytes) = checkpoint_with_pending_tickets();
    assert_eq!(with_pending(&bytes, &[(1, &[0, 1, 2, 3])]), bytes);
    // Id 4 is the watermark: the resumed dispatcher issues it again.
    let forged = with_pending(&bytes, &[(1, &[0, 1, 2, 4])]);
    assert!(matches!(
        CappedService::resume(cfg, &forged),
        Err(ResumeError::Invalid { .. })
    ));
}

/// Whether `resume` refuses `pending` in place of the pending map of
/// [`checkpoint_with_pending_tickets`] (tickets 0..4 under label 1).
fn rejects_pending(pending: &[(u64, &[u64])]) -> bool {
    let (cfg, bytes) = checkpoint_with_pending_tickets();
    assert_eq!(with_pending(&bytes, &[(1, &[0, 1, 2, 3])]), bytes);
    matches!(
        CappedService::resume(cfg, &with_pending(&bytes, pending)),
        Err(ResumeError::Invalid { .. })
    )
}

#[test]
fn resume_rejects_overlapping_pending_ranges() {
    // Ticket 1 under two labels: five pending tickets from four issued
    // ids, and ticket 1 would complete twice.
    assert!(rejects_pending(&[(1, &[0, 1]), (2, &[1, 2, 3])]));

    // Labels 1 and 2 hold three pooled balls each behind tickets 0..6, so
    // only the range order gives these forgeries away.
    let cfg = ServiceConfig::new(config(8, 1, 0.0), 2, 5);
    let mut service = CappedService::spawn(cfg.clone()).unwrap();
    service.schedule(FaultPlan::new().with(
        1,
        FaultEvent::CrashBins {
            bins: (0..8).collect(),
        },
    ));
    let dispatcher = service.dispatcher();
    for _ in 0..2 {
        for _ in 0..3 {
            dispatcher.submit().unwrap();
        }
        service.run_round();
    }
    let bytes = service.checkpoint_bytes();
    assert_eq!(
        with_pending(&bytes, &[(1, &[0, 1, 2]), (2, &[3, 4, 5])]),
        bytes
    );
    for forged in [
        [(1, &[0, 1, 2][..]), (2, &[2, 3, 4][..])],
        [(1, &[3, 4, 5][..]), (2, &[0, 1, 2][..])],
    ] {
        assert!(
            matches!(
                CappedService::resume(cfg.clone(), &with_pending(&bytes, &forged)),
                Err(ResumeError::Invalid { .. })
            ),
            "{forged:?}"
        );
    }
}

#[test]
fn resume_rejects_a_duplicated_pending_id() {
    assert!(rejects_pending(&[(1, &[0, 0, 2, 3])]));
}

#[test]
fn resume_rejects_out_of_order_pending_ids() {
    assert!(rejects_pending(&[(1, &[3, 0, 2])]));
}

#[test]
fn resume_rejects_more_tickets_of_a_label_than_balls() {
    // Well-formed ranges, but the checkpoint holds four label-1 balls and
    // no label-2 ball: the label-2 tickets could never complete.
    assert!(rejects_pending(&[(1, &[0, 1]), (2, &[2, 3])]));
    assert!(rejects_pending(&[(2, &[0, 1, 2, 3])]));
    // Fewer tickets than balls is legitimate (model arrivals and surges
    // add balls without tickets) and resumes.
    let (cfg, bytes) = checkpoint_with_pending_tickets();
    assert!(CappedService::resume(cfg, &with_pending(&bytes, &[(1, &[2, 3])])).is_ok());
}

#[test]
fn partially_consumed_pending_ranges_survive_a_checkpoint() {
    // Four bins of capacity two serve at most four of round 1's ten
    // balls per round, so label 1's range is partly consumed at the
    // checkpoint, and its balls are both pooled and buffered.
    let cfg = ServiceConfig::new(config(4, 2, 0.0), 2, 9);
    let mut service = CappedService::spawn(cfg.clone()).unwrap();
    let completions = service.take_completions().unwrap();
    let dispatcher = service.dispatcher();
    let submitted: Vec<u64> = (0..10).map(|_| dispatcher.submit().unwrap().id()).collect();
    service.run_round();
    let served: Vec<u64> = completions.try_iter().map(|c| c.ticket.id()).collect();
    assert!(!served.is_empty() && served.len() < submitted.len());
    assert_eq!(served, submitted[..served.len()], "oldest ids first");
    let remaining = &submitted[served.len()..];
    assert_eq!(service.pending_tickets(), remaining.len());
    assert!(service.buffered() > 0 && service.pool_size() > 0);
    let bytes = service.checkpoint_bytes();
    assert_eq!(with_pending(&bytes, &[(1, remaining)]), bytes);

    // The resumed service completes exactly the remaining ids, once each.
    let mut resumed = CappedService::resume(cfg.clone(), &bytes).unwrap();
    let completions = resumed.take_completions().unwrap();
    for _ in 0..20 {
        resumed.run_round();
    }
    assert_eq!(resumed.pending_tickets(), 0);
    let done: Vec<u64> = completions.try_iter().map(|c| c.ticket.id()).collect();
    assert_eq!(done, remaining);

    // With a one-round TTL, round 2 completes a prefix of the remaining
    // ids and reaps exactly the rest.
    let mut reaping = CappedService::resume(cfg.with_ticket_ttl_rounds(Some(1)), &bytes).unwrap();
    let completions = reaping.take_completions().unwrap();
    reaping.run_round();
    let done: Vec<u64> = completions.try_iter().map(|c| c.ticket.id()).collect();
    let reaped = reaping.drain_expired_tickets();
    assert!(!reaped.is_empty());
    assert_eq!([done, reaped].concat(), remaining);
    assert_eq!(reaping.pending_tickets(), 0);
}

#[test]
fn completions_before_the_receiver_is_taken_are_not_kept() {
    let mut service = CappedService::spawn(ServiceConfig::new(config(64, 2, 0.0), 2, 5)).unwrap();
    let dispatcher = service.dispatcher();
    for _ in 0..20 {
        for _ in 0..48 {
            dispatcher.submit().unwrap();
        }
        service.run_round();
    }
    assert!(service.total_served() > 0);
    let completions = service.take_completions().unwrap();
    assert!(
        completions.try_recv().is_err(),
        "completions of rounds before the take are not buffered"
    );
    let ticket = dispatcher.submit().unwrap();
    let mut seen = false;
    for _ in 0..200 {
        service.run_round();
        seen |= completions.try_iter().any(|c| c.ticket == ticket);
        if seen {
            break;
        }
    }
    assert!(seen, "completions after the take arrive");
}

#[test]
fn dispatcher_ids_are_consecutive_across_clones() {
    let mut service = CappedService::spawn(ServiceConfig::new(config(16, 2, 0.0), 1, 7)).unwrap();
    let d1 = service.dispatcher();
    let d2 = d1.clone();
    let ids: Vec<u64> = (0..6)
        .map(|i| if i % 2 == 0 { &d1 } else { &d2 })
        .map(|d| d.submit().unwrap().id())
        .collect();
    assert_eq!(ids, (0..6).collect::<Vec<u64>>());
    service.run_round();
    assert_eq!(d2.submit().unwrap().id(), 6);
}

#[test]
fn depth_is_exact_and_admission_takes_the_oldest_ids() {
    let mut service = CappedService::spawn(
        ServiceConfig::new(config(16, 2, 0.0), 2, 7)
            .with_ingress_capacity(4)
            .with_max_admit_per_round(Some(3)),
    )
    .unwrap();
    let completions = service.take_completions().unwrap();
    let dispatcher = service.dispatcher();
    assert_eq!(dispatcher.capacity(), 4);
    assert_eq!((dispatcher.depth(), dispatcher.fill_ratio()), (0, 0.0));
    for _ in 0..4 {
        dispatcher.submit().unwrap();
    }
    assert_eq!((dispatcher.depth(), dispatcher.fill_ratio()), (4, 1.0));
    // A refusal neither queues nor inflates the depth.
    assert_eq!(dispatcher.submit(), Err(SubmitError::Saturated));
    assert_eq!(dispatcher.depth(), 4);
    assert_eq!(service.run_round().generated, 3);
    assert_eq!(dispatcher.depth(), 1);
    service.run_rounds(20);
    let mut admitted: Vec<(u64, u64)> = completions
        .try_iter()
        .map(|c| (c.admitted_round, c.ticket.id()))
        .collect();
    admitted.sort_unstable_by_key(|&(_, id)| id);
    assert_eq!(admitted, vec![(1, 0), (1, 1), (1, 2), (2, 3)]);
}

#[test]
fn a_saturated_refusal_uses_up_no_id() {
    let mut service =
        CappedService::spawn(ServiceConfig::new(config(16, 2, 0.0), 1, 7).with_ingress_capacity(2))
            .unwrap();
    let dispatcher = service.dispatcher();
    assert_eq!(dispatcher.submit().unwrap().id(), 0);
    assert_eq!(dispatcher.submit().unwrap().id(), 1);
    for _ in 0..5 {
        assert_eq!(dispatcher.submit(), Err(SubmitError::Saturated));
    }
    service.run_round();
    assert_eq!(dispatcher.submit().unwrap().id(), 2);
}

#[test]
fn resume_continues_ids_from_the_watermark() {
    let cfg = ServiceConfig::new(config(16, 2, 0.0), 2, 7);
    let mut service = CappedService::spawn(cfg.clone()).unwrap();
    let dispatcher = service.dispatcher();
    for _ in 0..3 {
        dispatcher.submit().unwrap();
    }
    service.run_round();
    // Queued but not admitted: issued, so behind the watermark, but not
    // checkpointed.
    for _ in 0..2 {
        dispatcher.submit().unwrap();
    }
    let bytes = service.checkpoint_bytes();
    let mut resumed = CappedService::resume(cfg, &bytes).unwrap();
    let fresh = resumed.dispatcher();
    assert_eq!(fresh.depth(), 0);
    assert_eq!(fresh.submit().unwrap().id(), 5);
    assert_eq!(resumed.run_round().generated, 1);
    assert_eq!(resumed.total_admitted(), 4);
}

#[test]
fn submits_to_a_dropped_service_are_closed() {
    let service = CappedService::spawn(ServiceConfig::new(config(16, 2, 0.0), 2, 7)).unwrap();
    let dispatcher = service.dispatcher();
    dispatcher.submit().unwrap();
    drop(service);
    assert_eq!(dispatcher.submit(), Err(SubmitError::Closed));
    assert_eq!(dispatcher.submit_blocking(), Err(SubmitError::Closed));
}

/// A service whose one-slot ingress is full, and a thread parked in
/// `submit_blocking` on it that reports its result.
fn parked_submitter(
    shards: usize,
) -> (
    CappedService,
    mpsc::Receiver<Result<Ticket, SubmitError>>,
    thread::JoinHandle<()>,
) {
    let service = CappedService::spawn(
        ServiceConfig::new(config(16, 2, 0.0), shards, 7).with_ingress_capacity(1),
    )
    .unwrap();
    let dispatcher = service.dispatcher();
    assert_eq!(dispatcher.submit().unwrap().id(), 0);
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || tx.send(dispatcher.submit_blocking()).unwrap());
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(50)),
        Err(mpsc::RecvTimeoutError::Timeout),
        "the queue is full, so the submitter parks"
    );
    (service, rx, handle)
}

#[test]
fn ingress_parked_submit_blocking_wakes_after_a_round_admits() {
    let (mut service, rx, handle) = parked_submitter(2);
    service.run_round();
    let ticket = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
    assert_eq!(ticket.id(), 1);
    handle.join().unwrap();
    assert_eq!(service.run_round().generated, 1);
}

#[test]
fn ingress_parked_submit_blocking_returns_closed_on_drop() {
    let (service, rx, handle) = parked_submitter(1);
    drop(service);
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(30)).unwrap(),
        Err(SubmitError::Closed)
    );
    handle.join().unwrap();
}

#[test]
fn ingress_admits_contiguous_ranges_under_concurrent_submitters() {
    const CAPACITY: usize = 256;
    const PER_THREAD: usize = 1500;
    let mut service = CappedService::spawn(
        ServiceConfig::new(config(128, 2, 0.0), 2, 11)
            .with_ingress_capacity(CAPACITY)
            .with_max_admit_per_round(Some(100)),
    )
    .unwrap();
    let completions = service.take_completions().unwrap();
    let finished = Arc::new(AtomicUsize::new(0));
    // Two submitters retry refusals, two park in `submit_blocking`.
    let submitters: Vec<_> = (0..4)
        .map(|k| {
            let dispatcher = service.dispatcher();
            let finished = Arc::clone(&finished);
            thread::spawn(move || {
                let mut ids = Vec::with_capacity(PER_THREAD);
                while ids.len() < PER_THREAD {
                    let result = if k % 2 == 0 {
                        dispatcher.submit()
                    } else {
                        dispatcher.submit_blocking()
                    };
                    match result {
                        Ok(ticket) => ids.push(ticket.id()),
                        Err(SubmitError::Saturated) => thread::yield_now(),
                        Err(SubmitError::Closed) => panic!("the service is running"),
                    }
                    assert!(dispatcher.depth() <= CAPACITY);
                }
                finished.fetch_add(1, Ordering::Release);
                ids
            })
        })
        .collect();

    let dispatcher = service.dispatcher();
    let mut generated = BTreeMap::new();
    let mut done: Vec<(u64, u64)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "a submitter stalled");
        let all_submitted = finished.load(Ordering::Acquire) == submitters.len();
        let depth = dispatcher.depth();
        assert!(depth <= CAPACITY);
        if all_submitted && depth == 0 && service.pending_tickets() == 0 {
            break;
        }
        let report = service.run_round();
        assert!(report.generated <= 100);
        generated.insert(report.round, report.generated);
        done.extend(
            completions
                .try_iter()
                .map(|c| (c.admitted_round, c.ticket.id())),
        );
    }
    let mut submitted: Vec<u64> = submitters
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    submitted.sort_unstable();
    assert_eq!(submitted, (0..4 * PER_THREAD as u64).collect::<Vec<_>>());

    // Every ticket completed once, and each round admitted one contiguous
    // id range, following the previous round's.
    done.sort_unstable_by_key(|&(_, id)| id);
    let ids: Vec<u64> = done.iter().map(|&(_, id)| id).collect();
    assert_eq!(ids, submitted, "every Ok ticket completes exactly once");
    assert!(
        done.windows(2).all(|w| w[0].0 <= w[1].0),
        "admission rounds follow id order"
    );
    let mut per_round: BTreeMap<u64, u64> = BTreeMap::new();
    for &(round, _) in &done {
        *per_round.entry(round).or_default() += 1;
    }
    for (round, count) in per_round {
        assert_eq!(generated[&round], count, "round {round}");
    }
    assert!(service.conserves_balls());
}
