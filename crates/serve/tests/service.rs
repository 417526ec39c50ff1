//! The service's public surface: spawn validation, rounds and ticket
//! completions (each served ball takes the longest-waiting ticket of its
//! label), admission caps and backpressure, scheduled faults, checkpoint
//! resume (across shard counts, with pending tickets, and against hostile
//! envelopes), ticket TTL reaping, shutdown, and the fault telemetry a
//! service run records.

use std::collections::BTreeMap;

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
    assert_eq!(snap.shard_max_load.len(), 4);
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
