//! End-to-end tests of the TCP front end: a real client socket against a
//! real listener — ticketed admission, streamed completions, explicit
//! saturation replies, the mid-run `GET /metrics` scrape plane, and
//! rejection of garbage connections.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "../../obs/tests/support/expo_parse.rs"]
mod expo_parse;

use iba_core::CappedConfig;
use iba_serve::proto::MAGIC;
use iba_serve::{
    run_net_loop, CappedService, ClientConfig, CloseReason, Frame, FrameDecoder, NetClient,
    NetFault, NetFaultPlan, NetFrontend, NetLoopOptions, NetStats, ServiceConfig,
};

const N: usize = 32;

fn spawn_service(ingress_capacity: usize) -> CappedService {
    CappedService::spawn(
        ServiceConfig::new(CappedConfig::new(N, 2, 0.0).expect("valid config"), 4, 7)
            .with_ingress_capacity(ingress_capacity),
    )
    .expect("valid service config")
}

fn connect_wire(addr: std::net::SocketAddr) -> TcpStream {
    let mut client = TcpStream::connect(addr).expect("connect");
    client.set_nodelay(true).expect("nodelay");
    client
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("read timeout");
    client.write_all(&MAGIC).expect("preface");
    client
}

/// Reads whatever is available into `decoder`; true if the peer closed.
/// A reset counts as closed: dropping a connection with unread bytes in
/// the socket surfaces as RST rather than FIN.
fn pump(client: &mut TcpStream, decoder: &mut FrameDecoder) -> bool {
    let mut buf = [0u8; 4096];
    match client.read(&mut buf) {
        Ok(0) => true,
        Ok(k) => {
            decoder.push(&buf[..k]);
            false
        }
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => false,
        Err(e) if e.kind() == ErrorKind::ConnectionReset => true,
        Err(e) => panic!("client read failed: {e}"),
    }
}

/// A full threaded round-trip: the server runs `run_net_loop` on its own
/// thread while a client submits requests and collects one `Accepted` and
/// one `Completed` per request.
#[test]
fn wire_clients_get_tickets_and_streamed_completions() {
    const REQUESTS: u64 = 200;
    let mut service = spawn_service(1 << 16);
    let completions = service.take_completions().expect("fresh service");
    let frontend = NetFrontend::bind("127.0.0.1:0").expect("bind loopback");
    let addr = frontend.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut service = service;
            let mut frontend = frontend;
            run_net_loop(
                &mut service,
                &mut frontend,
                &completions,
                &NetLoopOptions {
                    round_interval: Duration::from_micros(200),
                    ..NetLoopOptions::default()
                },
                &stop,
            );
            (service.total_admitted(), frontend.stats())
        })
    };

    let mut client = connect_wire(addr);
    let mut wire = Vec::new();
    for req_id in 0..REQUESTS {
        Frame::Alloc { req_id }.encode_into(&mut wire);
    }
    client.write_all(&wire).expect("submit batch");

    let mut decoder = FrameDecoder::new();
    let mut accepted = Vec::new();
    let mut completed = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while completed.len() < REQUESTS as usize {
        assert!(Instant::now() < deadline, "timed out awaiting completions");
        let eof = pump(&mut client, &mut decoder);
        assert!(!eof, "server dropped a well-behaved client");
        while let Some(frame) = decoder.next_frame().expect("well-formed stream") {
            match frame {
                Frame::Accepted { req_id, ticket } => accepted.push((req_id, ticket)),
                Frame::Completed {
                    ticket,
                    bin,
                    admitted_round,
                    served_round,
                    waiting_rounds,
                } => {
                    assert!(bin < N as u64);
                    assert_eq!(waiting_rounds, served_round - admitted_round);
                    completed.push(ticket);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    let (total_admitted, stats) = server.join().expect("server thread");

    assert_eq!(accepted.len(), REQUESTS as usize);
    // Every request was echoed exactly once, in submission order.
    let req_ids: Vec<u64> = accepted.iter().map(|&(r, _)| r).collect();
    assert_eq!(req_ids, (0..REQUESTS).collect::<Vec<u64>>());
    // Every ticket completed exactly once.
    let mut tickets: Vec<u64> = accepted.iter().map(|&(_, t)| t).collect();
    let mut done = completed.clone();
    tickets.sort_unstable();
    done.sort_unstable();
    assert_eq!(tickets, done);
    assert_eq!(total_admitted, REQUESTS);
    assert_eq!(stats.allocs_accepted, REQUESTS);
    assert_eq!(stats.allocs_saturated, 0);
    assert_eq!(stats.completions_sent, REQUESTS);
    assert_eq!(stats.proto_errors, 0);
}

/// Backpressure is explicit: with a tiny ingress queue and no rounds
/// draining it, excess requests get `Saturated` replies instead of
/// unbounded buffering.
#[test]
fn saturated_ingress_sheds_with_explicit_replies() {
    let service = spawn_service(2);
    let dispatcher = service.dispatcher();
    let mut frontend = NetFrontend::bind("127.0.0.1:0").expect("bind loopback");
    let mut client = connect_wire(frontend.local_addr());
    let mut wire = Vec::new();
    for req_id in 0..10 {
        Frame::Alloc { req_id }.encode_into(&mut wire);
    }
    client.write_all(&wire).expect("submit burst");

    let mut decoder = FrameDecoder::new();
    let mut accepted = 0;
    let mut saturated = 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    while accepted + saturated < 10 {
        assert!(Instant::now() < deadline, "timed out awaiting replies");
        frontend.poll(&dispatcher);
        pump(&mut client, &mut decoder);
        while let Some(frame) = decoder.next_frame().expect("well-formed stream") {
            match frame {
                Frame::Accepted { .. } => accepted += 1,
                Frame::Saturated { .. } => saturated += 1,
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    assert_eq!(accepted, 2, "ingress capacity bounds admissions");
    assert_eq!(saturated, 8, "excess requests are shed, not buffered");
    assert_eq!(frontend.stats().allocs_saturated, 8);
}

/// The scrape plane: `GET /metrics` on the same listener answers with
/// exposition the strict test-support parser accepts, mid-run, and
/// successive scrapes observe advancing (non-stale) counters.
#[test]
fn metrics_scrape_mid_run_parses_strictly_and_is_not_stale() {
    iba_obs::set_enabled(true);
    let mut service = spawn_service(1 << 16);
    let dispatcher = service.dispatcher();
    let mut frontend = NetFrontend::bind("127.0.0.1:0").expect("bind loopback");
    let addr = frontend.local_addr();

    // A wire client keeps traffic flowing while we scrape.
    let mut wire_client = connect_wire(addr);
    let mut decoder = FrameDecoder::new();
    let submit_and_round = |frontend: &mut NetFrontend,
                            service: &mut CappedService,
                            wire_client: &mut TcpStream,
                            decoder: &mut FrameDecoder,
                            base: u64| {
        let mut wire = Vec::new();
        for req_id in base..base + 8 {
            Frame::Alloc { req_id }.encode_into(&mut wire);
        }
        wire_client.write_all(&wire).expect("submit");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            assert!(Instant::now() < deadline, "timed out");
            frontend.poll(&dispatcher);
            pump(wire_client, decoder);
            let mut seen = 0;
            while decoder.next_frame().expect("well-formed").is_some() {
                seen += 1;
            }
            if seen > 0 {
                break;
            }
        }
        service.run_round();
    };

    submit_and_round(
        &mut frontend,
        &mut service,
        &mut wire_client,
        &mut decoder,
        0,
    );
    let first = scrape(addr, || {
        frontend.poll(&dispatcher);
    });
    submit_and_round(
        &mut frontend,
        &mut service,
        &mut wire_client,
        &mut decoder,
        100,
    );
    let second = scrape(addr, || {
        frontend.poll(&dispatcher);
    });

    for expo in [&first, &second] {
        assert_eq!(
            expo.families.get("iba_serve_pool_size").map(String::as_str),
            Some("gauge"),
            "pool gauge present"
        );
        assert!(
            expo.value("iba_serve_net_connections").is_some(),
            "net connection gauge present"
        );
        assert!(
            expo.value("iba_serve_net_frames_total").is_some(),
            "net frame counter present"
        );
        assert_eq!(
            expo.families
                .get("iba_serve_tickets_expired_total")
                .map(String::as_str),
            Some("counter"),
            "ticket-TTL reap counter exposed"
        );
        assert!(
            expo.value("iba_serve_tickets_expired_total").is_some(),
            "ticket-TTL reap counter has a sample"
        );
        assert_eq!(
            expo.families.get("iba_serve_bins").map(String::as_str),
            Some("gauge"),
            "live bin count gauge exposed"
        );
    }
    let frames_first = first.value("iba_serve_net_frames_total").unwrap();
    let frames_second = second.value("iba_serve_net_frames_total").unwrap();
    assert!(
        frames_second > frames_first,
        "scrape is live, not a stale snapshot: {frames_first} -> {frames_second}"
    );
    assert_eq!(frontend.stats().scrapes, 2);
}

/// Performs one HTTP scrape of `addr` and returns the strictly parsed
/// exposition. `poll` runs between reads: it pumps the front end when
/// the test drives it inline, and does nothing when a server thread
/// runs the loop.
fn scrape(addr: std::net::SocketAddr, mut poll: impl FnMut()) -> expo_parse::Exposition {
    let mut http = TcpStream::connect(addr).expect("connect scraper");
    http.set_read_timeout(Some(Duration::from_millis(5)))
        .expect("read timeout");
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: iba\r\n\r\n")
        .expect("request");
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "scrape timed out");
        poll();
        match http.read(&mut buf) {
            Ok(0) => break, // Connection: close
            Ok(k) => response.extend_from_slice(&buf[..k]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => panic!("scrape read failed: {e}"),
        }
    }
    let text = String::from_utf8(response).expect("utf8 response");
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    let body = expo_parse::http_body(&text).expect("header terminator");
    expo_parse::parse(body).expect("strict exposition parse")
}

/// Non-protocol, non-HTTP connections are dropped, and a 404 comes back
/// for unknown HTTP paths.
#[test]
fn garbage_preface_is_dropped_and_unknown_paths_get_404() {
    let service = spawn_service(16);
    let dispatcher = service.dispatcher();
    let mut frontend = NetFrontend::bind("127.0.0.1:0").expect("bind loopback");
    let addr = frontend.local_addr();

    let mut garbage = TcpStream::connect(addr).expect("connect");
    garbage
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("read timeout");
    garbage.write_all(b"XXXXXXXX").expect("garbage");
    let mut http = TcpStream::connect(addr).expect("connect");
    http.set_read_timeout(Some(Duration::from_millis(5)))
        .expect("read timeout");
    http.write_all(b"GET /nope HTTP/1.1\r\n\r\n")
        .expect("request");

    let mut buf = [0u8; 4096];
    let mut not_found = Vec::new();
    let mut garbage_closed = false;
    let mut http_closed = false;
    let deadline = Instant::now() + Duration::from_secs(30);
    while !(garbage_closed && http_closed) {
        assert!(Instant::now() < deadline, "timed out");
        frontend.poll(&dispatcher);
        if !garbage_closed {
            match garbage.read(&mut buf) {
                Ok(0) => garbage_closed = true,
                Ok(_) => panic!("garbage connection should get no reply"),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => garbage_closed = true, // reset also counts as dropped
            }
        }
        if !http_closed {
            match http.read(&mut buf) {
                Ok(0) => http_closed = true,
                Ok(k) => not_found.extend_from_slice(&buf[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => panic!("http read failed: {e}"),
            }
        }
    }
    let text = String::from_utf8(not_found).expect("utf8");
    assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
    assert_eq!(frontend.stats().proto_errors, 1);
    assert_eq!(frontend.connections(), 0);
    assert_eq!(
        frontend.stats(),
        NetStats {
            accepted_conns: 2,
            proto_errors: 1,
            ..NetStats::default()
        }
    );
}

/// Decodes every complete frame currently buffered in `decoder`.
fn decoded(decoder: &mut FrameDecoder) -> Vec<Frame> {
    let mut frames = Vec::new();
    while let Some(f) = decoder.next_frame().expect("well-formed stream") {
        frames.push(f);
    }
    frames
}

/// An injected partial-write budget throttles replies to a few bytes per
/// poll: the client still receives every frame intact, it just takes many
/// polls — proving flush correctly resumes mid-frame.
#[test]
fn partial_write_fault_slows_but_never_corrupts_replies() {
    const REQUESTS: u64 = 4;
    const BUDGET: usize = 3;
    let service = spawn_service(1 << 10);
    let dispatcher = service.dispatcher();
    let mut frontend = NetFrontend::bind("127.0.0.1:0").expect("bind loopback");
    frontend.arm_faults(
        NetFaultPlan::new().with(
            1,
            NetFault::PartialWrites {
                max_bytes: BUDGET as u32,
                rounds: 1_000,
            },
        ),
        11,
    );
    let mut client = connect_wire(frontend.local_addr());
    let deadline = Instant::now() + Duration::from_secs(30);
    while frontend.connections() < 1 {
        assert!(Instant::now() < deadline, "accept timed out");
        frontend.poll(&dispatcher);
    }
    frontend.on_round(1);

    let mut wire = Vec::new();
    for req_id in 0..REQUESTS {
        Frame::Alloc { req_id }.encode_into(&mut wire);
    }
    client.write_all(&wire).expect("submit");

    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut polls = 0u64;
    while frames.len() < REQUESTS as usize {
        assert!(Instant::now() < deadline, "timed out under partial writes");
        frontend.poll(&dispatcher);
        polls += 1;
        pump(&mut client, &mut decoder);
        frames.extend(decoded(&mut decoder));
    }
    for (i, frame) in frames.iter().enumerate() {
        assert!(
            matches!(frame, Frame::Accepted { req_id, .. } if *req_id == i as u64),
            "intact in-order reply, got {frame:?}"
        );
    }
    // Each reply frame is 21 bytes on the wire; at BUDGET bytes per poll
    // the budget provably constrained delivery.
    let total_bytes = REQUESTS * 21;
    assert!(
        polls >= total_bytes / BUDGET as u64,
        "budget must throttle: {polls} polls for {total_bytes} bytes"
    );
    assert!(frontend.stats().faults_injected >= 1);
}

/// Injected garbage poisons exactly the victim connection — it is dropped
/// as a protocol error — while the bystander connection keeps working.
#[test]
fn injected_garbage_kills_only_the_victim_connection() {
    let service = spawn_service(1 << 10);
    let dispatcher = service.dispatcher();
    let mut frontend = NetFrontend::bind("127.0.0.1:0").expect("bind loopback");
    frontend.arm_faults(
        NetFaultPlan::new().with(
            1,
            NetFault::InjectGarbage {
                conns: 1,
                bytes: 64,
            },
        ),
        3,
    );
    let mut a = connect_wire(frontend.local_addr());
    let mut b = connect_wire(frontend.local_addr());
    let deadline = Instant::now() + Duration::from_secs(30);
    while frontend.connections() < 2 {
        assert!(Instant::now() < deadline, "accept timed out");
        frontend.poll(&dispatcher);
    }
    frontend.on_round(1); // injects 64 garbage bytes into one victim

    let mut eof = [false; 2];
    let mut accepted = [0u32; 2];
    let mut decoders = [FrameDecoder::new(), FrameDecoder::new()];
    a.write_all(&Frame::Alloc { req_id: 1 }.encode()).unwrap();
    b.write_all(&Frame::Alloc { req_id: 2 }.encode()).unwrap();
    while accepted.iter().sum::<u32>() < 1 || !eof.iter().any(|&e| e) {
        assert!(Instant::now() < deadline, "timed out");
        frontend.poll(&dispatcher);
        for (i, client) in [&mut a, &mut b].into_iter().enumerate() {
            if eof[i] {
                continue;
            }
            eof[i] = pump(client, &mut decoders[i]);
            if !eof[i] {
                accepted[i] += decoded(&mut decoders[i])
                    .iter()
                    .filter(|f| matches!(f, Frame::Accepted { .. }))
                    .count() as u32;
            }
        }
    }
    assert_eq!(eof.iter().filter(|&&e| e).count(), 1, "exactly one victim");
    assert_eq!(accepted.iter().sum::<u32>(), 1, "survivor got its ticket");
    assert_eq!(frontend.connections(), 1);
    assert_eq!(
        frontend.stats().proto_errors,
        1,
        "garbage reads as proto error"
    );
}

/// A read stall defers ingest for exactly the scheduled number of rounds,
/// then the buffered request is processed — nothing is lost.
#[test]
fn read_stall_defers_requests_until_release() {
    let service = spawn_service(1 << 10);
    let dispatcher = service.dispatcher();
    let mut frontend = NetFrontend::bind("127.0.0.1:0").expect("bind loopback");
    frontend.arm_faults(
        NetFaultPlan::new().with(
            1,
            NetFault::StallReads {
                conns: 1,
                rounds: 2,
            },
        ),
        5,
    );
    let mut client = connect_wire(frontend.local_addr());
    let deadline = Instant::now() + Duration::from_secs(30);
    while frontend.connections() < 1 {
        assert!(Instant::now() < deadline, "accept timed out");
        frontend.poll(&dispatcher);
    }
    frontend.on_round(1);
    client
        .write_all(&Frame::Alloc { req_id: 9 }.encode())
        .unwrap();
    // Give the bytes time to land in the socket, then poll under stall:
    // nothing must come back during rounds 1 and 2.
    std::thread::sleep(Duration::from_millis(20));
    let mut decoder = FrameDecoder::new();
    for round in [1, 2] {
        frontend.on_round(round);
        for _ in 0..10 {
            frontend.poll(&dispatcher);
            pump(&mut client, &mut decoder);
        }
        assert!(decoded(&mut decoder).is_empty(), "stalled in round {round}");
    }
    frontend.on_round(3); // stall expires
    let mut frames = Vec::new();
    while frames.is_empty() {
        assert!(Instant::now() < deadline, "timed out after stall release");
        frontend.poll(&dispatcher);
        pump(&mut client, &mut decoder);
        frames = decoded(&mut decoder);
    }
    assert!(matches!(frames[0], Frame::Accepted { req_id: 9, .. }));
    assert!(frontend.stats().faults_injected >= 1);
}

/// Drain mode: in-flight tickets finish and stream their completions, new
/// work is refused with `Closed(Drain)`, and the front end reports
/// `drained()` once the last ticket resolves.
#[test]
fn drain_finishes_old_work_and_refuses_new() {
    let mut service = spawn_service(1 << 10);
    let completions = service.take_completions().expect("fresh service");
    let dispatcher = service.dispatcher();
    let mut frontend = NetFrontend::bind("127.0.0.1:0").expect("bind loopback");
    let mut client = connect_wire(frontend.local_addr());
    let deadline = Instant::now() + Duration::from_secs(30);
    while frontend.connections() < 1 {
        assert!(Instant::now() < deadline, "accept timed out");
        frontend.poll(&dispatcher);
    }
    frontend.on_round(1);
    let mut wire = Vec::new();
    for req_id in 0..2 {
        Frame::Alloc { req_id }.encode_into(&mut wire);
    }
    client.write_all(&wire).expect("submit");
    let mut decoder = FrameDecoder::new();
    let mut accepted = 0;
    while accepted < 2 {
        assert!(Instant::now() < deadline, "timed out");
        frontend.poll(&dispatcher);
        pump(&mut client, &mut decoder);
        accepted += decoded(&mut decoder)
            .iter()
            .filter(|f| matches!(f, Frame::Accepted { .. }))
            .count();
    }

    frontend.begin_drain();
    assert!(frontend.is_draining());
    assert!(!frontend.drained(), "two tickets still in flight");
    client
        .write_all(&Frame::Alloc { req_id: 99 }.encode())
        .unwrap();
    let mut refused = Vec::new();
    while refused.is_empty() {
        assert!(Instant::now() < deadline, "timed out");
        frontend.poll(&dispatcher);
        pump(&mut client, &mut decoder);
        refused = decoded(&mut decoder);
    }
    assert_eq!(
        refused[0],
        Frame::Closed {
            req_id: 99,
            reason: CloseReason::Drain
        }
    );
    assert_eq!(frontend.stats().allocs_drained, 1);

    // Let the service finish the admitted work; completions resolve the
    // outstanding tickets and the front end reports fully drained.
    let mut resolved = 0;
    while resolved < 2 {
        assert!(Instant::now() < deadline, "timed out draining");
        service.run_round();
        while let Ok(c) = completions.try_recv() {
            frontend.notify(&c);
            resolved += 1;
        }
        frontend.poll(&dispatcher);
    }
    assert!(frontend.drained(), "all tickets resolved and flushed");
}

/// The robust client against a live serve loop: every submission lands a
/// distinct ticket, all completions stream back, and stopping with
/// `drain_on_stop` leaves the front end drained.
#[test]
fn net_client_round_trips_against_a_live_loop() {
    const REQUESTS: usize = 30;
    let mut service = spawn_service(1 << 16);
    let completions = service.take_completions().expect("fresh service");
    let frontend = NetFrontend::bind("127.0.0.1:0").expect("bind loopback");
    let addr = frontend.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut service = service;
            let mut frontend = frontend;
            let summary = run_net_loop(
                &mut service,
                &mut frontend,
                &completions,
                &NetLoopOptions {
                    round_interval: Duration::from_micros(200),
                    drain_on_stop: true,
                    ..NetLoopOptions::default()
                },
                &stop,
            );
            (summary, frontend.drained())
        })
    };

    let mut client = NetClient::new(ClientConfig::new(addr).with_seed(5));
    let mut tickets = Vec::new();
    for _ in 0..REQUESTS {
        tickets.push(client.submit().expect("submission within deadline"));
    }
    tickets.sort_unstable();
    tickets.dedup();
    assert_eq!(tickets.len(), REQUESTS, "tickets are distinct");

    let mut events = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while events.len() < REQUESTS {
        assert!(Instant::now() < deadline, "timed out awaiting completions");
        client.pump_completions(Duration::from_millis(5));
        events.extend(client.take_completions());
    }
    for e in &events {
        assert_eq!(e.waiting_rounds, e.served_round - e.admitted_round);
        assert!(tickets.binary_search(&e.ticket).is_ok());
    }
    stop.store(true, Ordering::Relaxed);
    let (summary, drained) = server.join().expect("server thread");
    assert!(drained, "drain_on_stop left no unresolved tickets");
    assert!(
        summary.idle_polls > 0,
        "idle polls were detected and counted"
    );

    let stats = client.stats();
    assert_eq!(stats.submitted, REQUESTS as u64);
    assert_eq!(stats.accepted, REQUESTS as u64);
    assert_eq!(stats.completed, REQUESTS as u64);
    assert_eq!(stats.duplicate_accepts, 0);
    assert_eq!(stats.deadline_expired, 0);
}

/// Hard backpressure propagates end-to-end: with a 1-slot ingress queue
/// and a 2-ms round interval, a submission sent right after an acceptance
/// finds the queue full and gets `Saturated` until the next round admits,
/// so the client retries, yet every submission eventually lands.
#[test]
fn net_client_retries_through_backpressure() {
    const REQUESTS: usize = 5;
    let mut service = spawn_service(1);
    let completions = service.take_completions().expect("fresh service");
    let frontend = NetFrontend::bind("127.0.0.1:0").expect("bind loopback");
    let addr = frontend.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut service = service;
            let mut frontend = frontend;
            run_net_loop(
                &mut service,
                &mut frontend,
                &completions,
                &NetLoopOptions {
                    round_interval: Duration::from_millis(2),
                    ..NetLoopOptions::default()
                },
                &stop,
            );
            frontend.stats()
        })
    };

    let mut client = NetClient::new(
        ClientConfig::new(addr)
            .with_seed(6)
            .with_deadline(Duration::from_secs(10))
            .with_backoff(Duration::from_micros(500), Duration::from_millis(4)),
    );
    for _ in 0..REQUESTS {
        client.submit().expect("retries ride out the backpressure");
    }
    stop.store(true, Ordering::Relaxed);
    let stats = server.join().expect("server thread");

    let cs = client.stats();
    assert_eq!(cs.accepted, REQUESTS as u64);
    assert!(
        cs.saturated >= 1,
        "a 1-slot ingress queue must refuse at least one back-to-back submission"
    );
    assert!(cs.retries >= cs.saturated);
    // Every attempt resolved as either an acceptance or a saturation
    // refusal, and the server's ledger of refusals matches the client's.
    assert_eq!(cs.attempts, cs.accepted + cs.saturated);
    assert_eq!(stats.allocs_saturated, cs.saturated);
}

/// Parks until `progress` reaches `target` submissions, so the test's
/// events land relative to traffic rather than to wall-clock time.
fn await_submissions(progress: &AtomicU64, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while progress.load(Ordering::Relaxed) < target {
        assert!(
            Instant::now() < deadline,
            "fleet stalled at {}/{target} submissions",
            progress.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A live crash-restart behind a front end that stays up. A closed-loop
/// `NetClient` fleet submits through the listener while model arrivals
/// keep balls in the bins. At a quarter of the fleet's submissions the
/// server arms a socket fault plan; at half it checkpoints the service,
/// shuts it down, stays down briefly and resumes from the bytes,
/// while the listener and its connections survive. Every submission must
/// still land, the armed faults must fire, the resumed service must
/// conserve balls, and a scrape after recovery must parse strictly and
/// show the resume.
#[test]
fn crash_restart_behind_a_live_front_end_conserves_balls() {
    const CLIENTS: u64 = 2;
    const PER_CLIENT: u64 = 150;
    const TOTAL: u64 = CLIENTS * PER_CLIENT;
    iba_obs::set_enabled(true);
    let config = ServiceConfig::new(CappedConfig::new(64, 2, 0.5).expect("valid config"), 2, 7)
        .with_model_arrivals(true)
        .with_ingress_capacity(1 << 16);
    let mut service = CappedService::spawn(config.clone()).expect("valid service config");
    let completions = service.take_completions().expect("fresh service");
    let frontend = NetFrontend::bind("127.0.0.1:0").expect("bind loopback");
    let addr = frontend.local_addr();
    let arm = Arc::new(AtomicBool::new(false));
    let crash = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let (arm, crash, stop) = (Arc::clone(&arm), Arc::clone(&crash), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut frontend = frontend;
            let opts = NetLoopOptions {
                round_interval: Duration::from_micros(400),
                ..NetLoopOptions::default()
            };
            run_net_loop(&mut service, &mut frontend, &completions, &opts, &arm);
            // Every fault fires on the first round after arming, before
            // any poll of that round: the fleet is mid-traffic by
            // construction, and the scraper connects only after the fleet
            // is done, so no fault can pick it as a victim.
            let faults = NetFaultPlan::new()
                .with(
                    1,
                    NetFault::PartialWrites {
                        max_bytes: 64,
                        rounds: 20,
                    },
                )
                .with(
                    1,
                    NetFault::StallReads {
                        conns: 1,
                        rounds: 5,
                    },
                )
                .with(
                    1,
                    NetFault::StallWrites {
                        conns: 1,
                        rounds: 5,
                    },
                )
                .with(
                    1,
                    NetFault::InjectGarbage {
                        conns: 1,
                        bytes: 32,
                    },
                )
                .with(1, NetFault::DropConns { conns: 1 });
            frontend.arm_faults(faults.shifted(service.round()), 7);
            run_net_loop(&mut service, &mut frontend, &completions, &opts, &crash);

            let in_flight = service.pool_size() as u64 + service.buffered();
            let bytes = service.checkpoint_bytes();
            service.shutdown();
            std::thread::sleep(Duration::from_millis(20));
            let mut resumed = CappedService::resume(config, &bytes).expect("resume");
            let completions = resumed.take_completions().expect("resumed service");
            run_net_loop(&mut resumed, &mut frontend, &completions, &opts, &stop);
            (in_flight, resumed.conserves_balls(), frontend.stats())
        })
    };

    let progress = Arc::new(AtomicU64::new(0));
    let fleet: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                let mut client = NetClient::new(
                    ClientConfig::new(addr)
                        .with_seed(100 + i)
                        .with_deadline(Duration::from_secs(5))
                        .with_backoff(Duration::from_micros(500), Duration::from_millis(20)),
                );
                let mut failures = Vec::new();
                for _ in 0..PER_CLIENT {
                    if let Err(e) = client.submit() {
                        failures.push(e.to_string());
                    }
                    progress.fetch_add(1, Ordering::Relaxed);
                    client.pump_completions(Duration::ZERO);
                }
                (failures, client.stats())
            })
        })
        .collect();
    await_submissions(&progress, TOTAL / 4);
    arm.store(true, Ordering::Relaxed);
    await_submissions(&progress, TOTAL / 2);
    crash.store(true, Ordering::Relaxed);
    let mut accepted = 0;
    for client in fleet {
        let (failures, stats) = client.join().expect("client thread");
        assert!(failures.is_empty(), "submissions failed: {failures:?}");
        accepted += stats.accepted;
    }
    assert_eq!(accepted, TOTAL, "every submission landed");

    let after = scrape(addr, || {});
    assert!(
        after
            .value("iba_serve_checkpoint_resumes_total")
            .is_some_and(|v| v >= 1.0),
        "the scrape after recovery shows the resume"
    );
    stop.store(true, Ordering::Relaxed);
    let (in_flight, conserved, stats) = server.join().expect("server thread");
    assert!(in_flight > 0, "the crash caught balls in flight");
    assert!(conserved, "the resumed service conserves balls");
    assert!(stats.faults_injected > 0, "the armed fault plan fired");
}
