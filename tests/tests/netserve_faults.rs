//! Fault injection against the network scoring service: misbehaving
//! clients — slow-loris drips, half-closed sockets, mid-request
//! disconnects — must be reaped or served without blocking the batcher,
//! wedging a worker, or leaking an in-flight admission permit.
//!
//! The permit invariant is the load-bearing one: the scorer releases the
//! permit after `ScoringEngine::score` returns whether or not the
//! connection survived, so `in_flight` must always drain back to zero and
//! capacity must be fully recoverable after arbitrary disconnect abuse.
//!
//! The last two tests pin the workers' wake protocol: a worker blocked in
//! `poll(2)` is woken by every score handed back to it and by shutdown,
//! so neither a request nor `shutdown` waits on a connection deadline.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use xfraud::datagen::{Dataset, DatasetPreset};
use xfraud::gnn::{CommunitySampler, DetectorConfig, XFraudDetector};
use xfraud::hetgraph::NodeId;
use xfraud::netserve::{
    http, proto, NetServer, ScoreClient, ScoreOutcome, ScoreRequest, ServerConfig,
};
use xfraud::serve::ScoringEngine;

fn engine() -> (Arc<ScoringEngine>, Vec<NodeId>) {
    let g = Dataset::generate(DatasetPreset::EbaySmallSim, 23).graph;
    let detector = XFraudDetector::new(DetectorConfig::small(g.feature_dim(), 5));
    let txns: Vec<NodeId> = g
        .labeled_txns()
        .into_iter()
        .map(|(v, _)| v)
        .take(8)
        .collect();
    let engine = ScoringEngine::builder(detector, g, Box::new(CommunitySampler::new(300)))
        .seed(11)
        .build()
        .expect("engine builds");
    (Arc::new(engine), txns)
}

fn fault_cfg() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(500),
        idle_timeout: Duration::from_secs(5),
        shutdown_grace: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

fn score_request_bytes(ids: &[NodeId]) -> Vec<u8> {
    let body = proto::encode_score_request(&ScoreRequest {
        tenant: "faults".into(),
        ids: ids.to_vec(),
    });
    let mut req = format!(
        "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(&body);
    req
}

fn raw_connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connects");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    s
}

/// Reads until EOF (or read-timeout), returning whatever arrived.
fn read_to_close(s: &mut TcpStream) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match s.read(&mut chunk) {
            Ok(0) | Err(_) => return buf,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

fn status_of(response: &[u8]) -> Option<u16> {
    http::parse_response_head(response)
        .ok()
        .flatten()
        .map(|h| h.status)
}

/// Polls the in-flight gauge down to zero; panics if it never drains.
fn await_drain(server: &NetServer) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.metrics().in_flight == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "in-flight permits never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls until every abusive connection is gone *and* the permit gauge is
/// zero. `in_flight` alone is not enough: a just-accepted connection whose
/// request has not been parsed yet holds no permit but will dispatch one
/// later.
fn await_quiet(server: &NetServer, accepted: u64, live_clients: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = server.metrics();
        // `conns_accepted` first: a connection sitting in the listen
        // backlog is invisible to the other gauges until adopted.
        if m.conns_accepted >= accepted && m.active_conns <= live_clients && m.in_flight == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "connections never settled: {m:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Two slow-loris connections (one stalled mid-head, one mid-body) are
/// reaped on the read deadline with a `408`, while a well-behaved client
/// on the same server keeps scoring throughout.
#[test]
fn slow_loris_is_reaped_while_good_clients_progress() {
    let (eng, txns) = engine();
    let server = NetServer::start(eng, fault_cfg()).expect("server starts");
    let addr = server.local_addr();

    let mut loris_head = raw_connect(addr);
    loris_head
        .write_all(b"POST /sco")
        .expect("drips a partial request line");

    let full = score_request_bytes(&txns[..2]);
    let mut loris_body = raw_connect(addr);
    // Head complete, body one byte short of Content-Length, then silence.
    loris_body
        .write_all(&full[..full.len() - 1])
        .expect("drips a partial body");

    // The good citizen completes several requests while the drips stall.
    let mut client = ScoreClient::connect(addr, Duration::from_secs(10)).expect("connects");
    for _ in 0..3 {
        assert!(matches!(
            client.score("good", &txns[..2]).expect("score succeeds"),
            ScoreOutcome::Scores(_)
        ));
    }

    // Outlive the 300ms read deadline with margin; the reaper answers 408
    // and closes (or, for a never-started request, closes silently).
    std::thread::sleep(Duration::from_millis(900));
    let head_answer = read_to_close(&mut loris_head);
    let body_answer = read_to_close(&mut loris_body);
    for answer in [&head_answer, &body_answer] {
        if let Some(status) = status_of(answer) {
            assert_eq!(status, 408, "a stalled started request gets 408");
        } else {
            assert!(
                answer.is_empty(),
                "non-HTTP bytes from the reaper: {answer:?}"
            );
        }
    }

    await_drain(&server);
    let m = server.metrics();
    assert!(
        m.timeouts_408 >= 1,
        "read-deadline reap must count a 408: {m:?}"
    );
    assert_eq!(m.responses_5xx, 0);
    // The good client's connection is still alive after the reaping.
    assert!(matches!(
        client.score("good", &txns[..1]).expect("still serving"),
        ScoreOutcome::Scores(_)
    ));
    server.shutdown();
}

/// A client that half-closes (FIN on its write side) after a complete
/// request still receives its full response: EOF mid-stream is not an
/// abort when the request was already framed.
#[test]
fn half_closed_connection_still_gets_its_response() {
    let (eng, txns) = engine();
    let direct = eng.score(&txns[..3]).expect("direct scores");
    let server = NetServer::start(eng, fault_cfg()).expect("server starts");

    let mut s = raw_connect(server.local_addr());
    s.write_all(&score_request_bytes(&txns[..3]))
        .expect("writes request");
    s.shutdown(Shutdown::Write).expect("half-close");

    let answer = read_to_close(&mut s);
    let head = http::parse_response_head(&answer)
        .expect("well-formed response")
        .expect("complete response head");
    assert_eq!(head.status, 200, "half-closed request is still served");
    let body = &answer[head.head_len..head.head_len + head.content_length];
    let scores = proto::decode_score_response(body)
        .expect("score body")
        .scores;
    let got: Vec<u32> = scores.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> = direct.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "half-close must not corrupt the response");

    await_drain(&server);
    server.shutdown();
}

/// Mid-request disconnects — sockets dropped right after dispatch, and
/// sockets dropped mid-body — never leak permits: with `max_inflight = 2`,
/// twelve abusive connections later the gauge drains to zero and a real
/// client still gets scores (leaked permits would mean permanent 503s).
#[test]
fn disconnects_never_leak_inflight_permits() {
    let (eng, txns) = engine();
    let cfg = ServerConfig {
        max_inflight: 2,
        score_threads: 2,
        ..fault_cfg()
    };
    let server = NetServer::start(eng, cfg).expect("server starts");
    let addr = server.local_addr();

    for round in 0..12 {
        let full = score_request_bytes(&txns[..4]);
        let mut s = raw_connect(addr);
        if round % 2 == 0 {
            // Complete request, vanish before the response.
            s.write_all(&full).expect("writes request");
        } else {
            // Vanish mid-body: the request never dispatches.
            s.write_all(&full[..full.len() / 2]).expect("writes half");
        }
        drop(s);
    }

    // Every abusive connection must be torn down — reaped or EOF-closed —
    // and every permit it ever acquired returned, before the survivor runs
    // against an otherwise-idle server.
    await_quiet(&server, 12, 0);
    let mut client = ScoreClient::connect(addr, Duration::from_secs(10)).expect("connects");
    for _ in 0..4 {
        match client
            .score("survivor", &txns[..2])
            .expect("request succeeds")
        {
            ScoreOutcome::Scores(s) => assert_eq!(s.len(), 2),
            ScoreOutcome::Rejected { status, error } => {
                panic!("capacity leaked: {status} {error} ({:?})", server.metrics())
            }
        }
    }
    let m = server.metrics();
    assert_eq!(m.in_flight, 0, "permits must fully drain: {m:?}");
    assert_eq!(m.responses_5xx, 0);
    server.shutdown();
}

/// Every hand-off to a worker wakes it. With read and idle deadlines a
/// minute out, a worker that missed the wake for a score (or for the new
/// connection) would sit blocked until a deadline and fail the client's
/// 2 s timeout; 200 back-to-back requests give every interleaving of the
/// scorer's send against the worker's sweep-then-wait many chances.
#[test]
fn back_to_back_requests_never_wait_on_a_lost_wake() {
    let (eng, txns) = engine();
    let cfg = ServerConfig {
        read_timeout: Duration::from_secs(60),
        idle_timeout: Duration::from_secs(60),
        ..fault_cfg()
    };
    let server = NetServer::start(eng, cfg).expect("server starts");
    let mut client =
        ScoreClient::connect(server.local_addr(), Duration::from_secs(2)).expect("connects");
    for i in 0..200 {
        let ids = &txns[i % txns.len()..];
        match client.score("wake", ids) {
            Ok(ScoreOutcome::Scores(s)) => assert_eq!(s.len(), ids.len()),
            other => panic!("request {i} stalled or failed: {other:?}"),
        }
    }
    server.shutdown();
}

/// Shutdown wakes the crew: with an idle keep-alive connection open (its
/// idle deadline 30 s away) and the acceptor waiting on an empty listener,
/// `shutdown` still returns promptly.
#[test]
fn shutdown_with_an_idle_keep_alive_returns_promptly() {
    let (eng, txns) = engine();
    let cfg = ServerConfig {
        idle_timeout: Duration::from_secs(30),
        ..fault_cfg()
    };
    let server = NetServer::start(eng, cfg).expect("server starts");
    let mut client =
        ScoreClient::connect(server.local_addr(), Duration::from_secs(5)).expect("connects");
    assert!(matches!(
        client.score("idle", &txns[..2]).expect("score succeeds"),
        ScoreOutcome::Scores(_)
    ));
    // Let every thread block, then shut down on another thread, so that a
    // missed wake fails the test instead of hanging it (a worker with no
    // connections has no deadline at all).
    std::thread::sleep(Duration::from_millis(50));
    let (done_tx, done_rx) = mpsc::channel();
    let h = std::thread::spawn(move || {
        server.shutdown();
        done_tx.send(()).expect("test thread waits");
    });
    done_rx
        .recv_timeout(Duration::from_millis(500))
        .expect("shutdown returns within 500 ms with an idle connection open");
    h.join().expect("shutdown thread");
}
