//! An idle network scoring service must not burn CPU: its threads block on
//! socket readiness and wake sockets, not on a timer. With one idle
//! keep-alive connection and one slow-loris connection stalled mid-head
//! (its read deadline still in the future), the server's threads together
//! may use at most 1 % of a core — and the stalled connection must still
//! get its `408` on its deadline, which shows the wait's timeout tracks
//! connection deadlines rather than sleeping past them.
//!
//! CPU is counted per thread from `/proc/self/task/*/stat`, summing only
//! threads named `netserve-…`, so the rest of the test process does not
//! count. This file holds a single test so that no other server shares
//! the process while it measures. Linux-only, like the `/proc` it reads.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xfraud::datagen::{Dataset, DatasetPreset};
use xfraud::gnn::{CommunitySampler, DetectorConfig, XFraudDetector};
use xfraud::hetgraph::NodeId;
use xfraud::netserve::{http, NetServer, ScoreClient, ScoreOutcome, ServerConfig};
use xfraud::serve::ScoringEngine;

/// `/proc` reports CPU time in `USER_HZ` ticks, fixed at 100 on Linux.
const TICKS_PER_S: f64 = 100.0;

fn engine() -> (Arc<ScoringEngine>, Vec<NodeId>) {
    let g = Dataset::generate(DatasetPreset::EbaySmallSim, 23).graph;
    let detector = XFraudDetector::new(DetectorConfig::small(g.feature_dim(), 5));
    let txns: Vec<NodeId> = g
        .labeled_txns()
        .into_iter()
        .map(|(v, _)| v)
        .take(4)
        .collect();
    let engine = ScoringEngine::builder(detector, g, Box::new(CommunitySampler::new(300)))
        .seed(11)
        .build()
        .expect("engine builds");
    (Arc::new(engine), txns)
}

/// `utime + stime` ticks summed over this process's `netserve-…` threads,
/// and how many such threads there are.
fn server_cpu_ticks() -> (u64, usize) {
    let mut ticks = 0;
    let mut threads = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("reads /proc/self/task") {
        let path = task.expect("task entry").path().join("stat");
        // A thread that exited since the listing has no stat left to read.
        let Ok(stat) = std::fs::read_to_string(path) else {
            continue;
        };
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        if !stat[open + 1..close].starts_with("netserve-") {
            continue;
        }
        // Fields after the comm: state is the 1st, utime the 12th, stime
        // the 13th (fields 3, 14 and 15 of proc(5)).
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let field = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
        ticks += field(11) + field(12);
        threads += 1;
    }
    (ticks, threads)
}

#[test]
fn an_idle_server_sleeps_until_a_deadline() {
    let (eng, txns) = engine();
    let read_timeout = Duration::from_secs(3);
    let cfg = ServerConfig {
        read_timeout,
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = NetServer::start(eng, cfg).expect("server starts");
    let addr = server.local_addr();

    // An idle keep-alive connection, adopted and served once.
    let mut client = ScoreClient::connect(addr, Duration::from_secs(5)).expect("connects");
    assert!(matches!(
        client.score("idle", &txns).expect("score succeeds"),
        ScoreOutcome::Scores(_)
    ));
    // A slow loris, stalled mid-head: its read deadline is 3 s out.
    let mut loris = TcpStream::connect(addr).expect("connects");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let dripped = Instant::now();
    loris.write_all(b"POST /sco").expect("drips a partial head");
    std::thread::sleep(Duration::from_millis(100));

    let window = Duration::from_secs(2);
    let (before, threads) = server_cpu_ticks();
    assert!(
        threads >= 4,
        "acceptor, workers and scorers are named netserve-…: {threads}"
    );
    std::thread::sleep(window);
    let (after, _) = server_cpu_ticks();
    let core_frac = (after - before) as f64 / TICKS_PER_S / window.as_secs_f64();
    eprintln!(
        "idle server: {} ticks over {window:?} = {:.1} % of a core",
        after - before,
        core_frac * 100.0
    );
    assert!(
        core_frac <= 0.01,
        "idle server used {:.1} % of a core ({} ticks over {window:?})",
        core_frac * 100.0,
        after - before
    );

    // The loris gets its 408 once its deadline passes, not long after: the
    // blocked worker woke for it. (The deadline runs from the worker's
    // sweep clock, which may read a hair before the drip.)
    let mut answer = Vec::new();
    loris.read_to_end(&mut answer).expect("reads the reap");
    let waited = dripped.elapsed();
    let head = http::parse_response_head(&answer)
        .expect("well-formed response")
        .expect("complete head");
    assert_eq!(head.status, 408, "a stalled started request gets 408");
    assert!(
        waited + Duration::from_millis(50) >= read_timeout
            && waited < read_timeout + Duration::from_millis(500),
        "408 arrived {waited:?} after the drip; deadline was {read_timeout:?}"
    );

    assert!(matches!(
        client.score("idle", &txns).expect("still serving"),
        ScoreOutcome::Scores(_)
    ));
    server.shutdown();
}
