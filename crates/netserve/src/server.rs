//! The network-facing scoring service: a hand-rolled HTTP/1.1 front end
//! over [`ScoringEngine`] built on `std::net` nonblocking sockets — the
//! workspace builds offline, so there is no async runtime; concurrency
//! comes from a small fixed thread crew instead:
//!
//! - an **acceptor** takes connections off the listener, applies the
//!   connection cap (a refused connection gets a best-effort `503` and is
//!   closed), and deals accepted sockets round-robin to the workers;
//! - **workers** (thread-per-core style) each own a set of nonblocking
//!   connections and drive them through a per-connection state machine
//!   (read head → read body → dispatch → wait → write), reaping anything
//!   that blows a deadline — a slow-loris drip costs its own connection a
//!   `408`, never a thread;
//! - **scorers** sit between the workers and the engine: they take
//!   admitted jobs off a queue, make the *blocking* `ScoringEngine::score`
//!   call, and post results back to the owning worker, so engine latency
//!   never stalls connection I/O.
//!
//! No thread sleeps between sweeps. A worker sweeps its channels and
//! connections until a sweep makes no progress, then blocks in `poll(2)`
//! (the private `ready` module) on the sockets that can move —
//! readable for a connection that would read, writable for one with a
//! response queued — plus its wake socket, with the earliest connection
//! deadline as the timeout. Whoever sends on a worker's `new_conns` or
//! `results` channel writes its wake socket after the send, so a handed-off
//! connection or score is picked up at once. The acceptor blocks the same
//! way on the listener plus its own wake socket, and shutdown wakes every
//! thread after raising the stop flag. An idle server uses no CPU.
//!
//! Admission control is two-stage and strictly bounded: a per-tenant
//! token-bucket quota ([`QuotaSet`], `429`) and a global in-flight permit
//! gauge (`503` once `max_inflight` scoring requests are queued or
//! executing). Permits are released by the scorer whether or not the
//! requesting connection is still alive, so client disconnects can never
//! leak capacity.
//!
//! Detector hot-swap needs nothing from this layer: the engine is shared
//! as an `Arc`, `ScoringEngine::swap_detector` takes `&self` and lands
//! between micro-batches, so in-flight requests complete on the old or new
//! weights — each response entirely one or the other, never a mix.
//! Graceful [`NetServer::shutdown`] stops accepting, drains every
//! in-flight request (bounded by `shutdown_grace`), then joins the crew.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use xfraud_hetgraph::NodeId;
use xfraud_serve::{ScoringEngine, ServeError};

use crate::error::NetServeError;
use crate::http::{parse_request_head, write_response, Method, RequestHead, MAX_HEAD_BYTES};
use crate::json::Json;
use crate::metrics::{NetMetrics, NetMetricsSnapshot};
use crate::proto::{decode_score_request, encode_error_body, encode_score_response};
use crate::quota::{QuotaConfig, QuotaSet};
use crate::ready::{self, PollFd, WakeSocket};

/// Pause after a failed `accept` or `poll` (EMFILE, ENOMEM, …): the failure
/// may leave the listener readable, so waiting on readiness would spin.
const ERROR_BACKOFF: Duration = Duration::from_millis(1);

/// Most bytes pulled off one connection per sweep (fairness bound).
const READ_QUANTUM: usize = 16 * 1024;

/// Server tuning knobs; validated by [`NetServer::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 binds an ephemeral port (see
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Connection-driving event threads.
    pub workers: usize,
    /// Threads making the blocking `ScoringEngine::score` calls.
    pub score_threads: usize,
    /// Accepted-connection cap; beyond it new connections get `503`.
    pub max_conns: usize,
    /// In-flight scoring-request cap (queued + executing); beyond it
    /// requests get `503`.
    pub max_inflight: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Deadline for a started request (first head byte → full body).
    pub read_timeout: Duration,
    /// Deadline for draining a queued response to the socket.
    pub write_timeout: Duration,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// How long shutdown waits for in-flight requests before force-closing.
    pub shutdown_grace: Duration,
    /// Per-tenant token-bucket quotas (disabled by default).
    pub quota: QuotaConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            score_threads: 2,
            max_conns: 1024,
            max_inflight: 256,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            shutdown_grace: Duration::from_secs(3),
            quota: QuotaConfig::default(),
        }
    }
}

impl ServerConfig {
    fn validate(&self) -> Result<(), NetServeError> {
        let bad = |msg: &str| Err(NetServeError::InvalidConfig(msg.into()));
        if self.workers == 0 {
            return bad("workers must be ≥ 1");
        }
        if self.score_threads == 0 {
            return bad("score_threads must be ≥ 1");
        }
        if self.max_conns == 0 {
            return bad("max_conns must be ≥ 1");
        }
        if self.max_inflight == 0 {
            return bad("max_inflight must be ≥ 1");
        }
        if self.max_body_bytes == 0 {
            return bad("max_body_bytes must be ≥ 1");
        }
        if self.read_timeout.is_zero() || self.write_timeout.is_zero() {
            return bad("timeouts must be non-zero");
        }
        Ok(())
    }
}

/// One admitted scoring request on its way to the engine.
struct ScoreJob {
    worker: usize,
    conn_id: u64,
    ids: Vec<NodeId>,
    keep_alive: bool,
    admitted_at: Instant,
}

/// A finished scoring request on its way back to the owning worker.
struct ScoreDone {
    conn_id: u64,
    keep_alive: bool,
    result: Result<Vec<f32>, ServeError>,
}

struct ServerShared {
    engine: Arc<ScoringEngine>,
    cfg: ServerConfig,
    metrics: NetMetrics,
    quotas: QuotaSet,
    stop: AtomicBool,
    /// One per worker, written after every send on its `new_conns` or
    /// `results` channel and at shutdown.
    worker_wakes: Vec<WakeSocket>,
    /// The acceptor's, written at shutdown.
    accept_wake: WakeSocket,
}

enum ConnState {
    ReadHead,
    ReadBody {
        head: RequestHead,
    },
    Waiting,
    Writing {
        out: Vec<u8>,
        written: usize,
        keep_alive: bool,
    },
}

struct Conn {
    id: u64,
    stream: TcpStream,
    /// Accumulation buffer: unconsumed request bytes (head, body, and any
    /// pipelined follow-ups).
    buf: Vec<u8>,
    state: ConnState,
    deadline: Instant,
    /// Read side saw EOF (peer half-closed); finish writing, then close.
    peer_gone: bool,
    dead: bool,
}

impl Conn {
    fn new(id: u64, stream: TcpStream, now: Instant, idle: Duration) -> Conn {
        Conn {
            id,
            stream,
            buf: Vec::new(),
            state: ConnState::ReadHead,
            deadline: now + idle,
            peer_gone: false,
            dead: false,
        }
    }

    /// The connection's entry in its worker's wait: readable while
    /// [`read_some`] would read, writable while a response is queued, and
    /// otherwise none at all — a hung-up socket reports `POLLHUP` whatever
    /// it asks for, so merely asking for nothing would spin the worker
    /// while a half-closed peer waits on its score.
    fn poll_fd(&self, read_cap: usize) -> PollFd {
        match self.state {
            _ if self.dead => PollFd::ignored(),
            ConnState::Writing { .. } => PollFd::new(self.stream.as_raw_fd(), ready::WRITABLE),
            _ if self.peer_gone || self.buf.len() >= read_cap => PollFd::ignored(),
            _ => PollFd::new(self.stream.as_raw_fd(), ready::READABLE),
        }
    }

    /// The deadline its worker's wait must not outlast. A `Waiting`
    /// connection has none: the engine always answers, and the answer
    /// comes with a wake.
    fn wait_deadline(&self) -> Option<Instant> {
        match self.state {
            _ if self.dead => None,
            ConnState::Waiting => None,
            _ => Some(self.deadline),
        }
    }
}

/// Bytes a connection buffers before it stops reading: a full request's
/// worth. Pipelined senders wait in the socket buffer (backpressure).
fn read_cap(cfg: &ServerConfig) -> usize {
    MAX_HEAD_BYTES + cfg.max_body_bytes + READ_QUANTUM
}

/// The running server. Dropping it performs a graceful shutdown.
pub struct NetServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    scorers: Vec<JoinHandle<()>>,
    /// Keeps the scorer crew alive until the workers have drained.
    job_tx: Option<mpsc::Sender<ScoreJob>>,
}

impl NetServer {
    /// Binds, spawns the acceptor/worker/scorer crew and returns the
    /// running server. The engine is shared: callers keep their own `Arc`
    /// for hot-swap (`swap_detector`), ingestion and direct scoring.
    pub fn start(engine: Arc<ScoringEngine>, cfg: ServerConfig) -> Result<Self, NetServeError> {
        cfg.validate()?;
        let listener = TcpListener::bind(&cfg.addr).map_err(NetServeError::Bind)?;
        listener
            .set_nonblocking(true)
            .map_err(NetServeError::Bind)?;
        let addr = listener.local_addr().map_err(NetServeError::Bind)?;

        let worker_wakes = (0..cfg.workers)
            .map(|_| WakeSocket::new())
            .collect::<Result<Vec<_>, _>>()
            .map_err(NetServeError::Spawn)?;
        let shared = Arc::new(ServerShared {
            engine,
            quotas: QuotaSet::new(cfg.quota.clone()),
            metrics: NetMetrics::new(),
            stop: AtomicBool::new(false),
            worker_wakes,
            accept_wake: WakeSocket::new().map_err(NetServeError::Spawn)?,
            cfg,
        });

        // Job queue: workers → scorers. Unbounded by construction; the
        // in-flight permit gauge is the real bound.
        let (job_tx, job_rx) = mpsc::channel::<ScoreJob>();
        let job_rx = Arc::new(Mutex::new(job_rx));

        // Result channels: scorers → each worker.
        let n_workers = shared.cfg.workers;
        let mut result_txs = Vec::with_capacity(n_workers);
        let mut result_rxs = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let (tx, rx) = mpsc::channel::<ScoreDone>();
            result_txs.push(tx);
            result_rxs.push(rx);
        }

        // New-connection channels: acceptor → each worker.
        let mut conn_txs = Vec::with_capacity(n_workers);
        let mut workers = Vec::with_capacity(n_workers);
        for (w, results) in result_rxs.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            conn_txs.push(tx);
            let shared = Arc::clone(&shared);
            let jobs = job_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("netserve-worker-{w}"))
                .spawn(move || worker_loop(w, shared, rx, results, jobs))
                .map_err(NetServeError::Spawn)?;
            workers.push(handle);
        }

        let mut scorers = Vec::with_capacity(shared.cfg.score_threads);
        for s in 0..shared.cfg.score_threads {
            let shared = Arc::clone(&shared);
            let job_rx = Arc::clone(&job_rx);
            let result_txs: Vec<mpsc::Sender<ScoreDone>> = result_txs.clone();
            let handle = std::thread::Builder::new()
                .name(format!("netserve-scorer-{s}"))
                .spawn(move || scorer_loop(shared, job_rx, result_txs))
                .map_err(NetServeError::Spawn)?;
            scorers.push(handle);
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("netserve-acceptor".into())
                .spawn(move || acceptor_loop(shared, listener, conn_txs))
                .map_err(NetServeError::Spawn)?
        };

        Ok(NetServer {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
            scorers,
            job_tx: Some(job_tx),
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine — the handle for `swap_detector`, `apply_events`
    /// and direct (in-process) scoring next to the network path.
    pub fn engine(&self) -> &Arc<ScoringEngine> {
        &self.shared.engine
    }

    /// Point-in-time server counters.
    pub fn metrics(&self) -> NetMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests
    /// (bounded by `shutdown_grace`), join every thread. Also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.accept_wake.wake();
        for wake in &self.shared.worker_wakes {
            wake.wake();
        }
        // A `join` returning `Err` means the thread died by panic instead of
        // seeing the stop flag — surface that through the `thread_panics`
        // counter rather than swallowing it.
        let shared = Arc::clone(&self.shared);
        let note_panic = move |joined: std::thread::Result<()>| {
            if joined.is_err() {
                shared.metrics.thread_panics.fetch_add(1, Ordering::Relaxed);
            }
        };
        if let Some(h) = self.acceptor.take() {
            note_panic(h.join());
        }
        for h in self.workers.drain(..) {
            note_panic(h.join());
        }
        // All worker-held job senders are gone; dropping ours lets the
        // scorer crew drain the queue and exit.
        drop(self.job_tx.take());
        for h in self.scorers.drain(..) {
            note_panic(h.join());
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn acceptor_loop(
    shared: Arc<ServerShared>,
    listener: TcpListener,
    conn_txs: Vec<mpsc::Sender<TcpStream>>,
) {
    let mut next_worker = 0usize;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let m = &shared.metrics;
                m.conns_accepted.fetch_add(1, Ordering::Relaxed);
                if m.active_conns.load(Ordering::Acquire) >= shared.cfg.max_conns {
                    refuse(stream, &shared);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    m.conns_closed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "Nagle stays on if the socket refuses; latency hint only, never a failure"
                )]
                let _ = stream.set_nodelay(true);
                m.active_conns.fetch_add(1, Ordering::AcqRel);
                let w = next_worker % conn_txs.len();
                next_worker = next_worker.wrapping_add(1);
                if conn_txs[w].send(stream).is_ok() {
                    shared.worker_wakes[w].wake();
                } else {
                    // Worker exited (shutdown race); the stream just drops.
                    m.active_conns.fetch_sub(1, Ordering::AcqRel);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let mut fds = [
                    PollFd::new(listener.as_raw_fd(), ready::READABLE),
                    shared.accept_wake.poll_fd(),
                ];
                if ready::wait(&mut fds, None).is_err() {
                    std::thread::sleep(ERROR_BACKOFF);
                }
                shared.accept_wake.drain();
            }
            Err(_) => {
                // Transient accept failure (EMFILE, ECONNABORTED, …): brief
                // backoff; the listener itself stays up.
                std::thread::sleep(ERROR_BACKOFF);
            }
        }
    }
}

/// Best-effort `503` to a connection refused at the accept gate.
fn refuse(stream: TcpStream, shared: &ServerShared) {
    let m = &shared.metrics;
    m.conns_refused.fetch_add(1, Ordering::Relaxed);
    m.observe_response(503);
    let body = encode_error_body("server connection limit reached");
    let bytes = write_response(503, &body, false);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "refusal is best-effort by contract; the connection drops either way"
    )]
    let _ = stream.set_nonblocking(false);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "refusal is best-effort by contract; the connection drops either way"
    )]
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut stream = stream;
    #[expect(
        clippy::let_underscore_must_use,
        reason = "a peer that hung up before reading its 503 is already counted refused"
    )]
    let _ = stream.write_all(&bytes);
    m.conns_closed.fetch_add(1, Ordering::Relaxed);
}

fn scorer_loop(
    shared: Arc<ServerShared>,
    job_rx: Arc<Mutex<mpsc::Receiver<ScoreJob>>>,
    result_txs: Vec<mpsc::Sender<ScoreDone>>,
) {
    loop {
        // Hold the receiver lock only for the blocking recv, never across
        // the engine call.
        let job = {
            let guard = job_rx.lock();
            guard.recv()
        };
        let Ok(job) = job else { return };
        let result = shared.engine.score(&job.ids);
        shared.metrics.observe_latency(job.admitted_at.elapsed());
        // Release the admission permit regardless of whether the requester
        // is still connected — disconnects must not leak capacity.
        shared.metrics.in_flight.fetch_sub(1, Ordering::AcqRel);
        if let Some(tx) = result_txs.get(job.worker) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "worker already exited at shutdown; the permit above is released either way"
            )]
            let _ = tx.send(ScoreDone {
                conn_id: job.conn_id,
                keep_alive: job.keep_alive,
                result,
            });
            shared.worker_wakes[job.worker].wake();
        }
    }
}

fn worker_loop(
    worker_idx: usize,
    shared: Arc<ServerShared>,
    new_conns: mpsc::Receiver<TcpStream>,
    results: mpsc::Receiver<ScoreDone>,
    jobs: mpsc::Sender<ScoreJob>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_id: u64 = 0;
    let mut stop_seen: Option<Instant> = None;
    let mut fds: Vec<PollFd> = Vec::new();
    let wake = &shared.worker_wakes[worker_idx];
    let read_cap = read_cap(&shared.cfg);
    loop {
        let mut progressed = false;
        let now = Instant::now();
        let stopping = shared.stop.load(Ordering::Acquire);

        // Adopt newly accepted connections (or drop them when stopping).
        while let Ok(stream) = new_conns.try_recv() {
            progressed = true;
            if stopping {
                shared.metrics.active_conns.fetch_sub(1, Ordering::AcqRel);
                shared.metrics.conns_closed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let id = (next_id << 8) | worker_idx as u64;
            next_id += 1;
            conns.push(Conn::new(id, stream, now, shared.cfg.idle_timeout));
        }

        // Deliver finished scores to their connections.
        while let Ok(done) = results.try_recv() {
            progressed = true;
            if let Some(conn) = conns.iter_mut().find(|c| c.id == done.conn_id && !c.dead) {
                let (status, body) = match done.result {
                    Ok(scores) => (200, encode_score_response(&scores)),
                    Err(e) => serve_error_response(&e),
                };
                start_write(conn, status, &body, done.keep_alive, &shared, now);
            }
            // A vanished connection simply discards its result; the permit
            // was already released by the scorer.
        }

        for conn in conns.iter_mut() {
            progressed |= drive(conn, now, worker_idx, &shared, &jobs, stopping);
        }

        let before = conns.len();
        conns.retain(|c| !c.dead);
        let removed = before - conns.len();
        if removed > 0 {
            progressed = true;
            shared
                .metrics
                .active_conns
                .fetch_sub(removed, Ordering::AcqRel);
        }

        if stopping {
            let since = *stop_seen.get_or_insert(now);
            // Idle keep-alive connections have nothing in flight: drop them.
            for conn in conns.iter_mut() {
                if matches!(conn.state, ConnState::ReadHead) && conn.buf.is_empty() {
                    shared.metrics.conns_closed.fetch_add(1, Ordering::Relaxed);
                    conn.dead = true;
                    progressed = true;
                }
            }
            let expired = now.saturating_duration_since(since) > shared.cfg.shutdown_grace;
            if expired {
                shared
                    .metrics
                    .active_conns
                    .fetch_sub(conns.len(), Ordering::AcqRel);
                conns.clear();
            }
            let still_going = conns.iter().any(|c| !c.dead);
            if !still_going {
                let before = conns.len();
                conns.retain(|c| !c.dead);
                shared
                    .metrics
                    .active_conns
                    .fetch_sub(before - conns.len(), Ordering::AcqRel);
                return;
            }
        }

        if !progressed {
            // Block until a socket can move, a wake announces a channel
            // message or the stop flag, or the earliest deadline (or the
            // end of the shutdown grace) comes due.
            let grace_end = stop_seen.map(|since| since + shared.cfg.shutdown_grace);
            let due = conns
                .iter()
                .filter_map(Conn::wait_deadline)
                .chain(grace_end)
                .min();
            let timeout = due.map(|t| t.saturating_duration_since(Instant::now()));
            fds.clear();
            fds.push(wake.poll_fd());
            fds.extend(conns.iter().map(|c| c.poll_fd(read_cap)));
            if ready::wait(&mut fds, timeout).is_err() {
                std::thread::sleep(ERROR_BACKOFF);
            }
            wake.drain();
        }
    }
}

/// Maps an engine failure onto the response taxonomy.
fn serve_error_response(e: &ServeError) -> (u16, Vec<u8>) {
    let status = match e {
        ServeError::UnknownNode(_) => 404,
        ServeError::NotATransaction(_) => 400,
        ServeError::Shutdown => 503,
        _ => 500,
    };
    (status, encode_error_body(&format!("{e}")))
}

/// Queues a response on the connection and starts its write deadline.
fn start_write(
    conn: &mut Conn,
    status: u16,
    body: &[u8],
    keep_alive: bool,
    shared: &ServerShared,
    now: Instant,
) {
    // During shutdown every response closes its connection so the worker
    // can drain; a half-closed peer cannot send another request either.
    let keep_alive = keep_alive && !conn.peer_gone && !shared.stop.load(Ordering::Acquire);
    shared.metrics.observe_response(status);
    conn.state = ConnState::Writing {
        out: write_response(status, body, keep_alive),
        written: 0,
        keep_alive,
    };
    conn.deadline = now + shared.cfg.write_timeout;
}

/// Advances one connection's state machine; returns whether it made
/// progress this sweep.
fn drive(
    conn: &mut Conn,
    now: Instant,
    worker_idx: usize,
    shared: &ServerShared,
    jobs: &mpsc::Sender<ScoreJob>,
    stopping: bool,
) -> bool {
    if conn.dead {
        return false;
    }

    // Deadlines first: reap stalled reads (slow loris), stalled writes
    // (dead readers) and expired idle keep-alives.
    if now >= conn.deadline {
        match &conn.state {
            ConnState::ReadHead if conn.buf.is_empty() => {
                // Idle keep-alive expiry: a clean close, not a reap.
                shared.metrics.conns_closed.fetch_add(1, Ordering::Relaxed);
                conn.dead = true;
            }
            ConnState::ReadHead | ConnState::ReadBody { .. } => {
                shared.metrics.conns_reaped.fetch_add(1, Ordering::Relaxed);
                start_write(
                    conn,
                    408,
                    &encode_error_body("request did not complete in time"),
                    false,
                    shared,
                    now,
                );
            }
            ConnState::Writing { .. } => {
                shared.metrics.conns_reaped.fetch_add(1, Ordering::Relaxed);
                conn.dead = true;
            }
            ConnState::Waiting => {} // the engine always answers; no deadline
        }
        if conn.dead {
            return true;
        }
    }

    match &mut conn.state {
        ConnState::ReadHead | ConnState::ReadBody { .. } | ConnState::Waiting => {
            read_some(conn, shared, now);
            if conn.dead {
                return true;
            }
            let progressed = advance_reads(conn, worker_idx, shared, jobs, now, stopping);
            if conn.peer_gone
                && !conn.dead
                && matches!(conn.state, ConnState::ReadHead | ConnState::ReadBody { .. })
            {
                // EOF arrived and what remains buffered is not a complete
                // request: it never will be. Close silently.
                shared.metrics.conns_closed.fetch_add(1, Ordering::Relaxed);
                conn.dead = true;
            }
            progressed
        }
        ConnState::Writing {
            out,
            written,
            keep_alive,
        } => {
            let mut progressed = false;
            loop {
                match conn.stream.write(&out[*written..]) {
                    Ok(0) => {
                        conn.dead = true;
                        shared.metrics.conns_closed.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Ok(n) => {
                        progressed = true;
                        *written += n;
                        if *written == out.len() {
                            if *keep_alive {
                                conn.state = ConnState::ReadHead;
                                conn.deadline = now
                                    + if conn.buf.is_empty() {
                                        shared.cfg.idle_timeout
                                    } else {
                                        shared.cfg.read_timeout
                                    };
                            } else {
                                shared.metrics.conns_closed.fetch_add(1, Ordering::Relaxed);
                                conn.dead = true;
                            }
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Peer reset mid-response: close and move on.
                        conn.dead = true;
                        shared.metrics.conns_closed.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            progressed
        }
    }
}

/// Pulls up to [`READ_QUANTUM`] bytes into the accumulation buffer.
fn read_some(conn: &mut Conn, shared: &ServerShared, now: Instant) -> bool {
    if conn.peer_gone {
        return false;
    }
    let cap = read_cap(&shared.cfg);
    if conn.buf.len() >= cap {
        return false;
    }
    let mut chunk = [0u8; 4096];
    let mut total = 0usize;
    let mut progressed = false;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // EOF: peer closed (or half-closed) its send side. Anything
                // mid-request is now unfinishable; a Waiting/Writing
                // connection still gets its response.
                conn.peer_gone = true;
                progressed = true;
                if matches!(conn.state, ConnState::ReadHead) && conn.buf.is_empty() {
                    // Idle peer left cleanly: nothing buffered, nothing owed.
                    shared.metrics.conns_closed.fetch_add(1, Ordering::Relaxed);
                    conn.dead = true;
                }
                // Otherwise defer the verdict: the buffer may hold a complete
                // half-closed request that `advance_reads` can still serve.
                // `drive` closes the connection if parsing leaves a request
                // that can now never finish.
                break;
            }
            Ok(n) => {
                progressed = true;
                let was_empty = conn.buf.is_empty();
                conn.buf.extend_from_slice(&chunk[..n]);
                if was_empty && matches!(conn.state, ConnState::ReadHead) {
                    // First byte of a request starts the read deadline.
                    conn.deadline = now + shared.cfg.read_timeout;
                }
                total += n;
                if total >= READ_QUANTUM || conn.buf.len() >= cap {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                shared.metrics.conns_closed.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    progressed
}

/// Parses and routes whatever complete protocol units the buffer now
/// holds. Returns whether any state advanced.
fn advance_reads(
    conn: &mut Conn,
    worker_idx: usize,
    shared: &ServerShared,
    jobs: &mpsc::Sender<ScoreJob>,
    now: Instant,
    stopping: bool,
) -> bool {
    let mut progressed = false;
    loop {
        match &conn.state {
            ConnState::ReadHead => {
                if conn.buf.is_empty() {
                    return progressed;
                }
                match parse_request_head(&conn.buf, shared.cfg.max_body_bytes) {
                    Ok(None) => return progressed,
                    Ok(Some(head)) => {
                        progressed = true;
                        conn.buf.drain(..head.head_len);
                        match head.method {
                            Method::Get => {
                                let (status, body) = route_get(&head.path, shared);
                                start_write(conn, status, &body, head.keep_alive, shared, now);
                                return true;
                            }
                            Method::Post => {
                                if head.path != "/score" {
                                    start_write(
                                        conn,
                                        404,
                                        &encode_error_body("unknown path"),
                                        false,
                                        shared,
                                        now,
                                    );
                                    return true;
                                }
                                conn.deadline = now + shared.cfg.read_timeout;
                                conn.state = ConnState::ReadBody { head };
                            }
                        }
                    }
                    Err(e) => {
                        // Framing is broken: answer with the typed status
                        // and close — the byte boundary can't be trusted.
                        let status = e.status();
                        start_write(
                            conn,
                            status,
                            &encode_error_body(&format!("{e}")),
                            false,
                            shared,
                            now,
                        );
                        return true;
                    }
                }
            }
            ConnState::ReadBody { head } => {
                let need = head.content_length.unwrap_or(0);
                if conn.buf.len() < need {
                    return progressed;
                }
                progressed = true;
                let keep_alive = head.keep_alive;
                let body: Vec<u8> = conn.buf.drain(..need).collect();
                dispatch_score(
                    conn, &body, keep_alive, worker_idx, shared, jobs, now, stopping,
                );
                if matches!(conn.state, ConnState::Waiting | ConnState::Writing { .. }) {
                    return true;
                }
            }
            _ => return progressed,
        }
    }
}

/// `GET` routing: health and metrics.
fn route_get(path: &str, shared: &ServerShared) -> (u16, Vec<u8>) {
    match path {
        "/healthz" => {
            let body = Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                (
                    "nodes".into(),
                    Json::num_u64(shared.engine.n_nodes() as u64),
                ),
            ]);
            (200, body.to_bytes())
        }
        "/metrics" => {
            let server = shared.metrics.snapshot();
            let engine = shared.engine.metrics();
            let body = Json::Obj(vec![
                ("server".into(), server.to_json()),
                (
                    "engine".into(),
                    Json::Obj(vec![
                        ("requests".into(), Json::num_u64(engine.requests)),
                        ("transactions".into(), Json::num_u64(engine.transactions)),
                        ("batches".into(), Json::num_u64(engine.batches)),
                        ("p50_ms".into(), Json::num_f64(engine.p50_ms)),
                        ("p99_ms".into(), Json::num_f64(engine.p99_ms)),
                        ("p999_ms".into(), Json::num_f64(engine.p999_ms)),
                    ]),
                ),
            ]);
            (200, body.to_bytes())
        }
        _ => (404, encode_error_body("unknown path")),
    }
}

/// Admission control and hand-off to the scorer crew.
#[allow(
    clippy::too_many_arguments,
    reason = "the connection, request, worker index, shared state, job queue, clock and shutdown flag are distinct inputs of one event-loop step"
)]
fn dispatch_score(
    conn: &mut Conn,
    body: &[u8],
    keep_alive: bool,
    worker_idx: usize,
    shared: &ServerShared,
    jobs: &mpsc::Sender<ScoreJob>,
    now: Instant,
    stopping: bool,
) {
    let req = match decode_score_request(body) {
        Ok(req) => req,
        Err(e) => {
            // The request was well-framed, so the connection survives.
            start_write(
                conn,
                e.status(),
                &encode_error_body(&format!("{e}")),
                keep_alive,
                shared,
                now,
            );
            return;
        }
    };
    if stopping {
        start_write(
            conn,
            503,
            &encode_error_body("server is shutting down"),
            false,
            shared,
            now,
        );
        return;
    }
    if !shared.quotas.admit(&req.tenant, now) {
        let wait = shared.quotas.retry_after(&req.tenant, now);
        start_write(
            conn,
            429,
            &encode_error_body(&format!(
                "tenant `{}` over quota; retry in {:.3}s",
                req.tenant,
                wait.as_secs_f64()
            )),
            keep_alive,
            shared,
            now,
        );
        return;
    }
    // In-flight permit: acquired here, released by the scorer.
    let prev = shared.metrics.in_flight.fetch_add(1, Ordering::AcqRel);
    if prev >= shared.cfg.max_inflight {
        shared.metrics.in_flight.fetch_sub(1, Ordering::AcqRel);
        start_write(
            conn,
            503,
            &encode_error_body("server overloaded; in-flight limit reached"),
            keep_alive,
            shared,
            now,
        );
        return;
    }
    let job = ScoreJob {
        worker: worker_idx,
        conn_id: conn.id,
        ids: req.ids,
        keep_alive,
        admitted_at: now,
    };
    if jobs.send(job).is_err() {
        // Scorers are gone (shutdown race): release the permit, shed.
        shared.metrics.in_flight.fetch_sub(1, Ordering::AcqRel);
        start_write(
            conn,
            503,
            &encode_error_body("server is shutting down"),
            false,
            shared,
            now,
        );
        return;
    }
    conn.state = ConnState::Waiting;
    // The engine always answers (or errors); no read deadline while
    // waiting. The connection is still polled for EOF so a vanished
    // client's response is discarded cheaply.
    conn.deadline = now + Duration::from_secs(3600);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ScoreClient, ScoreOutcome};
    use xfraud_datagen::{Dataset, DatasetPreset};
    use xfraud_gnn::{CommunitySampler, DetectorConfig, XFraudDetector};

    fn engine() -> (Arc<ScoringEngine>, Vec<NodeId>) {
        let g = Dataset::generate(DatasetPreset::EbaySmallSim, 23).graph;
        let detector = XFraudDetector::new(DetectorConfig::small(g.feature_dim(), 5));
        let txns: Vec<NodeId> = g
            .labeled_txns()
            .into_iter()
            .map(|(v, _)| v)
            .take(12)
            .collect();
        let engine = ScoringEngine::builder(detector, g, Box::new(CommunitySampler::new(300)))
            .seed(11)
            .build()
            .expect("engine builds");
        (Arc::new(engine), txns)
    }

    fn quick_cfg() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_millis(400),
            write_timeout: Duration::from_millis(400),
            idle_timeout: Duration::from_secs(5),
            shutdown_grace: Duration::from_secs(2),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn config_validation_rejects_zeroes() {
        let (eng, _) = engine();
        for cfg in [
            ServerConfig {
                workers: 0,
                ..quick_cfg()
            },
            ServerConfig {
                score_threads: 0,
                ..quick_cfg()
            },
            ServerConfig {
                max_conns: 0,
                ..quick_cfg()
            },
            ServerConfig {
                max_inflight: 0,
                ..quick_cfg()
            },
            ServerConfig {
                max_body_bytes: 0,
                ..quick_cfg()
            },
            ServerConfig {
                read_timeout: Duration::ZERO,
                ..quick_cfg()
            },
        ] {
            assert!(matches!(
                NetServer::start(Arc::clone(&eng), cfg),
                Err(NetServeError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn scores_match_the_engine_over_the_wire() {
        let (eng, txns) = engine();
        let direct = eng.score(&txns).expect("direct scores");
        let server = NetServer::start(Arc::clone(&eng), quick_cfg()).expect("server starts");
        let mut client =
            ScoreClient::connect(server.local_addr(), Duration::from_secs(5)).expect("connects");
        match client.score("t", &txns).expect("request succeeds") {
            ScoreOutcome::Scores(scores) => {
                let got: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
                let want: Vec<u32> = direct.iter().map(|s| s.to_bits()).collect();
                assert_eq!(got, want, "network scores must be bit-identical");
            }
            ScoreOutcome::Rejected { status, error } => {
                panic!("unexpected rejection: {status} {error}")
            }
        }
        // Keep-alive: the same connection answers again.
        assert!(matches!(
            client.score("t", &txns[..3]).expect("second request"),
            ScoreOutcome::Scores(_)
        ));
        let m = server.metrics();
        assert_eq!(m.responses_2xx, 2);
        assert_eq!(m.responses_5xx, 0);
        server.shutdown();
    }

    #[test]
    fn health_and_metrics_endpoints_answer() {
        let (eng, _) = engine();
        let server = NetServer::start(eng, quick_cfg()).expect("server starts");
        let mut client =
            ScoreClient::connect(server.local_addr(), Duration::from_secs(5)).expect("connects");
        let (status, body) = client.get("/healthz").expect("healthz");
        assert_eq!(status, 200);
        let doc = crate::json::parse(&body).expect("healthz json");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        let (status, body) = client.get("/metrics").expect("metrics");
        assert_eq!(status, 200);
        let doc = crate::json::parse(&body).expect("metrics json");
        assert!(doc.get("server").is_some() && doc.get("engine").is_some());
        let (status, _) = client.get("/nope").expect("unknown");
        assert_eq!(status, 404);
    }

    #[test]
    fn engine_errors_map_to_4xx() {
        let (eng, txns) = engine();
        let bogus = eng.n_nodes() + 99;
        let server = NetServer::start(eng, quick_cfg()).expect("server starts");
        let mut client =
            ScoreClient::connect(server.local_addr(), Duration::from_secs(5)).expect("connects");
        match client.score("t", &[txns[0], bogus]).expect("request") {
            ScoreOutcome::Rejected { status, error } => {
                assert_eq!(status, 404);
                assert!(error.contains("unknown node"), "{error}");
            }
            ScoreOutcome::Scores(_) => panic!("bogus id must be rejected"),
        }
        // The connection remains usable after a 4xx.
        assert!(matches!(
            client.score("t", &[txns[0]]).expect("follow-up"),
            ScoreOutcome::Scores(_)
        ));
    }

    #[test]
    fn quota_sheds_with_429_and_refills() {
        let (eng, txns) = engine();
        let cfg = ServerConfig {
            quota: QuotaConfig::per_tenant(5.0, 2.0),
            ..quick_cfg()
        };
        let server = NetServer::start(eng, cfg).expect("server starts");
        let mut client =
            ScoreClient::connect(server.local_addr(), Duration::from_secs(5)).expect("connects");
        let mut seen_429 = 0;
        for _ in 0..6 {
            if let ScoreOutcome::Rejected { status, .. } =
                client.score("greedy", &[txns[0]]).expect("request")
            {
                assert_eq!(status, 429);
                seen_429 += 1;
            }
        }
        assert!(seen_429 >= 3, "burst of 6 at burst-2 quota: saw {seen_429}");
        // A different tenant is unaffected.
        assert!(matches!(
            client.score("polite", &[txns[0]]).expect("request"),
            ScoreOutcome::Scores(_)
        ));
        // And the greedy tenant refills at 5 tokens/s.
        std::thread::sleep(Duration::from_millis(400));
        assert!(matches!(
            client.score("greedy", &[txns[0]]).expect("request"),
            ScoreOutcome::Scores(_)
        ));
        assert!(server.metrics().shed_quota >= 3);
    }

    #[test]
    fn graceful_shutdown_finishes_in_flight_requests() {
        let (eng, txns) = engine();
        let server = NetServer::start(eng, quick_cfg()).expect("server starts");
        let addr = server.local_addr();
        let txns2 = txns.clone();
        let h = std::thread::spawn(move || {
            let mut client = ScoreClient::connect(addr, Duration::from_secs(5)).expect("connects");
            let mut ok = 0;
            for _ in 0..20 {
                match client.score("t", &txns2) {
                    Ok(ScoreOutcome::Scores(_)) => ok += 1,
                    _ => break,
                }
            }
            ok
        });
        std::thread::sleep(Duration::from_millis(50));
        server.shutdown(); // must drain, not hang, not drop mid-response
        let ok = h.join().expect("client thread");
        assert!(ok >= 1, "at least the in-flight request completes");
    }
}
