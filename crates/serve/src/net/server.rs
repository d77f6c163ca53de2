//! The multi-connection framed server.
//!
//! A single reactor thread owns every socket: it accepts connections,
//! decodes length-framed protocol lines ([`crate::net::frame`]), admits
//! them in per-connection arrival order, and fans query work out to a
//! small pool of worker threads that hit the shared [`ServeIndex`]
//! concurrently. Readiness comes from the no-dependency poller in
//! [`crate::net::sys`] (epoll on Linux, `poll(2)` elsewhere); workers
//! wake the reactor through a nonblocking socketpair.
//!
//! # Protocol
//!
//! Each frame payload is one line of the [`subsim_delta::serve_queries`]
//! grammar (`k [epsilon] [@version]`, `delta <op>`, `shutdown`), plus a
//! frame-only extension `tenant <name>` that tags the connection for
//! per-tenant metrics. Every admitted frame — except blank and `#`
//! comment lines, which are skipped exactly like the line server skips
//! them — produces **exactly one reply frame, in admission order**:
//!
//! - query → the seed line (`"s1 s2 …"`, the byte-identical rendering the
//!   line server writes), or `err <reason>` on a typed failure;
//! - `delta <op>` → `ok delta v<version>` or `err <reason>`;
//! - `tenant <name>` → `ok tenant <name>`;
//! - `shutdown` → `ok shutdown`, then the server drains and exits;
//! - a frame that violates the transport (oversized declaration,
//!   non-UTF-8 payload) → `err <violation>` — the connection keeps
//!   serving, mirroring the per-line error contract of the line server.
//!
//! # Ordering and the delta barrier
//!
//! Queries from one connection run concurrently, but replies are
//! re-sequenced through a per-connection reorder buffer, so each client
//! observes answers in the order it asked. A `delta` frame is a
//! **barrier** for its connection: it waits for every earlier admitted
//! query to answer, runs alone, and blocks later frames (they queue in a
//! bounded deferred list) until the repaired snapshot publishes — so a
//! connection's replies are a pure function of its own frame sequence
//! whenever no other connection mutates the graph. Across connections,
//! deltas serialize through the index's writer lock and each version
//! bump fences all shards at one atomic snapshot swap.
//!
//! # Backpressure
//!
//! Outbound bytes queue in a bounded per-connection buffer. When a
//! client stops reading and the buffer crosses the high-water mark, the
//! reactor drops *read* interest for that connection — the client can no
//! longer pump queries into the server faster than it drains answers —
//! and resumes reading once the buffer falls below the low-water mark.
//! The deferred list behind a delta barrier is capped the same way.

use crate::net::frame::{encode_frame, FrameDecoder, FrameItem, HEADER_LEN};
use crate::net::sys::{
    Interest, PollEvent, Poller, TOKEN_CONN_BASE, TOKEN_LISTENER_BASE, TOKEN_WAKE,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use subsim_delta::{parse_query, FrameViolation, LineError, ServeEvent, ServeIndex, ServeSink};
use subsim_index::{TenantCounters, TenantMetrics};

/// Tuning for [`serve_framed`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads answering queries against the index.
    pub workers: usize,
    /// Certificate failure probability handed to every query
    /// (the `delta` of `serve_queries`, not a graph delta).
    pub delta: f64,
    /// Maximum accepted frame payload, bytes.
    pub max_frame: usize,
    /// Stop reading a connection when its outbound buffer exceeds this.
    pub write_high_water: usize,
    /// Resume reading once the outbound buffer falls below this.
    pub write_low_water: usize,
    /// Maximum frames queued behind a connection's delta barrier before
    /// its reads are gated.
    pub deferred_cap: usize,
    /// Tenant connections report under before any `tenant` frame.
    pub default_tenant: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            delta: 0.01,
            max_frame: 64 << 10,
            write_high_water: 256 << 10,
            write_low_water: 32 << 10,
            deferred_cap: 1024,
            default_tenant: "default".into(),
        }
    }
}

/// What a finished server run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Whether a `shutdown` frame ended the run.
    pub shutdown: bool,
    /// Connections accepted over the run's lifetime.
    pub connections: u64,
    /// Frames decoded (including violating frames).
    pub frames: u64,
    /// Reply frames written into connection buffers.
    pub replies: u64,
    /// Jobs whose handler panicked; each was answered `err internal`
    /// and its worker kept serving.
    pub worker_panics: u64,
}

/// A worker found the shared job queue's lock poisoned and could take no
/// more jobs. [`serve_framed`] fails with this error (wrapped in an
/// [`io::Error`] of kind `Other`) instead of leaving admitted frames
/// unanswered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobQueuePoisoned;

impl std::fmt::Display for JobQueuePoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker job queue lock poisoned")
    }
}

impl std::error::Error for JobQueuePoisoned {}

/// Removes a bound unix-socket path when dropped, so a crashed or
/// completed server never leaves a stale socket behind to trigger
/// `AddrInUse` on the next start.
#[derive(Debug)]
pub struct SocketPathGuard {
    path: Option<PathBuf>,
}

impl SocketPathGuard {
    /// The guarded path.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Keeps the socket file on disk after drop.
    pub fn disarm(mut self) {
        self.path = None;
    }
}

impl Drop for SocketPathGuard {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One accept socket, unix or TCP.
#[derive(Debug)]
pub enum Listener {
    /// A `SOCK_STREAM` unix-domain listener.
    Unix(UnixListener),
    /// A TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds a unix listener at `path`, unlinking a **stale socket** left
    /// by a previous run first. A path that exists but is not a socket is
    /// refused rather than unlinked — the server never deletes a file it
    /// could not have created. The returned guard removes the socket on
    /// drop (graceful shutdown included).
    pub fn bind_unix(path: &Path) -> io::Result<(Listener, SocketPathGuard)> {
        match std::fs::symlink_metadata(path) {
            Ok(meta) => {
                use std::os::unix::fs::FileTypeExt;
                if !meta.file_type().is_socket() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        format!(
                            "{} exists and is not a socket; refusing to unlink",
                            path.display()
                        ),
                    ));
                }
                std::fs::remove_file(path)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(path)?;
        Ok((
            Listener::Unix(listener),
            SocketPathGuard {
                path: Some(path.to_path_buf()),
            },
        ))
    }

    /// Binds a TCP listener at `addr` (e.g. `127.0.0.1:7979`).
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(true),
            Listener::Tcp(l) => l.set_nonblocking(true),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> io::Result<Option<Stream>> {
        match self {
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Ok(Some(Stream::Unix(s))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Ok(Some(Stream::Tcp(s))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

#[derive(Debug)]
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(true),
            Stream::Tcp(s) => s.set_nonblocking(true),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
}

enum JobKind {
    Query {
        line: String,
        k: usize,
        epsilon: f64,
        pin: Option<u64>,
    },
    Delta {
        op: String,
    },
}

struct Job {
    conn: u64,
    seq: u64,
    kind: JobKind,
}

enum DoneKind {
    Answered,
    Failed,
    DeltaApplied,
    /// The job's handler panicked; the reply is `err internal`.
    Panicked,
}

/// What a worker reports back to the reactor.
enum WorkerMsg {
    Done(Done),
    Fatal(JobQueuePoisoned),
}

struct Done {
    conn: u64,
    seq: u64,
    kind: DoneKind,
    payload: String,
}

struct Conn {
    token: u64,
    stream: Stream,
    decoder: FrameDecoder,
    interest: Interest,
    /// Outbound bytes; `write_pos` is the flushed prefix.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Next sequence number handed to an admitted frame.
    next_seq: u64,
    /// Next sequence to serialize into `write_buf`.
    flush_seq: u64,
    /// Completed replies waiting for earlier sequences (reorder buffer).
    completed: BTreeMap<u64, String>,
    /// Admitted queries not yet answered.
    inflight: usize,
    /// A delta admitted but not yet applied fences this connection.
    barrier: bool,
    /// Sequence of the dispatched barrier delta, to tell its completion
    /// apart from query completions.
    barrier_seq: Option<u64>,
    /// A delta waiting for `inflight` to reach zero before dispatch.
    pending_delta: Option<(u64, String)>,
    /// Frames decoded behind an active barrier, in arrival order.
    deferred: VecDeque<String>,
    tenant: Arc<TenantCounters>,
    read_eof: bool,
    dead: bool,
}

impl Conn {
    fn write_pending(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Inserts a finished reply and serializes every now-consecutive one.
    fn complete(&mut self, seq: u64, payload: String, report: &mut ServerReport) {
        self.completed.insert(seq, payload);
        while let Some(payload) = self.completed.remove(&self.flush_seq) {
            let before = self.write_buf.len();
            encode_frame(&payload, &mut self.write_buf);
            self.tenant
                .bytes_out
                .fetch_add((self.write_buf.len() - before) as u64, Ordering::Relaxed);
            report.replies += 1;
            self.flush_seq += 1;
        }
    }

    fn try_write(&mut self) {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > (64 << 10) {
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
    }

    fn idle(&self) -> bool {
        self.inflight == 0
            && !self.barrier
            && self.pending_delta.is_none()
            && (self.dead || self.write_pending() == 0)
    }

    fn should_close(&self) -> bool {
        self.dead || (self.read_eof && self.idle() && self.deferred.is_empty())
    }
}

struct Env<'a, S: ?Sized> {
    job_tx: mpsc::Sender<Job>,
    tenants: &'a TenantMetrics,
    sink: &'a S,
    config: &'a ServerConfig,
}

/// Runs the framed multi-connection server over `listeners` until a
/// `shutdown` frame arrives, answering queries against `index` on
/// `config.workers` threads. Per-tenant counters accumulate into
/// `tenants`; observability events stream to `sink`. Returns only on
/// shutdown (or a fatal poller/accept error).
pub fn serve_framed<I, S>(
    index: &I,
    listeners: Vec<Listener>,
    config: &ServerConfig,
    tenants: &TenantMetrics,
    sink: &S,
) -> io::Result<ServerReport>
where
    I: ServeIndex,
    S: ServeSink + ?Sized,
{
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (done_tx, done_rx) = mpsc::channel::<WorkerMsg>();
    let job_rx = Mutex::new(job_rx);
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;

    let mut poller = Poller::new()?;
    poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
    for (i, listener) in listeners.iter().enumerate() {
        listener.set_nonblocking()?;
        poller.register(
            listener.raw_fd(),
            TOKEN_LISTENER_BASE + i as u64,
            Interest::READ,
        )?;
    }

    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            let done_tx = done_tx.clone();
            let job_rx = &job_rx;
            let wake = &wake_tx;
            scope.spawn(move || worker_loop(index, config.delta, job_rx, done_tx, wake, sink));
        }
        drop(done_tx);
        let env = Env {
            job_tx,
            tenants,
            sink,
            config,
        };
        reactor_loop(&mut poller, &listeners, &wake_rx, &done_rx, env)
        // `env.job_tx` drops here, closing the job channel; workers
        // finish their current job and exit, and the scope joins them.
    })
}

fn reactor_loop<S: ServeSink + ?Sized>(
    poller: &mut Poller,
    listeners: &[Listener],
    wake_rx: &UnixStream,
    done_rx: &mpsc::Receiver<WorkerMsg>,
    env: Env<'_, S>,
) -> io::Result<ServerReport> {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = TOKEN_CONN_BASE;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut report = ServerReport::default();
    let mut draining = false;
    let mut listeners_live = true;

    loop {
        poller.wait(&mut events, 64)?;
        let batch: Vec<PollEvent> = std::mem::take(&mut events);
        for ev in batch {
            if ev.token == TOKEN_WAKE {
                drain_wake(wake_rx);
                while let Ok(msg) = done_rx.try_recv() {
                    let done = match msg {
                        WorkerMsg::Done(done) => done,
                        WorkerMsg::Fatal(e) => return Err(io::Error::other(e)),
                    };
                    let token = done.conn;
                    if let Some(conn) = conns.get_mut(&token) {
                        handle_done(conn, done, &env, &mut draining, &mut report);
                    }
                    sync_conn(poller, &mut conns, token, &env, draining);
                }
            } else if ev.token < TOKEN_CONN_BASE {
                let listener = &listeners[(ev.token - TOKEN_LISTENER_BASE) as usize];
                if !listeners_live {
                    continue;
                }
                while let Some(stream) = listener.accept()? {
                    stream.set_nonblocking()?;
                    let token = next_conn;
                    next_conn += 1;
                    poller.register(stream.raw_fd(), token, Interest::READ)?;
                    conns.insert(
                        token,
                        Conn {
                            token,
                            stream,
                            decoder: FrameDecoder::new(env.config.max_frame),
                            interest: Interest::READ,
                            write_buf: Vec::new(),
                            write_pos: 0,
                            next_seq: 0,
                            flush_seq: 0,
                            completed: BTreeMap::new(),
                            inflight: 0,
                            barrier: false,
                            barrier_seq: None,
                            pending_delta: None,
                            deferred: VecDeque::new(),
                            tenant: env.tenants.tenant(&env.config.default_tenant),
                            read_eof: false,
                            dead: false,
                        },
                    );
                    report.connections += 1;
                }
            } else if let Some(conn) = conns.get_mut(&ev.token) {
                if ev.readable && conn.interest.readable {
                    handle_readable(conn, &env, &mut draining, &mut report);
                }
                if ev.writable {
                    conn.try_write();
                }
                sync_conn(poller, &mut conns, ev.token, &env, draining);
            }
        }
        if draining && listeners_live {
            // Stop accepting and stop reading: finish what was admitted.
            for listener in listeners {
                poller.deregister(listener.raw_fd())?;
            }
            listeners_live = false;
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                sync_conn(poller, &mut conns, token, &env, draining);
            }
        }
        if draining && conns.values().all(Conn::idle) {
            report.shutdown = true;
            return Ok(report);
        }
    }
}

fn drain_wake(wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    let mut wake = wake_rx;
    loop {
        match wake.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Reads everything available, decodes it, and admits each decoded item.
fn handle_readable<S: ServeSink + ?Sized>(
    conn: &mut Conn,
    env: &Env<'_, S>,
    draining: &mut bool,
    report: &mut ServerReport,
) {
    let mut items: Vec<FrameItem> = Vec::new();
    let mut buf = [0u8; 16 << 10];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_eof = true;
                if let Some(violation) = conn.decoder.on_eof() {
                    reject_frame(conn, violation, env, report);
                }
                break;
            }
            Ok(n) => conn.decoder.push(&buf[..n], &mut items),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                env.sink.event(ServeEvent::InputError {
                    message: e.to_string(),
                });
                conn.dead = true;
                break;
            }
        }
    }
    for item in items {
        report.frames += 1;
        match item {
            FrameItem::Line(line) => admit_line(conn, line, env, draining, report),
            FrameItem::Violation(violation) => reject_frame(conn, violation, env, report),
        }
    }
}

/// Replies `err <violation>` in sequence and reports the typed failure.
fn reject_frame<S: ServeSink + ?Sized>(
    conn: &mut Conn,
    violation: FrameViolation,
    env: &Env<'_, S>,
    report: &mut ServerReport,
) {
    let error = LineError::Frame(violation);
    let payload = format!("err {error}");
    env.sink.event(ServeEvent::LineFailed {
        line: String::new(),
        error,
    });
    conn.tenant.failed.fetch_add(1, Ordering::Relaxed);
    let seq = conn.next_seq;
    conn.next_seq += 1;
    conn.complete(seq, payload, report);
}

/// Admits one decoded line, deferring it behind an active delta barrier.
fn admit_line<S: ServeSink + ?Sized>(
    conn: &mut Conn,
    line: String,
    env: &Env<'_, S>,
    draining: &mut bool,
    report: &mut ServerReport,
) {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || *draining {
        return;
    }
    if conn.barrier || !conn.deferred.is_empty() {
        conn.deferred.push_back(line);
        return;
    }
    admit_direct(conn, trimmed.to_owned(), env, draining, report);
}

/// Admission proper: assigns the reply sequence and routes the line.
fn admit_direct<S: ServeSink + ?Sized>(
    conn: &mut Conn,
    line: String,
    env: &Env<'_, S>,
    draining: &mut bool,
    report: &mut ServerReport,
) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    if line == "shutdown" {
        conn.complete(seq, "ok shutdown".into(), report);
        *draining = true;
        return;
    }
    if let Some(name) = line.strip_prefix("tenant ") {
        let name = name.trim();
        if name.is_empty() {
            let error = LineError::Malformed {
                reason: "empty tenant name".into(),
            };
            let payload = format!("err {error}");
            env.sink.event(ServeEvent::LineFailed { line, error });
            conn.tenant.failed.fetch_add(1, Ordering::Relaxed);
            conn.complete(seq, payload, report);
            return;
        }
        conn.tenant = env.tenants.tenant(name);
        conn.complete(seq, format!("ok tenant {name}"), report);
        return;
    }
    if let Some(op) = line.strip_prefix("delta ") {
        conn.barrier = true;
        if conn.inflight == 0 {
            conn.barrier_seq = Some(seq);
            let _ = env.job_tx.send(Job {
                conn: conn.token,
                seq,
                kind: JobKind::Delta { op: op.to_owned() },
            });
        } else {
            conn.pending_delta = Some((seq, op.to_owned()));
        }
        return;
    }
    match parse_query(&line) {
        Ok((k, epsilon, pin)) => {
            conn.inflight += 1;
            conn.tenant.queries.fetch_add(1, Ordering::Relaxed);
            let _ = env.job_tx.send(Job {
                conn: conn.token,
                seq,
                kind: JobKind::Query {
                    line,
                    k,
                    epsilon,
                    pin,
                },
            });
        }
        Err(reason) => {
            let error = LineError::Malformed { reason };
            let payload = format!("err {error}");
            env.sink.event(ServeEvent::LineFailed { line, error });
            conn.tenant.failed.fetch_add(1, Ordering::Relaxed);
            conn.complete(seq, payload, report);
        }
    }
}

/// Routes one worker completion: settles barrier/inflight accounting,
/// sequences the reply, dispatches a waiting delta, and drains the
/// deferred queue if the barrier lifted.
fn handle_done<S: ServeSink + ?Sized>(
    conn: &mut Conn,
    done: Done,
    env: &Env<'_, S>,
    draining: &mut bool,
    report: &mut ServerReport,
) {
    if conn.barrier_seq == Some(done.seq) {
        conn.barrier = false;
        conn.barrier_seq = None;
    } else {
        conn.inflight -= 1;
    }
    let counter = match done.kind {
        DoneKind::Answered => &conn.tenant.answered,
        DoneKind::Failed => &conn.tenant.failed,
        DoneKind::DeltaApplied => &conn.tenant.deltas,
        DoneKind::Panicked => {
            report.worker_panics += 1;
            &conn.tenant.failed
        }
    };
    counter.fetch_add(1, Ordering::Relaxed);
    conn.complete(done.seq, done.payload, report);
    if conn.inflight == 0 {
        if let Some((seq, op)) = conn.pending_delta.take() {
            conn.barrier_seq = Some(seq);
            let _ = env.job_tx.send(Job {
                conn: conn.token,
                seq,
                kind: JobKind::Delta { op },
            });
        }
    }
    while !conn.barrier {
        let Some(line) = conn.deferred.pop_front() else {
            break;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || *draining {
            continue;
        }
        admit_direct(conn, trimmed.to_owned(), env, draining, report);
    }
}

/// Flushes, recomputes poll interest, and closes the connection when it
/// has nothing left to do.
fn sync_conn<S: ServeSink + ?Sized>(
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    env: &Env<'_, S>,
    draining: bool,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    if !conn.dead {
        conn.try_write();
    }
    if conn.should_close() {
        let _ = poller.deregister(conn.stream.raw_fd());
        conns.remove(&token);
        return;
    }
    let want = Interest {
        readable: !draining
            && !conn.read_eof
            && !conn.dead
            && conn.write_pending() < backpressure_resume(conn, env.config)
            && conn.deferred.len() < env.config.deferred_cap,
        writable: conn.write_pending() > 0,
    };
    if want != conn.interest {
        if poller
            .reregister(conn.stream.raw_fd(), token, want)
            .is_err()
        {
            conn.dead = true;
            let _ = poller.deregister(conn.stream.raw_fd());
            conns.remove(&token);
            return;
        }
        conn.interest = want;
    }
}

/// Hysteresis: a connection that tripped the high-water mark must drain
/// below the low-water mark before reads resume.
fn backpressure_resume(conn: &Conn, config: &ServerConfig) -> usize {
    if conn.interest.readable {
        config.write_high_water.max(HEADER_LEN)
    } else {
        config.write_low_water.max(HEADER_LEN)
    }
}

fn worker_loop<I, S>(
    index: &I,
    delta: f64,
    jobs: &Mutex<mpsc::Receiver<Job>>,
    done_tx: mpsc::Sender<WorkerMsg>,
    wake: &UnixStream,
    sink: &S,
) where
    I: ServeIndex,
    S: ServeSink + ?Sized,
{
    loop {
        // The guard is a temporary: the lock is held only while waiting
        // for the next job, never while running one.
        let next = match jobs.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => {
                let _ = done_tx.send(WorkerMsg::Fatal(JobQueuePoisoned));
                let mut w = wake;
                let _ = w.write(&[1u8]);
                return;
            }
        };
        let Ok(job) = next else { break };
        // A panicking handler answers `err internal` and the worker
        // lives on, so the connection's reorder buffer never waits on a
        // reply that cannot come.
        let (kind, payload) =
            panic::catch_unwind(AssertUnwindSafe(|| run_job(index, delta, job.kind, sink)))
                .unwrap_or_else(|_| (DoneKind::Panicked, "err internal".to_string()));
        let done = Done {
            conn: job.conn,
            seq: job.seq,
            kind,
            payload,
        };
        if done_tx.send(WorkerMsg::Done(done)).is_err() {
            break;
        }
        let mut w = wake;
        let _ = w.write(&[1u8]);
    }
}

/// Runs one job against the index and renders its reply.
fn run_job<I, S>(index: &I, delta: f64, kind: JobKind, sink: &S) -> (DoneKind, String)
where
    I: ServeIndex,
    S: ServeSink + ?Sized,
{
    match kind {
        JobKind::Query {
            line,
            k,
            epsilon,
            pin,
        } => match index.run_query(k, epsilon, delta, pin) {
            Ok(answer) => {
                let payload = answer
                    .seeds
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                sink.event(ServeEvent::Answered {
                    line,
                    stats: Box::new(answer.stats),
                });
                (DoneKind::Answered, payload)
            }
            Err(e) => {
                let error = LineError::Rejected(e);
                let payload = format!("err {error}");
                sink.event(ServeEvent::LineFailed { line, error });
                (DoneKind::Failed, payload)
            }
        },
        JobKind::Delta { op } => match index.apply_delta_line(&op) {
            Ok(rep) => {
                let payload = match index.version() {
                    Some(v) => format!("ok delta v{v}"),
                    None => "ok delta".into(),
                };
                sink.event(ServeEvent::DeltaApplied {
                    op,
                    report: Box::new(rep),
                });
                (DoneKind::DeltaApplied, payload)
            }
            Err(e) => {
                let error = LineError::Rejected(e);
                let payload = format!("err {error}");
                sink.event(ServeEvent::LineFailed {
                    line: format!("delta {op}"),
                    error,
                });
                (DoneKind::Failed, payload)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_delta::{RepairReport, ServeError};
    use subsim_index::QueryAnswer;

    /// An index no job reaches: the queue is poisoned before any runs.
    struct Unreachable;

    impl ServeIndex for Unreachable {
        fn run_query(
            &self,
            _k: usize,
            _epsilon: f64,
            _delta: f64,
            _pin: Option<u64>,
        ) -> Result<QueryAnswer, ServeError> {
            unreachable!("no job is taken from a poisoned queue")
        }

        fn apply_delta_line(&self, _op: &str) -> Result<RepairReport, ServeError> {
            unreachable!("no job is taken from a poisoned queue")
        }
    }

    #[test]
    fn poisoned_job_queue_reports_a_typed_fault() {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let jobs = Mutex::new(job_rx);
        std::thread::scope(|scope| {
            let jobs = &jobs;
            let _ = scope
                .spawn(move || {
                    let _guard = jobs.lock().unwrap();
                    panic!("poison the job queue");
                })
                .join();
        });
        assert!(jobs.is_poisoned());
        job_tx
            .send(Job {
                conn: TOKEN_CONN_BASE,
                seq: 0,
                kind: JobKind::Delta {
                    op: "+ 0 1 0.5".into(),
                },
            })
            .unwrap();

        let (done_tx, done_rx) = mpsc::channel();
        let (wake_tx, wake_rx) = UnixStream::pair().unwrap();
        worker_loop(
            &Unreachable,
            0.01,
            &jobs,
            done_tx,
            &wake_tx,
            &subsim_delta::NullSink,
        );
        assert!(matches!(
            done_rx.try_recv(),
            Ok(WorkerMsg::Fatal(JobQueuePoisoned))
        ));
        let mut byte = [0u8; 1];
        assert_eq!((&wake_rx).read(&mut byte).unwrap(), 1, "reactor woken");
        let err = io::Error::other(JobQueuePoisoned);
        assert!(err.get_ref().unwrap().is::<JobQueuePoisoned>());
    }
}
