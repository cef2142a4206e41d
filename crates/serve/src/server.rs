//! The daemon: a bounded worker pool draining a backpressure queue of
//! accepted connections, serving the [`ServiceCore`] over HTTP/1.1+JSON.
//!
//! Threading model (std-only; the build is offline, so no async
//! runtime): the caller's thread accepts connections and pushes them
//! onto a bounded queue; `workers` threads pop connections and serve
//! requests on them. A full queue answers `503` immediately — load
//! sheds at the door instead of queueing unboundedly. Keep-alive
//! connections are released (with `connection: close`) whenever other
//! connections are waiting, so a handful of chatty clients cannot
//! starve the pool.
//!
//! Slow peers: [`READ_TIMEOUT`] bounds both the wait for a request's
//! first byte and the whole request, head plus body, counted from that
//! byte. A peer that sends nothing before it expires (an idle
//! connection, or an idle keep-alive between requests) is closed
//! silently; one that stalls partway through a request, or trickles it
//! in too slowly, gets `408`. Either way the worker is free again, so
//! idle or slow sockets cannot wedge the pool or hold up a drain.
//!
//! Graceful shutdown: `POST /shutdown` acknowledges, flips the shutdown
//! flag, and self-connects to unblock the acceptor; the acceptor stops
//! accepting and closes the queue; workers drain every queued
//! connection, finish in-flight requests, and exit; [`Daemon::run`]
//! joins them and returns. Nothing accepted is dropped unanswered.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rtpf_engine::{ArtifactStore, ServiceCore, ServiceError, StoreConfig};

use crate::http::{read_request, write_response, Request};
use crate::request::decode_request;

/// How long a worker waits for a request's first byte, and for the rest
/// of the request after it, before giving up on the peer (see the module
/// docs).
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Daemon configuration (the `rtpfd` flags).
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Bound of the accepted-connection queue (beyond the workers'
    /// in-flight connections); a full queue answers `503`.
    pub queue: usize,
    /// Artifact-store tier configuration (shards, byte budget, disk
    /// root).
    pub store: StoreConfig,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 1024,
            store: StoreConfig::default(),
        }
    }
}

/// Bounded connection queue with a closed state (see the module docs).
struct ConnQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    cap: usize,
}

struct QueueState {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues a connection; `Err` returns it when the queue is full
    /// (the caller sheds it with `503`) or closed.
    fn push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut s = self.state.lock().expect("queue lock");
        if s.closed || s.conns.len() >= self.cap {
            return Err(conn);
        }
        s.conns.push_back(conn);
        drop(s);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once closed *and* drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if let Some(conn) = s.conns.pop_front() {
                return Some(conn);
            }
            if s.closed {
                return None;
            }
            s = self.available.wait(s).expect("queue wait");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }

    fn is_empty(&self) -> bool {
        self.state.lock().expect("queue lock").conns.is_empty()
    }

    fn depth(&self) -> usize {
        self.state.lock().expect("queue lock").conns.len()
    }
}

/// A bound daemon, ready to [`run`](Daemon::run).
pub struct Daemon {
    core: Arc<ServiceCore>,
    listener: TcpListener,
    local_addr: SocketAddr,
    config: DaemonConfig,
    shutdown: Arc<AtomicBool>,
}

impl Daemon {
    /// Binds the listener and builds the shared service core.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let store = Arc::new(ArtifactStore::with_config(config.store.clone()));
        Ok(Daemon {
            core: Arc::new(ServiceCore::new(store)),
            listener,
            local_addr,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (the ephemeral port after `bind` on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared service core (tests reach through this).
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// Serves until a `POST /shutdown` arrives, then drains and returns.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures (worker panics are contained
    /// per connection and do not abort the daemon).
    pub fn run(self) -> io::Result<()> {
        let queue = Arc::new(ConnQueue::new(self.config.queue));
        let workers: Vec<_> = (0..self.config.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let core = Arc::clone(&self.core);
                let shutdown = Arc::clone(&self.shutdown);
                let addr = self.local_addr;
                thread::Builder::new()
                    .name(format!("rtpfd-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &core, &shutdown, addr))
                    .expect("spawns worker")
            })
            .collect();

        for conn in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                // The wake connection (or any racer) is dropped unserved;
                // it carried no request.
                break;
            }
            let conn = match conn {
                Ok(c) => c,
                // Transient accept errors (peer vanished between SYN and
                // accept) must not take the daemon down.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => {
                    queue.close();
                    for w in workers {
                        let _ = w.join();
                    }
                    return Err(e);
                }
            };
            if let Err(mut shed) = queue.push(conn) {
                let _ = write_response(&mut shed, 503, "{\"error\": \"queue full\"}", false);
            }
        }
        queue.close();
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

fn worker_loop(
    queue: &ConnQueue,
    core: &Arc<ServiceCore>,
    shutdown: &Arc<AtomicBool>,
    addr: SocketAddr,
) {
    while let Some(conn) = queue.pop() {
        // A panic while serving one connection (a pipeline bug on one
        // input) must not shrink the pool for every other client.
        let result = catch_unwind(AssertUnwindSafe(|| {
            serve_connection(conn, queue, core, shutdown, addr);
        }));
        if result.is_err() && !shutdown.load(Ordering::SeqCst) {
            // The connection died with the panic; the pool carries on.
        }
    }
}

fn serve_connection(
    conn: TcpStream,
    queue: &ConnQueue,
    core: &Arc<ServiceCore>,
    shutdown: &Arc<AtomicBool>,
    addr: SocketAddr,
) {
    if conn.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let mut reader = match conn.try_clone() {
        Ok(conn) => BufReader::new(Deadline { conn, at: None }),
        Err(_) => return,
    };
    let mut writer = conn;
    loop {
        // Wait for the request's first byte: end of stream, an idle peer
        // outlasting the read timeout, or a dead socket all close the
        // connection without a response.
        reader.get_mut().at = None;
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        reader.get_mut().at = Some(Instant::now() + READ_TIMEOUT);
        let req = match read_request(&mut reader) {
            Ok(Some(r)) => r,
            // Clean keep-alive teardown by the peer.
            Ok(None) => return,
            Err(e) if is_timeout(&e) => {
                let _ = write_response(&mut writer, 408, "{\"error\": \"request timeout\"}", false);
                return;
            }
            Err(e) => {
                let body = format!("{{\"error\": \"{}\"}}", e.to_string().replace('"', "'"));
                let _ = write_response(&mut writer, 400, &body, false);
                return;
            }
        };
        // Yield the connection whenever others wait (or we are
        // draining): tell the client and close after this response.
        let keep = req.keep_alive && queue.is_empty() && !shutdown.load(Ordering::SeqCst);
        let (status, body) = route(&req, core, queue, shutdown, addr);
        if write_response(&mut writer, status, &body, keep).is_err() || !keep {
            return;
        }
    }
}

/// The connection's read side under a whole-request deadline. The
/// socket's own read timeout still bounds each read, so a peer can
/// overrun `at` by at most one [`READ_TIMEOUT`]; checking the clock
/// here costs no syscall.
struct Deadline {
    conn: TcpStream,
    /// When the current request must be read by; `None` between
    /// requests.
    at: Option<Instant>,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.at.is_some_and(|at| Instant::now() >= at) {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.conn.read(buf)
    }
}

/// Whether a read error is the connection's read timeout expiring
/// (`WouldBlock` on Unix, `TimedOut` on Windows) or the request's
/// deadline passing.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn route(
    req: &Request,
    core: &Arc<ServiceCore>,
    queue: &ConnQueue,
    shutdown: &Arc<AtomicBool>,
    addr: SocketAddr,
) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, "{\"status\": \"ok\"}".to_string()),
        ("GET", "/metrics") => {
            let m = core.store().metrics();
            (
                200,
                format!(
                    "{{\"store\": {}, \"engines\": {}, \"queue_depth\": {}}}",
                    m.to_json(),
                    core.engine_count(),
                    queue.depth()
                ),
            )
        }
        ("POST", "/shutdown") => {
            if !shutdown.swap(true, Ordering::SeqCst) {
                // First shutdown request: wake the acceptor out of
                // `accept` with a throwaway connection.
                let _ = TcpStream::connect(addr);
            }
            (200, "{\"status\": \"draining\"}".to_string())
        }
        ("POST", "/analyze" | "/optimize" | "/audit" | "/simulate") => {
            let op = &req.path[1..];
            match decode_request(op, &req.body) {
                Ok(service_req) => match core.handle(&service_req) {
                    Ok(resp) => (200, resp.to_json()),
                    Err(e @ ServiceError::BadRequest(_)) => (400, error_body(&e)),
                    Err(e @ ServiceError::Engine(_)) => (500, error_body(&e)),
                },
                Err(m) => (400, error_body(&m)),
            }
        }
        ("GET", "/analyze" | "/optimize" | "/audit" | "/simulate")
        | ("POST", "/healthz" | "/metrics") => {
            (405, "{\"error\": \"method not allowed\"}".to_string())
        }
        _ => (404, "{\"error\": \"no such endpoint\"}".to_string()),
    }
}

fn error_body(e: &impl std::fmt::Display) -> String {
    let msg = e
        .to_string()
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!("{{\"error\": \"{msg}\"}}")
}
