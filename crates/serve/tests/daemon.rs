//! End-to-end daemon tests: golden byte-identity against the library
//! path, warm-pass cache behavior, protocol errors, slow peers, and
//! graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rtpf_cache::CacheConfig;
use rtpf_engine::{
    ArtifactStore, ConfigSpec, ProgramSource, ServiceCore, ServiceOp, ServiceProfile,
    ServiceRequest,
};
use rtpf_serve::http::{request, ClientResponse};
use rtpf_serve::{encode_request, Daemon, DaemonConfig, READ_TIMEOUT};

const TIMEOUT: Duration = Duration::from_secs(60);

struct Running {
    addr: String,
    core: Arc<ServiceCore>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start(config: DaemonConfig) -> Running {
        let daemon = Daemon::bind(config).expect("binds");
        let addr = daemon.local_addr().to_string();
        let core = Arc::clone(daemon.core());
        let thread = thread::spawn(move || daemon.run());
        Running { addr, core, thread }
    }

    fn post(&self, path: &str, body: &str) -> ClientResponse {
        request(self.addr.as_str(), path, Some(body), TIMEOUT).expect("request succeeds")
    }

    fn get(&self, path: &str) -> ClientResponse {
        request(self.addr.as_str(), path, None, TIMEOUT).expect("request succeeds")
    }

    fn shutdown(self) {
        let resp = self.post("/shutdown", "{}");
        assert_eq!(resp.status, 200);
        self.thread
            .join()
            .expect("daemon thread joins")
            .expect("daemon drains cleanly");
    }
}

fn spec_of(c: &CacheConfig) -> String {
    format!("{}:{}:{}", c.assoc(), c.block_bytes(), c.capacity_bytes())
}

fn service_request(op: ServiceOp, program: &str, cache: &str) -> ServiceRequest {
    ServiceRequest {
        op,
        program: ProgramSource::Spec(format!("suite:{program}")),
        config: ConfigSpec {
            cache: cache.to_string(),
            ..ConfigSpec::default()
        },
    }
}

/// The acceptance golden: responses served through the daemon are
/// byte-identical to the library path for suite programs × Table 2
/// configurations, across all four operations.
#[test]
fn daemon_responses_are_byte_identical_to_the_library_path() {
    let server = Running::start(DaemonConfig::default());
    let library = ServiceCore::new(Arc::new(ArtifactStore::in_memory()));

    let table2 = CacheConfig::paper_configs();
    let configs: Vec<String> = ["k1", "k9"]
        .iter()
        .map(|k| {
            let (_, c) = table2
                .iter()
                .find(|(name, _)| name == k)
                .expect("table 2 key");
            spec_of(c)
        })
        .collect();
    for program in ["bs", "fibcall"] {
        for cache in &configs {
            for op in [
                ServiceOp::Analyze,
                ServiceOp::Optimize,
                ServiceOp::Audit,
                ServiceOp::Simulate,
            ] {
                let req = service_request(op, program, cache);
                let wire = server.post(&format!("/{}", op.name()), &encode_request(&req));
                assert_eq!(wire.status, 200, "{program}/{cache}: {}", wire.body);
                let expected = library.handle(&req).expect("library path serves").to_json();
                assert_eq!(
                    wire.body,
                    expected,
                    "{program} × {cache} × {} must be byte-identical",
                    op.name()
                );
            }
        }
    }
    server.shutdown();
}

#[test]
fn warm_requests_hit_the_cache_and_metrics_show_it() {
    let server = Running::start(DaemonConfig::default());
    let body = encode_request(&service_request(ServiceOp::Analyze, "bs", "2:16:512"));

    let cold = server.post("/analyze", &body);
    assert_eq!(cold.status, 200);
    let misses_cold = server.core.store().misses();
    assert!(misses_cold > 0);

    let warm = server.post("/analyze", &body);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, cold.body, "warm response identical");
    assert_eq!(
        server.core.store().misses(),
        misses_cold,
        "warm request recomputed a stage"
    );

    let metrics = server.get("/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("\"hits\":"), "{}", metrics.body);
    assert!(metrics.body.contains("\"engines\": 1"), "{}", metrics.body);
    server.shutdown();
}

#[test]
fn inline_source_and_profiles_are_served() {
    let server = Running::start(DaemonConfig::default());
    let req = ServiceRequest {
        op: ServiceOp::Simulate,
        program: ProgramSource::Inline {
            name: "tiny".to_string(),
            text: "program tiny\ncode 8\nloop 4 { code 6 }\ncode 2\n".to_string(),
        },
        config: ConfigSpec {
            profile: ServiceProfile::Evaluation,
            runs: Some(1),
            ..ConfigSpec::default()
        },
    };
    let resp = server.post("/simulate", &encode_request(&req));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"program\": \"tiny\""), "{}", resp.body);
    assert!(resp.body.contains("\"acet_cycles\":"), "{}", resp.body);
    server.shutdown();
}

#[test]
fn protocol_errors_use_the_right_status_codes() {
    let server = Running::start(DaemonConfig::default());
    assert_eq!(server.get("/healthz").status, 200);
    assert_eq!(server.get("/nope").status, 404);
    assert_eq!(server.get("/analyze").status, 405);
    assert_eq!(server.post("/metrics", "{}").status, 405);
    assert_eq!(server.post("/analyze", "not json").status, 400);
    assert_eq!(server.post("/analyze", "{}").status, 400);
    let bad_cache = encode_request(&service_request(ServiceOp::Analyze, "bs", "3:16:512"));
    assert_eq!(server.post("/analyze", &bad_cache).status, 400);
    let unknown = encode_request(&service_request(ServiceOp::Analyze, "doom", "2:16:512"));
    assert_eq!(server.post("/analyze", &unknown).status, 500);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let server = Running::start(DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    });
    let body = encode_request(&service_request(ServiceOp::Analyze, "bs", "2:16:512"));
    assert_eq!(server.post("/analyze", &body).status, 200);
    let addr = server.addr.clone();
    server.shutdown();
    assert!(
        request(addr.as_str(), "/healthz", None, Duration::from_secs(2)).is_err(),
        "a drained daemon must not serve new connections"
    );
}

/// Opens a connection and gives the daemon time to hand it to a worker,
/// so connections opened later queue behind it.
fn connect_first(addr: &str) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connects");
    thread::sleep(Duration::from_millis(200));
    conn
}

#[test]
fn an_idle_peer_cannot_wedge_the_only_worker() {
    let server = Running::start(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let idle = connect_first(&server.addr);
    let deadline = READ_TIMEOUT + Duration::from_secs(2);
    let t0 = Instant::now();
    let resp = request(server.addr.as_str(), "/healthz", None, deadline)
        .expect("healthz answers behind an idle peer");
    assert_eq!(resp.status, 200);
    assert!(
        t0.elapsed() < deadline,
        "healthz took {:?} behind an idle peer",
        t0.elapsed()
    );
    // The idle peer was closed without a response.
    let mut idle = idle;
    idle.set_read_timeout(Some(TIMEOUT)).expect("sets timeout");
    let mut got = Vec::new();
    idle.read_to_end(&mut got)
        .expect("server closed the idle peer");
    assert!(
        got.is_empty(),
        "idle peer got {:?}",
        String::from_utf8_lossy(&got)
    );

    // A drain completes while an idle peer holds the only worker.
    let _attached = connect_first(&server.addr);
    server.shutdown();
}

#[test]
fn a_request_stalled_partway_gets_408() {
    let server = Running::start(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let mut conn = TcpStream::connect(server.addr.as_str()).expect("connects");
    conn.write_all(b"GET /healthz HTTP/1.1\r\nhost: rtpfd\r\n")
        .expect("sends a partial head");
    conn.set_read_timeout(Some(TIMEOUT)).expect("sets timeout");
    let mut got = String::new();
    conn.read_to_string(&mut got).expect("reads the response");
    assert!(got.starts_with("HTTP/1.1 408 "), "got {got:?}");
    assert_eq!(server.get("/healthz").status, 200);
    server.shutdown();
}
