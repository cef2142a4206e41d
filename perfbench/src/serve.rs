//! The `serve-cold` and `serve-warm` workloads: an in-process `rtpfd`
//! (`Daemon::bind` on `127.0.0.1:0`, `workers = nproc`) driven over HTTP
//! by closed-loop clients in this process.
//!
//! - `serve-cold`: one client sends a seeded shuffle of distinct requests
//!   to a fresh daemon, so every request misses the store.
//! - `serve-warm`: the store is filled during set-up, then `nproc` clients
//!   send a seeded uniform draw over the distinct requests, so every
//!   request hits.
//!
//! Every response must be byte-identical to the library path
//! (`ServiceCore::handle(..).to_json()`), every optimize response must
//! satisfy Theorem 1, and every audit response must report zero unsound
//! classifications and zero denials.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rtpf_audit::{DiagnosticSink, SoundnessOptions};
use rtpf_engine::{
    Engine, EngineError, ProgramSource, ServiceCore, ServiceOp, ServiceRequest, StoreConfig,
};
use rtpf_isa::Program;
use rtpf_serve::json::Value;
use rtpf_serve::{decode_request, encode_request, http, Daemon, DaemonConfig};

use crate::trace::Tracer;
use crate::workload::{cold_pool, warm_draws, warm_set};
use crate::{
    nproc, stats, store_delta, tid, timed_setup, Args, Budget, Fail, Failures, Outcome, Phase,
};

/// Per-request client timeout; a request slower than this is a failure.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Set-up repetitions whose median is `setup_s` (cold: bind and start).
const COLD_SETUP_REPS: usize = 51;
/// Set-up repetitions for `serve-warm` (bind, start, fill the store).
const WARM_SETUP_REPS: usize = 3;
/// Equal-time slices of a warm run whose medians are reported.
const WARM_SLICES: usize = 5;
/// In-process repetitions of each distinct warm request in a traced run.
const WARM_INPROC_REPS: usize = 3;

/// A running in-process daemon.
struct Server {
    addr: SocketAddr,
    core: Arc<ServiceCore>,
    thread: JoinHandle<io::Result<()>>,
}

impl Server {
    /// Binds an ephemeral loopback port, starts the accept loop, and
    /// waits until `/healthz` answers.
    fn start(workers: usize) -> Result<Server, String> {
        let daemon = Daemon::bind(DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue: 1024,
            store: StoreConfig::default(),
        })
        .map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
        let addr = daemon.local_addr();
        let core = Arc::clone(daemon.core());
        let thread = std::thread::spawn(move || daemon.run());
        let server = Server { addr, core, thread };
        match http::request(addr, "/healthz", None, TIMEOUT) {
            Ok(r) if r.status == 200 => Ok(server),
            other => {
                let _ = server.stop();
                Err(format!("daemon did not come up: {other:?}"))
            }
        }
    }

    /// Drains the daemon and waits for it to exit.
    fn stop(self) -> Result<(), String> {
        let ack = http::request(self.addr, "/shutdown", Some("{}"), TIMEOUT);
        let exit = self.thread.join().map_err(|_| "daemon thread panicked")?;
        ack.map_err(|e| format!("shutdown request: {e}"))?;
        exit.map_err(|e| format!("daemon exited with {e}"))
    }
}

/// One request over HTTP, failures classified, never retried.
fn call(addr: SocketAddr, op: ServiceOp, body: &str) -> Result<String, Fail> {
    match http::request(addr, &format!("/{}", op.name()), Some(body), TIMEOUT) {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(_) => Err(Fail::Status),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ) =>
        {
            Err(Fail::Timeout)
        }
        Err(_) => Err(Fail::Connect),
    }
}

/// One client's record of a closed-loop phase.
#[derive(Default)]
struct ClientLog {
    first: Option<Instant>,
    last: Option<Instant>,
    /// `(request index, completion, latency ms, body or failure)`.
    ops: Vec<(usize, Instant, f64, Result<String, Fail>)>,
}

/// Runs `clients` closed-loop clients; client `c` sends request
/// `pick(c, j)` as its `j`-th op until the budget is spent or the picks
/// run out. `op` performs one request and returns its outcome.
fn closed_loop(
    clients: usize,
    budget: Budget,
    pick: &(dyn Fn(usize, usize) -> Option<usize> + Sync),
    op: &(dyn Fn(usize, usize) -> Result<String, Fail> + Sync),
) -> (Phase, Vec<ClientLog>) {
    let done = AtomicUsize::new(0);
    let t0 = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let done = &done;
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut j = 0;
                    while budget.more(done.load(Ordering::Relaxed)) {
                        let Some(i) = pick(c, j) else { break };
                        j += 1;
                        let t = Instant::now();
                        log.first.get_or_insert(t);
                        let r = op(c, i);
                        let end = Instant::now();
                        log.last = Some(end);
                        log.ops.push((i, end, (end - t).as_secs_f64() * 1e3, r));
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let first = logs.iter().filter_map(|l| l.first).min().unwrap_or(t0);
    let last = logs.iter().filter_map(|l| l.last).max().unwrap_or(first);
    let ops = || logs.iter().flat_map(|l| &l.ops);
    let phase = Phase {
        latencies_ms: ops()
            .map(|(_, _, ms, r)| if r.is_ok() { *ms } else { f64::INFINITY })
            .collect(),
        ends_s: ops()
            .map(|(_, end, _, _)| (*end - first).as_secs_f64())
            .collect(),
        wall_s: (last - first).as_secs_f64(),
    };
    (phase, logs)
}

/// Semantic checks on one response body: Theorem 1 on optimize, zero
/// unsound results and zero denials on audit.
fn semantic_ok(op: ServiceOp, body: &str) -> bool {
    let Ok(doc) = Value::parse(body) else {
        return false;
    };
    let Some(result) = doc.get("result") else {
        return false;
    };
    let flag = |k| result.get(k).and_then(Value::as_bool) == Some(true);
    let zero = |k| result.get(k).and_then(Value::as_u64) == Some(0);
    match op {
        ServiceOp::Optimize => flag("equivalent") && flag("wcet_preserved"),
        ServiceOp::Audit => zero("unsound") && zero("denials"),
        ServiceOp::Analyze | ServiceOp::Simulate => true,
    }
}

/// Optimizer counters `(candidates, inserted, rejected)` of an optimize
/// response.
fn optimize_counts(body: &str) -> Option<[u64; 3]> {
    let doc = Value::parse(body).ok()?;
    let r = doc.get("result")?;
    let n = |k| r.get(k).and_then(Value::as_u64);
    Some([
        n("candidates_seen")?,
        n("inserted")?,
        n("rejected_by_verifier")?,
    ])
}

/// The engine and program a `suite:` request runs on, for calling stages
/// directly.
fn engine_and_program(
    core: &ServiceCore,
    req: &ServiceRequest,
) -> Result<(Arc<Engine>, Arc<Program>), String> {
    let ProgramSource::Spec(spec) = &req.program else {
        return Err("direct stage calls take suite: programs only".to_string());
    };
    let engine = core.engine_for(req.config.resolve().map_err(|e| e.to_string())?);
    let (_, p) = engine.load(spec).map_err(|e| e.to_string())?;
    Ok((engine, p))
}

/// The WCET, ACET and 45 nm energy ratio gmeans over the distinct
/// optimize requests served, all three from the Condition-3 gated
/// optimization of each request's program and configuration, as `sweep`
/// reports them per unit. The benchmark prints every end-to-end metric on
/// every workload, so the serve workloads report these too. They are
/// computed on the daemon's engines after the timed phase and after
/// `peak_rss_mb` is read, so they move neither.
fn ratios(core: &ServiceCore, served: &[&ServiceRequest], o: &mut Outcome) -> Result<(), String> {
    let (mut w, mut a, mut e) = (Vec::new(), Vec::new(), Vec::new());
    for req in served.iter().filter(|r| r.op == ServiceOp::Optimize) {
        let (engine, p) = engine_and_program(core, req)?;
        let g = engine.gated_optimize(&p).map_err(|e| e.to_string())?;
        w.push(g.opt.report.wcet_after as f64 / g.opt.report.wcet_before as f64);
        a.push(g.sim_opt.acet_cycles() / g.sim_orig.acet_cycles());
        e.push(
            engine.energies(&g.sim_opt)[0].total_nj() / engine.energies(&g.sim_orig)[0].total_nj(),
        );
    }
    o.set_gmean("wcet_ratio_gmean", &w);
    o.set_gmean("acet_ratio_gmean", &a);
    o.set_gmean("energy_ratio_gmean", &e);
    Ok(())
}

/// The traced form of one cold request: the stage calls the op makes,
/// each in its own span, then `handle` (all hits) in-process, then the
/// HTTP round trip (all hits). A session sends analyze before audit, so
/// the audit's analysis is already cached and only the soundness walks
/// are timed. Audit skips the in-process `handle`: its soundness walks
/// are not a stored artifact, so a second in-process pass would only
/// repeat them.
fn traced_cold_op(
    t: &Tracer,
    core: &ServiceCore,
    addr: SocketAddr,
    i: usize,
    req: &ServiceRequest,
    body: &str,
) -> Result<String, Fail> {
    let op = i as u64;
    t.span("serve.request", None, op, tid(), |root| {
        let stage = |name, f: &dyn Fn() -> Result<(), EngineError>| {
            t.span(name, Some(root), op, tid(), |_| f())
                .map_err(|_| Fail::Status)
        };
        let (engine, p) = engine_and_program(core, req).map_err(|_| Fail::Status)?;
        match req.op {
            ServiceOp::Analyze => stage("wcet.analyze", &|| engine.analysis(&p).map(drop))?,
            ServiceOp::Optimize => {
                stage("core.optimize", &|| engine.optimized(&p).map(drop))?;
                stage("core.verify", &|| engine.verified(&p).map(drop))?;
            }
            ServiceOp::Audit => {
                stage("audit.soundness", &|| {
                    let mut sink = DiagnosticSink::new(engine.config().severity().clone());
                    engine.audit_ir(&p, &mut sink);
                    let opts = SoundnessOptions::default();
                    engine
                        .audit_soundness(&p, &mut sink, &opts, false)
                        .map(drop)
                })?;
            }
            ServiceOp::Simulate => stage("sim.simulate", &|| engine.simulated(&p).map(drop))?,
        }
        if req.op != ServiceOp::Audit {
            t.span("engine.handle_hit_spec", Some(root), op, tid(), |_| {
                core.handle(req)
            })
            .map_err(|_| Fail::Status)?;
        }
        t.span("serve.roundtrip", Some(root), op, tid(), |_| {
            call(addr, req.op, body)
        })
    })
}

/// Checks every served cold response against the library path on the
/// daemon's own core (all hits once the phase is over) plus the semantic
/// checks. Failed ops count once per class and their latency becomes
/// +inf; returns the requests that passed.
fn check_cold<'a>(
    core: &ServiceCore,
    pool: &'a [ServiceRequest],
    logs: &[ClientLog],
    phase: &mut Phase,
    failures: &mut Failures,
) -> Vec<&'a ServiceRequest> {
    let mut passed = Vec::new();
    for (k, (i, _, _, r)) in logs.iter().flat_map(|l| &l.ops).enumerate() {
        let req = &pool[*i];
        let verdict = match r {
            Err(f) => Err(*f),
            Ok(body) => match core.handle(req) {
                Ok(want) if want.to_json() == *body && semantic_ok(req.op, body) => Ok(()),
                _ => Err(Fail::Mismatch),
            },
        };
        match verdict {
            Ok(_) => passed.push(req),
            Err(f) => {
                failures.add(f);
                phase.latencies_ms[k] = f64::INFINITY;
            }
        }
    }
    passed
}

/// Runs `serve-cold` (see the module docs).
pub fn cold(args: &Args) -> Result<Outcome, String> {
    let workers = nproc();
    let pool = cold_pool(args.seed);
    let bodies: Vec<String> = pool.iter().map(encode_request).collect();
    let mut o = Outcome {
        params: format!(
            "{{\"clients\": 1, \"daemon_workers\": {workers}, \"requests\": {}, \
             \"configs\": {:?}, \"profile\": \"interactive (threads auto)\"}}",
            pool.len(),
            crate::workload::SERVE_CONFIGS.map(|(k, p, l2)| format!("k{}:{p}:l2={l2}", k + 1)),
        ),
        ..Outcome::default()
    };
    let (setup_s, server) = timed_setup(COLD_SETUP_REPS, || Server::start(workers), Server::stop)?;
    o.e2e.insert("setup_s", setup_s);

    // An untraced run serves the whole pool, so every run does the same
    // work whatever the seed; a traced run times the same prefix twice.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let min_ops = if args.trace { 1 } else { pool.len() };
    let pick = |_: usize, j: usize| (j < pool.len()).then_some(j);
    let (mut phase, logs) = closed_loop(1, Budget::new(seconds, min_ops), &pick, &|_, i| {
        call(server.addr, pool[i].op, &bodies[i])
    });
    // The store is fresh, so its counters are the phase's.
    let store = server.core.store().metrics();
    let passed = check_cold(&server.core, &pool, &logs, &mut phase, &mut o.failures);
    o.attempted = phase.latencies_ms.len() as u64;
    if !args.trace && phase.latencies_ms.len() < pool.len() {
        o.problems.push(format!(
            "the run stopped at its time limit after {} of {} requests",
            phase.latencies_ms.len(),
            pool.len()
        ));
    }
    if args.trace {
        let traced_server = Server::start(workers)?;
        let tracer = Tracer::new();
        let (mut traced, traced_logs) =
            closed_loop(1, Budget::new(seconds, min_ops), &pick, &|_, i| {
                let s = &traced_server;
                traced_cold_op(&tracer, &s.core, s.addr, i, &pool[i], &bodies[i])
            });
        o.set_store(&traced_server.core.store().metrics());
        check_cold(
            &traced_server.core,
            &pool,
            &traced_logs,
            &mut traced,
            &mut o.failures,
        );
        traced_server.stop()?;
        o.attempted += traced.latencies_ms.len() as u64;
        o.layer.insert(
            "trace.overhead_ratio",
            phase.throughput() / traced.throughput(),
        );
        o.spans = tracer.finish();
        o.set_span_means(&[
            ("wcet.analyze_ms", "wcet.analyze"),
            ("core.optimize_ms", "core.optimize"),
            ("core.verify_ms", "core.verify"),
            ("audit.soundness_ms", "audit.soundness"),
            ("sim.simulate_ms", "sim.simulate"),
            ("engine.handle_hit_spec_ms", "engine.handle_hit_spec"),
            ("serve.roundtrip_ms", "serve.roundtrip"),
        ]);
        let mut counts = [0u64; 3];
        for (i, _, _, r) in traced_logs.iter().flat_map(|l| &l.ops) {
            if let (ServiceOp::Optimize, Ok(body)) = (pool[*i].op, r) {
                let c = optimize_counts(body).unwrap_or_default();
                for (acc, v) in counts.iter_mut().zip(c) {
                    *acc += v;
                }
            }
        }
        o.set_optimizer_counts(counts[0], counts[1], counts[2]);
        o.e2e.insert("peak_rss_mb", crate::peak_rss_mb()?);
    } else {
        o.set_phases(&[phase])?;
        o.set_store(&store);
        o.e2e.insert("peak_rss_mb", crate::peak_rss_mb()?);
        ratios(&server.core, &passed, &mut o)?;
    }
    server.stop()?;
    Ok(o)
}

/// The warm set, encoded, with its library-path responses.
struct Warm {
    set: Vec<ServiceRequest>,
    bodies: Vec<String>,
    expected: Vec<String>,
}

/// Set-up for `serve-warm`: start a daemon and fill its store with every
/// distinct request through the library path.
fn warm_start(workers: usize, set: &[ServiceRequest]) -> Result<(Server, Vec<String>), String> {
    let server = Server::start(workers)?;
    let expected = rtpf_engine::Grid {
        workers,
        ..rtpf_engine::Grid::default()
    }
    .run(set, |_, r| server.core.handle(r).map(|r| r.to_json()));
    match expected.into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(expected) => Ok((server, expected)),
        Err(e) => {
            let _ = server.stop();
            Err(format!("filling the store: {e}"))
        }
    }
}

/// In-process timing of the warm hit path on every distinct request:
/// `decode_request`, `ServiceCore::handle`, `ServiceResponse::to_json`.
fn warm_inproc(t: &Tracer, core: &ServiceCore, w: &Warm) -> Result<(), String> {
    for rep in 0..WARM_INPROC_REPS {
        for (i, (req, body)) in w.set.iter().zip(&w.bodies).enumerate() {
            let op = (rep * w.set.len() + i) as u64;
            t.span("serve.inproc", None, op, tid(), |root| {
                let decoded = t
                    .span("serve.decode", Some(root), op, tid(), |_| {
                        decode_request(req.op.name(), body.as_bytes())
                    })
                    .map_err(|e| e.to_string())?;
                let name = match req.program {
                    ProgramSource::Spec(_) => "engine.handle_hit_spec",
                    ProgramSource::Inline { .. } => "engine.handle_hit_inline",
                };
                let resp = t
                    .span(name, Some(root), op, tid(), |_| core.handle(&decoded))
                    .map_err(|e| e.to_string())?;
                let json = t.span("serve.encode", Some(root), op, tid(), |_| resp.to_json());
                if json != w.expected[i] {
                    return Err(format!("in-process response {i} differs from the fill"));
                }
                Ok(())
            })?;
        }
    }
    Ok(())
}

/// Runs `serve-warm` (see the module docs).
pub fn warm(args: &Args) -> Result<Outcome, String> {
    let workers = nproc();
    let clients = workers;
    let set = warm_set();
    let bodies: Vec<String> = set.iter().map(encode_request).collect();
    let (setup_s, (server, expected)) = timed_setup(
        WARM_SETUP_REPS,
        || warm_start(workers, &set),
        |(s, _)| s.stop(),
    )?;
    let w = Warm {
        set,
        bodies,
        expected,
    };
    let mut o = Outcome {
        params: format!(
            "{{\"clients\": {clients}, \"daemon_workers\": {workers}, \
             \"distinct_requests\": {}, \"inline_share\": 0.5, \
             \"profile\": \"interactive (threads auto)\", \"slices\": {WARM_SLICES}}}",
            w.set.len(),
        ),
        ..Outcome::default()
    };
    o.e2e.insert("setup_s", setup_s);
    for (req, body) in w.set.iter().zip(&w.expected) {
        if !semantic_ok(req.op, body) {
            o.problems.push(format!("semantic check failed: {body}"));
        }
    }

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let min_ops = if args.trace {
        1
    } else {
        WARM_SLICES * stats::min_samples(99)
    };
    // Enough draws for any plausible rate; a client that runs out stops.
    let draws: Vec<Vec<usize>> = (0..clients)
        .map(|c| warm_draws(args.seed, c, w.set.len(), 400_000))
        .collect();
    let pick = |c: usize, j: usize| draws[c].get(j).copied();
    let check = |i: usize, r: Result<String, Fail>| match r {
        Ok(body) if body == w.expected[i] => Ok(String::new()),
        Ok(_) => Err(Fail::Mismatch),
        Err(f) => Err(f),
    };
    let addr = server.addr;
    let before = server.core.store().metrics();
    let (phase, logs) = closed_loop(clients, Budget::new(seconds, min_ops), &pick, &|_, i| {
        check(i, call(addr, w.set[i].op, &w.bodies[i]))
    });
    let delta = store_delta(&before, &server.core.store().metrics());
    let mut served: Vec<Result<String, Fail>> = logs
        .into_iter()
        .flat_map(|l| l.ops)
        .map(|(_, _, _, r)| r)
        .collect();

    if args.trace {
        let tracer = Tracer::new();
        let before = server.core.store().metrics();
        let (traced, logs) = closed_loop(clients, Budget::new(seconds, min_ops), &pick, &|_, i| {
            tracer.span("serve.roundtrip", None, i as u64, tid(), |_| {
                check(i, call(addr, w.set[i].op, &w.bodies[i]))
            })
        });
        let after = server.core.store().metrics();
        let d = store_delta(&before, &after);
        o.set_store(&d);
        if d.misses != 0 {
            o.problems.push(format!(
                "{} store misses in the traced warm phase",
                d.misses
            ));
        }
        o.layer.insert(
            "trace.overhead_ratio",
            phase.throughput() / traced.throughput(),
        );
        served.extend(logs.into_iter().flat_map(|l| l.ops).map(|(_, _, _, r)| r));
        warm_inproc(&tracer, &server.core, &w)?;
        o.spans = tracer.finish();
        o.set_span_means(&[
            ("engine.handle_hit_spec_ms", "engine.handle_hit_spec"),
            ("engine.handle_hit_inline_ms", "engine.handle_hit_inline"),
            ("serve.decode_ms", "serve.decode"),
            ("serve.encode_ms", "serve.encode"),
            ("serve.roundtrip_ms", "serve.roundtrip"),
        ]);
        let rows = crate::trace::layer_table(&o.spans);
        let mean = |names: &[&str]| {
            let (ns, n) = rows
                .iter()
                .filter(|r| names.contains(&r.name))
                .fold((0, 0), |(ns, n), r| (ns + r.total_ns, n + r.count));
            ns as f64 / n.max(1) as f64 / 1e6
        };
        o.layer.insert(
            "serve.overhead_ms",
            mean(&["serve.roundtrip"])
                - mean(&["serve.decode"])
                - mean(&["engine.handle_hit_spec", "engine.handle_hit_inline"])
                - mean(&["serve.encode"]),
        );
    } else {
        o.set_phases(&phase.slices(WARM_SLICES))?;
        o.set_store(&delta);
    }
    if delta.misses != 0 {
        o.problems.push(format!(
            "{} store misses in the timed warm phase",
            delta.misses
        ));
    }
    o.attempted = served.len() as u64;
    for r in &served {
        if let Err(f) = r {
            o.failures.add(*f);
        }
    }
    o.e2e.insert("peak_rss_mb", crate::peak_rss_mb()?);
    let specs: Vec<&ServiceRequest> = w
        .set
        .iter()
        .filter(|r| matches!(r.program, ProgramSource::Spec(_)))
        .collect();
    let core = Arc::clone(&server.core);
    server.stop()?;
    if !args.trace {
        ratios(&core, &specs, &mut o)?;
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_engine::ArtifactStore;

    #[test]
    fn semantic_checks_read_the_response_fields() {
        let opt = |eq: bool| {
            format!(
                "{{\"op\": \"optimize\", \"program\": \"bs\", \"config\": \"00\", \"result\": \
                 {{\"inserted\": 1, \"equivalent\": {eq}, \"wcet_preserved\": true, \
                 \"wcet_before\": 100, \"wcet_after\": 90}}}}"
            )
        };
        assert!(semantic_ok(ServiceOp::Optimize, &opt(true)));
        assert!(!semantic_ok(ServiceOp::Optimize, &opt(false)));
        let audit =
            |unsound: u32| format!("{{\"result\": {{\"denials\": 0, \"unsound\": {unsound}}}}}");
        assert!(semantic_ok(ServiceOp::Audit, &audit(0)));
        assert!(!semantic_ok(ServiceOp::Audit, &audit(1)));
        assert!(!semantic_ok(ServiceOp::Analyze, "not json"));
    }

    #[test]
    fn warm_responses_match_a_fresh_library_core() {
        // A second, independent core renders the same bytes for the warm
        // set's spec and inline requests.
        let set: Vec<ServiceRequest> = warm_set().into_iter().take(16).collect();
        let a = ServiceCore::new(Arc::new(ArtifactStore::in_memory()));
        let b = ServiceCore::new(Arc::new(ArtifactStore::in_memory()));
        for r in &set {
            let x = a.handle(r).expect("serves").to_json();
            assert_eq!(x, b.handle(r).expect("serves").to_json());
            assert!(semantic_ok(r.op, &x), "{x}");
        }
    }
}
