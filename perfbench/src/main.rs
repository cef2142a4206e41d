//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|serve-cold|serve-warm --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is a closed loop driven from this one process with at
//! most `nproc` client threads. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it runs the workload twice (untraced, then
//! with spans around each layer's public calls) and prints the per-layer
//! metrics, a self-time table, and writes a Chrome trace. The last line of
//! standard output is always one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Records and traces go to `perfbench/out/`.

mod serve;
mod stats;
mod sweep;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Span;

/// End-to-end metrics (`--trace 0`), with units, in print order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wcet_ratio_gmean", "ratio"),
    ("acet_ratio_gmean", "ratio"),
    ("energy_ratio_gmean", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units, in print order. A metric
/// that does not apply to a workload reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("wcet.analyze_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("audit.soundness_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("engine.unit_rest_ms", "ms"),
    ("engine.grid.busy_ms", "ms"),
    ("engine.grid.idle_ms", "ms"),
    ("engine.handle_hit_spec_ms", "ms"),
    ("engine.handle_hit_inline_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("engine.store.hits", "count"),
    ("engine.store.misses", "count"),
    ("engine.store.coalesced", "count"),
    ("engine.store.hit_ratio", "ratio"),
    ("engine.store.compute_ms", "ms"),
    ("engine.store.coalesce_wait_ms", "ms"),
    ("engine.store.bytes_mb", "MB"),
    ("core.candidates", "count"),
    ("core.inserted", "count"),
    ("core.insert_yield", "ratio"),
    ("core.rejected_by_verifier", "count"),
    ("sim.prefetch_useful_ratio", "ratio"),
    ("serve.failed_connect", "count"),
    ("serve.failed_status", "count"),
    ("serve.failed_timeout", "count"),
    ("serve.failed_mismatch", "count"),
    ("error_rate", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The three workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Seeded draw of units from the LRU evaluation grid.
    Sweep,
    /// One client sending requests that all miss a fresh daemon's store.
    ServeCold,
    /// `nproc` clients sending requests that all hit a filled store.
    ServeWarm,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "sweep" => Some(Workload::Sweep),
            "serve-cold" => Some(Workload::ServeCold),
            "serve-warm" => Some(Workload::ServeWarm),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::ServeCold => "serve-cold",
            Workload::ServeWarm => "serve-warm",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per run (split across the two phases of a traced
    /// run).
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let num = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what} must be a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(num("--seed")?),
            "--seconds" => seconds = Some(num("--seconds")?.max(1) as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Why an op failed. Ops are never retried.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fail {
    /// Connect error or connection reset.
    Connect,
    /// Non-200 status (or an engine error on an in-process call).
    Status,
    /// The request timed out.
    Timeout,
    /// The output differed from the reference.
    Mismatch,
}

/// Failed ops per class.
#[derive(Clone, Copy, Default, Debug)]
pub struct Failures {
    connect: u64,
    status: u64,
    timeout: u64,
    mismatch: u64,
}

impl Failures {
    /// Counts one failure.
    pub fn add(&mut self, f: Fail) {
        match f {
            Fail::Connect => self.connect += 1,
            Fail::Status => self.status += 1,
            Fail::Timeout => self.timeout += 1,
            Fail::Mismatch => self.mismatch += 1,
        }
    }

    /// Every failed op.
    pub fn total(&self) -> u64 {
        self.connect + self.status + self.timeout + self.mismatch
    }
}

/// The latencies and wall time of one closed-loop phase.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Per-op latency in ms, failed ops as +inf (a failure misses every
    /// latency limit).
    pub latencies_ms: Vec<f64>,
    /// Per-op completion time, in seconds since the phase's first send.
    pub ends_s: Vec<f64>,
    /// From the first send to the last completion.
    pub wall_s: f64,
}

impl Phase {
    /// Completed ops per second (failed ops excluded).
    pub fn throughput(&self) -> f64 {
        let ok = self.latencies_ms.iter().filter(|l| l.is_finite()).count();
        ok as f64 / self.wall_s
    }

    /// Splits the phase into `k` slices of equal wall time, assigning
    /// each op to the slice it completed in.
    pub fn slices(&self, k: usize) -> Vec<Phase> {
        let w = self.wall_s / k as f64;
        let mut out = vec![
            Phase {
                wall_s: w,
                ..Phase::default()
            };
            k
        ];
        for (&ms, &end) in self.latencies_ms.iter().zip(&self.ends_s) {
            let s = ((end / w) as usize).min(k - 1);
            out[s].latencies_ms.push(ms);
            out[s].ends_s.push(end - s as f64 * w);
        }
        out
    }
}

/// Time-boxing of a closed loop: run until `seconds` have passed, then
/// keep going until `min_ops` ops are done so the p99 keeps ten samples
/// beyond it, or the whole input is done — but never past six times the
/// budget, which keeps a run well inside three minutes.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    start: Instant,
    soft: Duration,
    hard: Duration,
    min_ops: usize,
}

impl Budget {
    /// A budget starting now.
    pub fn new(seconds: f64, min_ops: usize) -> Budget {
        Budget {
            start: Instant::now(),
            soft: Duration::from_secs_f64(seconds),
            hard: Duration::from_secs_f64(6.0 * seconds),
            min_ops,
        }
    }

    /// Whether another op may start after `done` completed ones.
    pub fn more(&self, done: usize) -> bool {
        let t = self.start.elapsed();
        t < self.hard && (t < self.soft || done < self.min_ops)
    }
}

/// Everything a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Failed ops per class.
    pub failures: Failures,
    /// Check failures that are not tied to one op.
    pub problems: Vec<String>,
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
    /// Workload parameters, as a JSON object.
    pub params: String,
}

impl Outcome {
    /// Fills the latency and throughput metrics with their medians over
    /// `phases`, slices of equal work; a slice that runs while the machine
    /// is briefly slower then moves them less.
    pub fn set_phases(&mut self, phases: &[Phase]) -> Result<(), String> {
        let (mut p50, mut p99, mut ops_s) = (Vec::new(), Vec::new(), Vec::new());
        for phase in phases {
            let mut sorted = phase.latencies_ms.clone();
            sorted.sort_by(f64::total_cmp);
            let pick = |pct| {
                stats::percentile(&sorted, pct).ok_or_else(|| {
                    format!(
                        "p{pct} needs {} samples, a slice of the run made {}",
                        stats::min_samples(pct),
                        sorted.len()
                    )
                })
            };
            p50.push(pick(50)?);
            p99.push(pick(99)?);
            ops_s.push(phase.throughput());
        }
        let median = |v: &[f64]| stats::median(v).ok_or("no measured phase");
        self.e2e.insert("latency_p50_ms", median(&p50)?);
        self.e2e.insert("latency_p99_ms", median(&p99)?);
        self.e2e.insert("throughput_ops_s", median(&ops_s)?);
        Ok(())
    }

    /// Records the gmean of `ratios` under `name`.
    pub fn set_gmean(&mut self, name: &'static str, ratios: &[f64]) {
        match stats::gmean(ratios) {
            Some(g) => {
                self.e2e.insert(name, g);
            }
            None => self
                .problems
                .push(format!("{name}: no positive finite ratios to average")),
        }
    }

    /// Records store-counter deltas (see [`store_delta`]) under
    /// `engine.store.*`.
    pub fn set_store(&mut self, d: &rtpf_engine::StoreMetrics) {
        let lookups = (d.hits + d.misses).max(1) as f64;
        self.layer.insert("engine.store.hits", d.hits as f64);
        self.layer.insert("engine.store.misses", d.misses as f64);
        self.layer
            .insert("engine.store.coalesced", d.coalesced as f64);
        self.layer
            .insert("engine.store.hit_ratio", d.hits as f64 / lookups);
        self.layer
            .insert("engine.store.compute_ms", d.compute_ns as f64 / 1e6);
        self.layer.insert(
            "engine.store.coalesce_wait_ms",
            d.coalesce_wait_ns as f64 / 1e6,
        );
        self.layer
            .insert("engine.store.bytes_mb", d.bytes_in_use as f64 / 1e6);
    }

    /// Records the optimizer's counters under `core.*`.
    pub fn set_optimizer_counts(&mut self, candidates: u64, inserted: u64, rejected: u64) {
        self.layer.insert("core.candidates", candidates as f64);
        self.layer.insert("core.inserted", inserted as f64);
        self.layer.insert(
            "core.insert_yield",
            inserted as f64 / candidates.max(1) as f64,
        );
        self.layer
            .insert("core.rejected_by_verifier", rejected as f64);
    }

    /// Records mean span durations per name (`metric` ← `span`).
    pub fn set_span_means(&mut self, pairs: &[(&'static str, &'static str)]) {
        let rows = trace::layer_table(&self.spans);
        for &(metric, span) in pairs {
            if let Some(r) = rows.iter().find(|r| r.name == span) {
                self.layer.insert(metric, r.mean_ms());
            }
        }
    }
}

/// Store counters accumulated between two snapshots, with
/// `bytes_in_use` as the growth of resident bytes.
pub fn store_delta(
    a: &rtpf_engine::StoreMetrics,
    b: &rtpf_engine::StoreMetrics,
) -> rtpf_engine::StoreMetrics {
    rtpf_engine::StoreMetrics {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        coalesced: b.coalesced - a.coalesced,
        compute_ns: b.compute_ns - a.compute_ns,
        coalesce_wait_ns: b.coalesce_wait_ns - a.coalesce_wait_ns,
        bytes_in_use: b.bytes_in_use.saturating_sub(a.bytes_in_use),
        ..*b
    }
}

/// Runs `setup` `reps` times and returns the median wall time with the
/// last instance; earlier instances go to `discard` as they are replaced.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let v = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some(old) = last.replace(v) {
            discard(old)?;
        }
    }
    let median = stats::median(&times).expect("at least one setup ran");
    Ok((median, last.expect("at least one setup ran")))
}

/// Worker and client threads: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Small stable index of the calling thread, for trace `tid`s.
pub fn tid() -> u32 {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static TID: Cell<Option<u32>> = const { Cell::new(None) });
    TID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident memory of this process so far (`VmHWM`), in MB. A
/// workload reads it when its measured work is done, before any
/// after-the-fact computation of its reference values.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(proc_status_kb("VmHWM:").ok_or("no VmHWM in /proc/self/status")? / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Machine and build descriptor carried by every record.
fn descriptor(args: &Args, params: &str) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"cpu\": {}, \"git_rev\": {}, \"rustc\": {}, \"params\": {params}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        nproc(),
        json_str(&cpu_model()),
        json_str(&git_rev()),
        json_str(env!("PERFBENCH_RUSTC")),
    )
}

fn metrics_json(catalog: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    out.push('}');
    out
}

fn run(args: &Args) -> Result<(), String> {
    let mut o = match args.workload {
        Workload::Sweep => sweep::run(args)?,
        Workload::ServeCold => serve::cold(args)?,
        Workload::ServeWarm => serve::warm(args)?,
    };
    let failed = o.failures.total();
    let f = o.failures;
    for (name, v) in [
        ("serve.failed_connect", f.connect),
        ("serve.failed_status", f.status),
        ("serve.failed_timeout", f.timeout),
        ("serve.failed_mismatch", f.mismatch),
    ] {
        o.layer.insert(name, v as f64);
    }
    let error_rate = failed as f64 / o.attempted.max(1) as f64;
    o.layer.insert("error_rate", error_rate);
    let (catalog, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &o.layer)
    } else {
        (&END_TO_END, &o.e2e)
    };
    for (name, _) in catalog {
        match values.get(name) {
            Some(v) if !v.is_finite() => o.problems.push(format!("{name} is not finite: {v}")),
            _ => {}
        }
    }
    let correct = o.problems.is_empty() && failed == 0;
    for p in &o.problems {
        eprintln!("check failed: {p}");
    }

    let metrics = metrics_json(catalog, values);
    let desc = descriptor(args, &o.params);
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let record = format!(
        "{{\"descriptor\": {desc}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \
         \"error_rate\": {error_rate}, \"end_to_end\": {}, \"per_layer\": {}}}\n",
        o.attempted,
        metrics_json(&END_TO_END, &o.e2e),
        metrics_json(&PER_LAYER, &o.layer),
    );
    let record_path = dir.join(format!("{tag}.json"));
    std::fs::write(&record_path, record).map_err(|e| format!("write record: {e}"))?;

    println!("record: {desc}");
    println!(
        "attempted {} failed {failed} (connect {} status {} timeout {} mismatch {}) error_rate {error_rate}",
        o.attempted, f.connect, f.status, f.timeout, f.mismatch
    );
    if args.trace {
        let trace_path = dir.join(format!("trace-{tag}.json"));
        std::fs::write(&trace_path, trace::chrome_json(&o.spans))
            .map_err(|e| format!("write trace: {e}"))?;
        print!("{}", trace::render_table(&trace::layer_table(&o.spans)));
        println!("trace: {}", trace_path.display());
    }
    for (name, unit) in catalog {
        println!(
            "  {name:<32} {:>16.6} {unit}",
            values.get(name).copied().unwrap_or(0.0)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        o.attempted
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload sweep|serve-cold|serve-warm --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_serve::json::Value;

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Arr(items)) = doc.get(key) else {
                panic!("{key} is a list");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .expect("string")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-warm --seed 9 --seconds 3 --trace 1",
        ))
        .expect("parses");
        assert_eq!(a.workload, Workload::ServeWarm);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload sweep --trace 2")).is_err());
        assert!(parse_args(&argv("--workload sweep --bogus 1")).is_err());
    }

    #[test]
    fn slices_split_by_completion_time_and_medians_are_reported() {
        let n = 3000;
        let phase = Phase {
            latencies_ms: (0..n).map(|i| if i < 1000 { 9.0 } else { 1.0 }).collect(),
            ends_s: (0..n).map(|i| i as f64 / 1000.0).collect(),
            wall_s: 3.0,
        };
        let slices = phase.slices(3);
        assert!(slices.iter().all(|s| s.latencies_ms.len() == 1000));
        assert_eq!(slices[0].latencies_ms[0], 9.0);
        assert!((slices[2].throughput() - 1000.0).abs() < 1e-9);
        let mut o = Outcome::default();
        o.set_phases(&slices).expect("enough samples");
        // The slow first slice is outvoted by the two fast ones.
        assert_eq!(o.e2e["latency_p50_ms"], 1.0);
        assert_eq!(o.e2e["latency_p99_ms"], 1.0);
        assert!(
            o.set_phases(&phase.slices(4)).is_err(),
            "750 < 1000 for p99"
        );
    }

    #[test]
    fn budget_extends_until_enough_samples() {
        let b = Budget {
            start: Instant::now(),
            soft: Duration::ZERO,
            hard: Duration::from_secs(60),
            min_ops: 3,
        };
        assert!(b.more(2), "past the soft limit but short of samples");
        assert!(!b.more(3));
    }
}
