//! End-to-end sweep throughput trajectory: `results/bench_sweep.json`.
//!
//! Runs the paper's LRU evaluation grid (37 programs × 36 Table 2
//! configurations) through the same per-unit engines `run_sweep` uses,
//! aggregating each engine's [`AnalysisProfile`] so the JSON records
//! *where* the wall-clock went (vivu / fixpoint / ipet / relocation
//! phases, optimize / verify / simulate / energy stages). The file keeps
//! a `before` and an `after` record per grid so the speedup of a data
//! layer change is tracked in-repo:
//!
//! ```text
//! cargo run --release -p rtpf-bench --bin bench_sweep -- --record before
//! # ... apply the optimization ...
//! cargo run --release -p rtpf-bench --bin bench_sweep -- --record after
//! ```
//!
//! `--smoke` switches to a fixed 3-program slice (bs, fft1, statemate)
//! and the JSON's `smoke` section — cheap enough for CI. `--check` runs
//! the smoke slice and exits nonzero if its wall-clock regresses more
//! than 20% against the committed smoke record (no file rewrite), which
//! is the CI `bench-smoke` gate.
//!
//! The full run additionally recomputes every row from scratch and
//! compares the rendered CSV byte-for-byte against the committed
//! `results/sweep.csv`, recording the verdict as `csv_identical` — a
//! perf PR must move the timings *without* moving a single output byte.
//!
//! `--l2 a:b:c[:policy]` benches the grid through the two-level pipeline
//! instead; the record then carries an `l2` field naming the shared L2
//! and skips the `csv_identical` check (the committed CSV is L1-only).
//! Records written before the field existed parse with `l2` absent.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use rtpf_cache::CacheConfig;
use rtpf_engine::{Engine, EngineConfig, Grid};
use rtpf_experiments::{paper_configs_for, to_csv, UnitResult};
use rtpf_wcet::AnalysisProfile;

const SMOKE_PROGRAMS: [&str; 3] = ["bs", "fft1", "statemate"];
/// CI gate: fail when the smoke wall-clock exceeds the committed record
/// by more than this factor.
const REGRESSION_FACTOR: f64 = 1.2;

fn results_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{name}"))
}

/// One recorded measurement: wall-clock plus the per-phase/per-stage
/// breakdown summed over every unit's engine profile.
#[derive(Clone, Default)]
struct Record {
    wall_ms: f64,
    units: f64,
    vivu_ms: f64,
    fixpoint_ms: f64,
    /// Join CPU-time component of the fixpoint (memo misses only; summed
    /// over solver workers, so it can exceed `fixpoint_ms` wall clock
    /// under `--threads N`).
    join_ms: f64,
    /// Transfer (classify + fold) CPU-time component of the fixpoint.
    transfer_ms: f64,
    refine_ms: f64,
    /// Second-level pass; 0 in single-level runs.
    l2_ms: f64,
    ipet_ms: f64,
    relocation_ms: f64,
    optimize_ms: f64,
    verify_ms: f64,
    simulate_ms: f64,
    energy_ms: f64,
    /// Figure-5 shrunk-capacity probe stage wall-clock (overlaps the
    /// phase columns, like `optimize_ms` does).
    probe_ms: f64,
    /// `Some` only for full runs: recomputed CSV == committed CSV.
    csv_identical: Option<bool>,
    /// `Some` when the grid ran under a shared L2 (the `a:b:c[:policy]`
    /// spec); absent in records written before the field existed and in
    /// single-level runs.
    l2: Option<String>,
}

const NUM_FIELDS: [&str; 15] = [
    "wall_ms",
    "units",
    "vivu_ms",
    "fixpoint_ms",
    "join_ms",
    "transfer_ms",
    "refine_ms",
    "l2_ms",
    "ipet_ms",
    "relocation_ms",
    "optimize_ms",
    "verify_ms",
    "simulate_ms",
    "energy_ms",
    "probe_ms",
];

impl Record {
    fn fields(&self) -> [f64; 15] {
        [
            self.wall_ms,
            self.units,
            self.vivu_ms,
            self.fixpoint_ms,
            self.join_ms,
            self.transfer_ms,
            self.refine_ms,
            self.l2_ms,
            self.ipet_ms,
            self.relocation_ms,
            self.optimize_ms,
            self.verify_ms,
            self.simulate_ms,
            self.energy_ms,
            self.probe_ms,
        ]
    }

    fn fields_mut(&mut self) -> [&mut f64; 15] {
        [
            &mut self.wall_ms,
            &mut self.units,
            &mut self.vivu_ms,
            &mut self.fixpoint_ms,
            &mut self.join_ms,
            &mut self.transfer_ms,
            &mut self.refine_ms,
            &mut self.l2_ms,
            &mut self.ipet_ms,
            &mut self.relocation_ms,
            &mut self.optimize_ms,
            &mut self.verify_ms,
            &mut self.simulate_ms,
            &mut self.energy_ms,
            &mut self.probe_ms,
        ]
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (name, v) in NUM_FIELDS.iter().zip(self.fields()) {
            let _ = write!(s, "\"{name}\": {v:.3}, ");
        }
        if let Some(l2) = &self.l2 {
            let _ = write!(s, "\"l2\": \"{l2}\", ");
        }
        match self.csv_identical {
            Some(b) => {
                let _ = write!(s, "\"csv_identical\": {b}}}");
            }
            None => {
                s.truncate(s.len() - 2);
                s.push('}');
            }
        }
        s
    }

    fn from_json(obj: &str) -> Option<Record> {
        let mut r = Record::default();
        json_num(obj, "wall_ms")?;
        for (name, slot) in NUM_FIELDS.iter().zip(r.fields_mut()) {
            // Fields added after a baseline was recorded (refine_ms,
            // join_ms, transfer_ms, probe_ms, l2_ms) read as 0 from older
            // committed files.
            *slot = json_num(obj, name).unwrap_or(0.0);
        }
        r.csv_identical = json_bool(obj, "csv_identical");
        // Optional since the hierarchy refactor: older records have no L2.
        r.l2 = json_str(obj, "l2");
        Some(r)
    }
}

/// Value of `"key": <number>` inside a flat JSON object (the file is
/// written by this binary only, so a scan is exact enough).
fn json_num(obj: &str, key: &str) -> Option<f64> {
    let tail = &obj[obj.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let tail = tail.trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Value of `"key": "<string>"` inside a flat JSON object (our specs
/// never contain escapes).
fn json_str(obj: &str, key: &str) -> Option<String> {
    let tail = &obj[obj.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let tail = tail.trim_start().strip_prefix('"')?;
    Some(tail[..tail.find('"')?].to_string())
}

fn json_bool(obj: &str, key: &str) -> Option<bool> {
    let tail = &obj[obj.find(&format!("\"{key}\":"))? + key.len() + 3..];
    tail.trim_start().starts_with("true").then_some(true).or({
        if tail.trim_start().starts_with("false") {
            Some(false)
        } else {
            None
        }
    })
}

/// The brace-balanced object following `"name":` (our format never puts
/// braces inside strings).
fn json_section<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{name}\":"))?;
    let open = start + json[start..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[open..=open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

#[derive(Default)]
struct Trajectory {
    full_before: Option<Record>,
    full_after: Option<Record>,
    smoke_before: Option<Record>,
    smoke_after: Option<Record>,
}

impl Trajectory {
    fn load(path: &std::path::Path) -> Trajectory {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Trajectory::default();
        };
        let section_record = |grid: &str, which: &str| {
            json_section(&text, grid)
                .and_then(|s| json_section(s, which).and_then(Record::from_json))
        };
        Trajectory {
            full_before: section_record("full", "before"),
            full_after: section_record("full", "after"),
            smoke_before: section_record("smoke", "before"),
            smoke_after: section_record("smoke", "after"),
        }
    }

    fn to_json(&self) -> String {
        let grid = |s: &mut String, name: &str, before: &Option<Record>, after: &Option<Record>| {
            let _ = writeln!(s, "  \"{name}\": {{");
            if name == "smoke" {
                let names: Vec<String> =
                    SMOKE_PROGRAMS.iter().map(|p| format!("\"{p}\"")).collect();
                let _ = writeln!(s, "    \"programs\": [{}],", names.join(", "));
            }
            if let Some(b) = before {
                let _ = writeln!(s, "    \"before\": {},", b.to_json());
            }
            if let Some(a) = after {
                let _ = writeln!(s, "    \"after\": {},", a.to_json());
            }
            if let (Some(b), Some(a)) = (before, after) {
                let _ = writeln!(s, "    \"speedup\": {:.2},", b.wall_ms / a.wall_ms);
            }
            // Drop the trailing comma of the last entry.
            while s.ends_with('\n') || s.ends_with(',') {
                s.truncate(s.len() - 1);
            }
            s.push_str("\n  }");
        };
        let mut s = String::from("{\n");
        let _ = writeln!(
            s,
            "  \"units\": \"milliseconds, single run; stages summed over per-unit engine profiles\","
        );
        grid(&mut s, "full", &self.full_before, &self.full_after);
        s.push_str(",\n");
        grid(&mut s, "smoke", &self.smoke_before, &self.smoke_after);
        s.push_str("\n}\n");
        s
    }
}

/// Runs the grid (full suite, or the smoke slice) exactly the way
/// `run_sweep` does — one ephemeral engine per unit on the work-stealing
/// grid — capturing each engine's profile.
fn measure(smoke: bool, threads: usize, l2: Option<CacheConfig>) -> Record {
    let suite: Vec<_> = rtpf_suite::catalog()
        .into_iter()
        .filter(|b| !smoke || SMOKE_PROGRAMS.contains(&b.name))
        .collect();
    assert!(!suite.is_empty(), "suite slice must not be empty");
    let configs = paper_configs_for(rtpf_cache::ReplacementPolicy::Lru);
    let units: Vec<(usize, usize)> = (0..suite.len())
        .flat_map(|p| (0..configs.len()).map(move |c| (p, c)))
        .collect();
    let grid = Grid {
        progress_every: 100,
        label: "bench_sweep",
        ..Grid::default()
    };

    let t0 = Instant::now();
    let results: Vec<(UnitResult, AnalysisProfile)> = grid.run(&units, |_, &(pi, ci)| {
        let b = &suite[pi];
        let (k, config) = &configs[ci];
        let mut econfig = EngineConfig::evaluation(*config).with_threads(threads);
        if let Some(l2c) = l2 {
            econfig = econfig
                .with_l2(l2c)
                .expect("every Table 2 geometry sits under the benched L2");
        }
        let engine = Engine::new(econfig);
        let unit = engine
            .unit(b.name, k, &b.program)
            .expect("suite programs evaluate");
        ((*unit).clone(), engine.profile())
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut prof = AnalysisProfile::default();
    for (_, p) in &results {
        prof.add(p);
    }
    let csv_identical = if smoke || l2.is_some() {
        None
    } else {
        let mut rows: Vec<UnitResult> = results.into_iter().map(|(r, _)| r).collect();
        rows.sort_by(|a, b| (&a.program, &a.k).cmp(&(&b.program, &b.k)));
        let committed = std::fs::read_to_string(results_path("sweep.csv")).ok();
        Some(committed.is_some_and(|disk| disk == to_csv(&rows)))
    };

    let ms = |ns: u64| ns as f64 / 1e6;
    Record {
        wall_ms,
        units: units.len() as f64,
        vivu_ms: ms(prof.vivu_ns),
        fixpoint_ms: ms(prof.fixpoint_ns),
        join_ms: ms(prof.join_ns),
        transfer_ms: ms(prof.transfer_ns),
        refine_ms: ms(prof.refine_ns),
        l2_ms: ms(prof.l2_ns),
        ipet_ms: ms(prof.ipet_ns),
        relocation_ms: ms(prof.relocation_ns),
        optimize_ms: ms(prof.optimize_ns),
        verify_ms: ms(prof.verify_ns),
        simulate_ms: ms(prof.simulate_ns),
        energy_ms: ms(prof.energy_ns),
        probe_ms: ms(prof.probe_ns),
        csv_identical,
        l2: l2.map(|c| {
            format!(
                "{}:{}:{}:{}",
                c.assoc(),
                c.block_bytes(),
                c.capacity_bytes(),
                c.policy()
            )
        }),
    }
}

fn print_record(label: &str, r: &Record) {
    println!(
        "{label:<8} wall {:>10.1} ms | fixpoint {:>9.1} (join {:>7.1} + transfer {:>7.1}) | \
         refine {:>6.1} | l2 {:>6.1} | vivu {:>7.1} | ipet {:>7.1} | reloc {:>7.1} | optimize {:>9.1} | \
         simulate {:>8.1} | energy {:>6.1} | probes {:>7.1}",
        r.wall_ms,
        r.fixpoint_ms,
        r.join_ms,
        r.transfer_ms,
        r.refine_ms,
        r.l2_ms,
        r.vivu_ms,
        r.ipet_ms,
        r.relocation_ms,
        r.optimize_ms,
        r.simulate_ms,
        r.energy_ms,
        r.probe_ms
    );
    if let Some(same) = r.csv_identical {
        println!(
            "         sweep.csv byte-identical to committed artifact: {}",
            if same { "yes" } else { "NO — INVESTIGATE" }
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke") || args.iter().any(|a| a == "--check");
    let check = args.iter().any(|a| a == "--check");
    // Analysis worker threads per unit engine. Defaults to 1: the grid
    // already runs one worker per core, so per-engine fan-out is only
    // useful when pinning the grid down (or proving thread-determinism).
    let threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map_or(1, |v| v.parse().expect("--threads takes a number"));
    let l2: Option<CacheConfig> = args
        .iter()
        .position(|a| a == "--l2")
        .and_then(|i| args.get(i + 1))
        .map(|v| CacheConfig::parse_spec(v).unwrap_or_else(|e| panic!("--l2 {v}: {e}")));
    let record_as = args
        .iter()
        .position(|a| a == "--record")
        .and_then(|i| args.get(i + 1))
        .map_or("after", String::as_str);
    assert!(
        matches!(record_as, "before" | "after"),
        "--record takes 'before' or 'after'"
    );

    let path = results_path("bench_sweep.json");
    let mut traj = Trajectory::load(&path);

    if check {
        let baseline = traj
            .smoke_after
            .or(traj.smoke_before)
            .expect("--check needs a committed smoke record in results/bench_sweep.json");
        let fresh = measure(true, threads, l2);
        print_record("baseline", &baseline);
        print_record("fresh", &fresh);
        let limit = baseline.wall_ms * REGRESSION_FACTOR;
        if fresh.wall_ms > limit {
            eprintln!(
                "bench-smoke REGRESSION: {:.1} ms > {:.1} ms ({}x committed {:.1} ms)",
                fresh.wall_ms, limit, REGRESSION_FACTOR, baseline.wall_ms
            );
            std::process::exit(1);
        }
        println!(
            "bench-smoke ok: {:.1} ms <= {:.1} ms limit",
            fresh.wall_ms, limit
        );
        return;
    }

    let fresh = measure(smoke, threads, l2);
    let slot = match (smoke, record_as) {
        (false, "before") => &mut traj.full_before,
        (false, _) => &mut traj.full_after,
        (true, "before") => &mut traj.smoke_before,
        (true, _) => &mut traj.smoke_after,
    };
    *slot = Some(fresh);

    std::fs::create_dir_all(path.parent().expect("has parent")).expect("results dir");
    std::fs::write(&path, traj.to_json()).expect("write bench_sweep.json");

    let (before, after) = if smoke {
        (traj.smoke_before, traj.smoke_after)
    } else {
        (traj.full_before, traj.full_after)
    };
    if let Some(b) = &before {
        print_record("before", b);
    }
    if let Some(a) = &after {
        print_record("after", a);
    }
    if let (Some(b), Some(a)) = (before, after) {
        println!("speedup: {:.2}x end-to-end", b.wall_ms / a.wall_ms);
    }
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips_with_the_l2_field() {
        let r = Record {
            wall_ms: 12.5,
            units: 3.0,
            l2: Some("8:16:16384:lru".into()),
            csv_identical: None,
            ..Record::default()
        };
        let parsed = Record::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed.l2.as_deref(), Some("8:16:16384:lru"));
        assert_eq!(parsed.wall_ms, 12.5);
    }

    #[test]
    fn l2_ms_roundtrips_and_reads_zero_when_missing() {
        let r = Record {
            wall_ms: 1.0,
            l2_ms: 7.25,
            ..Record::default()
        };
        let parsed = Record::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed.l2_ms, 7.25);
        // Records written before the L2 pass was timed have no `l2_ms`.
        let old = r#"{"wall_ms": 100.0, "refine_ms": 2.0, "ipet_ms": 3.0}"#;
        let parsed = Record::from_json(old).expect("back-compat parse");
        assert_eq!(parsed.l2_ms, 0.0);
        assert_eq!(parsed.ipet_ms, 3.0);
    }

    #[test]
    fn pre_hierarchy_records_without_l2_still_parse() {
        // Byte-for-byte shape of a record committed before the `l2` field
        // existed: it must parse with `l2` absent, not fail.
        let old = r#"{"wall_ms": 100.0, "units": 36.000, "vivu_ms": 1.0, "csv_identical": true}"#;
        let parsed = Record::from_json(old).expect("back-compat parse");
        assert_eq!(parsed.l2, None);
        assert_eq!(parsed.csv_identical, Some(true));
        assert_eq!(parsed.wall_ms, 100.0);
        let modern = Record::from_json(&parsed.to_json()).expect("reparses");
        assert_eq!(modern.l2, None);
    }
}
