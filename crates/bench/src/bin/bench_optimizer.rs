//! Wall-clock comparison of `Optimizer::run` in the legacy configuration
//! (from-scratch re-analysis of every candidate) against the incremental
//! default, on the two largest suite programs at the paper's k8 cache
//! (2-way, 16 B blocks, 512 B).
//!
//! Writes machine-readable `results/bench_optimizer.json` and prints a
//! summary table. Run with:
//!
//! ```text
//! cargo run --release -p rtpf-bench --bin bench_optimizer
//! ```

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use rtpf_cache::CacheConfig;
use rtpf_core::{OptimizeParams, OptimizeResult, Optimizer};
use rtpf_engine::EngineConfig;

const REPS: u32 = 3;

struct Row {
    program: String,
    instrs: usize,
    full_sequential_ms: f64,
    incremental_ms: f64,
    speedup: f64,
    inserted: u32,
    wcet_before: u64,
    wcet_after: u64,
}

fn best_of(
    config: CacheConfig,
    params: OptimizeParams,
    p: &rtpf_isa::Program,
) -> (f64, OptimizeResult) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let r = Optimizer::new(config, params).run(p).expect("optimizes");
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (best, last.expect("REPS > 0"))
}

fn main() {
    let config = EngineConfig::geometry(2, 16, 512).expect("valid k8 geometry");
    // The interactive profile's optimizer budget with the classic 20-cycle
    // miss penalty; the "legacy" variant only flips the result-invariant
    // `incremental` knob.
    let base = EngineConfig::interactive(config).with_penalty(20);
    let mut rows = Vec::new();

    for name in ["nsichneu", "statemate"] {
        let b = rtpf_suite::by_name(name).expect("known program");
        let legacy = base
            .clone()
            .with_incremental(false)
            .optimize_params(b.program.instr_count());
        let tuned = base.optimize_params(b.program.instr_count());
        let (t_legacy, r_legacy) = best_of(config, legacy, &b.program);
        let (t_tuned, r_tuned) = best_of(config, tuned, &b.program);
        assert!(
            r_legacy.report.decisions_eq(&r_tuned.report) && r_legacy.program == r_tuned.program,
            "{name}: incremental re-analysis changed optimizer decisions"
        );
        if std::env::var_os("BENCH_PROFILE").is_some() {
            eprintln!("--- {name} legacy ---\n{}", r_legacy.report.profile);
            eprintln!("--- {name} tuned ---\n{}", r_tuned.report.profile);
        }
        rows.push(Row {
            program: name.to_string(),
            instrs: b.program.instr_count(),
            full_sequential_ms: t_legacy,
            incremental_ms: t_tuned,
            speedup: t_legacy / t_tuned,
            inserted: r_tuned.report.inserted,
            wcet_before: r_tuned.report.wcet_before,
            wcet_after: r_tuned.report.wcet_after,
        });
    }

    let mut json = String::from("{\n  \"config\": \"k8 (assoc=2, block=16B, capacity=512B)\",\n");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    json.push_str("  \"units\": \"milliseconds, best of reps\",\n  \"programs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"program\": \"{}\", \"instrs\": {}, \"full_sequential_ms\": {:.3}, \
             \"incremental_ms\": {:.3}, \"speedup\": {:.2}, \"inserted\": {}, \
             \"wcet_before\": {}, \"wcet_after\": {}}}",
            r.program,
            r.instrs,
            r.full_sequential_ms,
            r.incremental_ms,
            r.speedup,
            r.inserted,
            r.wcet_before,
            r.wcet_after,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_optimizer.json");
    std::fs::create_dir_all(out.parent().expect("has parent")).expect("results dir");
    std::fs::write(&out, &json).expect("write results");

    println!(
        "{:<12} {:>8} {:>16} {:>16} {:>8}",
        "program", "instrs", "full (ms)", "incremental (ms)", "speedup"
    );
    for r in &rows {
        println!(
            "{:<12} {:>8} {:>16.2} {:>16.2} {:>7.2}x",
            r.program, r.instrs, r.full_sequential_ms, r.incremental_ms, r.speedup
        );
    }
    println!("wrote {}", out.display());
}
