//! Quickstart: optimize a program and inspect the guarantees.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use unlocked_prefetch::cache::{CacheConfig, MemTiming};
use unlocked_prefetch::core::{check, OptimizeParams, Optimizer};
use unlocked_prefetch::isa::shape::Shape;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A compress-like task: an outer loop whose branchy body slightly
    // exceeds the instruction cache (the paper's 1-10% miss-rate regime).
    let program = Shape::seq([
        Shape::code(30),
        Shape::loop_(
            20,
            Shape::seq([
                Shape::code(10),
                Shape::if_else(2, Shape::code(16), Shape::code(8)),
                Shape::if_then(2, Shape::code(12)),
            ]),
        ),
        Shape::code(14),
    ])
    .compile("compress-mini");

    let config = CacheConfig::new(2, 16, 128)?;
    let timing = MemTiming::default();

    println!(
        "program: {} instructions, {} bytes",
        program.instr_count(),
        program.code_bytes()
    );
    println!("cache:   {config} ({} sets), {timing}", config.n_sets());

    // Run the WCET-safe prefetch optimizer.
    let result = Optimizer::new(config, OptimizeParams::default()).run(&program)?;
    let r = &result.report;
    println!("\noptimizer report:");
    println!("  rounds                {}", r.rounds);
    println!("  prefetches inserted   {}", r.inserted);
    println!("  candidates examined   {}", r.candidates_seen);
    println!(
        "  tau_w (WCET memory)   {} -> {} cycles ({:+.1}%)",
        r.wcet_before,
        r.wcet_after,
        100.0 * (r.wcet_after as f64 / r.wcet_before as f64 - 1.0)
    );
    println!(
        "  WCET-path misses      {} -> {}",
        r.misses_before, r.misses_after
    );

    // Re-prove Theorem 1 independently.
    let theorem = check(
        &program,
        &result.program,
        result.analysis_after.layout(),
        config,
        &timing,
    )?;
    println!("\nTheorem 1 check: {theorem:?}");
    assert!(theorem.holds());
    println!("=> the optimized program is prefetch-equivalent and its WCET did not grow");
    Ok(())
}
