//! The paper's motivating scenario (§1): a mobile device's "radio" side —
//! baseband and protocol-stack processing on an RTOS — needs hard
//! real-time guarantees *and* energy efficiency.
//!
//! This example models a baseband task (frame loop with channel filter,
//! demodulation switch, and CRC inner loops), then compares three ways to
//! make its instruction-cache behaviour predictable:
//!
//! 1. plain on-demand fetching + WCET analysis (the baseline),
//! 2. **static cache locking** (predictable but slow: refs [4, 14]),
//! 3. the paper's **unlocked-cache prefetching** (predictable *and* fast).
//!
//! ```text
//! cargo run --release --example baseband_task
//! ```

use unlocked_prefetch::baselines::locking::{locked_tau_w, select_locked_greedy};
use unlocked_prefetch::cache::CacheConfig;
use unlocked_prefetch::core::{OptimizeParams, Optimizer};
use unlocked_prefetch::energy::{EnergyModel, Technology};
use unlocked_prefetch::isa::shape::Shape;
use unlocked_prefetch::sim::{SimConfig, Simulator};
use unlocked_prefetch::wcet::{AnalysisOptions, WcetAnalysis};

fn baseband() -> unlocked_prefetch::isa::Program {
    Shape::seq([
        Shape::code(24), // frame setup
        Shape::loop_(
            32, // symbols per frame
            Shape::seq([
                Shape::loop_(8, Shape::code(14)), // channel filter taps
                Shape::switch(3, (0..4).map(|k| Shape::code(10 + k))), // demod per modulation
                Shape::if_else(2, Shape::code(18), Shape::code(9)), // soft-bit path
                Shape::loop_(4, Shape::code(8)),  // CRC update
            ]),
        ),
        Shape::code(16), // frame teardown
    ])
    .compile("baseband")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = baseband();
    let config = CacheConfig::new(4, 16, 256)?;
    let model45 = EnergyModel::new(config, Technology::Nm45);
    let model32 = EnergyModel::new(config, Technology::Nm32);
    let timing = model45.timing();
    println!(
        "baseband task: {} instrs ({} B) on a {config} cache\n",
        program.instr_count(),
        program.code_bytes()
    );

    // 1. Baseline: on-demand fetching.
    let base = WcetAnalysis::analyze(&program, &AnalysisOptions::new(config, timing))?;
    let sim = Simulator::new(config, timing, SimConfig::default());
    let base_run = sim.run(&program)?;

    // 2. Static locking.
    let locked = select_locked_greedy(&program, &config, &timing)?;
    let locked_tau = locked_tau_w(&program, &config, &timing, &locked)?;
    let locked_run = sim.run_locked(&program, &locked)?;

    // 3. Unlocked-cache prefetching.
    let opt = Optimizer::new(
        config,
        OptimizeParams {
            timing,
            ..OptimizeParams::default()
        },
    )
    .run(&program)?;
    let opt_run = sim.run(&opt.program)?;

    let energy = |stats| {
        let e45 = model45.energy_of(&stats).total_nj();
        let e32 = model32.energy_of(&stats).total_nj();
        (e45, e32)
    };
    let (b45, b32) = energy(base_run.mean_stats());
    let (l45, l32) = energy(locked_run.mean_stats());
    let (o45, o32) = energy(opt_run.mean_stats());

    println!(
        "{:<22} {:>12} {:>12} {:>11} {:>11} {:>11}",
        "strategy", "WCET(mem)", "ACET(mem)", "miss rate", "E@45nm nJ", "E@32nm nJ"
    );
    let row = |name: &str, wcet: u64, acet: f64, miss: f64, e45: f64, e32: f64| {
        println!(
            "{:<22} {:>12} {:>12.0} {:>10.2}% {:>11.1} {:>11.1}",
            name,
            wcet,
            acet,
            100.0 * miss,
            e45,
            e32
        );
    };
    row(
        "on-demand (baseline)",
        base.tau_w(),
        base_run.acet_cycles(),
        base_run.miss_rate(),
        b45,
        b32,
    );
    row(
        "static locking",
        locked_tau,
        locked_run.acet_cycles(),
        locked_run.miss_rate(),
        l45,
        l32,
    );
    row(
        &format!("prefetching (+{} pf)", opt.report.inserted),
        opt.report.wcet_after,
        opt_run.acet_cycles(),
        opt_run.miss_rate(),
        o45,
        o32,
    );

    println!("\nthe reconciliation:");
    println!(
        "  prefetching keeps the WCET guarantee ({} <= {})",
        opt.report.wcet_after,
        base.tau_w()
    );
    println!(
        "  and reduces energy at 32nm by {:.1}% vs locking's {:+.1}%",
        100.0 * (1.0 - o32 / b32),
        100.0 * (1.0 - l32 / b32),
    );
    Ok(())
}
