//! Cache downsizing (the paper's Figure 5 story): because prefetching is
//! independent of locality, an optimized task can sustain the performance
//! of on-demand fetching with a **smaller** cache — and a smaller cache
//! leaks less and switches less, compounding the energy win (up to 21% in
//! the paper).
//!
//! This example takes one task, optimizes it for a sequence of cache
//! sizes, and prints the smallest configuration whose optimized WCET and
//! energy still beat the original program on the full-size cache.
//!
//! ```text
//! cargo run --release --example cache_sizing
//! ```

use unlocked_prefetch::cache::CacheConfig;
use unlocked_prefetch::core::{OptimizeParams, Optimizer};
use unlocked_prefetch::energy::{EnergyModel, Technology};
use unlocked_prefetch::isa::shape::Shape;
use unlocked_prefetch::sim::{SimConfig, Simulator};

fn task() -> unlocked_prefetch::isa::Program {
    // An ndes-like cipher round structure: big rounds over S-box loops.
    Shape::seq([
        Shape::code(60),
        Shape::loop_(
            16,
            Shape::seq([
                Shape::code(55),
                Shape::loop_(8, Shape::code(22)),
                Shape::loop_(32, Shape::code(7)),
                Shape::if_else(2, Shape::code(25), Shape::code(20)),
            ]),
        ),
        Shape::loop_(64, Shape::code(10)),
        Shape::code(40),
    ])
    .compile("cipher")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = task();
    println!(
        "task: {} instructions ({} B)\n",
        program.instr_count(),
        program.code_bytes()
    );

    // Reference: original program on the largest cache.
    let full = CacheConfig::new(2, 16, 2048)?;
    let full_model = EnergyModel::new(full, Technology::Nm32);
    let timing = full_model.timing();
    let sim = |cfg: CacheConfig, p: &unlocked_prefetch::isa::Program| {
        let m = EnergyModel::new(cfg, Technology::Nm32);
        let r = Simulator::new(cfg, m.timing(), SimConfig::default())
            .run(p)
            .expect("task simulates");
        (r.acet_cycles(), m.energy_of(&r.mean_stats()).total_nj())
    };
    let (ref_acet, ref_energy) = sim(full, &program);
    let ref_wcet = unlocked_prefetch::wcet::WcetAnalysis::analyze(
        &program,
        &unlocked_prefetch::wcet::AnalysisOptions::new(full, timing),
    )?
    .tau_w();
    println!("reference: original program on {full}:");
    println!("  WCET {ref_wcet} cycles, ACET {ref_acet:.0} cycles, energy {ref_energy:.0} nJ\n");

    println!(
        "{:>9} {:>11} {:>12} {:>12} {:>12} {:>7}",
        "capacity", "prefetches", "WCET", "ACET", "energy nJ", "verdict"
    );
    let mut best: Option<u32> = None;
    for capacity in [2048u32, 1024, 512, 256] {
        let cfg = CacheConfig::new(2, 16, capacity)?;
        let m = EnergyModel::new(cfg, Technology::Nm32);
        let opt = Optimizer::new(
            cfg,
            OptimizeParams {
                timing: m.timing(),
                ..OptimizeParams::default()
            },
        )
        .run(&program)?;
        let wcet = opt.report.wcet_after;
        let (acet, energy) = sim(cfg, &opt.program);
        let ok = wcet <= ref_wcet && acet <= ref_acet && energy < ref_energy;
        if ok {
            best = Some(capacity);
        }
        println!(
            "{:>8}B {:>11} {:>12} {:>12.0} {:>12.0} {:>7}",
            capacity,
            opt.report.inserted,
            wcet,
            acet,
            energy,
            if ok { "fits" } else { "-" }
        );
    }
    match best {
        Some(c) => println!(
            "\n=> the optimized task sustains the 2048 B reference on a {c} B cache \
             ({}x smaller)",
            2048 / c
        ),
        None => println!("\n=> no smaller configuration beats the reference for this task"),
    }
    Ok(())
}
