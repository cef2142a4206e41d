//! The paper's worked examples (Figures 1, 2 and 6), executably.
//!
//! * **Figure 1** — the reverse analysis walks the references from sink to
//!   source with an all-invalid initial state; a "replacement" in that
//!   walk marks a block that is needed soon downstream but will not
//!   survive demand fetching. We print those raw detections.
//! * **Figure 2** — at merge points the `J_SE` join propagates the state
//!   of the edge on the WCET path; the example's loop body has an
//!   if/else, so the join is exercised.
//! * **Figure 6** — loops are handled through VIVU: the body appears as a
//!   `first` and a `rest` instance, and the inserted prefetches (chosen
//!   from first-instance evidence) pay off across all `rest` iterations.
//!
//! ```text
//! cargo run --example paper_figure1
//! ```

use unlocked_prefetch::cache::{CacheConfig, MemTiming};
use unlocked_prefetch::core::{candidates, JoinPolicy, OptimizeParams, Optimizer};
use unlocked_prefetch::isa::shape::Shape;
use unlocked_prefetch::wcet::{AnalysisOptions, WcetAnalysis};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A bounded loop with a conditional body, slightly over-subscribing
    // the cache: the shape of the paper's running examples.
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
    .compile("figure-1-2-6");
    let config = CacheConfig::new(2, 16, 128)?;
    let timing = MemTiming::default();

    let before = WcetAnalysis::analyze(&program, &AnalysisOptions::new(config, timing))?;
    println!(
        "program: {} instructions over {} VIVU contexts, {} references",
        program.instr_count(),
        before.vivu().len(),
        before.acfg().len()
    );
    print_classes("before", &before);

    // Figure 1b: the reverse analysis' raw detections (Algorithm 1 line 2,
    // with the J_SE join of Figure 2 at merges).
    let cands = candidates::scan(&program, &before, JoinPolicy::WcetPath);
    println!(
        "\nreverse analysis found {} replacement points, e.g.:",
        cands.len()
    );
    for c in cands.iter().take(6) {
        let node = before.acfg().reference(c.r_i).node;
        println!(
            "  at {} in context {} : block {} is needed downstream",
            c.r_i,
            before.vivu().node(node).ctx,
            c.evicted
        );
    }

    // Figure 1c: the optimized program.
    let opt = Optimizer::new(
        config,
        OptimizeParams {
            timing,
            ..OptimizeParams::default()
        },
    )
    .run(&program)?;
    println!(
        "\noptimized: {} prefetches inserted over {} rounds, tau_w {} -> {} ({:+.1}%)",
        opt.report.inserted,
        opt.report.rounds,
        opt.report.wcet_before,
        opt.report.wcet_after,
        100.0 * (opt.report.wcet_after as f64 / opt.report.wcet_before as f64 - 1.0),
    );
    print_classes("after", &opt.analysis_after);
    assert!(opt.report.wcet_after <= opt.report.wcet_before);
    Ok(())
}

fn print_classes(label: &str, a: &WcetAnalysis) {
    let (hit, miss, unclassified) = a.classification_counts();
    println!(
        "{label}: {hit} always-hit, {miss} always-miss, {unclassified} unclassified; \
         tau_w = {}, WCET-path misses = {}",
        a.tau_w(),
        a.wcet_misses()
    );
}
