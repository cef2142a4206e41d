//! Cross-validation between independent components: the analyzer, the
//! simulator, and the text format must agree wherever their domains
//! overlap.

use unlocked_prefetch::cache::{CacheConfig, MemTiming};
use unlocked_prefetch::isa::shape::Shape;
use unlocked_prefetch::isa::text;
use unlocked_prefetch::sim::{BranchBehavior, SimConfig, Simulator};
use unlocked_prefetch::wcet::{AnalysisOptions, WcetAnalysis};

/// For a straight-line program there is exactly one path: the WCET bound
/// and the simulated run must agree cycle for cycle.
#[test]
fn analysis_equals_simulation_on_straight_line_code() {
    for n in [8u32, 40, 200] {
        let p = Shape::code(n).compile("line");
        for (a, b, c) in [(1u32, 16u32, 64u32), (2, 16, 256), (4, 32, 1024)] {
            let config = CacheConfig::new(a, b, c).expect("valid");
            let timing = MemTiming::default();
            let analysis =
                WcetAnalysis::analyze(&p, &AnalysisOptions::new(config, timing)).expect("analyzes");
            let sim = Simulator::new(
                config,
                timing,
                SimConfig {
                    behavior: BranchBehavior::WorstLike,
                    runs: 1,
                    seed: 0,
                    max_fetches: 1_000_000,
                },
            )
            .run(&p)
            .expect("simulates");
            assert_eq!(
                analysis.tau_w(),
                sim.stats.cycles,
                "n={n} config=({a},{b},{c}): bound and replay must coincide"
            );
            assert_eq!(analysis.wcet_misses(), sim.stats.misses);
            assert_eq!(analysis.wcet_accesses(), sim.stats.accesses);
        }
    }
}

/// Single-path loops (no conditionals): the worst-like replay must never
/// exceed the bound, and must stay close to it (the bound's slack is only
/// the broken-back-edge approximation at the final header test).
#[test]
fn bound_dominates_single_path_loops() {
    for bound in [1u32, 2, 7, 25] {
        let p = Shape::seq([
            Shape::code(5),
            Shape::loop_(bound, Shape::code(12)),
            Shape::code(3),
        ])
        .compile("loop");
        let config = CacheConfig::new(2, 16, 128).expect("valid");
        let timing = MemTiming::default();
        let analysis =
            WcetAnalysis::analyze(&p, &AnalysisOptions::new(config, timing)).expect("analyzes");
        let sim = Simulator::new(
            config,
            timing,
            SimConfig {
                behavior: BranchBehavior::WorstLike,
                runs: 1,
                seed: 0,
                max_fetches: 1_000_000,
            },
        )
        .run(&p)
        .expect("simulates");
        // The replay executes the final header test that VIVU's broken
        // back edge does not charge; allow that sliver both ways.
        let bound_cycles = analysis.tau_w() as f64;
        let replay = sim.stats.cycles as f64;
        assert!(
            bound_cycles >= replay * 0.95,
            "bound {bound_cycles} far below replay {replay} at bound={bound}"
        );
        assert!(
            bound_cycles <= replay * 1.30 + 100.0,
            "bound {bound_cycles} unreasonably above replay {replay} at bound={bound}"
        );
    }
}

/// Every suite program's shape round-trips through the text format.
#[test]
fn text_format_roundtrips_the_entire_suite() {
    for (name, _) in unlocked_prefetch::suite::programs::NAMES {
        let shape = unlocked_prefetch::suite::programs::shape_of(name).expect("known");
        let rendered = text::write(name, &shape);
        let (name2, shape2) =
            text::parse(&rendered).unwrap_or_else(|e| panic!("{name} failed to re-parse: {e}"));
        assert_eq!(name, name2);
        // Nested `Seq`s flatten on re-parse, so compare by the printed
        // normal form (idempotence) and by the compiled program.
        assert_eq!(
            rendered,
            text::write(&name2, &shape2),
            "{name} rendering is not idempotent"
        );
        let p1 = shape.compile(name);
        let p2 = shape2.compile(name);
        assert_eq!(p1.instr_count(), p2.instr_count(), "{name}");
        assert_eq!(p1.block_count(), p2.block_count(), "{name}");
    }
}

/// The analyzer must be deterministic: repeated runs yield identical
/// bounds and classifications.
#[test]
fn analysis_is_deterministic() {
    let b = unlocked_prefetch::suite::by_name("qurt").expect("qurt");
    let config = CacheConfig::new(2, 16, 512).expect("valid");
    let timing = MemTiming::default();
    let a1 =
        WcetAnalysis::analyze(&b.program, &AnalysisOptions::new(config, timing)).expect("analyzes");
    let a2 =
        WcetAnalysis::analyze(&b.program, &AnalysisOptions::new(config, timing)).expect("analyzes");
    assert_eq!(a1.tau_w(), a2.tau_w());
    assert_eq!(a1.classification_counts(), a2.classification_counts());
    for r in a1.acfg().refs() {
        assert_eq!(a1.classification(r.id), a2.classification(r.id));
        assert_eq!(a1.n_w(r.id), a2.n_w(r.id));
    }
}
