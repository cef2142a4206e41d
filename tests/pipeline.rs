//! End-to-end pipeline tests spanning every crate: suite program → WCET
//! analysis → prefetch optimization → Theorem 1 verification → trace
//! simulation → energy accounting.

use unlocked_prefetch::baselines::locking::{locked_tau_w, select_locked_greedy};
use unlocked_prefetch::cache::CacheConfig;
use unlocked_prefetch::core::{check, prefetch_equivalent, OptimizeParams, Optimizer};
use unlocked_prefetch::energy::{EnergyModel, Technology};
use unlocked_prefetch::sim::{SimConfig, Simulator};
use unlocked_prefetch::wcet::{AnalysisOptions, WcetAnalysis};

fn test_sim() -> SimConfig {
    SimConfig {
        runs: 1,
        seed: 99,
        ..SimConfig::default()
    }
}

#[test]
fn full_pipeline_on_a_conflicting_benchmark() {
    let b = unlocked_prefetch::suite::by_name("fft1").expect("fft1 exists");
    let config = CacheConfig::new(2, 16, 1024).expect("valid geometry");
    let model = EnergyModel::new(config, Technology::Nm32);
    let timing = model.timing();

    // Analyze + optimize.
    let opt = Optimizer::new(
        config,
        OptimizeParams {
            timing,
            ..OptimizeParams::default()
        },
    )
    .run(&b.program)
    .expect("optimizes");
    assert!(opt.report.wcet_after <= opt.report.wcet_before);

    // Theorem 1 re-proof.
    let theorem = check(
        &b.program,
        &opt.program,
        opt.analysis_after.layout(),
        config,
        &timing,
    )
    .expect("verifies");
    assert!(theorem.holds(), "{theorem:?}");

    // Simulate both and compare energies.
    let sim = Simulator::new(config, timing, test_sim());
    let orig = sim.run(&b.program).expect("simulates");
    let optr = sim.run(&opt.program).expect("simulates");
    let e_orig = model.energy_of(&orig.mean_stats()).total_nj();
    let e_opt = model.energy_of(&optr.mean_stats()).total_nj();
    // Energy must not blow up (small regressions can happen off the WCET
    // path; the sweep-level averages are checked in the experiments).
    assert!(
        e_opt <= e_orig * 1.10,
        "optimized energy {e_opt} vs original {e_orig}"
    );
}

#[test]
fn every_suite_program_survives_the_pipeline_on_one_config() {
    let config = CacheConfig::new(2, 16, 512).expect("valid geometry");
    let timing = EnergyModel::new(config, Technology::Nm45).timing();
    for b in unlocked_prefetch::suite::catalog() {
        // Analysis.
        let a = WcetAnalysis::analyze(&b.program, &AnalysisOptions::new(config, timing))
            .unwrap_or_else(|e| panic!("{} failed analysis: {e}", b.name));
        assert!(a.tau_w() > 0, "{} has zero WCET", b.name);
        // Optimization (tight budget: this is a smoke test).
        let opt = Optimizer::new(
            config,
            OptimizeParams {
                timing,
                max_rounds: 2,
                max_singles_per_round: 4,
                ..OptimizeParams::default()
            },
        )
        .run(&b.program)
        .unwrap_or_else(|e| panic!("{} failed optimization: {e}", b.name));
        assert!(
            opt.report.wcet_after <= opt.report.wcet_before,
            "{} violated Theorem 1",
            b.name
        );
        assert!(
            prefetch_equivalent(&b.program, &opt.program),
            "{} not prefetch-equivalent",
            b.name
        );
    }
}

#[test]
fn simulator_and_analysis_agree_on_rough_magnitude() {
    // The WCET bound must exceed the simulated worst-like run's memory
    // cycles divided by a small slack (the sim replays real paths; the
    // analysis over-approximates).
    let b = unlocked_prefetch::suite::by_name("matmult").expect("matmult");
    let config = CacheConfig::new(2, 16, 512).expect("valid");
    let timing = EnergyModel::new(config, Technology::Nm45).timing();
    let a =
        WcetAnalysis::analyze(&b.program, &AnalysisOptions::new(config, timing)).expect("analyzes");
    let sim = Simulator::new(
        config,
        timing,
        SimConfig {
            behavior: unlocked_prefetch::sim::BranchBehavior::WorstLike,
            runs: 1,
            seed: 1,
            max_fetches: 4_000_000,
        },
    );
    let run = sim.run(&b.program).expect("simulates");
    let sim_cycles = run.acet_cycles();
    let bound = a.tau_w() as f64;
    assert!(
        bound >= sim_cycles * 0.9,
        "WCET bound {bound} far below simulated worst-like {sim_cycles}"
    );
}

#[test]
fn locking_tradeoff_matches_the_papers_argument() {
    // For a task bigger than the cache, locking hurts both ACET and
    // (static-dominated) energy relative to plain LRU — §2.3.
    let b = unlocked_prefetch::suite::by_name("compress").expect("compress");
    let config = CacheConfig::new(2, 16, 512).expect("valid");
    let model = EnergyModel::new(config, Technology::Nm32);
    let timing = model.timing();
    let locked = select_locked_greedy(&b.program, &config, &timing).expect("selects");
    let sim = Simulator::new(config, timing, test_sim());
    let free = sim.run(&b.program).expect("simulates");
    let lock = sim.run_locked(&b.program, &locked).expect("simulates");
    assert!(lock.acet_cycles() > free.acet_cycles());
    let e_free = model.energy_of(&free.mean_stats()).total_nj();
    let e_lock = model.energy_of(&lock.mean_stats()).total_nj();
    assert!(e_lock > e_free, "locking should cost energy at 32 nm");
    // But locking's WCET is still a valid bound of its own execution.
    let tau = locked_tau_w(&b.program, &config, &timing, &locked).expect("bounds");
    assert!(tau as f64 >= lock.acet_cycles() * 0.9);
}
