//! Cross-crate baseline comparisons: hardware prefetchers and locking
//! against the paper's software technique.

use unlocked_prefetch::baselines::hw::{simulate_hw, HwScheme};
use unlocked_prefetch::cache::CacheConfig;
use unlocked_prefetch::core::{OptimizeParams, Optimizer};
use unlocked_prefetch::energy::{EnergyModel, Technology};
use unlocked_prefetch::sim::{SimConfig, Simulator};

fn test_sim() -> SimConfig {
    SimConfig {
        runs: 1,
        seed: 4242,
        ..SimConfig::default()
    }
}

#[test]
fn hw_schemes_all_run_on_a_suite_program() {
    let b = unlocked_prefetch::suite::by_name("edn").expect("edn");
    let config = CacheConfig::new(2, 16, 512).expect("valid");
    let timing = EnergyModel::new(config, Technology::Nm45).timing();
    for scheme in [
        HwScheme::NextLine { n: 1 },
        HwScheme::NextLine { n: 2 },
        HwScheme::NextLineOnMiss { n: 1 },
        HwScheme::NextLineTagged,
        HwScheme::Target,
        HwScheme::WrongPath,
    ] {
        let r = simulate_hw(&b.program, config, timing, test_sim(), scheme)
            .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
        assert!(r.stats.accesses > 0);
        assert_eq!(r.stats.hits + r.stats.misses, r.stats.accesses);
    }
}

#[test]
fn next_line_helps_streaming_but_software_prefetch_keeps_the_wcet_bound() {
    // Hardware next-line reduces the simulated time of a streaming loop,
    // but provides no WCET guarantee; the software technique is the one
    // with a provable bound (checked by Theorem 1 in the core crate).
    let b = unlocked_prefetch::suite::by_name("jfdctint").expect("jfdctint");
    let config = CacheConfig::new(2, 16, 1024).expect("valid");
    let timing = EnergyModel::new(config, Technology::Nm45).timing();
    let base = Simulator::new(config, timing, test_sim())
        .run(&b.program)
        .expect("simulates");
    let hw = simulate_hw(
        &b.program,
        config,
        timing,
        test_sim(),
        HwScheme::NextLine { n: 2 },
    )
    .expect("simulates");
    assert!(
        hw.stats.cycles <= base.stats.cycles,
        "next-line should not slow a streaming DCT down: {} vs {}",
        hw.stats.cycles,
        base.stats.cycles
    );

    let opt = Optimizer::new(
        config,
        OptimizeParams {
            timing,
            max_rounds: 3,
            ..OptimizeParams::default()
        },
    )
    .run(&b.program)
    .expect("optimizes");
    assert!(opt.report.wcet_after <= opt.report.wcet_before);
}

#[test]
fn wrong_path_pollutes_more_than_target() {
    // Wrong-path prefetching issues strictly more fills; on a small cache
    // that shows up as extra fills (the pollution the paper mentions).
    let b = unlocked_prefetch::suite::by_name("statemate").expect("statemate");
    let config = CacheConfig::new(1, 16, 256).expect("valid");
    let timing = EnergyModel::new(config, Technology::Nm45).timing();
    let target =
        simulate_hw(&b.program, config, timing, test_sim(), HwScheme::Target).expect("simulates");
    let wrong = simulate_hw(&b.program, config, timing, test_sim(), HwScheme::WrongPath)
        .expect("simulates");
    assert!(wrong.prefetches_issued >= target.prefetches_issued);
    assert!(wrong.stats.fills >= target.stats.fills);
}
