//! Theorem 1 (WCET non-increase + prefetch equivalence) across a matrix
//! of suite programs and cache configurations.

use unlocked_prefetch::cache::{CacheConfig, MemTiming};
use unlocked_prefetch::core::{check, OptimizeParams, Optimizer};

/// Representative sub-matrix: small/medium/large programs × small/medium/
/// large caches, direct-mapped through 4-way, both block sizes.
const PROGRAMS: [&str; 6] = ["bs", "crc", "fft1", "compress", "ndes", "statemate"];

fn configs() -> Vec<CacheConfig> {
    [
        (1u32, 16u32, 256u32),
        (2, 16, 512),
        (4, 16, 1024),
        (1, 32, 512),
        (2, 32, 2048),
        (4, 32, 8192),
    ]
    .into_iter()
    .map(|(a, b, c)| CacheConfig::new(a, b, c).expect("valid"))
    .collect()
}

#[test]
fn theorem_one_holds_across_the_matrix() {
    let timing = MemTiming::default();
    for name in PROGRAMS {
        let b = unlocked_prefetch::suite::by_name(name).expect("known benchmark");
        for config in configs() {
            let opt = Optimizer::new(
                config,
                OptimizeParams {
                    timing,
                    max_rounds: 3,
                    max_singles_per_round: 6,
                    ..OptimizeParams::default()
                },
            )
            .run(&b.program)
            .unwrap_or_else(|e| panic!("{name}@{config}: {e}"));
            let report = check(
                &b.program,
                &opt.program,
                opt.analysis_after.layout(),
                config,
                &timing,
            )
            .unwrap_or_else(|e| panic!("{name}@{config}: {e}"));
            assert!(
                report.holds(),
                "{name}@{config}: Theorem 1 violated: {report:?}"
            );
        }
    }
}

#[test]
fn monotonicity_of_wcet_with_capacity_is_preserved_after_optimization() {
    // Growing the cache never hurts the analysis; the optimized programs
    // must preserve that sanity property too.
    let timing = MemTiming::default();
    let b = unlocked_prefetch::suite::by_name("cnt").expect("cnt");
    let mut last_opt = u64::MAX;
    for capacity in [256u32, 1024, 4096] {
        let config = CacheConfig::new(2, 16, capacity).expect("valid");
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
        assert!(
            opt.report.wcet_after <= last_opt,
            "optimized WCET grew when the cache grew"
        );
        last_opt = opt.report.wcet_after;
    }
}
