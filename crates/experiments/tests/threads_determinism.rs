//! Thread-count determinism of the sweep artifact: the same units
//! rendered to CSV must be byte-identical whether each unit's engine
//! solves its fixpoints on one worker thread or several. This is the
//! end-to-end (engine + Figure-5 probes + CSV serialization) counterpart
//! of the `rtpf-wcet` parallel-vs-sequential property test.

use rtpf_cache::{CacheConfig, ReplacementPolicy};
use rtpf_experiments::{paper_configs_for, run_unit, to_csv, UnitResult};

/// A smoke slice of the grid: two cheap programs across geometry extremes
/// and a mid-grid point, under every replacement policy.
fn slice(policy: ReplacementPolicy, threads: usize) -> Vec<UnitResult> {
    let configs: Vec<(String, CacheConfig)> = paper_configs_for(policy);
    let mut rows = Vec::new();
    for name in ["bs", "fft1"] {
        let b = rtpf_suite::by_name(name).expect("suite program");
        for ki in [0, 13, 35] {
            let (k, config) = &configs[ki];
            rows.push(run_unit(name, &b.program, k, *config, threads));
        }
    }
    rows.sort_by(|a, b| (&a.program, &a.k).cmp(&(&b.program, &b.k)));
    rows
}

#[test]
fn sweep_csv_bytes_are_identical_at_any_thread_count() {
    for policy in ReplacementPolicy::ALL {
        let seq = to_csv(&slice(policy, 1));
        let par = to_csv(&slice(policy, 3));
        assert_eq!(
            seq, par,
            "sweep CSV bytes diverged between --threads 1 and --threads 3 under {policy}"
        );
    }
}
