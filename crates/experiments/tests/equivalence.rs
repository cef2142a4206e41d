//! Engine-vs-legacy equivalence: the refactored sweep must reproduce the
//! pre-refactor `results/sweep.csv` byte-for-byte.
//!
//! Two layers of defense:
//!
//! * `golden_sweep_slice.csv` is a **frozen** slice of the CSV produced by
//!   the pre-engine harness (direct `Optimizer`/`Simulator` plumbing) —
//!   two cheap programs × all 36 Table 2 configurations. It is never
//!   regenerated, so engine drift cannot hide by updating the cache.
//! * A sampled set of units is compared against the checked-in
//!   `results/sweep.csv`, covering bigger programs across geometry
//!   extremes without paying for the full 37 × 36 grid (the full grid was
//!   diffed once at refactor time: identical).

use rtpf_cache::{CacheConfig, ReplacementPolicy};

const GOLDEN: &str = include_str!("golden_sweep_slice.csv");

#[test]
fn engine_sweep_slice_matches_pre_refactor_csv_byte_for_byte() {
    let mut rows = Vec::new();
    for name in ["fibcall", "sqrt"] {
        let b = rtpf_suite::by_name(name).expect("known");
        for (k, config) in CacheConfig::paper_configs() {
            rows.push(rtpf_experiments::run_unit(name, &b.program, &k, config, 1));
        }
    }
    rows.sort_by(|x, y| (&x.program, &x.k).cmp(&(&y.program, &y.k)));
    assert_eq!(
        rtpf_experiments::to_csv(&rows),
        GOLDEN,
        "engine sweep diverged from the pre-refactor CSV"
    );
}

/// Cheap-but-diverse sample: small programs across geometry extremes.
const SAMPLE: &[(&str, &str)] = &[
    ("bs", "k1"),
    ("bs", "k36"),
    ("crc", "k8"),
    ("fft1", "k7"),
    ("insertsort", "k20"),
    ("matmult", "k25"),
];

#[test]
fn sampled_units_match_checked_in_sweep_rows() {
    let cache = std::fs::read_to_string(rtpf_experiments::cache_path(ReplacementPolicy::Lru))
        .expect("checked-in results/sweep.csv present");
    let configs = CacheConfig::paper_configs();
    for &(name, k) in SAMPLE {
        let b = rtpf_suite::by_name(name).expect("suite program");
        let (_, config) = configs
            .iter()
            .find(|(id, _)| id == k)
            .expect("paper config");
        let row = rtpf_experiments::run_unit(name, &b.program, k, *config, 1);
        let line = rtpf_experiments::to_csv(std::slice::from_ref(&row));
        let line = line.lines().nth(1).expect("one data row");
        let want_prefix = format!("{name},{k},");
        let want = cache
            .lines()
            .find(|l| l.starts_with(&want_prefix))
            .unwrap_or_else(|| panic!("no cached row for {name} {k}"));
        assert_eq!(line, want, "unit {name} {k} diverged from cached sweep row");
    }
}

/// Runs one unit and asserts its CSV row equals `reference`'s row for the
/// same `(name, k)`.
fn assert_unit_matches(reference: &str, policy: &str, name: &str, k: &str, config: CacheConfig) {
    let b = rtpf_suite::by_name(name).expect("known");
    let row = rtpf_experiments::run_unit(name, &b.program, k, config, 1);
    let line = rtpf_experiments::to_csv(std::slice::from_ref(&row));
    let line = line.lines().nth(1).expect("one data row");
    let want_prefix = format!("{name},{k},");
    let want = reference
        .lines()
        .find(|l| l.starts_with(&want_prefix))
        .unwrap_or_else(|| panic!("no {policy} reference row for {name} {k}"));
    assert_eq!(
        line, want,
        "L1-only hierarchy diverged from the pre-hierarchy {policy} bytes on {name} {k}"
    );
}

#[test]
fn l1_only_hierarchy_reproduces_checked_in_sweeps_for_every_policy() {
    // The multi-level refactor's degenerate-case guard: an L1-only
    // `HierarchyConfig` is what every evaluation profile now runs under,
    // and it must reproduce the pre-hierarchy sweep bytes for all three
    // replacement policies — the frozen golden slice for LRU, the
    // checked-in per-policy artifacts for FIFO/PLRU.
    use rtpf_cache::HierarchyConfig;
    for policy in ReplacementPolicy::ALL {
        let reference = match policy {
            ReplacementPolicy::Lru => GOLDEN.to_string(),
            p => std::fs::read_to_string(rtpf_experiments::cache_path(p))
                .expect("checked-in per-policy sweep present"),
        };
        for name in ["fibcall", "sqrt"] {
            for (k, config) in rtpf_experiments::paper_configs_for(policy) {
                // The profile really is the degenerate hierarchy…
                let econfig = rtpf_engine::EngineConfig::evaluation(config);
                assert_eq!(econfig.hierarchy(), HierarchyConfig::l1_only(config));
                assert!(econfig.l2().is_none());
                // …and its unit row matches the pre-hierarchy bytes.
                assert_unit_matches(&reference, &policy.to_string(), name, &k, config);
            }
        }
    }
}

#[test]
fn fifo_and_plru_rows_match_where_refinement_upgrades_references() {
    // `fibcall` and `sqrt` barely reach the exact per-set refinement.
    // These `fft1` units do: refinement upgrades references in every one
    // (and exhausts its budget on one PLRU set at k9), and all but k9 also
    // insert prefetches, so the optimizer's verification lineage reuses
    // memoized per-set outcomes across candidates.
    for (policy, ks) in [
        (ReplacementPolicy::Fifo, ["k8", "k14", "k15"].as_slice()),
        (ReplacementPolicy::Plru, ["k9", "k17"].as_slice()),
    ] {
        let reference = std::fs::read_to_string(rtpf_experiments::cache_path(policy))
            .expect("checked-in per-policy sweep present");
        let configs = rtpf_experiments::paper_configs_for(policy);
        for &k in ks {
            let (_, config) = configs
                .iter()
                .find(|(id, _)| id == k)
                .expect("paper config");
            assert_unit_matches(&reference, &policy.to_string(), "fft1", k, *config);
        }
    }
}

#[test]
fn explicit_lru_policy_is_byte_identical_to_the_default() {
    // The policy-generic refactor must leave the paper's LRU numbers
    // untouched: selecting LRU *explicitly* reproduces the frozen
    // pre-refactor slice byte-for-byte, exactly like the default does.
    let mut rows = Vec::new();
    for name in ["fibcall", "sqrt"] {
        let b = rtpf_suite::by_name(name).expect("known");
        for (k, config) in rtpf_experiments::paper_configs_for(ReplacementPolicy::Lru) {
            assert_eq!(config.policy(), ReplacementPolicy::Lru);
            rows.push(rtpf_experiments::run_unit(name, &b.program, &k, config, 1));
        }
    }
    rows.sort_by(|x, y| (&x.program, &x.k).cmp(&(&y.program, &y.k)));
    assert_eq!(
        rtpf_experiments::to_csv(&rows),
        GOLDEN,
        "explicit --policy lru diverged from the pre-refactor CSV"
    );
}

#[test]
fn two_level_units_match_checked_in_l2_sweep_rows() {
    // The L2 pass feeds `t_w` and with it every WCET, ACET and energy
    // column of a two-level unit; these rows pin its output at the
    // smallest and the largest swept L2.
    let reference = std::fs::read_to_string(rtpf_experiments::l2_cache_path())
        .expect("checked-in results/sweep-l2.csv present");
    let points = rtpf_experiments::l2_sweep_points();
    for name in ["adpcm", "fft1"] {
        let b = rtpf_suite::by_name(name).expect("suite program");
        for k in ["l2c2048", "l2c32768"] {
            let (_, econfig) = points
                .iter()
                .find(|(id, _)| id == k)
                .expect("L2 sweep point");
            let unit = rtpf_engine::Engine::new(econfig.clone().with_threads(1))
                .unit(name, k, &b.program)
                .expect("evaluates");
            let csv = rtpf_experiments::l2_to_csv(&[(econfig.l2().copied(), (*unit).clone())]);
            let line = csv.lines().nth(1).expect("one data row");
            let want_prefix = format!("{name},{k},");
            let want = reference
                .lines()
                .find(|l| l.starts_with(&want_prefix))
                .unwrap_or_else(|| panic!("no L2 sweep row for {name} {k}"));
            assert_eq!(line, want, "unit {name} {k} diverged from the L2 sweep row");
        }
    }
}
