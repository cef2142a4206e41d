//! The per-set refinement memo is exact: after a whole optimizer run —
//! every candidate verified incrementally through one lineage, with the
//! memo answering repeated per-set explorations — the final analysis
//! equals a from-scratch analysis of the optimized program.
//!
//! Debug builds already cross-check every incremental re-analysis inside
//! `reanalyze_after_insert`; this test holds in release builds too, where
//! that cross-check is compiled out.

use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming, ReplacementPolicy};
use rtpf_core::{OptimizeParams, Optimizer};
use rtpf_wcet::{AnalysisOptions, WcetAnalysis};

/// Optimizes `name` under `policy` at a 2-way 16 B 512 B L1, without and
/// with an 8-way 16 KiB L2, and checks the final analysis of each run.
fn check(name: &str, policy: ReplacementPolicy) {
    let p = rtpf_suite::by_name(name).expect("suite program").program;
    let l1 = CacheConfig::new(2, 16, 512)
        .and_then(|c| c.with_policy(policy))
        .expect("valid L1");
    let l2 = CacheConfig::new(8, 16, 16384).expect("valid L2");
    for (hierarchy, timing) in [
        (HierarchyConfig::l1_only(l1), MemTiming::default()),
        (
            HierarchyConfig::two_level(l1, l2).expect("valid hierarchy"),
            MemTiming::default().with_l2_hit(6),
        ),
    ] {
        let what = format!("{name} {policy} l2={}", hierarchy.l2().is_some());
        let params = OptimizeParams {
            timing,
            ..OptimizeParams::default()
        };
        let r = Optimizer::new(hierarchy, params)
            .run(&p)
            .expect("optimizes");
        let after = &r.analysis_after;
        // The run released its refinement memo.
        assert_eq!(after.lineage_cache().refine_memo_len(), 0, "{what}");
        let opts = AnalysisOptions {
            layout: Some(after.layout()),
            refine: params.refine,
            ..AnalysisOptions::new(hierarchy, timing)
        };
        let full = WcetAnalysis::analyze(&r.program, &opts).expect("analyzes");
        // The run exercised what the memo serves: accepted insertions
        // grew the verification lineage, and refinement upgraded
        // references.
        let stats = full.refine_stats();
        assert!(r.report.inserted > 0, "{what}: nothing inserted");
        assert!(
            stats.refined_hits + stats.refined_misses > 0,
            "{what}: nothing refined"
        );
        assert_eq!(after.tau_w(), full.tau_w(), "{what}: tau_w");
        assert_eq!(after.refine_stats(), stats, "{what}: refine stats");
        for rf in full.acfg().refs() {
            assert_eq!(
                after.classification(rf.id),
                full.classification(rf.id),
                "{what}: class of {:?}",
                rf.id
            );
            assert_eq!(
                after.refine_mark(rf.id),
                full.refine_mark(rf.id),
                "{what}: mark of {:?}",
                rf.id
            );
        }
    }
}

#[test]
fn fft1_fifo_after_optimization_equals_from_scratch() {
    check("fft1", ReplacementPolicy::Fifo);
}

#[test]
fn fft1_plru_after_optimization_equals_from_scratch() {
    check("fft1", ReplacementPolicy::Plru);
}

#[test]
fn ndes_fifo_after_optimization_equals_from_scratch() {
    check("ndes", ReplacementPolicy::Fifo);
}

#[test]
fn ndes_plru_after_optimization_equals_from_scratch() {
    check("ndes", ReplacementPolicy::Plru);
}
