//! `Optimizer::run` releases its lineage memos before returning, and a
//! later incremental re-analysis from the released lineage stays exact:
//! it only loses the memo hits and pointer-identity shortcuts, never a
//! result.

use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming, ReplacementPolicy};
use rtpf_core::{OptimizeParams, Optimizer};
use rtpf_isa::{InstrKind, Layout};
use rtpf_wcet::WcetAnalysis;

/// Optimizes `name` under `policy` at a 2-way 16 B 512 B L1, without and
/// with an 8-way 16 KiB L2; checks the memos are empty after the run and
/// that one more insertion re-analysed from the released lineage equals a
/// from-scratch analysis.
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
        let r = Optimizer::new_hierarchy(hierarchy, params)
            .run(&p)
            .expect("optimizes");
        // The run went through the lineage memos before releasing them.
        assert!(
            r.report.profile.incremental_analyses > 0,
            "{what}: no incremental re-analysis"
        );
        let after = &r.analysis_after;
        for analysis in [&r.analysis_before, after] {
            assert_eq!(analysis.lineage_cache().len(), 0, "{what}: node memo");
            assert_eq!(
                analysis.lineage_cache().refine_memo_len(),
                0,
                "{what}: refinement memo"
            );
        }

        // One more prefetch in the entry block, re-analysed incrementally
        // from the released lineage.
        let mut p2 = r.program.clone();
        let b0 = p2.entry();
        let target = *p2.block(b0).instrs().last().expect("non-empty entry");
        p2.insert_instr(b0, 1, InstrKind::Prefetch { target })
            .expect("inserts");
        let anchor = p2.block(b0).instrs()[0];
        let layout2 = Layout::anchored(&p2, anchor, after.layout().addr(anchor));
        let inc = after
            .reanalyze_after_insert(&p2, layout2.clone())
            .expect("re-analyses");
        let full =
            WcetAnalysis::analyze_hierarchy(&p2, layout2, &hierarchy, &timing, params.refine, 1)
                .expect("analyzes");
        assert_eq!(inc.profile().incremental_analyses, 1, "{what}: fell back");
        assert_eq!(inc.tau_w(), full.tau_w(), "{what}: tau_w");
        for rf in full.acfg().refs() {
            assert_eq!(
                inc.classification(rf.id),
                full.classification(rf.id),
                "{what}: class of {:?}",
                rf.id
            );
            assert_eq!(
                inc.refine_mark(rf.id),
                full.refine_mark(rf.id),
                "{what}: mark of {:?}",
                rf.id
            );
            assert_eq!(
                inc.l2_classification(rf.id),
                full.l2_classification(rf.id),
                "{what}: L2 class of {:?}",
                rf.id
            );
        }
    }
}

#[test]
fn fft1_fifo_releases_memos_and_stays_exact() {
    check("fft1", ReplacementPolicy::Fifo);
}

#[test]
fn fft1_lru_releases_memos_and_stays_exact() {
    check("fft1", ReplacementPolicy::Lru);
}
