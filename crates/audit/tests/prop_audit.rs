//! Property tests for the audit subsystem.
//!
//! Two families:
//!
//! 1. **Cleanliness** — every suite benchmark audits clean at deny level
//!    (with warnings promoted to deny, as CI runs it) under sampled paper
//!    cache configurations. The release CI job covers the full 37 × 36
//!    cross product; the proptest here keeps a sampled version in the
//!    debug test run.
//! 2. **Injected corruptions** — each documented defect class (dropped
//!    edge, zeroed or missing loop bound, misclassified access, dangling
//!    prefetch target) is caught by exactly the RTPF0xx code the catalog
//!    promises.

use proptest::prelude::*;

use rtpf_audit::{
    audit_ir, audit_soundness, audit_soundness_forced, Code, DiagnosticSink, SeverityConfig,
    SoundnessOptions,
};
use rtpf_cache::{CacheConfig, Classification, MemTiming};
use rtpf_isa::{EdgeKind, InstrKind, Program};

/// The CI policy: `--deny warnings`.
fn deny_warnings() -> SeverityConfig {
    let mut c = SeverityConfig::new();
    c.deny_warnings = true;
    c
}

fn fired(sink: &DiagnosticSink, code: Code) -> bool {
    sink.diagnostics().iter().any(|d| d.code == code)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sampled (benchmark, configuration) pairs are clean at deny level:
    /// IR lints raise nothing above note, and the concrete cross-check
    /// finds no unsound classification.
    #[test]
    fn suite_audits_clean_at_deny_level(pi in 0usize..37, ki in 0usize..36) {
        let b = &rtpf_suite::catalog()[pi];
        let (_, config) = CacheConfig::paper_configs()[ki].clone();
        let mut sink = DiagnosticSink::new(deny_warnings());
        audit_ir(&b.program, &mut sink);
        let timing = MemTiming::default();
        let opts = SoundnessOptions { walks: 4, ..SoundnessOptions::default() };
        audit_soundness(&b.program, config, &timing, &mut sink, &opts)
            .expect("suite program analyses");
        prop_assert!(!sink.has_denials(), "{}:\n{}", b.name, sink.render_text());
    }

    /// A classifier that upgrades everything to always-hit is caught on
    /// every benchmark under every sampled configuration: the first fetch
    /// of a cold cache always misses concretely.
    #[test]
    fn broken_classifier_is_always_caught(pi in 0usize..37, ki in 0usize..36) {
        let b = &rtpf_suite::catalog()[pi];
        let (_, config) = CacheConfig::paper_configs()[ki].clone();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let timing = MemTiming::default();
        let opts = SoundnessOptions { walks: 2, ..SoundnessOptions::default() };
        audit_soundness_forced(
            &b.program,
            config,
            &timing,
            &mut sink,
            &opts,
            |_, _, m| (Classification::AlwaysHit, m),
            |_, c, cac| (c, cac),
        )
        .expect("suite program analyses");
        prop_assert!(fired(&sink, Code::UnsoundAlwaysHit), "{} not caught", b.name);
        prop_assert!(sink.has_denials());
    }

    /// Zeroing the bound of any loop in any benchmark fires RTPF004.
    #[test]
    fn zeroed_loop_bound_is_caught(pi in 0usize..37) {
        let b = &rtpf_suite::catalog()[pi];
        let Some((&header, _)) = b.program.loop_bounds().iter().next() else {
            return Ok(()); // loop-free benchmark: nothing to corrupt
        };
        let mut p = b.program.clone();
        p.set_loop_bound(header, 0).unwrap();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        audit_ir(&p, &mut sink);
        prop_assert!(fired(&sink, Code::ZeroLoopBound), "{}:\n{}", b.name, sink.render_text());
        prop_assert!(sink.has_denials());
    }
}

/// A two-armed diamond with an optional extra block; `drop_edge` omits
/// the edge into the second arm, leaving it unreachable.
fn diamond(drop_edge: bool) -> Program {
    let mut p = Program::new("diamond");
    let e = p.entry();
    let a = p.add_block();
    let b = p.add_block();
    let x = p.add_block();
    for blk in [e, a, b, x] {
        p.push_instr(blk, InstrKind::Compute(0)).unwrap();
    }
    p.push_instr(e, InstrKind::Branch).unwrap();
    p.add_edge(e, a, EdgeKind::Fallthrough).unwrap();
    if !drop_edge {
        p.add_edge(e, b, EdgeKind::Taken).unwrap();
        p.add_edge(b, x, EdgeKind::Taken).unwrap();
    }
    p.add_edge(a, x, EdgeKind::Fallthrough).unwrap();
    p
}

#[test]
fn dropped_edge_is_caught_as_unreachable() {
    let mut sink = DiagnosticSink::new(SeverityConfig::new());
    audit_ir(&diamond(false), &mut sink);
    assert!(!fired(&sink, Code::UnreachableBlock));
    assert!(!sink.has_denials(), "{}", sink.render_text());

    let mut sink = DiagnosticSink::new(SeverityConfig::new());
    audit_ir(&diamond(true), &mut sink);
    assert!(fired(&sink, Code::UnreachableBlock));
    assert!(sink.has_denials());
}

#[test]
fn dropped_exit_edge_is_caught_as_no_exit() {
    // entry → h ⇄ h body cycle with no way out.
    let mut p = Program::new("noexit");
    let e = p.entry();
    let h = p.add_block();
    p.push_instr(e, InstrKind::Compute(0)).unwrap();
    p.push_instr(h, InstrKind::Branch).unwrap();
    p.add_edge(e, h, EdgeKind::Fallthrough).unwrap();
    p.add_edge(h, h, EdgeKind::Taken).unwrap();
    p.set_loop_bound(h, 4).unwrap();
    let mut sink = DiagnosticSink::new(SeverityConfig::new());
    audit_ir(&p, &mut sink);
    assert!(fired(&sink, Code::NoExit), "{}", sink.render_text());
    assert!(sink.has_denials());
}

#[test]
fn missing_loop_bound_is_caught() {
    // A structurally fine self-loop whose bound was never recorded.
    let mut p = Program::new("nobound");
    let e = p.entry();
    let h = p.add_block();
    let x = p.add_block();
    p.push_instr(e, InstrKind::Compute(0)).unwrap();
    p.push_instr(h, InstrKind::Branch).unwrap();
    p.push_instr(x, InstrKind::Compute(1)).unwrap();
    p.add_edge(e, h, EdgeKind::Fallthrough).unwrap();
    p.add_edge(h, h, EdgeKind::Taken).unwrap();
    p.add_edge(h, x, EdgeKind::Fallthrough).unwrap();
    let mut sink = DiagnosticSink::new(SeverityConfig::new());
    audit_ir(&p, &mut sink);
    assert!(
        fired(&sink, Code::MissingLoopBound),
        "{}",
        sink.render_text()
    );
    assert!(sink.has_denials());
}

#[test]
fn misclassified_single_access_is_caught() {
    // Flip exactly one genuinely-missing reference to always-hit; the
    // cross-check must localize it.
    let b = rtpf_suite::by_name("crc").expect("crc in suite");
    let (_, config) = CacheConfig::paper_configs()[0].clone();
    let timing = MemTiming::default();
    let opts = SoundnessOptions::default();
    let mut flipped = std::cell::Cell::new(false);
    let mut sink = DiagnosticSink::new(SeverityConfig::new());
    audit_soundness_forced(
        &b.program,
        config,
        &timing,
        &mut sink,
        &opts,
        |_, c, m| {
            if !flipped.get() && c == Classification::AlwaysMiss {
                flipped.set(true);
                (Classification::AlwaysHit, m)
            } else {
                (c, m)
            }
        },
        |_, c, cac| (c, cac),
    )
    .unwrap();
    let flipped = flipped.get_mut();
    assert!(
        *flipped,
        "crc must have an always-miss reference to corrupt"
    );
    assert!(
        fired(&sink, Code::UnsoundAlwaysHit),
        "{}",
        sink.render_text()
    );
    assert!(sink.has_denials());
}
