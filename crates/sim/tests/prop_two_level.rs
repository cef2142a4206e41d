//! Property tests for the exact two-level simulation.
//!
//! The concrete half of the L1-filter guarantee: the engine consults the
//! L2 *only* when an access leaves the L1 — on a demand L1 miss or an
//! issued prefetch — so any fetch that hits L1 contributes zero L2
//! accesses. Together with soundness of the abstract classification (an
//! L1 always-hit reference concretely hits L1 in every run, re-checked by
//! `rtpf-audit`), this pins the end-to-end claim: L1-always-hit
//! references never reach the L2, in the abstract update and in the
//! exact simulator alike.

use proptest::prelude::*;

use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming};
use rtpf_isa::shape::Shape;
use rtpf_isa::{InstrId, InstrKind, Program};
use rtpf_sim::{BranchBehavior, SimConfig, Simulator};

/// Random structured programs: bounded depth, bounded loop bounds.
fn shapes() -> impl Strategy<Value = Shape> {
    let leaf = (1u32..30).prop_map(Shape::code);
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Shape::seq),
            (0u32..3, inner.clone(), inner.clone()).prop_map(|(c, a, b)| Shape::if_else(c, a, b)),
            (0u32..3, inner.clone()).prop_map(|(c, a)| Shape::if_then(c, a)),
            (1u32..8, inner.clone()).prop_map(|(n, b)| Shape::loop_(n, b)),
        ]
    })
}

fn hierarchies() -> impl Strategy<Value = HierarchyConfig> {
    (0usize..3, 0usize..3).prop_map(|(l1_sel, l2_mult)| {
        let l1s = [
            CacheConfig::new(1, 16, 64).unwrap(),
            CacheConfig::new(2, 16, 128).unwrap(),
            CacheConfig::new(2, 32, 256).unwrap(),
        ];
        let l1 = l1s[l1_sel];
        let l2 = CacheConfig::new(
            4,
            l1.block_bytes(),
            l1.capacity_bytes() << (l2_mult as u32 + 1),
        )
        .unwrap();
        HierarchyConfig::two_level(l1, l2).unwrap()
    })
}

fn timing() -> MemTiming {
    MemTiming::with_miss_penalty(20).with_l2_hit(8)
}

fn sim_config(behavior: BranchBehavior) -> SimConfig {
    SimConfig {
        behavior,
        seed: 1234,
        runs: 2,
        max_fetches: 1_000_000,
    }
}

fn insert_prefetch(p: &mut Program, anchor_sel: usize, target_sel: usize) {
    let instrs: Vec<InstrId> = p
        .block_ids()
        .flat_map(|b| p.block(b).instrs().to_vec())
        .collect();
    let anchor = instrs[anchor_sel % instrs.len()];
    let target = instrs[target_sel % instrs.len()];
    let bb = p.block_of(anchor);
    let pos = p.pos_in_block(anchor);
    p.insert_instr(bb, pos, InstrKind::Prefetch { target })
        .expect("insertion at an existing position");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Only L1 misses and issued prefetches reach the L2 — an access that
    /// hits L1 contributes zero L2 accesses.
    #[test]
    fn l2_is_consulted_exactly_on_l1_misses_and_prefetch_issues(
        shape in shapes(),
        hierarchy in hierarchies(),
        anchor_sel in 0usize..10_000,
        target_sel in 0usize..10_000,
        behavior in prop_oneof![Just(BranchBehavior::WorstLike), Just(BranchBehavior::Random)],
    ) {
        let mut p = shape.compile("prop");
        insert_prefetch(&mut p, anchor_sel, target_sel);
        let s = Simulator::new(hierarchy, timing(), sim_config(behavior));
        let r = s.run(&p).expect("simulation");
        prop_assert_eq!(r.stats.l2_accesses, r.stats.misses + r.prefetches_issued);
        prop_assert_eq!(r.stats.l2_accesses, r.stats.l2_hits + r.stats.l2_misses);
        prop_assert_eq!(r.stats.l2_fills, r.stats.l2_misses);
    }

    /// Without prefetches the L1 reference stream is independent of the
    /// L2, so a two-level run repeats the single-level run's hit/miss
    /// sequence and can only get cheaper.
    #[test]
    fn l2_preserves_l1_behaviour_and_never_slows_the_run(
        shape in shapes(),
        hierarchy in hierarchies(),
    ) {
        let p = shape.compile("prop");
        let t = timing();
        let single = Simulator::new(*hierarchy.l1(), t, sim_config(BranchBehavior::Random))
            .run(&p)
            .expect("single-level simulation");
        let two = Simulator::new(hierarchy, t, sim_config(BranchBehavior::Random))
            .run(&p)
            .expect("two-level simulation");
        prop_assert_eq!(two.stats.accesses, single.stats.accesses);
        prop_assert_eq!(two.stats.hits, single.stats.hits);
        prop_assert_eq!(two.stats.misses, single.stats.misses);
        prop_assert_eq!(two.stats.fills, single.stats.fills);
        prop_assert!(two.stats.cycles <= single.stats.cycles);
    }

    /// The degenerate hierarchy is the single-level simulator, verbatim.
    #[test]
    fn degenerate_hierarchy_simulation_is_identical(
        shape in shapes(),
        anchor_sel in 0usize..10_000,
        target_sel in 0usize..10_000,
    ) {
        let mut p = shape.compile("prop");
        insert_prefetch(&mut p, anchor_sel, target_sel);
        let config = CacheConfig::new(2, 16, 128).unwrap();
        let t = MemTiming::default();
        let plain = Simulator::new(config, t, sim_config(BranchBehavior::Random))
            .run(&p)
            .expect("plain simulation");
        let degen = Simulator::new(
            HierarchyConfig::l1_only(config),
            t,
            sim_config(BranchBehavior::Random),
        )
        .run(&p)
        .expect("degenerate simulation");
        prop_assert_eq!(plain, degen);
    }
}
