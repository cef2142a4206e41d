//! Property-based tests (proptest) on the core data structures and the
//! headline invariant: optimization never increases the WCET.

use proptest::prelude::*;

use unlocked_prefetch::cache::{
    CacheConfig, Classification, ConcreteState, MayState, MemTiming, MustState,
};
use unlocked_prefetch::core::{prefetch_equivalent, OptimizeParams, Optimizer};
use unlocked_prefetch::isa::shape::Shape;
use unlocked_prefetch::isa::{Layout, MemBlockId};
use unlocked_prefetch::wcet::{AnalysisOptions, WcetAnalysis};

/// Random structured programs: bounded depth, bounded loop bounds.
fn shapes() -> impl Strategy<Value = Shape> {
    let leaf = (1u32..30).prop_map(Shape::code);
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Shape::seq),
            (0u32..3, inner.clone(), inner.clone()).prop_map(|(c, a, b)| Shape::if_else(c, a, b)),
            (0u32..3, inner.clone()).prop_map(|(c, a)| Shape::if_then(c, a)),
            (1u32..8, inner.clone()).prop_map(|(n, b)| Shape::loop_(n, b)),
            (0u32..2, prop::collection::vec(inner, 2..4))
                .prop_map(|(c, arms)| Shape::switch(c, arms)),
        ]
    })
}

fn small_configs() -> impl Strategy<Value = CacheConfig> {
    (
        prop_oneof![Just(1u32), Just(2), Just(4)],
        prop_oneof![Just(16u32), Just(32)],
        prop_oneof![Just(64u32), Just(128), Just(256), Just(1024)],
    )
        .prop_filter_map("geometry must hold one set", |(a, b, c)| {
            CacheConfig::new(a, b, c).ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_shapes_validate(shape in shapes()) {
        let p = shape.compile("prop");
        prop_assert!(p.validate().is_ok());
        prop_assert!(p.instr_count() > 0);
    }

    #[test]
    fn analysis_invariants(shape in shapes(), config in small_configs()) {
        let p = shape.compile("prop");
        let a = WcetAnalysis::analyze(&p, &AnalysisOptions::new(config, MemTiming::default())).expect("analyzes");
        // τ_w decomposes over references (Eq. 3 == Σ Eq. 2).
        let sum: u64 = a.acfg().refs().iter().map(|r| a.tau_of(r.id)).sum();
        prop_assert_eq!(sum, a.tau_w());
        // Classification counts partition the references.
        let (h, m, u) = a.classification_counts();
        prop_assert_eq!(h + m + u, a.acfg().len());
        // Every on-path reference has positive n_w and t_w.
        for r in a.acfg().refs() {
            if a.on_wcet_path(r.id) {
                prop_assert!(a.n_w(r.id) > 0);
            }
            prop_assert!(a.t_w(r.id) >= 1);
        }
    }

    #[test]
    fn optimizer_never_increases_wcet(shape in shapes(), config in small_configs()) {
        let p = shape.compile("prop");
        let params = OptimizeParams {
            max_rounds: 2,
            max_singles_per_round: 4,
            ..OptimizeParams::default()
        };
        let r = Optimizer::new(config, params).run(&p).expect("optimizes");
        prop_assert!(r.report.wcet_after <= r.report.wcet_before);
        prop_assert!(prefetch_equivalent(&p, &r.program));
        prop_assert!(r.program.validate().is_ok());
        prop_assert_eq!(r.program.prefetch_count() as u32, r.report.inserted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lru_concrete_invariants(accesses in prop::collection::vec(0u64..64, 1..200)) {
        let config = CacheConfig::new(2, 16, 64).expect("valid");
        let mut c = ConcreteState::new(&config);
        for &b in &accesses {
            let block = MemBlockId(b);
            c.access(block);
            // The accessed block is resident and MRU in its set.
            prop_assert!(c.contains(block));
            let set = c.set(config.set_of(block));
            prop_assert_eq!(set[0], block);
            // No set exceeds the associativity; no duplicates.
            for s in 0..config.n_sets() as usize {
                let ways = c.set(s);
                prop_assert!(ways.len() <= config.assoc() as usize);
                for i in 0..ways.len() {
                    for j in i + 1..ways.len() {
                        prop_assert_ne!(ways[i], ways[j]);
                    }
                }
            }
        }
    }

    #[test]
    fn abstract_states_bracket_the_concrete_state(
        accesses in prop::collection::vec(0u64..48, 1..150)
    ) {
        // must ⊆ concrete ⊆ may along any access string.
        let config = CacheConfig::new(2, 16, 128).expect("valid");
        let mut c = ConcreteState::new(&config);
        let mut must = MustState::new(&config);
        let mut may = MayState::new(&config);
        for &b in &accesses {
            let block = MemBlockId(b);
            // Classification from the pre-access states must predict the
            // concrete outcome: always-hit ⇒ hit, always-miss ⇒ miss.
            let cls = Classification::of(block, &must, &may);
            let outcome = c.access(block);
            match cls {
                Classification::AlwaysHit => {
                    prop_assert!(outcome.is_hit(), "always-hit {block} missed")
                }
                Classification::AlwaysMiss => {
                    prop_assert!(!outcome.is_hit(), "always-miss {block} hit")
                }
                _ => {}
            }
            must.update(block);
            may.update(block);
            for (mb, _) in must.iter() {
                prop_assert!(c.contains(mb), "must claims {mb} not in concrete");
            }
            for cb in c.blocks() {
                prop_assert!(may.contains(cb), "concrete holds {cb} not in may");
            }
        }
    }

    #[test]
    fn must_join_is_sound_for_both_branches(
        left in prop::collection::vec(0u64..32, 1..40),
        right in prop::collection::vec(0u64..32, 1..40),
    ) {
        // Whatever the join guarantees must be guaranteed by each input.
        let config = CacheConfig::new(2, 16, 64).expect("valid");
        let mut a = MustState::new(&config);
        let mut b = MustState::new(&config);
        let mut ca = ConcreteState::new(&config);
        let mut cb = ConcreteState::new(&config);
        for &x in &left { a.update(MemBlockId(x)); ca.access(MemBlockId(x)); }
        for &x in &right { b.update(MemBlockId(x)); cb.access(MemBlockId(x)); }
        let j = a.join(&b);
        for (blk, age) in j.iter() {
            prop_assert!(ca.contains(blk) && cb.contains(blk));
            // Join age is the max of the per-side ages.
            let aa = a.age(blk).expect("in intersection");
            let ab = b.age(blk).expect("in intersection");
            prop_assert_eq!(age, aa.max(ab));
        }
    }

    #[test]
    fn anchored_layout_shifts_prefix_by_one_slot(
        n_before in 1usize..30,
        n_after in 1usize..30,
    ) {
        use unlocked_prefetch::isa::{InstrKind, Program};
        let mut p = Program::new("prop");
        let b0 = p.entry();
        let mut ids = Vec::new();
        for _ in 0..(n_before + n_after) {
            ids.push(p.push_instr(b0, InstrKind::Compute(0)).expect("push"));
        }
        let before = Layout::of(&p);
        let anchor = ids[n_before];
        let addr = before.addr(anchor);
        p.insert_instr(b0, n_before, InstrKind::Prefetch { target: ids[0] })
            .expect("insert");
        let after = Layout::anchored(&p, anchor, addr);
        // Suffix fixed, prefix down one slot.
        for (i, &id) in ids.iter().enumerate() {
            if i < n_before {
                prop_assert_eq!(after.addr(id), before.addr(id) - 4);
            } else {
                prop_assert_eq!(after.addr(id), before.addr(id));
            }
        }
    }
}
