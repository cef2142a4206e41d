//! The pre-packing abstract state representations, kept as a
//! differential-testing oracle.
//!
//! [`LegacyMustState`] and [`LegacyMayState`] are the sorted
//! `Vec<(MemBlockId, u32)>` implementations that [`crate::MustState`] and
//! [`crate::MayState`] replaced with packed words (see [`crate::packed`]
//! and DESIGN.md §11). They are compiled only for this crate's tests and
//! under the `legacy-oracle` feature; the equivalence property tests at
//! the bottom of this module drive both representations through identical
//! access/join strings — randomized and extracted from the benchmark
//! suite — across Table 2 geometries and all three policies, and require
//! agreement on every observable (`age`, `contains`, `len`, element
//! sets, and the derived hit/miss classification).
//!
//! The oracle deliberately does **not** clamp effective associativities
//! to the packed age lane the way the packed states do: it represents the
//! old behavior exactly. The clamp only matters beyond 255 effective
//! ways, far outside any geometry the analyses run (Table 2 tops out at
//! 4 ways, tree-PLRU at 64).

use rtpf_isa::MemBlockId;

use crate::config::CacheConfig;
use crate::policy::ReplacementPolicy;

/// The pre-packing must state: sorted `(block, max-age)` pairs.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LegacyMustState {
    entries: Vec<(MemBlockId, u32)>,
    assoc: u32,
    n_sets: u32,
}

impl LegacyMustState {
    /// The empty must state at the policy's effective associativity.
    pub fn new(config: &CacheConfig) -> Self {
        LegacyMustState {
            entries: Vec::new(),
            assoc: config.policy().must_ways(config.assoc()),
            n_sets: config.n_sets(),
        }
    }

    /// Maximal age of `block`, if it is guaranteed cached.
    pub fn age(&self, block: MemBlockId) -> Option<u32> {
        self.entries
            .binary_search_by_key(&block, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Whether a reference to `block` is an always-hit in this state.
    pub fn contains(&self, block: MemBlockId) -> bool {
        self.age(block).is_some()
    }

    /// The abstract must update, as formerly implemented.
    pub fn update(&mut self, block: MemBlockId) {
        let n_sets = u64::from(self.n_sets);
        let set = block.0 % n_sets;
        let assoc = self.assoc;
        let cutoff = self.age(block).unwrap_or(assoc);
        self.entries.retain_mut(|e| {
            if e.0 == block {
                return false;
            }
            if e.0 .0 % n_sets == set && e.1 < cutoff {
                e.1 += 1;
                return e.1 < assoc;
            }
            true
        });
        let pos = self
            .entries
            .binary_search_by_key(&block, |e| e.0)
            .unwrap_err();
        self.entries.insert(pos, (block, 0));
    }

    /// The must join: intersection at maximal age.
    pub fn join(&self, other: &LegacyMustState) -> LegacyMustState {
        let mut entries = Vec::with_capacity(self.entries.len().min(other.entries.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let (a, b) = (self.entries[i], other.entries[j]);
            match a.0.cmp(&b.0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    entries.push((a.0, a.1.max(b.1)));
                    i += 1;
                    j += 1;
                }
            }
        }
        LegacyMustState {
            entries,
            assoc: self.assoc,
            n_sets: self.n_sets,
        }
    }

    /// All guaranteed blocks with their ages, in block order.
    pub fn iter(&self) -> impl Iterator<Item = (MemBlockId, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of blocks guaranteed cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no block is guaranteed cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The pre-packing may state: sorted `(block, min-age)` pairs.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LegacyMayState {
    entries: Vec<(MemBlockId, u32)>,
    assoc: u32,
    n_sets: u32,
}

impl LegacyMayState {
    /// The empty may state at the policy's effective associativity.
    pub fn new(config: &CacheConfig) -> Self {
        LegacyMayState {
            entries: Vec::new(),
            assoc: config.policy().may_ways(config.assoc()),
            n_sets: config.n_sets(),
        }
    }

    /// Minimal age of `block`, if it might be cached.
    pub fn age(&self, block: MemBlockId) -> Option<u32> {
        self.entries
            .binary_search_by_key(&block, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Whether `block` might be cached.
    pub fn contains(&self, block: MemBlockId) -> bool {
        self.age(block).is_some()
    }

    /// The abstract may update, as formerly implemented.
    pub fn update(&mut self, block: MemBlockId) {
        if self.assoc == ReplacementPolicy::UNBOUNDED {
            if let Err(pos) = self.entries.binary_search_by_key(&block, |e| e.0) {
                self.entries.insert(pos, (block, 0));
            }
            return;
        }
        let n_sets = u64::from(self.n_sets);
        let set = block.0 % n_sets;
        let assoc = self.assoc;
        let bump_max = self.age(block).unwrap_or(assoc - 1);
        self.entries.retain_mut(|e| {
            if e.0 == block {
                return false;
            }
            if e.0 .0 % n_sets == set && e.1 <= bump_max {
                e.1 += 1;
                return e.1 < assoc;
            }
            true
        });
        let pos = self
            .entries
            .binary_search_by_key(&block, |e| e.0)
            .unwrap_err();
        self.entries.insert(pos, (block, 0));
    }

    /// The may join: union at minimal age.
    pub fn join(&self, other: &LegacyMayState) -> LegacyMayState {
        let mut entries = Vec::with_capacity(self.entries.len().max(other.entries.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let (a, b) = (self.entries[i], other.entries[j]);
            match a.0.cmp(&b.0) {
                std::cmp::Ordering::Less => {
                    entries.push(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    entries.push(b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    entries.push((a.0, a.1.min(b.1)));
                    i += 1;
                    j += 1;
                }
            }
        }
        entries.extend_from_slice(&self.entries[i..]);
        entries.extend_from_slice(&other.entries[j..]);
        LegacyMayState {
            entries,
            assoc: self.assoc,
            n_sets: self.n_sets,
        }
    }

    /// All possibly-cached blocks with their ages, in block order.
    pub fn iter(&self) -> impl Iterator<Item = (MemBlockId, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of possibly-cached blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no block is possibly cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MayState, MustState};
    use proptest::prelude::*;

    /// Both representations side by side, advanced in lockstep.
    struct Lockstep {
        must: MustState,
        may: MayState,
        lmust: LegacyMustState,
        lmay: LegacyMayState,
    }

    impl Lockstep {
        fn new(config: &CacheConfig) -> Self {
            Lockstep {
                must: MustState::new(config),
                may: MayState::new(config),
                lmust: LegacyMustState::new(config),
                lmay: LegacyMayState::new(config),
            }
        }

        fn update(&mut self, b: MemBlockId) {
            self.must.update(b);
            self.may.update(b);
            self.lmust.update(b);
            self.lmay.update(b);
        }

        /// An access that may or may not happen: the packed states take
        /// the in-place `join_update`, the oracle the literal
        /// `join(state, update(state))`. Returns the packed kernels'
        /// pre-access answers (must, may).
        fn join_update(&mut self, b: MemBlockId) -> (bool, bool) {
            let mut t = self.lmust.clone();
            t.update(b);
            self.lmust = self.lmust.join(&t);
            let mut t = self.lmay.clone();
            t.update(b);
            self.lmay = self.lmay.join(&t);
            (self.must.join_update(b), self.may.join_update(b))
        }

        fn join(&self, other: &Lockstep) -> Lockstep {
            Lockstep {
                must: self.must.join(&other.must),
                may: self.may.join(&other.may),
                lmust: self.lmust.join(&other.lmust),
                lmay: self.lmay.join(&other.lmay),
            }
        }

        /// Every observable agrees: per-block ages (hence `contains` and
        /// the always-hit/always-miss classification), lengths, and the
        /// full element sets (order-independent — the packed states store
        /// `(set, block)` order, the legacy ones block order).
        fn assert_equivalent(&self, probe: impl Iterator<Item = u64>, ctx: &str) {
            for b in probe {
                let b = MemBlockId(b);
                assert_eq!(self.must.age(b), self.lmust.age(b), "{ctx}: must age {b}");
                assert_eq!(self.may.age(b), self.lmay.age(b), "{ctx}: may age {b}");
            }
            assert_eq!(self.must.len(), self.lmust.len(), "{ctx}: must len");
            assert_eq!(self.may.len(), self.lmay.len(), "{ctx}: may len");
            let mut a: Vec<_> = self.must.iter().collect();
            let mut b: Vec<_> = self.lmust.iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{ctx}: must elements");
            let mut a: Vec<_> = self.may.iter().collect();
            let mut b: Vec<_> = self.lmay.iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{ctx}: may elements");
        }
    }

    /// Geometries spanning Table 2's corners plus degenerate shapes.
    fn geometries() -> Vec<CacheConfig> {
        [
            (1u32, 16u32, 256u32), // k1: direct-mapped, 16 sets
            (2, 16, 32),           // single 2-way set
            (4, 16, 64),           // single 4-way set
            (2, 16, 256),          // k2
            (4, 32, 8192),         // k36: 64 sets
            (1, 32, 1024),         // direct-mapped, 32 sets
        ]
        .iter()
        .map(|&(a, b, c)| CacheConfig::new(a, b, c).unwrap())
        .collect()
    }

    proptest! {
        /// Packed and legacy states agree on every observable after any
        /// interleaving of updates and joins, across geometries and all
        /// three policies.
        #[test]
        fn packed_matches_legacy_on_random_strings(
            geo in 0..6usize,
            policy in 0..3usize,
            // Two access strings; the second feeds a join partner.
            ops in proptest::collection::vec((0u64..96, 0u32..2), 1..200),
        ) {
            let policy = ReplacementPolicy::ALL[policy];
            let config = geometries()[geo].with_policy(policy).unwrap();
            let mut a = Lockstep::new(&config);
            let mut b = Lockstep::new(&config);
            for (i, &(block, side)) in ops.iter().enumerate() {
                if side == 1 {
                    b.update(MemBlockId(block));
                } else {
                    a.update(MemBlockId(block));
                }
                // Join periodically so join equivalence is exercised on
                // states mid-construction, not just at the end.
                if i % 17 == 16 {
                    a = a.join(&b);
                }
                a.assert_equivalent(0..96, &format!("{config} op {i}"));
            }
            let j = a.join(&b);
            j.assert_equivalent(0..96, &format!("{config} final join"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-place join-update (the L2 `Uncertain` filter) equals the
        /// literal join of a state with its updated copy — word for word
        /// on the packed states, and on every observable of the oracle
        /// below the packed clamp — and answers `contains` from before
        /// the access. All three policies at associativity 1 to 256 (64 for
        /// tree-PLRU); one 256-way LRU set overflows past the clamped must
        /// window.
        #[test]
        fn join_update_equals_join_of_update(
            ways in 0..5usize,
            policy in 0..3usize,
            sets in 0..2usize,
            // Kinds 0-2 access the state, 3-4 its join partner, 5 joins
            // them, 6-7 check a join-update.
            ops in proptest::collection::vec((0u64..1 << 20, 0u32..8), 1..700),
        ) {
            let policy = ReplacementPolicy::ALL[policy];
            let mut assoc = [1u32, 2, 8, 128, 256][ways];
            if policy == ReplacementPolicy::Plru {
                assoc = assoc.min(64); // the widest tree-PLRU geometry
            }
            let n_sets = [1u32, 4][sets];
            let config = CacheConfig::new(assoc, 16, assoc * 16 * n_sets)
                .unwrap()
                .with_policy(policy)
                .unwrap();
            // Half again as many blocks per set as ways, so sets overflow
            // and both aging-out paths fire.
            let span = u64::from(n_sets * (assoc + assoc / 2 + 1));
            let oracle_exact = assoc <= crate::packed::MAX_AGE;
            let mut a = Lockstep::new(&config);
            let mut b = Lockstep::new(&config);
            for (i, &(raw, kind)) in ops.iter().enumerate() {
                let blk = MemBlockId(raw % span);
                match kind {
                    0..=2 => a.update(blk),
                    3 | 4 => b.update(blk),
                    5 => a = a.join(&b),
                    _ => {
                        let (must, may) = (a.must.clone(), a.may.clone());
                        let (mut tmust, mut tmay) = (must.clone(), may.clone());
                        tmust.update(blk);
                        tmay.update(blk);
                        let (hit, maybe) = a.join_update(blk);
                        prop_assert_eq!(hit, must.contains(blk), "{} op {}: must answer", config, i);
                        prop_assert_eq!(maybe, may.contains(blk), "{} op {}: may answer", config, i);
                        prop_assert_eq!(a.must, must.join(&tmust), "{} op {}: must state", config, i);
                        prop_assert_eq!(a.may, may.join(&tmay), "{} op {}: may state", config, i);
                        if oracle_exact {
                            a.assert_equivalent(std::iter::once(blk.0), &format!("{config} op {i}"));
                        }
                    }
                }
            }
        }
    }

    /// Suite-driven equivalence: real benchmark address streams through
    /// every Table 2 geometry under all three policies.
    #[test]
    fn packed_matches_legacy_on_suite_programs() {
        for bench in rtpf_suite::catalog() {
            if !["bs", "fft1", "statemate"].contains(&bench.name) {
                continue;
            }
            // The program's instruction address stream in layout order.
            let layout = rtpf_isa::Layout::of(&bench.program);
            let addrs: Vec<u64> = bench
                .program
                .layout_order()
                .iter()
                .flat_map(|&bid| bench.program.block(bid).instrs().iter())
                .map(|&iid| layout.addr(iid))
                .collect();
            for (_, geo) in CacheConfig::paper_configs() {
                for policy in ReplacementPolicy::ALL {
                    let config = geo.with_policy(policy).unwrap();
                    let shift = config.block_bytes().trailing_zeros();
                    let mut l = Lockstep::new(&config);
                    for (i, &a) in addrs.iter().take(400).enumerate() {
                        l.update(MemBlockId(a >> shift));
                        if i % 50 == 49 {
                            let probe = addrs.iter().map(|&a| a >> shift);
                            l.assert_equivalent(probe, &format!("{} {config}", bench.name));
                        }
                    }
                }
            }
        }
    }

    /// The widest geometry the packed age lane represents exactly: LRU at
    /// 128 ways (`must_ways == may_ways == 128 ≤ packed::MAX_AGE`). The
    /// oracle and the packed states must agree on every observable through
    /// an eviction-heavy string with mid-stream joins — this is the last
    /// power-of-two associativity before the clamp engages.
    #[test]
    fn lockstep_agrees_at_the_largest_unclamped_associativity() {
        let config = CacheConfig::new(128, 16, 2048).unwrap(); // one 128-way set
        assert!(
            !MayState::new(&config).is_unbounded(),
            "128 ways fit the lane"
        );
        let mut a = Lockstep::new(&config);
        let mut b = Lockstep::new(&config);
        // 200 distinct blocks in one set: well past the associativity, so
        // both aging-out paths (must guarantee loss, may definite eviction)
        // fire; the re-reference pass exercises hit-path aging.
        for i in 0..200u64 {
            a.update(MemBlockId(i));
            b.update(MemBlockId(199 - i));
            if i % 31 == 30 {
                a = a.join(&b);
            }
            a.assert_equivalent(0..200, &format!("{config} cold fill {i}"));
        }
        for i in (0..200u64).step_by(3) {
            a.update(MemBlockId(i));
        }
        a.join(&b)
            .assert_equivalent(0..200, &format!("{config} warm join"));
    }

    /// One past the lane: at 256 ways must clamps its effective
    /// associativity to [`packed::MAX_AGE`] (255) while the oracle keeps
    /// the true width. Both agree exactly up to age 254; the 255th miss is
    /// where the documented sound divergence appears — packed drops the
    /// guarantee one access early, the oracle holds it for one more.
    #[test]
    fn must_clamps_to_the_packed_age_lane_at_256_ways() {
        use crate::packed;

        let config = CacheConfig::new(256, 16, 4096).unwrap(); // one 256-way set
        let mut must = MustState::new(&config);
        let mut legacy = LegacyMustState::new(&config);
        let victim = MemBlockId(1000);
        must.update(victim);
        legacy.update(victim);
        // 254 distinct misses: the victim ages in lockstep on both sides,
        // ending exactly at MAX_AGE - 1 — the last age the lane can hold.
        for i in 0..u64::from(packed::MAX_AGE) - 1 {
            must.update(MemBlockId(i));
            legacy.update(MemBlockId(i));
            assert_eq!(
                must.age(victim),
                legacy.age(victim),
                "agreement below the clamp (miss {i})"
            );
        }
        assert_eq!(must.age(victim), Some(packed::MAX_AGE - 1));
        // Miss 255: age would reach the clamped associativity, so packed
        // soundly forgets the guarantee; the unclamped oracle still holds
        // the block at age 255 of 256.
        must.update(MemBlockId(999));
        legacy.update(MemBlockId(999));
        assert!(!must.contains(victim), "clamped must drops at 255 ways");
        assert_eq!(
            legacy.age(victim),
            Some(packed::MAX_AGE),
            "oracle keeps the true width"
        );
    }

    /// The may-side counterpart: a bounded effective associativity wider
    /// than the lane widens to the UNBOUNDED sentinel domain — nothing is
    /// ever definitely evicted, so no reference classifies always-miss.
    /// At 128 ways the domain stays bounded and definite eviction fires.
    #[test]
    fn may_widens_to_unbounded_past_the_age_lane() {
        // LRU is the only policy whose bounded may domain can outgrow the
        // lane; FIFO and tree-PLRU are unbounded at any width already.
        let wide = CacheConfig::new(256, 16, 4096).unwrap();
        let mut may = MayState::new(&wide);
        assert!(may.is_unbounded(), "256 > MAX_AGE widens to the sentinel");
        let victim = MemBlockId(1000);
        may.update(victim);
        for i in 0..600u64 {
            may.update(MemBlockId(i));
        }
        assert_eq!(
            may.age(victim),
            Some(0),
            "unbounded may never ages anything out"
        );

        let edge = CacheConfig::new(128, 16, 2048).unwrap();
        let mut may = MayState::new(&edge);
        assert!(!may.is_unbounded());
        may.update(victim);
        for i in 0..128u64 {
            may.update(MemBlockId(i));
        }
        assert!(
            !may.contains(victim),
            "bounded may evicts past 128 distinct blocks"
        );

        for policy in [ReplacementPolicy::Fifo, ReplacementPolicy::Plru] {
            let small = CacheConfig::new(4, 16, 64)
                .unwrap()
                .with_policy(policy)
                .unwrap();
            assert!(
                MayState::new(&small).is_unbounded(),
                "{policy}: competitiveness reduction has no bounded may domain"
            );
        }
    }
}
