//! The WCET path as a linear reference sequence with prefix sums.
//!
//! The IPET solution concentrates the worst case on a single source→sink
//! path through the VIVU graph; flattening its references gives the
//! sequence the joint improvement criterion reasons over: `r_{i+1}`
//! lookup, next-use search for a replaced block, and the effectiveness
//! window `t_w(r_{i+1}, r_{j−1})` (Eq. 5) as a prefix-sum difference.

use rtpf_isa::MemBlockId;
use rtpf_wcet::{RefId, WcetAnalysis};

/// The WCET path flattened to references, with `t_w` prefix sums.
#[derive(Clone, Debug)]
pub struct WcetPath {
    refs: Vec<RefId>,
    /// Position of each reference on the path (`u32::MAX` = off-path).
    pos: Vec<u32>,
    /// `prefix[i]` = Σ `t_w(refs[0..i])` (per execution, unweighted).
    prefix: Vec<u64>,
}

impl WcetPath {
    /// Extracts the WCET path of an analysis.
    pub fn of(a: &WcetAnalysis) -> Self {
        let mut refs: Vec<RefId> = Vec::new();
        for &n in a.vivu().topo() {
            if a.node_on_wcet_path(n) {
                refs.extend_from_slice(a.acfg().refs_of_node(n));
            }
        }
        let mut pos = vec![u32::MAX; a.acfg().len()];
        for (i, &r) in refs.iter().enumerate() {
            pos[r.index()] = i as u32;
        }
        let mut prefix = Vec::with_capacity(refs.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for &r in &refs {
            acc += a.t_w(r);
            prefix.push(acc);
        }
        WcetPath { refs, pos, prefix }
    }

    /// References on the path, in execution order.
    #[inline]
    pub fn refs(&self) -> &[RefId] {
        &self.refs
    }

    /// Position of `r` on the path, if it lies on it.
    pub fn position(&self, r: RefId) -> Option<usize> {
        match self.pos[r.index()] {
            u32::MAX => None,
            p => Some(p as usize),
        }
    }

    /// The reference following `r` on the path.
    pub fn next(&self, r: RefId) -> Option<RefId> {
        let p = self.position(r)?;
        self.refs.get(p + 1).copied()
    }

    /// The first path reference after `from` (exclusive) whose fetched
    /// block is `block` — the paper's `r_j` for a replacement of `block`.
    pub fn next_use(&self, a: &WcetAnalysis, from: RefId, block: MemBlockId) -> Option<RefId> {
        let p = self.position(from)?;
        self.refs[p + 1..]
            .iter()
            .copied()
            .find(|&r| a.mem_block(r) == block)
    }

    /// Worst-case time spent on path positions `[from, to]` inclusive, per
    /// single traversal (Eq. 5's `t_w(r_{i+1}, r_{j−1})` when called with
    /// the neighbours of an insertion point and use site).
    ///
    /// Returns 0 when the interval is empty (`from > to`).
    pub fn span_cycles(&self, from: usize, to: usize) -> u64 {
        if from > to || from >= self.refs.len() {
            return 0;
        }
        let to = to.min(self.refs.len() - 1);
        self.prefix[to + 1] - self.prefix[from]
    }

    /// Number of references on the path.
    #[inline]
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the path is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_cache::{CacheConfig, MemTiming};
    use rtpf_isa::shape::Shape;
    use rtpf_wcet::AnalysisOptions;

    fn analyze(shape: Shape) -> WcetAnalysis {
        let p = shape.compile("t");
        WcetAnalysis::analyze(
            &p,
            &AnalysisOptions::new(CacheConfig::new(2, 16, 256).unwrap(), MemTiming::default()),
        )
        .unwrap()
    }

    #[test]
    fn straight_line_path_covers_everything() {
        let a = analyze(Shape::code(10));
        let path = WcetPath::of(&a);
        assert_eq!(path.len(), 10);
        for (i, &r) in path.refs().iter().enumerate() {
            assert_eq!(path.position(r), Some(i));
        }
    }

    #[test]
    fn off_path_arm_is_absent() {
        let a = analyze(Shape::if_else(1, Shape::code(20), Shape::code(3)));
        let path = WcetPath::of(&a);
        let off = a
            .acfg()
            .refs()
            .iter()
            .filter(|r| path.position(r.id).is_none())
            .count();
        assert!(off >= 3, "the light arm must be off the WCET path");
    }

    #[test]
    fn prefix_sums_match_t_w() {
        let a = analyze(Shape::code(12));
        let path = WcetPath::of(&a);
        let manual: u64 = path.refs().iter().map(|&r| a.t_w(r)).sum();
        assert_eq!(path.span_cycles(0, path.len() - 1), manual);
        // Single element.
        let r0 = path.refs()[0];
        assert_eq!(path.span_cycles(0, 0), a.t_w(r0));
        // Empty interval.
        assert_eq!(path.span_cycles(3, 2), 0);
    }

    #[test]
    fn next_use_finds_block_reuse_across_loop_instances() {
        // Loop body references the same blocks in first and rest contexts.
        let a = analyze(Shape::loop_(5, Shape::code(6)));
        let path = WcetPath::of(&a);
        let first = path.refs()[0];
        let block = a.mem_block(first);
        // The entry code and the loop share early blocks; next_use must
        // find a later reference or none, never panic.
        let _ = path.next_use(&a, first, block);
        // Next of the last ref is None.
        let last = *path.refs().last().unwrap();
        assert!(path.next(last).is_none());
    }
}
