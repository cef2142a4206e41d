//! The abstract control-flow graph over *references* (paper Definition 6).
//!
//! Every instruction fetch in a VIVU context is a reference `r ∈ R`; edges
//! give the execution order. The graph is polar (virtual source/sink are
//! implicit: [`Acfg::entry_refs`] / nodes without successors) and acyclic —
//! back edges were already broken by VIVU. The prefetch optimizer walks
//! this graph in reverse topological order (the paper's `ACFG*` is its
//! reversal, which we expose as [`Acfg::preds`] rather than materializing a
//! second graph).

use rtpf_isa::{InstrId, Program};

use crate::vec_bytes;
use crate::vivu::{NodeId, VivuGraph};

/// Identity of a reference (an instruction fetch in one VIVU context).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RefId(pub u32);

impl RefId {
    /// Arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RefId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One reference: which instruction, in which VIVU node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Reference {
    /// Identity of the reference.
    pub id: RefId,
    /// The fetched instruction.
    pub instr: InstrId,
    /// The VIVU context instance performing the fetch.
    pub node: NodeId,
}

/// The acyclic reference graph.
///
/// References are allocated node by node in topological order, so ids are
/// contiguous per VIVU node and the id sequence is itself a topological
/// order. Adjacency is stored in compressed (offset + flat data) form —
/// the graph is rebuilt for every candidate program the optimizer
/// verifies, and one flat allocation beats thousands of per-reference
/// vectors.
#[derive(Clone, Debug)]
pub struct Acfg {
    refs: Vec<Reference>,
    /// Identity sequence `r0, r1, …`; backs [`topo`](Acfg::topo) and the
    /// per-node slices of [`refs_of_node`](Acfg::refs_of_node).
    ids: Vec<RefId>,
    succ_off: Vec<u32>,
    succ_dat: Vec<RefId>,
    pred_off: Vec<u32>,
    pred_dat: Vec<RefId>,
    entry_refs: Vec<RefId>,
    /// Per VIVU node: the id range `[node_start[n], node_end[n])`.
    node_start: Vec<u32>,
    node_end: Vec<u32>,
}

impl Acfg {
    /// Builds the reference graph of `p` over its VIVU expansion.
    pub fn build(p: &Program, vivu: &VivuGraph) -> Acfg {
        let n = vivu.len();
        let mut refs: Vec<Reference> = Vec::new();
        let mut node_start = vec![0u32; n];
        let mut node_end = vec![0u32; n];

        // Allocate references node by node in topological order so that the
        // flattened order is itself topological.
        for &nd in vivu.topo() {
            let block = vivu.node(nd).block;
            node_start[nd.index()] = refs.len() as u32;
            for &i in p.block(block).instrs() {
                let id = RefId(refs.len() as u32);
                refs.push(Reference {
                    id,
                    instr: i,
                    node: nd,
                });
            }
            node_end[nd.index()] = refs.len() as u32;
        }
        let m = refs.len();
        let ids: Vec<RefId> = (0..m as u32).map(RefId).collect();

        // `first_of[n]`: the references where execution continues when it
        // reaches node `n`; resolves through empty nodes. Computed in
        // reverse topological order so successors are ready.
        let mut first_of: Vec<Vec<RefId>> = vec![Vec::new(); n];
        for &nd in vivu.topo().iter().rev() {
            let i = nd.index();
            if node_start[i] != node_end[i] {
                first_of[i] = vec![RefId(node_start[i])];
            } else {
                let mut firsts: Vec<RefId> = Vec::new();
                for &s in vivu.succs(nd) {
                    for &f in &first_of[s.index()] {
                        if !firsts.contains(&f) {
                            firsts.push(f);
                        }
                    }
                }
                first_of[i] = firsts;
            }
        }

        // Inter-node edges: last reference of a node to the first
        // reference(s) of each successor (deduplicated).
        let mut inter: Vec<(RefId, RefId)> = Vec::new();
        for nd in 0..n {
            if node_start[nd] == node_end[nd] {
                continue;
            }
            let last = RefId(node_end[nd] - 1);
            let before = inter.len();
            for &s in vivu.succs(NodeId(nd as u32)) {
                for &f in &first_of[s.index()] {
                    if !inter[before..].iter().any(|&(_, t)| t == f) {
                        inter.push((last, f));
                    }
                }
            }
        }

        // Degree counts → offsets → fill, preserving the edge order of the
        // nested-vector representation (intra-node chains first, then
        // inter-node edges in node-index order).
        let mut succ_off = vec![0u32; m + 1];
        let mut pred_off = vec![0u32; m + 1];
        for nd in 0..n {
            if node_end[nd] > node_start[nd] {
                for k in node_start[nd]..node_end[nd] - 1 {
                    succ_off[k as usize + 1] += 1;
                    pred_off[k as usize + 2] += 1;
                }
            }
        }
        for &(from, to) in &inter {
            succ_off[from.index() + 1] += 1;
            pred_off[to.index() + 1] += 1;
        }
        for i in 0..m {
            succ_off[i + 1] += succ_off[i];
            pred_off[i + 1] += pred_off[i];
        }
        let mut succ_cur: Vec<u32> = succ_off[..m].to_vec();
        let mut pred_cur: Vec<u32> = pred_off[..m].to_vec();
        let mut succ_dat = vec![RefId(0); succ_off[m] as usize];
        let mut pred_dat = vec![RefId(0); pred_off[m] as usize];
        for nd in 0..n {
            if node_end[nd] > node_start[nd] {
                for k in node_start[nd]..node_end[nd] - 1 {
                    succ_dat[succ_cur[k as usize] as usize] = RefId(k + 1);
                    succ_cur[k as usize] += 1;
                    pred_dat[pred_cur[k as usize + 1] as usize] = RefId(k);
                    pred_cur[k as usize + 1] += 1;
                }
            }
        }
        for &(from, to) in &inter {
            succ_dat[succ_cur[from.index()] as usize] = to;
            succ_cur[from.index()] += 1;
            pred_dat[pred_cur[to.index()] as usize] = from;
            pred_cur[to.index()] += 1;
        }

        let entry_refs = first_of[vivu.entry().index()].clone();

        Acfg {
            refs,
            ids,
            succ_off,
            succ_dat,
            pred_off,
            pred_dat,
            entry_refs,
            node_start,
            node_end,
        }
    }

    /// All references.
    #[inline]
    pub fn refs(&self) -> &[Reference] {
        &self.refs
    }

    /// Reference lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn reference(&self, id: RefId) -> Reference {
        self.refs[id.index()]
    }

    /// Execution-order successors of `id`.
    #[inline]
    pub fn succs(&self, id: RefId) -> &[RefId] {
        let i = id.index();
        &self.succ_dat[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Execution-order predecessors of `id` (the successors in the paper's
    /// reversed `ACFG*`).
    #[inline]
    pub fn preds(&self, id: RefId) -> &[RefId] {
        let i = id.index();
        &self.pred_dat[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// References where execution starts (targets of the virtual source).
    #[inline]
    pub fn entry_refs(&self) -> &[RefId] {
        &self.entry_refs
    }

    /// References with no successors (sources of the virtual sink).
    pub fn exit_refs(&self) -> Vec<RefId> {
        (0..self.refs.len())
            .filter(|&i| self.succ_off[i] == self.succ_off[i + 1])
            .map(|i| RefId(i as u32))
            .collect()
    }

    /// A topological order of the references (execution order).
    #[inline]
    pub fn topo(&self) -> &[RefId] {
        &self.ids
    }

    /// References of a VIVU node, in instruction order.
    #[inline]
    pub fn refs_of_node(&self, n: NodeId) -> &[RefId] {
        let i = n.index();
        &self.ids[self.node_start[i] as usize..self.node_end[i] as usize]
    }

    /// Number of references.
    #[inline]
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the program has no references.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Heap bytes of the graph's arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.refs)
            + vec_bytes(&self.ids)
            + vec_bytes(&self.succ_off)
            + vec_bytes(&self.succ_dat)
            + vec_bytes(&self.pred_off)
            + vec_bytes(&self.pred_dat)
            + vec_bytes(&self.entry_refs)
            + vec_bytes(&self.node_start)
            + vec_bytes(&self.node_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_isa::shape::Shape;

    fn build(shape: Shape) -> (Program, VivuGraph, Acfg) {
        let p = shape.compile("t");
        let v = VivuGraph::build(&p).unwrap();
        let a = Acfg::build(&p, &v);
        (p, v, a)
    }

    #[test]
    fn straight_line_is_a_chain() {
        let (p, _, a) = build(Shape::code(8));
        assert_eq!(a.len(), p.instr_count());
        assert_eq!(a.entry_refs().len(), 1);
        assert_eq!(a.exit_refs().len(), 1);
        for r in a.refs() {
            assert!(a.succs(r.id).len() <= 1);
            assert!(a.preds(r.id).len() <= 1);
        }
    }

    #[test]
    fn loop_references_appear_twice() {
        let (p, _, a) = build(Shape::loop_(10, Shape::code(5)));
        // Loop header and body referenced in first and rest contexts.
        assert!(a.len() > p.instr_count());
        use std::collections::HashMap;
        let mut count: HashMap<rtpf_isa::InstrId, usize> = HashMap::new();
        for r in a.refs() {
            *count.entry(r.instr).or_default() += 1;
        }
        assert!(count.values().all(|&c| c <= 2));
        assert!(count.values().any(|&c| c == 2));
    }

    #[test]
    fn topo_respects_edges() {
        let (_, _, a) = build(Shape::loop_(
            4,
            Shape::if_else(1, Shape::code(3), Shape::code(2)),
        ));
        let pos: std::collections::HashMap<RefId, usize> =
            a.topo().iter().enumerate().map(|(i, &r)| (r, i)).collect();
        for r in a.refs() {
            for &s in a.succs(r.id) {
                assert!(pos[&r.id] < pos[&s]);
            }
        }
        assert_eq!(a.topo().len(), a.len());
    }

    #[test]
    fn merge_points_have_multiple_preds() {
        let (_, _, a) = build(Shape::if_else(1, Shape::code(3), Shape::code(2)));
        let merges = a.refs().iter().filter(|r| a.preds(r.id).len() >= 2).count();
        assert_eq!(merges, 1, "exactly the join after the diamond");
    }

    #[test]
    fn node_refs_partition_all_references() {
        let (_, v, a) = build(Shape::loop_(3, Shape::code(4)));
        let total: usize = (0..v.len())
            .map(|n| a.refs_of_node(crate::vivu::NodeId(n as u32)).len())
            .sum();
        assert_eq!(total, a.len());
    }
}
