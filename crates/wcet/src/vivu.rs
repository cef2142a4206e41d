//! The VIVU transformation: virtual unrolling of every natural loop.
//!
//! Each basic block is replicated per [`Context`]: once for the first
//! iteration of each enclosing loop and once for the collapsed "rest"
//! iterations (the paper's `r²` / `r³⁺` instances in Figure 6). Back edges
//! within the rest instance are *broken* — recorded separately so the
//! classification fixpoint stays sound — and replaced by edges to the
//! loop's exit targets so every bounded execution corresponds to a path in
//! the acyclic graph.

use std::collections::HashMap;

use rtpf_isa::dom::Dominators;
use rtpf_isa::loops::LoopForest;
use rtpf_isa::{BlockId, Program};

use crate::context::{Context, Iter};
use crate::error::AnalysisError;
use crate::vec_bytes;

/// Budget on VIVU nodes before reporting context explosion.
const MAX_NODES: usize = 200_000;

/// Identity of a VIVU node (a basic block in a context).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A basic block instance in a VIVU context.
#[derive(Clone, Debug)]
pub struct VivuNode {
    /// Identity of the node.
    pub id: NodeId,
    /// The underlying basic block.
    pub block: BlockId,
    /// The iteration context.
    pub ctx: Context,
    /// Worst-case executions of this instance per program run
    /// (product of `bound − 1` over enclosing rest frames).
    pub mult: u64,
}

/// The peeled, context-expanded control-flow graph.
///
/// # Example
///
/// ```
/// use rtpf_isa::shape::Shape;
/// use rtpf_wcet::VivuGraph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Shape::loop_(10, Shape::code(5)).compile("loop");
/// let g = VivuGraph::build(&p)?;
/// // The loop body exists twice: first iteration and collapsed rest.
/// assert!(g.len() > p.block_count());
/// assert_eq!(g.back_edges().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct VivuGraph {
    nodes: Vec<VivuNode>,
    /// Adjacency in compressed-sparse-row form, frozen after the build:
    /// `succ_dat[succ_off[i]..succ_off[i+1]]` are node `i`'s successors.
    /// Two flat arrays per direction instead of a `Vec` per node — the
    /// graph is rebuilt for every analysis, so construction allocations
    /// and traversal locality both matter.
    succ_off: Vec<u32>,
    succ_dat: Vec<NodeId>,
    pred_off: Vec<u32>,
    pred_dat: Vec<NodeId>,
    /// Broken back edges `(latch_node, header_node)`, needed for a sound
    /// classification fixpoint (state can flow around the rest instance).
    back_edges: Vec<(NodeId, NodeId)>,
    entry: NodeId,
    topo: Vec<NodeId>,
}

impl VivuGraph {
    /// Expands `p` (validated) into its VIVU context graph.
    ///
    /// # Errors
    ///
    /// Fails if the program is invalid or the expansion exceeds the node
    /// budget.
    pub fn build(p: &Program) -> Result<Self, AnalysisError> {
        p.validate()?;
        let dom = Dominators::compute(p);
        let forest = LoopForest::compute(p, &dom).map_err(|e| {
            AnalysisError::InvalidProgram(rtpf_isa::ValidateError::Irreducible(e.block()))
        })?;
        let bound = |h: BlockId| p.loop_bound(h).unwrap_or(1);

        let mut nodes: Vec<VivuNode> = Vec::new();
        let mut succs: Vec<Vec<NodeId>> = Vec::new();
        let mut preds: Vec<Vec<NodeId>> = Vec::new();
        let mut back_edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut index: HashMap<(BlockId, Context), NodeId> = HashMap::new();

        let in_loop =
            |h: BlockId, b: BlockId| forest.loop_of(h).is_some_and(|l| l.body.contains(&b));

        let mut intern = |b: BlockId,
                          ctx: Context,
                          nodes: &mut Vec<VivuNode>,
                          succs: &mut Vec<Vec<NodeId>>,
                          preds: &mut Vec<Vec<NodeId>>,
                          work: &mut Vec<NodeId>|
         -> Result<NodeId, AnalysisError> {
            if let Some(&id) = index.get(&(b, ctx.clone())) {
                return Ok(id);
            }
            if nodes.len() >= MAX_NODES {
                return Err(AnalysisError::ContextExplosion {
                    contexts: nodes.len(),
                });
            }
            let id = NodeId(nodes.len() as u32);
            let mult = ctx.multiplicity(bound);
            nodes.push(VivuNode {
                id,
                block: b,
                ctx: ctx.clone(),
                mult,
            });
            succs.push(Vec::new());
            preds.push(Vec::new());
            index.insert((b, ctx), id);
            work.push(id);
            Ok(id)
        };

        let mut work: Vec<NodeId> = Vec::new();
        let entry_block = p.entry();
        let entry_ctx = if forest.loop_of(entry_block).is_some() {
            Context::root().push_first(entry_block)
        } else {
            Context::root()
        };
        let entry = intern(
            entry_block,
            entry_ctx,
            &mut nodes,
            &mut succs,
            &mut preds,
            &mut work,
        )?;

        // Context transition for a *forward* (non-back) CFG edge.
        let forward_ctx = |ctx: &Context, v: BlockId| -> Context {
            let popped = ctx.pop_while(|h| !in_loop(h, v));
            if forest.loop_of(v).is_some() {
                // An edge to a header from outside its loop enters iteration 1.
                let already_in = popped.frames().last().is_some_and(|&(h, _)| h == v);
                if already_in {
                    popped
                } else {
                    popped.push_first(v)
                }
            } else {
                popped
            }
        };

        while let Some(u) = work.pop() {
            let (ub, uctx) = (nodes[u.index()].block, nodes[u.index()].ctx.clone());
            for &(v, _) in p.succs(ub) {
                if forest.is_back_edge(ub, v) {
                    // Pop inner frames until the frame for loop v is on top.
                    let popped = uctx.pop_while(|h| h != v);
                    let frame = popped
                        .frames()
                        .last()
                        .copied()
                        .expect("back edge target frame present");
                    debug_assert_eq!(frame.0, v);
                    let b = bound(v);
                    let rest_feasible = b >= 2;
                    let goes_forward = frame.1 == Iter::First && rest_feasible;
                    if goes_forward {
                        // First → rest: a forward edge in the peeled graph.
                        let tctx = popped.to_rest(v);
                        let t = intern(v, tctx, &mut nodes, &mut succs, &mut preds, &mut work)?;
                        add_edge(&mut succs, &mut preds, u, t);
                    } else if frame.1 == Iter::Rest {
                        // Rest → rest: broken; record for the fixpoint and
                        // reroute to the loop's header-exit targets.
                        let tctx = popped.clone();
                        let t = intern(v, tctx, &mut nodes, &mut succs, &mut preds, &mut work)?;
                        back_edges.push((u, t));
                        for &(w, _) in p.succs(v) {
                            if !in_loop(v, w) {
                                let wctx = forward_ctx(&popped, w);
                                let wn =
                                    intern(w, wctx, &mut nodes, &mut succs, &mut preds, &mut work)?;
                                add_edge(&mut succs, &mut preds, u, wn);
                            }
                        }
                    } else {
                        // bound == 1: the body runs exactly once; the back
                        // edge can only lead out through the header's exits.
                        for &(w, _) in p.succs(v) {
                            if !in_loop(v, w) {
                                let wctx = forward_ctx(&popped, w);
                                let wn =
                                    intern(w, wctx, &mut nodes, &mut succs, &mut preds, &mut work)?;
                                add_edge(&mut succs, &mut preds, u, wn);
                            }
                        }
                    }
                } else {
                    // Loops execute at least once (the benchmarks'
                    // counted-`for` semantics): the first-iteration header
                    // instance must enter the body, so its loop-exit edges
                    // are infeasible and dropped. Without this, the must
                    // join at every loop exit intersects with the
                    // "zero iterations" path and loses all guarantees the
                    // loop established.
                    if forest.loop_of(ub).is_some()
                        && uctx
                            .frames()
                            .last()
                            .is_some_and(|&(h, it)| h == ub && it == Iter::First)
                        && !in_loop(ub, v)
                    {
                        continue;
                    }
                    let tctx = forward_ctx(&uctx, v);
                    let t = intern(v, tctx, &mut nodes, &mut succs, &mut preds, &mut work)?;
                    add_edge(&mut succs, &mut preds, u, t);
                }
            }
        }

        let topo = topo_order(&nodes, &succs, &preds)
            .map_err(|_| AnalysisError::Ipet("VIVU graph is not acyclic".into()))?;

        let (succ_off, succ_dat) = to_csr(&succs);
        let (pred_off, pred_dat) = to_csr(&preds);
        Ok(VivuGraph {
            nodes,
            succ_off,
            succ_dat,
            pred_off,
            pred_dat,
            back_edges,
            entry,
            topo,
        })
    }

    /// All nodes, indexed by [`NodeId`].
    #[inline]
    pub fn nodes(&self) -> &[VivuNode] {
        &self.nodes
    }

    /// Node lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &VivuNode {
        &self.nodes[id.index()]
    }

    /// Acyclic successors of `id` (back edges excluded).
    #[inline]
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.succ_dat[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Acyclic predecessors of `id`.
    #[inline]
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.pred_dat[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// The broken back edges `(latch, header)` of every rest instance.
    #[inline]
    pub fn back_edges(&self) -> &[(NodeId, NodeId)] {
        &self.back_edges
    }

    /// Entry node.
    #[inline]
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// Nodes with no acyclic successors (program exits and dead-end
    /// latches).
    pub fn exits(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| self.succs(n).is_empty())
            .collect()
    }

    /// A topological order of the acyclic edge relation.
    #[inline]
    pub fn topo(&self) -> &[NodeId] {
        &self.topo
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty (never true for a valid program).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Heap bytes of the graph's arrays and its nodes' context stacks.
    pub(crate) fn heap_bytes(&self) -> usize {
        let frames: usize = self
            .nodes
            .iter()
            .map(|n| std::mem::size_of_val(n.ctx.frames()))
            .sum();
        frames
            + vec_bytes(&self.nodes)
            + vec_bytes(&self.succ_off)
            + vec_bytes(&self.succ_dat)
            + vec_bytes(&self.pred_off)
            + vec_bytes(&self.pred_dat)
            + vec_bytes(&self.back_edges)
            + vec_bytes(&self.topo)
    }

    /// The node for `(block, ctx)`, if it was reachable.
    pub fn find(&self, block: BlockId, ctx: &Context) -> Option<NodeId> {
        self.nodes
            .iter()
            .find(|n| n.block == block && &n.ctx == ctx)
            .map(|n| n.id)
    }
}

/// Flattens build-time adjacency lists into offset + data arrays.
fn to_csr(lists: &[Vec<NodeId>]) -> (Vec<u32>, Vec<NodeId>) {
    let mut off = Vec::with_capacity(lists.len() + 1);
    let mut dat = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    off.push(0);
    for l in lists {
        dat.extend_from_slice(l);
        off.push(dat.len() as u32);
    }
    (off, dat)
}

fn add_edge(succs: &mut [Vec<NodeId>], preds: &mut [Vec<NodeId>], u: NodeId, v: NodeId) {
    if !succs[u.index()].contains(&v) {
        succs[u.index()].push(v);
        preds[v.index()].push(u);
    }
}

fn topo_order(
    nodes: &[VivuNode],
    succs: &[Vec<NodeId>],
    preds: &[Vec<NodeId>],
) -> Result<Vec<NodeId>, ()> {
    let n = nodes.len();
    let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut queue: Vec<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|i| indeg[i.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = queue.pop() {
        order.push(u);
        for &v in &succs[u.index()] {
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                queue.push(v);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_isa::shape::Shape;

    #[test]
    fn straight_line_is_isomorphic() {
        let p = Shape::seq([
            Shape::code(4),
            Shape::if_else(1, Shape::code(2), Shape::code(3)),
        ])
        .compile("s");
        let g = VivuGraph::build(&p).unwrap();
        assert_eq!(g.len(), p.block_count());
        assert!(g.back_edges().is_empty());
    }

    #[test]
    fn single_loop_is_peeled_once() {
        // Figure 6 of the paper: loop body instantiated twice.
        let p = Shape::loop_(10, Shape::code(5)).compile("l");
        let g = VivuGraph::build(&p).unwrap();
        // entry + header(F) + body(F) + header(R) + body(R) + exit
        assert_eq!(g.len(), 6);
        assert_eq!(g.back_edges().len(), 1, "one broken rest back edge");
        // Multiplicities: first instances 1, rest instances bound−1 = 9.
        let mut mults: Vec<u64> = g.nodes().iter().map(|n| n.mult).collect();
        mults.sort_unstable();
        assert_eq!(mults, vec![1, 1, 1, 1, 9, 9]);
    }

    #[test]
    fn rest_latch_gains_exit_edge() {
        let p = Shape::loop_(10, Shape::code(5)).compile("l");
        let g = VivuGraph::build(&p).unwrap();
        let (latch, header) = g.back_edges()[0];
        // The broken back edge is rerouted to the header's exit target.
        assert!(!g.succs(latch).is_empty(), "latch must not dead-end");
        assert!(!g.succs(latch).contains(&header));
        // Exactly one exit node (the loop exit continues to program exit).
        let exits = g.exits();
        assert_eq!(exits.len(), 1);
    }

    #[test]
    fn nested_loops_expand_multiplicatively() {
        let p = Shape::loop_(4, Shape::loop_(8, Shape::code(3))).compile("n");
        let g = VivuGraph::build(&p).unwrap();
        // Inner loop appears under outer First and outer Rest.
        let max_mult = g.nodes().iter().map(|n| n.mult).max().unwrap();
        assert_eq!(max_mult, 3 * 7); // (4−1) × (8−1)
        assert_eq!(g.back_edges().len(), 3); // inner@outerF, inner@outerR, outer
    }

    #[test]
    fn bound_one_loop_has_no_rest_instance() {
        let p = Shape::loop_(1, Shape::code(5)).compile("one");
        let g = VivuGraph::build(&p).unwrap();
        assert!(g.back_edges().is_empty());
        assert!(g.nodes().iter().all(|n| n.mult == 1));
        // Still reaches the exit.
        assert!(!g.exits().is_empty());
    }

    #[test]
    fn topo_order_is_consistent() {
        let p = Shape::loop_(4, Shape::if_else(1, Shape::code(2), Shape::code(3))).compile("t");
        let g = VivuGraph::build(&p).unwrap();
        let pos: std::collections::HashMap<NodeId, usize> =
            g.topo().iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in 0..g.len() as u32 {
            let n = NodeId(n);
            for &s in g.succs(n) {
                assert!(pos[&n] < pos[&s], "topo violates edge {n:?} -> {s:?}");
            }
        }
    }

    /// Supplement S.3 (Figure 6): a cyclic CFG whose back edge VIVU
    /// breaks, instantiating the body as `r²` (first) and `r³⁺` (rest),
    /// with the loop effect encoded in the conditional flow.
    #[test]
    fn figure6_loop() {
        let p = Shape::seq([
            Shape::code(1),
            Shape::loop_(5, Shape::code(3)),
            Shape::code(1),
        ])
        .compile("fig6");
        let g = VivuGraph::build(&p).unwrap();
        // The body block exists in exactly two instances: first and rest.
        let body_instances: Vec<&VivuNode> = g
            .nodes()
            .iter()
            .filter(|n| p.block(n.block).len() == 3)
            .collect();
        assert_eq!(body_instances.len(), 2, "body peeled exactly once");
        let iters: Vec<Iter> = body_instances
            .iter()
            .map(|n| n.ctx.frames().last().expect("in loop").1)
            .collect();
        assert!(iters.contains(&Iter::First));
        assert!(iters.contains(&Iter::Rest));
        // The broken back edge is exactly the rest instance's self-cycle.
        assert_eq!(g.back_edges().len(), 1);
        let (latch, header) = g.back_edges()[0];
        assert_eq!(
            g.node(latch).ctx.frames().last().expect("latch in loop").1,
            Iter::Rest
        );
        assert_eq!(g.node(header).block, g.node(latch).ctx.frames()[0].0);
    }

    #[test]
    fn conditional_inside_loop_replicates_both_arms() {
        let p = Shape::loop_(6, Shape::if_else(1, Shape::code(2), Shape::code(3))).compile("c");
        let g = VivuGraph::build(&p).unwrap();
        // Each loop-body block appears in first and rest instances.
        let body_blocks = p.block_count() - 2; // minus entry and loop exit
        assert!(g.len() >= body_blocks + 2);
        let rest_nodes = g
            .nodes()
            .iter()
            .filter(|n| n.ctx.frames().iter().any(|&(_, it)| it == Iter::Rest))
            .count();
        assert!(rest_nodes >= 4, "both arms must exist in the rest instance");
    }
}
