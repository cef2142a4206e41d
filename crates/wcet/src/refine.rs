//! Per-set exact refinement behind the classify fixpoint (DESIGN.md §12).
//!
//! For every cache set holding a reference the cheap competitiveness-based
//! FIFO/tree-PLRU analysis left unclassified, this pass runs a focused
//! finite-state exploration over the VIVU context graph (with the loop
//! back edges restored, read from the lineage's fixpoint topology): the
//! least fixpoint of *sets of concrete per-set policy states*
//! ([`SetState`] — the exact FIFO insertion queue / PLRU tree bits
//! projected onto that one cache set), seeded cold at
//! predecessor-less nodes, unioned (and deduplicated) at join points, and
//! pushed through each node's touched-block signature exactly as the
//! concrete cache would execute it.
//!
//! The explored state sets over-approximate every state any bounded
//! concrete walk can reach at a node, so the verdict is sound: an
//! unclassified reference that hits in **every** explored in-state is
//! upgraded to always-hit, one that misses in every state to always-miss,
//! anything mixed stays unclassified. A per-node state budget
//! ([`RefineConfig::max_states`]) bounds the exploration; exceeding it
//! abandons the *whole* set — concluding from a partial exploration would
//! be unsound — and keeps the cheap classification for its references.
//!
//! The per-set explorations are completely independent — each reads only
//! the shared graph and touches only references mapping to its own set —
//! so they fan out across the solver's worker threads (the `threads` knob)
//! and their outcomes are applied sequentially in sorted set order, which
//! keeps the pass deterministic at any thread count.
//!
//! The pass runs deterministically after every classification (full and
//! incremental alike), so an incremental re-analysis still produces
//! bit-identical results to a from-scratch run.
//!
//! **Memo.** An exploration reads nothing but the lineage's fixed graph,
//! geometry, policy and budget, plus the set's *projection*: for every
//! reference position whose own block or prefetch target maps to the set,
//! that block and (for the own block) whether the cheap pass left it
//! unclassified. The projection is encoded as a word key
//! (`projection_keys`) and looked up in the lineage's [`AnalysisCache`];
//! equal keys mean identical explorations, so a hit reuses the stored
//! outcome. Outcomes are node-relative (`(node, position)`): an insertion
//! renumbers the references after it, but an outcome names only
//! references its key pins to the same node and position.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rtpf_cache::{CacheConfig, Classification, RefineConfig, RefineMark, SetState};
use rtpf_isa::MemBlockId;

use crate::acfg::Acfg;
use crate::memo::{AnalysisCache, NodeSig, Topology};
use crate::vivu::{NodeId, VivuGraph};

/// Outcome counters of one refinement pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RefineStats {
    /// Cache sets with at least one unclassified reference (exploration
    /// targets).
    pub sets_targeted: u32,
    /// Targeted sets abandoned because a node's state set outgrew the
    /// budget; their references keep the cheap classification.
    pub sets_exhausted: u32,
    /// References upgraded unclassified → always-hit.
    pub refined_hits: u32,
    /// References upgraded unclassified → always-miss.
    pub refined_misses: u32,
}

/// Read-only context shared by every per-set exploration.
struct Ctx<'a> {
    acfg: &'a Acfg,
    sigs: &'a [NodeSig],
    /// Snapshot of the cheap classification the upgrades are judged
    /// against; a set's exploration only reads entries of its own set.
    class: &'a [Classification],
    topo: &'a [NodeId],
    /// Adjacency with the loop back edges restored.
    graph: &'a Topology,
    /// Flattened per-node access sequence (own block, then prefetch
    /// target, per reference — the order the concrete walk executes).
    accesses: &'a [Vec<MemBlockId>],
    /// Sorted set-index footprint per node, for quick "does this node
    /// touch set s" checks.
    footprint: &'a [Vec<u64>],
    policy: rtpf_cache::ReplacementPolicy,
    assoc: u32,
    n_sets: u64,
    budget: usize,
}

impl Ctx<'_> {
    #[inline]
    fn set_of(&self, b: MemBlockId) -> u64 {
        b.0 % self.n_sets
    }
}

/// What one set's exploration concluded, node-relative: a reference is
/// named by `(node index, position in the node)`. Applied to
/// `class`/`marks` sequentially, in sorted set order, and memoized per
/// projection in the lineage's [`AnalysisCache`].
pub(crate) struct SetOutcome {
    exhausted: bool,
    /// `(node, position, upgraded classification)` triples.
    refined: Vec<(u32, u32, Classification)>,
    /// References examined without enough evidence to upgrade.
    examined: Vec<(u32, u32)>,
}

/// Per-worker exploration scratch, node-indexed and reused across sets.
struct Scratch {
    out: Vec<Vec<SetState>>,
    pending: Vec<bool>,
}

impl Scratch {
    fn new(n: usize) -> Scratch {
        Scratch {
            out: vec![Vec::new(); n],
            pending: vec![false; n],
        }
    }
}

/// Runs the exploration and verdict for one cache set. Pure with respect
/// to shared state: reads `ctx`, mutates only `scratch` and the returned
/// outcome.
fn explore_set(ctx: &Ctx<'_>, set: u64, scratch: &mut Scratch) -> SetOutcome {
    let mut outcome = SetOutcome {
        exhausted: false,
        refined: Vec::new(),
        examined: Vec::new(),
    };
    for o in &mut scratch.out {
        o.clear();
    }
    scratch.pending.fill(true);

    // Chaotic iteration in topological order: forward edges resolve
    // within a sweep, back edges re-arm their headers for the next
    // one. State sets only grow (the transfer distributes over
    // union), so the budget bounds termination.
    'fixpoint: loop {
        let mut progressed = false;
        for &node in ctx.topo {
            let i = node.index();
            if !std::mem::replace(&mut scratch.pending[i], false) {
                continue;
            }
            let mut ins: Vec<SetState> = Vec::new();
            let preds = ctx.graph.preds(i);
            if preds.is_empty() {
                ins.push(SetState::cold());
            } else {
                for &p in preds {
                    ins.extend(scratch.out[p as usize].iter().cloned());
                }
                ins.sort_unstable();
                ins.dedup();
                if ins.is_empty() {
                    continue; // not reached yet; a pred update re-arms us
                }
            }
            if ins.len() > ctx.budget {
                outcome.exhausted = true;
                break 'fixpoint;
            }
            if ctx.footprint[i].binary_search(&set).is_ok() {
                for st in &mut ins {
                    for &b in &ctx.accesses[i] {
                        if ctx.set_of(b) == set {
                            st.access(ctx.policy, ctx.assoc, b.0);
                        }
                    }
                }
                ins.sort_unstable();
                ins.dedup();
            }
            if ins != scratch.out[i] {
                scratch.out[i] = ins;
                for &s in ctx.graph.succs(i) {
                    scratch.pending[s as usize] = true;
                }
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    if outcome.exhausted {
        for &node in ctx.topo {
            let i = node.index();
            let rids = ctx.acfg.refs_of_node(node);
            for (j, (r, &(own, _))) in rids.iter().zip(ctx.sigs[i].iter()).enumerate() {
                if ctx.class[r.index()] == Classification::Unclassified && ctx.set_of(own) == set {
                    outcome.examined.push((i as u32, j as u32));
                }
            }
        }
        return outcome;
    }

    // Verdict: replay every in-state through each node holding an
    // unclassified reference of this set. Unanimous outcomes upgrade;
    // anything mixed (or unreachable) stays cheap.
    for &node in ctx.topo {
        let i = node.index();
        let rids = ctx.acfg.refs_of_node(node);
        let sig = &ctx.sigs[i];
        let wanted = rids.iter().zip(sig.iter()).any(|(r, &(own, _))| {
            ctx.class[r.index()] == Classification::Unclassified && ctx.set_of(own) == set
        });
        if !wanted {
            continue;
        }
        let mut ins: Vec<SetState> = Vec::new();
        let preds = ctx.graph.preds(i);
        if preds.is_empty() {
            ins.push(SetState::cold());
        } else {
            for &p in preds {
                ins.extend(scratch.out[p as usize].iter().cloned());
            }
            ins.sort_unstable();
            ins.dedup();
        }
        let mut all_hit = vec![true; sig.len()];
        let mut all_miss = vec![true; sig.len()];
        for st0 in &ins {
            let mut st = st0.clone();
            for (j, &(own, pf)) in sig.iter().enumerate() {
                if ctx.set_of(own) == set {
                    if st.access(ctx.policy, ctx.assoc, own.0) {
                        all_miss[j] = false;
                    } else {
                        all_hit[j] = false;
                    }
                }
                if let Some(t) = pf {
                    if ctx.set_of(t) == set {
                        st.access(ctx.policy, ctx.assoc, t.0);
                    }
                }
            }
        }
        for (j, &r) in rids.iter().enumerate() {
            if ctx.class[r.index()] != Classification::Unclassified || ctx.set_of(sig[j].0) != set {
                continue;
            }
            let (node, pos) = (i as u32, j as u32);
            if ins.is_empty() {
                // Unreachable in the exploration (hence in every
                // concrete walk): no evidence either way.
                outcome.examined.push((node, pos));
            } else if all_hit[j] {
                outcome.refined.push((node, pos, Classification::AlwaysHit));
            } else if all_miss[j] {
                outcome
                    .refined
                    .push((node, pos, Classification::AlwaysMiss));
            } else {
                outcome.examined.push((node, pos));
            }
        }
    }
    outcome
}

/// Encodes each target set's projection as a memo key: the set index and
/// the state budget, then one fixed-width `(node, position << 2 | kind,
/// block)` triple per in-set access, in node and position order. `kind`
/// is `0`/`1` for a reference's own block (`1` when the cheap pass left
/// it unclassified) and `2` for its prefetch target. Everything an
/// exploration reads beyond the lineage's fixed graph, geometry and
/// policy is in the key, so equal keys mean identical explorations.
fn projection_keys(
    targets: &[u64],
    max_states: u32,
    acfg: &Acfg,
    sigs: &[NodeSig],
    class: &[Classification],
    n_sets: u64,
) -> Vec<Vec<u64>> {
    let mut keys: Vec<Vec<u64>> = targets
        .iter()
        .map(|&set| vec![set, u64::from(max_states)])
        .collect();
    for (i, sig) in sigs.iter().enumerate() {
        let rids = acfg.refs_of_node(NodeId(i as u32));
        for (j, (r, &(own, pf))) in rids.iter().zip(sig.iter()).enumerate() {
            let pos = (j as u64) << 2;
            if let Ok(k) = targets.binary_search(&(own.0 % n_sets)) {
                let unclassified = class[r.index()] == Classification::Unclassified;
                keys[k].extend([i as u64, pos | u64::from(unclassified), own.0]);
            }
            if let Some(t) = pf {
                if let Ok(k) = targets.binary_search(&(t.0 % n_sets)) {
                    keys[k].extend([i as u64, pos | 2, t.0]);
                }
            }
        }
    }
    keys
}

/// Refines `class` in place and reports what happened to each reference.
///
/// `sigs` are the per-node touched-block signatures of the classify pass
/// (own fetched block plus prefetch target per reference, in node-local
/// order) — exactly the access sequence a concrete walk executes at the
/// node. `mem_block` maps each reference to its fetched block. With a
/// `memo`, per-set outcomes are looked up in, and missing ones stored
/// into, its refinement memo; without one every target set is explored.
/// `threads` bounds the worker pool the per-set explorations fan out on
/// (`1` = sequential in place); results are identical at any thread
/// count.
///
/// The pass is a no-op (all marks [`RefineMark::Untouched`]) when
/// disabled, under LRU (the cheap domain is already exact), or when a
/// hardware next-line prefetcher is modelled (its folds are not part of
/// the concrete per-set replay).
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_classification(
    vivu: &VivuGraph,
    graph: &Topology,
    acfg: &Acfg,
    config: &CacheConfig,
    refine: RefineConfig,
    hw_next_line: Option<u32>,
    sigs: &[NodeSig],
    mem_block: &[MemBlockId],
    class: &mut [Classification],
    memo: Option<&AnalysisCache>,
    threads: usize,
) -> (Vec<RefineMark>, RefineStats) {
    let mut marks = vec![RefineMark::Untouched; class.len()];
    let mut stats = RefineStats::default();
    if !refine.applies_to(config.policy()) || hw_next_line.is_some() {
        return (marks, stats);
    }
    let n_sets = u64::from(config.n_sets());
    let set_of = |b: MemBlockId| b.0 % n_sets;

    // Sets to explore: every set with an unclassified reference. (Under
    // FIFO/PLRU all of these are sentinel-caused — `NcCause::Sentinel` —
    // since the may domain is unbounded; a future bounded-may policy
    // would order sentinel sets first here.)
    let mut targets: Vec<u64> = acfg
        .refs()
        .iter()
        .filter(|r| class[r.id.index()] == Classification::Unclassified)
        .map(|r| set_of(mem_block[r.id.index()]))
        .collect();
    targets.sort_unstable();
    targets.dedup();
    if targets.is_empty() {
        return (marks, stats);
    }

    let mut keys = match memo {
        Some(_) => projection_keys(&targets, refine.max_states, acfg, sigs, class, n_sets),
        None => Vec::new(),
    };
    let mut outcomes: Vec<Option<Arc<SetOutcome>>> = match memo {
        Some(cache) => keys.iter().map(|key| cache.refine_lookup(key)).collect(),
        None => vec![None; targets.len()],
    };
    let misses: Vec<usize> = (0..targets.len())
        .filter(|&k| outcomes[k].is_none())
        .collect();

    if !misses.is_empty() {
        let n = vivu.len();
        let mut accesses: Vec<Vec<MemBlockId>> = Vec::with_capacity(n);
        let mut footprint: Vec<Vec<u64>> = Vec::with_capacity(n);
        for sig in sigs.iter().take(n) {
            let mut acc = Vec::with_capacity(sig.len());
            for &(own, pf) in sig.iter() {
                acc.push(own);
                if let Some(t) = pf {
                    acc.push(t);
                }
            }
            let mut fp: Vec<u64> = acc.iter().map(|&b| set_of(b)).collect();
            fp.sort_unstable();
            fp.dedup();
            accesses.push(acc);
            footprint.push(fp);
        }

        let ctx = Ctx {
            acfg,
            sigs,
            class,
            topo: vivu.topo(),
            graph,
            accesses: &accesses,
            footprint: &footprint,
            policy: config.policy(),
            assoc: config.assoc(),
            n_sets,
            budget: refine.max_states as usize,
        };
        let sets: Vec<u64> = misses.iter().map(|&k| targets[k]).collect();
        let explored = explore_sets(&ctx, &sets, n, threads);
        for (k, outcome) in misses.into_iter().zip(explored) {
            let outcome = Arc::new(outcome);
            if let Some(cache) = memo {
                cache.refine_store(std::mem::take(&mut keys[k]), Arc::clone(&outcome));
            }
            outcomes[k] = Some(outcome);
        }
    }

    let ref_at = |(node, pos): (u32, u32)| acfg.refs_of_node(NodeId(node))[pos as usize].index();
    for outcome in outcomes {
        let outcome = outcome.expect("every target set was looked up or explored");
        stats.sets_targeted += 1;
        if outcome.exhausted {
            stats.sets_exhausted += 1;
        }
        for &(node, pos, cl) in &outcome.refined {
            let ri = ref_at((node, pos));
            class[ri] = cl;
            marks[ri] = RefineMark::Refined;
            match cl {
                Classification::AlwaysHit => stats.refined_hits += 1,
                Classification::AlwaysMiss => stats.refined_misses += 1,
                Classification::Unclassified => unreachable!("refinement never downgrades"),
            }
        }
        for &at in &outcome.examined {
            marks[ref_at(at)] = RefineMark::Examined;
        }
    }
    (marks, stats)
}

/// Explores `sets` (in order) on up to `threads` workers, returning their
/// outcomes in the same order.
fn explore_sets(ctx: &Ctx<'_>, sets: &[u64], n: usize, threads: usize) -> Vec<SetOutcome> {
    let workers = threads.max(1).min(sets.len());
    if workers <= 1 {
        let mut scratch = Scratch::new(n);
        return sets
            .iter()
            .map(|&set| explore_set(ctx, set, &mut scratch))
            .collect();
    }
    // Fan the independent per-set fixpoints out over a scoped pool:
    // workers claim set indices from an atomic counter, and the outcomes
    // are re-sorted into set order.
    let next = &AtomicUsize::new(0);
    let mut indexed: Vec<(usize, SetOutcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut scratch = Scratch::new(n);
                    let mut got: Vec<(usize, SetOutcome)> = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&set) = sets.get(k) else {
                            return got;
                        };
                        got.push((k, explore_set(ctx, set, &mut scratch)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("refine worker panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(k, _)| k);
    indexed.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use rtpf_cache::{
        CacheConfig, Classification, MemTiming, RefineConfig, RefineMark, ReplacementPolicy,
    };
    use rtpf_isa::shape::Shape;
    use rtpf_isa::Layout;

    use crate::analysis::{AnalysisOptions, WcetAnalysis};

    fn analyze(shape: &Shape, policy: ReplacementPolicy, refine: RefineConfig) -> WcetAnalysis {
        analyze_in(shape, policy, refine, CacheConfig::new(2, 16, 256).unwrap())
    }

    fn analyze_in(
        shape: &Shape,
        policy: ReplacementPolicy,
        refine: RefineConfig,
        geometry: CacheConfig,
    ) -> WcetAnalysis {
        let p = shape.clone().compile("refine-t");
        let cfg = geometry.with_policy(policy).unwrap();
        let opts = AnalysisOptions {
            refine,
            ..AnalysisOptions::new(cfg, MemTiming::default())
        };
        WcetAnalysis::analyze(&p, &opts).unwrap()
    }

    #[test]
    fn refinement_upgrades_warm_loop_references_under_fifo_and_plru() {
        // A loop whose working set exactly fills the one 4-way set of a
        // 64 B cache: every rest-iteration reference concretely always
        // hits, but the competitiveness-reduced must analysis (FIFO at 1
        // effective way, tree-PLRU at log2(4)+1 = 3) loses the rotation
        // and leaves many unclassified. The exact exploration must
        // recover hits the cheap pass missed, and never lose precision.
        let shape = Shape::loop_(10, Shape::code(12));
        let geometry = CacheConfig::new(4, 16, 64).unwrap();
        for policy in [ReplacementPolicy::Fifo, ReplacementPolicy::Plru] {
            let off = analyze_in(&shape, policy, RefineConfig::off(), geometry);
            let on = analyze_in(&shape, policy, RefineConfig::on(), geometry);
            let (hit_off, _, unk_off) = off.classification_counts();
            let (hit_on, _, unk_on) = on.classification_counts();
            assert!(
                hit_on > hit_off,
                "{policy}: refinement found no extra hits ({hit_off} → {hit_on})"
            );
            assert!(unk_on < unk_off, "{policy}: unclassified did not shrink");
            assert!(
                on.tau_w() < off.tau_w(),
                "{policy}: extra always-hits must lower τ_w"
            );
            // The cheap view is preserved verbatim either way.
            for r in on.acfg().refs() {
                assert_eq!(on.cheap_classification(r.id), off.classification(r.id));
                match on.refine_mark(r.id) {
                    RefineMark::Untouched => {
                        assert_ne!(on.cheap_classification(r.id), Classification::Unclassified);
                    }
                    RefineMark::Examined => {
                        assert_eq!(on.classification(r.id), Classification::Unclassified);
                    }
                    RefineMark::Refined => {
                        assert_eq!(on.cheap_classification(r.id), Classification::Unclassified);
                        assert_ne!(on.classification(r.id), Classification::Unclassified);
                    }
                }
            }
            let stats = on.refine_stats();
            assert!(stats.sets_targeted > 0);
            assert_eq!(
                u64::from(stats.refined_hits) + u64::from(stats.refined_misses),
                on.acfg()
                    .refs()
                    .iter()
                    .filter(|r| on.refine_mark(r.id) == RefineMark::Refined)
                    .count() as u64
            );
            // With refinement off the stage must not have run at all.
            assert!(off
                .acfg()
                .refs()
                .iter()
                .all(|r| off.refine_mark(r.id) == RefineMark::Untouched));
            assert_eq!(*off.refine_stats(), super::RefineStats::default());
        }
    }

    #[test]
    fn parallel_refinement_matches_sequential() {
        // Multiple targeted sets (working set spans several cache sets),
        // so the parallel fan-out has real work to distribute. 1-thread
        // and 3-thread passes must agree bit for bit.
        let shape = Shape::seq([
            Shape::loop_(10, Shape::code(24)),
            Shape::if_else(1, Shape::code(12), Shape::code(8)),
        ]);
        let p = shape.compile("refine-par");
        let cfg = CacheConfig::new(2, 16, 128)
            .unwrap()
            .with_policy(ReplacementPolicy::Fifo)
            .unwrap();
        let timing = MemTiming::default();
        let opts = AnalysisOptions {
            refine: RefineConfig::on(),
            ..AnalysisOptions::new(cfg, timing)
        };
        let seq = WcetAnalysis::analyze(&p, &opts).unwrap();
        let par = WcetAnalysis::analyze(&p, &AnalysisOptions { threads: 3, ..opts }).unwrap();
        assert_eq!(seq.tau_w(), par.tau_w());
        assert_eq!(seq.refine_stats(), par.refine_stats());
        for r in seq.acfg().refs() {
            assert_eq!(seq.classification(r.id), par.classification(r.id));
            assert_eq!(seq.refine_mark(r.id), par.refine_mark(r.id));
        }
    }

    #[test]
    fn lru_analysis_is_untouched_by_refinement() {
        // LRU's abstract domain is exact; the stage must not run, and the
        // result must be bit-identical with refinement on or off.
        let shape = Shape::seq([
            Shape::code(12),
            Shape::loop_(6, Shape::if_else(1, Shape::code(8), Shape::code(4))),
        ]);
        let off = analyze(&shape, ReplacementPolicy::Lru, RefineConfig::off());
        let on = analyze(&shape, ReplacementPolicy::Lru, RefineConfig::on());
        assert_eq!(on.tau_w(), off.tau_w());
        for r in on.acfg().refs() {
            assert_eq!(on.classification(r.id), off.classification(r.id));
            assert_eq!(on.refine_mark(r.id), RefineMark::Untouched);
        }
        assert_eq!(*on.refine_stats(), super::RefineStats::default());
    }

    #[test]
    fn a_starved_budget_falls_back_to_the_cheap_result() {
        let shape = Shape::loop_(10, Shape::if_else(2, Shape::code(10), Shape::code(6)));
        let off = analyze(&shape, ReplacementPolicy::Fifo, RefineConfig::off());
        let starved = analyze(
            &shape,
            ReplacementPolicy::Fifo,
            RefineConfig {
                enabled: true,
                max_states: 0,
            },
        );
        // Budget 0: every targeted set exhausts immediately; the cheap
        // classification survives untouched and every NC target is marked
        // examined (not upgraded).
        assert_eq!(starved.tau_w(), off.tau_w());
        let stats = starved.refine_stats();
        assert!(stats.sets_targeted > 0);
        assert_eq!(stats.sets_exhausted, stats.sets_targeted);
        assert_eq!(stats.refined_hits + stats.refined_misses, 0);
        for r in starved.acfg().refs() {
            assert_eq!(starved.classification(r.id), off.classification(r.id));
            match starved.classification(r.id) {
                Classification::Unclassified => {
                    assert_eq!(starved.refine_mark(r.id), RefineMark::Examined);
                }
                _ => assert_eq!(starved.refine_mark(r.id), RefineMark::Untouched),
            }
        }
    }

    #[test]
    fn incremental_reanalysis_stays_exact_under_refinement() {
        use rtpf_isa::InstrKind;
        // The optimizer's hot path: insert a prefetch, re-analyse
        // incrementally, and demand bit-identical results to a
        // from-scratch refined analysis (debug builds also cross-check
        // inside `reanalyze_after_insert` itself).
        let cfg = CacheConfig::new(2, 16, 128)
            .unwrap()
            .with_policy(ReplacementPolicy::Fifo)
            .unwrap();
        let timing = MemTiming::default();
        let p1 = Shape::seq([Shape::code(6), Shape::loop_(8, Shape::code(12))]).compile("ri");
        let a1 = WcetAnalysis::analyze(&p1, &AnalysisOptions::new(cfg, timing)).unwrap();

        let mut p2 = p1.clone();
        let b0 = p2.entry();
        let target = p2.block(b0).instrs()[4];
        p2.insert_instr(b0, 1, InstrKind::Prefetch { target })
            .unwrap();
        let anchor = p2.block(b0).instrs()[0];
        let layout2 = Layout::anchored(&p2, anchor, a1.layout().addr(anchor));

        // Only incremental passes use the lineage's per-set memo: the
        // root analysis leaves it empty, the first re-analysis fills it,
        // and a repeat of that re-analysis is answered from it.
        assert_eq!(a1.lineage_cache().refine_memo_len(), 0);
        let inc = a1.reanalyze_after_insert(&p2, layout2.clone()).unwrap();
        let memoized = inc.lineage_cache().refine_memo_len();
        assert!(memoized > 0);
        let again = a1.reanalyze_after_insert(&p2, layout2.clone()).unwrap();
        assert_eq!(again.lineage_cache().refine_memo_len(), memoized);
        let opts = AnalysisOptions {
            layout: Some(&layout2),
            ..AnalysisOptions::new(cfg, timing)
        };
        let full = WcetAnalysis::analyze(&p2, &opts).unwrap();
        for inc in [inc, again] {
            assert_eq!(inc.tau_w(), full.tau_w());
            assert_eq!(inc.classification_counts(), full.classification_counts());
            assert_eq!(inc.refine_stats(), full.refine_stats());
            for r in inc.acfg().refs() {
                assert_eq!(inc.classification(r.id), full.classification(r.id));
                assert_eq!(
                    inc.cheap_classification(r.id),
                    full.cheap_classification(r.id)
                );
                assert_eq!(inc.refine_mark(r.id), full.refine_mark(r.id));
            }
        }
    }
}
