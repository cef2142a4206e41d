//! Static cache locking (paper refs [4, 14]).
//!
//! The predictability-first alternative the paper argues against: choose
//! the most valuable memory blocks, lock them into the cache before the
//! task runs, and disable replacement. Every reference is then trivially
//! predictable — a hit iff its block is locked — at the price of missing
//! on everything else, forever. Content selection maximizes the WCET value
//! of the locked set: per cache set, at most `associativity` blocks.

use std::collections::HashMap;

use rtpf_cache::{CacheConfig, MemTiming};
use rtpf_ilp::{Cmp, LinearProgram};
use rtpf_isa::{MemBlockId, Program};
use rtpf_sim::LockedContents;
use rtpf_wcet::{AnalysisError, AnalysisOptions, WcetAnalysis};

/// WCET value of each block: Σ over its references of
/// `(miss − hit) × n^w` — the cycles locking it would save on the WCET
/// path.
fn block_values(a: &WcetAnalysis) -> HashMap<MemBlockId, u64> {
    let timing = a.timing();
    let gain = timing.miss_cycles - timing.hit_cycles;
    let mut values: HashMap<MemBlockId, u64> = HashMap::new();
    for r in a.acfg().refs() {
        let w = a.n_w(r.id) * gain;
        if w > 0 {
            *values.entry(a.mem_block(r.id)).or_default() += w;
        }
    }
    values
}

/// Greedy selection: per cache set, the top-`associativity` blocks by
/// WCET value. (Optimal here, since the per-set choices are independent;
/// [`select_locked_ilp`] cross-checks this.)
///
/// # Errors
///
/// Fails if the program cannot be analysed.
pub fn select_locked_greedy(
    p: &Program,
    config: &CacheConfig,
    timing: &MemTiming,
) -> Result<LockedContents, AnalysisError> {
    let a = WcetAnalysis::analyze(p, &AnalysisOptions::new(*config, *timing))?;
    let values = block_values(&a);
    let mut per_set: HashMap<usize, Vec<(MemBlockId, u64)>> = HashMap::new();
    for (&b, &v) in &values {
        per_set.entry(config.set_of(b)).or_default().push((b, v));
    }
    let mut locked = Vec::new();
    for (_, mut blocks) in per_set {
        blocks.sort_by_key(|&(b, v)| (std::cmp::Reverse(v), b));
        locked.extend(
            blocks
                .into_iter()
                .take(config.assoc() as usize)
                .map(|(b, _)| b),
        );
    }
    Ok(LockedContents::new(locked))
}

/// ILP selection: 0/1 variable per candidate block, per-set capacity
/// constraints, maximize total WCET value. Equivalent to the greedy pick;
/// kept as the reference formulation (and exercised against it in tests).
///
/// # Errors
///
/// Fails if the program cannot be analysed or the ILP is infeasible.
pub fn select_locked_ilp(
    p: &Program,
    config: &CacheConfig,
    timing: &MemTiming,
) -> Result<LockedContents, AnalysisError> {
    let a = WcetAnalysis::analyze(p, &AnalysisOptions::new(*config, *timing))?;
    let values = block_values(&a);
    let blocks: Vec<MemBlockId> = {
        let mut v: Vec<MemBlockId> = values.keys().copied().collect();
        v.sort_unstable();
        v
    };
    if blocks.is_empty() {
        return Ok(LockedContents::default());
    }
    let mut lp = LinearProgram::new(blocks.len());
    for (i, b) in blocks.iter().enumerate() {
        lp.set_objective_coeff(i, values[b] as f64);
        lp.add_constraint(&[(i, 1.0)], Cmp::Le, 1.0);
    }
    // Per-set way capacity.
    let mut per_set: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, &b) in blocks.iter().enumerate() {
        per_set.entry(config.set_of(b)).or_default().push(i);
    }
    for (_, vars) in per_set {
        let row: Vec<(usize, f64)> = vars.into_iter().map(|i| (i, 1.0)).collect();
        lp.add_constraint(&row, Cmp::Le, f64::from(config.assoc()));
    }
    let sol = rtpf_ilp::ilp::solve(&lp)
        .optimal()
        .ok_or_else(|| AnalysisError::Ipet("locking ILP infeasible".into()))?;
    let locked = blocks
        .iter()
        .enumerate()
        .filter(|&(i, _)| sol.x[i] > 0.5)
        .map(|(_, &b)| b);
    Ok(LockedContents::new(locked))
}

/// `τ_w` of `p` under statically locked contents: every reference costs a
/// hit iff its block is locked, a miss otherwise (no cache dynamics at
/// all — the appeal of locking).
///
/// # Errors
///
/// Fails if the program cannot be analysed.
pub fn locked_tau_w(
    p: &Program,
    config: &CacheConfig,
    timing: &MemTiming,
    contents: &LockedContents,
) -> Result<u64, AnalysisError> {
    // Reuse the analysis for layout/graphs/counts; re-derive per-node
    // weights under locking and re-run IPET (the WCET path may differ).
    let a = WcetAnalysis::analyze(p, &AnalysisOptions::new(*config, *timing))?;
    let vivu = a.vivu();
    let node_weight: Vec<u64> = (0..vivu.len())
        .map(|i| {
            let n = rtpf_wcet::NodeId(i as u32);
            let sum: u64 = a
                .acfg()
                .refs_of_node(n)
                .iter()
                .map(|&r| timing.access_cycles(contents.contains(a.mem_block(r))))
                .sum();
            sum.saturating_mul(vivu.node(n).mult)
        })
        .collect();
    Ok(rtpf_wcet::ipet::solve_dag(vivu, &node_weight)?.tau_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_isa::shape::Shape;
    use rtpf_sim::{SimConfig, Simulator};

    fn program() -> Program {
        Shape::seq([
            Shape::code(20),
            Shape::loop_(50, Shape::code(40)),
            Shape::code(30),
        ])
        .compile("lk")
    }

    #[test]
    fn greedy_locks_the_hot_loop() {
        let p = program();
        let config = CacheConfig::new(2, 16, 128).unwrap();
        let timing = MemTiming::default();
        let locked = select_locked_greedy(&p, &config, &timing).unwrap();
        assert!(!locked.is_empty());
        // Capacity respected: at most assoc × sets blocks.
        assert!(locked.len() <= (config.assoc() * config.n_sets()) as usize);
    }

    #[test]
    fn ilp_matches_greedy_value() {
        let p = program();
        let config = CacheConfig::new(2, 16, 128).unwrap();
        let timing = MemTiming::default();
        let g = select_locked_greedy(&p, &config, &timing).unwrap();
        let i = select_locked_ilp(&p, &config, &timing).unwrap();
        let tg = locked_tau_w(&p, &config, &timing, &g).unwrap();
        let ti = locked_tau_w(&p, &config, &timing, &i).unwrap();
        assert_eq!(tg, ti, "greedy and ILP selections must tie");
    }

    #[test]
    fn locking_beats_empty_lock() {
        let p = program();
        let config = CacheConfig::new(2, 16, 128).unwrap();
        let timing = MemTiming::default();
        let locked = select_locked_greedy(&p, &config, &timing).unwrap();
        let t_locked = locked_tau_w(&p, &config, &timing, &locked).unwrap();
        let t_empty = locked_tau_w(&p, &config, &timing, &LockedContents::default()).unwrap();
        assert!(t_locked < t_empty);
    }

    #[test]
    fn locking_whole_program_when_it_fits_is_unbeatable() {
        // With capacity for every block, locking even avoids cold misses;
        // the unlocked cache can at best match it plus compulsory misses.
        let p = program();
        let config = CacheConfig::new(4, 16, 2048).unwrap();
        let timing = MemTiming::default();
        let a = WcetAnalysis::analyze(&p, &AnalysisOptions::new(config, timing)).unwrap();
        let locked = select_locked_greedy(&p, &config, &timing).unwrap();
        let t_locked = locked_tau_w(&p, &config, &timing, &locked).unwrap();
        assert!(t_locked <= a.tau_w());
    }

    #[test]
    fn unlocked_analysis_beats_locking_on_an_oversized_hot_loop() {
        // The paper's §2.3 scenario: the hot working set exceeds what can
        // be locked, so the locked cache misses part of the loop on every
        // iteration while LRU adapts.
        let p = Shape::seq([
            Shape::code(20),
            Shape::loop_(50, Shape::code(80)), // 320 B body
            Shape::loop_(50, Shape::code(80)), // second phase, same size
            Shape::code(30),
        ])
        .compile("big");
        let config = CacheConfig::new(2, 16, 256).unwrap();
        let timing = MemTiming::default();
        let a = WcetAnalysis::analyze(&p, &AnalysisOptions::new(config, timing)).unwrap();
        let locked = select_locked_greedy(&p, &config, &timing).unwrap();
        let t_locked = locked_tau_w(&p, &config, &timing, &locked).unwrap();
        assert!(
            a.tau_w() < t_locked,
            "unlocked {} vs locked {}",
            a.tau_w(),
            t_locked
        );
    }

    #[test]
    fn locked_simulation_is_consistent() {
        let p = program();
        let config = CacheConfig::new(2, 16, 128).unwrap();
        let timing = MemTiming::default();
        let locked = select_locked_greedy(&p, &config, &timing).unwrap();
        let sim = Simulator::new(
            config,
            timing,
            SimConfig {
                runs: 1,
                seed: 5,
                ..SimConfig::default()
            },
        );
        let locked_run = sim.run_locked(&p, &locked).unwrap();
        let free_run = sim.run(&p).unwrap();
        // The locked loop hits; everything else always misses.
        assert!(locked_run.stats.hits > 0);
        assert!(locked_run.stats.misses >= free_run.stats.misses);
    }
}
