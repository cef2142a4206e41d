//! Aggregated simulation results.

use rtpf_energy::MemStats;

use crate::engine::CacheEngine;

/// Counters accumulated over all runs of a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SimResult {
    /// Summed activity counters across runs.
    pub stats: MemStats,
    /// Number of runs absorbed.
    pub runs: u32,
    /// Total executed instructions across runs.
    pub instr_executed: u64,
    /// Prefetch operations issued across runs.
    pub prefetches_issued: u64,
    /// Demand fetches satisfied by a prefetch.
    pub prefetch_useful: u64,
    /// Cycles stalled waiting on in-flight prefetches.
    pub stall_cycles: u64,
}

impl SimResult {
    /// Folds one finished run into the aggregate.
    pub fn absorb(&mut self, engine: &CacheEngine, instrs: u64) {
        self.stats.accesses += engine.stats.accesses;
        self.stats.hits += engine.stats.hits;
        self.stats.misses += engine.stats.misses;
        self.stats.fills += engine.stats.fills;
        self.stats.cycles += engine.stats.cycles;
        self.stats.l2_accesses += engine.stats.l2_accesses;
        self.stats.l2_hits += engine.stats.l2_hits;
        self.stats.l2_misses += engine.stats.l2_misses;
        self.stats.l2_fills += engine.stats.l2_fills;
        self.runs += 1;
        self.instr_executed += instrs;
        self.prefetches_issued += engine.prefetches_issued;
        self.prefetch_useful += engine.prefetch_useful;
        self.stall_cycles += engine.stall_cycles;
    }

    /// Average-case execution time (memory contribution), in cycles per run.
    pub fn acet_cycles(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.stats.cycles as f64 / f64::from(self.runs)
        }
    }

    /// Miss rate over all runs.
    pub fn miss_rate(&self) -> f64 {
        if self.stats.accesses == 0 {
            0.0
        } else {
            self.stats.misses as f64 / self.stats.accesses as f64
        }
    }

    /// Per-run mean activity counters (for energy evaluation).
    pub fn mean_stats(&self) -> MemStats {
        if self.runs == 0 {
            return MemStats::default();
        }
        let r = u64::from(self.runs);
        MemStats {
            accesses: self.stats.accesses / r,
            hits: self.stats.hits / r,
            misses: self.stats.misses / r,
            fills: self.stats.fills / r,
            cycles: self.stats.cycles / r,
            l2_accesses: self.stats.l2_accesses / r,
            l2_hits: self.stats.l2_hits / r,
            l2_misses: self.stats.l2_misses / r,
            l2_fills: self.stats.l2_fills / r,
        }
    }

    /// Executed instructions per run (paper Figure 8's numerator).
    pub fn mean_instr_executed(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.instr_executed as f64 / f64::from(self.runs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_cache::{CacheConfig, MemTiming};
    use rtpf_isa::MemBlockId;

    #[test]
    fn absorb_accumulates_and_means_divide() {
        let cfg = CacheConfig::new(2, 16, 64).unwrap();
        let mut r = SimResult::default();
        for _ in 0..2 {
            let mut e = CacheEngine::new(cfg, MemTiming::default());
            e.fetch(MemBlockId(1));
            e.fetch(MemBlockId(1));
            r.absorb(&e, 2);
        }
        assert_eq!(r.runs, 2);
        assert_eq!(r.stats.accesses, 4);
        assert_eq!(r.mean_stats().accesses, 2);
        assert_eq!(r.mean_instr_executed(), 2.0);
        assert!((r.miss_rate() - 0.5).abs() < 1e-12);
        assert!(r.acet_cycles() > 0.0);
    }

    #[test]
    fn empty_result_is_safe() {
        let r = SimResult::default();
        assert_eq!(r.acet_cycles(), 0.0);
        assert_eq!(r.miss_rate(), 0.0);
        assert_eq!(r.mean_stats(), MemStats::default());
    }
}
