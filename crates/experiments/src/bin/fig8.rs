//! Regenerates the paper's Figure 8: ratio of executed instructions
//! (optimized / original) per cache size — the instruction overhead of
//! the inserted prefetches (paper maximum: +1.32%).

use rtpf_cache::ReplacementPolicy;
use rtpf_experiments::{mean_by_capacity, sweep, CAPACITIES};

fn main() {
    let rows = sweep(ReplacementPolicy::Lru);
    println!("Figure 8: executed-instruction ratio (optimized / original)");
    println!("{:>9} {:>10} {:>12}", "capacity", "avg ratio", "max ratio");
    let mut max_overall: f64 = 0.0;
    for c in CAPACITIES {
        let avg = mean_by_capacity(&rows, c, |r| r.instr_ratio());
        let max = rows
            .iter()
            .filter(|r| r.capacity == c)
            .map(|r| r.instr_ratio())
            .fold(0.0f64, f64::max);
        max_overall = max_overall.max(max);
        println!("{:>8}B {:>10.4} {:>12.4}", c, avg, max);
    }
    println!(
        "max increase: +{:.2}% (paper: +1.32%)",
        100.0 * (max_overall - 1.0)
    );
}
