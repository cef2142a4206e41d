//! Regenerates the paper's Figure 3: average improvement in ACET, energy
//! consumption, and WCET per cache size (both technologies pooled for
//! energy, as in the paper). Improvement = 1 − optimized/original.

use rtpf_cache::ReplacementPolicy;
use rtpf_experiments::{mean_by_capacity, sweep, CAPACITIES};

fn main() {
    let rows = sweep(ReplacementPolicy::Lru);
    println!("Figure 3: Impact on energy efficiency (averages per cache size)");
    println!(
        "{:>9} {:>10} {:>13} {:>10}",
        "capacity", "ACET impr", "energy impr", "WCET impr"
    );
    let mut sums = [0.0f64; 3];
    for c in CAPACITIES {
        let acet = 1.0 - mean_by_capacity(&rows, c, |r| r.acet_ratio());
        // Pool the two technologies, as the paper's Inequation 10 does.
        let energy =
            1.0 - mean_by_capacity(&rows, c, |r| (r.energy_ratio(0) + r.energy_ratio(1)) / 2.0);
        let wcet = 1.0 - mean_by_capacity(&rows, c, |r| r.wcet_ratio());
        println!(
            "{:>8}B {:>9.1}% {:>12.1}% {:>9.1}%",
            c,
            100.0 * acet,
            100.0 * energy,
            100.0 * wcet
        );
        sums[0] += acet;
        sums[1] += energy;
        sums[2] += wcet;
    }
    let n = CAPACITIES.len() as f64;
    println!(
        "{:>9} {:>9.1}% {:>12.1}% {:>9.1}%",
        "overall",
        100.0 * sums[0] / n,
        100.0 * sums[1] / n,
        100.0 * sums[2] / n
    );
    println!("(paper: ACET 10.2%, energy 11.2%, WCET 17.4% overall)");
}
