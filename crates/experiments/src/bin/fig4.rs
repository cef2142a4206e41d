//! Regenerates the paper's Figure 4: impact on miss rate per cache size.

use rtpf_cache::ReplacementPolicy;
use rtpf_experiments::{mean_by_capacity, sweep, CAPACITIES};

fn main() {
    let rows = sweep(ReplacementPolicy::Lru);
    println!("Figure 4: Impact on miss rate (averages per cache size)");
    println!(
        "{:>9} {:>12} {:>12} {:>10}",
        "capacity", "orig miss%", "opt miss%", "reduction"
    );
    for c in CAPACITIES {
        let orig = mean_by_capacity(&rows, c, |r| r.missrate_orig);
        let opt = mean_by_capacity(&rows, c, |r| r.missrate_opt);
        println!(
            "{:>8}B {:>11.2}% {:>11.2}% {:>9.1}%",
            c,
            100.0 * orig,
            100.0 * opt,
            100.0 * (1.0 - opt / orig)
        );
    }
}
