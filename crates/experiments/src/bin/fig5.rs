//! Regenerates the paper's Figure 5: the optimized program on 1/2 and 1/4
//! of the original capacity, vs. the original program on the full
//! capacity. Negative "impr" means the shrunken optimized program is
//! still better than the full-size original (the paper's shaded region,
//! energy reductions up to 21%).

use rtpf_cache::ReplacementPolicy;
use rtpf_experiments::{sweep, CAPACITIES};

fn main() {
    let rows = sweep(ReplacementPolicy::Lru);
    println!("Figure 5: optimized program on reduced cache sizes vs original on full size");
    println!(
        "{:>9} {:>6} {:>11} {:>13} {:>11}",
        "capacity", "ratio", "ACET impr", "energy impr", "WCET impr"
    );
    for (div, label) in [(2u32, "1/2"), (4, "1/4")] {
        for c in CAPACITIES {
            let mut acet = Vec::new();
            let mut energy = Vec::new();
            let mut wcet = Vec::new();
            for r in rows.iter().filter(|r| r.capacity == c) {
                let small = if div == 2 { &r.half } else { &r.quarter };
                if let Some(v) = small {
                    wcet.push(v[0] / r.wcet_orig as f64);
                    acet.push(v[1] / r.acet_orig);
                    energy.push(((v[2] / r.energy_orig[0]) + (v[3] / r.energy_orig[1])) / 2.0);
                }
            }
            let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
            if acet.is_empty() {
                continue;
            }
            println!(
                "{:>8}B {:>6} {:>10.1}% {:>12.1}% {:>10.1}%",
                c,
                label,
                100.0 * (1.0 - mean(&acet)),
                100.0 * (1.0 - mean(&energy)),
                100.0 * (1.0 - mean(&wcet))
            );
        }
    }
    println!("(paper: energy reductions up to 21% with 1/2 and 1/4 capacities)");
}
