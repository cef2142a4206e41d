//! Regenerates the paper's Figure 7: per-use-case WCET ratio
//! (Inequation 12) at 32 nm — τ_w(optimized)/τ_w(original) for each of
//! the 37 × 36 cases. The ratio must never exceed 1 (Theorem 1).

use rtpf_cache::ReplacementPolicy;
use rtpf_experiments::sweep;

fn main() {
    let rows = sweep(ReplacementPolicy::Lru);
    println!("Figure 7: WCET ratio per use case (32nm; timing is node-independent)");
    let mut ratios: Vec<f64> = rows.iter().map(|r| r.wcet_ratio()).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = ratios.len();
    let pct = |p: f64| ratios[((n as f64 - 1.0) * p) as usize];
    println!("use cases: {n}");
    println!(
        "min {:.3}  p10 {:.3}  p25 {:.3}  median {:.3}  p75 {:.3}  max {:.3}",
        ratios[0],
        pct(0.10),
        pct(0.25),
        pct(0.50),
        pct(0.75),
        ratios[n - 1]
    );
    let improved = ratios.iter().filter(|&&x| x < 1.0).count();
    println!(
        "improved cases: {improved} ({:.1}%)",
        100.0 * improved as f64 / n as f64
    );
    let violations = rows.iter().filter(|r| r.wcet_opt > r.wcet_orig).count();
    println!("Theorem 1 violations (ratio > 1): {violations}");
    assert_eq!(violations, 0, "Theorem 1 must hold on every use case");

    // Histogram over ratio buckets, like the figure's scatter density.
    println!("\nhistogram of τ_w(opt)/τ_w(orig):");
    let buckets = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.9999, 1.0001];
    let mut lo = 0.0;
    for &hi in &buckets {
        let count = ratios.iter().filter(|&&x| x >= lo && x < hi).count();
        println!(
            "  [{lo:.2}, {hi:.2}): {count:>5} {}",
            "#".repeat(count * 60 / n.max(1))
        );
        lo = hi;
    }
}
