//! Runs the full 37 × 36 evaluation sweep and caches it under
//! `results/sweep.csv` (LRU) or `results/sweep-<policy>.csv`. Every
//! figure binary reuses the LRU cache; pass `fifo` or `plru` to sweep
//! the alternative replacement policies.

use rtpf_cache::ReplacementPolicy;

fn main() {
    let policy = match std::env::args().nth(1) {
        Some(name) => ReplacementPolicy::parse(&name).unwrap_or_else(|| {
            eprintln!("unknown policy {name} (expected lru|fifo|plru)");
            std::process::exit(2);
        }),
        None => ReplacementPolicy::Lru,
    };
    let t0 = std::time::Instant::now();
    let rows = rtpf_experiments::sweep(policy);
    println!(
        "sweep[{policy}] complete: {} units in {:.1}s",
        rows.len(),
        t0.elapsed().as_secs_f64()
    );
    let violations = rows.iter().filter(|r| r.wcet_opt > r.wcet_orig).count();
    println!("Theorem 1 violations: {violations} (must be 0)");
    let total_inserted: u64 = rows.iter().map(|r| u64::from(r.inserted)).sum();
    println!("total prefetches inserted: {total_inserted}");
    println!("cache: {}", rtpf_experiments::cache_path(policy).display());
}
