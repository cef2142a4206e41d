//! Regenerates the paper's Table 2: the 36 cache configurations.

use rtpf_cache::CacheConfig;
use rtpf_energy::{EnergyModel, Technology};

fn main() {
    println!("Table 2: Cache configurations (a = assoc, b = block bytes, c = capacity)");
    println!(
        "{:<5} {:>2} {:>3} {:>6} {:>6} {:>10} {:>12} {:>12}",
        "ID", "a", "b", "c", "sets", "miss_cyc", "read_nJ@45", "leak_mW@45"
    );
    for (k, cfg) in CacheConfig::paper_configs() {
        let m = EnergyModel::new(cfg, Technology::Nm45);
        println!(
            "{:<5} {:>2} {:>3} {:>6} {:>6} {:>10} {:>12.4} {:>12.4}",
            k,
            cfg.assoc(),
            cfg.block_bytes(),
            cfg.capacity_bytes(),
            cfg.n_sets(),
            m.timing().miss_cycles,
            m.read_energy_nj(),
            m.leakage_mw()
        );
    }
}
