//! Seeded workload generation. The same seed always yields the same
//! inputs; the program under test sees only the generated requests.

use rtpf_cache::CacheConfig;
use rtpf_engine::{ConfigSpec, ProgramSource, ServiceOp, ServiceRequest};

/// SplitMix64: tiny, seedable, and good enough to draw workloads.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (independent streams for
    /// independent clients).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The paper's LRU evaluation grid as `(program index, Table 2 index)`
/// pairs in seeded order: every unit exactly once.
pub fn sweep_units(seed: u64, programs: usize, configs: usize) -> Vec<(usize, usize)> {
    let mut grid: Vec<(usize, usize)> = (0..programs)
        .flat_map(|p| (0..configs).map(move |c| (p, c)))
        .collect();
    Rng::new(seed, 0).shuffle(&mut grid);
    grid
}

/// The serve workloads' configuration design: `(Table 2 index, L1
/// policy, with L2)`. It covers every Table 2 capacity, both block sizes,
/// every associativity and policy, and both hierarchies. It is fixed
/// because request cost varies a hundredfold across configurations
/// (statemate's optimize takes 0.15 s at 4 KiB LRU and 19 s at 8 KiB
/// FIFO): with seeded configurations, throughput would measure which
/// configurations a seed drew rather than the code.
pub const SERVE_CONFIGS: [(usize, &str, bool); 7] = [
    (0, "lru", false),
    (7, "fifo", true),
    (14, "plru", false),
    (21, "lru", true),
    (21, "fifo", false),
    (28, "plru", true),
    (35, "lru", false),
];

/// Operations the serve workloads draw from.
pub const OPS: [ServiceOp; 4] = [
    ServiceOp::Analyze,
    ServiceOp::Optimize,
    ServiceOp::Audit,
    ServiceOp::Simulate,
];

/// The request configuration for design entry `c` of
/// [`SERVE_CONFIGS`]. The L2 is 8-way and 16 KiB, which is larger than
/// every Table 2 L1, with the L1's block size.
fn config_spec(c: usize) -> ConfigSpec {
    let (k, policy, with_l2) = SERVE_CONFIGS[c];
    let (_, l1) = &CacheConfig::paper_configs()[k];
    ConfigSpec {
        cache: format!(
            "{}:{}:{}:{policy}",
            l1.assoc(),
            l1.block_bytes(),
            l1.capacity_bytes()
        ),
        l2: with_l2.then(|| format!("8:{}:16384", l1.block_bytes())),
        ..ConfigSpec::default()
    }
}

/// Every cold request: each suite program × each [`SERVE_CONFIGS`] entry
/// × each operation, as a `suite:` spec. All are distinct, so every one
/// misses a fresh store. The seed shuffles the `(program, configuration)`
/// sessions; a session sends its operations in [`OPS`] order, so which
/// request pays for a shared analysis does not depend on the seed.
pub fn cold_pool(seed: u64) -> Vec<ServiceRequest> {
    let mut sessions: Vec<(&str, usize)> = rtpf_suite::programs::NAMES
        .iter()
        .flat_map(|&(name, _)| (0..SERVE_CONFIGS.len()).map(move |c| (name, c)))
        .collect();
    Rng::new(seed, 1).shuffle(&mut sessions);
    sessions
        .into_iter()
        .flat_map(|(name, c)| {
            OPS.map(|op| ServiceRequest {
                op,
                program: ProgramSource::Spec(format!("suite:{name}")),
                config: config_spec(c),
            })
        })
        .collect()
}

/// The distinct warm requests: suite program `i` under
/// [`SERVE_CONFIGS`] entry `i mod 7`, every operation, once as a `suite:`
/// spec and once with the program text inline. The set is fixed; the seed
/// drives the clients' draws over it ([`warm_draws`]).
pub fn warm_set() -> Vec<ServiceRequest> {
    let mut set = Vec::new();
    for (i, &(name, _)) in rtpf_suite::programs::NAMES.iter().enumerate() {
        let config = config_spec(i % SERVE_CONFIGS.len());
        let shape = rtpf_suite::programs::shape_of(name).expect("catalog name has a shape");
        let text = rtpf_isa::text::write(name, &shape);
        for op in OPS {
            for program in [
                ProgramSource::Spec(format!("suite:{name}")),
                ProgramSource::Inline {
                    name: name.to_string(),
                    text: text.clone(),
                },
            ] {
                set.push(ServiceRequest {
                    op,
                    program,
                    config: config.clone(),
                });
            }
        }
    }
    set
}

/// Uniform draws over `0..n` for warm client `client`.
pub fn warm_draws(seed: u64, client: usize, n: usize, count: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 100 + client as u64);
    (0..count).map(|_| rng.below(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_workload() {
        assert_eq!(sweep_units(7, 37, 36), sweep_units(7, 37, 36));
        assert_eq!(cold_pool(7), cold_pool(7));
        assert_eq!(warm_draws(7, 1, 296, 500), warm_draws(7, 1, 296, 500));
        assert_ne!(sweep_units(7, 37, 36), sweep_units(8, 37, 36));
        assert_ne!(cold_pool(7), cold_pool(8));
        assert_ne!(warm_draws(7, 0, 296, 500), warm_draws(7, 1, 296, 500));
    }

    #[test]
    fn the_sweep_covers_the_grid_once() {
        let mut units = sweep_units(3, 37, 36);
        assert_eq!(units.len(), 37 * 36);
        units.sort_unstable();
        units.dedup();
        assert_eq!(units.len(), 37 * 36);
    }

    #[test]
    fn cold_requests_are_distinct_and_resolve() {
        let pool = cold_pool(1);
        assert_eq!(pool.len(), 37 * 7 * 4);
        let mut seen: Vec<String> = pool.iter().map(|r| format!("{r:?}")).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), pool.len());
        for c in 0..SERVE_CONFIGS.len() {
            config_spec(c)
                .resolve()
                .expect("every design entry is valid");
        }
    }

    #[test]
    fn warm_set_is_half_inline() {
        let set = warm_set();
        assert_eq!(set.len(), 37 * 4 * 2);
        let inline = set
            .iter()
            .filter(|r| matches!(r.program, ProgramSource::Inline { .. }))
            .count();
        assert_eq!(2 * inline, set.len());
    }

    #[test]
    fn draws_are_uniform_enough() {
        let d = warm_draws(11, 0, 4, 40_000);
        for k in 0..4 {
            let c = d.iter().filter(|&&x| x == k).count();
            assert!((9_000..11_000).contains(&c), "bucket {k}: {c}");
        }
    }
}
