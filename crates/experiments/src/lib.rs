//! The paper's evaluation harness (§5 / Supplement S.4).
//!
//! One *use case* is a `(program, cache configuration, technology)`
//! triple; the full evaluation covers 37 programs × 36 configurations × 2
//! technologies = **2664 use cases**. Because our timing model is
//! technology-independent (only energy scales with the node), the
//! expensive work — WCET analysis, prefetch optimization, and trace
//! simulation — runs once per `(program, configuration)` pair (1332
//! units) and both technologies' energies are derived from it.
//!
//! All the actual analysis now lives in the shared [`rtpf_engine`]
//! pipeline; this crate is the harness layer — it picks the
//! [`EngineConfig::evaluation`] profile, drives the 37 × 36 grid, and
//! persists the result as the on-disk **sweep artifact**:
//! `results/sweep.csv` plus a `results/sweep.csv.hash` sidecar naming the
//! content address of its inputs (every program and configuration
//! fingerprint and the unit-stage version). A CSV whose sidecar is
//! missing or names a different address is stale and recomputed — the old
//! row-count-only acceptance silently reused caches written by older code.
//!
//! The per-figure binaries (`fig3`, `fig4`, `fig5`, `fig7`, `fig8`,
//! `table1`, `table2`) reuse the artifact so each figure regenerates
//! instantly once the sweep has run. Reported numbers are ratios
//! (optimized / original), matching the paper's Inequations 10–12.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use rtpf_cache::{CacheConfig, ReplacementPolicy};
use rtpf_engine::{ArtifactKey, ArtifactStore, Engine, EngineConfig, Grid};
use rtpf_isa::Program;

pub use rtpf_engine::{parse_csv, to_csv, Gated, UnitResult, COLUMNS};

/// The engine profile every evaluation unit runs under.
///
/// The Mälardalen programs are single-path by design (fixed loop counts,
/// data-independent control flow), so the ACET traces run every loop to
/// its bound — `BranchBehavior::WorstLike` — with conditionals drawn from
/// the seeded RNG. This mirrors the paper's gem5 traces far better than
/// uniformly random loop trip counts would.
pub fn engine_for(config: CacheConfig) -> Engine {
    // One analysis thread per engine: the sweep grid already runs one
    // worker per core ([`Grid`]), so nested fan-out would only oversubscribe.
    Engine::new(EngineConfig::evaluation(config).with_threads(1))
}

/// Optimizes under the paper's three conditions (Condition 3 — no ACET or
/// energy regression — enforced by the engine's gate; see
/// [`Engine::gated_optimize`]).
pub fn optimize_with_condition3(program: &Program, config: CacheConfig) -> Gated {
    engine_for(config)
        .gated_optimize(program)
        .expect("suite programs optimize")
}

/// Runs one `(program, configuration)` unit through an evaluation engine
/// with `threads` analysis worker threads (`0` = one per core; the sweep
/// grid uses `1`, see [`engine_for`]). Outputs are byte-identical at any
/// count (DESIGN.md §13); the determinism tests pit counts against each
/// other.
pub fn run_unit(
    name: &str,
    program: &Program,
    k: &str,
    config: CacheConfig,
    threads: usize,
) -> UnitResult {
    let unit = Engine::new(EngineConfig::evaluation(config).with_threads(threads))
        .unit(name, k, program)
        .expect("suite programs evaluate");
    (*unit).clone()
}

/// On-disk name of the sweep artifact for `policy`. The historical LRU
/// sweep keeps its original name (`sweep.csv`) so every pre-policy
/// consumer — and the frozen golden-slice test — keeps reading the exact
/// same bytes; other policies get `sweep-<policy>.csv` beside it.
pub fn sweep_artifact_name(policy: ReplacementPolicy) -> String {
    match policy {
        ReplacementPolicy::Lru => "sweep.csv".to_string(),
        p => format!("sweep-{p}.csv"),
    }
}

/// Location of the on-disk sweep artifact for `policy` (`<name>.hash`
/// sidecar beside it).
pub fn cache_path(policy: ReplacementPolicy) -> PathBuf {
    results_store()
        .disk_path(&sweep_artifact_name(policy))
        .expect("store has a disk layer")
}

/// The artifact store rooted at the repository's `results/` directory.
pub fn results_store() -> ArtifactStore {
    ArtifactStore::with_disk(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"))
}

/// The Table 2 configurations under `policy` (the paper's grid is pure
/// geometry; the policy is orthogonal and every Table 2 associativity is
/// representable under every supported policy).
pub fn paper_configs_for(policy: ReplacementPolicy) -> Vec<(String, CacheConfig)> {
    CacheConfig::paper_configs()
        .into_iter()
        .map(|(k, c)| {
            let c = c
                .with_policy(policy)
                .expect("Table 2 associativities support every policy");
            (k, c)
        })
        .collect()
}

/// Content address of the full 37 × 36 sweep under `policy`: every
/// program fingerprint × every evaluation-profile configuration
/// fingerprint, plus the unit-stage version. Any change to a benchmark, a
/// Table 2 geometry, an analysis/optimizer/simulation knob, the
/// replacement policy, or the unit algorithm itself moves this key and
/// invalidates the cached CSV. The policy enters every configuration
/// fingerprint (see `EngineConfig`), so the three per-policy sweep
/// artifacts can never serve each other's requests even if their file
/// names were confused.
pub fn sweep_artifact_key(policy: ReplacementPolicy) -> ArtifactKey {
    let suite = rtpf_suite::catalog();
    let econfigs: Vec<EngineConfig> = paper_configs_for(policy)
        .into_iter()
        .map(|(_, c)| EngineConfig::evaluation(c))
        .collect();
    rtpf_engine::sweep_key(
        suite
            .iter()
            .flat_map(|b| econfigs.iter().map(move |e| (&b.program, e))),
    )
}

/// Loads the named sweep artifact from `store` iff it is fresh under
/// `key` and parses to the expected row count.
fn load_sweep_named(
    store: &ArtifactStore,
    name: &str,
    key: ArtifactKey,
    expected_rows: usize,
) -> Option<Vec<UnitResult>> {
    let text = store.disk_get(name, key)?;
    match parse_csv(&text) {
        Ok(rows) if rows.len() == expected_rows => Some(rows),
        Ok(rows) => {
            eprintln!(
                "sweep artifact has {} rows (expected {expected_rows}), recomputing",
                rows.len()
            );
            None
        }
        Err(e) => {
            debug_assert!(false, "corrupt sweep artifact: {e}");
            eprintln!("corrupt sweep artifact ({e}), recomputing");
            None
        }
    }
}

/// Runs (or loads) the full 37 × 36 sweep under `policy` (the paper's is
/// LRU). Each policy persists to its own artifact (see
/// [`sweep_artifact_name`]) under its own content address.
///
/// The cached CSV is accepted only when its `.hash` sidecar names the
/// current [`sweep_artifact_key`]; anything else — stale hash, missing
/// sidecar, parse failure, wrong row count — is discarded and the sweep
/// recomputed (and re-persisted under the current key).
pub fn sweep(policy: ReplacementPolicy) -> Vec<UnitResult> {
    let store = results_store();
    let key = sweep_artifact_key(policy);
    let name = sweep_artifact_name(policy);
    if let Some(rows) = load_sweep_named(&store, &name, key, 37 * 36) {
        return rows;
    }
    let results = run_sweep(policy);
    store
        .disk_put(&name, key, &to_csv(&results))
        .expect("persist sweep artifact");
    results
}

/// Worker groups the evaluation grids run under: one shard per four
/// workers, so small machines (including single-core CI) collapse to the
/// classic single-counter mode and wide ones split into independent
/// groups.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().div_ceil(4))
}

/// Computes the sweep under `policy` from scratch on the engine's
/// work-stealing grid.
///
/// Each unit runs in an ephemeral engine with a private store: no two
/// units share a `(program, configuration)` pair, so there is nothing to
/// reuse across them, and dropping each unit's intermediate artifacts
/// (analyses, optimize results, simulations) immediately keeps the
/// sweep's memory footprint flat. The grid runs sharded (one worker group
/// per [`default_shards`] slice), so wide machines do not convoy on a
/// single claim counter while sharing the results store.
pub fn run_sweep(policy: ReplacementPolicy) -> Vec<UnitResult> {
    let suite = rtpf_suite::catalog();
    let configs = paper_configs_for(policy);
    let units: Vec<(usize, usize)> = (0..suite.len())
        .flat_map(|p| (0..configs.len()).map(move |c| (p, c)))
        .collect();

    let grid = Grid {
        workers: 0,
        progress_every: 100,
        label: match policy {
            ReplacementPolicy::Lru => "sweep",
            ReplacementPolicy::Fifo => "sweep[fifo]",
            ReplacementPolicy::Plru => "sweep[plru]",
        },
        shards: default_shards(),
    };
    let mut out: Vec<UnitResult> = grid.run(&units, |_, &(pi, ci)| {
        let b = &suite[pi];
        let (k, config) = &configs[ci];
        run_unit(b.name, &b.program, k, *config, 1)
    });
    out.sort_by(|a, b| (&a.program, &a.k).cmp(&(&b.program, &b.k)));
    out
}

/// Fixed L1 of the L2-capacity sweep axis: the mid-grid Table 2 geometry
/// `(2, 16, 512)`, small enough that every swept L2 changes the DRAM
/// traffic it sees.
pub fn l2_sweep_l1() -> CacheConfig {
    CacheConfig::new(2, 16, 512).expect("Table 2 geometry")
}

/// L2 capacities swept behind [`l2_sweep_l1`] (8-way, 16-byte blocks,
/// LRU). A no-L2 baseline row rides along so each figure can report the
/// marginal effect of the second level directly.
pub const L2_CAPACITIES: [u32; 5] = [2048, 4096, 8192, 16384, 32768];

/// The points of the L2 sweep: the L1-only baseline (`l2none`) followed
/// by one two-level profile per [`L2_CAPACITIES`] entry (`l2c<capacity>`).
pub fn l2_sweep_points() -> Vec<(String, EngineConfig)> {
    let l1 = l2_sweep_l1();
    let mut points = vec![("l2none".to_string(), EngineConfig::evaluation(l1))];
    for cap in L2_CAPACITIES {
        let l2 = CacheConfig::new(8, 16, cap).expect("valid L2 geometry");
        points.push((
            format!("l2c{cap}"),
            EngineConfig::evaluation(l1)
                .with_l2(l2)
                .expect("capacities above the L1 are monotone"),
        ));
    }
    points
}

/// On-disk name of the L2 sweep artifact.
pub const L2_SWEEP_NAME: &str = "sweep-l2.csv";

/// Location of the on-disk L2 sweep artifact (`.hash` sidecar beside it).
pub fn l2_cache_path() -> PathBuf {
    results_store()
        .disk_path(L2_SWEEP_NAME)
        .expect("store has a disk layer")
}

/// Content address of the L2 sweep: every program fingerprint × every
/// sweep-point configuration fingerprint (the L2 geometry/policy enters
/// each configuration fingerprint), plus the unit-stage version.
pub fn l2_sweep_artifact_key() -> ArtifactKey {
    let suite = rtpf_suite::catalog();
    let econfigs: Vec<EngineConfig> = l2_sweep_points().into_iter().map(|(_, e)| e).collect();
    rtpf_engine::sweep_key(
        suite
            .iter()
            .flat_map(|b| econfigs.iter().map(move |e| (&b.program, e))),
    )
}

/// One L2 sweep row: the sweep point's L2 (None = the baseline) plus the
/// evaluated unit.
pub type L2Row = (Option<CacheConfig>, UnitResult);

/// Serializes L2 sweep rows. The layout is the [`COLUMNS`] unit schema
/// with three trailing columns — `l2_assoc,l2_block,l2_capacity`, all `0`
/// on the baseline row — so `results/sweep.csv` keeps its frozen 26-column
/// shape and the L2 axis lives entirely in its own artifact.
pub fn l2_to_csv(rows: &[L2Row]) -> String {
    let mut s = String::new();
    s.push_str(COLUMNS);
    s.push_str(",l2_assoc,l2_block,l2_capacity\n");
    for (l2, row) in rows {
        let unit = to_csv(std::slice::from_ref(row));
        let line = unit.lines().nth(1).expect("one data row");
        let (a, b, c) = match l2 {
            Some(l2) => (l2.assoc(), l2.block_bytes(), l2.capacity_bytes()),
            None => (0, 0, 0),
        };
        use std::fmt::Write as _;
        let _ = writeln!(s, "{line},{a},{b},{c}");
    }
    s
}

/// Parses the L2 sweep serialization back.
///
/// # Errors
///
/// Returns a description of the first malformed row; callers treat that
/// as a missing artifact and recompute.
pub fn parse_l2_csv(text: &str) -> Result<Vec<L2Row>, String> {
    let mut rows = Vec::new();
    for (ln, line) in text.lines().enumerate().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 4 {
            return Err(format!("line {ln}: too few fields"));
        }
        let (unit_fields, l2_fields) = fields.split_at(fields.len() - 3);
        let unit_text = format!("{COLUMNS}\n{}\n", unit_fields.join(","));
        let unit = parse_csv(&unit_text)?
            .pop()
            .ok_or_else(|| format!("line {ln}: no unit row"))?;
        let nums: Vec<u32> = l2_fields
            .iter()
            .map(|f| {
                f.parse()
                    .map_err(|_| format!("line {ln}: bad l2 field {f}"))
            })
            .collect::<Result<_, _>>()?;
        let l2 = match (nums[0], nums[1], nums[2]) {
            (0, 0, 0) => None,
            (a, b, c) => Some(
                CacheConfig::new(a, b, c)
                    .map_err(|e| format!("line {ln}: bad l2 geometry: {e}"))?,
            ),
        };
        rows.push((l2, unit));
    }
    Ok(rows)
}

/// Runs (or loads) the L2-capacity sweep: all 37 programs × the
/// [`l2_sweep_points`] axis, persisted as `results/sweep-l2.csv` under
/// its content address.
pub fn l2_sweep() -> Vec<L2Row> {
    let store = results_store();
    let key = l2_sweep_artifact_key();
    let expected = rtpf_suite::catalog().len() * l2_sweep_points().len();
    if let Some(text) = store.disk_get(L2_SWEEP_NAME, key) {
        match parse_l2_csv(&text) {
            Ok(rows) if rows.len() == expected => return rows,
            Ok(rows) => eprintln!(
                "L2 sweep artifact has {} rows (expected {expected}), recomputing",
                rows.len()
            ),
            Err(e) => eprintln!("corrupt L2 sweep artifact ({e}), recomputing"),
        }
    }
    let rows = run_l2_sweep();
    store
        .disk_put(L2_SWEEP_NAME, key, &l2_to_csv(&rows))
        .expect("persist L2 sweep artifact");
    rows
}

/// Computes the L2 sweep from scratch on the engine's work-stealing grid.
pub fn run_l2_sweep() -> Vec<L2Row> {
    let suite = rtpf_suite::catalog();
    let points = l2_sweep_points();
    let units: Vec<(usize, usize)> = (0..suite.len())
        .flat_map(|p| (0..points.len()).map(move |c| (p, c)))
        .collect();
    let grid = Grid {
        workers: 0,
        progress_every: 50,
        label: "sweep[l2]",
        shards: default_shards(),
    };
    let mut out: Vec<L2Row> = grid.run(&units, |_, &(pi, ci)| {
        let b = &suite[pi];
        let (k, econfig) = &points[ci];
        let unit = Engine::new(econfig.clone().with_threads(1))
            .unit(b.name, k, &b.program)
            .expect("suite programs evaluate");
        (econfig.l2().copied(), (*unit).clone())
    });
    out.sort_by(|a, b| (&a.1.program, &a.1.k).cmp(&(&b.1.program, &b.1.k)));
    out
}

/// Per-policy precision of the abstract classifier, as measured by the
/// soundness audit over the full suite × Table 2 grid.
///
/// `mean_precision` for LRU is the analog of the repository's headline
/// ≈0.98 figure; FIFO and PLRU run through the competitiveness-based
/// reductions (DESIGN.md §10) and are expected to score lower — sound
/// but less precise. `unsound` must be zero for every policy: a nonzero
/// count means the abstract classifier promised an always-hit (or
/// always-miss) the concrete policy contradicts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyPrecision {
    /// The replacement policy audited.
    pub policy: ReplacementPolicy,
    /// Analyses audited (programs × configurations).
    pub analyses: u32,
    /// RTPF020/RTPF022/RTPF040/RTPF042 findings — genuine unsoundness,
    /// must be 0.
    pub unsound: u64,
    /// RTPF021/RTPF041 findings — unclassified references with a single
    /// concrete outcome (pure precision loss).
    pub precision_gaps: u64,
    /// References upgraded by the exact FIFO/PLRU refinement stage across
    /// all analyses (always 0 for LRU).
    pub refined: u64,
    /// Mean precision of the *cheap* competitiveness-based classification
    /// alone, refinement discounted.
    pub mean_precision_cheap: f64,
    /// Mean precision score of the shipped (refined) classification over
    /// all analyses (1.0 = every observed reference classified exactly).
    pub mean_precision: f64,
}

/// Audits every `(program, configuration)` unit under `policy` on the
/// work-stealing grid and aggregates the per-analysis precision scores.
pub fn measure_precision(policy: ReplacementPolicy) -> PolicyPrecision {
    use rtpf_audit::{DiagnosticSink, SeverityConfig, SoundnessOptions};

    let suite = rtpf_suite::catalog();
    let configs = paper_configs_for(policy);
    let units: Vec<(usize, usize)> = (0..suite.len())
        .flat_map(|p| (0..configs.len()).map(move |c| (p, c)))
        .collect();
    let grid = Grid {
        workers: 0,
        progress_every: 200,
        label: match policy {
            ReplacementPolicy::Lru => "precision[lru]",
            ReplacementPolicy::Fifo => "precision[fifo]",
            ReplacementPolicy::Plru => "precision[plru]",
        },
        shards: default_shards(),
    };
    let sums = grid.run(&units, |_, &(pi, ci)| {
        let b = &suite[pi];
        let (_, config) = &configs[ci];
        let engine = engine_for(*config);
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        engine
            .audit_soundness(&b.program, &mut sink, &SoundnessOptions::default(), false)
            .expect("suite programs analyse")
    });
    let analyses = u32::try_from(sums.len()).expect("grid fits in u32");
    PolicyPrecision {
        policy,
        analyses,
        unsound: sums.iter().map(|s| s.unsound as u64).sum(),
        precision_gaps: sums.iter().map(|s| s.precision_gaps as u64).sum(),
        refined: sums.iter().map(|s| s.refined as u64).sum(),
        mean_precision_cheap: sums.iter().map(|s| s.cheap_precision_score).sum::<f64>()
            / f64::from(analyses.max(1)),
        mean_precision: sums.iter().map(|s| s.precision_score).sum::<f64>()
            / f64::from(analyses.max(1)),
    }
}

/// Renders per-policy precision rows as the `results/precision.csv`
/// artifact payload.
pub fn precision_to_csv(rows: &[PolicyPrecision]) -> String {
    let mut s = String::from(
        "policy,analyses,unsound,precision_gaps,refined,mean_precision_cheap,mean_precision\n",
    );
    for r in rows {
        use std::fmt::Write as _;
        let _ = writeln!(
            s,
            "{},{},{},{},{},{:.6},{:.6}",
            r.policy,
            r.analyses,
            r.unsound,
            r.precision_gaps,
            r.refined,
            r.mean_precision_cheap,
            r.mean_precision
        );
    }
    s
}

/// The committed precision record per policy (the refined
/// `mean_precision` column of `results/precision.csv` at the time the
/// record was last raised). `precision --check` fails when a measured
/// score drops below its record — the CI ratchet that keeps refinement
/// regressions out.
pub const PRECISION_RECORD: [(ReplacementPolicy, f64); 3] = [
    (ReplacementPolicy::Lru, 0.982),
    (ReplacementPolicy::Fifo, 0.981),
    (ReplacementPolicy::Plru, 0.981),
];

/// The committed record for one policy.
pub fn precision_record(policy: ReplacementPolicy) -> f64 {
    PRECISION_RECORD
        .iter()
        .find(|(p, _)| *p == policy)
        .map(|&(_, v)| v)
        .expect("every policy has a record")
}

/// Content address of the precision artifact: the union of every
/// per-policy sweep input, so any change that could move a score
/// invalidates the CSV.
pub fn precision_artifact_key() -> ArtifactKey {
    let suite = rtpf_suite::catalog();
    let econfigs: Vec<EngineConfig> = ReplacementPolicy::ALL
        .into_iter()
        .flat_map(paper_configs_for)
        .map(|(_, c)| EngineConfig::evaluation(c))
        .collect();
    rtpf_engine::sweep_key(
        suite
            .iter()
            .flat_map(|b| econfigs.iter().map(move |e| (&b.program, e))),
    )
}

/// Paper Table 2 capacities, used as Figure 3/4/5 x-axes.
pub const CAPACITIES: [u32; 6] = [256, 512, 1024, 2048, 4096, 8192];

/// Mean of `f` over the rows with the given capacity.
pub fn mean_by_capacity(rows: &[UnitResult], capacity: u32, f: impl Fn(&UnitResult) -> f64) -> f64 {
    let vals: Vec<f64> = rows
        .iter()
        .filter(|r| r.capacity == capacity)
        .map(&f)
        .filter(|v| v.is_finite())
        .collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_roundtrips_through_csv() {
        let b = rtpf_suite::by_name("bs").unwrap();
        let cfg = EngineConfig::geometry(2, 16, 256).unwrap();
        let r = run_unit("bs", &b.program, "k2", cfg, 1);
        let text = to_csv(std::slice::from_ref(&r));
        let back = parse_csv(&text).expect("roundtrip parses");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].program, r.program);
        assert_eq!(back[0].wcet_orig, r.wcet_orig);
        assert_eq!(back[0].inserted, r.inserted);
        assert!((back[0].acet_orig - r.acet_orig).abs() < 1e-9);
        assert_eq!(back[0].half.is_some(), r.half.is_some());
    }

    #[test]
    fn unit_satisfies_theorem_one() {
        let b = rtpf_suite::by_name("fft1").unwrap();
        let cfg = EngineConfig::geometry(1, 16, 512).unwrap();
        let r = run_unit("fft1", &b.program, "k7", cfg, 1);
        assert!(r.wcet_opt <= r.wcet_orig);
        assert!(r.wcet_ratio() <= 1.0);
    }

    #[test]
    fn mean_by_capacity_filters() {
        let b = rtpf_suite::by_name("bs").unwrap();
        let r1 = run_unit(
            "bs",
            &b.program,
            "k1",
            EngineConfig::geometry(1, 16, 256).unwrap(),
            1,
        );
        let rows = vec![r1];
        assert!(mean_by_capacity(&rows, 256, |r| r.wcet_ratio()).is_finite());
        assert!(mean_by_capacity(&rows, 512, |r| r.wcet_ratio()).is_nan());
    }

    #[test]
    fn l2_rows_roundtrip_through_csv() {
        let b = rtpf_suite::by_name("bs").unwrap();
        let points = l2_sweep_points();
        assert_eq!(points.len(), 1 + L2_CAPACITIES.len());
        let rows: Vec<L2Row> = points
            .iter()
            .take(2)
            .map(|(k, econfig)| {
                let unit = Engine::new(econfig.clone().with_threads(1))
                    .unit("bs", k, &b.program)
                    .expect("evaluates");
                (econfig.l2().copied(), (*unit).clone())
            })
            .collect();
        assert!(rows[0].0.is_none(), "first point is the L1-only baseline");
        assert!(rows[1].0.is_some());
        let text = l2_to_csv(&rows);
        assert!(text.starts_with(COLUMNS));
        assert!(text
            .lines()
            .next()
            .unwrap()
            .ends_with("l2_assoc,l2_block,l2_capacity"));
        let back = parse_l2_csv(&text).expect("roundtrip parses");
        assert_eq!(back, rows);
    }

    #[test]
    fn l2_sweep_key_differs_from_every_policy_sweep_key() {
        let l2 = l2_sweep_artifact_key();
        for p in ReplacementPolicy::ALL {
            assert_ne!(l2, sweep_artifact_key(p));
        }
    }

    #[test]
    fn per_policy_sweep_artifacts_are_fully_separated() {
        // Distinct file names, so no policy overwrites another's CSV…
        let names: Vec<String> = ReplacementPolicy::ALL
            .into_iter()
            .map(sweep_artifact_name)
            .collect();
        assert_eq!(names, ["sweep.csv", "sweep-fifo.csv", "sweep-plru.csv"]);
        // …and distinct content addresses, so even a renamed/copied CSV
        // from another policy is rejected as stale.
        let keys: Vec<ArtifactKey> = ReplacementPolicy::ALL
            .into_iter()
            .map(sweep_artifact_key)
            .collect();
        for i in 0..keys.len() {
            for j in 0..i {
                assert_ne!(keys[i], keys[j], "policies {j} and {i} share a sweep key");
            }
        }
    }

    #[test]
    fn a_sweep_csv_copied_across_policies_is_rejected() {
        // Concretely exercise the cross-policy isolation: persist a row
        // under the FIFO key, then ask for it under the PLRU key (same
        // file name) — the sidecar mismatch must force a recompute.
        let dir = std::env::temp_dir().join(format!("rtpf-sweep-xpolicy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::with_disk(&dir);
        let b = rtpf_suite::by_name("bs").unwrap();
        let row = run_unit(
            "bs",
            &b.program,
            "k2",
            EngineConfig::geometry(2, 16, 256).unwrap(),
            1,
        );
        let payload = to_csv(std::slice::from_ref(&row));
        store
            .disk_put(
                "sweep-x.csv",
                sweep_artifact_key(ReplacementPolicy::Fifo),
                &payload,
            )
            .expect("writes");
        assert!(
            load_sweep_named(
                &store,
                "sweep-x.csv",
                sweep_artifact_key(ReplacementPolicy::Plru),
                1
            )
            .is_none(),
            "a FIFO sweep artifact must never satisfy a PLRU request"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_sweep_artifact_is_discarded() {
        // A payload persisted under a *different* key (e.g. written by an
        // older stage version or other configuration fingerprints) must be
        // treated as absent — this is the invalidation the old
        // row-count-only check missed.
        let dir = std::env::temp_dir().join(format!("rtpf-sweep-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::with_disk(&dir);
        let key = sweep_artifact_key(ReplacementPolicy::Lru);
        let stale = ArtifactKey::new(
            rtpf_engine::Stage::Sweep,
            &[rtpf_engine::Fingerprint(0xdead, 0xbeef)],
        );
        let b = rtpf_suite::by_name("bs").unwrap();
        let row = run_unit(
            "bs",
            &b.program,
            "k2",
            EngineConfig::geometry(2, 16, 256).unwrap(),
            1,
        );
        let payload = to_csv(std::slice::from_ref(&row));
        store
            .disk_put("sweep.csv", stale, &payload)
            .expect("writes");
        assert!(
            load_sweep_named(&store, "sweep.csv", key, 1).is_none(),
            "stale-hash artifact must be discarded"
        );
        // Re-persisted under the current key, the same payload is served.
        store.disk_put("sweep.csv", key, &payload).expect("writes");
        assert_eq!(
            load_sweep_named(&store, "sweep.csv", key, 1),
            Some(vec![row])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
