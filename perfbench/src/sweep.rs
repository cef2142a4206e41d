//! The `sweep` workload: the paper's LRU evaluation grid (37 programs ×
//! 36 Table 2 geometries) in seeded order, each unit run by
//! `Engine::unit` on a fresh evaluation engine, on a one-worker `Grid`.
//! Every unit row must equal its row in `results/sweep.csv`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rtpf_cache::{CacheConfig, ReplacementPolicy};
use rtpf_engine::{to_csv, Engine, Grid, StoreMetrics, UnitResult};
use rtpf_experiments::{engine_for, paper_configs_for};
use rtpf_suite::Benchmark;

use crate::trace::Tracer;
use crate::{tid, timed_setup, Args, Budget, Fail, Outcome, Phase};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 51;
/// Grid workers. One, not `nproc`: on 2 cores a second worker made
/// the grid no faster (88 against 97 units/s) and took 1.75 times the CPU
/// time. The two workers contend, so throughput and p99 spread by 24%
/// and 31% across runs, which is wider than any bound the benchmark may
/// set.
const WORKERS: usize = 1;

/// Everything a run needs before its first unit.
struct Ctx {
    catalog: Vec<Benchmark>,
    configs: Vec<(String, CacheConfig)>,
    /// `(program, k)` → the unit's CSV row in `results/sweep.csv`.
    reference: HashMap<(String, String), String>,
    /// The grid in seeded order.
    units: Vec<(usize, usize)>,
}

fn reference_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../results/sweep.csv")
}

/// `(program, k)` → the unit's CSV row in `results/sweep.csv`.
fn load_reference() -> Result<HashMap<(String, String), String>, String> {
    let path = reference_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("read reference {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .skip(1)
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut f = l.splitn(3, ',');
            let key = (
                f.next().unwrap_or_default().to_string(),
                f.next().unwrap_or_default().to_string(),
            );
            (key, l.to_string())
        })
        .collect())
}

/// The program-side set-up that `setup_s` times: the suite catalog, the
/// Table 2 grid, and one evaluation engine. The reference rows and the
/// seeded order belong to the benchmark and are made outside it.
fn setup() -> (Vec<Benchmark>, Vec<(String, CacheConfig)>) {
    let catalog = rtpf_suite::catalog();
    let configs = paper_configs_for(ReplacementPolicy::Lru);
    std::hint::black_box(engine_for(configs[0].1));
    (catalog, configs)
}

/// One finished unit.
struct Done {
    start: Instant,
    end: Instant,
    result: Result<UnitResult, Fail>,
    store: StoreMetrics,
    /// `(candidates, inserted, rejected, prefetches issued, useful)` of
    /// the optimizer's output (traced runs only).
    counts: [u64; 5],
}

fn row_of(u: &UnitResult) -> String {
    to_csv(std::slice::from_ref(u))
        .lines()
        .nth(1)
        .expect("to_csv writes a header and one row")
        .to_string()
}

/// Times one stage call as a child of the unit's span.
fn stage<R>(t: &Tracer, parent: u64, i: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
    t.span(name, Some(parent), i as u64, tid(), |_| f())
}

/// Runs one unit; traced runs first make the unit's stage calls in the
/// order `Engine::unit` makes them, each in its own span, so the final
/// `unit` call finds them cached.
fn unit(ctx: &Ctx, (pi, ci): (usize, usize), i: usize, tracer: Option<(&Tracer, u64)>) -> Done {
    let b = &ctx.catalog[pi];
    let (k, config) = &ctx.configs[ci];
    let start = Instant::now();
    let engine: Engine = engine_for(*config);
    let mut counts = [0; 5];
    let result = match tracer {
        None => engine.unit(b.name, k, &b.program),
        Some((t, phase)) => t.span("engine.unit", Some(phase), i as u64, tid(), |op| {
            let opt = stage(t, op, i, "core.optimize", || engine.optimized(&b.program))?;
            let r = &opt.report;
            counts[..3].copy_from_slice(&[
                r.candidates_seen,
                u64::from(r.inserted),
                r.rejected_by_verifier,
            ]);
            stage(t, op, i, "sim.simulate", || engine.simulated(&b.program))?;
            let sim = stage(t, op, i, "sim.simulate", || engine.simulated(&opt.program))?;
            counts[3..].copy_from_slice(&[sim.prefetches_issued, sim.prefetch_useful]);
            stage(t, op, i, "engine.unit_rest", || {
                engine.unit(b.name, k, &b.program)
            })
        }),
    };
    let result = match result {
        Err(_) => Err(Fail::Status),
        Ok(u) if ctx.reference.get(&(b.name.to_string(), k.clone())) != Some(&row_of(&u)) => {
            Err(Fail::Mismatch)
        }
        Ok(u) => Ok((*u).clone()),
    };
    Done {
        start,
        end: Instant::now(),
        result,
        store: engine.store().metrics(),
        counts,
    }
}

/// One closed-loop phase over `units`, from its beginning.
fn phase(
    ctx: &Ctx,
    units: &[(usize, usize)],
    budget: Budget,
    tracer: Option<&Tracer>,
) -> (Phase, Vec<Done>) {
    let done = Mutex::new(Vec::new());
    let finished = AtomicUsize::new(0);
    let grid = Grid {
        workers: WORKERS,
        shards: 1,
        ..Grid::default()
    };
    let t0 = Instant::now();
    let body = |phase_id: Option<u64>| {
        grid.run(units, |i, &u| {
            if !budget.more(finished.load(Ordering::Relaxed)) {
                return;
            }
            let d = unit(ctx, u, i, tracer.zip(phase_id));
            finished.fetch_add(1, Ordering::Relaxed);
            done.lock().expect("results lock").push(d);
        });
    };
    match tracer {
        Some(t) => t.span("sweep.phase", None, u64::MAX, tid(), |id| body(Some(id))),
        None => body(None),
    }
    let done = done.into_inner().expect("results lock");
    let end = done.iter().map(|d| d.end).max().unwrap_or(t0);
    let phase = Phase {
        latencies_ms: done
            .iter()
            .map(|d| match d.result {
                Ok(_) => (d.end - d.start).as_secs_f64() * 1e3,
                Err(_) => f64::INFINITY,
            })
            .collect(),
        ends_s: done.iter().map(|d| (d.end - t0).as_secs_f64()).collect(),
        wall_s: (end - t0).as_secs_f64(),
    };
    (phase, done)
}

/// Runs the workload (see the module docs).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let reference = load_reference()?;
    let (setup_s, (catalog, configs)) = timed_setup(SETUP_REPS, || Ok(setup()), |_| Ok(()))?;
    let units = crate::workload::sweep_units(args.seed, catalog.len(), configs.len());
    let ctx = Ctx {
        catalog,
        configs,
        reference,
        units,
    };
    if ctx.reference.len() != ctx.units.len() {
        return Err(format!(
            "reference holds {} rows, the grid has {}",
            ctx.reference.len(),
            ctx.units.len()
        ));
    }
    let mut o = Outcome {
        params: format!(
            "{{\"grid\": \"{} programs x {} Table 2 geometries (LRU)\", \"workers\": {WORKERS}, \
             \"engine\": \"evaluation, threads 1\"}}",
            ctx.catalog.len(),
            ctx.configs.len(),
        ),
        ..Outcome::default()
    };
    o.e2e.insert("setup_s", setup_s);

    // An untraced run evaluates the whole grid, so every run does the same
    // work whatever the seed; a traced run times the same prefix twice,
    // untraced and traced.
    let mut all = Vec::new();
    if args.trace {
        let budget = || Budget::new(args.seconds / 2.0, 1);
        let (untraced, plain) = phase(&ctx, &ctx.units, budget(), None);
        all.extend(plain);
        let tracer = Tracer::new();
        let (traced, traced_done) = phase(&ctx, &ctx.units, budget(), Some(&tracer));
        o.spans = tracer.finish();
        o.layer.insert(
            "trace.overhead_ratio",
            untraced.throughput() / traced.throughput(),
        );
        let busy: f64 = traced_done
            .iter()
            .map(|d| (d.end - d.start).as_secs_f64() * 1e3)
            .sum();
        o.layer.insert("engine.grid.busy_ms", busy);
        o.layer.insert(
            "engine.grid.idle_ms",
            WORKERS as f64 * traced.wall_s * 1e3 - busy,
        );
        let mut c = [0u64; 5];
        // Each unit has a private store: sum its counters, and average
        // the bytes each unit left resident.
        let mut store = StoreMetrics::default();
        for d in &traced_done {
            for (acc, v) in c.iter_mut().zip(d.counts) {
                *acc += v;
            }
            store.hits += d.store.hits;
            store.misses += d.store.misses;
            store.coalesced += d.store.coalesced;
            store.compute_ns += d.store.compute_ns;
            store.coalesce_wait_ns += d.store.coalesce_wait_ns;
            store.bytes_in_use += d.store.bytes_in_use;
        }
        store.bytes_in_use /= traced_done.len().max(1) as u64;
        o.set_store(&store);
        o.set_optimizer_counts(c[0], c[1], c[2]);
        o.layer.insert(
            "sim.prefetch_useful_ratio",
            c[4] as f64 / c[3].max(1) as f64,
        );
        o.set_span_means(&[
            ("core.optimize_ms", "core.optimize"),
            ("sim.simulate_ms", "sim.simulate"),
            ("engine.unit_rest_ms", "engine.unit_rest"),
        ]);
        all.extend(traced_done);
    } else {
        let budget = Budget::new(args.seconds, ctx.units.len());
        let (whole, done) = phase(&ctx, &ctx.units, budget, None);
        if done.len() < ctx.units.len() {
            o.problems.push(format!(
                "the run stopped at its time limit after {} of {} units",
                done.len(),
                ctx.units.len()
            ));
        }
        all.extend(done);
        o.set_phases(&[whole])?;
    }

    o.e2e.insert("peak_rss_mb", crate::peak_rss_mb()?);
    o.attempted = all.len() as u64;
    let mut ratios = [Vec::new(), Vec::new(), Vec::new()];
    for d in &all {
        match &d.result {
            Ok(u) => {
                ratios[0].push(u.wcet_ratio());
                ratios[1].push(u.acet_ratio());
                ratios[2].push(u.energy_ratio(0));
            }
            Err(f) => o.failures.add(*f),
        }
    }
    let [w, a, e] = ratios;
    o.set_gmean("wcet_ratio_gmean", &w);
    o.set_gmean("acet_ratio_gmean", &a);
    o.set_gmean("energy_ratio_gmean", &e);
    Ok(o)
}
