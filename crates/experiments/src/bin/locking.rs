//! Extension experiment (the paper's §6 future work, implemented): the
//! energy impact of **static cache locking** [4, 14, 16, 2] side by side
//! with unlocked-cache prefetching, across technologies.
//!
//! The paper's §2.3 argument: locking trades dynamic energy for a longer
//! ACET, so as leakage grows with shrinking technology nodes, locking's
//! energy bill grows with it — while the prefetching approach shortens
//! the ACET and saves static energy. This binary quantifies that claim
//! on the reproduction stack.

use rtpf_baselines::locking::{locked_tau_w, select_locked_greedy};
use rtpf_energy::{EnergyModel, Technology};
use rtpf_engine::EngineConfig;
use rtpf_sim::Simulator;

fn main() {
    let programs = ["fft1", "compress", "ndes", "adpcm", "whet", "statemate"];
    let config = EngineConfig::geometry(2, 16, 1024).expect("valid");
    let sim_config = || EngineConfig::evaluation(config).sim_config();
    println!("Locking vs unlocked prefetching on {config} (ratios vs on-demand baseline)\n");
    println!(
        "{:<11} {:>10} {:>10} | {:>9} {:>9} | {:>9} {:>9}",
        "program", "lock WCET", "pf WCET", "lockE@45", "pfE@45", "lockE@32", "pfE@32"
    );

    let mut lock_sums = [0.0f64; 3];
    let mut pf_sums = [0.0f64; 3];
    let mut n = 0.0;
    for name in programs {
        let b = rtpf_suite::by_name(name).expect("known");
        let m45 = EnergyModel::new(config, Technology::Nm45);
        let m32 = EnergyModel::new(config, Technology::Nm32);
        let timing = m45.timing();
        let sim = Simulator::new(config, timing, sim_config());

        let base = sim.run(&b.program).expect("simulates");
        let base_tau = rtpf_wcet::WcetAnalysis::analyze(
            &b.program,
            &rtpf_wcet::AnalysisOptions::new(config, timing),
        )
        .expect("analyzes")
        .tau_w();

        let locked = select_locked_greedy(&b.program, &config, &timing).expect("selects");
        let lock_tau = locked_tau_w(&b.program, &config, &timing, &locked).expect("bounds");
        let lock_run = sim.run_locked(&b.program, &locked).expect("simulates");

        let gated = rtpf_experiments::optimize_with_condition3(&b.program, config);
        let opt = gated.opt;
        let opt_run = gated.sim_opt;

        let ratio = |m: &EnergyModel, run: &rtpf_sim::SimResult| {
            m.energy_of(&run.mean_stats()).total_nj() / m.energy_of(&base.mean_stats()).total_nj()
        };
        let lw = lock_tau as f64 / base_tau as f64;
        let pw = opt.report.wcet_after as f64 / base_tau as f64;
        let (l45, p45) = (ratio(&m45, &lock_run), ratio(&m45, &opt_run));
        let (l32, p32) = (ratio(&m32, &lock_run), ratio(&m32, &opt_run));
        println!(
            "{:<11} {:>10.3} {:>10.3} | {:>9.3} {:>9.3} | {:>9.3} {:>9.3}",
            name, lw, pw, l45, p45, l32, p32
        );
        lock_sums[0] += lw;
        lock_sums[1] += l45;
        lock_sums[2] += l32;
        pf_sums[0] += pw;
        pf_sums[1] += p45;
        pf_sums[2] += p32;
        n += 1.0;
    }
    println!(
        "\naverages: locking WCET x{:.3}, E@45 x{:.3}, E@32 x{:.3}",
        lock_sums[0] / n,
        lock_sums[1] / n,
        lock_sums[2] / n
    );
    println!(
        "          prefetch WCET x{:.3}, E@45 x{:.3}, E@32 x{:.3}",
        pf_sums[0] / n,
        pf_sums[1] / n,
        pf_sums[2] / n
    );
    println!("\n(§2.3: locking's energy penalty should worsen from 45nm to 32nm;");
    println!(" prefetching must never exceed 1.0 on WCET and stay at or below baseline energy)");
}
