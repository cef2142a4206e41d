use rtpf_engine::EngineConfig;
fn main() {
    for name in [
        "nsichneu",
        "bsort100",
        "statemate",
        "adpcm",
        "crc",
        "matmult",
        "bs",
        "ndes",
    ] {
        let b = rtpf_suite::by_name(name).unwrap();
        for (k, cfg) in [
            ("k7", EngineConfig::geometry(1, 16, 512).unwrap()),
            ("k25", EngineConfig::geometry(1, 16, 4096).unwrap()),
        ] {
            let t0 = std::time::Instant::now();
            let r = rtpf_experiments::run_unit(name, &b.program, k, cfg, 1);
            println!(
                "{name} {k}: {:.2}s ins={} wcet_ratio={:.3}",
                t0.elapsed().as_secs_f64(),
                r.inserted,
                r.wcet_ratio()
            );
        }
    }
}
