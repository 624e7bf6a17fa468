//! Figure 9: CDF over ranks of kernel-level TCP calls occurring *inside*
//! Sweep3D's compute-bound sweep() phase — an imbalance indicator.
use ktau_analysis::{cdf, cdf_csv, cdf_table};
use ktau_bench::{jobs, prefetch, sweep_record, Config, Experiment};

fn main() {
    let configs = [
        Config::C128x1,
        Config::C128x1PinIrqCpu1,
        Config::C64x2PinIbal,
    ];
    // Fan any cache misses out over worker threads (--jobs).
    prefetch(&configs.map(Experiment::Sweep), jobs());
    let series: Vec<(String, ktau_analysis::Cdf)> = configs
        .iter()
        .map(|cfg| {
            let rec = sweep_record(*cfg);
            let xs: Vec<f64> = rec
                .ranks
                .iter()
                .map(|r| r.tcp_in_compute_count as f64)
                .collect();
            (cfg.label().to_owned(), cdf(&xs))
        })
        .collect();
    print!(
        "{}",
        cdf_table(
            "Fig 9: kernel TCP calls within sweep() compute",
            &series,
            "calls"
        )
    );
    let dir = ktau_bench::scenarios::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join("fig9_tcp_in_compute.csv"), cdf_csv(&series));
    println!("\npaper shape: 64x2 Pin,I-Bal sees significantly more TCP calls inside");
    println!("the compute phase than 128x1 (greater compute/communication mixing,");
    println!("i.e. imbalance); 128x1 Pin,IRQ CPU1 tracks plain 128x1.");
}
