//! Figure 8: CDF of interrupt activity per rank; bimodal for 64x2 Pinned
//! because all IRQs land on CPU 0.
use ktau_analysis::{cdf, cdf_csv, cdf_table};
use ktau_bench::{jobs, lu_record, prefetch, Config, Experiment};

fn main() {
    let configs = [
        Config::C128x1,
        Config::C64x2PinIbal,
        Config::C64x2,
        Config::C64x2Pinned,
    ];
    // Fan any cache misses out over worker threads (--jobs).
    prefetch(&configs.map(Experiment::Lu), jobs());
    let series: Vec<(String, ktau_analysis::Cdf)> = configs
        .iter()
        .map(|cfg| {
            let rec = lu_record(*cfg);
            let xs: Vec<f64> = rec.ranks.iter().map(|r| r.irq_ns as f64 / 1e3).collect();
            (cfg.label().to_owned(), cdf(&xs))
        })
        .collect();
    print!(
        "{}",
        cdf_table("Fig 8: IRQ activity per rank", &series, "us")
    );
    for (name, c) in &series {
        println!(
            "bimodality (largest relative gap) {name:<18}: {:.2}",
            c.largest_relative_gap()
        );
    }
    let dir = ktau_bench::scenarios::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join("fig8_irq.csv"), cdf_csv(&series));
    println!("\npaper shape: 64x2 Pinned is prominently bimodal (CPU0-pinned ranks");
    println!("absorb all interrupts); irq-balancing flattens the distribution.");
}
