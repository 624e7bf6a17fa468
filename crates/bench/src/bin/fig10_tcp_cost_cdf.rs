//! Figure 10: CDF over ranks of the exclusive time of a single kernel TCP
//! operation; TCP work is dearer when both processors compute.
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
                .filter(|r| r.tcp_count > 0)
                .map(|r| r.tcp_us_per_call())
                .collect();
            (cfg.label().to_owned(), cdf(&xs))
        })
        .collect();
    print!(
        "{}",
        cdf_table("Fig 10: exclusive time per kernel TCP call", &series, "us")
    );
    let m128 = series[0].1.median();
    let m64 = series[2].1.median();
    println!(
        "\nmedian dilation 64x2 vs 128x1: {:.1}% (paper: ~11.5% over the range 27-36 us)",
        (m64 - m128) / m128 * 100.0
    );
    let dir = ktau_bench::scenarios::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join("fig10_tcp_cost.csv"), cdf_csv(&series));
}
