//! Figure 5: CDF of voluntary scheduling time per rank for the LU configs.
use ktau_analysis::{cdf, cdf_csv, cdf_table};
use ktau_bench::{jobs, lu_record, prefetch, Config, Experiment};

fn main() {
    // Fan any cache misses out over worker threads (--jobs).
    let exps: Vec<Experiment> = Config::TABLE2.iter().map(|&c| Experiment::Lu(c)).collect();
    prefetch(&exps, jobs());
    let series: Vec<(String, ktau_analysis::Cdf)> = Config::TABLE2
        .iter()
        .map(|cfg| {
            let rec = lu_record(*cfg);
            let xs: Vec<f64> = rec.ranks.iter().map(|r| r.vol_ns as f64 / 1e3).collect();
            (cfg.label().to_owned(), cdf(&xs))
        })
        .collect();
    print!(
        "{}",
        cdf_table(
            "Fig 5: Yielding CPU (voluntary scheduling) per rank",
            &series,
            "us"
        )
    );
    let dir = ktau_bench::scenarios::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join("fig5_volsched.csv"), cdf_csv(&series));
    println!("\n(CSV series written to results/fig5_volsched.csv)");
    println!("paper shape: 64x2 Anomaly shows a low-voluntary tail (ranks 61/125);");
    println!("64x2 Pinned shifts voluntary waiting up vs 64x2.");
}
