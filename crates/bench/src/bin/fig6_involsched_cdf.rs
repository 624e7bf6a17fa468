//! Figure 6: CDF of involuntary scheduling (preemption) per rank.
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
            let xs: Vec<f64> = rec.ranks.iter().map(|r| r.invol_ns as f64 / 1e3).collect();
            (cfg.label().to_owned(), cdf(&xs))
        })
        .collect();
    print!(
        "{}",
        cdf_table(
            "Fig 6: Preemption (involuntary scheduling) per rank",
            &series,
            "us"
        )
    );
    let dir = ktau_bench::scenarios::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join("fig6_involsched.csv"), cdf_csv(&series));
    println!("\npaper shape: 64x2 Anomaly has a high-preemption tail (ranks 61/125");
    println!("contending for the single detected CPU); pinning reduces preemption.");
}
