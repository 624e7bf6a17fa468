//! Table 2: execution time and % slowdown from 128x1 for NPB LU and ASCI
//! Sweep3D across the five cluster configurations.
use ktau_bench::{jobs, lu_record, prefetch, sweep_record, Config, Experiment};

fn main() {
    // Fan any cache misses out over worker threads (--jobs).
    let mut exps: Vec<Experiment> = Config::TABLE2.iter().map(|&c| Experiment::Lu(c)).collect();
    exps.extend(Config::TABLE2.iter().map(|&c| Experiment::Sweep(c)));
    prefetch(&exps, jobs());
    println!("Table 2. Exec. Time (secs) and % Slowdown from 128x1 Configuration");
    println!(
        "{:<16} {:>12} {:>18} {:>12} {:>18}",
        "Config", "LU Exec", "LU %Diff", "S3D Exec", "S3D %Diff"
    );
    let lu_base = lu_record(Config::C128x1).exec_s;
    let s_base = sweep_record(Config::C128x1).exec_s;
    for cfg in Config::TABLE2 {
        let lu = lu_record(cfg).exec_s;
        let sw = sweep_record(cfg).exec_s;
        println!(
            "{:<16} {:>12.2} {:>17.1}% {:>12.2} {:>17.1}%",
            cfg.label(),
            lu,
            (lu - lu_base) / lu_base * 100.0,
            sw,
            (sw - s_base) / s_base * 100.0
        );
    }
    println!("\npaper: LU 295.6/512.2(+73.2%)/402.5(+36.1%)/389.4(+31.7%)/336.0(+13.6%)");
    println!("       S3D 369.9/639.3(+72.8%)/429.0(+15.9%)/427.9(+15.6%)/404.6(+9.4%)");
}
