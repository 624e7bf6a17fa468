//! Runs every experiment once, populating the results cache that the
//! per-figure binaries read.  Independent cluster runs fan out over worker
//! threads (`--jobs N` / `KTAU_JOBS`, default: available cores).  Results
//! are printed and cached in a fixed order, byte-identical to a serial run —
//! the worker count never changes simulation output, only how the wall
//! clock is spent.
use ktau_bench::{benchfile, jobs, prefetch, Config, Experiment};
use serde_json::Value;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let j = jobs();
    let cold = std::env::var_os("KTAU_RERUN").is_some();
    let mut exps: Vec<Experiment> = Config::TABLE2.iter().map(|&c| Experiment::Lu(c)).collect();
    exps.extend(Config::TABLE2.iter().map(|&c| Experiment::Sweep(c)));
    exps.push(Experiment::Sweep(Config::C128x1PinIrqCpu1));
    eprintln!(
        "[run_all] {} experiments across {j} worker thread(s)",
        exps.len()
    );
    let recs = prefetch(&exps, j);
    for (e, r) in exps.iter().zip(&recs) {
        println!(
            "{:<8} {:<18} {:>9.2} s   [{:>6.1} s wall]",
            e.workload(),
            e.config().label(),
            r.exec_s,
            t0.elapsed().as_secs_f64()
        );
    }
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "[run_all] jobs={j} wall={wall:.3}s experiments={} cold={cold}",
        exps.len()
    );
    if cold {
        record_timing(j, wall, exps.len());
    } else {
        // Warm runs mostly replay the results cache; their wall time says
        // nothing stable about the engine, and recording it would churn
        // BENCH_engine.json on every invocation.
        println!("[run_all] warm run: BENCH_engine.json untouched (KTAU_RERUN=1 records timing)");
    }
    println!("cache populated under results/");
}

/// Records a cold run's timing as row `jobs_<N>_cold` of the
/// `run_all_jobs_timing` block of `BENCH_engine.json`, so a `--jobs 1/2/4/8`
/// sweep accumulates a scaling baseline instead of overwriting itself.
fn record_timing(jobs: usize, wall_s: f64, experiments: usize) {
    let row = Value::Obj(vec![
        ("jobs".to_owned(), Value::U64(jobs as u64)),
        ("experiments".to_owned(), Value::U64(experiments as u64)),
        ("wall_s".to_owned(), Value::F64(wall_s)),
        ("cold".to_owned(), Value::Bool(true)),
        (
            "host_cores".to_owned(),
            Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
    ]);
    let key = format!("jobs_{jobs}_cold");
    if let Err(e) = benchfile::set_row(benchfile::ENGINE, "run_all_jobs_timing", &key, row) {
        eprintln!("[run_all] cannot record timing: {e}");
        std::process::exit(1);
    }
    println!("[run_all] {key} row written to {}", benchfile::ENGINE);
}
