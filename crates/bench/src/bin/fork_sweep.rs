//! Warm-prefix scenario sweep over a mid-run engine snapshot.
//!
//! Runs the shared prefix of the LU class-C 16-node scenario once, captures
//! a [`ktau_oskern::ClusterSnapshot`] at the fork point, and fans every
//! sweep variant out from the in-memory image (resume + mutate + run to
//! completion).  Every forked variant is validated against its *cold twin*
//! — an uninterrupted run from t=0 with the same mutation applied at the
//! same virtual time — which must be digest-identical.  Cold twins are the
//! expensive half, so they are both content-addressed (keyed by the sweep
//! hash) and resumable across invocations via [`SweepCheckpoint`] step
//! markers.
//!
//! Flags:
//! - `--jobs N` / `KTAU_JOBS`: worker threads for the variant fan-out.
//! - `--check`: verify fork determinism (dynticks forks and a
//!   reference-engine fork must all match the cold digests) and exit
//!   non-zero on any mismatch, **without touching `BENCH_engine.json`**.
//!   This is the CI gate.
//!
//! Without `--check` the sweep records row `jobs_<N>` of the `fork_sweep`
//! block in `BENCH_engine.json`.  The committed row is `jobs_1`: refresh it
//! with `fork_sweep --jobs 1`, since the default worker count is the host's
//! core count and would add a second row instead.
use ktau_bench::{
    benchfile, jobs, run_cold, run_fork, run_parallel, run_prefix, sweep_hash, variants,
    ForkEngine, ForkOutcome, SweepCheckpoint, T_FORK_NS,
};
use ktau_core::time::NS_PER_SEC;
use serde_json::Value;
use std::time::Instant;

/// Variant spot-checked on the reference engine.
const REFERENCE_VARIANT: &str = "faults_moderate";

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let j = jobs();
    let vs = variants();
    let cp = SweepCheckpoint::open("fork_sweep", sweep_hash());
    eprintln!(
        "[fork_sweep] {} variants, fork at t={} s virtual, jobs={j}, run id {}{}",
        vs.len(),
        T_FORK_NS / NS_PER_SEC,
        cp.run_id(),
        if check { " (check mode)" } else { "" }
    );

    // Cold twins first: resumable and content-addressed, so an interrupted
    // or repeated invocation (same sweep inputs) skips straight to the
    // cached outcome instead of re-simulating from t=0.
    let cold_cached = vs.iter().all(|v| cp.is_done(&cold_step(v.name)));
    let colds: Vec<ForkOutcome> = run_parallel(
        j,
        vs.iter()
            .map(|v| {
                let (cp, name, m) = (&cp, v.name, v.mutation.clone());
                move || {
                    let payload = cp.step(&cold_step(name), || {
                        serde_json::to_string(&run_cold(ForkEngine::Dynticks, &m))
                            .expect("encode cold outcome")
                    });
                    serde_json::from_str(&payload).expect("decode cold outcome")
                }
            })
            .collect(),
    );
    let cold_serial_s: f64 = colds.iter().map(|c| c.wall_s).sum();
    eprintln!(
        "[fork_sweep] cold twins ready ({}, serial-equivalent {:.2} s)",
        if cold_cached { "cached" } else { "computed" },
        cold_serial_s
    );

    // Warm path: one shared prefix, one snapshot, N forks.
    let t_warm = Instant::now();
    let (prefix, prefix_wall_s) = run_prefix(ForkEngine::Dynticks);
    let snap = prefix.snapshot();
    drop(prefix);
    eprintln!(
        "[fork_sweep] prefix simulated + captured in {prefix_wall_s:.2} s ({} KiB image)",
        snap.image().len() / 1024
    );
    let forks: Vec<ForkOutcome> = run_parallel(
        j,
        vs.iter()
            .map(|v| {
                let (snap, m) = (snap.clone(), v.mutation.clone());
                move || run_fork(&snap, &m)
            })
            .collect(),
    );
    let warm_measured_s = t_warm.elapsed().as_secs_f64();
    let fork_serial_s: f64 = forks.iter().map(|f| f.wall_s).sum();
    let warm_serial_s = prefix_wall_s + fork_serial_s;

    let mut mismatches = Vec::new();
    println!(
        "{:<22} {:>10} {:>12} {:>9} {:>9}  match",
        "variant", "end [s]", "events", "fork [s]", "cold [s]"
    );
    for (v, (f, c)) in vs.iter().zip(forks.iter().zip(&colds)) {
        let ok = f.digest == c.digest && f.end_virtual_s == c.end_virtual_s;
        println!(
            "{:<22} {:>10.2} {:>12} {:>9.2} {:>9.2}  {}",
            v.name,
            f.end_virtual_s,
            f.events_processed,
            f.wall_s,
            c.wall_s,
            if ok { "yes" } else { "MISMATCH" }
        );
        if !ok {
            mismatches.push(format!(
                "{}: fork digest {} end {:.3}s vs cold digest {} end {:.3}s",
                v.name, f.digest, f.end_virtual_s, c.digest, c.end_virtual_s
            ));
        }
    }

    // Engine-coverage spot check: the cold digests are engine-invariant,
    // so a reference-engine fork must land on the same digest as its
    // dynticks cold twin above.
    let (ref_v, ref_cold) = vs
        .iter()
        .zip(&colds)
        .find(|(v, _)| v.name == REFERENCE_VARIANT)
        .expect("reference spot-check variant present");
    let (ref_prefix, _) = run_prefix(ForkEngine::Reference);
    let ref_fork = run_fork(&ref_prefix.snapshot(), &ref_v.mutation);
    drop(ref_prefix);
    let ref_ok = ref_fork.digest == ref_cold.digest;
    if !ref_ok {
        mismatches.push(format!(
            "reference-engine fork of {}: digest {} vs cold {}",
            ref_v.name, ref_fork.digest, ref_cold.digest
        ));
    }
    println!(
        "engine spot check: reference fork {}",
        if ref_ok { "match" } else { "MISMATCH" }
    );

    let speedup = cold_serial_s / warm_serial_s;
    println!(
        "[fork_sweep] {} variants: warm {:.2} s (prefix {:.2} + forks {:.2}) vs cold {:.2} s \
         serial-equivalent -> {:.2}x amortization",
        vs.len(),
        warm_serial_s,
        prefix_wall_s,
        fork_serial_s,
        cold_serial_s,
        speedup
    );

    if !mismatches.is_empty() {
        eprintln!("[fork_sweep] FORK DETERMINISM VIOLATED:");
        for m in &mismatches {
            eprintln!("  {m}");
        }
        std::process::exit(1);
    }
    if check {
        println!(
            "[fork_sweep] check passed: {} forks + 1 engine spot check digest-identical to cold runs",
            vs.len()
        );
        return; // --check never writes BENCH_engine.json
    }
    if let Err(e) = record_fork_sweep(
        j,
        vs.len(),
        prefix_wall_s,
        fork_serial_s,
        warm_measured_s,
        cold_serial_s,
        cold_cached,
    ) {
        eprintln!("[fork_sweep] cannot record timing: {e}");
        std::process::exit(1);
    }
    println!("fork_sweep block written to {}", benchfile::ENGINE);
}

fn cold_step(name: &str) -> String {
    format!("cold_{name}")
}

/// Records this sweep's timing as row `jobs_<N>` of the `fork_sweep` block
/// of `BENCH_engine.json`.  The comparison is serial-equivalent wall time
/// (sum of per-path walls), which stays honest when the fan-out has fewer
/// cores than workers.
fn record_fork_sweep(
    jobs: usize,
    variants: usize,
    prefix_wall_s: f64,
    fork_serial_s: f64,
    warm_measured_s: f64,
    cold_serial_s: f64,
    cold_cached: bool,
) -> std::io::Result<()> {
    let warm_serial_s = prefix_wall_s + fork_serial_s;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fan_out = if jobs == 1 {
        "one worker, so the measured warm wall is serial".to_owned()
    } else if jobs > host_cores {
        format!("{jobs} workers on {host_cores} core(s), so the measured warm wall includes coordination overhead, not speedup")
    } else {
        format!("{jobs} workers on {host_cores} cores")
    };
    let row = Value::Obj(vec![
        ("jobs".to_owned(), Value::U64(jobs as u64)),
        ("variants".to_owned(), Value::U64(variants as u64)),
        (
            "t_fork_virtual_s".to_owned(),
            Value::U64(T_FORK_NS / NS_PER_SEC),
        ),
        ("prefix_wall_s".to_owned(), Value::F64(prefix_wall_s)),
        ("fork_serial_wall_s".to_owned(), Value::F64(fork_serial_s)),
        ("warm_serial_wall_s".to_owned(), Value::F64(warm_serial_s)),
        (
            "warm_measured_wall_s".to_owned(),
            Value::F64(warm_measured_s),
        ),
        ("cold_serial_wall_s".to_owned(), Value::F64(cold_serial_s)),
        (
            "amortization_speedup".to_owned(),
            Value::F64(cold_serial_s / warm_serial_s),
        ),
        (
            "cold_wall_source".to_owned(),
            Value::Str(
                if cold_cached {
                    "checkpoint_cache"
                } else {
                    "measured"
                }
                .to_owned(),
            ),
        ),
        ("host_cores".to_owned(), Value::U64(host_cores as u64)),
        (
            "note".to_owned(),
            Value::Str(format!(
                "serial-equivalent walls (sum of per-path times); {fan_out}"
            )),
        ),
    ]);
    benchfile::set_row(
        benchfile::ENGINE,
        "fork_sweep",
        &format!("jobs_{jobs}"),
        row,
    )
}
