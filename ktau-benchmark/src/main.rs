//! Command line of the layered benchmark.
//!
//! ```text
//! ktau-benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced]
//! ktau-benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! With `--workload`, runs that workload and prints its metrics; the last
//! line of standard output is the result as one JSON object.  Without it,
//! runs every workload, each in its own child process, one at a time.
//! Every run appends its record to `<target>/benchmark/runs.jsonl`
//! (`<target>` is `$CARGO_TARGET_DIR`, else `target`); traced runs also
//! write their spans to `<target>/benchmark/trace-<workload>.json`.

use ktau_benchmark::harness::{Config, Run, DEFAULT_SEED};
use ktau_benchmark::metrics::{self, Metric, MIN_COVERAGE_PCT};
use ktau_benchmark::stats::Summary;
use ktau_benchmark::{compare, layers, pins, workloads};
use serde_json::Value;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: ktau-benchmark [--workload W] [--seed S] [--seconds N] \
                     [--trace 0|1 | --traced]\n       ktau-benchmark compare PARENT.jsonl CHANGE.jsonl";

struct Args {
    workload: Option<String>,
    cfg: Config,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        cfg: Config {
            seed: DEFAULT_SEED,
            seconds: 20.0,
            traced: false,
            smoke: false,
        },
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.cfg.seed = parse_u64(value()?).ok_or("bad --seed")?,
            "--seconds" => {
                out.cfg.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("bad --seconds")?
            }
            "--trace" => {
                out.cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => out.cfg.traced = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    if let Some(w) = &out.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; one of {}",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("benchmark")
}

fn summary_json(s: Option<Summary>) -> Value {
    s.map_or(Value::Null, |s| {
        Value::Obj(vec![
            ("n".into(), Value::U64(s.n as u64)),
            ("q1".into(), Value::F64(s.q1)),
            ("median".into(), Value::F64(s.median)),
            ("q3".into(), Value::F64(s.q3)),
            ("p90".into(), s.p90.map_or(Value::Null, Value::F64)),
        ])
    })
}

fn metrics_json(ms: &[Metric]) -> Value {
    Value::Obj(
        ms.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Obj(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn show(label: &str, unit: &str, s: Option<Summary>) {
    match s {
        Some(s) => println!(
            "  {label:<12} {unit:<3} median {:.6}  q1 {:.6}  q3 {:.6}  p90 {}  n {}",
            s.median,
            s.q1,
            s.q3,
            s.p90.map_or("-".into(), |p| format!("{p:.6}")),
            s.n
        ),
        None => println!("  {label:<12} no samples"),
    }
}

/// The raw (unscaled) median operation latency of the latest untraced run
/// of `workload` in `runs.jsonl`, for the tracing overhead.
fn untraced_p50(workload: &str) -> Option<f64> {
    let text = std::fs::read_to_string(out_dir().join("runs.jsonl")).ok()?;
    text.lines().rev().find_map(|line| {
        let r: Value = serde_json::from_str(line).ok()?;
        let untraced = matches!(r.obj_get("trace"), Value::U64(0));
        let same = matches!(r.obj_get("workload"), Value::Str(w) if w == workload);
        match r.obj_get("op_ms").obj_get("median") {
            Value::F64(ms) if untraced && same => Some(*ms),
            _ => None,
        }
    })
}

fn print_layers(run: &Run, ms: &[Metric]) {
    let sh = metrics::Shares::of(run);
    println!(
        "  layer self time (share of the {:.3} s traced wall):",
        sh.wall_ns / 1e9
    );
    for (layer, share) in sh.layers() {
        println!("    {layer:<10} {share:>6.2} %");
    }
    println!(
        "  named layers cover {:.2} % (need {MIN_COVERAGE_PCT} %)",
        sh.coverage
    );
    let traced = Summary::of(&run.op_ms).map(|s| s.median);
    match (traced, untraced_p50(run.workload)) {
        (Some(t), Some(u)) => println!(
            "  tracing_overhead {:.3} (traced op p50 {t:.3} ms / untraced raw {u:.3} ms)",
            t / u
        ),
        _ => println!("  tracing_overhead: needs an untraced run of this workload first"),
    }
    for m in ms {
        println!("  {:<36} {:<9} {}", m.name, m.unit, m.value);
    }
}

fn write_outputs(run: &Run, record: &Value) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))?;
    writeln!(
        f,
        "{}",
        serde_json::to_string(record).expect("serializable")
    )?;
    f.flush()?;
    if run.cfg.traced {
        let trace = Value::Obj(vec![
            ("workload".into(), Value::Str(run.workload.into())),
            ("seed".into(), Value::U64(run.cfg.seed)),
            ("phase_s".into(), Value::F64(run.phase_s)),
            ("spans".into(), run.spans.to_json()),
        ]);
        let path = dir.join(format!("trace-{}.json", run.workload));
        std::fs::write(path, serde_json::to_string(&trace).expect("serializable"))?;
    }
    Ok(())
}

fn run_one(name: &str, cfg: Config) -> ExitCode {
    if cfg.traced && !ktau_core::selfprof::enabled() {
        eprintln!("--trace 1 needs the traced build: cargo run --release --features traced -- ...");
        return ExitCode::from(2);
    }
    let mut run = workloads::run(name, cfg).expect("workload name validated");
    if cfg.pinned() {
        if let Err(e) = pins::check(name, &run.pins) {
            run.fail(format!("pins: {e}"));
        }
    }
    let (ms, incomplete) = if cfg.traced {
        let x = layers::measure(&mut run);
        let ms = metrics::per_layer(&run, &x);
        let coverage = metrics::Shares::of(&run).coverage;
        if coverage < MIN_COVERAGE_PCT {
            run.fail(format!(
                "named layers cover {coverage:.2} % of the traced wall, below {MIN_COVERAGE_PCT} %"
            ));
        }
        (ms, None)
    } else {
        match metrics::end_to_end(&run) {
            Ok(ms) => (ms, None),
            Err(e) => (Vec::new(), Some(e)),
        }
    };
    let correct = run.failed == 0 && incomplete.is_none();

    println!(
        "workload {name}  seed {}  seconds {}  traced {}",
        cfg.seed, cfg.seconds, cfg.traced
    );
    show("op latency", "ms", Summary::of(&run.op_ms));
    show("setup", "s", Summary::of(&run.setup_s));
    if let Some(cal) = &run.cal {
        show("calibration", "ms", Summary::of(cal.samples_ms()));
        println!(
            "  host times below are scaled by {:.4} to the reference speed ({} ms kernel)",
            cal.factor().unwrap_or(f64::NAN),
            ktau_benchmark::calibrate::REFERENCE_MS
        );
    }
    if cfg.traced {
        print_layers(&run, &ms);
    } else {
        for m in &ms {
            println!("  {:<18} {:<4} {}", m.name, m.unit, m.value);
        }
    }
    println!(
        "  attempted {}  failed {}  correct {correct}",
        run.attempted, run.failed
    );
    for p in run.problems.iter().chain(&incomplete) {
        println!("  problem: {p}");
    }

    let result = vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(run.attempted)),
        ("failed".into(), Value::U64(run.failed)),
        ("metrics".into(), metrics_json(&ms)),
    ];
    let mut record = vec![
        ("workload".into(), Value::Str(name.into())),
        ("seed".into(), Value::U64(cfg.seed)),
        ("trace".into(), Value::U64(cfg.traced.into())),
        ("seconds".into(), Value::F64(cfg.seconds)),
        ("op_ms".into(), summary_json(Summary::of(&run.op_ms))),
        ("setup_s".into(), summary_json(Summary::of(&run.setup_s))),
        (
            "calibration_ms".into(),
            summary_json(run.cal.as_ref().and_then(|c| Summary::of(c.samples_ms()))),
        ),
        (
            "problems".into(),
            Value::Arr(run.problems.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    record.extend(result.iter().cloned());
    if let Err(e) = write_outputs(&run, &Value::Obj(record)) {
        eprintln!("could not write under {}: {e}", out_dir().display());
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Obj(result)).expect("serializable")
    );
    ExitCode::SUCCESS
}

/// Runs every workload, each in its own child process, one at a time.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in workloads::NAMES {
        let status = std::process::Command::new(&exe)
            .args(args)
            .args(["--workload", w])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(parent: &str, change: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = compare::bounds(&read("BENCHMARK.json")?)?;
    let a = compare::records(&read(parent)?).map_err(|e| format!("{parent}: {e}"))?;
    let b = compare::records(&read(change)?).map_err(|e| format!("{change}: {e}"))?;
    let (table, regressed) = compare::report(&bounds, &a, &b);
    print!("{table}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => match run_compare(a, b) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    match parse(&args) {
        Ok(Args {
            workload: Some(w),
            cfg,
        }) => run_one(&w, cfg),
        Ok(Args { workload: None, .. }) => run_all(&args),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
