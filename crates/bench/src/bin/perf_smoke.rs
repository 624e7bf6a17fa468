//! Perf smoke test for the DES engine: runs a reduced-scale NPB LU job on
//! both engines — dynticks (NO_HZ-style tick coalescing) and the
//! reference oracle — asserts they simulate bit-identical state, reports
//! events/sec and wall time, and writes `BENCH_engine.json` at the repo root
//! so the perf trajectory is tracked change over change.
//!
//! Two kernel configurations are measured:
//!
//! - `hz100` — the repo-wide default (HZ=100).  Ticks are ~33% of the
//!   event population here, so coalescing them bounds the gain at the
//!   non-tick handler floor.
//! - `hz1000` — the Linux 2.6-era default the KTAU paper's kernels actually
//!   ran (HZ=1000).  Ticks dominate the event population (~80%), which is
//!   the regime NO_HZ was invented for; the dynticks engine's closed-form
//!   tick folding shows its full effect here.
//!
//! `perf_smoke --check` is the CI regression gate.  It runs each engine
//! once per config, skips the timing report, and enforces on the hz100
//! config that dynticks dispatches < 40% of the reference engine's tick
//! events and < 70% of its total events; on the hz1000 config, < 40% of the
//! reference engine's total events (ticks dominate there).  Cross-engine
//! digest and finish-time equality is asserted in both modes; `--check`
//! also pins both configs' digests to the `state_digest` values committed
//! in `BENCH_engine.json`, which is what catches a run that is not
//! deterministic.
//!
//! Without `--check` it takes the best of `ITERATIONS` runs per engine and
//! config (asserting the runs agree), times the event queue in isolation,
//! and sets its own blocks of `BENCH_engine.json` (`bench` through
//! `queue_micro`); the `run_all` and `fork_sweep` blocks are theirs.
use ktau_bench::benchfile;
use ktau_mpi::{launch, Layout};
use ktau_oskern::{Cluster, ClusterSpec, Event, EventQueue};
use ktau_workloads::LuParams;
use serde::Serialize;
use std::time::Instant;

const NODES: usize = 16;
const ITERATIONS: usize = 3;
const DEADLINE: u64 = 3_600_000_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    Dynticks,
    Reference,
}

#[derive(Serialize)]
struct EngineNumbers {
    wall_s: f64,
    /// Events dispatched from the queue.
    events_dispatched: u64,
    /// Timer ticks among the dispatched events.
    ticks_dispatched: u64,
    /// Ticks folded analytically (dynticks only; 0 otherwise).
    ticks_coalesced: u64,
    /// `TxDone` events elided into release ledgers (dynticks only).
    txdone_elided: u64,
    /// Dispatched + coalesced + elided: total simulated work.
    events_simulated: u64,
    events_per_sec: f64,
    virtual_s: f64,
    /// FNV-1a digest of all profiles/counters/task state after the run;
    /// must agree across engines.
    state_digest: String,
}

#[derive(Serialize)]
struct ConfigNumbers {
    hz: u32,
    dynticks_engine: EngineNumbers,
    reference_engine: EngineNumbers,
    /// Reference wall / dynticks wall.
    dynticks_speedup: f64,
}

#[derive(Serialize)]
struct QueueMicroRow {
    /// Push-delta distribution: `uniform` (1 µs–1 ms, the wheel's bread
    /// and butter), `bursty` (64-deep same-nanosecond storms every 100 µs,
    /// the same-slot sort path), or `dynticks_parked` (16–300 ms daemon
    /// sleeps, the wheel rim and overflow heap).
    mix: String,
    /// Operations per timed phase.
    events: u64,
    /// One `push` into a fresh queue, amortized (best of 3 passes).
    ns_per_push: f64,
    /// One `pop_due` + `set_now` draining that queue, amortized.
    ns_per_pop: f64,
    /// One `push_at` with an explicit older push point (the dynticks
    /// re-arm shape), amortized.
    ns_per_push_at: f64,
}

#[derive(Serialize)]
struct QueueMicro {
    note: String,
    rows: Vec<QueueMicroRow>,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    workload: String,
    iterations: u64,
    /// Repo-default kernel config (HZ=100).
    hz100: ConfigNumbers,
    /// Linux 2.6-era kernel config (HZ=1000): the tick-dominated regime
    /// NO_HZ targets, and the HZ the paper's instrumented kernels ran.
    hz1000: ConfigNumbers,
    /// Event-queue micro-benchmarks, isolated from the simulation proper.
    queue_micro: QueueMicro,
}

struct RunStats {
    wall_s: f64,
    dispatched: u64,
    ticks_dispatched: u64,
    ticks_coalesced: u64,
    txdone_elided: u64,
    simulated: u64,
    virtual_s: f64,
    digest: u64,
}

/// One timed run on the chosen engine.
fn run_once(engine: Engine, hz: u32) -> RunStats {
    let mut spec = ClusterSpec::chiba(NODES);
    spec.sched.hz = hz;
    let t0 = Instant::now();
    let mut cluster = match engine {
        Engine::Dynticks => Cluster::new(spec),
        Engine::Reference => Cluster::new_reference_engine(spec),
    };
    let job = launch(
        &mut cluster,
        "lu.C.16",
        &Layout::one_per_node(NODES as u32),
        LuParams::class_c_16().apps(),
    );
    let end = cluster.run_until_apps_exit(DEADLINE);
    assert!(
        job.size() as usize == NODES,
        "launch placed a wrong rank count"
    );
    RunStats {
        wall_s: t0.elapsed().as_secs_f64(),
        dispatched: cluster.events_processed(),
        ticks_dispatched: cluster.ticks_dispatched(),
        ticks_coalesced: cluster.ticks_coalesced(),
        txdone_elided: cluster.txdone_elided(),
        simulated: cluster.events_simulated(),
        virtual_s: end as f64 / 1e9,
        digest: cluster.state_digest(),
    }
}

/// Best-of-`iterations` numbers for one engine mode (counts and digest must
/// be identical across iterations — the runs are deterministic).
fn measure(label: &str, engine: Engine, hz: u32, iterations: usize) -> (EngineNumbers, u64) {
    let mut best: Option<RunStats> = None;
    for i in 0..iterations {
        let r = run_once(engine, hz);
        eprintln!(
            "[perf_smoke] hz={hz} {label} iter {i}: {:.3} s wall, {} dispatched, {} simulated",
            r.wall_s, r.dispatched, r.simulated
        );
        if let Some(b) = &best {
            assert_eq!(b.dispatched, r.dispatched, "{label}: nondeterministic");
            assert_eq!(b.digest, r.digest, "{label}: nondeterministic digest");
        }
        if best.as_ref().is_none_or(|b| r.wall_s < b.wall_s) {
            best = Some(r);
        }
    }
    let r = best.unwrap();
    let digest = r.digest;
    (
        EngineNumbers {
            wall_s: r.wall_s,
            events_dispatched: r.dispatched,
            ticks_dispatched: r.ticks_dispatched,
            ticks_coalesced: r.ticks_coalesced,
            txdone_elided: r.txdone_elided,
            events_simulated: r.simulated,
            events_per_sec: r.simulated as f64 / r.wall_s,
            virtual_s: r.virtual_s,
            state_digest: format!("{digest:016x}"),
        },
        digest,
    )
}

/// Measures both engines at one HZ and asserts cross-engine equivalence:
/// identical state digests and finish times.
fn measure_config(hz: u32, iterations: usize) -> ConfigNumbers {
    let (dynticks, d_digest) = measure("dynticks (NO_HZ)", Engine::Dynticks, hz, iterations);
    let (reference, r_digest) = measure("reference", Engine::Reference, hz, iterations);
    assert_eq!(
        d_digest, r_digest,
        "hz={hz}: dynticks engine state diverged from the reference engine — \
         tick folding or TxDone elision is not exact"
    );
    assert_eq!(
        dynticks.virtual_s, reference.virtual_s,
        "hz={hz}: dynticks finish time diverged from the reference engine"
    );
    ConfigNumbers {
        hz,
        dynticks_speedup: reference.wall_s / dynticks.wall_s,
        dynticks_engine: dynticks,
        reference_engine: reference,
    }
}

/// Deterministic 64-bit PRNG (splitmix64) so micro-benchmark event streams
/// are identical run to run.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Times `push`, `pop`, and `push_at` over one pre-generated ascending
/// event-time stream.  Each phase runs `passes` times on a fresh queue and
/// keeps the fastest, damping host noise; the queue contents are identical
/// across passes so the work measured is too.
fn micro_mix(mix: &str, times: &[u64], passes: usize) -> QueueMicroRow {
    let n = times.len();
    let ev = |i: usize| Event::CpuDone {
        node: (i % 16) as u32,
        cpu: 0,
        gen: i as u64,
    };
    let mut best_push = f64::MAX;
    let mut best_pop = f64::MAX;
    let mut best_push_at = f64::MAX;
    for _ in 0..passes {
        let mut q = EventQueue::new();
        let t0 = Instant::now();
        for (i, &at) in times.iter().enumerate() {
            q.push(at, ev(i));
        }
        best_push = best_push.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        while let Some((t, _, _)) = q.pop_due(u64::MAX) {
            q.set_now(t);
        }
        best_pop = best_pop.min(t0.elapsed().as_secs_f64());
        // The dynticks re-arm shape: an explicit push point one tick period
        // (1 ms) before the event fires, always older than `now` (= 0).
        let mut q = EventQueue::new();
        let t0 = Instant::now();
        for (i, &at) in times.iter().enumerate() {
            q.push_at(at, ev(i), at.saturating_sub(1_000_000));
        }
        best_push_at = best_push_at.min(t0.elapsed().as_secs_f64());
    }
    QueueMicroRow {
        mix: mix.into(),
        events: n as u64,
        ns_per_push: best_push * 1e9 / n as f64,
        ns_per_pop: best_pop * 1e9 / n as f64,
        ns_per_push_at: best_push_at * 1e9 / n as f64,
    }
}

/// Ascending event times from a per-gap generator, as a dispatch loop
/// would schedule them.
fn cumulative_times(n: usize, seed: u64, mut gap: impl FnMut(&mut u64, usize) -> u64) -> Vec<u64> {
    let mut rng = seed;
    let mut t = 0u64;
    (0..n)
        .map(|i| {
            t += gap(&mut rng, i);
            t
        })
        .collect()
}

/// Micro-benchmarks the event queue in isolation over three push-delta
/// mixes (uniform, bursty, dynticks-parked).
fn queue_micro() -> QueueMicro {
    let uniform = cumulative_times(1 << 18, 1, |r, _| 1_000 + splitmix64(r) % 999_000);
    let bursty = cumulative_times(1 << 18, 2, |_, i| if i % 64 == 0 { 100_000 } else { 0 });
    let parked = cumulative_times(1 << 15, 3, |r, _| 16_000_000 + splitmix64(r) % 284_000_000);
    let rows = vec![
        micro_mix("uniform", &uniform, 3),
        micro_mix("bursty", &bursty, 3),
        micro_mix("dynticks_parked", &parked, 3),
    ];
    for r in &rows {
        eprintln!(
            "[perf_smoke] queue_micro {}: push {:.1} ns, pop {:.1} ns, push_at {:.1} ns \
             ({} events, best of 3)",
            r.mix, r.ns_per_push, r.ns_per_pop, r.ns_per_push_at, r.events
        );
    }
    QueueMicro {
        note: "EventQueue in isolation (no dispatch, no kernel model); \
               per-op cost amortized over the stream, best of 3 passes"
            .into(),
        rows,
    }
}

/// `--check`: the committed artifact must hold every regenerated block — a
/// missing one fails here, loudly, with the command that fills it.  Returns
/// the parsed file.
fn check_bench_fields() -> serde_json::Value {
    let doc = serde_json::Value::Obj(
        benchfile::read(benchfile::ENGINE).unwrap_or_else(|e| panic!("{e}")),
    );
    let required: &[(&str, &str)] = &[
        (
            "queue_micro",
            "cargo run --release -p ktau-bench --bin perf_smoke",
        ),
        (
            "run_all_jobs_timing.jobs_1_cold",
            "KTAU_RERUN=1 cargo run --release -p ktau-bench --bin run_all -- --jobs 1",
        ),
        (
            "fork_sweep",
            "cargo run --release -p ktau-bench --bin fork_sweep -- --jobs 1",
        ),
    ];
    let mut missing = Vec::new();
    for (path, fix) in required {
        let field = path.split('.').fold(&doc, |v, key| v.obj_get(key));
        if matches!(field, serde_json::Value::Null) {
            missing.push(format!("  {path}: missing — fill with: {fix}"));
        }
    }
    assert!(
        missing.is_empty(),
        "BENCH_engine.json lacks required fields:\n{}\n\
         (see EXPERIMENTS.md for the full regeneration order)",
        missing.join("\n")
    );
    eprintln!("[perf_smoke --check] BENCH_engine.json has every required field");
    doc
}

/// `--check`: both engines' digests must equal the `state_digest` values
/// committed in `BENCH_engine.json`, so a change to the simulated state, or
/// to what the digest covers, fails until the file is regenerated.
fn check_pinned_digests(doc: &serde_json::Value, cfg: &ConfigNumbers) {
    let key = format!("hz{}", cfg.hz);
    for (engine, got) in [
        ("dynticks_engine", &cfg.dynticks_engine),
        ("reference_engine", &cfg.reference_engine),
    ] {
        let pinned = doc.obj_get(&key).obj_get(engine).obj_get("state_digest");
        assert!(
            matches!(pinned, serde_json::Value::Str(s) if *s == got.state_digest),
            "{key} {engine}: state digest {} differs from the committed {pinned:?} \
             in BENCH_engine.json; regenerate with: cargo run --release -p ktau-bench --bin perf_smoke",
            got.state_digest
        );
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let committed = check.then(check_bench_fields);
    let iterations = if check { 1 } else { ITERATIONS };
    let hz100 = measure_config(100, iterations);
    let hz1000 = measure_config(1000, iterations);
    if let Some(doc) = &committed {
        check_pinned_digests(doc, &hz100);
        check_pinned_digests(doc, &hz1000);
        eprintln!("[perf_smoke --check] state digests match BENCH_engine.json");
        let tick_pct = hz100.dynticks_engine.ticks_dispatched as f64
            / hz100.reference_engine.ticks_dispatched as f64;
        let total_pct = hz100.dynticks_engine.events_dispatched as f64
            / hz100.reference_engine.events_dispatched as f64;
        let total_pct_1k = hz1000.dynticks_engine.events_dispatched as f64
            / hz1000.reference_engine.events_dispatched as f64;
        eprintln!(
            "[perf_smoke --check] hz100: tick dispatches {:.2}% of reference, total {:.2}%; \
             hz1000: total {:.2}%",
            tick_pct * 100.0,
            total_pct * 100.0,
            total_pct_1k * 100.0
        );
        assert!(
            tick_pct < 0.40,
            "regression gate: dynticks dispatched {} ticks, >= 40% of reference's {}",
            hz100.dynticks_engine.ticks_dispatched,
            hz100.reference_engine.ticks_dispatched
        );
        assert!(
            total_pct < 0.70,
            "regression gate: hz100 dynticks dispatched {} events, >= 70% of reference's {}",
            hz100.dynticks_engine.events_dispatched,
            hz100.reference_engine.events_dispatched
        );
        assert!(
            total_pct_1k < 0.40,
            "regression gate: hz1000 dynticks dispatched {} events, >= 40% of reference's {}",
            hz1000.dynticks_engine.events_dispatched,
            hz1000.reference_engine.events_dispatched
        );
        eprintln!("[perf_smoke --check] equivalence + event-count gates passed");
        // Gate runs must be read-only: wall times vary run to run, and a
        // CI check that rewrites the benchmark artifact churns every row.
        eprintln!("[perf_smoke --check] read-only; BENCH_engine.json untouched");
        return;
    }
    let report = Report {
        bench: "perf_smoke".into(),
        workload: format!(
            "NPB LU class-C-16, {NODES} nodes x 1 rank, default noise daemons, best of {ITERATIONS}"
        ),
        iterations: ITERATIONS as u64,
        hz100,
        hz1000,
        queue_micro: queue_micro(),
    }
    .to_value();
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("serialize report")
    );
    let serde_json::Value::Obj(blocks) = report else {
        unreachable!("a struct serializes to an object")
    };
    if let Err(e) = benchfile::set_blocks(benchfile::ENGINE, blocks) {
        eprintln!("[perf_smoke] cannot record: {e}");
        std::process::exit(1);
    }
    eprintln!("[perf_smoke] wrote {}", benchfile::ENGINE);
}
