//! Scaling bench for the KTAUD monitoring service: sweeps cluster size ×
//! ranks per node × subscribed clients, measuring sweep throughput and the
//! bytes a client must ingest with incremental deltas versus full dumps —
//! the paper's §4.5 daemon grown from periodic all-process dumps to a
//! thousand-node monitoring service.
//!
//! Each rank runs a *burst-then-steady* program: an initial flurry touching
//! many distinct kernel paths (syscalls, page faults, signals, yields)
//! populates wide profiles, then a steady compute/sleep loop keeps only a
//! handful of rows moving.  That is the regime deltas are designed for:
//! full dumps re-ship the whole burst history every period, deltas ship
//! only the rows that moved since the last sweep.
//!
//! Writes `BENCH_ktaud.json` at the repo root.
//!
//! `ktaud_scale --check` runs a reduced config with client-side mirrors and
//! enforces the lossless gate: every client reconstruction must be
//! byte-identical to the server's full binary encoding after every poll.
//! CI runs this mode.

use ktau_oskern::{Cluster, ClusterSpec, FnProgram, NoiseSpec, Op, TaskSpec};
use ktau_user::ktaud::{KtaudMirror, KtaudService, SubscriptionFilter};
use serde::Serialize;
use std::time::Instant;

const PERIOD_NS: u64 = 50_000_000; // 50 ms sweeps
const SWEEPS: usize = 6;

/// Instrumented user routines.  The first [`COMMON`] are entered by every
/// rank (the MPI init/teardown spine); the rest are *specialized* — rank
/// `k` enters only those with `index % 4 == k % 4`, the way real codes
/// split work (only some ranks do I/O, own a boundary, drive checkpoints).
/// With several ranks per node the per-rank bursts interleave, so the
/// node's event registry hands out ids round-robin across rank classes:
/// every task ends up firing a *sparse subset* of a wide id space — the
/// regime the lazy arena tables are built for, and what a dense layout
/// pays O(user_slots × kernel_events) for.
const ROUTINES: [&str; 64] = [
    "MPI_Init",
    "MPI_Comm_rank",
    "MPI_Comm_size",
    "MPI_Barrier",
    "MPI_Bcast",
    "MPI_Allreduce",
    "MPI_Finalize",
    "steady_loop",
    "setup_grid",
    "read_input",
    "alloc_buffers",
    "init_halo",
    "warm_caches",
    "build_topology",
    "register_handlers",
    "seed_rng",
    "decompose_domain",
    "fill_boundary",
    "exchange_init",
    "spectral_plan",
    "jacobi_setup",
    "residual_init",
    "timer_calibrate",
    "log_banner",
    "checkpoint_open",
    "io_aggregate",
    "gather_metadata",
    "write_header",
    "halo_pack",
    "halo_unpack",
    "ghost_sync",
    "corner_exchange",
    "fft_forward",
    "fft_backward",
    "transpose_xy",
    "transpose_yz",
    "stencil_warm",
    "coeff_tables",
    "precond_setup",
    "coarsen_grid",
    "prolongate",
    "restrict_residual",
    "smoother_init",
    "krylov_basis",
    "dot_products",
    "norm_check",
    "line_search",
    "load_balance",
    "graph_color",
    "partition_refine",
    "migrate_cells",
    "rebuild_index",
    "tracer_seed",
    "particle_bin",
    "neighbor_list",
    "force_tables",
    "ewald_setup",
    "bond_topology",
    "angle_terms",
    "constraint_init",
    "thermostat_init",
    "barostat_init",
    "output_schema",
    "progress_meter",
];

/// Routines every rank enters.
const COMMON: usize = 8;

/// The specialized-routine indices rank class `class` (0..4) enters.
fn routines_of(class: usize) -> Vec<usize> {
    (0..ROUTINES.len())
        .filter(|&i| i < COMMON || i % 4 == class)
        .collect()
}

/// Burst-then-steady rank body (see module docs).  Clone-safe so tasks can
/// be captured in cluster snapshots.  A `quiescent` rank goes fully
/// idle after its burst instead of entering the steady loop, exercising the
/// generation-skip path at scale.
fn rank_program(class: usize, quiescent: bool) -> FnProgram<impl FnMut() -> Op + Send + Clone> {
    let mine = routines_of(class);
    let mut i = 0usize;
    FnProgram(move || {
        let k = i;
        i += 1;
        let burst_len = mine.len() * 4;
        if k < burst_len {
            let r = mine[k / 4];
            match k % 4 {
                0 => Op::UserEnter(ROUTINES[r]),
                1 => match r % 4 {
                    0 => Op::SyscallNull,
                    1 => Op::PageFault,
                    2 => Op::SignalSelf,
                    _ => Op::Yield,
                },
                2 => Op::Compute(45_000),
                _ => Op::UserExit(ROUTINES[r]),
            }
        } else if quiescent {
            Op::Sleep(3_600_000_000_000)
        } else {
            match k % 4 {
                0 => Op::SyscallNull,
                1 => Op::Compute(450_000),
                _ => Op::Sleep(5_000_000),
            }
        }
    })
}

fn build_cluster(nodes: usize, ranks_per_node: usize) -> Cluster {
    let mut spec = ClusterSpec::chiba(nodes);
    spec.noise = NoiseSpec::silent();
    let mut c = Cluster::new(spec);
    for n in 0..nodes as u32 {
        for r in 0..ranks_per_node {
            let global = n as usize * ranks_per_node + r;
            // Every fourth rank quiesces after its burst: a monitoring
            // service at scale always watches a mix of hot and idle ranks.
            let quiescent = global % 4 == 3;
            c.spawn(
                n,
                TaskSpec::app(
                    format!("rank{r}"),
                    Box::new(rank_program(global % 4, quiescent)),
                ),
            );
        }
    }
    c
}

#[derive(Serialize)]
struct Row {
    nodes: usize,
    ranks_per_node: usize,
    clients: usize,
    sweeps: usize,
    /// Profiles tracked by the server store after the last sweep.
    tracked: usize,
    wall_s: f64,
    /// Simulator events over the whole run (cluster advance + sweeps).
    events_simulated: u64,
    events_per_sec: f64,
    /// Server-side sweep accounting.
    captures: u64,
    gen_skips: u64,
    /// Share of live-task visits the generation check resolved without a
    /// capture (the O(active) claim, measured).
    gen_skip_pct: f64,
    /// Totals across all clients.
    full_syncs: u64,
    delta_syncs: u64,
    bytes_full: u64,
    bytes_delta: u64,
    /// Mean payload of one full sync vs one delta sync.
    bytes_per_full_sync: f64,
    bytes_per_delta_sync: f64,
    /// bytes_per_delta_sync / bytes_per_full_sync — the headline saving.
    delta_to_full_ratio: f64,
    /// Steady-state bytes per node per sweep a delta client ingests.
    delta_bytes_per_node_sweep: f64,
    /// What the same client would ingest per node per sweep if every
    /// shipped profile were a full dump.
    full_bytes_per_node_sweep: f64,
    /// In-kernel measurement footprint per node after the run (arena-backed
    /// sparse tables, live tasks only).
    profile_bytes_per_node: f64,
    /// The same state priced in the pre-arena dense layout
    /// (O(user_slots × kernel_events) merged tables, eager probe vectors).
    dense_profile_bytes_per_node: f64,
    /// dense / arena — the compact-arena saving the 10k-node axis rests on.
    arena_reduction: f64,
}

/// Sums the live tasks' measurement footprint across the cluster:
/// `(arena bytes, dense-equivalent bytes)`.
fn measurement_footprint(c: &Cluster, nodes: usize) -> (u64, u64) {
    let mut arena = 0u64;
    let mut dense = 0u64;
    for n in 0..nodes as u32 {
        let node = c.node(n);
        for pid in node.proc_live_pids() {
            if let Some(t) = node.task(pid) {
                arena += t.meas.measurement_bytes() as u64;
                dense += t.meas.dense_equivalent_bytes() as u64;
            }
        }
    }
    (arena, dense)
}

fn run_config(nodes: usize, ranks_per_node: usize, clients: usize) -> Row {
    eprintln!("[ktaud_scale] nodes={nodes} ranks={ranks_per_node} clients={clients} …");
    let t0 = Instant::now();
    let mut c = build_cluster(nodes, ranks_per_node);
    let all_nodes: Vec<u32> = (0..nodes as u32).collect();
    let mut svc = KtaudService::install(&mut c, &all_nodes, PERIOD_NS);
    let ids: Vec<_> = (0..clients)
        .map(|_| svc.subscribe(SubscriptionFilter::all()))
        .collect();
    for _ in 0..SWEEPS {
        svc.sweep(&mut c).expect("sweep failed");
        for &id in &ids {
            svc.poll(id);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let mut full_syncs = 0u64;
    let mut delta_syncs = 0u64;
    let mut bytes_full = 0u64;
    let mut bytes_delta = 0u64;
    for &id in &ids {
        let s = svc.client_stats(id);
        full_syncs += s.full_syncs;
        delta_syncs += s.delta_syncs;
        bytes_full += s.bytes_full;
        bytes_delta += s.bytes_delta;
    }
    let (arena_bytes, dense_bytes) = measurement_footprint(&c, nodes);
    let srv = svc.stats();
    let visits = srv.captures + srv.gen_skips;
    let per_full = bytes_full as f64 / full_syncs.max(1) as f64;
    let per_delta = bytes_delta as f64 / delta_syncs.max(1) as f64;
    // Steady state = every poll after the first full sync round.
    let steady_polls = (SWEEPS - 1) as f64 * clients as f64;
    Row {
        nodes,
        ranks_per_node,
        clients,
        sweeps: SWEEPS,
        tracked: svc.tracked(),
        wall_s,
        events_simulated: c.events_simulated(),
        events_per_sec: c.events_simulated() as f64 / wall_s,
        captures: srv.captures,
        gen_skips: srv.gen_skips,
        gen_skip_pct: 100.0 * srv.gen_skips as f64 / visits.max(1) as f64,
        full_syncs,
        delta_syncs,
        bytes_full,
        bytes_delta,
        bytes_per_full_sync: per_full,
        bytes_per_delta_sync: per_delta,
        delta_to_full_ratio: per_delta / per_full,
        delta_bytes_per_node_sweep: bytes_delta as f64 / (nodes as f64 * steady_polls),
        full_bytes_per_node_sweep: (delta_syncs as f64 * per_full) / (nodes as f64 * steady_polls),
        profile_bytes_per_node: arena_bytes as f64 / nodes as f64,
        dense_profile_bytes_per_node: dense_bytes as f64 / nodes as f64,
        arena_reduction: dense_bytes as f64 / arena_bytes.max(1) as f64,
    }
}

#[derive(Serialize)]
struct Bench {
    bench: &'static str,
    workload: String,
    period_ms: u64,
    sweeps: usize,
    rows: Vec<Row>,
}

/// The CI gate: a reduced config with real client mirrors, asserting after
/// every poll that each mirror's reconstruction is byte-identical
/// to the server's full encoding for every tracked process.  Read-only: no
/// BENCH file is touched.  `nodes` scales the gate (`--check 2048` in CI's
/// bounded job; plain `--check` stays at 8).
fn check(nodes: usize) {
    const CLIENTS: usize = 3;
    let mut c = build_cluster(nodes, 4);
    let all_nodes: Vec<u32> = (0..nodes as u32).collect();
    let mut svc = KtaudService::install(&mut c, &all_nodes, PERIOD_NS);
    // Client 2 polls only every other sweep, exercising the gap → full-sync
    // path inside the gate as well.
    let ids: Vec<_> = (0..CLIENTS)
        .map(|_| svc.subscribe(SubscriptionFilter::all()))
        .collect();
    let mut mirrors: Vec<KtaudMirror> = (0..CLIENTS).map(|_| KtaudMirror::new()).collect();
    let mut compared = 0u64;
    let mut deltas = 0u64;
    for sweep in 0..5 {
        svc.sweep(&mut c).expect("sweep failed");
        for (k, (&id, mirror)) in ids.iter().zip(&mut mirrors).enumerate() {
            if k == CLIENTS - 1 && sweep % 2 == 1 {
                continue; // the laggard skips odd sweeps
            }
            let items = svc.poll(id);
            mirror.apply_all(&items).expect("mirror apply failed");
            for ((node, pid), _) in mirror.iter() {
                let server = svc
                    .encoded_full(node, pid)
                    .expect("mirror tracks a pid the server dropped");
                assert_eq!(
                    mirror.encoded(node, pid).as_deref(),
                    Some(server),
                    "client {k}: reconstruction for node {node} pid {pid} \
                     is not byte-identical to the server's full encoding"
                );
                compared += 1;
            }
        }
        deltas = ids.iter().map(|&id| svc.client_stats(id).delta_syncs).sum();
    }
    assert!(deltas > 0, "check ran without exercising the delta path");
    // The tentpole claim, enforced: the arena layout must hold the burst
    // profiles in at least 3× fewer bytes than the dense layout would.
    let (arena_bytes, dense_bytes) = measurement_footprint(&c, nodes);
    assert!(
        arena_bytes.saturating_mul(3) <= dense_bytes,
        "arena layout too fat: {arena_bytes} arena bytes vs {dense_bytes} dense-equivalent"
    );
    println!(
        "[ktaud_scale] CHECK OK: {compared} reconstructions byte-identical to server \
         ({deltas} delta syncs, {} full syncs, arena reduction {:.1}x)",
        ids.iter()
            .map(|&id| svc.client_stats(id).full_syncs)
            .sum::<u64>(),
        dense_bytes as f64 / arena_bytes.max(1) as f64
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let nodes = args
            .get(i + 1)
            .and_then(|a| a.parse::<usize>().ok())
            .unwrap_or(8);
        check(nodes);
        return;
    }
    let configs: &[(usize, usize, usize)] = &[
        (16, 1, 1),
        (64, 1, 2),
        (64, 4, 2),
        (256, 1, 4),
        (1024, 1, 4),
        (10240, 4, 2),
    ];
    let rows: Vec<Row> = configs
        .iter()
        .map(|&(n, r, cl)| {
            let row = run_config(n, r, cl);
            eprintln!(
                "[ktaud_scale]   {:.2} s wall, {} tracked, delta/full ratio {:.3}, \
                 gen-skip {:.1}%, arena reduction {:.1}x",
                row.wall_s,
                row.tracked,
                row.delta_to_full_ratio,
                row.gen_skip_pct,
                row.arena_reduction
            );
            row
        })
        .collect();
    let bench = Bench {
        bench: "ktaud_scale",
        workload: format!(
            "burst-then-steady ranks, silent noise, {SWEEPS} sweeps of {} ms, \
             service + N subscribed clients polling every sweep",
            PERIOD_NS / 1_000_000
        ),
        period_ms: PERIOD_NS / 1_000_000,
        sweeps: SWEEPS,
        rows,
    };
    let json = serde_json::to_string_pretty(&bench).expect("serialize");
    std::fs::write("BENCH_ktaud.json", json + "\n").expect("write BENCH_ktaud.json");
    eprintln!("[ktaud_scale] wrote BENCH_ktaud.json");
}
