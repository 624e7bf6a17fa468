//! `ktaud-1024x4`: 1024 nodes × 4 burst-then-steady ranks, silent noise,
//! watched by a `KtaudService` sweeping every 50 ms of virtual time and
//! serving two subscribed clients, each of which polls and applies the
//! shipped updates to a `KtaudMirror` after every sweep.  One operation is
//! one update: a steady sweep plus every client's poll and apply.  The
//! set-up boots the cluster, spawns the ranks, installs the service,
//! subscribes the clients and takes the first (full-sync) sweep; a round of
//! 40 sweeps then restarts from a fresh set-up.
//!
//! Chosen because the service dominates it — procfs capture, delta encode,
//! poll, mirror decode and apply — while the engine does little work and
//! there is no network.  The seed picks which ranks go quiet after their
//! burst (a quarter of them), which moves the capture/skip mix.
//!
//! The rank program is the one of the repository's `ktaud_scale` bench.

use crate::harness::{Config, EngineCounts, Run};
use ktau_core::time::Ns;
use ktau_oskern::{Cluster, ClusterSpec, FnProgram, NoiseSpec, Op, TaskSpec};
use ktau_user::ktaud::{ClientId, KtaudMirror, KtaudService, SubscriptionFilter};

/// Workload name.
pub const NAME: &str = "ktaud-1024x4";

const PERIOD_NS: Ns = 50_000_000;
const RANKS_PER_NODE: usize = 4;
const CLIENTS: usize = 2;

fn nodes(cfg: &Config) -> usize {
    if cfg.smoke {
        8
    } else {
        1024
    }
}

/// Sweeps per round, the set-up sweep included.
fn sweeps_per_round(cfg: &Config) -> usize {
    if cfg.smoke {
        3
    } else {
        40
    }
}

/// Instrumented user routines.  The first [`COMMON`] are entered by every
/// rank; rank class `k` enters only the rest with `index % 4 == k`, so each
/// task fires a sparse subset of a wide event-id space.
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

const COMMON: usize = 8;

/// A burst touching many kernel paths, then either a steady
/// syscall/compute/sleep loop or (`quiescent`) a long sleep.
fn rank_program(class: usize, quiescent: bool) -> FnProgram<impl FnMut() -> Op + Send + Clone> {
    let mine: Vec<usize> = (0..ROUTINES.len())
        .filter(|&i| i < COMMON || i % 4 == class)
        .collect();
    let mut i = 0usize;
    FnProgram(move || {
        let k = i;
        i += 1;
        if k < mine.len() * 4 {
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

/// Whether rank `global` goes quiet after its burst: a quarter of the
/// ranks, chosen by the seed.
fn quiescent(seed: u64, global: usize) -> bool {
    crate::workloads::splitmix64(seed ^ global as u64).is_multiple_of(4)
}

struct Session {
    c: Cluster,
    svc: KtaudService,
    ids: Vec<ClientId>,
    mirrors: Vec<KtaudMirror>,
}

impl Session {
    /// One update: a sweep, then every client polls and applies.
    fn update(&mut self, sp: &mut crate::spans::Spans) -> Result<(), String> {
        let Session {
            c,
            svc,
            ids,
            mirrors,
        } = self;
        sp.span("ktaud", "sweep", |_| svc.sweep(c))
            .map_err(|e| format!("sweep: {e}"))?;
        for (&id, m) in ids.iter().zip(mirrors.iter_mut()) {
            let items = sp.span("ktaud", "poll", |_| svc.poll(id));
            sp.span("ktaud", "mirror_apply", |_| m.apply_all(&items))
                .map_err(|e| format!("mirror apply: {e}"))?;
        }
        Ok(())
    }

    /// Server-side captures, gen-skips, unchanged captures; client-side
    /// delta syncs, full syncs and bytes, summed over clients.
    fn stats(&self) -> [u64; 6] {
        let s = self.svc.stats();
        let mut out = [s.captures, s.gen_skips, s.unchanged_captures, 0, 0, 0];
        for &id in &self.ids {
            let cs = self.svc.client_stats(id);
            out[3] += cs.delta_syncs;
            out[4] += cs.full_syncs;
            out[5] += cs.bytes_shipped();
        }
        out
    }

    /// Every mirror must re-encode to the server's full encoding, and track
    /// exactly the server's processes.
    fn check_mirrors(&self) -> Result<(), String> {
        for (k, m) in self.mirrors.iter().enumerate() {
            if m.len() != self.svc.tracked() {
                return Err(format!(
                    "client {k} mirrors {} processes, the server tracks {}",
                    m.len(),
                    self.svc.tracked()
                ));
            }
            for ((node, pid), _) in m.iter() {
                let server = self.svc.encoded_full(node, pid);
                if server.is_none() || m.encoded(node, pid).as_deref() != server {
                    return Err(format!(
                        "client {k}: node {node} pid {pid} differs from the server's encoding"
                    ));
                }
            }
        }
        Ok(())
    }
}

fn start(cfg: &Config, sp: &mut crate::spans::Spans) -> Result<Session, String> {
    let n = nodes(cfg);
    let mut s = sp.span("cluster", "boot", |_| {
        let mut spec = ClusterSpec::chiba(n);
        spec.noise = NoiseSpec::silent();
        spec.seed = cfg.seed;
        let mut c = Cluster::new(spec);
        for node in 0..n as u32 {
            for r in 0..RANKS_PER_NODE {
                let global = node as usize * RANKS_PER_NODE + r;
                let prog = rank_program(global % 4, quiescent(cfg.seed, global));
                c.spawn(node, TaskSpec::app(format!("rank{r}"), Box::new(prog)));
            }
        }
        let all: Vec<u32> = (0..n as u32).collect();
        let mut svc = KtaudService::install(&mut c, &all, PERIOD_NS);
        let ids = (0..CLIENTS)
            .map(|_| svc.subscribe(SubscriptionFilter::all()))
            .collect();
        Session {
            c,
            svc,
            ids,
            mirrors: (0..CLIENTS).map(|_| KtaudMirror::new()).collect(),
        }
    });
    s.update(sp)?;
    Ok(s)
}

/// Runs the workload.
pub fn run(cfg: Config) -> Run {
    let n = nodes(&cfg) as f64;
    let mut run = Run::new(NAME, cfg);
    let mut round = 0;
    while run.measuring() {
        let Some(mut s) = run.setup(|sp| start(&cfg, sp)) else {
            break;
        };
        for sweep in 1..sweeps_per_round(&cfg) {
            if !run.measuring() {
                break;
            }
            let before = EngineCounts::of(&s.c);
            let st0 = s.stats();
            let warmup = run.attempted == 0;
            if run.op(warmup, |sp| s.update(sp)).is_none() {
                continue;
            }
            run.engine_delta(&before, &EngineCounts::of(&s.c));
            let st1 = s.stats();
            let d: Vec<f64> = st1.iter().zip(&st0).map(|(a, b)| (a - b) as f64).collect();
            run.count("ktaud.captures", d[0]);
            run.count("ktaud.gen_skips", d[1]);
            run.count("ktaud.unchanged_captures", d[2]);
            run.count("ktaud.delta_syncs", d[3]);
            run.count("ktaud.full_syncs", d[4]);
            // Bytes one client ingests per node for this update.
            run.count(
                "ktaud.client_bytes_per_node_update",
                d[5] / (CLIENTS as f64 * n),
            );
            if round == 0 && sweep == 9 {
                run.pin("sweep10.events_simulated", s.c.events_simulated());
                run.pin("sweep10.captures", st1[0]);
                run.pin("sweep10.bytes_shipped", st1[5]);
            }
            run.read_profiles(&s.c);
        }
        let r = run
            .spans
            .span(crate::spans::CHECK, "mirrors", |_| s.check_mirrors());
        if let Err(e) = r {
            run.fail(format!("round {round}: {e}"));
        }
        run.keep_final(s.c);
        round += 1;
    }
    run.end_phase();
    run
}
