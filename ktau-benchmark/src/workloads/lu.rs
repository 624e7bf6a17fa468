//! `lu16-hz1000`: NPB LU class-C-16 shape, 16 nodes × 1 rank, HZ=1000,
//! default noise daemons.  One operation is one whole batch job run to
//! completion on a freshly booted cluster (the boot and launch are the
//! set-up).
//!
//! Chosen because it is the hot loop under every paper experiment: about
//! 80% of its simulated events are timer ticks the dynticks engine folds,
//! so it loads the event queue, dispatch, the kernel model, probe
//! pair-batching, the tick fold and clean TCP — and never touches KTAUD,
//! the codecs or KTAS.

use crate::harness::{Config, EngineCounts, Run};
use ktau_core::time::{Ns, NS_PER_SEC};
use ktau_mpi::{launch, Layout};
use ktau_oskern::{Cluster, ClusterSpec};
use ktau_workloads::LuParams;

/// Workload name.
pub const NAME: &str = "lu16-hz1000";

/// SSOR iterations per job: class C-16's shape at a fifth of its 25
/// iterations, so one job takes about a tenth of a second of host time and
/// a run times the hundred-plus jobs a 90th percentile needs.
const ITERS: u32 = 5;
const DEADLINE_NS: Ns = 3_600 * NS_PER_SEC;

fn job(cfg: &Config) -> (ClusterSpec, LuParams) {
    let (nodes, params) = if cfg.smoke {
        (8, LuParams::tiny(4, 2))
    } else {
        let mut p = LuParams::class_c_16();
        p.iters = ITERS;
        (16, p)
    };
    let mut spec = ClusterSpec::chiba(nodes);
    spec.sched.hz = 1000;
    spec.seed = cfg.seed;
    (spec, params)
}

fn boot(spec: &ClusterSpec, params: &LuParams, reference: bool) -> Cluster {
    let mut c = if reference {
        Cluster::new_reference_engine(spec.clone())
    } else {
        Cluster::new(spec.clone())
    };
    let nodes = spec.nodes.len() as u32;
    launch(
        &mut c,
        "lu.C.16",
        &Layout::one_per_node(nodes),
        params.apps(),
    );
    c
}

/// Runs the workload.
pub fn run(cfg: Config) -> Run {
    let (spec, params) = job(&cfg);
    let mut run = Run::new(NAME, cfg);
    // (virtual end, events simulated) of the first job: every later job has
    // the same inputs, so it must reproduce both exactly.
    let mut first: Option<(Ns, u64)> = None;
    let mut first_digest = 0u64;
    while run.measuring() {
        let Some(mut c) =
            run.setup(|sp| Ok(sp.span("cluster", "boot", |_| boot(&spec, &params, false))))
        else {
            break;
        };
        let before = EngineCounts::of(&c);
        let warmup = run.attempted == 0;
        let out = run.op(warmup, |sp| {
            let end = sp.span("sim", "run", |_| c.run_until_apps_exit(DEADLINE_NS));
            let got = (end, c.events_simulated());
            match first {
                Some(want) if want != got => Err(format!(
                    "job diverged from the first: (end ns, events) {got:?} vs {want:?}"
                )),
                _ => Ok(got),
            }
        });
        run.engine_delta(&before, &EngineCounts::of(&c));
        if let Some(got) = out {
            if first.is_none() {
                first = Some(got);
                first_digest = run
                    .spans
                    .span("digest", "state_digest", |_| c.state_digest());
                run.pin("end_ns", got.0);
                run.pin("events_simulated", got.1);
            }
        }
        run.read_profiles(&c);
        run.keep_final(c);
    }
    run.end_phase();
    if let Some(want) = first {
        run.check("reference-engine twin", || {
            let mut r = boot(&spec, &params, true);
            let got = (r.run_until_apps_exit(DEADLINE_NS), r.state_digest());
            if got == (want.0, first_digest) {
                Ok(())
            } else {
                Err(format!(
                    "(end ns, digest) {got:?} vs dynticks ({}, {first_digest})",
                    want.0
                ))
            }
        });
    }
    run
}
