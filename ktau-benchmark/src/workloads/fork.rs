//! `fork8-lu16`: NPB LU class-C-16 at HZ=100, 16 nodes, run to 300 s of
//! virtual time and captured once with `Cluster::snapshot` (the set-up);
//! then eight scenario forks each resume the image, apply their mutation and
//! run to completion.  One operation is one fork.
//!
//! Chosen because it is the only workload that loads KTAS encode/decode,
//! the digest verification inside resume, and lossy TCP (retransmit timers,
//! reassembly, duplicates).  At HZ=100 the dynticks fold does far less work
//! than in `lu16-hz1000`.
//!
//! The variants are the scenario sweep of the repository's `fork_sweep`
//! bench.  Forks differ in cost, so a run times whole rounds of all eight
//! (the first round is the warm-up): every run weighs the variants
//! equally.

use crate::harness::{Config, EngineCounts, Run};
use ktau_core::time::{Ns, NS_PER_SEC};
use ktau_mpi::{launch, Layout};
use ktau_net::{FaultPlan, FaultSpec};
use ktau_oskern::{Cluster, ClusterSpec, DegradeSpec, IrqStormSpec};
use ktau_workloads::LuParams;

/// Workload name.
pub const NAME: &str = "fork8-lu16";

const DEADLINE_NS: Ns = 3_600 * NS_PER_SEC;

/// `(nodes, fork point, job)`.
fn job(cfg: &Config) -> (usize, Ns, LuParams) {
    if cfg.smoke {
        (8, NS_PER_SEC / 5, LuParams::tiny(4, 2))
    } else {
        (16, 300 * NS_PER_SEC, LuParams::class_c_16())
    }
}

/// A deterministic mid-run mutation applied at the fork point.
#[derive(Debug, Clone)]
enum Mutation {
    None,
    Faults(FaultPlan),
    Degrade(u32, DegradeSpec),
    FaultsAndDegrade(FaultPlan, u32, DegradeSpec),
}

fn link_faults(seed: u64, node: u32, drop: f64, dup: f64, delay: f64) -> FaultPlan {
    FaultPlan::flaky_node(
        seed,
        node,
        FaultSpec {
            drop_prob: drop,
            dup_prob: dup,
            delay_prob: delay,
            delay_ns: 300_000,
            onset_ns: 0,
            rto_ns: 5_000_000,
        },
    )
}

fn slowdown(pct: u32, onset: Ns) -> DegradeSpec {
    DegradeSpec {
        slowdown_pct: pct,
        slowdown_onset_ns: onset,
        offline_cpu_at_ns: None,
        irq_storm: None,
    }
}

/// The eight variants: a control, three fault severities, three
/// degradation modes and a combined case.
fn variants(t_fork: Ns) -> [(&'static str, Mutation); 8] {
    [
        ("control", Mutation::None),
        (
            "faults_mild",
            Mutation::Faults(link_faults(0xF0_01, 5, 0.02, 0.0, 0.01)),
        ),
        (
            "faults_moderate",
            Mutation::Faults(link_faults(0xF0_02, 5, 0.05, 0.01, 0.02)),
        ),
        (
            "faults_severe",
            Mutation::Faults(link_faults(0xF0_03, 3, 0.10, 0.01, 0.05)),
        ),
        ("slowdown_150", Mutation::Degrade(2, slowdown(150, t_fork))),
        (
            "irq_storm",
            Mutation::Degrade(
                7,
                DegradeSpec {
                    irq_storm: Some(IrqStormSpec {
                        start_ns: t_fork,
                        end_ns: t_fork + 5 * NS_PER_SEC,
                        irqs_per_tick: 4,
                    }),
                    ..DegradeSpec::default()
                },
            ),
        ),
        (
            "cpu_offline",
            Mutation::Degrade(
                4,
                DegradeSpec {
                    offline_cpu_at_ns: Some(t_fork + NS_PER_SEC),
                    ..DegradeSpec::default()
                },
            ),
        ),
        (
            "faults_plus_slowdown",
            Mutation::FaultsAndDegrade(
                link_faults(0xF0_04, 5, 0.05, 0.01, 0.02),
                1,
                slowdown(130, t_fork),
            ),
        ),
    ]
}

fn apply(c: &mut Cluster, m: &Mutation) {
    match m {
        Mutation::None => {}
        Mutation::Faults(plan) => c.install_fault_plan(plan.clone()),
        Mutation::Degrade(node, d) => c.set_node_degrade(*node, Some(*d)),
        Mutation::FaultsAndDegrade(plan, node, d) => {
            c.install_fault_plan(plan.clone());
            c.set_node_degrade(*node, Some(*d));
        }
    }
}

fn boot(cfg: &Config) -> Cluster {
    let (nodes, _, params) = job(cfg);
    let mut spec = ClusterSpec::chiba(nodes);
    spec.seed = cfg.seed;
    let mut c = Cluster::new(spec);
    launch(
        &mut c,
        "lu.C.16",
        &Layout::one_per_node(nodes as u32),
        params.apps(),
    );
    c
}

/// Runs the workload.
pub fn run(cfg: Config) -> Run {
    let t_fork = job(&cfg).1;
    let variants = variants(t_fork);
    let mut run = Run::new(NAME, cfg);
    // Per variant, (virtual end, events simulated) of its first fork: every
    // round forks the same image, so later rounds must reproduce both.
    let mut first: [Option<(Ns, u64)>; 8] = [None; 8];
    let mut control_digest = None;
    let mut round = 0;
    while run.measuring() {
        let Some((snap, at_fork)) = run.setup(|sp| {
            let mut c = sp.span("cluster", "boot", |_| boot(&cfg));
            sp.span("sim", "run", |_| c.run_for(t_fork));
            let snap = sp.span("ktas", "snapshot", |_| c.snapshot());
            Ok((snap, EngineCounts::of(&c)))
        }) else {
            break;
        };
        if round == 0 {
            run.pin("prefix.events_simulated", at_fork.simulated);
        }
        for (i, (name, mutation)) in variants.iter().enumerate() {
            let want = first[i];
            let out = run.op(round == 0, |sp| {
                let mut c = sp
                    .span("ktas", "resume", |_| Cluster::resume(&snap))
                    .map_err(|e| format!("{name}: resume failed: {e}"))?;
                sp.span("oskern", "mutate", |_| apply(&mut c, mutation));
                let end = sp.span("sim", "run", |_| c.run_until_apps_exit(DEADLINE_NS));
                let got = (end, c.events_simulated());
                match want {
                    Some(w) if w != got => Err(format!(
                        "{name}: fork diverged from its first run: (end ns, events) {got:?} vs {w:?}"
                    )),
                    _ => Ok((c, got)),
                }
            });
            let Some((c, got)) = out else { continue };
            run.engine_delta(&at_fork, &EngineCounts::of(&c));
            if first[i].is_none() {
                first[i] = Some(got);
                run.pin(format!("{name}.end_ns"), got.0);
                run.pin(format!("{name}.events_simulated"), got.1);
                run.pin(format!("{name}.retransmits"), c.total_retransmits());
                if matches!(mutation, Mutation::None) {
                    control_digest = Some(
                        run.spans
                            .span("digest", "state_digest", |_| c.state_digest()),
                    );
                }
            }
            run.read_profiles(&c);
            run.keep_final(c);
        }
        round += 1;
    }
    run.end_phase();
    if let (Some(want), Some(digest)) = (first[0], control_digest) {
        run.check("control fork vs cold uninterrupted run", || {
            let mut c = boot(&cfg);
            let got = (c.run_until_apps_exit(DEADLINE_NS), c.state_digest());
            if got == (want.0, digest) {
                Ok(())
            } else {
                Err(format!(
                    "(end ns, digest) {got:?} vs control fork ({}, {digest})",
                    want.0
                ))
            }
        });
    }
    run
}
