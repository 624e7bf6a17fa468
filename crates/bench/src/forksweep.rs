//! Warm-prefix scenario sweeps over engine snapshots.
//!
//! Scenario studies share an expensive prefix: boot the cluster, launch the
//! job, simulate to some mid-run point — then diverge (what if this link
//! turns flaky here? what if that node starts throttling?).  Re-simulating
//! the shared prefix for every variant wastes most of the sweep's wall
//! time.  This module runs the prefix **once**, captures it with
//! [`Cluster::snapshot`], and forks every variant from the in-memory image:
//! resume, apply the variant's mutation at the fork point, run to
//! completion.
//!
//! Fork determinism is the load-bearing property: a forked variant must be
//! digest-identical to a *cold twin* — an uninterrupted run from t=0 with
//! the same mutation applied at the same virtual time.  `fork_sweep
//! --check` enforces this for every variant (plus a reference-engine spot
//! check); the equivalent property-based coverage lives in
//! `crates/oskern/tests/dynticks_equiv.rs`.

use ktau_core::time::{Ns, NS_PER_SEC};
use ktau_mpi::{launch, Layout};
use ktau_net::{FaultPlan, FaultSpec};
use ktau_oskern::{Cluster, ClusterSnapshot, ClusterSpec, DegradeSpec, IrqStormSpec};
use ktau_workloads::LuParams;
use std::time::Instant;

/// Nodes in the sweep's base cluster.
pub const FORK_NODES: usize = 16;
/// The fork point: far enough in for warm state (open sockets, profiles,
/// runqueues, parked tick lanes) yet early enough that the per-variant
/// remainder dominates and amortizing the prefix is the honest comparison.
pub const T_FORK_NS: Ns = 300 * NS_PER_SEC;
/// Virtual deadline for the full run.
const DEADLINE: Ns = 3_600 * NS_PER_SEC;

/// Base spec of the sweep: the Chiba-like 16-node cluster the perf smoke
/// test also measures, default noise daemons included.
pub fn base_spec() -> ClusterSpec {
    ClusterSpec::chiba(FORK_NODES)
}

fn layout() -> Layout {
    Layout::one_per_node(FORK_NODES as u32)
}

fn params() -> LuParams {
    LuParams::class_c_16()
}

/// Engine a sweep path runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkEngine {
    /// Dynticks (the default engine).
    Dynticks,
    /// All-heap reference engine.
    Reference,
}

/// A deterministic mid-run mutation applied at the fork point.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Pure resume — the control variant.
    None,
    /// Replace the live fault plan.
    Faults(FaultPlan),
    /// Degrade one node.
    Degrade(u32, DegradeSpec),
    /// Both at once.
    FaultsAndDegrade(FaultPlan, u32, DegradeSpec),
}

/// One sweep variant.
pub struct Variant {
    /// Short stable label (also the checkpoint step key).
    pub name: &'static str,
    /// The mutation applied at [`T_FORK_NS`].
    pub mutation: Mutation,
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

fn slowdown(pct: u32) -> DegradeSpec {
    DegradeSpec {
        slowdown_pct: pct,
        slowdown_onset_ns: T_FORK_NS,
        offline_cpu_at_ns: None,
        irq_storm: None,
    }
}

/// The sweep's eight scenario variants: a control, three fault-plan
/// severities on different nodes, three degradation modes, and a combined
/// fault+degradation case.
pub fn variants() -> Vec<Variant> {
    vec![
        Variant {
            name: "control",
            mutation: Mutation::None,
        },
        Variant {
            name: "faults_mild",
            mutation: Mutation::Faults(link_faults(0xF0_01, 5, 0.02, 0.0, 0.01)),
        },
        Variant {
            name: "faults_moderate",
            mutation: Mutation::Faults(link_faults(0xF0_02, 5, 0.05, 0.01, 0.02)),
        },
        Variant {
            name: "faults_severe",
            mutation: Mutation::Faults(link_faults(0xF0_03, 3, 0.10, 0.01, 0.05)),
        },
        Variant {
            name: "slowdown_150",
            mutation: Mutation::Degrade(2, slowdown(150)),
        },
        Variant {
            name: "irq_storm",
            mutation: Mutation::Degrade(
                7,
                DegradeSpec {
                    slowdown_pct: 100,
                    slowdown_onset_ns: 0,
                    offline_cpu_at_ns: None,
                    irq_storm: Some(IrqStormSpec {
                        start_ns: T_FORK_NS,
                        end_ns: T_FORK_NS + 5 * NS_PER_SEC,
                        irqs_per_tick: 4,
                    }),
                },
            ),
        },
        Variant {
            name: "cpu_offline",
            mutation: Mutation::Degrade(
                4,
                DegradeSpec {
                    slowdown_pct: 100,
                    slowdown_onset_ns: 0,
                    offline_cpu_at_ns: Some(T_FORK_NS + NS_PER_SEC),
                    irq_storm: None,
                },
            ),
        },
        Variant {
            name: "faults_plus_slowdown",
            mutation: Mutation::FaultsAndDegrade(
                link_faults(0xF0_04, 5, 0.05, 0.01, 0.02),
                1,
                slowdown(130),
            ),
        },
    ]
}

/// Applies a variant's mutation to a cluster positioned at the fork point.
pub fn apply_mutation(c: &mut Cluster, m: &Mutation) {
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

/// The measured end state of one sweep path.
#[derive(Debug, Clone, PartialEq)]
pub struct ForkOutcome {
    /// Full-state digest at completion, hex.
    pub digest: String,
    /// Virtual completion time, seconds.
    pub end_virtual_s: f64,
    /// Host wall time of this path, seconds.
    pub wall_s: f64,
    /// Events dispatched over the whole path.
    pub events_processed: u64,
}

fn boot(engine: ForkEngine) -> Cluster {
    let spec = base_spec();
    let mut c = match engine {
        ForkEngine::Dynticks => Cluster::new(spec),
        ForkEngine::Reference => Cluster::new_reference_engine(spec),
    };
    launch(&mut c, "lu.C.16", &layout(), params().apps());
    c
}

fn finish(mut c: Cluster, t0: Instant) -> ForkOutcome {
    let end = c.run_until_apps_exit(DEADLINE);
    ForkOutcome {
        digest: format!("{:016x}", c.state_digest()),
        end_virtual_s: end as f64 / NS_PER_SEC as f64,
        wall_s: t0.elapsed().as_secs_f64(),
        events_processed: c.events_processed(),
    }
}

/// Runs the shared prefix once: boot, launch, simulate to [`T_FORK_NS`].
/// Returns the positioned cluster and the prefix wall time.
pub fn run_prefix(engine: ForkEngine) -> (Cluster, f64) {
    let t0 = Instant::now();
    let mut c = boot(engine);
    c.run_for(T_FORK_NS);
    (c, t0.elapsed().as_secs_f64())
}

/// Forks one variant from a snapshot: resume, mutate, run to completion.
pub fn run_fork(snap: &ClusterSnapshot, m: &Mutation) -> ForkOutcome {
    let t0 = Instant::now();
    let mut c = Cluster::resume(snap).expect("snapshot resume failed");
    apply_mutation(&mut c, m);
    finish(c, t0)
}

/// Runs one variant's cold twin: uninterrupted from t=0, same mutation at
/// the same virtual time.
pub fn run_cold(engine: ForkEngine, m: &Mutation) -> ForkOutcome {
    let t0 = Instant::now();
    let mut c = boot(engine);
    c.run_for(T_FORK_NS);
    apply_mutation(&mut c, m);
    finish(c, t0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_at_least_eight_distinct_variants() {
        let vs = variants();
        assert!(vs.len() >= 8, "amortization demo needs >= 8 variants");
        let mut names: Vec<_> = vs.iter().map(|v| v.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), vs.len(), "variant names must be unique");
        // Exactly one control variant.
        assert_eq!(
            vs.iter()
                .filter(|v| matches!(v.mutation, Mutation::None))
                .count(),
            1
        );
    }
}
