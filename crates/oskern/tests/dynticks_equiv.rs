//! Property-based equivalence of the dynticks engine: for arbitrary
//! workloads — local compute, cross-node traffic, lossy links, IRQ storms,
//! CPU offlining — the coalescing engine must finish at the same virtual
//! time with the same full-state digest as the per-tick reference engine.
//! The digest covers every task's CPU time, per-probe profile stats, KTAU
//! counters, and scheduler state, so a single mis-charged tick fails these.

use ktau_core::time::NS_PER_SEC;
use ktau_net::{FaultPlan, FaultSpec, LinkMatch};
use ktau_oskern::{
    Cluster, ClusterSpec, DegradeSpec, IrqStormSpec, NoiseSpec, Op, OpList, TaskSpec,
};
use proptest::prelude::*;

/// A random short single-node program (no network ops, so any mix of these
/// cannot deadlock).
fn arb_local_program() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (1_000u64..80_000_000).prop_map(Op::Compute),
            (1_000u64..80_000_000).prop_map(Op::Sleep),
            Just(Op::SyscallNull),
            Just(Op::Yield),
            Just(Op::PageFault),
            Just(Op::SignalSelf),
        ],
        1..10,
    )
}

/// Message sizes spanning sub-MTU sends up to multi-sndbuf streams that
/// back up the NIC (the backlog path is where tick/TxDone ties live).
fn arb_message_bytes() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(100u64..400_000, 1..5)
}

fn quiet(n: usize) -> ClusterSpec {
    let mut s = ClusterSpec::chiba(n);
    s.noise = NoiseSpec::silent();
    s
}

/// `(end, digest)` of both engines' runs, plus [`Cluster::state_diff`]'s
/// naming of the first difference between them.
type Outcome = ((u64, u64), (u64, u64), Option<String>);

/// Boots the spec under both engines, runs each identically via `drive`,
/// and returns `((end, digest), (end, digest), diff)` for (dynticks,
/// reference).
fn run_both(spec: ClusterSpec, drive: impl Fn(&mut Cluster)) -> Outcome {
    let mut dyn_c = Cluster::new(spec.clone());
    let mut ref_c = Cluster::new_reference_engine(spec);
    drive(&mut dyn_c);
    drive(&mut ref_c);
    (
        (dyn_c.now(), dyn_c.state_digest()),
        (ref_c.now(), ref_c.state_digest()),
        dyn_c.state_diff(&ref_c),
    )
}

/// Spawns one sender on node 0 and one receiver per message on node 1.
fn drive_traffic(c: &mut Cluster, msgs: &[u64], extra: &[Vec<Op>]) {
    for (i, &bytes) in msgs.iter().enumerate() {
        let conn = c.open_conn(0, 1);
        c.spawn(
            0,
            TaskSpec::app(
                format!("s{i}"),
                Box::new(OpList::new(vec![Op::Send { conn, bytes }])),
            ),
        );
        c.spawn(
            1,
            TaskSpec::app(
                format!("r{i}"),
                Box::new(OpList::new(vec![Op::Recv { conn, bytes }])),
            ),
        );
    }
    for (i, ops) in extra.iter().enumerate() {
        c.spawn(
            (i % 2) as u32,
            TaskSpec::app(format!("x{i}"), Box::new(OpList::new(ops.clone()))),
        );
    }
    c.run_until_apps_exit(600 * NS_PER_SEC);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Local programs on one node (with background noise daemons) finish
    /// identically under dynticks and the reference engine.
    #[test]
    fn local_programs_equivalent(
        progs in proptest::collection::vec(arb_local_program(), 1..4),
        noisy in any::<bool>(),
    ) {
        let mut spec = quiet(1);
        if noisy {
            spec.noise = NoiseSpec::default();
        }
        let (d, r, diff) = run_both(spec, |c| {
            for (i, ops) in progs.iter().enumerate() {
                c.spawn(
                    0,
                    TaskSpec::app(format!("p{i}"), Box::new(OpList::new(ops.clone()))),
                );
            }
            c.run_until_apps_exit(3_600 * NS_PER_SEC);
        });
        prop_assert_eq!(d, r, "dynticks diverged from reference: {:?}", diff);
    }

    /// Cross-node traffic — including NIC-backlogged streams whose TxDone
    /// completions tie with timer ticks — stays bit-identical.
    #[test]
    fn network_traffic_equivalent(
        msgs in arb_message_bytes(),
        extra in proptest::collection::vec(arb_local_program(), 0..3),
    ) {
        let (d, r, diff) = run_both(quiet(2), |c| drive_traffic(c, &msgs, &extra));
        prop_assert_eq!(d, r, "dynticks diverged from reference: {:?}", diff);
    }

    /// Lossy links: drops, duplicates, and delay spikes repaired by
    /// retransmission timers produce the same digest under coalescing.
    #[test]
    fn faulty_link_equivalent(
        msgs in arb_message_bytes(),
        seed in any::<u64>(),
        drop_pct in 0u32..30,
        dup_pct in 0u32..15,
        delay_pct in 0u32..15,
    ) {
        let mut spec = quiet(2);
        spec.fault_plan = FaultPlan::flaky_node(
            seed,
            1,
            FaultSpec {
                drop_prob: drop_pct as f64 / 100.0,
                dup_prob: dup_pct as f64 / 100.0,
                delay_prob: delay_pct as f64 / 100.0,
                delay_ns: 150_000,
                onset_ns: 0,
                rto_ns: 2_000_000,
            },
        );
        let (d, r, diff) = run_both(spec, |c| drive_traffic(c, &msgs, &[]));
        prop_assert_eq!(d, r, "dynticks diverged from reference: {:?}", diff);
    }

    /// Degraded nodes: CPU slowdown, late CPU offlining (which forces the
    /// lane to re-park), and IRQ storms (which make ticks uncoalescible for
    /// a window) all coalesce without changing a single counter.
    #[test]
    fn degraded_node_equivalent(
        progs in proptest::collection::vec(arb_local_program(), 1..4),
        msgs in proptest::collection::vec(5_000u64..150_000, 0..3),
        slowdown_pct in 100u32..250,
        offline_ms in proptest::option::of(1u64..300),
        storm in proptest::option::of((0u64..200, 1u64..200, 1u32..8)),
    ) {
        let mut spec = quiet(2);
        spec.node_faults = vec![(
            0,
            DegradeSpec {
                slowdown_pct,
                slowdown_onset_ns: 20_000_000,
                offline_cpu_at_ns: offline_ms.map(|ms| ms * 1_000_000),
                irq_storm: storm.map(|(start_ms, len_ms, irqs_per_tick)| IrqStormSpec {
                    start_ns: start_ms * 1_000_000,
                    end_ns: (start_ms + len_ms) * 1_000_000,
                    irqs_per_tick,
                }),
            },
        )];
        let (d, r, diff) = run_both(spec, |c| drive_traffic(c, &msgs, &progs));
        prop_assert_eq!(d, r, "dynticks diverged from reference: {:?}", diff);
    }

}

// ---------------------------------------------------------------------------
// Snapshot/fork determinism: capturing a cluster mid-run and resuming it must
// be invisible — the resumed cluster's future is bit-identical to the
// original's, under both engines, and a mid-run mutation applied to a fork
// matches the same mutation applied to an uninterrupted run.
// ---------------------------------------------------------------------------

/// Boots the spec under the dynticks engine or the all-heap reference.
fn boot_engine(spec: ClusterSpec, dynticks: bool) -> Cluster {
    if dynticks {
        Cluster::new(spec)
    } else {
        Cluster::new_reference_engine(spec)
    }
}

/// Opens one sender/receiver pair per message between nodes 0 and 1, plus
/// local programs — the spawn phase only; callers drive the run.
fn setup_traffic(c: &mut Cluster, msgs: &[u64], extra: &[Vec<Op>]) {
    for (i, &bytes) in msgs.iter().enumerate() {
        let conn = c.open_conn(0, 1);
        c.spawn(
            0,
            TaskSpec::app(
                format!("s{i}"),
                Box::new(OpList::new(vec![Op::Send { conn, bytes }])),
            ),
        );
        c.spawn(
            1,
            TaskSpec::app(
                format!("r{i}"),
                Box::new(OpList::new(vec![Op::Recv { conn, bytes }])),
            ),
        );
    }
    for (i, ops) in extra.iter().enumerate() {
        c.spawn(
            (i % 2) as u32,
            TaskSpec::app(format!("x{i}"), Box::new(OpList::new(ops.clone()))),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Snapshot → resume round trip under both engines,
    /// with and without a lossy link: the resumed cluster reproduces the
    /// original's end time and full-state digest exactly.
    #[test]
    fn snapshot_resume_equivalent(
        msgs in arb_message_bytes(),
        extra in proptest::collection::vec(arb_local_program(), 0..3),
        dynticks in any::<bool>(),
        prefix_ms in 5u64..120,
        lossy in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut spec = quiet(2);
        if lossy {
            spec.fault_plan = FaultPlan::flaky_node(
                seed,
                1,
                FaultSpec {
                    drop_prob: 0.1,
                    dup_prob: 0.05,
                    delay_prob: 0.05,
                    delay_ns: 150_000,
                    onset_ns: 0,
                    rto_ns: 2_000_000,
                },
            );
        }
        let mut original = boot_engine(spec, dynticks);
        setup_traffic(&mut original, &msgs, &extra);
        original.run_for(prefix_ms * 1_000_000);
        let snap = original.snapshot();
        let mut resumed = Cluster::resume(&snap).expect("resume failed");
        prop_assert_eq!(resumed.now(), original.now());
        prop_assert_eq!(
            resumed.state_digest(),
            original.state_digest(),
            "resume changed the state: {:?}",
            resumed.state_diff(&original)
        );
        original.run_until_apps_exit(600 * NS_PER_SEC);
        resumed.run_until_apps_exit(600 * NS_PER_SEC);
        prop_assert_eq!(resumed.now(), original.now(), "resumed end time diverged");
        prop_assert_eq!(
            resumed.state_digest(),
            original.state_digest(),
            "resumed digest diverged: {:?}",
            resumed.state_diff(&original)
        );
    }

    /// Fork determinism: a fault-plan + degradation mutation applied to a
    /// resumed fork at the capture time yields the same end state as the
    /// identical mutation applied to an uninterrupted run at the same
    /// virtual time — the property the CI `fork_sweep --check` gate rests on.
    #[test]
    fn forked_mutation_matches_cold_run(
        msgs in arb_message_bytes(),
        dynticks in any::<bool>(),
        prefix_ms in 5u64..80,
        seed in any::<u64>(),
        drop_pct in 0u32..25,
        slowdown_pct in 100u32..200,
        prefix_lossy in any::<bool>(),
    ) {
        // A lossy prefix leaves in-flight retransmission state at the fork
        // point — the hard case for plan swapping (the repair queue must
        // survive the mutation identically on both paths).
        let mut spec = quiet(2);
        if prefix_lossy {
            spec.fault_plan = FaultPlan::flaky_node(
                seed.wrapping_add(1),
                1,
                FaultSpec {
                    drop_prob: 0.1,
                    dup_prob: 0.02,
                    delay_prob: 0.05,
                    delay_ns: 150_000,
                    onset_ns: 0,
                    rto_ns: 2_000_000,
                },
            );
        }
        let plan = FaultPlan::new(seed).with_rule(
            LinkMatch::Between(0, 1),
            FaultSpec {
                drop_prob: drop_pct as f64 / 100.0,
                dup_prob: 0.02,
                delay_prob: 0.05,
                delay_ns: 120_000,
                onset_ns: 0,
                rto_ns: 2_000_000,
            },
        );
        let degrade = DegradeSpec {
            slowdown_pct,
            slowdown_onset_ns: 0,
            offline_cpu_at_ns: None,
            irq_storm: None,
        };
        let t_f = prefix_ms * 1_000_000;

        // Warm path: prefix once, snapshot, fork, mutate, run out.
        let mut prefix = boot_engine(spec.clone(), dynticks);
        setup_traffic(&mut prefix, &msgs, &[]);
        prefix.run_for(t_f);
        let snap = prefix.snapshot();
        let mut fork = Cluster::resume(&snap).expect("resume failed");
        fork.install_fault_plan(plan.clone());
        fork.set_node_degrade(1, Some(degrade));
        fork.run_until_apps_exit(600 * NS_PER_SEC);

        // Cold twin: uninterrupted run with the same mutation at the same
        // virtual time.
        let mut cold = boot_engine(spec, dynticks);
        setup_traffic(&mut cold, &msgs, &[]);
        cold.run_for(t_f);
        cold.install_fault_plan(plan);
        cold.set_node_degrade(1, Some(degrade));
        cold.run_until_apps_exit(600 * NS_PER_SEC);

        prop_assert_eq!(fork.now(), cold.now(), "forked end time diverged from cold run");
        prop_assert_eq!(
            fork.state_digest(),
            cold.state_digest(),
            "forked digest diverged from cold run: {:?}",
            fork.state_diff(&cold)
        );
    }

}
