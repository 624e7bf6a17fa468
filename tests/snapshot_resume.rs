//! Tier-1 smoke test of the engine snapshot/fork feature: capture a cluster
//! mid-run, resume it, fork a mutated variant, and verify every path is
//! digest-identical to its uninterrupted twin.  The heavyweight
//! property-based coverage lives in `crates/oskern/tests/dynticks_equiv.rs`;
//! this test pins the end-to-end contract (including user events, traces,
//! and a lossy link) in the root package so the default `cargo test` run
//! catches snapshot regressions.

use ktau::core::time::NS_PER_SEC;
use ktau::net::{FaultPlan, FaultSpec, LinkMatch};
use ktau::oskern::{Cluster, ClusterSpec, DegradeSpec, NoiseSpec, Op, OpList, TaskSpec};

fn spec() -> ClusterSpec {
    let mut s = ClusterSpec::chiba(2);
    s.noise = NoiseSpec::silent();
    s.trace_capacity = Some(4_096);
    s.fault_plan = FaultPlan::flaky_node(
        42,
        1,
        FaultSpec {
            drop_prob: 0.08,
            dup_prob: 0.02,
            delay_prob: 0.05,
            delay_ns: 150_000,
            onset_ns: 0,
            rto_ns: 2_000_000,
        },
    );
    s
}

/// Opens a lossy cross-node stream plus a user-event-annotated local
/// program — state covering sockets, retransmission timers, traces,
/// profiles, and the user-event registry.
fn setup(c: &mut Cluster) {
    let conn = c.open_conn(0, 1);
    c.spawn(
        0,
        TaskSpec::app(
            "sender",
            Box::new(OpList::new(vec![
                Op::UserEnter("MPI_Send"),
                Op::Send {
                    conn,
                    bytes: 900_000,
                },
                Op::UserExit("MPI_Send"),
            ])),
        ),
    );
    c.spawn(
        1,
        TaskSpec::app(
            "receiver",
            Box::new(OpList::new(vec![
                Op::Recv {
                    conn,
                    bytes: 900_000,
                },
                Op::UserEnter("postprocess"),
                Op::Compute(30_000_000),
                Op::UserExit("postprocess"),
            ])),
        ),
    );
}

#[test]
fn snapshot_resume_and_fork_are_digest_identical() {
    let t_f = 40_000_000; // 40 ms, mid-transfer

    let mut original = Cluster::new(spec());
    setup(&mut original);
    original.run_for(t_f);
    let snap = original.snapshot();

    // The image is a versioned KTAS binary, and capture metadata decodes.
    assert_eq!(&snap.image()[..4], ktau::oskern::SNAPSHOT_MAGIC);
    assert_eq!(snap.captured_at().unwrap(), t_f);
    assert_eq!(snap.digest(), original.state_digest());

    // Plain resume: bit-identical now and forever after.
    let mut resumed = Cluster::resume(&snap).expect("resume failed");
    assert_eq!(resumed.now(), original.now());
    assert_eq!(
        resumed.state_digest(),
        original.state_digest(),
        "resume changed the state: {:?}",
        resumed.state_diff(&original)
    );
    original.run_until_apps_exit(600 * NS_PER_SEC);
    resumed.run_until_apps_exit(600 * NS_PER_SEC);
    assert_eq!(resumed.now(), original.now());
    assert_eq!(
        resumed.state_digest(),
        original.state_digest(),
        "resumed digest diverged: {:?}",
        resumed.state_diff(&original)
    );

    // Fork with a mid-run mutation: matches the same mutation applied to an
    // uninterrupted run at the same virtual time.
    let harsher = FaultPlan::new(7).with_rule(
        LinkMatch::Between(0, 1),
        FaultSpec {
            drop_prob: 0.2,
            dup_prob: 0.05,
            delay_prob: 0.1,
            delay_ns: 250_000,
            onset_ns: 0,
            rto_ns: 1_500_000,
        },
    );
    let degrade = DegradeSpec {
        slowdown_pct: 150,
        slowdown_onset_ns: 0,
        offline_cpu_at_ns: None,
        irq_storm: None,
    };
    let mut fork = Cluster::resume(&snap).expect("second resume failed");
    fork.install_fault_plan(harsher.clone());
    fork.set_node_degrade(1, Some(degrade));
    fork.run_until_apps_exit(600 * NS_PER_SEC);

    let mut cold = Cluster::new(spec());
    setup(&mut cold);
    cold.run_for(t_f);
    cold.install_fault_plan(harsher);
    cold.set_node_degrade(1, Some(degrade));
    cold.run_until_apps_exit(600 * NS_PER_SEC);

    assert_eq!(fork.now(), cold.now(), "forked end time diverged");
    assert_eq!(
        fork.state_digest(),
        cold.state_digest(),
        "forked digest diverged from cold twin: {:?}",
        fork.state_diff(&cold)
    );
}
