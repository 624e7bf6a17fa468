//! Cross-crate determinism regression: the whole stack — cluster boot, the
//! event queue, the scheduler, the network fabric, noise daemons,
//! MPI launch, and record extraction — must produce bit-identical results
//! for the same seed, and the parallel fan-out must never change what a
//! serial run would have produced.

use ktau_bench::records::{extract_run, RunRecord};
use ktau_bench::run_parallel;
use ktau_mpi::{launch, Layout};
use ktau_net::{FaultPlan, FaultSpec, LinkMatch};
use ktau_oskern::{Cluster, ClusterSpec};
use ktau_workloads::LuParams;

/// A reduced-scale LU run on a 4-node cluster with the default noise
/// daemons enabled (so the RNG paths are exercised too).
fn small_lu_run() -> RunRecord {
    run_on(Cluster::new(ClusterSpec::chiba(4)))
}

fn run_on(mut cluster: Cluster) -> RunRecord {
    let params = LuParams::tiny(2, 2);
    let job = launch(&mut cluster, "lu", &Layout::one_per_node(4), params.apps());
    let end = cluster.run_until_apps_exit(3_600_000_000_000);
    extract_run(&cluster, "lu", "determinism", end, &job, "jacld", None)
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let a = small_lu_run();
    let b = small_lu_run();
    assert!(a.exec_s > 0.0);
    assert_eq!(a, b, "two same-seed runs diverged");
    // The cached-JSON path must preserve that identity as well.
    let ser = serde_json::to_string(&a).unwrap();
    let back: RunRecord = serde_json::from_str(&ser).unwrap();
    assert_eq!(a, back, "JSON cache roundtrip changed the record");
}

#[test]
fn dynticks_engine_matches_reference_engine() {
    let dynticks = small_lu_run();
    let reference = run_on(Cluster::new_reference_engine(ClusterSpec::chiba(4)));
    assert_eq!(
        dynticks, reference,
        "dynticks engine diverged from the reference engine"
    );
}

#[test]
fn zero_rate_fault_plan_is_bit_identical() {
    // A fault plan whose every rule is zero-rate must be a provable no-op:
    // no injectors, no extra events, and the exact same push sequence —
    // i.e. bit-identical records versus the default no-fault constructor.
    let mut spec = ClusterSpec::chiba(4);
    spec.fault_plan = FaultPlan::new(0xF00D).with_rule(LinkMatch::Any, FaultSpec::default());
    let with_plan = run_on(Cluster::new(spec));
    let without = small_lu_run();
    assert_eq!(
        with_plan, without,
        "a zero-rate fault plan perturbed the simulation"
    );
}

#[test]
fn seeded_lossy_run_is_reproducible() {
    let lossy = || {
        let mut spec = ClusterSpec::chiba(4);
        spec.fault_plan = FaultPlan::flaky_node(
            0xBAD_5EED,
            1,
            FaultSpec {
                drop_prob: 0.1,
                dup_prob: 0.05,
                delay_prob: 0.05,
                delay_ns: 200_000,
                onset_ns: 0,
                rto_ns: 5_000_000,
            },
        );
        let mut cluster = Cluster::new(spec);
        let params = LuParams::tiny(2, 2);
        let job = launch(&mut cluster, "lu", &Layout::one_per_node(4), params.apps());
        let end = cluster.run_until_apps_exit(3_600_000_000_000);
        let retransmits = cluster.total_retransmits();
        let rec = extract_run(&cluster, "lu", "determinism", end, &job, "jacld", None);
        (rec, retransmits)
    };
    let (rec_a, rtx_a) = lossy();
    let (rec_b, rtx_b) = lossy();
    assert!(rtx_a > 0, "lossy plan produced no retransmissions");
    assert_eq!(rtx_a, rtx_b, "same-seed retransmit counts diverged");
    assert_eq!(rec_a, rec_b, "same-seed lossy runs diverged");
}

#[test]
fn parallel_fanout_matches_serial() {
    let serial: Vec<RunRecord> = (0..3).map(|_| small_lu_run()).collect();
    let tasks: Vec<_> = (0..3).map(|_| small_lu_run as fn() -> RunRecord).collect();
    let parallel = run_parallel(3, tasks);
    assert_eq!(
        serial, parallel,
        "worker threads changed experiment results"
    );
}
