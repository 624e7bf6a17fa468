//! Behaviour of the KTAUD monitoring service: subscription sessions,
//! incremental deltas, O(active) sweeps — plus regression tests for the
//! rate/cost paths the service exposes.

use ktau_core::InstrumentationControl;
use ktau_oskern::{
    Cluster, ClusterSpec, DegradeSpec, LoopProgram, NoiseSpec, Op, OpList, TaskSpec,
};
use ktau_user::ktaud::{ClientId, KtaudMirror, KtaudService, PollItem, SubscriptionFilter};
use ktau_user::libktau::ktau_reset_profile;

const PERIOD: u64 = 100_000_000; // 100 ms sweeps

fn quiet(nodes: usize) -> Cluster {
    let mut spec = ClusterSpec::chiba(nodes);
    spec.noise = NoiseSpec::silent();
    Cluster::new(spec)
}

/// A process that stays alive and keeps touching a few kernel events.
fn busy_loop() -> Box<LoopProgram> {
    Box::new(LoopProgram::new(vec![
        Op::SyscallNull,
        Op::Compute(450_000),
        Op::Sleep(5_000_000),
    ]))
}

/// Checks that every profile a mirror reconstructed is byte-identical to
/// the server's current full encoding — the lossless-delta invariant.
fn assert_mirror_matches_server(service: &KtaudService, mirror: &KtaudMirror) {
    let mut checked = 0;
    for ((node, pid), _) in mirror.iter() {
        let server = service
            .encoded_full(node, pid)
            .expect("mirror tracks a pid the server dropped");
        assert_eq!(
            mirror.encoded(node, pid).as_deref(),
            Some(server),
            "reconstruction for node {node} pid {pid} diverged from server"
        );
        checked += 1;
    }
    assert!(checked > 0, "mirror is empty — nothing was verified");
}

#[test]
fn delta_stream_reconstructs_byte_identical_snapshots() {
    let mut c = quiet(2);
    for n in 0..2 {
        c.spawn(n, TaskSpec::app("rank", busy_loop()));
    }
    let mut svc = KtaudService::install(&mut c, &[0, 1], PERIOD);
    let client = svc.subscribe(SubscriptionFilter::all());
    let mut mirror = KtaudMirror::new();

    svc.sweep(&mut c).unwrap();
    let first = svc.poll(client);
    // First contact: everything live arrives as a full sync.
    assert!(first.iter().all(|i| matches!(i, PollItem::FullSync { .. })));
    mirror.apply_all(&first).unwrap();
    assert_mirror_matches_server(&svc, &mirror);

    // From then on the active ranks ship as deltas, and applying them
    // reproduces the server's bytes exactly at every step.
    for _ in 0..5 {
        svc.sweep(&mut c).unwrap();
        let items = svc.poll(client);
        mirror.apply_all(&items).unwrap();
        assert_mirror_matches_server(&svc, &mirror);
    }
    let stats = svc.client_stats(client);
    assert!(stats.delta_syncs > 0, "no deltas were ever shipped");
    assert!(stats.bytes_full > 0 && stats.bytes_delta > 0);
    assert_eq!(stats.bytes_shipped(), stats.bytes_full + stats.bytes_delta);
}

#[test]
fn late_subscriber_full_syncs_then_rides_deltas() {
    let mut c = quiet(1);
    c.spawn(0, TaskSpec::app("rank", busy_loop()));
    let mut svc = KtaudService::install(&mut c, &[0], PERIOD);
    svc.run(&mut c, 3).unwrap();

    // Subscribing after three sweeps: the first poll is all full syncs …
    let late = svc.subscribe(SubscriptionFilter::all());
    let mut mirror = KtaudMirror::new();
    let first = svc.poll(late);
    assert!(!first.is_empty());
    assert!(first.iter().all(|i| matches!(i, PollItem::FullSync { .. })));
    mirror.apply_all(&first).unwrap();

    // … and the next sweep's changes arrive as deltas.
    svc.sweep(&mut c).unwrap();
    let next = svc.poll(late);
    assert!(next.iter().any(|i| matches!(i, PollItem::Delta { .. })));
    assert!(!next.iter().any(|i| matches!(i, PollItem::FullSync { .. })));
    mirror.apply_all(&next).unwrap();
    assert_mirror_matches_server(&svc, &mirror);
}

#[test]
fn cursor_gap_falls_back_to_full_sync() {
    let mut c = quiet(1);
    c.spawn(0, TaskSpec::app("rank", busy_loop()));
    let mut svc = KtaudService::install(&mut c, &[0], PERIOD);
    let client = svc.subscribe(SubscriptionFilter::all());
    svc.sweep(&mut c).unwrap();
    let mut mirror = KtaudMirror::new();
    mirror.apply_all(&svc.poll(client)).unwrap();

    // The client misses two sweeps; only the latest delta is retained, so
    // its cursor has gapped and the busy rank must arrive as a full sync.
    svc.run(&mut c, 2).unwrap();
    let items = svc.poll(client);
    assert!(
        items.iter().any(|i| matches!(i, PollItem::FullSync { .. })),
        "a gapped cursor must be healed by a full sync"
    );
    mirror.apply_all(&items).unwrap();
    assert_mirror_matches_server(&svc, &mirror);
}

/// Sweeps once and returns the one delta the next poll ships to `client`.
fn sweep_for_delta(
    svc: &mut KtaudService,
    c: &mut Cluster,
    client: ClientId,
) -> (u32, u32, Vec<u8>) {
    svc.sweep(c).unwrap();
    match svc.poll(client).as_slice() {
        [PollItem::Delta { node, pid, bytes }] => (*node, *pid, bytes.clone()),
        other => panic!("expected one delta, got {other:?}"),
    }
}

#[test]
fn rejected_delta_is_healed_by_resync() {
    // One routine per 100 ms sweep period: `setup`, then `solve` (a new
    // user row), then `setup` again, so the second delta does not re-ship
    // the row the first one appended.
    let mut c = quiet(1);
    let ops = OpList::new(vec![
        Op::UserEnter("setup"),
        Op::UserExit("setup"),
        Op::Sleep(3 * PERIOD / 2),
        Op::UserEnter("solve"),
        Op::UserExit("solve"),
        Op::Sleep(PERIOD),
        Op::UserEnter("setup"),
        Op::UserExit("setup"),
        Op::Sleep(100 * PERIOD),
    ]);
    c.spawn(0, TaskSpec::app("rank", Box::new(ops)));
    let mut svc = KtaudService::install(&mut c, &[0], PERIOD);
    let client = svc.subscribe(SubscriptionFilter::apps_only());
    svc.sweep(&mut c).unwrap();
    let mut mirror = KtaudMirror::new();
    mirror.apply_all(&svc.poll(client)).unwrap();

    // One flipped bit in the check digest (the delta's last eight bytes):
    // the apply fails and the mirror keeps its baseline byte for byte.
    let (node, pid, mut bytes) = sweep_for_delta(&mut svc, &mut c, client);
    *bytes.last_mut().unwrap() ^= 0x10;
    let before = mirror.encoded(node, pid);
    assert!(mirror.apply(&PollItem::Delta { node, pid, bytes }).is_err());
    assert_eq!(mirror.encoded(node, pid), before);

    // The server advanced the cursor when it shipped, so the next delta
    // targets a baseline the mirror never reached and fails as well.
    let (node, pid, bytes) = sweep_for_delta(&mut svc, &mut c, client);
    assert!(mirror.apply(&PollItem::Delta { node, pid, bytes }).is_err());

    // A resync ships the current profile whole.
    svc.resync(client, node, pid);
    let items = svc.poll(client);
    assert!(matches!(items.as_slice(), [PollItem::FullSync { .. }]));
    mirror.apply_all(&items).unwrap();
    assert_mirror_matches_server(&svc, &mirror);
}

#[test]
fn unchanged_profiles_are_skipped_not_reshipped() {
    // With instrumentation compiled in but switched off, no probe ever
    // fires, so after the first capture every profile's generation is
    // frozen: sweeps cost one integer compare per task and clients get
    // nothing new.
    let mut spec = ClusterSpec::chiba(1);
    spec.noise = NoiseSpec::silent();
    spec.control = InstrumentationControl::ktau_off();
    let mut c = Cluster::new(spec);
    c.spawn(0, TaskSpec::app("rank", busy_loop()));

    let mut svc = KtaudService::install(&mut c, &[0], PERIOD);
    let client = svc.subscribe(SubscriptionFilter::all());
    svc.sweep(&mut c).unwrap();
    let first = svc.poll(client);
    assert!(!first.is_empty());
    let after_first = svc.client_stats(client);

    svc.run(&mut c, 4).unwrap();
    assert!(
        svc.poll(client).is_empty(),
        "nothing changed, yet items shipped"
    );
    let stats = svc.client_stats(client);
    assert_eq!(stats.bytes_shipped(), after_first.bytes_shipped());
    assert_eq!(stats.delta_syncs, 0);
    assert!(stats.skipped > 0);
    let srv = svc.stats();
    assert!(
        srv.gen_skips > 0,
        "later sweeps must skip by generation, not recapture"
    );
    assert_eq!(srv.sweeps, 5);
}

#[test]
fn profile_reset_is_visible_to_the_generation_sweep() {
    // Regression companion to the dirty-marking: `ktau_reset_profile`
    // changes content without running any probe, and must still be picked
    // up by a generation-skipping monitor.
    let mut c = quiet(1);
    let pid = c.spawn(0, TaskSpec::app("rank", busy_loop()));
    let mut svc = KtaudService::install(&mut c, &[0], PERIOD);
    let client = svc.subscribe(SubscriptionFilter::for_pids(vec![pid.0]));
    svc.sweep(&mut c).unwrap();
    let mut mirror = KtaudMirror::new();
    mirror.apply_all(&svc.poll(client)).unwrap();

    ktau_reset_profile(&mut c, 0, pid).unwrap();
    svc.sweep(&mut c).unwrap();
    let items = svc.poll(client);
    assert!(!items.is_empty(), "reset went unnoticed by the sweep");
    mirror.apply_all(&items).unwrap();
    assert_mirror_matches_server(&svc, &mirror);
}

#[test]
fn filters_restrict_what_ships() {
    let mut c = quiet(2);
    let app0 = c.spawn(0, TaskSpec::app("rank0", busy_loop()));
    let app1 = c.spawn(1, TaskSpec::app("rank1", busy_loop()));
    let mut svc = KtaudService::install(&mut c, &[0, 1], PERIOD);

    let node0_only = svc.subscribe(SubscriptionFilter::for_nodes(vec![0]));
    let apps_only = svc.subscribe(SubscriptionFilter::apps_only());
    // Pids are per-node, so a pid filter alone spans nodes; compose it
    // with a node filter to name one process exactly.
    let one_rank = svc.subscribe(SubscriptionFilter {
        nodes: Some(vec![1]),
        pids: Some(vec![app1.0]),
        apps_only: false,
    });
    svc.run(&mut c, 2).unwrap();

    let items = svc.poll(node0_only);
    assert!(!items.is_empty());
    assert!(items.iter().all(|i| match i {
        PollItem::FullSync { node, .. }
        | PollItem::Delta { node, .. }
        | PollItem::Removed { node, .. } => *node == 0,
    }));

    // Apps-only: both ranks, but no ktaud daemons and no idle threads.
    let items = svc.poll(apps_only);
    let pids: Vec<(u32, u32)> = items
        .iter()
        .map(|i| match i {
            PollItem::FullSync { node, pid, .. }
            | PollItem::Delta { node, pid, .. }
            | PollItem::Removed { node, pid } => (*node, *pid),
        })
        .collect();
    assert_eq!(pids, vec![(0, app0.0), (1, app1.0)]);

    let items = svc.poll(one_rank);
    assert!(items.iter().all(|i| match i {
        PollItem::FullSync { node, pid, .. }
        | PollItem::Delta { node, pid, .. }
        | PollItem::Removed { node, pid } => (*node, *pid) == (1, app1.0),
    }));
    assert!(!items.is_empty());
}

#[test]
fn exited_processes_ship_removal_notices() {
    let mut c = quiet(1);
    // Finite program: ~150 ms of work, so it is alive for sweep 1 and dead
    // by sweep 2 (the sweep period is 100 ms).
    let pid = c.spawn(
        0,
        TaskSpec::app(
            "short",
            Box::new(OpList::new(vec![Op::SyscallNull, Op::Compute(67_500_000)])),
        ),
    );
    let mut svc = KtaudService::install(&mut c, &[0], PERIOD);
    let client = svc.subscribe(SubscriptionFilter::all());
    svc.sweep(&mut c).unwrap();
    let mut mirror = KtaudMirror::new();
    mirror.apply_all(&svc.poll(client)).unwrap();
    let tracked_short = mirror.get(0, pid.0).is_some();

    // By the next sweep the process is dead: the store drops it and the
    // client hears a removal notice exactly once.
    svc.sweep(&mut c).unwrap();
    let items = svc.poll(client);
    let removals: Vec<_> = items
        .iter()
        .filter(|i| matches!(i, PollItem::Removed { node: 0, pid: p } if *p == pid.0))
        .collect();
    assert!(tracked_short, "first sweep should have seen the process");
    assert_eq!(removals.len(), 1);
    mirror.apply_all(&items).unwrap();
    assert!(mirror.get(0, pid.0).is_none());
    assert!(svc.client_stats(client).removed >= 1);
}

/// Regression: the daemon's sweep cost used to be frozen at install time
/// (a flat 2 ms per wake), so a node running 2 tasks and a node running 18
/// charged identical monitoring overhead.  The cost is now recomputed at
/// every wake from the live-task count.
#[test]
fn daemon_cost_scales_with_live_task_count() {
    let daemon_cpu = |apps: usize| {
        let mut c = quiet(1);
        for i in 0..apps {
            // Mostly-sleeping ranks: alive forever (they inflate the live
            // count) without contending with the daemon for CPU.
            c.spawn(0, TaskSpec::app(format!("rank{i}"), busy_loop()));
        }
        let mut svc = KtaudService::install(&mut c, &[0], PERIOD);
        svc.run(&mut c, 10).unwrap();
        let (n, pid) = svc.daemon_pids()[0];
        c.node(n).task(pid).unwrap().cpu_ns
    };
    let few = daemon_cpu(1);
    let many = daemon_cpu(16);
    assert!(few > 0);
    assert!(
        many > few * 2,
        "daemon cost must track live tasks: few={few} many={many}"
    );
}

/// The recomputed per-wake cost is expressed in ns and converted to cycles
/// at execution, so a degraded (thermally throttled) node pays genuinely
/// more CPU time per monitoring sweep than a healthy one.
#[test]
fn daemon_cost_stretches_under_node_degradation() {
    let daemon_cpu = |slowdown_pct: u32| {
        let mut spec = ClusterSpec::chiba(1);
        spec.noise = NoiseSpec::silent();
        spec.node_faults = vec![(
            0,
            DegradeSpec {
                slowdown_pct,
                slowdown_onset_ns: 0,
                ..DegradeSpec::default()
            },
        )];
        let mut c = Cluster::new(spec);
        let mut svc = KtaudService::install(&mut c, &[0], PERIOD);
        svc.run(&mut c, 10).unwrap();
        let (n, pid) = svc.daemon_pids()[0];
        c.node(n).task(pid).unwrap().cpu_ns
    };
    let healthy = daemon_cpu(100);
    let degraded = daemon_cpu(300);
    assert!(healthy > 0);
    assert!(
        degraded > healthy * 2,
        "degradation must stretch daemon sweeps: healthy={healthy} degraded={degraded}"
    );
}
