//! Integration tests of the features beyond the paper's shipped system —
//! the §6 future-work items this library implements: OS performance
//! counters, phase-based profiling, merged call-path profiles, and online
//! rate monitoring.

use ktau::core::snapshot::ProfileSnapshot;
use ktau::core::time::NS_PER_SEC;
use ktau::oskern::{Cluster, ClusterSpec, NoiseSpec, Op, OpList, TaskSpec};
use ktau::user::{
    callpath_profile, ktau_get_trace, ktaud::event_rate, KtaudMirror, KtaudService, PhaseProfiler,
    SubscriptionFilter,
};

fn quiet(n: usize) -> Cluster {
    let mut s = ClusterSpec::chiba(n);
    s.noise = NoiseSpec::silent();
    Cluster::new(s)
}

#[test]
fn counters_phases_and_callpaths_compose() {
    let mut spec = ClusterSpec::chiba(2);
    spec.noise = NoiseSpec::silent();
    spec.trace_capacity = Some(32_768);
    let mut c = Cluster::new(spec);
    let conn = c.open_conn(0, 1);
    let app = c.spawn(
        0,
        TaskSpec::app(
            "app",
            Box::new(OpList::new(vec![
                // phase "init": syscalls
                Op::UserEnter("init"),
                Op::SyscallNull,
                Op::SyscallNull,
                Op::UserExit("init"),
                Op::Sleep(NS_PER_SEC),
                // phase "io": network
                Op::UserEnter("io"),
                Op::Send {
                    conn,
                    bytes: 300_000,
                },
                Op::UserExit("io"),
                Op::Sleep(NS_PER_SEC),
            ])),
        )
        .traced(),
    );
    c.spawn(
        1,
        TaskSpec::app(
            "peer",
            Box::new(OpList::new(vec![Op::Recv {
                conn,
                bytes: 300_000,
            }])),
        ),
    );

    // Phase profiling across the two phases.
    let mut pp = PhaseProfiler::begin(&c, 0, app).unwrap();
    c.run_for(NS_PER_SEC / 2);
    pp.mark(&c, "init").unwrap();
    c.run_until_apps_exit(60 * NS_PER_SEC);
    pp.mark(&c, "io").unwrap();

    let init = pp.phase("init").unwrap();
    assert_eq!(init.kernel_event("sys_getpid").unwrap().stats.count, 2);
    assert!(init.kernel_event("tcp_sendmsg").is_none());
    let io = pp.phase("io").unwrap();
    assert!(io.kernel_event("tcp_sendmsg").is_some());
    assert!(io.kernel_event("sys_getpid").is_none());

    // Counters agree with what the program did.
    let counters = c.node(0).proc_counters(app).unwrap();
    assert!(counters.syscalls >= 5); // 2 getpid + writev + 2 nanosleep
    assert!(counters.wakeups >= 2);

    // Call-path profile from the trace nests kernel under user routines.
    let trace = ktau_get_trace(&mut c, 0, app).unwrap();
    let paths = callpath_profile(&trace);
    let displays: Vec<String> = paths.iter().map(|p| p.display()).collect();
    assert!(
        displays.iter().any(|d| d == "io => sys_writev"),
        "missing io => sys_writev in {displays:?}"
    );
    assert!(displays.iter().any(|d| d.starts_with("init => sys_getpid")));
}

#[test]
fn ktaud_event_rates_reflect_activity_bursts() {
    let mut c = quiet(1);
    // Burst of syscalls in the middle of the run.
    let mut ops = vec![Op::Sleep(NS_PER_SEC)];
    for _ in 0..500 {
        ops.push(Op::SyscallNull);
    }
    ops.push(Op::Sleep(2 * NS_PER_SEC));
    let pid = c.spawn(0, TaskSpec::app("bursty", Box::new(OpList::new(ops))));
    let mut d = KtaudService::install(&mut c, &[0], NS_PER_SEC / 2);
    let client = d.subscribe(SubscriptionFilter::for_pids(vec![pid.0]));
    let mut mirror = KtaudMirror::new();
    // One observation per sweep while the process lives (~3 s).  The mirror
    // keeps a profile's capture time until its content changes, so each
    // observation is stamped with its sweep's time.
    let mut series = Vec::new();
    for _ in 0..7 {
        d.sweep(&mut c).unwrap();
        mirror.apply_all(&d.poll(client)).unwrap();
        if let Some(p) = mirror.get(0, pid.0) {
            series.push(ProfileSnapshot {
                taken_ns: c.now(),
                ..p
            });
        }
    }
    let rates = event_rate(&series, "sys_getpid");
    assert!(!rates.is_empty());
    let peak = rates.iter().map(|r| r.1).fold(0.0f64, f64::max);
    let last = rates.last().unwrap().1;
    assert!(peak > 100.0, "burst not visible: peak {peak}");
    assert_eq!(last, 0.0, "rate must return to zero after the burst");
}

#[test]
fn runtime_control_plus_phases_isolate_instrumented_windows() {
    // Dynamic measurement control (paper §6): disable the syscall group for
    // the middle phase and show the phase profile is empty there.
    use ktau::user::ktau_set_group;
    let mut c = quiet(1);
    let pid = c.spawn(
        0,
        TaskSpec::app(
            "t",
            Box::new(OpList::new(vec![
                Op::SyscallNull,
                Op::Sleep(NS_PER_SEC),
                Op::SyscallNull, // while disabled
                Op::Sleep(NS_PER_SEC),
                Op::SyscallNull,
            ])),
        ),
    );
    let mut pp = PhaseProfiler::begin(&c, 0, pid).unwrap();
    c.run_for(NS_PER_SEC / 2);
    pp.mark(&c, "on").unwrap();
    ktau_set_group(&mut c, 0, ktau::core::Group::Syscall, false);
    c.run_for(NS_PER_SEC);
    pp.mark(&c, "off").unwrap();
    ktau_set_group(&mut c, 0, ktau::core::Group::Syscall, true);
    c.run_until_apps_exit(60 * NS_PER_SEC);
    pp.mark(&c, "on_again").unwrap();

    let count = |phase: &str| {
        pp.phase(phase)
            .unwrap()
            .kernel_event("sys_getpid")
            .map(|r| r.stats.count)
            .unwrap_or(0)
    };
    assert_eq!(count("on"), 1);
    assert_eq!(count("off"), 0, "disabled window must record nothing");
    assert_eq!(count("on_again"), 1);
}
