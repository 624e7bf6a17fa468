//! System-wide monitoring with the KTAUD daemon (paper §4.5): periodic
//! extraction of every process's kernel profile, including daemons the
//! application knows nothing about — the mode needed for closed-source
//! programs that cannot be instrumented.
//!
//! ```sh
//! cargo run --example ktaud_monitor
//! ```

use ktau::oskern::{Cluster, ClusterSpec, Op, OpList, TaskSpec};
use ktau::user::{KtaudMirror, KtaudService, SubscriptionFilter};

fn main() {
    let mut cluster = Cluster::new(ClusterSpec::chiba(2));
    // A "closed-source" app: we never instrument it; KTAUD still sees its
    // kernel interactions.
    cluster.spawn(
        0,
        TaskSpec::app(
            "blackbox",
            Box::new(OpList::new(vec![
                Op::Compute(450_000_000),
                Op::SyscallNull,
                Op::Sleep(500_000_000),
                Op::Compute(450_000_000),
            ])),
        ),
    );

    // Install KTAUD on both nodes with a 250 ms period, and subscribe one
    // client to every process; its mirror holds their current profiles.
    let mut daemon = KtaudService::install(&mut cluster, &[0, 1], 250_000_000);
    let client = daemon.subscribe(SubscriptionFilter::all());
    let mut mirror = KtaudMirror::new();

    // Show how the blackbox app's kernel profile grows over time.
    println!("blackbox kernel activity growth (sys_nanosleep inclusive seconds):");
    for sweep in 1..=12 {
        daemon.sweep(&mut cluster).expect("collection failed");
        mirror
            .apply_all(&daemon.poll(client))
            .expect("mirror rejected an update");
        if sweep % 3 != 1 {
            continue;
        }
        for ((node, pid), p) in mirror.iter() {
            let p = p.decode();
            if p.comm != "blackbox" {
                continue;
            }
            let sleep = p
                .kernel_event("sys_nanosleep")
                .map(|r| r.stats.incl_ns)
                .unwrap_or(0);
            println!(
                "  t={:>6.2}s node {node} pid {pid}: {:>8.3} s in nanosleep, {} kernel events seen",
                cluster.now() as f64 / 1e9,
                sleep as f64 / 1e9,
                p.kernel_events.len()
            );
        }
    }

    let stats = daemon.stats();
    println!(
        "\nKTAUD ran {} sweeps over {:.2} virtual seconds: {} profile captures, {} unchanged skipped",
        stats.sweeps,
        cluster.now() as f64 / 1e9,
        stats.captures,
        stats.gen_skips
    );

    // The final sweep shows every live process on node 0, daemons included
    // (the blackbox app has exited by now).
    println!("\nfinal sweep, node 0 process inventory:");
    for ((_, pid), p) in mirror.iter().filter(|((node, _), _)| *node == 0) {
        let p = p.decode();
        println!(
            "  pid {pid:>3} {:<12} kernel events: {:>3}",
            p.comm,
            p.kernel_events.len()
        );
    }
    println!("\n(note the ktaud daemon itself appears — a daemon-based model");
    println!(" perturbs the system, which is why KTAU also supports self-profiling)");
}
