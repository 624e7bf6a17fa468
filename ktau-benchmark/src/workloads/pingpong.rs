//! `trace-pingpong-64`: 64 nodes as 32 traced pairs, each exchanging
//! seeded messages of 12–20 KiB (about 16 KiB) for 2000 rounds, every
//! round inside `UserEnter`/`UserExit` markers, default noise daemons.
//! One operation is one drain cycle: 10 ms of virtual time, then
//! `ktau_get_trace` drains every traced task.  The set-up boots the
//! cluster, opens the connections and spawns the pairs; when every pair has
//! finished its rounds a fresh set-up starts the next round.
//!
//! Chosen because it uses the measurement layer the other way from
//! `lu16-hz1000`: every probe on a traced task writes a trace record and
//! nothing is pair-batched, so a trace-ring or trace-read change shows
//! here, and `lu16-hz1000` shows whether it cost the profiling path
//! anything.  The seed draws the message sizes.

use crate::harness::{Config, EngineCounts, Run};
use crate::workloads::splitmix64;
use ktau_core::time::Ns;
use ktau_oskern::{Cluster, ClusterSpec, FnProgram, Op, Pid, TaskSpec};
use ktau_user::libktau::ktau_get_trace;
use std::sync::Arc;

/// Workload name.
pub const NAME: &str = "trace-pingpong-64";

const DRAIN_NS: Ns = 10_000_000;
/// Per-task trace ring: about 20 times what a task writes between two
/// drains, so losses show a drain falling behind rather than a small ring.
/// At 24 B a record the ring stays below the allocator's mmap threshold,
/// which keeps the peak resident set from depending on allocation history.
const TRACE_CAPACITY: usize = 4_096;

/// `(nodes, rounds per pair, drain cycles the reference-engine twin
/// replays)`.
fn sizes(cfg: &Config) -> (usize, usize, usize) {
    if cfg.smoke {
        (8, 20, 3)
    } else {
        (64, 2000, 20)
    }
}

/// One side of a pair: per round, enter the marker, send then receive (the
/// pinger) or receive then send, and exit the marker.
fn side(
    tx: ktau_net::ConnId,
    rx: ktau_net::ConnId,
    lens: Arc<[u64]>,
    pinger: bool,
) -> FnProgram<impl FnMut() -> Op + Send + Clone> {
    let mut k = 0usize;
    FnProgram(move || {
        let (round, step) = (k / 4, k % 4);
        k += 1;
        let Some(&bytes) = lens.get(round) else {
            return Op::Exit;
        };
        let send = Op::Send { conn: tx, bytes };
        let recv = Op::Recv { conn: rx, bytes };
        match (step, pinger) {
            (0, _) => Op::UserEnter("pingpong"),
            (1, true) | (2, false) => send,
            (1, false) | (2, true) => recv,
            _ => Op::UserExit("pingpong"),
        }
    })
}

struct Pairs {
    c: Cluster,
    tasks: Vec<(u32, Pid)>,
    /// Trace records lost per task, as of the last drain.
    lost: Vec<u64>,
}

fn boot(cfg: &Config, reference: bool) -> Pairs {
    let (nodes, rounds, _) = sizes(cfg);
    let mut spec = ClusterSpec::chiba(nodes);
    spec.seed = cfg.seed;
    spec.trace_capacity = Some(TRACE_CAPACITY);
    let mut c = if reference {
        Cluster::new_reference_engine(spec)
    } else {
        Cluster::new(spec)
    };
    let mut tasks = Vec::with_capacity(nodes);
    for pair in 0..nodes as u32 / 2 {
        let lens: Arc<[u64]> = (0..rounds as u64)
            .map(|r| 12_288 + splitmix64(cfg.seed ^ u64::from(pair) << 32 ^ r) % 8_192)
            .collect();
        let (a, b) = (2 * pair, 2 * pair + 1);
        let ab = c.open_conn(a, b);
        let ba = c.open_conn(b, a);
        for (node, tx, rx, pinger) in [(a, ab, ba, true), (b, ba, ab, false)] {
            let prog = side(tx, rx, Arc::clone(&lens), pinger);
            let pid = c.spawn(node, TaskSpec::app("pingpong", Box::new(prog)).traced());
            tasks.push((node, pid));
        }
    }
    Pairs {
        c,
        lost: vec![0; tasks.len()],
        tasks,
    }
}

impl Pairs {
    /// One drain cycle: advance 10 ms, then drain every traced task.
    /// Returns `(records, newly lost)`.
    fn cycle(&mut self, sp: &mut crate::spans::Spans) -> Result<(u64, u64), String> {
        sp.span("sim", "run", |_| self.c.run_for(DRAIN_NS));
        sp.span("libktau", "get_trace", |_| {
            let (mut records, mut lost) = (0u64, 0u64);
            for (&(node, pid), seen) in self.tasks.iter().zip(self.lost.iter_mut()) {
                let t = ktau_get_trace(&mut self.c, node, pid)
                    .map_err(|e| format!("trace read node {node} pid {}: {e}", pid.0))?;
                records += t.records.len() as u64;
                lost += t.lost - *seen;
                *seen = t.lost;
            }
            Ok((records, lost))
        })
    }

    fn finished(&self) -> bool {
        self.c.apps_exited() as usize == self.tasks.len()
    }
}

/// Runs the workload.
pub fn run(cfg: Config) -> Run {
    let twin_cycles = sizes(&cfg).2;
    let mut run = Run::new(NAME, cfg);
    // Digest and trace totals after the first round's first `twin_cycles`
    // cycles, for the reference-engine twin.
    let mut twin_point: Option<(u64, u64, u64)> = None;
    let (mut records, mut lost) = (0u64, 0u64);
    let (mut round, mut cycles) = (0, 0);
    'rounds: while run.measuring() {
        let Some(mut p) = run.setup(|sp| Ok(sp.span("cluster", "boot", |_| boot(&cfg, false))))
        else {
            break;
        };
        while !p.finished() {
            if !run.measuring() {
                run.keep_final(p.c);
                break 'rounds;
            }
            let before = EngineCounts::of(&p.c);
            let warmup = run.attempted == 0;
            let Some((r, l)) = run.op(warmup, |sp| p.cycle(sp)) else {
                continue;
            };
            run.engine_delta(&before, &EngineCounts::of(&p.c));
            run.count("libktau.trace_records", r as f64);
            run.count("libktau.trace_lost", l as f64);
            records += r;
            lost += l;
            cycles += 1;
            if round == 0 && cycles == twin_cycles {
                let d = run
                    .spans
                    .span("digest", "state_digest", |_| p.c.state_digest());
                twin_point = Some((d, records, lost));
                run.pin("cycle20.events_simulated", p.c.events_simulated());
                run.pin("cycle20.trace_records", records);
                run.pin("cycle20.trace_lost", lost);
            }
            run.read_profiles(&p.c);
        }
        run.keep_final(p.c);
        round += 1;
    }
    run.end_phase();
    if let Some(want) = twin_point {
        run.check("reference-engine twin", || {
            let mut p = boot(&cfg, true);
            let mut sp = crate::spans::Spans::new(false);
            let (mut records, mut lost) = (0, 0);
            for _ in 0..twin_cycles {
                let (r, l) = p.cycle(&mut sp)?;
                records += r;
                lost += l;
            }
            let got = (p.c.state_digest(), records, lost);
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "(digest, records, lost) {got:?} vs dynticks {want:?}"
                ))
            }
        });
    }
    run
}
