//! The loop every workload runs under.
//!
//! A run is a closed loop: set-ups and operations one at a time, for the
//! configured number of seconds.  Each operation is wrapped so that a panic,
//! an `Err` or a failed check counts as one failed operation instead of
//! aborting the run; only successful, non-warm-up operations contribute
//! latency samples.  Engine counters and self-profiler deltas are folded
//! over the timed operations only, so per-operation figures exclude
//! set-up and warm-up work.

use crate::calibrate::Calibrator;
use crate::spans::{Spans, BENCH};
use ktau_core::selfprof;
use ktau_core::snapshot::ProfileSnapshot;
use ktau_oskern::{Cluster, TaskKind};
use ktau_user::libktau::ktau_get_profile_bytes;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// `ClusterSpec::chiba`'s seed: the seed the simulated values in
/// [`crate::pins`] were recorded with.
pub const DEFAULT_SEED: u64 = 0x5EED_0C7A;

/// Untraced runs keep going past `seconds` until this many operations are
/// timed, so the reported 90th percentile has ten samples beyond it.
const MIN_OPS: usize = 100;
/// Operations a smoke run times before it stops.
const SMOKE_OPS: usize = 5;
/// Hard stop for the measured phase, whatever the operation count.
const HARD_CAP_S: f64 = 120.0;
/// Failure messages kept for the report.
const MAX_PROBLEMS: usize = 20;
/// A run stops early after this many failures.
const MAX_FAILURES: u64 = 100;

/// What to run and for how long.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and per-layer extras.
    pub traced: bool,
    /// Reduced sizes and a fixed handful of operations (tests).
    pub smoke: bool,
}

impl Config {
    /// Whether simulated values must match the recorded pins: full-size
    /// runs with the default seed.
    pub fn pinned(&self) -> bool {
        !self.smoke && self.seed == DEFAULT_SEED
    }
}

/// Cluster-level engine counters, differenced around an operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    /// `Cluster::events_simulated`.
    pub simulated: u64,
    /// `Cluster::ticks_coalesced`.
    pub ticks_coalesced: u64,
    /// `Cluster::txdone_elided`.
    pub txdone_elided: u64,
    /// `Cluster::total_retransmits`.
    pub retransmits: u64,
}

impl EngineCounts {
    /// Reads the counters of `c`.
    pub fn of(c: &Cluster) -> Self {
        EngineCounts {
            simulated: c.events_simulated(),
            ticks_coalesced: c.ticks_coalesced(),
            txdone_elided: c.txdone_elided(),
            retransmits: c.total_retransmits(),
        }
    }
}

/// Profiles re-read through libKtau in traced runs, for the libktau and
/// codec layers.
#[derive(Default)]
pub struct ProfileProbe {
    /// Profile reads made.
    pub reads: u64,
    /// Host ns spent in them.
    pub read_ns: u64,
    /// Per `(node, pid)`: the previous and the latest read, each as the
    /// `/proc/ktau` bytes and their decode.
    pub latest: BTreeMap<(u32, u32), (Option<Read>, Read)>,
}

/// One profile read.
pub type Read = (Vec<u8>, ProfileSnapshot);

/// Everything one workload run measured.
pub struct Run {
    /// Workload name.
    pub workload: &'static str,
    /// The run's configuration.
    pub cfg: Config,
    /// Span recorder (enabled in traced runs).
    pub spans: Spans,
    phase: Instant,
    /// Wall of the measured phase, seconds.
    pub phase_s: f64,
    /// Set-up samples, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each successful timed operation, ms.
    pub op_ms: Vec<f64>,
    /// Events simulated by each timed operation, index-aligned with
    /// `op_ms`.
    pub op_events: Vec<u64>,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations (and checks) that failed.
    pub failed: u64,
    /// The first failure messages.
    pub problems: Vec<String>,
    last_timed: bool,
    /// Engine counter deltas summed over timed operations.
    pub engine: EngineCounts,
    /// Self-profiler deltas summed over timed operations (zero in untraced
    /// builds).
    pub prof: selfprof::Snapshot,
    /// Workload-specific counts summed over timed operations.
    pub counts: BTreeMap<&'static str, f64>,
    /// Simulated values checked against [`crate::pins`] on default-seed
    /// runs.
    pub pins: Vec<(String, u64)>,
    /// The process's peak resident set at the end of the measured phase.
    pub peak_rss_mb: f64,
    /// Traced runs: profile re-reads.
    pub profiles: ProfileProbe,
    /// Traced runs: the last cluster the workload simulated, for the KTAS
    /// and digest timings.
    pub final_cluster: Option<Cluster>,
    /// Untraced runs: host-speed calibration, sampled between operations.
    pub cal: Option<Calibrator>,
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

fn add_snapshots(acc: &mut selfprof::Snapshot, before: &selfprof::Snapshot) {
    let after = selfprof::snapshot();
    let pairs = acc
        .counters
        .iter_mut()
        .zip(after.counters.iter().zip(&before.counters))
        .chain(
            acc.dispatch_count
                .iter_mut()
                .zip(after.dispatch_count.iter().zip(&before.dispatch_count)),
        )
        .chain(
            acc.dispatch_ns
                .iter_mut()
                .zip(after.dispatch_ns.iter().zip(&before.dispatch_ns)),
        );
    for (a, (x, y)) in pairs {
        *a += x - y;
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

impl Run {
    /// Starts a run; the measured phase starts now.
    pub fn new(workload: &'static str, cfg: Config) -> Self {
        selfprof::reset();
        Run {
            workload,
            cfg,
            spans: Spans::new(cfg.traced),
            phase: Instant::now(),
            phase_s: 0.0,
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            op_events: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            last_timed: false,
            engine: EngineCounts::default(),
            prof: selfprof::Snapshot::default(),
            counts: BTreeMap::new(),
            pins: Vec::new(),
            peak_rss_mb: 0.0,
            profiles: ProfileProbe::default(),
            final_cluster: None,
            cal: (!cfg.traced).then(Calibrator::default),
        }
    }

    /// Whether to start another operation.
    pub fn measuring(&self) -> bool {
        if self.failed >= MAX_FAILURES {
            return false;
        }
        if self.cfg.smoke {
            return self.op_ms.len() + (self.failed as usize) < SMOKE_OPS;
        }
        let t = self.phase.elapsed().as_secs_f64();
        t < HARD_CAP_S && (t < self.cfg.seconds || (!self.cfg.traced && self.op_ms.len() < MIN_OPS))
    }

    /// Records a failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(msg);
        }
    }

    /// Times one set-up.  `None` when it fails, which counts as one failed
    /// operation: the operations it was to serve cannot start.
    pub fn setup<T>(&mut self, f: impl FnOnce(&mut Spans) -> Result<T, String>) -> Option<T> {
        let depth = self.spans.depth();
        let t0 = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| f(&mut self.spans)));
        let dt = t0.elapsed().as_secs_f64();
        self.spans.close_to(depth);
        match r {
            Ok(Ok(v)) => {
                self.setup_s.push(dt);
                Some(v)
            }
            Ok(Err(e)) => {
                self.attempted += 1;
                self.fail(format!("set-up: {e}"));
                None
            }
            Err(p) => {
                self.attempted += 1;
                self.fail(format!("set-up panicked: {}", panic_message(p)));
                None
            }
        }
    }

    /// Runs one operation; a warm-up operation contributes no samples.
    /// `None` (and one failure) when it fails.
    pub fn op<T>(
        &mut self,
        warmup: bool,
        f: impl FnOnce(&mut Spans) -> Result<T, String>,
    ) -> Option<T> {
        if let Some(cal) = &mut self.cal {
            cal.sample_if_due();
        }
        self.attempted += 1;
        self.last_timed = false;
        let depth = self.spans.depth();
        let prof0 = selfprof::snapshot();
        let t0 = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| {
            self.spans.span(BENCH, "op", |sp| f(sp))
        }));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.spans.close_to(depth);
        match r {
            Ok(Ok(v)) => {
                if !warmup {
                    self.op_ms.push(ms);
                    add_snapshots(&mut self.prof, &prof0);
                    self.last_timed = true;
                }
                Some(v)
            }
            Ok(Err(e)) => {
                self.fail(e);
                None
            }
            Err(p) => {
                self.fail(format!("operation panicked: {}", panic_message(p)));
                None
            }
        }
    }

    /// Folds the engine counter deltas of the operation just run, if it was
    /// timed.
    pub fn engine_delta(&mut self, before: &EngineCounts, after: &EngineCounts) {
        if self.last_timed {
            self.op_events.push(after.simulated - before.simulated);
            let e = &mut self.engine;
            e.simulated += after.simulated - before.simulated;
            e.ticks_coalesced += after.ticks_coalesced - before.ticks_coalesced;
            e.txdone_elided += after.txdone_elided - before.txdone_elided;
            e.retransmits += after.retransmits - before.retransmits;
        }
    }

    /// Adds to a workload-specific count, if the operation just run was
    /// timed.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.last_timed {
            *self.counts.entry(name).or_default() += v;
        }
    }

    /// Records a simulated value to check against the pins.
    pub fn pin(&mut self, name: impl Into<String>, v: u64) {
        if self.cfg.pinned() {
            self.pins.push((name.into(), v));
        }
    }

    /// Runs a correctness check outside the measured phase; a panic or an
    /// `Err` counts as one failure.
    pub fn check(&mut self, what: &str, f: impl FnOnce() -> Result<(), String>) {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => self.fail(format!("{what}: {e}")),
            Err(p) => self.fail(format!("{what} panicked: {}", panic_message(p))),
        }
    }

    /// Keeps `c` as the final cluster in traced runs.
    pub fn keep_final(&mut self, c: Cluster) {
        if self.cfg.traced {
            let old = self.final_cluster.replace(c);
            self.spans.span("cluster", "teardown", |_| drop(old));
        }
    }

    /// Traced runs: re-reads every app profile on `c` through libKtau.
    /// The call is read-only, so it leaves the simulation untouched.
    pub fn read_profiles(&mut self, c: &Cluster) {
        if !self.cfg.traced {
            return;
        }
        let probe = &mut self.profiles;
        let r = self.spans.span("libktau", "profile_read", |_| {
            for n in 0..c.num_nodes() as u32 {
                let node = c.node(n);
                for pid in node.proc_pids() {
                    if node.task(pid).map(|t| t.kind) != Some(TaskKind::App) {
                        continue;
                    }
                    let t0 = Instant::now();
                    let read = ktau_get_profile_bytes(c, n, pid, 0)
                        .map_err(|e| format!("profile read node {n} pid {}: {e}", pid.0))?;
                    probe.read_ns += t0.elapsed().as_nanos() as u64;
                    probe.reads += 1;
                    let key = (n, pid.0);
                    let prev = probe.latest.remove(&key).map(|(_, cur)| cur);
                    probe.latest.insert(key, (prev, read));
                }
            }
            Ok(())
        });
        if let Err(e) = r {
            self.fail(e);
        }
    }

    /// Ends the measured phase: records its wall and the peak resident set,
    /// before any oracle run can raise it.
    pub fn end_phase(&mut self) {
        self.phase_s = self.phase.elapsed().as_secs_f64();
        self.peak_rss_mb = peak_rss_mb();
    }
}
