//! The KTAU proc filesystem (paper §4.3) plus the slice of ordinary procfs
//! the experiments need (`/proc/cpuinfo`, which is how the authors diagnosed
//! the mis-detected CPU on Chiba node ccn10).
//!
//! The interface is **session-less**: reading a profile takes one call to
//! learn the required size and a second call with an allocated buffer; the
//! kernel keeps no state between the two.  If the data grew in between, the
//! read fails with the new size and the client simply retries — this is the
//! paper's design choice to avoid resource leaks from misbehaving clients.

use crate::node::Node;
use crate::task::{Pid, TaskState};
use ktau_core::snapshot::{encode_measurement, ProfileSnapshot, TraceSnapshot};
use ktau_core::time::Ns;
use ktau_core::wire::Writer;

/// Most a profile read sets aside up front for the caller's buffer; a
/// larger profile grows the buffer as it encodes.
const READ_PREALLOC_MAX: usize = 1 << 20;

/// Errors from `/proc/ktau` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcError {
    /// No such process.
    NoSuchPid(Pid),
    /// The supplied buffer is smaller than the encoded data; the required
    /// size is returned so the client can retry (session-less protocol).
    BufferTooSmall {
        /// Bytes needed at the time of this call.
        needed: usize,
    },
    /// Tracing was not enabled for the process.
    NotTraced(Pid),
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::NoSuchPid(p) => write!(f, "no such pid {p}"),
            ProcError::BufferTooSmall { needed } => {
                write!(f, "buffer too small, need {needed} bytes")
            }
            ProcError::NotTraced(p) => write!(f, "pid {p} has no trace buffer"),
        }
    }
}

impl std::error::Error for ProcError {}

impl Node {
    /// Builds the current profile snapshot of one process (the kernel-side
    /// work behind `/proc/ktau/profile`, decoded).
    pub fn profile_snapshot(&self, pid: Pid, now: Ns) -> Result<ProfileSnapshot, ProcError> {
        let t = self.task(pid).ok_or(ProcError::NoSuchPid(pid))?;
        Ok(ProfileSnapshot::capture(
            pid.0,
            &t.comm,
            self.id,
            now,
            &t.meas,
            &self.registry,
        ))
    }

    /// Encodes one process's profile straight from its measurement state
    /// into a buffer sized for `capacity` bytes.
    fn profile_bytes(&self, pid: Pid, now: Ns, capacity: usize) -> Result<Vec<u8>, ProcError> {
        let t = self.task(pid).ok_or(ProcError::NoSuchPid(pid))?;
        let mut w = Writer::with_capacity(capacity.min(READ_PREALLOC_MAX));
        encode_measurement(
            &mut w,
            pid.0,
            &t.comm,
            self.id,
            now,
            &t.meas,
            &self.registry,
        );
        Ok(w.into_vec())
    }

    /// `/proc/ktau/profile` size query: bytes needed to read `pid`'s profile
    /// right now.
    pub fn proc_profile_size(&self, pid: Pid, now: Ns) -> Result<usize, ProcError> {
        // The size pass throws its buffer away: start it at a page.
        Ok(self.profile_bytes(pid, now, 4096)?.len())
    }

    /// `/proc/ktau/profile` read: encodes `pid`'s profile into a
    /// caller-allocated buffer of `buf_len` bytes.  Fails (without touching
    /// state) when the buffer is too small.
    pub fn proc_profile_read(
        &self,
        pid: Pid,
        buf_len: usize,
        now: Ns,
    ) -> Result<Vec<u8>, ProcError> {
        let bytes = self.profile_bytes(pid, now, buf_len)?;
        if bytes.len() > buf_len {
            return Err(ProcError::BufferTooSmall {
                needed: bytes.len(),
            });
        }
        Ok(bytes)
    }

    /// `/proc/ktau/trace` read: drains `pid`'s circular trace buffer.
    /// Destructive, as in the paper (unread data may be lost on overflow —
    /// the loss count is part of the snapshot).
    pub fn proc_trace_read(&mut self, pid: Pid) -> Result<TraceSnapshot, ProcError> {
        let node_id = self.id;
        // Split borrows: registry is read-only while the task is mutated.
        let Node {
            tasks, registry, ..
        } = self;
        let t = tasks.get_mut(pid).ok_or(ProcError::NoSuchPid(pid))?;
        let comm = t.comm.clone();
        let tb = t.meas.trace.as_mut().ok_or(ProcError::NotTraced(pid))?;
        let lost = tb.lost();
        let records = tb.drain();
        Ok(TraceSnapshot::from_records(
            pid.0, &comm, node_id, lost, &records, registry,
        ))
    }

    /// Lists pids visible in procfs: all live tasks plus zombies whose
    /// profiles remain readable.
    pub fn proc_pids(&self) -> Vec<Pid> {
        self.pids()
    }

    /// Lists live (non-zombie) pids only — the O(active) iteration the KTAUD
    /// monitoring service sweeps, skipping dead tasks awaiting reaping.
    pub fn proc_live_pids(&self) -> Vec<Pid> {
        self.pids()
            .into_iter()
            .filter(|&p| self.task(p).is_some_and(|t| t.state != TaskState::Dead))
            .collect()
    }

    /// `/proc/ktau/gen`: the dirty-marking generation of one task's
    /// measurement state.  Cheap (no capture, no encode); a monitoring
    /// client that remembers the last value it saw can skip unchanged
    /// profiles entirely.
    pub fn profile_gen(&self, pid: Pid) -> Result<u64, ProcError> {
        Ok(self
            .task(pid)
            .ok_or(ProcError::NoSuchPid(pid))?
            .meas
            .generation())
    }

    /// Reaps a zombie: discards a dead task's retained measurement state.
    /// Returns whether anything was removed.
    pub fn reap(&mut self, pid: Pid) -> bool {
        match self.task(pid) {
            Some(t) if t.state == TaskState::Dead => {
                self.tasks.remove(pid);
                true
            }
            _ => false,
        }
    }

    /// `/proc/<pid>/ktau_counters`: the task's OS performance counters
    /// (paper §6 future work: "performance counter access to KTAU").
    pub fn proc_counters(&self, pid: Pid) -> Result<crate::counters::TaskCounters, ProcError> {
        Ok(self.task(pid).ok_or(ProcError::NoSuchPid(pid))?.counters)
    }

    /// `/proc/cpuinfo`: one stanza per *detected* CPU.  On the faulty Chiba
    /// node this shows a single processor on dual-CPU hardware.
    pub fn proc_cpuinfo(&self) -> String {
        let mut s = String::new();
        for c in 0..self.online {
            s.push_str(&format!(
                "processor\t: {c}\nmodel name\t: Pentium III (simulated)\ncpu MHz\t\t: {}.000\n\n",
                self.freq.mhz()
            ));
        }
        s
    }

    /// Kernel-wide aggregate profile: every process's kernel-mode data
    /// merged (paper's kernel-wide perspective), including idle threads,
    /// daemons and zombies.
    pub fn kernel_wide_snapshot(&self, now: Ns) -> ProfileSnapshot {
        let mut agg = ktau_core::measure::TaskMeasurement::profiling();
        for t in self.tasks.values() {
            agg.kernel.absorb(&t.meas.kernel);
            for (k, v) in t.meas.merged.iter() {
                let cell = agg.merged.cell_mut(k);
                cell.count += v.count;
                cell.ns += v.ns;
            }
        }
        ProfileSnapshot::capture(
            0,
            &format!("node:{}", self.name),
            self.id,
            now,
            &agg,
            &self.registry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterSpec;
    use crate::node::TaskSpec;
    use crate::program::{Op, OpList};
    use crate::sim::Cluster;
    use ktau_core::snapshot::decode_profile;

    fn tiny_cluster() -> Cluster {
        let mut spec = ClusterSpec::chiba(1);
        spec.noise = crate::config::NoiseSpec::silent();
        Cluster::new(spec)
    }

    #[test]
    fn profile_two_phase_read_roundtrips() {
        let mut c = tiny_cluster();
        let pid = c.spawn(
            0,
            TaskSpec::app(
                "worker",
                Box::new(OpList::new(vec![Op::Compute(450_000), Op::SyscallNull])),
            ),
        );
        c.run_until_apps_exit(10_000_000_000);
        let now = c.now();
        let node = c.node(0);
        let size = node.proc_profile_size(pid, now).unwrap();
        let bytes = node.proc_profile_read(pid, size, now).unwrap();
        let snap = decode_profile(&bytes).unwrap();
        assert_eq!(snap.pid, pid.0);
        assert!(snap.kernel_event("sys_getpid").is_some());
    }

    #[test]
    fn undersized_buffer_is_rejected_sessionlessly() {
        let mut c = tiny_cluster();
        let pid = c.spawn(
            0,
            TaskSpec::app("w", Box::new(OpList::new(vec![Op::Compute(1000)]))),
        );
        c.run_until_apps_exit(1_000_000_000);
        let now = c.now();
        let node = c.node(0);
        let size = node.proc_profile_size(pid, now).unwrap();
        let err = node.proc_profile_read(pid, size - 1, now).unwrap_err();
        assert_eq!(err, ProcError::BufferTooSmall { needed: size });
        // And a correctly-sized retry succeeds with no session state.
        assert!(node.proc_profile_read(pid, size, now).is_ok());
    }

    #[test]
    fn unknown_pid_errors() {
        let c = tiny_cluster();
        assert_eq!(
            c.node(0).proc_profile_size(Pid(9999), 0),
            Err(ProcError::NoSuchPid(Pid(9999)))
        );
    }

    #[test]
    fn trace_read_drains_and_requires_tracing() {
        let mut c = tiny_cluster();
        let traced = c.spawn(
            0,
            TaskSpec::app(
                "t",
                Box::new(OpList::new(vec![Op::SyscallNull, Op::SyscallNull])),
            )
            .traced(),
        );
        let plain = c.spawn(
            0,
            TaskSpec::app("p", Box::new(OpList::new(vec![Op::SyscallNull]))),
        );
        c.run_until_apps_exit(1_000_000_000);
        let node = c.node_mut(0);
        let snap = node.proc_trace_read(traced).unwrap();
        assert!(snap.records.iter().any(|r| r.name == "sys_getpid"));
        // Drained: a second read returns nothing new.
        assert!(node.proc_trace_read(traced).unwrap().records.is_empty());
        assert_eq!(
            node.proc_trace_read(plain).unwrap_err(),
            ProcError::NotTraced(plain)
        );
    }

    #[test]
    fn zombie_profile_readable_until_reaped() {
        let mut c = tiny_cluster();
        let pid = c.spawn(
            0,
            TaskSpec::app("z", Box::new(OpList::new(vec![Op::Compute(100)]))),
        );
        c.run_until_apps_exit(1_000_000_000);
        let now = c.now();
        assert!(c.node(0).proc_profile_size(pid, now).is_ok());
        assert!(c.node_mut(0).reap(pid));
        assert!(c.node(0).proc_profile_size(pid, now).is_err());
        assert!(!c.node_mut(0).reap(pid));
    }

    #[test]
    fn live_pids_exclude_zombies_and_gen_tracks_activity() {
        let mut c = tiny_cluster();
        let pid = c.spawn(
            0,
            TaskSpec::app("w", Box::new(OpList::new(vec![Op::SyscallNull]))),
        );
        let g0 = c.node(0).profile_gen(pid).unwrap();
        assert!(c.node(0).proc_live_pids().contains(&pid));
        c.run_until_apps_exit(1_000_000_000);
        assert!(
            c.node(0).profile_gen(pid).unwrap() > g0,
            "probe activity must advance the generation"
        );
        // Dead but unreaped: visible to proc_pids, not to the live sweep.
        assert!(c.node(0).proc_pids().contains(&pid));
        assert!(!c.node(0).proc_live_pids().contains(&pid));
        assert_eq!(
            c.node(0).profile_gen(Pid(9999)),
            Err(ProcError::NoSuchPid(Pid(9999)))
        );
    }

    #[test]
    fn cpuinfo_reflects_detected_cpus() {
        let mut spec = ClusterSpec::chiba(2);
        spec.noise = crate::config::NoiseSpec::silent();
        std::sync::Arc::make_mut(&mut spec.nodes[1]).detected_cpus = Some(1);
        let c = Cluster::new(spec);
        assert_eq!(c.node(0).proc_cpuinfo().matches("processor").count(), 2);
        assert_eq!(c.node(1).proc_cpuinfo().matches("processor").count(), 1);
    }
}
