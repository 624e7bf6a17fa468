//! libKtau — the user-space access library (paper §4.4).
//!
//! "The KTAU User API provides access to a small set of easy-to-use
//! functions that hide the details of the KTAU proc filesystem protocol."
//! Every profile read goes through the session-less two-phase size/read
//! protocol against `/proc/ktau/profile`, retrying when the data grows
//! between the calls, exactly as a real client must.

use ktau_core::snapshot::{decode_profile, EncodedProfile, ProfileSnapshot, TraceSnapshot};
use ktau_core::Group;
use ktau_oskern::{Cluster, Pid, ProcError, TaskKind};

/// Which processes an access targets (the paper's libKtau `self`/`other`/
/// `all` modes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessMode {
    /// One specific process.
    Other(Pid),
    /// Every process on the node (daemons, idle threads, zombies included).
    All,
    /// Application processes only.
    Apps,
}

/// Errors surfaced to libKtau callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KtauError {
    /// The proc interface refused the request.
    Proc(ProcError),
    /// Retried reads kept racing profile growth.
    TooManyRetries,
    /// Payload failed to decode (kernel/user version skew).
    Decode(String),
}

impl From<ProcError> for KtauError {
    fn from(e: ProcError) -> Self {
        KtauError::Proc(e)
    }
}

impl std::fmt::Display for KtauError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KtauError::Proc(e) => write!(f, "procfs: {e}"),
            KtauError::TooManyRetries => write!(f, "profile kept growing between size and read"),
            KtauError::Decode(e) => write!(f, "decode: {e}"),
        }
    }
}

impl std::error::Error for KtauError {}

/// Reads one process profile through the session-less two-phase protocol.
pub fn ktau_get_profile(
    cluster: &Cluster,
    node: u32,
    pid: Pid,
) -> Result<ProfileSnapshot, KtauError> {
    ktau_get_profile_bytes(cluster, node, pid, 0).map(|(_, snap)| snap)
}

/// [`ktau_get_profile`] returning the raw `/proc/ktau/profile` bytes along
/// with their decode.
pub fn ktau_get_profile_bytes(
    cluster: &Cluster,
    node: u32,
    pid: Pid,
    size_hint: usize,
) -> Result<(Vec<u8>, ProfileSnapshot), KtauError> {
    let bytes = read_profile_raw(cluster, node, pid, size_hint)?;
    let snap = decode_profile(&bytes).map_err(decode_err)?;
    Ok((bytes, snap))
}

/// Reads one process profile as an [`EncodedProfile`]: the raw bytes,
/// checked and indexed by row but not decoded — what the KTAUD service
/// stores, diffs and ships.
pub fn ktau_read_profile(
    cluster: &Cluster,
    node: u32,
    pid: Pid,
    size_hint: usize,
) -> Result<EncodedProfile, KtauError> {
    EncodedProfile::parse(read_profile_raw(cluster, node, pid, size_hint)?).map_err(decode_err)
}

/// The raw two-phase read: `/proc/ktau/profile` bytes, undecoded.
///
/// `size_hint` is the caller's guess at the profile's encoded size, e.g.
/// the size of the previous read of the same pid; `0` asks the size query
/// first.  A sufficient hint saves the size pass (and its encode) — how a
/// periodic daemon really amortizes the two-phase protocol.  A stale hint
/// just costs one `BufferTooSmall` retry.
fn read_profile_raw(
    cluster: &Cluster,
    node: u32,
    pid: Pid,
    size_hint: usize,
) -> Result<Vec<u8>, KtauError> {
    let now = cluster.now();
    let n = cluster.node(node);
    let mut size = if size_hint > 0 {
        size_hint
    } else {
        n.proc_profile_size(pid, now)?
    };
    for _ in 0..8 {
        match n.proc_profile_read(pid, size, now) {
            Ok(bytes) => return Ok(bytes),
            Err(ProcError::BufferTooSmall { needed }) => size = needed,
            Err(e) => return Err(e.into()),
        }
    }
    Err(KtauError::TooManyRetries)
}

fn decode_err(e: ktau_core::snapshot::CodecError) -> KtauError {
    KtauError::Decode(e.to_string())
}

/// Reads profiles for a set of processes per the access mode.
pub fn ktau_get_profiles(
    cluster: &Cluster,
    node: u32,
    mode: &AccessMode,
) -> Result<Vec<ProfileSnapshot>, KtauError> {
    let pids: Vec<Pid> = match mode {
        AccessMode::Other(pid) => vec![*pid],
        AccessMode::All => cluster.node(node).proc_pids(),
        AccessMode::Apps => cluster
            .node(node)
            .proc_pids()
            .into_iter()
            .filter(|&p| {
                cluster
                    .node(node)
                    .task(p)
                    .map(|t| t.kind == TaskKind::App)
                    .unwrap_or(false)
            })
            .collect(),
    };
    pids.into_iter()
        .map(|p| ktau_get_profile(cluster, node, p))
        .collect()
}

/// Drains one process's kernel trace buffer (`/proc/ktau/trace`).
pub fn ktau_get_trace(
    cluster: &mut Cluster,
    node: u32,
    pid: Pid,
) -> Result<TraceSnapshot, KtauError> {
    Ok(cluster.node_mut(node).proc_trace_read(pid)?)
}

/// Kernel control (paper: "libKtau provides functions for kernel control"):
/// toggles an instrumentation group at runtime on one node, without reboot
/// or recompilation.  Returns whether the group is now measuring.
pub fn ktau_set_group(cluster: &mut Cluster, node: u32, group: Group, on: bool) -> bool {
    let ctl = cluster.node_mut(node).engine.control_mut();
    if on {
        ctl.runtime_enable(group)
    } else {
        ctl.runtime_disable(group);
        false
    }
}

/// Resets a process's accumulated profile (overhead-calculation helper).
pub fn ktau_reset_profile(cluster: &mut Cluster, node: u32, pid: Pid) -> Result<(), KtauError> {
    let t = cluster
        .node_mut(node)
        .task_mut(pid)
        .ok_or(KtauError::Proc(ProcError::NoSuchPid(pid)))?;
    t.meas.kernel.reset();
    t.meas.user.reset();
    t.meas.merged.clear();
    // A reset changes observable content without running any probe, so
    // dirty-mark it or a generation-skipping monitor would never notice.
    t.meas.mark_dirty();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktau_oskern::{ClusterSpec, NoiseSpec, Op, OpList, TaskSpec};

    fn cluster_with_task() -> (Cluster, Pid) {
        let mut s = ClusterSpec::chiba(1);
        s.noise = NoiseSpec::silent();
        let mut c = Cluster::new(s);
        let pid = c.spawn(
            0,
            TaskSpec::app(
                "w",
                Box::new(OpList::new(vec![Op::SyscallNull, Op::Compute(450_000)])),
            )
            .traced(),
        );
        c.run_until_apps_exit(10_000_000_000);
        (c, pid)
    }

    #[test]
    fn get_profile_roundtrips_through_procfs() {
        let (c, pid) = cluster_with_task();
        let p = ktau_get_profile(&c, 0, pid).unwrap();
        assert_eq!(p.pid, pid.0);
        assert!(p.kernel_event("sys_getpid").is_some());
    }

    #[test]
    fn all_mode_includes_idle_threads() {
        let (c, _) = cluster_with_task();
        let all = ktau_get_profiles(&c, 0, &AccessMode::All).unwrap();
        assert!(all.len() >= 3); // 2 swappers + app
        let apps = ktau_get_profiles(&c, 0, &AccessMode::Apps).unwrap();
        assert_eq!(apps.len(), 1);
    }

    #[test]
    fn trace_read_is_destructive() {
        let (mut c, pid) = cluster_with_task();
        let t1 = ktau_get_trace(&mut c, 0, pid).unwrap();
        assert!(!t1.records.is_empty());
        let t2 = ktau_get_trace(&mut c, 0, pid).unwrap();
        assert!(t2.records.is_empty());
    }

    #[test]
    fn runtime_group_control_round_trips() {
        let (mut c, _) = cluster_with_task();
        assert!(!ktau_set_group(&mut c, 0, Group::Tcp, false));
        assert!(ktau_set_group(&mut c, 0, Group::Tcp, true));
    }

    #[test]
    fn reset_clears_profiles() {
        let (mut c, pid) = cluster_with_task();
        ktau_reset_profile(&mut c, 0, pid).unwrap();
        let p = ktau_get_profile(&c, 0, pid).unwrap();
        assert!(p.kernel_events.is_empty());
        assert!(
            ktau_reset_profile(&mut c, 0, Pid(999)).is_err(),
            "unknown pid must error"
        );
    }
}
