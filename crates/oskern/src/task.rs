//! Tasks: the simulated process control block.
//!
//! On process creation KTAU "adds a measurement structure to the process's
//! task structure in the Linux process control block" — here that is the
//! [`ktau_core::TaskMeasurement`] field of [`Task`].

use crate::counters::TaskCounters;
use crate::program::{Op, Program};
use ktau_core::event::{EventId, Group};
use ktau_core::measure::TaskMeasurement;
use ktau_core::time::{Cycles, Ns};
use ktau_core::wire::{CodecError, Reader, Writer};
use ktau_net::ConnId;

/// Per-node process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What kind of process this is (used by views and placement, not by the
/// scheduler itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// An application process (e.g. an MPI rank).
    App,
    /// A background daemon.
    Daemon,
    /// A per-CPU idle thread (`swapper`).
    Idle,
}

/// Scheduler-visible task state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Executing on a CPU.
    Running,
    /// On a runqueue waiting for a CPU.
    Runnable,
    /// Blocked on I/O, sleep, or an event.
    Blocked,
    /// Exited; kept as a zombie so its profile remains readable.
    Dead,
}

/// Why a task last left a CPU — determines whether its next switch-in is
/// recorded as `schedule` (involuntary) or `schedule_vol` (voluntary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchOutReason {
    /// Preempted: time-slice expiry or a higher-priority runnable task.
    Preempted,
    /// Blocked or slept or yielded of its own accord.
    Voluntary,
}

/// What a task is blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOn {
    /// Waiting for receive data on a connection.
    RxData(ConnId),
    /// Waiting for sndbuf space on a connection.
    TxSpace(ConnId),
    /// Sleeping until a timer fires.
    Timer,
}

/// Retry/timeout budget carried by a timed send ([`Op::SendTimed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendRetry {
    /// Absolute deadline for the current attempt; 0 = not yet armed.
    pub deadline: Ns,
    /// Retries still allowed after the current attempt times out.
    pub left: u32,
    /// Per-attempt timeout.
    pub timeout_ns: Ns,
}

/// In-progress execution state of the current op (survives preemption and
/// blocking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpState {
    /// No op in progress; ask the program for the next one.
    Fetch,
    /// User-mode compute with cycles still to burn.
    Computing {
        /// Remaining cycles of the burst.
        remaining: Cycles,
    },
    /// In `sys_writev`, trying to reserve sndbuf space.
    SendReserving {
        /// Connection being written.
        conn: ConnId,
        /// Payload bytes still to hand to the socket.
        remaining: u64,
        /// Timeout/retry budget when this is a timed send.
        retry: Option<SendRetry>,
    },
    /// In `tcp_sendmsg`, CPU busy segmenting an accepted chunk; afterwards
    /// either loop back to reserving or finish the syscall.
    SendProcessing {
        /// Connection being written.
        conn: ConnId,
        /// Payload bytes that will still be unqueued when this chunk is done.
        remaining_after: u64,
        /// Timeout/retry budget when this is a timed send.
        retry: Option<SendRetry>,
    },
    /// In `sys_read`, waiting for data (blocked if none available).
    RecvWaiting {
        /// Connection being read.
        conn: ConnId,
        /// Payload bytes still wanted by this `Recv` op.
        remaining: u64,
    },
    /// In `sys_read`, CPU busy copying a chunk to user space.
    RecvCopying {
        /// Connection being read.
        conn: ConnId,
        /// Bytes still wanted after this copy completes.
        remaining_after: u64,
    },
    /// In `sys_nanosleep`.
    Sleeping,
    /// Kernel busy on a miscellaneous syscall/exception/signal path; on
    /// completion, fetch the next op.
    KernelBusy,
    /// The program is done.
    Exited,
}

/// The task structure.
#[derive(Clone)]
pub struct Task {
    /// Process id (per node).
    pub pid: Pid,
    /// Command name.
    pub comm: String,
    /// Process kind.
    pub kind: TaskKind,
    /// Scheduler state.
    pub state: TaskState,
    /// Allowed CPUs as a bitmask (`cpu_affinity`); pinning sets one bit.
    pub affinity: u32,
    /// CPU the task last ran on (weak affinity).
    pub last_cpu: u8,
    /// Remaining time-slice in ticks.
    pub slice_left: u32,
    /// Why the task last left a CPU.
    pub out_reason: SwitchOutReason,
    /// When the task last left a CPU (or became runnable for first run).
    pub out_since: Ns,
    /// What the task is blocked on, when [`TaskState::Blocked`].
    pub blocked_on: Option<BlockedOn>,
    /// Execution state of the current op.
    pub op: OpState,
    /// The program body (None for idle threads).
    pub program: Option<Box<dyn Program>>,
    /// KTAU + TAU measurement structure (the PCB extension).
    pub meas: TaskMeasurement,
    /// OS performance counters.
    pub counters: TaskCounters,
    /// Total CPU time consumed, for activity views.
    pub cpu_ns: Ns,
    /// Virtual time of task creation.
    pub created_ns: Ns,
    /// Virtual time of exit (0 while alive).
    pub exited_ns: Ns,
    /// Probe to close when a [`OpState::KernelBusy`] chunk completes.
    pub pending_kernel_exit: Option<(EventId, Group)>,
    /// Diagnostic recorded when the task aborted abnormally (e.g. a timed
    /// send exhausted its retry budget); `None` on clean exit.
    pub last_error: Option<String>,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("pid", &self.pid)
            .field("comm", &self.comm)
            .field("state", &self.state)
            .field("op", &self.op)
            .finish_non_exhaustive()
    }
}

impl Task {
    /// Creates a runnable task.
    pub fn new(
        pid: Pid,
        comm: impl Into<String>,
        kind: TaskKind,
        program: Option<Box<dyn Program>>,
        affinity: u32,
        meas: TaskMeasurement,
        now: Ns,
    ) -> Self {
        Task {
            pid,
            comm: comm.into(),
            kind,
            state: TaskState::Runnable,
            affinity,
            last_cpu: 0,
            slice_left: 0,
            out_reason: SwitchOutReason::Voluntary,
            out_since: now,
            blocked_on: None,
            op: OpState::Fetch,
            program,
            meas,
            counters: TaskCounters::default(),
            cpu_ns: 0,
            created_ns: now,
            exited_ns: 0,
            pending_kernel_exit: None,
            last_error: None,
        }
    }

    /// True when the task may run on `cpu`.
    #[inline]
    pub fn allowed_on(&self, cpu: u8) -> bool {
        self.affinity & (1 << cpu) != 0
    }

    /// Fetches the next op from the program; idle threads and finished
    /// programs report `Exit` (idle threads are never asked in practice).
    pub fn fetch_op(&mut self) -> Op {
        match self.program.as_mut() {
            Some(p) => p.next_op(),
            None => Op::Exit,
        }
    }

    /// An affinity mask allowing every CPU.
    pub const ANY_CPU: u32 = u32::MAX;

    /// An affinity mask pinning to one CPU.
    pub fn pin_mask(cpu: u8) -> u32 {
        1 << cpu
    }

    /// Serializes every plain field of the task for engine snapshots.  The
    /// program body is not byte-serializable (closures); only its presence
    /// is recorded, and [`crate::snapshot::ClusterSnapshot`] carries the
    /// deep-cloned program in an in-memory side-car instead.
    pub(crate) fn encode_wire(&self, w: &mut Writer) {
        w.u32(self.pid.0);
        w.str(&self.comm);
        w.u8(match self.kind {
            TaskKind::App => 0,
            TaskKind::Daemon => 1,
            TaskKind::Idle => 2,
        });
        encode_state(w, self.state);
        w.u32(self.affinity);
        w.u8(self.last_cpu);
        w.u32(self.slice_left);
        w.u8(match self.out_reason {
            SwitchOutReason::Preempted => 0,
            SwitchOutReason::Voluntary => 1,
        });
        w.u64(self.out_since);
        match self.blocked_on {
            None => w.u8(0),
            Some(BlockedOn::RxData(c)) => {
                w.u8(1);
                w.u32(c.0);
            }
            Some(BlockedOn::TxSpace(c)) => {
                w.u8(2);
                w.u32(c.0);
            }
            Some(BlockedOn::Timer) => w.u8(3),
        }
        encode_op_state(w, &self.op);
        w.bool(self.program.is_some());
        self.meas.encode_wire(w);
        encode_counters(w, &self.counters);
        w.u64(self.cpu_ns);
        w.u64(self.created_ns);
        w.u64(self.exited_ns);
        match self.pending_kernel_exit {
            None => w.u8(0),
            Some((ev, g)) => {
                w.u8(1);
                w.u32(ev.0);
                w.u8(crate::snapshot::group_tag(g));
            }
        }
        match &self.last_error {
            None => w.u8(0),
            Some(s) => {
                w.u8(1);
                w.str(s);
            }
        }
    }

    /// Names of the sections [`Task::encode_observable`] writes, in order.
    pub(crate) const OBSERVABLE_SECTIONS: [&'static str; 7] = [
        "sched/op", "counters", "kernel", "user", "trace", "merged", "wall",
    ];

    /// Serializes the task's externally observable state, which engine
    /// state digests hash: pid, CPU time, comm, scheduler state and op
    /// (section `sched/op`), the counters, then the measurement sections
    /// of [`TaskMeasurement::encode_observable`] — the same encoders the
    /// image uses.  `end` is called with the writer after each of the
    /// [`Task::OBSERVABLE_SECTIONS`].
    pub(crate) fn encode_observable(&self, w: &mut Writer, mut end: impl FnMut(&Writer)) {
        w.u32(self.pid.0);
        w.u64(self.cpu_ns);
        w.str(&self.comm);
        encode_state(w, self.state);
        encode_op_state(w, &self.op);
        end(w);
        encode_counters(w, &self.counters);
        end(w);
        self.meas.encode_observable(w, end);
    }

    /// Inverse of [`Task::encode_wire`].  Returns the task (with `program`
    /// set to `None`) and whether the captured task had a program attached —
    /// the caller re-attaches the side-car clone under that flag.
    pub(crate) fn decode_wire(r: &mut Reader<'_>) -> Result<(Task, bool), CodecError> {
        let pid = Pid(r.u32()?);
        let comm = r.str()?;
        let kind = match r.u8()? {
            0 => TaskKind::App,
            1 => TaskKind::Daemon,
            2 => TaskKind::Idle,
            _ => return Err(CodecError::BadField("task kind")),
        };
        let state = match r.u8()? {
            0 => TaskState::Running,
            1 => TaskState::Runnable,
            2 => TaskState::Blocked,
            3 => TaskState::Dead,
            _ => return Err(CodecError::BadField("task state")),
        };
        let affinity = r.u32()?;
        let last_cpu = r.u8()?;
        let slice_left = r.u32()?;
        let out_reason = match r.u8()? {
            0 => SwitchOutReason::Preempted,
            1 => SwitchOutReason::Voluntary,
            _ => return Err(CodecError::BadField("out reason")),
        };
        let out_since = r.u64()?;
        let blocked_on = match r.u8()? {
            0 => None,
            1 => Some(BlockedOn::RxData(ConnId(r.u32()?))),
            2 => Some(BlockedOn::TxSpace(ConnId(r.u32()?))),
            3 => Some(BlockedOn::Timer),
            _ => return Err(CodecError::BadField("blocked_on")),
        };
        let op = decode_op_state(r)?;
        let has_program = r.bool()?;
        let meas = TaskMeasurement::decode_wire(r)?;
        let counters = TaskCounters {
            migrations: r.u64()?,
            preemptions: r.u64()?,
            voluntary_switches: r.u64()?,
            syscalls: r.u64()?,
            page_faults: r.u64()?,
            signals: r.u64()?,
            wakeups: r.u64()?,
            interrupts: r.u64()?,
            send_timeouts: r.u64()?,
        };
        let cpu_ns = r.u64()?;
        let created_ns = r.u64()?;
        let exited_ns = r.u64()?;
        let pending_kernel_exit = match r.u8()? {
            0 => None,
            1 => {
                let ev = EventId(r.u32()?);
                let g = crate::snapshot::group_from_tag(r.u8()?)?;
                Some((ev, g))
            }
            _ => return Err(CodecError::BadField("pending kernel exit")),
        };
        let last_error = match r.u8()? {
            0 => None,
            1 => Some(r.str()?),
            _ => return Err(CodecError::BadField("last error")),
        };
        Ok((
            Task {
                pid,
                comm,
                kind,
                state,
                affinity,
                last_cpu,
                slice_left,
                out_reason,
                out_since,
                blocked_on,
                op,
                program: None,
                meas,
                counters,
                cpu_ns,
                created_ns,
                exited_ns,
                pending_kernel_exit,
                last_error,
            },
            has_program,
        ))
    }
}

fn encode_state(w: &mut Writer, state: TaskState) {
    w.u8(match state {
        TaskState::Running => 0,
        TaskState::Runnable => 1,
        TaskState::Blocked => 2,
        TaskState::Dead => 3,
    });
}

fn encode_counters(w: &mut Writer, c: &TaskCounters) {
    for v in [
        c.migrations,
        c.preemptions,
        c.voluntary_switches,
        c.syscalls,
        c.page_faults,
        c.signals,
        c.wakeups,
        c.interrupts,
        c.send_timeouts,
    ] {
        w.u64(v);
    }
}

fn encode_retry_opt(w: &mut Writer, retry: &Option<SendRetry>) {
    match retry {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            w.u64(s.deadline);
            w.u32(s.left);
            w.u64(s.timeout_ns);
        }
    }
}

fn decode_retry_opt(r: &mut Reader<'_>) -> Result<Option<SendRetry>, CodecError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(SendRetry {
            deadline: r.u64()?,
            left: r.u32()?,
            timeout_ns: r.u64()?,
        }),
        _ => return Err(CodecError::BadField("send retry")),
    })
}

fn encode_op_state(w: &mut Writer, op: &OpState) {
    match *op {
        OpState::Fetch => w.u8(0),
        OpState::Computing { remaining } => {
            w.u8(1);
            w.u64(remaining);
        }
        OpState::SendReserving {
            conn,
            remaining,
            ref retry,
        } => {
            w.u8(2);
            w.u32(conn.0);
            w.u64(remaining);
            encode_retry_opt(w, retry);
        }
        OpState::SendProcessing {
            conn,
            remaining_after,
            ref retry,
        } => {
            w.u8(3);
            w.u32(conn.0);
            w.u64(remaining_after);
            encode_retry_opt(w, retry);
        }
        OpState::RecvWaiting { conn, remaining } => {
            w.u8(4);
            w.u32(conn.0);
            w.u64(remaining);
        }
        OpState::RecvCopying {
            conn,
            remaining_after,
        } => {
            w.u8(5);
            w.u32(conn.0);
            w.u64(remaining_after);
        }
        OpState::Sleeping => w.u8(6),
        OpState::KernelBusy => w.u8(7),
        OpState::Exited => w.u8(8),
    }
}

fn decode_op_state(r: &mut Reader<'_>) -> Result<OpState, CodecError> {
    Ok(match r.u8()? {
        0 => OpState::Fetch,
        1 => OpState::Computing {
            remaining: r.u64()?,
        },
        2 => OpState::SendReserving {
            conn: ConnId(r.u32()?),
            remaining: r.u64()?,
            retry: decode_retry_opt(r)?,
        },
        3 => OpState::SendProcessing {
            conn: ConnId(r.u32()?),
            remaining_after: r.u64()?,
            retry: decode_retry_opt(r)?,
        },
        4 => OpState::RecvWaiting {
            conn: ConnId(r.u32()?),
            remaining: r.u64()?,
        },
        5 => OpState::RecvCopying {
            conn: ConnId(r.u32()?),
            remaining_after: r.u64()?,
        },
        6 => OpState::Sleeping,
        7 => OpState::KernelBusy,
        8 => OpState::Exited,
        _ => return Err(CodecError::BadField("op state")),
    })
}

/// Dense task slab indexed directly by pid.
///
/// Pids are handed out densely from 1 per node (idle threads first, then
/// spawns), so a flat `Vec<Option<Task>>` replaces the previous
/// `BTreeMap<Pid, Task>` on every scheduler/probe hot path: O(1) pointer
/// arithmetic instead of a tree walk per access.  Iteration stays in
/// ascending-pid order — identical to the map's — which snapshot and report
/// code depends on.  Reaped zombies leave a `None` slot behind.
#[derive(Debug, Default, Clone)]
pub struct TaskTable {
    slots: Vec<Option<Task>>,
}

impl TaskTable {
    /// An empty table.
    pub fn new() -> Self {
        TaskTable::default()
    }

    /// Inserts `task` under `pid` (slots grow to fit; pids are dense so the
    /// table stays compact).
    pub fn insert(&mut self, pid: Pid, task: Task) {
        let i = pid.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(task);
    }

    /// The task under `pid`, if present.
    #[inline]
    pub fn get(&self, pid: Pid) -> Option<&Task> {
        self.slots.get(pid.0 as usize).and_then(Option::as_ref)
    }

    /// Mutable access to the task under `pid`.
    #[inline]
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut Task> {
        self.slots.get_mut(pid.0 as usize).and_then(Option::as_mut)
    }

    /// Removes and returns the task under `pid`.
    pub fn remove(&mut self, pid: Pid) -> Option<Task> {
        self.slots.get_mut(pid.0 as usize).and_then(Option::take)
    }

    /// Live tasks in ascending-pid order.
    pub fn values(&self) -> impl Iterator<Item = &Task> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// `(pid, task)` pairs in ascending-pid order.
    pub fn iter(&self) -> impl Iterator<Item = (Pid, &Task)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (Pid(i as u32), t)))
    }

    /// Pids of live tasks in ascending order.
    pub fn pids(&self) -> Vec<Pid> {
        self.iter().map(|(p, _)| p).collect()
    }

    /// The raw slot array (index = pid), `None` holes included.  Engine
    /// snapshots must reproduce reaped-zombie holes and trailing empty
    /// slots exactly, so they walk slots rather than live tasks.
    pub(crate) fn slots(&self) -> &[Option<Task>] {
        &self.slots
    }

    /// Rebuilds a table from a raw slot array (engine snapshot resume).
    pub(crate) fn from_slots(slots: Vec<Option<Task>>) -> Self {
        TaskTable { slots }
    }
}

impl std::ops::Index<Pid> for TaskTable {
    type Output = Task;
    #[inline]
    fn index(&self, pid: Pid) -> &Task {
        self.get(pid).expect("no task for pid")
    }
}

impl std::ops::Index<&Pid> for TaskTable {
    type Output = Task;
    #[inline]
    fn index(&self, pid: &Pid) -> &Task {
        self.get(*pid).expect("no task for pid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::OpList;

    fn mk(affinity: u32) -> Task {
        Task::new(
            Pid(7),
            "t",
            TaskKind::App,
            Some(Box::new(OpList::new(vec![Op::Compute(5)]))),
            affinity,
            TaskMeasurement::profiling(),
            0,
        )
    }

    #[test]
    fn affinity_mask_checks() {
        let t = mk(Task::pin_mask(1));
        assert!(!t.allowed_on(0));
        assert!(t.allowed_on(1));
        let t = mk(Task::ANY_CPU);
        assert!(t.allowed_on(0) && t.allowed_on(31));
    }

    #[test]
    fn fetch_op_walks_program() {
        let mut t = mk(Task::ANY_CPU);
        assert_eq!(t.fetch_op(), Op::Compute(5));
        assert_eq!(t.fetch_op(), Op::Exit);
    }

    #[test]
    fn idle_task_has_no_program() {
        let mut t = Task::new(
            Pid(0),
            "swapper/0",
            TaskKind::Idle,
            None,
            Task::pin_mask(0),
            TaskMeasurement::profiling(),
            0,
        );
        assert_eq!(t.fetch_op(), Op::Exit);
    }
}
