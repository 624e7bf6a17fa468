//! One simulated SMP node: CPUs, runqueues, the scheduler, system calls,
//! interrupt and softirq handling, and the in-kernel ends of the network
//! stack — with KTAU instrumentation points compiled in at the same places
//! the paper patches Linux.

use crate::config::{DegradeSpec, IrqPolicy, NodeSpec, SchedParams};
use crate::probes::KernelProbes;
use crate::program::{Op, Program};
use crate::sim::{Event, EventQueue};
use crate::task::{
    BlockedOn, OpState, Pid, SendRetry, SwitchOutReason, Task, TaskKind, TaskState, TaskTable,
};
use ktau_core::event::{EventId, EventKind, EventRegistry, Group};
use ktau_core::measure::{ProbeEngine, TaskMeasurement};
use ktau_core::time::{CpuFreq, Cycles, FreqConv, Ns};
use ktau_net::{
    segment_sizes, Fabric, LinkInjector, NetCostModel, Nic, SegmentFate, SocketRx, SocketTx,
    WIRE_OVERHEAD,
};
use std::collections::{BTreeMap, VecDeque};

/// Per-CPU state.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// CPU index within the node.
    pub id: u8,
    /// Currently running task (`None` = idle).
    pub current: Option<Pid>,
    /// The per-CPU idle thread, for attribution of interrupt-context work
    /// while idle.
    pub idle_pid: Pid,
    /// Generation counter invalidating stale `CpuDone` events.
    pub gen: u64,
    /// Interrupt/tick time stolen from the in-flight chunk, consumed when
    /// its `CpuDone` fires.
    pub steal_ns: Ns,
    /// Small pending costs (context switches, probe calls made while
    /// dispatching) folded into the next chunk.
    pub carry_cycles: Cycles,
    /// End of the current time-slice.
    pub slice_end: Ns,
    /// When the current task was switched in.
    pub in_since: Ns,
    /// When the CPU last became idle.
    pub idle_since: Ns,
    /// Accumulated idle time.
    pub idle_ns: Ns,
    /// True when a `CpuDone` is outstanding for the current chunk.
    pub chunk_pending: bool,
}

/// Sender-side retransmission state, present only on fault-injected links.
/// Fault-free connections carry `None` and take none of these code paths,
/// which is what keeps zero-rate fault plans bit-identical to a fault-free
/// build: no extra events are ever pushed.
#[derive(Clone)]
struct TxFault {
    injector: LinkInjector,
    /// Base retransmission timeout (before backoff).
    rto_ns: Ns,
    /// Sent-but-unacked segments (seq → payload), the retransmit queue.
    unacked: BTreeMap<u64, u32>,
    /// Timer generation; re-arming or cancelling bumps it so stale
    /// `RtxTimer` events are ignored.
    timer_gen: u64,
    timer_armed: bool,
    /// Exponential-backoff exponent applied to `rto_ns`.
    backoff: u32,
    /// Segments retransmitted so far.
    retransmits: u64,
    /// Times the retransmission timer handler actually ran.
    timer_fires: u64,
}

#[derive(Clone)]
struct TxState {
    tx: SocketTx,
    waiting_writer: Option<Pid>,
    /// Retransmission machinery, when the link has a fault injector.
    fault: Option<TxFault>,
    /// Dynticks engine: NIC-serialization completions (`TxDone` in the
    /// per-tick engines) booked as `(completion time, payload)` instead of
    /// scheduled as events.  Entries are time-ordered (NIC serialization is
    /// FIFO) and applied lazily before every sndbuf reservation.
    pending_release: VecDeque<(Ns, u32)>,
}

#[derive(Clone)]
struct RxState {
    rx: SocketRx,
    waiting_reader: Option<Pid>,
    /// The conn's habitual reader, for the cross-CPU cache penalty.
    reader_pid: Option<Pid>,
    /// Localhost connection: delivery skips the NIC hard-IRQ path.
    loopback: bool,
    /// Delayed-ACK parity: an ACK is generated every second data segment.
    ack_pending: u8,
    /// Lossy link: ACK every segment so the sender sees duplicate ACKs and
    /// cumulative-ack progress promptly.
    fault_active: bool,
}

/// Diagnostic snapshot of a connection's send side (see
/// [`Node::tx_conn_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxConnStats {
    /// Bytes queued in the sndbuf.
    pub in_flight: u64,
    /// Free sndbuf space.
    pub free: u64,
    /// Segments sent but not yet cumulatively acked (fault links only).
    pub unacked: usize,
    /// Segments retransmitted so far.
    pub retransmits: u64,
    /// Retransmission-timer firings.
    pub timer_fires: u64,
}

/// Diagnostic snapshot of a connection's receive side (see
/// [`Node::rx_conn_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxConnStats {
    /// Bytes readable right now.
    pub available: u64,
    /// Next in-order sequence number (the cumulative ack).
    pub expected_seq: u64,
    /// Out-of-order segments parked in the reassembly queue.
    pub buffered_segments: usize,
    /// Segments refused because the rcvbuf was full.
    pub refused_segments: u64,
    /// Wire duplicates discarded.
    pub duplicate_segments: u64,
}

/// In-kernel latency of a localhost segment.
const LOOPBACK_LATENCY_NS: Ns = 5_000;

/// Spacing between a segment and its wire duplicate.
const DUP_GAP_NS: Ns = 20_000;

/// Cap on the exponential retransmission backoff (rto << backoff).
const MAX_RTX_BACKOFF: u32 = 6;

/// A simulated node (one kernel instance).
#[derive(Clone)]
pub struct Node {
    /// Node index within the cluster.
    pub id: u32,
    /// Host name.
    pub name: String,
    /// Static spec.
    pub spec: std::sync::Arc<NodeSpec>,
    /// CPUs the OS detected and uses.
    pub online: u8,
    /// CPU clock.
    pub freq: CpuFreq,
    /// Division-free cycles↔ns converter derived from `freq` (the clock is
    /// fixed for the node's lifetime); bit-identical to converting through
    /// `freq` directly.
    conv: FreqConv,
    pub(crate) cpus: Vec<Cpu>,
    pub(crate) runqueues: Vec<VecDeque<Pid>>,
    pub(crate) tasks: TaskTable,
    next_pid: u32,
    /// Kernel event registry (the event-mapping table).
    pub registry: EventRegistry,
    /// Pre-registered kernel probe ids.
    pub probes: KernelProbes,
    /// KTAU measurement engine.
    pub engine: ProbeEngine,
    pub(crate) nic: Nic,
    /// Socket send states, indexed by the dense cluster-global `ConnId`
    /// ([`Fabric::open`] hands ids out sequentially, so a flat slab beats a
    /// hash lookup on every segment/ack/txdone).
    sock_tx: Vec<Option<TxState>>,
    /// Socket receive states, same dense `ConnId` indexing.
    sock_rx: Vec<Option<RxState>>,
    irq_rr: u8,
    pub(crate) sched: SchedParams,
    pub(crate) net_costs: NetCostModel,
    sndbuf_bytes: u64,
    trace_capacity: Option<usize>,
    /// App tasks that exited (drives cluster completion tracking).
    pub(crate) apps_exited: u64,
    /// App tasks ever spawned here.  Part of the snapshot image; zombie
    /// reaping must not disturb it.
    pub(crate) apps_spawned: u64,
    /// Node-degradation fault spec, if this node is configured to fail.
    pub(crate) degrade: Option<DegradeSpec>,
    /// Cached `(cost_gen, d, steal_each)` figures for the dynticks tick
    /// fold, derived from the probe engine's control/overhead configuration
    /// and revalidated against [`ProbeEngine::cost_gen`] — the fold fires
    /// millions of times per run and the derivation costs two divisions.
    fold_costs: Option<(u64, Ns, Ns)>,
    /// The late-onset CPU removal already happened.
    offline_done: bool,
    /// Dynticks (NO_HZ-style) engine enabled: coalescible ticks park in
    /// `parked_tick` and `TxDone` bookkeeping folds into release ledgers.
    pub(crate) dynticks: bool,
    /// Per-CPU parked tick lane: the next tick's fire time while the lane is
    /// parked out of the event queue (`None` = armed normally or offlined).
    parked_tick: Vec<Option<Ns>>,
    /// Monotonic scheduler-state generation: bumped whenever the inputs to
    /// `tick_coalescible` change (runqueues, per-CPU `current`, affinities,
    /// the online count).  Parked lanes cache the generation at which they
    /// were last judged coalescible so the runqueue-scanning predicate is
    /// skipped on the per-event fast path when nothing relevant moved.
    pub(crate) sched_gen: u64,
    /// Per-lane `sched_gen` at which the parked lane was last judged
    /// coalescible (only meaningful while the lane is parked).
    parked_gen: Vec<u64>,
    /// Push point of each parked lane's next tick: the simulated time at
    /// which the reference engine pushed that tick (one period before it
    /// fires for re-armed ticks; 0 for the boot arming).  Replayed into
    /// same-nanosecond tie-breaks and onto re-pushes so parked ticks keep
    /// their exact reference rank.
    parked_point: Vec<Ns>,
    /// `sched_gen` at the last `arm_uncoalescible` scan: when unchanged, no
    /// parked lane's verdict can have moved, so the per-event scan skips.
    armed_gen: u64,
    /// Earliest fire time across parked lanes (`u64::MAX` when none are
    /// parked): a one-compare fast path for `settle_parked`.
    parked_min: Ns,
    /// Ticks whose handler effect was folded analytically.
    pub(crate) ticks_coalesced: u64,
    /// `TxDone` events replaced by release-ledger entries.
    pub(crate) txdone_elided: u64,
    /// Interned user-routine name → event id pairs.  The handful of distinct
    /// `&'static str` routine names makes a scanned list with a
    /// pointer-equality fast path cheaper than hashing the string per call.
    user_events: Vec<(&'static str, EventId)>,
}

/// How to place a new task.
pub struct TaskSpec {
    /// Command name.
    pub comm: String,
    /// App or daemon.
    pub kind: TaskKind,
    /// The program body.
    pub program: Box<dyn Program>,
    /// Pin to a specific CPU (sets a single-bit affinity mask).
    pub pin: Option<u8>,
    /// Allocate a trace buffer for this process.
    pub traced: bool,
}

impl TaskSpec {
    /// An unpinned, untraced app task.
    pub fn app(comm: impl Into<String>, program: Box<dyn Program>) -> Self {
        TaskSpec {
            comm: comm.into(),
            kind: TaskKind::App,
            program,
            pin: None,
            traced: false,
        }
    }

    /// A daemon task.
    pub fn daemon(comm: impl Into<String>, program: Box<dyn Program>) -> Self {
        TaskSpec {
            comm: comm.into(),
            kind: TaskKind::Daemon,
            program,
            pin: None,
            traced: false,
        }
    }

    /// Pins the task to one CPU.
    pub fn pinned(mut self, cpu: u8) -> Self {
        self.pin = Some(cpu);
        self
    }

    /// Enables tracing for the task.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }
}

impl Node {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn boot(
        id: u32,
        spec: std::sync::Arc<NodeSpec>,
        engine: ProbeEngine,
        sched: SchedParams,
        net_costs: NetCostModel,
        sndbuf_bytes: u64,
        nic_bits_per_sec: u64,
        trace_capacity: Option<usize>,
    ) -> Self {
        let mut registry = EventRegistry::new();
        let probes = KernelProbes::register(&mut registry);
        let online = spec.online_cpus();
        let mut node = Node {
            id,
            name: spec.name.clone(),
            freq: spec.freq,
            conv: FreqConv::new(spec.freq),
            online,
            cpus: Vec::new(),
            runqueues: (0..online).map(|_| VecDeque::new()).collect(),
            tasks: TaskTable::new(),
            next_pid: 1,
            registry,
            probes,
            engine,
            nic: Nic::new(nic_bits_per_sec),
            sock_tx: Vec::new(),
            sock_rx: Vec::new(),
            irq_rr: 0,
            sched,
            net_costs,
            sndbuf_bytes,
            trace_capacity,
            apps_exited: 0,
            apps_spawned: 0,
            degrade: None,
            fold_costs: None,
            offline_done: false,
            dynticks: false,
            parked_tick: vec![None; online as usize],
            sched_gen: 1,
            parked_gen: vec![0; online as usize],
            parked_point: vec![0; online as usize],
            armed_gen: 0,
            parked_min: u64::MAX,
            ticks_coalesced: 0,
            txdone_elided: 0,
            user_events: Vec::new(),
            spec,
        };
        for c in 0..online {
            let idle_pid = Pid(node.next_pid);
            node.next_pid += 1;
            let mut t = Task::new(
                idle_pid,
                format!("swapper/{c}"),
                TaskKind::Idle,
                None,
                Task::pin_mask(c),
                TaskMeasurement::profiling(),
                0,
            );
            t.state = TaskState::Running;
            node.tasks.insert(idle_pid, t);
            node.cpus.push(Cpu {
                id: c,
                current: None,
                idle_pid,
                gen: 0,
                steal_ns: 0,
                carry_cycles: 0,
                slice_end: 0,
                in_since: 0,
                idle_since: 0,
                idle_ns: 0,
                chunk_pending: false,
            });
        }
        node
    }

    // -- accessors ----------------------------------------------------------

    /// All pids ever created on the node, in creation order (including idle
    /// threads and zombies).
    pub fn pids(&self) -> Vec<Pid> {
        self.tasks.pids()
    }

    /// A task by pid.
    pub fn task(&self, pid: Pid) -> Option<&Task> {
        self.tasks.get(pid)
    }

    /// Mutable task access (used by `/proc/ktau` control and trace reads).
    pub fn task_mut(&mut self, pid: Pid) -> Option<&mut Task> {
        self.tasks.get_mut(pid)
    }

    /// Per-CPU state (read-only).
    pub fn cpu(&self, cpu: u8) -> &Cpu {
        &self.cpus[cpu as usize]
    }

    /// Cycles → nanoseconds at this node's clock.
    #[inline]
    pub fn c2n(&self, c: Cycles) -> Ns {
        self.conv.cycles_to_ns(c)
    }

    /// Nanoseconds → cycles at this node's clock.
    #[inline]
    pub fn n2c(&self, ns: Ns) -> Cycles {
        self.freq.ns_to_cycles(ns)
    }

    /// Looks up (registering on first use) a user-routine event.  Routines
    /// named `MPI_*` belong to the MPI group, everything else to `User`.
    pub fn user_event(&mut self, name: &'static str) -> EventId {
        // Static strings from the same call site share an address, so the
        // pointer check resolves repeat lookups without touching the bytes;
        // the string comparison catches equal names from different sites.
        if let Some(&(_, id)) = self
            .user_events
            .iter()
            .find(|(n, _)| std::ptr::eq(*n, name) || *n == name)
        {
            return id;
        }
        let group = if name.starts_with("MPI_") {
            Group::Mpi
        } else {
            Group::User
        };
        let id = self.registry.register(name, group, EventKind::EntryExit);
        self.user_events.push((name, id));
        id
    }

    // -- socket slabs --------------------------------------------------------

    #[inline]
    fn tx_state(&self, conn: ktau_net::ConnId) -> Option<&TxState> {
        self.sock_tx.get(conn.0 as usize).and_then(Option::as_ref)
    }

    #[inline]
    fn tx_state_mut(&mut self, conn: ktau_net::ConnId) -> Option<&mut TxState> {
        self.sock_tx
            .get_mut(conn.0 as usize)
            .and_then(Option::as_mut)
    }

    #[inline]
    fn rx_state(&self, conn: ktau_net::ConnId) -> Option<&RxState> {
        self.sock_rx.get(conn.0 as usize).and_then(Option::as_ref)
    }

    #[inline]
    fn rx_state_mut(&mut self, conn: ktau_net::ConnId) -> Option<&mut RxState> {
        self.sock_rx
            .get_mut(conn.0 as usize)
            .and_then(Option::as_mut)
    }

    /// Send-side state of a connection whose tx end lives on this node.
    pub fn tx_conn_stats(&self, conn: ktau_net::ConnId) -> Option<TxConnStats> {
        self.tx_state(conn).map(|st| TxConnStats {
            in_flight: st.tx.in_flight(),
            free: st.tx.free(),
            unacked: st.fault.as_ref().map(|f| f.unacked.len()).unwrap_or(0),
            retransmits: st.fault.as_ref().map(|f| f.retransmits).unwrap_or(0),
            timer_fires: st.fault.as_ref().map(|f| f.timer_fires).unwrap_or(0),
        })
    }

    /// Receive-side state of a connection whose rx end lives on this node.
    pub fn rx_conn_stats(&self, conn: ktau_net::ConnId) -> Option<RxConnStats> {
        self.rx_state(conn).map(|st| RxConnStats {
            available: st.rx.available(),
            expected_seq: st.rx.expected_seq(),
            buffered_segments: st.rx.buffered_segments(),
            refused_segments: st.rx.refused_segments(),
            duplicate_segments: st.rx.duplicate_segments(),
        })
    }

    /// Total segments this node's kernel has retransmitted across all of its
    /// sending connections (0 unless a fault injector is active).
    pub fn total_retransmits(&self) -> u64 {
        self.sock_tx
            .iter()
            .flatten()
            .filter_map(|st| st.fault.as_ref())
            .map(|f| f.retransmits)
            .sum()
    }

    // -- task lifecycle -----------------------------------------------------

    /// Creates a task and enqueues it.  Its first dispatch happens on the
    /// next scheduling opportunity (tick or idle CPU pickup).
    pub(crate) fn spawn(
        &mut self,
        spec: TaskSpec,
        now: Ns,
        q: &mut EventQueue,
        fabric: &Fabric,
    ) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let affinity = match spec.pin {
            Some(c) => {
                assert!(c < self.online, "pin target CPU {c} not online");
                Task::pin_mask(c)
            }
            None => Task::ANY_CPU,
        };
        let meas = match (spec.traced, self.trace_capacity) {
            (true, Some(cap)) => TaskMeasurement::with_trace(cap),
            (true, None) => TaskMeasurement::with_trace(4096),
            _ => TaskMeasurement::profiling(),
        };
        let task = Task::new(
            pid,
            spec.comm,
            spec.kind,
            Some(spec.program),
            affinity,
            meas,
            now,
        );
        self.tasks.insert(pid, task);
        let cpu = self.choose_wake_cpu(pid);
        self.sched_gen += 1;
        self.runqueues[cpu as usize].push_back(pid);
        self.kick_if_idle(cpu, now, q, fabric);
        pid
    }

    /// Picks a CPU for a newly runnable task: its last CPU if allowed and
    /// idle, else any allowed idle CPU, else the allowed CPU with the
    /// shortest queue.
    fn choose_wake_cpu(&self, pid: Pid) -> u8 {
        let t = &self.tasks[pid];
        let allowed: Vec<u8> = (0..self.online).filter(|&c| t.allowed_on(c)).collect();
        if allowed.is_empty() {
            // CPU hotplug removal orphaned this task's affinity mask; Linux
            // breaks affinity in that case and falls back to CPU 0.
            return 0;
        }
        if allowed.contains(&t.last_cpu) && self.cpus[t.last_cpu as usize].current.is_none() {
            return t.last_cpu;
        }
        if let Some(&c) = allowed
            .iter()
            .find(|&&c| self.cpus[c as usize].current.is_none())
        {
            return c;
        }
        if allowed.contains(&t.last_cpu) {
            return t.last_cpu;
        }
        *allowed
            .iter()
            .min_by_key(|&&c| self.runqueues[c as usize].len())
            .unwrap()
    }

    /// If `cpu` is idle, dispatch immediately.
    fn kick_if_idle(&mut self, cpu: u8, now: Ns, q: &mut EventQueue, fabric: &Fabric) {
        if self.cpus[cpu as usize].current.is_none() {
            self.reschedule(cpu, now, q, fabric);
        }
    }

    // -- probes -------------------------------------------------------------

    /// Fires a kernel entry probe on a task, returning the probe's cycles.
    fn probe_enter(&mut self, pid: Pid, ev: EventId, group: Group, now: Ns) -> Cycles {
        let t = self.tasks.get_mut(pid).expect("probe on missing task");
        self.engine.kernel_entry(&mut t.meas, ev, group, now).0
    }

    /// Fires a kernel exit probe.
    fn probe_exit(&mut self, pid: Pid, ev: EventId, group: Group, now: Ns) -> Cycles {
        let t = self.tasks.get_mut(pid).expect("probe on missing task");
        self.engine.kernel_exit(&mut t.meas, ev, group, now).0
    }

    /// Fires a kernel atomic probe.
    fn probe_atomic(&mut self, pid: Pid, ev: EventId, group: Group, v: u64, now: Ns) -> Cycles {
        let t = self.tasks.get_mut(pid).expect("probe on missing task");
        self.engine.kernel_atomic(&mut t.meas, ev, group, v, now).0
    }

    // -- scheduler ----------------------------------------------------------

    /// Context switch: puts the next runnable task (if any) on `cpu`.
    /// The outgoing task must already have been disposed of (blocked,
    /// requeued, or dead) by the caller.
    pub(crate) fn reschedule(&mut self, cpu: u8, now: Ns, q: &mut EventQueue, fabric: &Fabric) {
        let ci = cpu as usize;
        debug_assert!(
            !self.cpus[ci].chunk_pending,
            "reschedule with chunk in flight"
        );
        self.sched_gen += 1;
        let next = self.runqueues[ci].pop_front();
        match next {
            None => {
                if self.cpus[ci].current.take().is_some() {
                    self.cpus[ci].idle_since = now;
                }
                // Drop pending carry: the idle loop absorbs it.
                self.cpus[ci].carry_cycles = 0;
                self.cpus[ci].steal_ns = 0;
            }
            Some(pid) => {
                let was_idle = self.cpus[ci].current.is_none();
                if was_idle {
                    let since = self.cpus[ci].idle_since;
                    self.cpus[ci].idle_ns += now.saturating_sub(since);
                }
                // Record the switched-out interval on the incoming task:
                // voluntary vs involuntary per why it left the CPU last time.
                let (interval, probe_ev) = {
                    let t = &self.tasks[pid];
                    let ev = match t.out_reason {
                        SwitchOutReason::Voluntary => self.probes.schedule_vol,
                        SwitchOutReason::Preempted => self.probes.schedule,
                    };
                    (now.saturating_sub(t.out_since), ev)
                };
                let t = self.tasks.get_mut(pid).unwrap();
                t.state = TaskState::Running;
                let migrated = t.last_cpu != cpu && t.kind != TaskKind::Idle && t.cpu_ns > 0;
                if migrated {
                    t.counters.migrations += 1;
                }
                match t.out_reason {
                    SwitchOutReason::Voluntary => t.counters.voluntary_switches += 1,
                    SwitchOutReason::Preempted => t.counters.preemptions += 1,
                }
                t.last_cpu = cpu;
                let cost = self
                    .engine
                    .kernel_interval(&mut t.meas, probe_ev, Group::Scheduler, interval, now)
                    .0;
                let c = &mut self.cpus[ci];
                c.current = Some(pid);
                c.carry_cycles += cost + self.sched.ctx_switch_cycles;
                if migrated {
                    // Cold caches on the new CPU: the task's working set
                    // must be refilled before it runs at full speed.
                    c.carry_cycles += self.sched.migration_cycles;
                }
                c.slice_end = now + self.sched.timeslice_ticks as u64 * self.sched.tick_ns();
                c.in_since = now;
                self.continue_task(cpu, now, q, fabric);
            }
        }
    }

    /// Takes the current task off `cpu` (charging its CPU time), leaving the
    /// CPU vacant.  Caller decides what happens to the task and must then
    /// reschedule.
    fn switch_out(&mut self, cpu: u8, now: Ns, reason: SwitchOutReason) -> Pid {
        let ci = cpu as usize;
        let pid = self.cpus[ci].current.expect("switch_out of idle CPU");
        let t = self.tasks.get_mut(pid).unwrap();
        t.out_reason = reason;
        t.out_since = now;
        t.cpu_ns += now.saturating_sub(self.cpus[ci].in_since);
        self.sched_gen += 1;
        self.cpus[ci].current = None;
        self.cpus[ci].idle_since = now;
        pid
    }

    /// Schedules a CPU-busy chunk of `cycles` (plus any pending carry) for
    /// the current task, ending with a `CpuDone` event.
    fn busy(&mut self, cpu: u8, cycles: Cycles, now: Ns, q: &mut EventQueue) {
        let ci = cpu as usize;
        let c = &mut self.cpus[ci];
        let total = cycles + c.carry_cycles;
        c.carry_cycles = 0;
        let mut dur = self.conv.cycles_to_ns(total);
        // Degraded hardware (thermal throttling, failing VRM): every busy
        // chunk stretches once the slowdown onset passes.
        if let Some(d) = self.degrade {
            if d.slowdown_pct != 100 && now >= d.slowdown_onset_ns {
                dur = dur * d.slowdown_pct as u64 / 100;
            }
        }
        // Consume pre-accumulated steal immediately.
        dur += c.steal_ns;
        c.steal_ns = 0;
        c.gen += 1;
        c.chunk_pending = true;
        q.push(
            now + dur,
            Event::CpuDone {
                node: self.id,
                cpu,
                gen: c.gen,
            },
        );
    }

    // -- op state machine ---------------------------------------------------

    /// Drives the current task of `cpu` from a "ready" op state until the
    /// CPU becomes busy, the task blocks, or it exits.
    pub(crate) fn continue_task(&mut self, cpu: u8, now: Ns, q: &mut EventQueue, fabric: &Fabric) {
        let ci = cpu as usize;
        let mut inline_ops = 0u32;
        loop {
            let pid = match self.cpus[ci].current {
                Some(p) => p,
                None => return,
            };
            let op_state = self.tasks[pid].op;
            match op_state {
                OpState::Fetch => {
                    inline_ops += 1;
                    if inline_ops > 100_000 {
                        // Defensive: a pathological program issuing only
                        // zero-cost ops would otherwise stall virtual time.
                        self.busy(cpu, 1_000, now, q);
                        return;
                    }
                    let op = self.tasks.get_mut(pid).unwrap().fetch_op();
                    if self.lower_op(cpu, pid, op, now, q, fabric) {
                        return;
                    }
                }
                OpState::Computing { remaining } => {
                    // Cap the chunk at the time-slice boundary so slice
                    // expiry can preempt user-mode compute.
                    let slice_left = self.cpus[ci].slice_end.saturating_sub(now);
                    let rem_ns = self.c2n(remaining);
                    let chunk_ns = rem_ns.min(slice_left.max(self.sched.tick_ns() / 10));
                    let chunk_cycles = self.n2c(chunk_ns);
                    let after = remaining.saturating_sub(chunk_cycles);
                    self.tasks.get_mut(pid).unwrap().op = if after == 0 {
                        // Whole burst fits in this chunk; Fetch next on done.
                        OpState::Computing { remaining: 0 }
                    } else {
                        OpState::Computing { remaining: after }
                    };
                    // Shared front-side bus: compute dilates while another
                    // CPU of this node is also running a compute-bound task.
                    let others_busy = (0..self.online as usize).any(|c| {
                        c != ci
                            && self.cpus[c]
                                .current
                                .map(|p| self.tasks[p].kind != TaskKind::Idle)
                                .unwrap_or(false)
                    });
                    let effective = if others_busy {
                        chunk_cycles * self.spec.smp_compute_dilation_pct as u64 / 100
                    } else {
                        chunk_cycles
                    };
                    self.busy(cpu, effective, now, q);
                    return;
                }
                OpState::SendReserving {
                    conn,
                    remaining,
                    retry,
                } => {
                    if remaining == 0 {
                        // Zero-byte writev: complete the syscall immediately.
                        let mut c =
                            self.probe_exit(pid, self.probes.sock_sendmsg, Group::Socket, now);
                        c += self.probe_exit(pid, self.probes.sys_writev, Group::Syscall, now);
                        self.cpus[ci].carry_cycles += c;
                        self.tasks.get_mut(pid).unwrap().op = OpState::Fetch;
                        continue;
                    }
                    let accepted = {
                        // Dynticks: apply NIC releases that matured at or
                        // before `now` — exactly the `TxDone`s the reference
                        // engine would have dispatched before this event.
                        self.drain_releases(conn, now);
                        let st = self.tx_state_mut(conn).expect("send on unknown conn");
                        st.tx.reserve(remaining)
                    };
                    if accepted == 0 {
                        // sndbuf full: block until TxDone frees space; timed
                        // sends additionally arm a timeout.
                        match retry {
                            None => {}
                            Some(r) if r.deadline == 0 => {
                                // First stall of this attempt: arm the timer.
                                let deadline = now + r.timeout_ns;
                                self.tasks.get_mut(pid).unwrap().op = OpState::SendReserving {
                                    conn,
                                    remaining,
                                    retry: Some(SendRetry { deadline, ..r }),
                                };
                                q.push(deadline, Event::Wake { node: self.id, pid });
                            }
                            Some(r) if now >= r.deadline => {
                                if r.left == 0 {
                                    self.abort_send_timeout(cpu, pid, conn, now, q, fabric);
                                    return;
                                }
                                // Retry: new attempt, fresh deadline.
                                let deadline = now + r.timeout_ns;
                                self.tasks.get_mut(pid).unwrap().op = OpState::SendReserving {
                                    conn,
                                    remaining,
                                    retry: Some(SendRetry {
                                        deadline,
                                        left: r.left - 1,
                                        timeout_ns: r.timeout_ns,
                                    }),
                                };
                                q.push(deadline, Event::Wake { node: self.id, pid });
                            }
                            // Woken early (space appeared then vanished):
                            // re-block, the armed timer keeps running.
                            Some(_) => {}
                        }
                        self.tx_state_mut(conn).unwrap().waiting_writer = Some(pid);
                        // Dynticks: no TxDone event will fire to wake this
                        // writer, so arm one ReleaseWake at the first ledger
                        // maturity (all entries are > now after the drain
                        // above).  Its handler replays the elided TxDone.
                        if self.dynticks {
                            let node = self.id;
                            let next = self
                                .tx_state(conn)
                                .and_then(|st| st.pending_release.front())
                                .map(|&(t, _)| t);
                            if let Some(t) = next {
                                q.push(t, Event::ReleaseWake { node, conn });
                            }
                        }
                        self.block_current(cpu, BlockedOn::TxSpace(conn), now, q, fabric);
                        return;
                    }
                    // Progress: the attempt succeeded, reset its deadline.
                    let retry = retry.map(|r| SendRetry { deadline: 0, ..r });
                    self.start_send_chunk(
                        cpu,
                        pid,
                        conn,
                        accepted,
                        remaining - accepted,
                        retry,
                        now,
                        q,
                        fabric,
                    );
                    return;
                }
                OpState::RecvWaiting { conn, remaining } => {
                    if remaining == 0 {
                        // Zero-byte read: returns immediately.
                        let c = self.probe_exit(pid, self.probes.sys_read, Group::Syscall, now);
                        self.cpus[ci].carry_cycles += c;
                        self.tasks.get_mut(pid).unwrap().op = OpState::Fetch;
                        continue;
                    }
                    let take = {
                        let st = self.rx_state_mut(conn).expect("recv on unknown conn");
                        st.reader_pid = Some(pid);
                        st.rx.consume(remaining)
                    };
                    if take == 0 {
                        self.rx_state_mut(conn).unwrap().waiting_reader = Some(pid);
                        self.block_current(cpu, BlockedOn::RxData(conn), now, q, fabric);
                        return;
                    }
                    let copy_cycles = self.net_costs.read_copy(take);
                    self.tasks.get_mut(pid).unwrap().op = OpState::RecvCopying {
                        conn,
                        remaining_after: remaining - take,
                    };
                    self.busy(cpu, copy_cycles, now, q);
                    return;
                }
                OpState::Sleeping => {
                    // Woken from nanosleep: close the syscall and move on.
                    let c = self.probe_exit(pid, self.probes.sys_nanosleep, Group::Syscall, now);
                    self.cpus[ci].carry_cycles += c;
                    self.tasks.get_mut(pid).unwrap().op = OpState::Fetch;
                }
                OpState::SendProcessing { .. }
                | OpState::RecvCopying { .. }
                | OpState::KernelBusy => {
                    unreachable!("busy op state {op_state:?} reached continue_task")
                }
                OpState::Exited => unreachable!("dead task on CPU"),
            }
        }
    }

    /// Lowers a freshly fetched [`Op`].  Returns `true` when control must
    /// leave the fetch loop (CPU busy, task blocked/exited/yielded).
    fn lower_op(
        &mut self,
        cpu: u8,
        pid: Pid,
        op: Op,
        now: Ns,
        q: &mut EventQueue,
        fabric: &Fabric,
    ) -> bool {
        let ci = cpu as usize;
        match op {
            Op::Compute(cycles) => {
                self.tasks.get_mut(pid).unwrap().op = OpState::Computing { remaining: cycles };
                false
            }
            Op::UserEnter(name) => {
                let ev = self.user_event(name);
                let group = self.registry.desc(ev).group;
                let t = self.tasks.get_mut(pid).unwrap();
                let c = self.engine.user_entry(&mut t.meas, ev, group, now).0;
                self.cpus[ci].carry_cycles += c;
                false
            }
            Op::UserExit(name) => {
                let ev = self.user_event(name);
                let group = self.registry.desc(ev).group;
                let t = self.tasks.get_mut(pid).unwrap();
                let c = self.engine.user_exit(&mut t.meas, ev, group, now).0;
                self.cpus[ci].carry_cycles += c;
                false
            }
            Op::Send { conn, bytes } => {
                self.enter_send_syscall(cpu, pid, now);
                self.tasks.get_mut(pid).unwrap().op = OpState::SendReserving {
                    conn,
                    remaining: bytes,
                    retry: None,
                };
                false
            }
            Op::SendTimed {
                conn,
                bytes,
                timeout_ns,
                max_retries,
            } => {
                self.enter_send_syscall(cpu, pid, now);
                self.tasks.get_mut(pid).unwrap().op = OpState::SendReserving {
                    conn,
                    remaining: bytes,
                    retry: Some(SendRetry {
                        deadline: 0,
                        left: max_retries,
                        timeout_ns,
                    }),
                };
                false
            }
            Op::Recv { conn, bytes } => {
                self.tasks.get_mut(pid).unwrap().counters.syscalls += 1;
                let c = self.probe_enter(pid, self.probes.sys_read, Group::Syscall, now);
                self.cpus[ci].carry_cycles += c;
                self.tasks.get_mut(pid).unwrap().op = OpState::RecvWaiting {
                    conn,
                    remaining: bytes,
                };
                false
            }
            Op::Sleep(dur) => {
                self.tasks.get_mut(pid).unwrap().counters.syscalls += 1;
                let c = self.probe_enter(pid, self.probes.sys_nanosleep, Group::Syscall, now);
                self.cpus[ci].carry_cycles += c;
                self.tasks.get_mut(pid).unwrap().op = OpState::Sleeping;
                q.push(now + dur, Event::Wake { node: self.id, pid });
                self.block_current(cpu, BlockedOn::Timer, now, q, fabric);
                true
            }
            Op::SyscallNull => self.kernel_busy_op(
                cpu,
                pid,
                self.probes.sys_getpid,
                Group::Syscall,
                250,
                now,
                q,
            ),
            Op::PageFault => self.kernel_busy_op(
                cpu,
                pid,
                self.probes.do_page_fault,
                Group::Exception,
                1_200,
                now,
                q,
            ),
            Op::SignalSelf => {
                self.kernel_busy_op(cpu, pid, self.probes.do_signal, Group::Signal, 900, now, q)
            }
            Op::Yield => {
                let out = self.switch_out(cpu, now, SwitchOutReason::Voluntary);
                let t = self.tasks.get_mut(out).unwrap();
                t.state = TaskState::Runnable;
                self.runqueues[ci].push_back(out);
                self.reschedule(cpu, now, q, fabric);
                true
            }
            Op::Exit => {
                let out = self.switch_out(cpu, now, SwitchOutReason::Voluntary);
                let t = self.tasks.get_mut(out).unwrap();
                t.state = TaskState::Dead;
                t.op = OpState::Exited;
                t.exited_ns = now;
                if t.kind == TaskKind::App {
                    self.apps_exited += 1;
                }
                self.reschedule(cpu, now, q, fabric);
                true
            }
        }
    }

    /// Probe+cost bookkeeping shared by [`Op::Send`] and [`Op::SendTimed`]
    /// lowering: `sys_writev` → `sock_sendmsg` entries.
    fn enter_send_syscall(&mut self, cpu: u8, pid: Pid, now: Ns) {
        self.tasks.get_mut(pid).unwrap().counters.syscalls += 1;
        let mut c = self.probe_enter(pid, self.probes.sys_writev, Group::Syscall, now);
        c += self.probe_enter(pid, self.probes.sock_sendmsg, Group::Socket, now);
        self.cpus[cpu as usize].carry_cycles +=
            c + self.net_costs.sys_writev_cycles + self.net_costs.sock_sendmsg_cycles;
    }

    /// A timed send exhausted its retry budget: the process aborts with a
    /// diagnostic naming the connection and its socket state (the MPI layer
    /// surfaces this as the stuck rank).
    fn abort_send_timeout(
        &mut self,
        cpu: u8,
        pid: Pid,
        conn: ktau_net::ConnId,
        now: Ns,
        q: &mut EventQueue,
        fabric: &Fabric,
    ) {
        let diag = {
            let st = self.tx_state(conn).expect("timed send on unknown conn");
            let (unacked, rtx) = st
                .fault
                .as_ref()
                .map(|f| (f.unacked.len(), f.retransmits))
                .unwrap_or((0, 0));
            format!(
                "timed send on {conn} exhausted its retry budget at {now} ns: \
                 sndbuf {} B in flight / {} B free, {unacked} unacked segments, \
                 {rtx} retransmits",
                st.tx.in_flight(),
                st.tx.free()
            )
        };
        let out = self.switch_out(cpu, now, SwitchOutReason::Voluntary);
        debug_assert_eq!(out, pid, "timed-out sender was not current");
        let t = self.tasks.get_mut(out).unwrap();
        t.state = TaskState::Dead;
        t.op = OpState::Exited;
        t.exited_ns = now;
        t.counters.send_timeouts += 1;
        t.last_error = Some(diag);
        if t.kind == TaskKind::App {
            self.apps_exited += 1;
        }
        self.reschedule(cpu, now, q, fabric);
    }

    /// A short instrumented kernel path (null syscall / fault / signal).
    #[allow(clippy::too_many_arguments)]
    fn kernel_busy_op(
        &mut self,
        cpu: u8,
        pid: Pid,
        ev: EventId,
        group: Group,
        cost: Cycles,
        now: Ns,
        q: &mut EventQueue,
    ) -> bool {
        {
            let t = self.tasks.get_mut(pid).unwrap();
            match group {
                Group::Syscall => t.counters.syscalls += 1,
                Group::Exception => t.counters.page_faults += 1,
                Group::Signal => t.counters.signals += 1,
                _ => {}
            }
        }
        let c = self.probe_enter(pid, ev, group, now);
        self.cpus[cpu as usize].carry_cycles += c;
        let t = self.tasks.get_mut(pid).unwrap();
        t.op = OpState::KernelBusy;
        // Remember which probe to close when the chunk completes.
        t.pending_kernel_exit = Some((ev, group));
        self.busy(cpu, cost, now, q);
        true
    }

    /// `tcp_sendmsg` over one accepted chunk: segments the bytes, charges
    /// per-segment CPU cost, and hands segments to the NIC staggered by the
    /// CPU time spent producing them.  On fault-injected links every segment
    /// is tracked as unacked and its wire fate (deliver/drop/duplicate/
    /// delay) is drawn from the seeded injector; fault-free links take the
    /// exact pre-fault event sequence.
    #[allow(clippy::too_many_arguments)]
    fn start_send_chunk(
        &mut self,
        cpu: u8,
        pid: Pid,
        conn: ktau_net::ConnId,
        accepted: u64,
        remaining_after: u64,
        retry: Option<SendRetry>,
        now: Ns,
        q: &mut EventQueue,
        fabric: &Fabric,
    ) {
        let mut cost: Cycles = self.probe_enter(pid, self.probes.tcp_sendmsg, Group::Tcp, now);
        let link = fabric.link(conn);
        let mut first_faulted_at: Option<Ns> = None;
        // `segment_sizes` borrows nothing from `self`, so iterate it
        // directly instead of collecting into a per-chunk Vec.
        for payload in segment_sizes(accepted) {
            cost += self.net_costs.tcp_send_segment(payload);
            let t = now + self.c2n(cost);
            cost += self.probe_atomic(pid, self.probes.net_tx_bytes, Group::Tcp, payload as u64, t);
            let seq = {
                let st = self.tx_state_mut(conn).unwrap();
                st.tx.next_seq()
            };
            let produced_at = now + self.c2n(cost);
            let (depart, arrive) = if link.is_loopback() {
                // Localhost: no NIC serialization, tiny in-kernel latency.
                (produced_at, produced_at + LOOPBACK_LATENCY_NS)
            } else {
                // The segment reaches the NIC once the CPU has produced it.
                let depart = self.nic.enqueue(produced_at, payload + WIRE_OVERHEAD);
                (depart, fabric.arrival(depart))
            };
            // TxDone fires even for segments the wire then eats: the NIC
            // finished serializing, so sndbuf space is legitimately free.
            // Dynticks books the release in the conn's ledger instead of an
            // event; it is applied before the next reservation on this conn,
            // which is the only observer of the freed space.
            if self.dynticks {
                self.txdone_elided += 1;
                self.tx_state_mut(conn)
                    .unwrap()
                    .pending_release
                    .push_back((depart, payload));
            } else {
                q.push(
                    depart,
                    Event::TxDone {
                        node: self.id,
                        conn,
                        payload,
                    },
                );
            }
            let fate = match self.tx_state_mut(conn).unwrap().fault.as_mut() {
                Some(f) => {
                    f.unacked.insert(seq, payload);
                    Some(f.injector.judge(produced_at))
                }
                None => None,
            };
            if fate.is_some() && first_faulted_at.is_none() {
                first_faulted_at = Some(produced_at);
            }
            let seg = Event::SegArrive {
                node: link.dst_node,
                conn,
                seq,
                payload,
            };
            match fate {
                None | Some(SegmentFate::Deliver) => q.push(arrive, seg),
                Some(SegmentFate::Drop) => {}
                Some(SegmentFate::Duplicate) => {
                    q.push(arrive, seg);
                    q.push(arrive + DUP_GAP_NS, seg);
                }
                Some(SegmentFate::Delay(extra)) => q.push(arrive + extra, seg),
            }
        }
        // One retransmission timer per connection: arm it if this chunk left
        // unacked data on a fault link and no timer is already running.
        if let Some(at) = first_faulted_at {
            let node = self.id;
            let f = self
                .tx_state_mut(conn)
                .unwrap()
                .fault
                .as_mut()
                .expect("faulted segment without fault state");
            if !f.timer_armed && !f.unacked.is_empty() {
                f.timer_gen += 1;
                f.timer_armed = true;
                f.backoff = 0;
                let gen = f.timer_gen;
                let rto = f.rto_ns;
                q.push(at + rto, Event::RtxTimer { node, conn, gen });
            }
        }
        self.tasks.get_mut(pid).unwrap().op = OpState::SendProcessing {
            conn,
            remaining_after,
            retry,
        };
        self.busy(cpu, cost, now, q);
    }

    /// Blocks the current task and reschedules.
    fn block_current(
        &mut self,
        cpu: u8,
        on: BlockedOn,
        now: Ns,
        q: &mut EventQueue,
        fabric: &Fabric,
    ) {
        let pid = self.switch_out(cpu, now, SwitchOutReason::Voluntary);
        let t = self.tasks.get_mut(pid).unwrap();
        t.state = TaskState::Blocked;
        t.blocked_on = Some(on);
        self.reschedule(cpu, now, q, fabric);
    }

    // -- event handlers -----------------------------------------------------

    /// Completion of the in-flight chunk on `cpu`.
    pub(crate) fn on_cpu_done(
        &mut self,
        cpu: u8,
        gen: u64,
        now: Ns,
        q: &mut EventQueue,
        fabric: &Fabric,
    ) {
        let ci = cpu as usize;
        if self.cpus[ci].gen != gen || !self.cpus[ci].chunk_pending {
            return; // stale
        }
        // Interrupts stole time from this chunk: extend it.
        if self.cpus[ci].steal_ns > 0 {
            let s = self.cpus[ci].steal_ns;
            self.cpus[ci].steal_ns = 0;
            q.push(
                now + s,
                Event::CpuDone {
                    node: self.id,
                    cpu,
                    gen,
                },
            );
            return;
        }
        self.cpus[ci].chunk_pending = false;
        let pid = match self.cpus[ci].current {
            Some(p) => p,
            None => return,
        };
        let op = self.tasks[pid].op;
        match op {
            OpState::Computing { remaining } => {
                if remaining == 0 {
                    self.tasks.get_mut(pid).unwrap().op = OpState::Fetch;
                } else if now >= self.cpus[ci].slice_end && !self.runqueues[ci].is_empty() {
                    // Time-slice expiry with competition: involuntary switch.
                    let out = self.switch_out(cpu, now, SwitchOutReason::Preempted);
                    self.tasks.get_mut(out).unwrap().state = TaskState::Runnable;
                    self.runqueues[ci].push_back(out);
                    self.reschedule(cpu, now, q, fabric);
                    return;
                } else if now >= self.cpus[ci].slice_end {
                    // Nobody waiting: renew the slice and keep running.
                    self.cpus[ci].slice_end =
                        now + self.sched.timeslice_ticks as u64 * self.sched.tick_ns();
                }
            }
            OpState::SendProcessing {
                conn,
                remaining_after,
                retry,
            } => {
                let mut c = self.probe_exit(pid, self.probes.tcp_sendmsg, Group::Tcp, now);
                if remaining_after == 0 {
                    c += self.probe_exit(pid, self.probes.sock_sendmsg, Group::Socket, now);
                    c += self.probe_exit(pid, self.probes.sys_writev, Group::Syscall, now);
                    self.tasks.get_mut(pid).unwrap().op = OpState::Fetch;
                } else {
                    self.tasks.get_mut(pid).unwrap().op = OpState::SendReserving {
                        conn,
                        remaining: remaining_after,
                        retry,
                    };
                }
                self.cpus[ci].carry_cycles += c;
            }
            OpState::RecvCopying {
                conn,
                remaining_after,
            } => {
                let mut c = self.probe_exit(pid, self.probes.sys_read, Group::Syscall, now);
                if remaining_after == 0 {
                    self.tasks.get_mut(pid).unwrap().op = OpState::Fetch;
                } else {
                    // The next blocking read is a fresh syscall.
                    c += self.probe_enter(pid, self.probes.sys_read, Group::Syscall, now);
                    self.tasks.get_mut(pid).unwrap().op = OpState::RecvWaiting {
                        conn,
                        remaining: remaining_after,
                    };
                }
                self.cpus[ci].carry_cycles += c;
            }
            OpState::KernelBusy => {
                if let Some((ev, group)) =
                    self.tasks.get_mut(pid).unwrap().pending_kernel_exit.take()
                {
                    let c = self.probe_exit(pid, ev, group, now);
                    self.cpus[ci].carry_cycles += c;
                }
                self.tasks.get_mut(pid).unwrap().op = OpState::Fetch;
            }
            _ => {}
        }
        self.continue_task(cpu, now, q, fabric);
    }

    /// Timer tick on one CPU: charges the handler cost to whoever is
    /// current, and performs idle load balancing.
    pub(crate) fn on_tick(&mut self, cpu: u8, now: Ns, q: &mut EventQueue, fabric: &Fabric) {
        let ci = cpu as usize;
        let attr_pid = self.cpus[ci].current.unwrap_or(self.cpus[ci].idle_pid);
        self.tasks.get_mut(attr_pid).unwrap().counters.interrupts += 1;
        let mut cost = self.sched.tick_cycles;
        cost += self.probe_enter(attr_pid, self.probes.do_irq, Group::Irq, now);
        cost += self.probe_enter(attr_pid, self.probes.timer_interrupt, Group::Timer, now);
        let end = now + self.c2n(cost);
        cost += self.probe_exit(attr_pid, self.probes.timer_interrupt, Group::Timer, end);
        cost += self.probe_exit(attr_pid, self.probes.do_irq, Group::Irq, end);
        if self.cpus[ci].current.is_some() {
            self.cpus[ci].steal_ns += self.c2n(cost);
        }
        // Idle balancing: pull a runnable task from the busiest other queue.
        if self.cpus[ci].current.is_none() && self.runqueues[ci].is_empty() {
            let donor = (0..self.online as usize)
                .filter(|&o| o != ci)
                .max_by_key(|&o| self.runqueues[o].len());
            if let Some(o) = donor {
                if !self.runqueues[o].is_empty() {
                    let idx = self.runqueues[o]
                        .iter()
                        .position(|p| self.tasks[p].allowed_on(cpu));
                    if let Some(idx) = idx {
                        let pid = self.runqueues[o].remove(idx).unwrap();
                        self.runqueues[ci].push_back(pid);
                    }
                }
            }
            self.reschedule(cpu, now, q, fabric);
        }
    }

    /// A segment arrived at this node's NIC: hard IRQ → softirq → TCP
    /// receive → socket queue → reader wakeup.
    pub(crate) fn on_segment(
        &mut self,
        conn: ktau_net::ConnId,
        seq: u64,
        payload: u32,
        now: Ns,
        q: &mut EventQueue,
        fabric: &Fabric,
    ) {
        let loopback = self.rx_state(conn).map(|s| s.loopback).unwrap_or(false);
        let cpu = self.route_irq();
        let ci = cpu as usize;
        let attr_pid = self.cpus[ci].current.unwrap_or(self.cpus[ci].idle_pid);

        // Dilation inputs for the TCP cost model.
        let busy_smp = self.online > 1
            && (0..self.online as usize).all(|c| {
                self.cpus[c]
                    .current
                    .map(|p| self.tasks[p].kind != TaskKind::Idle)
                    .unwrap_or(false)
            });
        let reader = self.rx_state(conn).and_then(|s| s.reader_pid);
        let cross_cpu = reader
            .map(|r| self.tasks[r].last_cpu != cpu)
            .unwrap_or(false);

        // Hard IRQ (skipped entirely for localhost traffic).
        let mut cost = 0;
        if !loopback {
            self.tasks.get_mut(attr_pid).unwrap().counters.interrupts += 1;
            cost += self.net_costs.irq_cycles;
            cost += self.probe_enter(attr_pid, self.probes.do_irq, Group::Irq, now);
            cost += self.probe_enter(attr_pid, self.probes.eth_rx_irq, Group::Irq, now);
            let t = now + self.c2n(cost);
            cost += self.probe_exit(attr_pid, self.probes.eth_rx_irq, Group::Irq, t);
            cost += self.probe_exit(attr_pid, self.probes.do_irq, Group::Irq, t);
        }
        // Bottom half.
        cost += self.net_costs.softirq_base_cycles;
        let t = now + self.c2n(cost);
        cost += self.probe_enter(attr_pid, self.probes.do_softirq, Group::BottomHalf, t);
        cost += self.probe_enter(attr_pid, self.probes.tcp_v4_rcv, Group::Tcp, t);
        cost += self.net_costs.tcp_rcv_segment(payload, busy_smp, cross_cpu);
        cost += self.probe_atomic(
            attr_pid,
            self.probes.net_rx_bytes,
            Group::Tcp,
            payload as u64,
            t,
        );
        let t = now + self.c2n(cost);
        cost += self.probe_exit(attr_pid, self.probes.tcp_v4_rcv, Group::Tcp, t);
        cost += self.probe_exit(attr_pid, self.probes.do_softirq, Group::BottomHalf, t);
        let total_ns = self.c2n(cost);

        if self.cpus[ci].current.is_some() {
            self.cpus[ci].steal_ns += total_ns;
        }

        let st = self.rx_state_mut(conn).expect("segment for unknown conn");
        // Out-of-order segments buffer, duplicates are discarded, and a full
        // rcvbuf refuses the segment (the sender's retransmission recovers
        // it) — the return value says which; only in-order delivery changes
        // `available`, so the reader wake below stays correct either way.
        let _ = st.rx.deliver(seq, payload);
        if st.rx.available() > 0 {
            if let Some(reader) = st.waiting_reader.take() {
                q.push(
                    now + total_ns,
                    Event::Wake {
                        node: self.id,
                        pid: reader,
                    },
                );
            }
        }
        // Delayed ACK: every second data segment sends an ACK back through
        // this node's NIC; the original sender pays protocol processing on
        // arrival.  Loopback traffic is ACKed within the same softirq and
        // needs no extra event.  On fault-injected links every segment is
        // ACKed — including duplicates and refusals — so the sender sees
        // cumulative-ack progress (and the lack of it) promptly.
        if !loopback {
            let st = self.rx_state_mut(conn).unwrap();
            st.ack_pending += 1;
            let every = if st.fault_active { 1 } else { 2 };
            if st.ack_pending >= every {
                st.ack_pending = 0;
                let ack_seq = st.rx.expected_seq();
                let link = fabric.link(conn);
                let ack_wire = 40 + ktau_net::WIRE_OVERHEAD;
                let depart = self.nic.enqueue(now + total_ns, ack_wire);
                q.push(
                    fabric.arrival(depart),
                    Event::AckArrive {
                        node: link.src_node,
                        conn,
                        ack_seq,
                    },
                );
            }
        }
    }

    /// A TCP ACK arrives: hard IRQ + softirq + header-only `tcp_v4_rcv`
    /// charged to whoever is current on the interrupted CPU.  On fault
    /// links the cumulative `ack_seq` also retires unacked segments and
    /// manages the retransmission timer.
    pub(crate) fn on_ack(
        &mut self,
        conn: ktau_net::ConnId,
        ack_seq: u64,
        now: Ns,
        q: &mut EventQueue,
        _fabric: &Fabric,
    ) {
        let cpu = self.route_irq();
        let ci = cpu as usize;
        let attr_pid = self.cpus[ci].current.unwrap_or(self.cpus[ci].idle_pid);
        let busy_smp = self.online > 1
            && (0..self.online as usize).all(|c| {
                self.cpus[c]
                    .current
                    .map(|p| self.tasks[p].kind != TaskKind::Idle)
                    .unwrap_or(false)
            });
        self.tasks.get_mut(attr_pid).unwrap().counters.interrupts += 1;
        let mut cost = self.net_costs.irq_cycles;
        cost += self.probe_enter(attr_pid, self.probes.do_irq, Group::Irq, now);
        cost += self.probe_enter(attr_pid, self.probes.eth_rx_irq, Group::Irq, now);
        let t = now + self.c2n(cost);
        cost += self.probe_exit(attr_pid, self.probes.eth_rx_irq, Group::Irq, t);
        cost += self.probe_exit(attr_pid, self.probes.do_irq, Group::Irq, t);
        cost += self.net_costs.softirq_base_cycles;
        let t = now + self.c2n(cost);
        cost += self.probe_enter(attr_pid, self.probes.do_softirq, Group::BottomHalf, t);
        cost += self.probe_enter(attr_pid, self.probes.tcp_v4_rcv, Group::Tcp, t);
        cost += self.net_costs.tcp_rcv_segment(0, busy_smp, false);
        let t = now + self.c2n(cost);
        cost += self.probe_exit(attr_pid, self.probes.tcp_v4_rcv, Group::Tcp, t);
        cost += self.probe_exit(attr_pid, self.probes.do_softirq, Group::BottomHalf, t);
        if self.cpus[ci].current.is_some() {
            self.cpus[ci].steal_ns += self.c2n(cost);
        }
        // Retire cumulatively-acked segments and manage the retransmission
        // timer.  Fault-free connections have no fault state and skip this
        // entirely (no event pushes → determinism preserved).
        let node = self.id;
        if let Some(f) = self.tx_state_mut(conn).and_then(|st| st.fault.as_mut()) {
            let before = f.unacked.len();
            f.unacked.retain(|&s, _| s >= ack_seq);
            if f.unacked.is_empty() {
                // Everything acked: cancel the timer.
                if f.timer_armed {
                    f.timer_gen += 1;
                    f.timer_armed = false;
                }
                f.backoff = 0;
            } else if f.unacked.len() < before {
                // Forward progress: restart the timer fresh for the new
                // lowest unacked segment.  A duplicate ACK (no progress)
                // deliberately leaves the running timer alone so a stalled
                // flow still times out.
                f.timer_gen += 1;
                f.timer_armed = true;
                f.backoff = 0;
                let gen = f.timer_gen;
                let rto = f.rto_ns;
                q.push(now + rto, Event::RtxTimer { node, conn, gen });
            }
        }
    }

    /// The sender-side TCP retransmission timer fired: re-send the lowest
    /// unacked segment through the NIC (its wire fate is judged again by the
    /// injector), back off exponentially, and re-arm.  Runs in softirq
    /// context on the IRQ-routing CPU; the handler is instrumented with the
    /// `tcp_retransmit_timer` probe nested in a `do_softirq` re-entry, so
    /// KTAU's kernel-wide and process-centric views expose exactly which
    /// node and which interrupted task paid for the recovery.
    pub(crate) fn on_rtx_timer(
        &mut self,
        conn: ktau_net::ConnId,
        gen: u64,
        now: Ns,
        q: &mut EventQueue,
        fabric: &Fabric,
    ) {
        let node = self.id;
        let (seq, payload, fate) = {
            let f = match self.tx_state_mut(conn).and_then(|st| st.fault.as_mut()) {
                Some(f) => f,
                None => return,
            };
            if !f.timer_armed || f.timer_gen != gen {
                return; // cancelled or superseded
            }
            let (&seq, &payload) = match f.unacked.iter().next() {
                Some(kv) => kv,
                None => {
                    f.timer_armed = false;
                    return;
                }
            };
            f.timer_fires += 1;
            f.retransmits += 1;
            f.backoff = (f.backoff + 1).min(MAX_RTX_BACKOFF);
            (seq, payload, f.injector.judge(now))
        };
        // Softirq-context accounting: the handler's cost is stolen from
        // whoever is current on the IRQ CPU, and the probes make the
        // recovery visible in that task's process-centric view.
        let cpu = self.route_irq();
        let ci = cpu as usize;
        let attr_pid = self.cpus[ci].current.unwrap_or(self.cpus[ci].idle_pid);
        let mut cost = self.net_costs.softirq_base_cycles;
        cost += self.probe_enter(attr_pid, self.probes.do_softirq, Group::BottomHalf, now);
        cost += self.probe_enter(attr_pid, self.probes.tcp_retransmit_timer, Group::Tcp, now);
        cost += self.net_costs.tcp_send_segment(payload);
        let t = now + self.c2n(cost);
        cost += self.probe_exit(attr_pid, self.probes.tcp_retransmit_timer, Group::Tcp, t);
        cost += self.probe_exit(attr_pid, self.probes.do_softirq, Group::BottomHalf, t);
        let total_ns = self.c2n(cost);
        if self.cpus[ci].current.is_some() {
            self.cpus[ci].steal_ns += total_ns;
        }
        // Re-send on the wire.  No TxDone: the original transmission already
        // released this segment's sndbuf space, and releasing twice is the
        // exact accounting corruption `SocketTx::release` now hard-errors on.
        let link = fabric.link(conn);
        let depart = self.nic.enqueue(now + total_ns, payload + WIRE_OVERHEAD);
        let arrive = fabric.arrival(depart);
        let seg = Event::SegArrive {
            node: link.dst_node,
            conn,
            seq,
            payload,
        };
        match fate {
            SegmentFate::Deliver => q.push(arrive, seg),
            SegmentFate::Drop => {}
            SegmentFate::Duplicate => {
                q.push(arrive, seg);
                q.push(arrive + DUP_GAP_NS, seg);
            }
            SegmentFate::Delay(extra) => q.push(arrive + extra, seg),
        }
        // Exponential backoff and re-arm.
        let f = self
            .tx_state_mut(conn)
            .and_then(|st| st.fault.as_mut())
            .expect("fault state vanished mid-retransmit");
        f.timer_gen += 1;
        let gen = f.timer_gen;
        let delay = f.rto_ns << f.backoff;
        q.push(now + delay, Event::RtxTimer { node, conn, gen });
    }

    /// NIC finished serializing a segment: release sndbuf space and wake a
    /// blocked writer.
    pub(crate) fn on_tx_done(
        &mut self,
        conn: ktau_net::ConnId,
        payload: u32,
        now: Ns,
        q: &mut EventQueue,
    ) {
        let st = self.tx_state_mut(conn).expect("txdone for unknown conn");
        st.tx.release(payload as u64);
        if st.tx.free() > 0 {
            if let Some(w) = st.waiting_writer.take() {
                q.push(
                    now,
                    Event::Wake {
                        node: self.id,
                        pid: w,
                    },
                );
            }
        }
    }

    /// Applies every ledgered NIC release that matured at or before `now`
    /// (dynticks replacement for dispatching the corresponding `TxDone`s).
    fn drain_releases(&mut self, conn: ktau_net::ConnId, now: Ns) {
        let Some(st) = self.tx_state_mut(conn) else {
            return;
        };
        while let Some(&(t, payload)) = st.pending_release.front() {
            if t > now {
                break;
            }
            st.pending_release.pop_front();
            st.tx.release(payload as u64);
        }
    }

    /// Dynticks: a writer blocked on sndbuf space and the first elided
    /// `TxDone` has matured.  Applies matured releases and wakes the writer
    /// — the exact effect the reference engine's `TxDone` handler would
    /// have had at this time.  Duplicate firings (the writer was woken by a
    /// send timeout meanwhile and re-armed another one) are harmless: the
    /// ledger drain is idempotent for a given `now` and the writer slot is
    /// already empty.
    pub(crate) fn on_release_wake(&mut self, conn: ktau_net::ConnId, now: Ns, q: &mut EventQueue) {
        self.drain_releases(conn, now);
        let node = self.id;
        let Some(st) = self.tx_state_mut(conn) else {
            return;
        };
        if st.tx.free() > 0 {
            if let Some(w) = st.waiting_writer.take() {
                q.push(now, Event::Wake { node, pid: w });
            }
        } else if st.waiting_writer.is_some() {
            // Matured releases freed nothing (all were already applied by a
            // racing drain): keep the writer covered by re-arming at the
            // next maturity, if any remains.
            if let Some(&(t, _)) = st.pending_release.front() {
                q.push(t, Event::ReleaseWake { node, conn });
            }
        }
    }

    /// Wake a blocked task (timer expiry, data arrival, sndbuf space).
    pub(crate) fn on_wake(&mut self, pid: Pid, now: Ns, q: &mut EventQueue, fabric: &Fabric) {
        let t = match self.tasks.get_mut(pid) {
            Some(t) => t,
            None => return,
        };
        if t.state != TaskState::Blocked {
            return; // duplicate / racing wake
        }
        t.state = TaskState::Runnable;
        t.blocked_on = None;
        t.counters.wakeups += 1;
        let cpu = self.choose_wake_cpu(pid);
        self.sched_gen += 1;
        self.runqueues[cpu as usize].push_back(pid);
        self.kick_if_idle(cpu, now, q, fabric);
    }

    // -- node degradation ----------------------------------------------------

    /// Called on every timer tick before normal tick handling; applies the
    /// node's degradation spec (late-onset CPU offlining, IRQ storms).  A
    /// node with no spec — every node in a fault-free run — returns
    /// immediately without touching the event queue.
    pub(crate) fn maybe_degrade_tick(
        &mut self,
        cpu: u8,
        now: Ns,
        q: &mut EventQueue,
        fabric: &Fabric,
    ) {
        let Some(d) = self.degrade else { return };
        if let Some(when) = d.offline_cpu_at_ns {
            if !self.offline_done && now >= when && self.online > 1 {
                self.offline_highest_cpu(now, q, fabric);
            }
        }
        if let Some(storm) = d.irq_storm {
            // One burst per tick period, keyed to CPU 0's tick.
            if cpu == 0 && now >= storm.start_ns && now < storm.end_ns {
                self.irq_storm_burst(storm.irqs_per_tick, now);
            }
        }
    }

    /// Hot-removes the node's highest-numbered CPU: its current task and
    /// runqueue migrate to the surviving CPUs, tasks pinned to it get their
    /// affinity broken (as Linux does on hotplug removal), and its tick lane
    /// dies because [`crate::sim::Cluster`] stops re-arming ticks for
    /// offlined CPUs.
    fn offline_highest_cpu(&mut self, now: Ns, q: &mut EventQueue, fabric: &Fabric) {
        self.offline_done = true;
        self.sched_gen += 1;
        let lost = self.online - 1;
        let li = lost as usize;
        self.online -= 1;
        // Invalidate any in-flight chunk on the dying CPU.
        self.cpus[li].gen += 1;
        self.cpus[li].chunk_pending = false;
        self.cpus[li].carry_cycles = 0;
        self.cpus[li].steal_ns = 0;
        let mut displaced = Vec::new();
        if self.cpus[li].current.is_some() {
            let pid = self.switch_out(lost, now, SwitchOutReason::Preempted);
            self.tasks.get_mut(pid).unwrap().state = TaskState::Runnable;
            displaced.push(pid);
        }
        while let Some(pid) = self.runqueues[li].pop_front() {
            displaced.push(pid);
        }
        // Break affinities that now exclude every online CPU.
        let live_mask: u32 = (0..self.online).map(Task::pin_mask).sum();
        for pid in self.tasks.pids() {
            let t = self.tasks.get_mut(pid).unwrap();
            if t.state != TaskState::Dead && t.kind != TaskKind::Idle && t.affinity & live_mask == 0
            {
                t.affinity = Task::ANY_CPU;
            }
        }
        for pid in displaced {
            let target = self.choose_wake_cpu(pid);
            self.runqueues[target as usize].push_back(pid);
            self.kick_if_idle(target, now, q, fabric);
        }
    }

    /// A storming device: `n` spurious NIC interrupts land back-to-back on
    /// the IRQ-routing CPU, stealing time from whatever runs there.
    fn irq_storm_burst(&mut self, n: u32, now: Ns) {
        let cpu = self.route_irq();
        let ci = cpu as usize;
        let attr_pid = self.cpus[ci].current.unwrap_or(self.cpus[ci].idle_pid);
        let mut cost: Cycles = 0;
        for _ in 0..n {
            self.tasks.get_mut(attr_pid).unwrap().counters.interrupts += 1;
            cost += self.net_costs.irq_cycles;
            cost += self.probe_enter(attr_pid, self.probes.do_irq, Group::Irq, now);
            cost += self.probe_enter(attr_pid, self.probes.eth_rx_irq, Group::Irq, now);
            let t = now + self.c2n(cost);
            cost += self.probe_exit(attr_pid, self.probes.eth_rx_irq, Group::Irq, t);
            cost += self.probe_exit(attr_pid, self.probes.do_irq, Group::Irq, t);
        }
        if self.cpus[ci].current.is_some() {
            self.cpus[ci].steal_ns += self.c2n(cost);
        }
    }

    /// Folds this node's externally-observable simulation state into a
    /// running FNV-1a hash: node id, online flag, per-CPU idle/steal
    /// accounting, then every task's [`Task::encode_observable`] bytes in
    /// pid order, written into `w` (cleared first, so one writer serves
    /// every node).  Backs [`crate::sim::Cluster::state_digest`].
    pub(crate) fn digest_into(&self, h: &mut u64, w: &mut Writer) {
        use crate::sim::fnv;
        fnv(h, self.id as u64);
        fnv(h, self.online as u64);
        for c in &self.cpus {
            fnv(h, c.idle_ns);
            fnv(h, c.steal_ns);
        }
        w.clear();
        for t in self.tasks.values() {
            t.encode_observable(w, |_| {});
        }
        ktau_core::digest::fnv_bytes(h, w.as_slice());
    }

    /// The first difference between what [`Node::digest_into`] hashes for
    /// this node and for `other`: a node field, a CPU's idle/steal time,
    /// the pid set, or the first task (pid and comm) and section of
    /// [`Task::OBSERVABLE_SECTIONS`] whose bytes differ.  Backs
    /// [`crate::sim::Cluster::state_diff`].
    pub(crate) fn state_diff(&self, other: &Node) -> Option<String> {
        let id = self.id;
        if (self.id, self.online) != (other.id, other.online) {
            return Some(format!(
                "node {id}: (id, online) ({}, {}) vs ({}, {})",
                self.id, self.online, other.id, other.online
            ));
        }
        let cpu_ns = |n: &Node| -> Vec<(Ns, Ns)> {
            n.cpus.iter().map(|c| (c.idle_ns, c.steal_ns)).collect()
        };
        let (ca, cb) = (cpu_ns(self), cpu_ns(other));
        if ca != cb {
            return Some(format!("node {id}: per-CPU (idle, steal) {ca:?} vs {cb:?}"));
        }
        let (pa, pb) = (self.tasks.pids(), other.tasks.pids());
        if pa != pb {
            return Some(format!("node {id}: pids {pa:?} vs {pb:?}"));
        }
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        for (a, b) in self.tasks.values().zip(other.tasks.values()) {
            let (mut ea, mut eb) = (vec![0], vec![0]);
            wa.clear();
            wb.clear();
            a.encode_observable(&mut wa, |w| ea.push(w.len()));
            b.encode_observable(&mut wb, |w| eb.push(w.len()));
            for (k, name) in Task::OBSERVABLE_SECTIONS.iter().enumerate() {
                if wa.as_slice()[ea[k]..ea[k + 1]] != wb.as_slice()[eb[k]..eb[k + 1]] {
                    return Some(format!(
                        "node {id} pid {} ({}) differs in {name}",
                        a.pid.0, a.comm
                    ));
                }
            }
        }
        None
    }

    // -- dynticks (NO_HZ-style) tick coalescing ------------------------------

    /// True when the next tick on `cpu` is *coalescible*: its entire handler
    /// effect is a closed-form function of current state, so it can be folded
    /// analytically instead of dispatched.  That holds unless
    ///
    /// - the node has a degradation spec (`maybe_degrade_tick` may offline a
    ///   CPU or burst IRQs at tick boundaries),
    /// - the task the tick would be attributed to has a trace buffer (trace
    ///   records carry per-tick timestamps), or
    /// - the CPU is idle and a tick could pull work from another runqueue
    ///   (idle load balancing would reschedule, changing state
    ///   non-analytically).
    pub(crate) fn tick_coalescible(&self, cpu: u8) -> bool {
        if !self.dynticks || self.degrade.is_some() {
            return false;
        }
        let ci = cpu as usize;
        match self.cpus[ci].current {
            // Busy CPU: the tick only records probes, bumps the interrupt
            // counter, and accumulates steal time — all foldable as long as
            // the attributed task is untraced.
            Some(pid) => self.tasks[pid].meas.trace.is_none(),
            // Idle CPU: additionally require that idle balancing provably
            // does nothing — own runqueue empty and no donor queue holds a
            // task allowed on this CPU.
            None => {
                if !self.runqueues[ci].is_empty() {
                    return false;
                }
                if self.tasks[self.cpus[ci].idle_pid].meas.trace.is_some() {
                    return false;
                }
                let donor = (0..self.online as usize)
                    .filter(|&o| o != ci)
                    .max_by_key(|&o| self.runqueues[o].len());
                match donor {
                    Some(o) => !self.runqueues[o]
                        .iter()
                        .any(|p| self.tasks[p].allowed_on(cpu)),
                    None => true,
                }
            }
        }
    }

    /// Parks `cpu`'s tick lane: the next tick fires at `at` but lives here
    /// instead of in the event queue until settled or re-armed.
    pub(crate) fn park_tick(&mut self, cpu: u8, at: Ns, point: Ns) {
        debug_assert!(self.parked_tick[cpu as usize].is_none(), "double park");
        self.parked_tick[cpu as usize] = Some(at);
        self.parked_gen[cpu as usize] = self.sched_gen;
        self.parked_point[cpu as usize] = point;
        self.parked_min = self.parked_min.min(at);
    }

    /// Number of currently parked tick lanes (diagnostics).
    pub fn parked_lanes(&self) -> usize {
        self.parked_tick.iter().filter(|p| p.is_some()).count()
    }

    /// Re-arms every parked lane as an ordinary queued tick (external
    /// mutation is about to invalidate the parked-state assumptions).
    pub(crate) fn unpark_all(&mut self, q: &mut EventQueue) {
        let node = self.id;
        for ci in 0..self.parked_tick.len() {
            if let Some(t) = self.parked_tick[ci].take() {
                q.push_at(
                    t,
                    Event::Tick {
                        node,
                        cpu: ci as u8,
                    },
                    self.parked_point[ci],
                );
            }
        }
        self.parked_min = u64::MAX;
    }

    /// Re-arms only the parked lanes that are no longer coalescible (called
    /// after every handled event on this node).
    pub(crate) fn arm_uncoalescible(&mut self, q: &mut EventQueue) {
        if self.parked_min == u64::MAX || self.armed_gen == self.sched_gen {
            return; // nothing parked, or nothing moved since the last scan
        }
        let node = self.id;
        let mut min = u64::MAX;
        for ci in 0..self.parked_tick.len() {
            let Some(at) = self.parked_tick[ci] else {
                continue;
            };
            // Scheduler state unchanged since this lane was last judged
            // coalescible: the verdict still holds, skip the rq scan.
            if self.parked_gen[ci] != self.sched_gen {
                if self.tick_coalescible(ci as u8) {
                    self.parked_gen[ci] = self.sched_gen;
                } else {
                    // Re-arm with the push point the reference engine gave
                    // this tick, so it keeps its exact rank among
                    // same-nanosecond events.
                    self.parked_tick[ci] = None;
                    q.push_at(
                        at,
                        Event::Tick {
                            node,
                            cpu: ci as u8,
                        },
                        self.parked_point[ci],
                    );
                    continue;
                }
            }
            min = min.min(at);
        }
        self.parked_min = min;
        self.armed_gen = self.sched_gen;
    }

    /// Folds every parked tick firing strictly before `horizon` in closed
    /// form and advances the parked lanes past it.  Exact because parked
    /// lanes were coalescible when parked and node state only changes
    /// through this node's own events, each of which settles first.
    ///
    /// `tie_point` — the push point of the event about to be dispatched at
    /// `horizon`, when there is one — extends the fold to a parked tick
    /// firing *exactly at* `horizon`: the reference engine pushed that tick
    /// at `horizon - tick_ns`, so under `(time, push-point, seq)` order it
    /// dispatches before the event iff the event was pushed strictly later.
    /// (A push-point tie would recurse into seq ranks the dynticks engine
    /// does not materialize; the event wins then — see DESIGN.md.)
    pub(crate) fn settle_parked(&mut self, horizon: Ns, tick_ns: Ns, tie_point: Option<Ns>) {
        if self.parked_min > horizon || (self.parked_min == horizon && tie_point.is_none()) {
            return; // no parked lane fires before (or ties with) the horizon
        }
        let mut min = u64::MAX;
        for ci in 0..self.parked_tick.len() {
            if let Some(first) = self.parked_tick[ci] {
                // Grid points in [first, horizon), spaced tick_ns apart.
                // Hot case: the lane head is within one period of the
                // horizon, so exactly one tick folds and the division
                // (whose quotient would be zero) is skipped.
                let mut k = if first < horizon {
                    let gap = horizon - 1 - first;
                    if gap < tick_ns {
                        1
                    } else {
                        gap / tick_ns + 1
                    }
                } else {
                    0
                };
                let mut next = first + k * tick_ns;
                if let Some(p) = tie_point {
                    if next == horizon {
                        // The tick tying with the event: its reference push
                        // point is the recorded one if it is the lane head,
                        // else one period back (it was re-armed at the
                        // previous grid point).
                        let pt = if k == 0 {
                            self.parked_point[ci]
                        } else {
                            horizon - tick_ns
                        };
                        if pt < p {
                            k += 1;
                            next += tick_ns;
                        }
                    }
                }
                if k > 0 {
                    self.fold_ticks(ci as u8, k);
                    self.parked_tick[ci] = Some(next);
                    self.parked_point[ci] = next - tick_ns;
                }
                min = min.min(self.parked_tick[ci].unwrap());
            }
        }
        self.parked_min = min;
    }

    /// Applies the effect of `k` consecutive coalescible ticks on `cpu`
    /// analytically: per tick, the `do_irq`/`timer_interrupt` probe
    /// quadruple spans `d = c2n(tick_cycles + entry costs)` nanoseconds,
    /// the attributed task's interrupt counter bumps, and (busy CPUs only)
    /// `c2n(total handler cost)` is stolen from the in-flight chunk —
    /// rounded per tick, exactly as the dispatched handler rounds.
    fn fold_ticks(&mut self, cpu: u8, k: u64) {
        let ci = cpu as usize;
        let attr_pid = self.cpus[ci].current.unwrap_or(self.cpus[ci].idle_pid);
        let busy = self.cpus[ci].current.is_some();
        // `d`/`steal_each` depend only on static scheduler parameters, the
        // CPU frequency, and the probe configuration; re-derive them only
        // when the configuration generation moves.
        let gen = self.engine.cost_gen();
        let (d, steal_each) = match self.fold_costs {
            Some((g, d, s)) if g == gen => (d, s),
            _ => {
                let inner = self.sched.tick_cycles
                    + self.engine.entry_cost(Group::Irq)
                    + self.engine.entry_cost(Group::Timer);
                let d = self.c2n(inner);
                let total =
                    inner + self.engine.exit_cost(Group::Timer) + self.engine.exit_cost(Group::Irq);
                let steal_each = self.c2n(total);
                self.fold_costs = Some((gen, d, steal_each));
                (d, steal_each)
            }
        };
        let t = self
            .tasks
            .get_mut(attr_pid)
            .expect("attributed task exists");
        t.counters.interrupts += k;
        self.engine.kernel_pair_batch(
            &mut t.meas,
            self.probes.do_irq,
            Group::Irq,
            self.probes.timer_interrupt,
            Group::Timer,
            d,
            k,
        );
        if busy {
            self.cpus[ci].steal_ns += k * steal_each;
        }
        self.ticks_coalesced += k;
    }

    fn route_irq(&mut self) -> u8 {
        match self.spec.irq {
            IrqPolicy::AllToCpu0 => 0,
            IrqPolicy::PinnedTo(c) => c.min(self.online - 1),
            IrqPolicy::Balanced => {
                let c = self.irq_rr % self.online;
                self.irq_rr = self.irq_rr.wrapping_add(1);
                c
            }
        }
    }

    // -- sockets -------------------------------------------------------------

    /// Installs the sending end of a connection on this node, with
    /// retransmission machinery when the link has a fault injector.
    pub(crate) fn add_tx(&mut self, conn: ktau_net::ConnId, injector: Option<LinkInjector>) {
        let i = conn.0 as usize;
        if i >= self.sock_tx.len() {
            self.sock_tx.resize_with(i + 1, || None);
        }
        let fault = injector.map(|injector| TxFault {
            rto_ns: injector.rto_ns(),
            injector,
            unacked: BTreeMap::new(),
            timer_gen: 0,
            timer_armed: false,
            backoff: 0,
            retransmits: 0,
            timer_fires: 0,
        });
        self.sock_tx[i] = Some(TxState {
            tx: SocketTx::new(self.sndbuf_bytes),
            waiting_writer: None,
            fault,
            pending_release: VecDeque::new(),
        });
    }

    /// Installs the receiving end of a connection on this node.  A
    /// configured `rcvbuf` bounds the receive queue; `None` keeps the
    /// legacy unbounded model.
    pub(crate) fn add_rx(
        &mut self,
        conn: ktau_net::ConnId,
        loopback: bool,
        fault_active: bool,
        rcvbuf: Option<u64>,
    ) {
        let i = conn.0 as usize;
        if i >= self.sock_rx.len() {
            self.sock_rx.resize_with(i + 1, || None);
        }
        let rx = match rcvbuf {
            Some(cap) => SocketRx::bounded(cap),
            None => SocketRx::new(),
        };
        self.sock_rx[i] = Some(RxState {
            rx,
            waiting_reader: None,
            reader_pid: None,
            loopback,
            ack_pending: 0,
            fault_active,
        });
    }

    /// Replaces the fault machinery of a sending connection in place,
    /// keeping the socket/sndbuf accounting untouched.  Used by mid-run
    /// fault-plan mutation (fork variants); returns whether the connection
    /// still carries fault machinery (and so needs per-segment ACKs from
    /// the receiving side).
    ///
    /// Segments already dropped on the wire exist only in the old
    /// machinery's retransmit queue, so that bookkeeping (unacked map,
    /// armed timer, backoff) is preserved across the swap — discarding it
    /// would lose the data forever and deadlock the reader.  The injector
    /// itself is replaced: a new plan's injector starts its PRNG stream at
    /// position 0; clearing faults on a link with outstanding repair
    /// obligations installs a zero-rate injector (judges every future
    /// segment `Deliver`) so the queue can drain.  Only a link that is
    /// fully repaired returns to the fault-free fast path.  All of this is
    /// a pure function of the pre-mutation state, so a forked and an
    /// uninterrupted cluster mutate identically.
    pub(crate) fn set_tx_fault(
        &mut self,
        conn: ktau_net::ConnId,
        injector: Option<LinkInjector>,
    ) -> bool {
        let Some(st) = self.tx_state_mut(conn) else {
            return false;
        };
        let old = st.fault.take();
        let in_repair = old
            .as_ref()
            .is_some_and(|f| !f.unacked.is_empty() || f.timer_armed);
        st.fault = match (injector, old) {
            (Some(injector), old) => Some(TxFault {
                rto_ns: injector.rto_ns(),
                injector,
                unacked: old
                    .as_ref()
                    .filter(|_| in_repair)
                    .map(|f| f.unacked.clone())
                    .unwrap_or_default(),
                timer_gen: old.as_ref().map_or(0, |f| f.timer_gen),
                timer_armed: in_repair && old.as_ref().is_some_and(|f| f.timer_armed),
                backoff: old.as_ref().filter(|_| in_repair).map_or(0, |f| f.backoff),
                retransmits: old.as_ref().map_or(0, |f| f.retransmits),
                timer_fires: old.as_ref().map_or(0, |f| f.timer_fires),
            }),
            (None, Some(old)) if in_repair => Some(TxFault {
                injector: LinkInjector::resume(
                    ktau_net::FaultSpec {
                        rto_ns: old.rto_ns,
                        ..Default::default()
                    },
                    old.injector.rng_state(),
                ),
                ..old
            }),
            (None, _) => None,
        };
        st.fault.is_some()
    }

    /// Flags a receiving connection as fault-active (ACK every segment) or
    /// not, matching [`Node::set_tx_fault`] on the sending side.
    pub(crate) fn set_rx_fault_active(&mut self, conn: ktau_net::ConnId, active: bool) {
        if let Some(st) = self.rx_state_mut(conn) {
            st.fault_active = active;
        }
    }

    /// Installs (or clears) a degradation spec mid-run.  A completed
    /// late-onset CPU removal stays done; a new `offline_cpu_at_ns` only
    /// acts if the node has not offlined a CPU yet.
    pub(crate) fn set_degrade(&mut self, d: Option<DegradeSpec>) {
        self.degrade = d.filter(|d| !d.is_zero());
    }
}

// -- engine snapshot codec ---------------------------------------------------

use ktau_core::wire::{CodecError, Reader, Writer};

fn w_opt_pid(w: &mut Writer, p: Option<Pid>) {
    match p {
        None => w.u8(0),
        Some(p) => {
            w.u8(1);
            w.u32(p.0);
        }
    }
}

fn r_opt_pid(r: &mut Reader<'_>) -> Result<Option<Pid>, CodecError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(Pid(r.u32()?)),
        _ => return Err(CodecError::BadField("pid option")),
    })
}

fn w_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            w.u64(v);
        }
    }
}

fn r_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, CodecError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        _ => return Err(CodecError::BadField("u64 option")),
    })
}

impl Node {
    /// Serializes every dynamic field of the node for engine snapshots.
    /// Structural state a fresh [`Node::boot`] from the same spec recreates
    /// identically (name, kernel probe registrations, clock) is *not*
    /// written; [`Node::apply_state`] overlays this image onto such a boot.
    pub(crate) fn encode_state(&self, w: &mut Writer) {
        w.u32(self.id);
        w.u8(self.online);
        w.u32(self.next_pid);
        w.u8(self.irq_rr);
        w.u64(self.apps_exited);
        w.u64(self.apps_spawned);
        w.bool(self.offline_done);
        w.bool(self.dynticks);
        w.u64(self.sched_gen);
        w.u64(self.armed_gen);
        w.u64(self.parked_min);
        w.u64(self.ticks_coalesced);
        w.u64(self.txdone_elided);
        match &self.degrade {
            None => w.u8(0),
            Some(d) => {
                w.u8(1);
                crate::snapshot::encode_degrade_spec(w, d);
            }
        }
        self.engine.control().encode_wire(w);
        let o = self.engine.overhead();
        for v in [
            o.start_cycles,
            o.stop_cycles,
            o.atomic_cycles,
            o.disabled_check_cycles,
            o.trace_record_cycles,
        ] {
            w.u64(v);
        }
        let nic = self.nic.export_state();
        w.u64(nic.bits_per_sec);
        w.u64(nic.tx_free_at);
        w.u64(nic.total_wire_bytes);
        w.u64(nic.total_segments);
        w.u32(self.cpus.len() as u32);
        for c in &self.cpus {
            w.u8(c.id);
            w_opt_pid(w, c.current);
            w.u32(c.idle_pid.0);
            w.u64(c.gen);
            w.u64(c.steal_ns);
            w.u64(c.carry_cycles);
            w.u64(c.slice_end);
            w.u64(c.in_since);
            w.u64(c.idle_since);
            w.u64(c.idle_ns);
            w.bool(c.chunk_pending);
        }
        w.u32(self.runqueues.len() as u32);
        for rq in &self.runqueues {
            w.u32(rq.len() as u32);
            for p in rq {
                w.u32(p.0);
            }
        }
        w.u32(self.parked_tick.len() as u32);
        for i in 0..self.parked_tick.len() {
            w_opt_u64(w, self.parked_tick[i]);
            w.u64(self.parked_gen[i]);
            w.u64(self.parked_point[i]);
        }
        let slots = self.tasks.slots();
        w.u32(slots.len() as u32);
        for s in slots {
            match s {
                None => w.u8(0),
                Some(t) => {
                    w.u8(1);
                    t.encode_wire(w);
                }
            }
        }
        w.u32(self.sock_tx.len() as u32);
        for st in &self.sock_tx {
            match st {
                None => w.u8(0),
                Some(st) => {
                    w.u8(1);
                    let tx = st.tx.export_state();
                    w.u64(tx.capacity);
                    w.u64(tx.in_flight);
                    w.u64(tx.next_seq);
                    w.u64(tx.total_sent);
                    w_opt_pid(w, st.waiting_writer);
                    match &st.fault {
                        None => w.u8(0),
                        Some(f) => {
                            w.u8(1);
                            crate::snapshot::encode_fault_spec(w, f.injector.spec());
                            for word in f.injector.rng_state() {
                                w.u64(word);
                            }
                            w.u64(f.rto_ns);
                            w.u32(f.unacked.len() as u32);
                            for (&seq, &payload) in &f.unacked {
                                w.u64(seq);
                                w.u32(payload);
                            }
                            w.u64(f.timer_gen);
                            w.bool(f.timer_armed);
                            w.u32(f.backoff);
                            w.u64(f.retransmits);
                            w.u64(f.timer_fires);
                        }
                    }
                    w.u32(st.pending_release.len() as u32);
                    for &(t, payload) in &st.pending_release {
                        w.u64(t);
                        w.u32(payload);
                    }
                }
            }
        }
        w.u32(self.sock_rx.len() as u32);
        for st in &self.sock_rx {
            match st {
                None => w.u8(0),
                Some(st) => {
                    w.u8(1);
                    let rx = st.rx.export_state();
                    w.u64(rx.available);
                    w.u64(rx.expected_seq);
                    w.u64(rx.total_received);
                    w.u64(rx.total_consumed);
                    w_opt_u64(w, rx.capacity);
                    w.u32(rx.ooo.len() as u32);
                    for (seq, payload) in &rx.ooo {
                        w.u64(*seq);
                        w.u32(*payload);
                    }
                    w.u64(rx.ooo_bytes);
                    w.u64(rx.refused_bytes);
                    w.u64(rx.refused_segments);
                    w.u64(rx.duplicate_segments);
                    w_opt_pid(w, st.waiting_reader);
                    w_opt_pid(w, st.reader_pid);
                    w.bool(st.loopback);
                    w.u8(st.ack_pending);
                    w.bool(st.fault_active);
                }
            }
        }
        w.u32(self.user_events.len() as u32);
        for (name, id) in &self.user_events {
            w.str(name);
            w.u32(id.0);
        }
    }

    /// Overlays a captured image onto this freshly booted node, making it
    /// bit-identical (digest and future behaviour) to the captured one.
    /// Returns the pids whose tasks had a program attached at capture; the
    /// caller re-attaches the snapshot side-car clones under those pids.
    pub(crate) fn apply_state(&mut self, r: &mut Reader<'_>) -> Result<Vec<Pid>, CodecError> {
        if r.u32()? != self.id {
            return Err(CodecError::BadField("node id"));
        }
        self.online = r.u8()?;
        self.next_pid = r.u32()?;
        self.irq_rr = r.u8()?;
        self.apps_exited = r.u64()?;
        self.apps_spawned = r.u64()?;
        self.offline_done = r.bool()?;
        if r.bool()? != self.dynticks {
            return Err(CodecError::BadField("engine mode"));
        }
        self.sched_gen = r.u64()?;
        self.armed_gen = r.u64()?;
        self.parked_min = r.u64()?;
        self.ticks_coalesced = r.u64()?;
        self.txdone_elided = r.u64()?;
        self.degrade = match r.u8()? {
            0 => None,
            1 => Some(crate::snapshot::decode_degrade_spec(r)?),
            _ => return Err(CodecError::BadField("degrade option")),
        };
        let control = ktau_core::control::InstrumentationControl::decode_wire(r)?;
        // Preserve the boot-time `Arc` sharing across nodes: only write
        // (copy-on-write) when the captured control actually diverged.
        if self.engine.control() != &control {
            *self.engine.control_mut() = control;
        }
        let overhead = ktau_core::control::OverheadModel {
            start_cycles: r.u64()?,
            stop_cycles: r.u64()?,
            atomic_cycles: r.u64()?,
            disabled_check_cycles: r.u64()?,
            trace_record_cycles: r.u64()?,
        };
        self.engine.set_overhead(overhead);
        let nic = ktau_net::NicState {
            bits_per_sec: r.u64()?,
            tx_free_at: r.u64()?,
            total_wire_bytes: r.u64()?,
            total_segments: r.u64()?,
        };
        if nic.bits_per_sec == 0 {
            return Err(CodecError::BadField("nic rate"));
        }
        self.nic = Nic::from_state(nic);
        // Every count below is checked against the bytes left before
        // anything is reserved for it: each element occupies at least the
        // given number of image bytes.
        let n_cpus = r.counted(63, "cpu count")?;
        let mut cpus = Vec::with_capacity(n_cpus);
        for _ in 0..n_cpus {
            cpus.push(Cpu {
                id: r.u8()?,
                current: r_opt_pid(r)?,
                idle_pid: Pid(r.u32()?),
                gen: r.u64()?,
                steal_ns: r.u64()?,
                carry_cycles: r.u64()?,
                slice_end: r.u64()?,
                in_since: r.u64()?,
                idle_since: r.u64()?,
                idle_ns: r.u64()?,
                chunk_pending: r.bool()?,
            });
        }
        self.cpus = cpus;
        let n_rq = r.counted(4, "runqueue count")?;
        let mut runqueues = Vec::with_capacity(n_rq);
        for _ in 0..n_rq {
            let len = r.counted(4, "runqueue length")?;
            let mut rq = VecDeque::with_capacity(len);
            for _ in 0..len {
                rq.push_back(Pid(r.u32()?));
            }
            runqueues.push(rq);
        }
        self.runqueues = runqueues;
        let n_lanes = r.counted(17, "tick lane count")?;
        let mut parked_tick = Vec::with_capacity(n_lanes);
        let mut parked_gen = Vec::with_capacity(n_lanes);
        let mut parked_point = Vec::with_capacity(n_lanes);
        for _ in 0..n_lanes {
            parked_tick.push(r_opt_u64(r)?);
            parked_gen.push(r.u64()?);
            parked_point.push(r.u64()?);
        }
        self.parked_tick = parked_tick;
        self.parked_gen = parked_gen;
        self.parked_point = parked_point;
        let n_slots = r.counted(1, "task slot count")?;
        let mut slots = Vec::with_capacity(n_slots);
        let mut needs_program = Vec::new();
        for _ in 0..n_slots {
            match r.u8()? {
                0 => slots.push(None),
                1 => {
                    let (task, has_program) = Task::decode_wire(r)?;
                    // The slot index is the pid.
                    if task.pid.0 as usize != slots.len() {
                        return Err(CodecError::Corrupt("task pid"));
                    }
                    if has_program {
                        needs_program.push(task.pid);
                    }
                    slots.push(Some(task));
                }
                _ => return Err(CodecError::BadField("task slot")),
            }
        }
        self.tasks = TaskTable::from_slots(slots);
        let n_tx = r.counted(1, "tx socket count")?;
        let mut sock_tx = Vec::with_capacity(n_tx);
        for _ in 0..n_tx {
            match r.u8()? {
                0 => sock_tx.push(None),
                1 => {
                    let txs = ktau_net::SocketTxState {
                        capacity: r.u64()?,
                        in_flight: r.u64()?,
                        next_seq: r.u64()?,
                        total_sent: r.u64()?,
                    };
                    if txs.capacity == 0 {
                        return Err(CodecError::BadField("sndbuf capacity"));
                    }
                    let tx = SocketTx::from_state(txs);
                    let waiting_writer = r_opt_pid(r)?;
                    let fault = match r.u8()? {
                        0 => None,
                        1 => {
                            let spec = crate::snapshot::decode_fault_spec(r)?;
                            let mut state = [0u64; 4];
                            for word in &mut state {
                                *word = r.u64()?;
                            }
                            let injector = LinkInjector::resume(spec, state);
                            let rto_ns = r.u64()?;
                            let n_unacked = r.counted(12, "unacked segment count")?;
                            let mut unacked = BTreeMap::new();
                            for _ in 0..n_unacked {
                                let seq = r.u64()?;
                                let payload = r.u32()?;
                                unacked.insert(seq, payload);
                            }
                            Some(TxFault {
                                injector,
                                rto_ns,
                                unacked,
                                timer_gen: r.u64()?,
                                timer_armed: r.bool()?,
                                backoff: r.u32()?,
                                retransmits: r.u64()?,
                                timer_fires: r.u64()?,
                            })
                        }
                        _ => return Err(CodecError::BadField("tx fault option")),
                    };
                    let n_rel = r.counted(12, "pending release count")?;
                    let mut pending_release = VecDeque::with_capacity(n_rel);
                    for _ in 0..n_rel {
                        let t = r.u64()?;
                        let payload = r.u32()?;
                        pending_release.push_back((t, payload));
                    }
                    sock_tx.push(Some(TxState {
                        tx,
                        waiting_writer,
                        fault,
                        pending_release,
                    }));
                }
                _ => return Err(CodecError::BadField("tx slot")),
            }
        }
        self.sock_tx = sock_tx;
        let n_rx = r.counted(1, "rx socket count")?;
        let mut sock_rx = Vec::with_capacity(n_rx);
        for _ in 0..n_rx {
            match r.u8()? {
                0 => sock_rx.push(None),
                1 => {
                    let available = r.u64()?;
                    let expected_seq = r.u64()?;
                    let total_received = r.u64()?;
                    let total_consumed = r.u64()?;
                    let capacity = r_opt_u64(r)?;
                    let n_ooo = r.counted(12, "out-of-order segment count")?;
                    let mut ooo = Vec::with_capacity(n_ooo);
                    for _ in 0..n_ooo {
                        let seq = r.u64()?;
                        let payload = r.u32()?;
                        ooo.push((seq, payload));
                    }
                    let rxs = ktau_net::SocketRxState {
                        available,
                        expected_seq,
                        total_received,
                        total_consumed,
                        capacity,
                        ooo,
                        ooo_bytes: r.u64()?,
                        refused_bytes: r.u64()?,
                        refused_segments: r.u64()?,
                        duplicate_segments: r.u64()?,
                    };
                    sock_rx.push(Some(RxState {
                        rx: SocketRx::from_state(rxs),
                        waiting_reader: r_opt_pid(r)?,
                        reader_pid: r_opt_pid(r)?,
                        loopback: r.bool()?,
                        ack_pending: r.u8()?,
                        fault_active: r.bool()?,
                    }));
                }
                _ => return Err(CodecError::BadField("rx slot")),
            }
        }
        self.sock_rx = sock_rx;
        // Rebuild user-routine registrations by replaying them in capture
        // order: the registry hands out dense ids deterministically, so
        // each replayed id must equal the captured one.
        let n_user = r.counted(8, "user event count")?;
        for _ in 0..n_user {
            let name = r.str()?;
            let id = r.u32()?;
            let interned = crate::snapshot::intern(name);
            if self.user_event(interned).0 != id {
                return Err(CodecError::BadField("user event id"));
            }
        }
        Ok(needs_program)
    }

    /// Re-attaches a side-car program clone to a task after
    /// [`Node::apply_state`].
    pub(crate) fn attach_program(
        &mut self,
        pid: Pid,
        program: Box<dyn Program>,
    ) -> Result<(), CodecError> {
        self.tasks
            .get_mut(pid)
            .ok_or(CodecError::BadField("program side-car pid"))?
            .program = Some(program);
        Ok(())
    }
}
