//! # ktau-oskern — a simulated Linux cluster with KTAU compiled in
//!
//! The substrate substitution for the paper's patched Linux 2.4/2.6 kernels:
//! a deterministic discrete-event simulation of an SMP cluster whose kernels
//! carry KTAU instrumentation points at the same places the real patch
//! touches Linux — `schedule()`/`schedule_vol()`, system-call entry/exit,
//! `do_IRQ`, the timer interrupt, `do_softirq`, and the socket/TCP layers.
//!
//! * [`config`] — cluster/node/scheduler/noise configuration;
//! * [`program`] — user processes as op generators;
//! * [`task`] — the process control block (with the KTAU measurement
//!   structure attached, as in the paper);
//! * [`node`] — one kernel instance: scheduler, syscalls, IRQ routing,
//!   softirqs, socket lowering;
//! * [`sim`] — the global event queue and [`sim::Cluster`];
//! * [`snapshot`] — the `KTAS` engine image behind snapshot/resume/fork;
//! * [`procfs`] — the session-less `/proc/ktau` interface plus
//!   `/proc/cpuinfo`;
//! * [`probes`] — the fixed kernel instrumentation points;
//! * [`noise`] — background daemons and the §5.1 anomaly workload.

#![warn(missing_docs)]

pub mod config;
pub mod counters;
pub mod node;
pub mod noise;
pub mod probes;
pub mod procfs;
pub mod program;
pub mod sim;
pub mod snapshot;
pub mod task;

pub use config::{
    ClusterSpec, DegradeSpec, IrqPolicy, IrqStormSpec, NodeSpec, NoiseSpec, SchedParams,
};
pub use counters::TaskCounters;
pub use node::{Cpu, Node, RxConnStats, TaskSpec, TxConnStats};
pub use probes::{names as probe_names, KernelProbes};
pub use procfs::ProcError;
pub use program::{FnProgram, LoopProgram, Op, OpList, Program};
pub use sim::{Cluster, Event, EventQueue};
pub use snapshot::{ClusterSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use task::{BlockedOn, OpState, Pid, SendRetry, SwitchOutReason, Task, TaskKind, TaskState};
