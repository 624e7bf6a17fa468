//! # ktau-net — TCP / NIC / cluster-fabric models
//!
//! The network substrate underneath the simulated Linux kernel.  The paper's
//! experiments run MPI over per-node 100 Mbit Ethernet (Chiba-City); the
//! phenomena KTAU exposes — bottom-half TCP processing stealing CPU time
//! from pinned tasks, per-call TCP cost dilation on busy SMP nodes, NIC
//! sharing between co-located ranks — all originate here.
//!
//! This crate is a *pure model*: it owns connection state, socket buffers,
//! NIC serialization and per-segment CPU cost functions, but has no clock
//! and schedules no events.  The kernel (`ktau-oskern`) drives it, passing
//! timestamps in and turning the returned times into discrete events, and
//! charges the returned CPU costs at its own instrumentation points
//! (`tcp_sendmsg`, `tcp_v4_rcv`, ...).

#![warn(missing_docs)]

/// Virtual nanoseconds (kept local so this crate avoids a `ktau-core`
/// dependency; its only external need is the vendored seeded PRNG used by
/// [`fault`]).
pub type Ns = u64;
/// CPU cycles.
pub type Cycles = u64;

pub mod cost;
pub mod fabric;
pub mod fault;
pub mod nic;
pub mod segment;
pub mod socket;

pub use cost::NetCostModel;
pub use fabric::{Fabric, LinkSpec};
pub use fault::{FaultPlan, FaultSpec, LinkInjector, LinkMatch, SegmentFate, DEFAULT_RTO_NS};
pub use nic::{Nic, NicState};
pub use segment::{segment_count, segment_sizes, Segment, MSS, WIRE_OVERHEAD};
pub use socket::{ConnId, DeliverOutcome, SocketRx, SocketRxState, SocketTx, SocketTxState};
