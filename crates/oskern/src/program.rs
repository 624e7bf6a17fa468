//! User-space programs as op generators.
//!
//! A simulated process is a [`Program`]: a stateful generator of [`Op`]s the
//! kernel executes one at a time.  Workload crates build programs out of
//! compute bursts, socket sends/receives, sleeps and instrumented user-routine
//! brackets; the kernel lowers each op onto syscalls, scheduling and the
//! network stack.

use ktau_core::time::{Cycles, Ns};
use ktau_net::ConnId;

/// One operation of a simulated user program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Burn CPU for `cycles` in user mode (preemptible).
    Compute(Cycles),
    /// Enter an instrumented user routine (TAU probe).  MPI-library routines
    /// (names starting with `MPI_`) are attributed to the MPI group.
    UserEnter(&'static str),
    /// Exit the innermost instrumented user routine.
    UserExit(&'static str),
    /// Write `bytes` to a connection (lowered to
    /// `sys_writev → sock_sendmsg → tcp_sendmsg`; blocks on a full sndbuf).
    Send {
        /// Destination connection.
        conn: ConnId,
        /// Payload bytes.
        bytes: u64,
    },
    /// Like [`Op::Send`], but each stall waiting for sndbuf space is bounded
    /// by `timeout_ns`.  When an attempt times out the send is retried (the
    /// bytes already queued stay queued — this re-arms the wait, it does not
    /// resend); after `max_retries` further timeouts the process aborts with
    /// a diagnostic in `Task::last_error`.  MPI eager sends over lossy links
    /// lower to this instead of waiting forever on a dead peer.
    SendTimed {
        /// Destination connection.
        conn: ConnId,
        /// Payload bytes.
        bytes: u64,
        /// Per-attempt timeout for sndbuf-space waits.
        timeout_ns: Ns,
        /// Additional attempts allowed after the first times out.
        max_retries: u32,
    },
    /// Read exactly `bytes` from a connection (lowered to blocking
    /// `sys_read` calls).
    Recv {
        /// Source connection.
        conn: ConnId,
        /// Payload bytes to consume.
        bytes: u64,
    },
    /// Sleep for a duration (`sys_nanosleep`).
    Sleep(Ns),
    /// Cheap no-op system call (`sys_getpid`), for syscall-latency studies.
    SyscallNull,
    /// Yield the CPU (`sched_yield`).
    Yield,
    /// Take a page fault (exception path).
    PageFault,
    /// Deliver a signal to self (signal path).
    SignalSelf,
    /// Terminate the process.
    Exit,
}

/// A stateful op generator; the process body.
pub trait Program: Send {
    /// Produces the next operation.  Must keep returning [`Op::Exit`] once
    /// finished (the kernel stops asking after the first `Exit`).
    fn next_op(&mut self) -> Op;

    /// Deep-copies the program, mid-execution state included.  Backs
    /// mid-run cluster snapshots: a cloned task must replay exactly the op
    /// sequence the original would have produced.
    fn clone_box(&self) -> Box<dyn Program>;
}

impl Clone for Box<dyn Program> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A program replaying a fixed op list, then exiting.
#[derive(Debug, Clone)]
pub struct OpList {
    ops: std::vec::IntoIter<Op>,
}

impl OpList {
    /// Wraps a list of ops (an implicit `Exit` is appended).
    pub fn new(ops: Vec<Op>) -> Self {
        OpList {
            ops: ops.into_iter(),
        }
    }
}

impl Program for OpList {
    fn next_op(&mut self) -> Op {
        self.ops.next().unwrap_or(Op::Exit)
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

/// A program built from a closure.  The closure must be `Clone` so tasks
/// running it can be checkpointed; captured state (counters, PRNGs) clones
/// with it.
#[derive(Clone)]
pub struct FnProgram<F: FnMut() -> Op + Send + Clone>(pub F);

impl<F: FnMut() -> Op + Send + Clone + 'static> Program for FnProgram<F> {
    fn next_op(&mut self) -> Op {
        (self.0)()
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

/// An endlessly repeating cycle of ops (daemons, busy loops).
#[derive(Debug, Clone)]
pub struct LoopProgram {
    ops: Vec<Op>,
    idx: usize,
}

impl LoopProgram {
    /// Cycles through `ops` forever. Panics on an empty list or one that
    /// contains `Exit` (a looping daemon never exits).
    pub fn new(ops: Vec<Op>) -> Self {
        assert!(!ops.is_empty(), "loop program needs at least one op");
        assert!(
            !ops.contains(&Op::Exit),
            "loop program must not contain Exit"
        );
        LoopProgram { ops, idx: 0 }
    }
}

impl Program for LoopProgram {
    fn next_op(&mut self) -> Op {
        let op = self.ops[self.idx];
        self.idx = (self.idx + 1) % self.ops.len();
        op
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oplist_replays_then_exits_forever() {
        let mut p = OpList::new(vec![Op::Compute(100), Op::SyscallNull]);
        assert_eq!(p.next_op(), Op::Compute(100));
        assert_eq!(p.next_op(), Op::SyscallNull);
        assert_eq!(p.next_op(), Op::Exit);
        assert_eq!(p.next_op(), Op::Exit);
    }

    #[test]
    fn loop_program_cycles() {
        let mut p = LoopProgram::new(vec![Op::Compute(1), Op::Sleep(2)]);
        assert_eq!(p.next_op(), Op::Compute(1));
        assert_eq!(p.next_op(), Op::Sleep(2));
        assert_eq!(p.next_op(), Op::Compute(1));
    }

    #[test]
    #[should_panic(expected = "must not contain Exit")]
    fn loop_program_rejects_exit() {
        let _ = LoopProgram::new(vec![Op::Exit]);
    }

    #[test]
    fn fn_program_invokes_closure() {
        let mut n = 0u64;
        let mut p = FnProgram(move || {
            n += 1;
            if n > 2 {
                Op::Exit
            } else {
                Op::Compute(n)
            }
        });
        assert_eq!(p.next_op(), Op::Compute(1));
        assert_eq!(p.next_op(), Op::Compute(2));
        assert_eq!(p.next_op(), Op::Exit);
    }
}
