//! MPI-level operations and the application trait.

use ktau_core::time::Cycles;

/// An MPI rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rank(pub u32);

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// One MPI-level operation emitted by a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiOp {
    /// Burn CPU in user mode.
    Compute(Cycles),
    /// Enter an instrumented user routine (TAU).
    Enter(&'static str),
    /// Exit an instrumented user routine.
    Exit(&'static str),
    /// Blocking standard-mode send (eager protocol).
    Send {
        /// Destination rank.
        to: Rank,
        /// Message payload bytes.
        bytes: u64,
    },
    /// Blocking receive of a specific message.
    Recv {
        /// Source rank.
        from: Rank,
        /// Message payload bytes.
        bytes: u64,
    },
    /// Dissemination barrier over the whole job.
    Barrier,
    /// Allreduce of `bytes` per stage (recursive dissemination pattern).
    Allreduce {
        /// Payload bytes exchanged per round.
        bytes: u64,
    },
    /// Sleep (used by benchmark scaffolding).
    Sleep(u64),
    /// Rank is finished; the process exits.
    Finish,
}

/// A rank-parallel (SPMD) application.  Each rank owns one `MpiApp`
/// instance, constructed by the workload for that rank.
pub trait MpiApp: Send {
    /// Produces the rank's next MPI operation.  Must keep returning
    /// [`MpiOp::Finish`] once done.
    fn next(&mut self) -> MpiOp;

    /// Deep-copies the app, mid-execution state included, so the rank's
    /// process can be captured in cluster snapshots.
    fn clone_app(&self) -> Box<dyn MpiApp>;
}

impl Clone for Box<dyn MpiApp> {
    fn clone(&self) -> Self {
        self.clone_app()
    }
}

/// An app replaying a fixed list of MPI ops.
#[derive(Debug, Clone)]
pub struct MpiOpList {
    ops: std::vec::IntoIter<MpiOp>,
}

impl MpiOpList {
    /// Wraps a list (an implicit `Finish` is appended).
    pub fn new(ops: Vec<MpiOp>) -> Self {
        MpiOpList {
            ops: ops.into_iter(),
        }
    }
}

impl MpiApp for MpiOpList {
    fn next(&mut self) -> MpiOp {
        self.ops.next().unwrap_or(MpiOp::Finish)
    }

    fn clone_app(&self) -> Box<dyn MpiApp> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_finishes_forever() {
        let mut a = MpiOpList::new(vec![MpiOp::Compute(5)]);
        assert_eq!(a.next(), MpiOp::Compute(5));
        assert_eq!(a.next(), MpiOp::Finish);
        assert_eq!(a.next(), MpiOp::Finish);
    }
}
