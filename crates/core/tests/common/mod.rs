//! Random probe / batch-fold / reset sequences over the measurement tables,
//! shared by the arena-equivalence and direct-encoder property suites.

#![allow(dead_code)]

use ktau_core::measure::{MergedTable, WallTable};
use ktau_core::profile::Profile;
use ktau_core::EventId;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Profile: probes (start/stop), batch folds (record_repeat), scheduler
// intervals, atomics, resets
// ---------------------------------------------------------------------------

pub const IDS: u32 = 40;

#[derive(Debug, Clone)]
pub enum POp {
    Start {
        id: u32,
        dwell: u64,
    },
    Stop {
        dwell: u64,
    },
    RecordRepeat {
        id: u32,
        incl: u64,
        extra: u64,
        n: u64,
    },
    AddInterval {
        id: u32,
        d: u64,
    },
    Atomic {
        id: u32,
        v: u64,
    },
    Reset,
}

pub fn arb_pop() -> impl Strategy<Value = POp> {
    prop_oneof![
        (0..IDS, 1..500u64).prop_map(|(id, dwell)| POp::Start { id, dwell }),
        (1..500u64).prop_map(|dwell| POp::Stop { dwell }),
        (0..IDS, 1..1000u64, 0..300u64, 1..5u64)
            .prop_map(|(id, incl, extra, n)| POp::RecordRepeat { id, incl, extra, n }),
        (0..IDS, 1..800u64).prop_map(|(id, d)| POp::AddInterval { id, d }),
        (0..IDS, 0..10_000u64).prop_map(|(id, v)| POp::Atomic { id, v }),
        Just(POp::Reset),
    ]
}

/// Drives a profile through `ops`, skipping what its contract forbids:
/// nesting deeper than six, a stop with no open activation, and folding
/// an event that is active.
pub fn drive_profile(p: &mut Profile, ops: &[POp]) {
    let mut stack: Vec<u32> = Vec::new();
    let mut now: u64 = 1;
    for op in ops {
        match *op {
            POp::Start { id, dwell } => {
                if stack.len() >= 6 {
                    continue;
                }
                p.start(EventId(id), now);
                stack.push(id);
                now += dwell;
            }
            POp::Stop { dwell } => {
                let Some(id) = stack.pop() else { continue };
                p.stop(EventId(id), now).unwrap();
                now += dwell;
            }
            POp::RecordRepeat { id, incl, extra, n } => {
                if stack.contains(&id) {
                    continue;
                }
                p.record_repeat(EventId(id), incl, incl.saturating_sub(extra), n);
            }
            POp::AddInterval { id, d } => p.add_interval(EventId(id), d),
            POp::Atomic { id, v } => p.atomic(EventId(id), v),
            POp::Reset => p.reset(),
        }
    }
}

// ---------------------------------------------------------------------------
// MergedTable: add_n folds, bare cell touches (count-0 cells must not become
// observations), clears
// ---------------------------------------------------------------------------

pub const USERS: u32 = 10;
pub const KERNELS: u32 = 24;

#[derive(Debug, Clone)]
pub enum MOp {
    Add {
        user: Option<u32>,
        kernel: u32,
        ns: u64,
        n: u64,
    },
    Touch {
        user: Option<u32>,
        kernel: u32,
    },
    Clear,
}

pub fn arb_user() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), (0..USERS).prop_map(Some)]
}

pub fn arb_mop() -> impl Strategy<Value = MOp> {
    prop_oneof![
        (arb_user(), 0..KERNELS, 1..1000u64, 1..4u64).prop_map(|(user, kernel, ns, n)| MOp::Add {
            user,
            kernel,
            ns,
            n
        }),
        (arb_user(), 0..KERNELS).prop_map(|(user, kernel)| MOp::Touch { user, kernel }),
        Just(MOp::Clear),
    ]
}

pub fn mkey(user: Option<u32>, kernel: u32) -> (Option<EventId>, EventId) {
    (user.map(EventId), EventId(kernel))
}

/// Drives a merged table through `ops`.
pub fn drive_merged(t: &mut MergedTable, ops: &[MOp]) {
    for op in ops {
        match *op {
            MOp::Add {
                user,
                kernel,
                ns,
                n,
            } => t.add_n(mkey(user, kernel), ns, n),
            MOp::Touch { user, kernel } => {
                t.cell_mut(mkey(user, kernel));
            }
            MOp::Clear => t.clear(),
        }
    }
}

// ---------------------------------------------------------------------------
// WallTable: sparse entries vs the old Vec<Option<Ns>> — presence must keep
// distinguishing "never recorded" from an accumulated zero
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub enum WOp {
    Add { user: Option<u32>, ns: u64 },
    Clear,
}

pub fn arb_wop() -> impl Strategy<Value = WOp> {
    prop_oneof![
        (arb_user(), 0..800u64).prop_map(|(user, ns)| WOp::Add { user, ns }),
        Just(WOp::Clear),
    ]
}

/// Drives a wall table through `ops`.
pub fn drive_wall(w: &mut WallTable, ops: &[WOp]) {
    for op in ops {
        match *op {
            WOp::Add { user, ns } => w.add(user.map(EventId), ns),
            WOp::Clear => w.clear(),
        }
    }
}
