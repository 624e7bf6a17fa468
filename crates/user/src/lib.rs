//! # ktau-user — user-space side of KTAU
//!
//! Everything above the `/proc/ktau` boundary (paper §4.4–4.5):
//!
//! * [`libktau`] — the user API over the session-less proc protocol:
//!   profile/trace retrieval, runtime kernel control, profile reset;
//! * [`ktaud`] — the KTAUD daemon ([`KtaudService`]: on-node daemons with
//!   their CPU cost modelled, periodic O(active) sweeps, subscription
//!   sessions shipping full profiles then incremental deltas, client
//!   mirrors), online event rates and the `runKtau` time-like wrapper;
//! * [`merged`] — merged user/kernel views: corrected "true exclusive
//!   time" per routine, kernel call-group analysis, merged trace
//!   timelines.

#![warn(missing_docs)]

pub mod callgraph;
pub mod ktaud;
pub mod libktau;
pub mod merged;
pub mod phases;

pub use callgraph::{callpath_profile, render_callpaths, CallPathRow};
pub use ktaud::{
    event_rate, run_ktau, ClientId, ClientStats, KtaudMirror, KtaudService, PollItem, ServiceStats,
    SubscriptionFilter,
};
pub use libktau::{
    ktau_get_profile, ktau_get_profiles, ktau_get_trace, ktau_reset_profile, ktau_set_group,
    AccessMode, KtauError,
};
pub use merged::{
    call_groups_in, group_count_in, kernel_only_rows, merged_routine_view, merged_timeline,
    timeline_within, CallGroupCell, MergedRoutineRow,
};
pub use phases::{PhaseProfile, PhaseProfiler};
