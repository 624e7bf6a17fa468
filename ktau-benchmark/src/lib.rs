//! Layered benchmark of the KTAU reproduction.
//!
//! Four workloads, each a closed loop of operations timed for a fixed
//! number of seconds, report end-to-end metrics from an untraced run; a
//! traced build (`--features traced`) adds the engine self-profiler and
//! outside spans around every call into a layer, and reports per-layer
//! metrics.  See the README next to this crate for the workloads, the
//! metrics and the commands.

#![warn(missing_docs)]

pub mod calibrate;
pub mod compare;
pub mod harness;
pub mod layers;
pub mod metrics;
pub mod pins;
pub mod spans;
pub mod stats;
pub mod workloads;
