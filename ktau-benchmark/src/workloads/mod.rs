//! The four workloads.  Each stresses different layers; see each module
//! for why it was chosen.

use crate::harness::{Config, Run};

pub mod fork;
pub mod ktaud;
pub mod lu;
pub mod pingpong;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [lu::NAME, fork::NAME, ktaud::NAME, pingpong::NAME];

/// Runs the named workload; `None` for an unknown name.
pub fn run(name: &str, cfg: Config) -> Option<Run> {
    Some(match name {
        lu::NAME => lu::run(cfg),
        fork::NAME => fork::run(cfg),
        ktaud::NAME => ktaud::run(cfg),
        pingpong::NAME => pingpong::run(cfg),
        _ => return None,
    })
}

/// SplitMix64 finalizer: a well-mixed 64-bit value from a counter-style
/// input, for seeded workload inputs.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
