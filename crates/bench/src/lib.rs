//! # ktau-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5).  Each
//! full-size cluster run is executed once and cached as JSON under
//! `results/` (override with `KTAU_RESULTS`; force reruns with
//! `KTAU_RERUN=1`); the per-figure binaries read the cache and render.
//!
//! Binaries (one per table/figure):
//! `fig2_controlled`, `fig3_recv_histogram`, `fig4_recv_callgroups`,
//! `fig5_volsched_cdf`, `fig6_involsched_cdf`, `fig7_node_activity`,
//! `fig8_irq_cdf`, `fig9_tcp_in_compute`, `fig10_tcp_cost_cdf`,
//! `table2_exec_times`, `table3_perturbation`, `table4_overheads`,
//! `fault_scenarios` (the flaky-link fault-injection showcase),
//! `fork_sweep` (warm-prefix scenario sweeps forked from a mid-run engine
//! snapshot, plus the fork-determinism CI gate), and `run_all` to
//! regenerate everything.  `perf_smoke`, `run_all` and `fork_sweep` record
//! their timings in `BENCH_engine.json` through [`benchfile`].

#![warn(missing_docs)]

pub mod benchfile;
pub mod controlled;
pub mod faults;
pub mod forksweep;
pub mod parallel;
pub mod records;
pub mod scenarios;

pub use controlled::{measure_direct_overheads, run_fig2_ab, run_fig2_c, run_fig2_e};
pub use faults::{flaky_link_plan, run_flaky_link_lu16, FlakyLinkOutcome, FLAKY_NODE};
pub use forksweep::{
    apply_mutation, run_cold, run_fork, run_prefix, variants, ForkEngine, ForkOutcome, Mutation,
    Variant, T_FORK_NS,
};
pub use parallel::{jobs, prefetch, run_parallel, Experiment};
pub use records::{NodeProcRecord, RankRecord, RunRecord};
pub use scenarios::{lu_record, run_lu, run_sweep, sweep_record, Config, ANOMALY_NODE};
