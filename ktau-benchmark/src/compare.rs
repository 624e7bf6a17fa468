//! `compare PARENT CHANGE`: a verdict per end-to-end metric and workload
//! for a change measured against its parent, using the bounds in
//! `BENCHMARK.json`.
//!
//! Both inputs are run records, one JSON object per line, as the benchmark
//! appends them to `runs.jsonl`.  The i-th run of a workload in one file is
//! paired with the i-th in the other, so record the two sides alternately.

use crate::stats::Summary;
use serde_json::Value;
use std::fmt::Write;

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 9 of 10 pairs and its median beats the
    /// parent's by more than the parent's interquartile range.
    Improved,
    /// Neither improved nor regressed, with the parent's spread within the
    /// bound.
    Unchanged,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// The parent's spread is wider than the bound, so "unchanged" cannot
    /// be told apart from noise (unless every change run beats every parent
    /// run).
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges one metric.  `bound` is the share of the parent's median by which
/// the change may be worse before it counts as a regression.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (Some(a), Some(b)) = (Summary::of(parent), Summary::of(change)) else {
        return Verdict::Unresolved;
    };
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let better = |new: f64, old: f64| sign * (new - old) > 0.0;
    let gain = sign * (b.median - a.median);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(old, new)| better(**new, **old))
        .count();
    if wins * 10 >= pairs * 9 && gain > a.iqr() {
        return Verdict::Improved;
    }
    if -gain > bound * a.median.abs() {
        return Verdict::Regressed;
    }
    let all_better = change
        .iter()
        .all(|new| parent.iter().all(|old| better(*new, *old)));
    if a.iqr() > bound * a.median.abs() && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// An end-to-end metric's gate settings from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Reads the end-to-end bounds from `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    let Value::Arr(list) = doc.obj_get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            Some(Bound {
                name: text(m.obj_get("name"))?.to_string(),
                unit: text(m.obj_get("unit"))?.to_string(),
                higher_is_better: text(m.obj_get("better"))? == "higher",
                bound: num(m.obj_get("bound"))?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".into())
}

/// One run record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Whether the run was traced.
    pub traced: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(metric, value)` pairs.
    pub metrics: Vec<(String, f64)>,
}

/// Parses run records, one JSON object per non-empty line.
pub fn records(jsonl: &str) -> Result<Vec<Record>, String> {
    jsonl
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let bad = || format!("line {}: not a run record", i + 1);
            let Value::Obj(metrics) = v.obj_get("metrics") else {
                return Err(bad());
            };
            Ok(Record {
                workload: text(v.obj_get("workload")).ok_or_else(bad)?.to_string(),
                traced: num(v.obj_get("trace")).ok_or_else(bad)? != 0.0,
                attempted: num(v.obj_get("attempted")).ok_or_else(bad)? as u64,
                failed: num(v.obj_get("failed")).ok_or_else(bad)? as u64,
                metrics: metrics
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), num(m.obj_get("value"))?)))
                    .collect(),
            })
        })
        .collect()
}

/// The verdict table for untraced runs present on both sides, and whether
/// anything regressed.
pub fn report(bounds: &[Bound], parent: &[Record], change: &[Record]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent.iter().filter(|r| !r.traced) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let _ = writeln!(
        out,
        "{:<18} {:<17} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for w in workloads {
        let side = |rs: &[Record]| -> Vec<Record> {
            rs.iter()
                .filter(|r| !r.traced && r.workload == w)
                .cloned()
                .collect()
        };
        let (a, b) = (side(parent), side(change));
        if b.is_empty() {
            let _ = writeln!(out, "{w:<18} (no change runs)");
            continue;
        }
        for bd in bounds {
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| {
                        r.metrics
                            .iter()
                            .find(|(k, _)| *k == bd.name)
                            .map(|(_, v)| *v)
                    })
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            let v = verdict(&va, &vb, bd.higher_is_better, bd.bound);
            regressed |= v == Verdict::Regressed;
            let show = |s: Option<Summary>| {
                s.map_or("-".into(), |s| {
                    format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3)
                })
            };
            let sign = if bd.higher_is_better { 1.0 } else { -1.0 };
            let wins = va
                .iter()
                .zip(&vb)
                .filter(|(x, y)| sign * (**y - **x) > 0.0)
                .count();
            let _ = writeln!(
                out,
                "{w:<18} {:<17} {:>30} {:>30} {:>6}  {v}",
                format!("{} ({})", bd.name, bd.unit),
                show(Summary::of(&va)),
                show(Summary::of(&vb)),
                format!("{wins}/{}", va.len().min(vb.len())),
            );
        }
        let share = |rs: &[Record]| {
            let (f, n) = rs
                .iter()
                .fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted));
            (f, n, f as f64 / n.max(1) as f64)
        };
        let ((fa, na, sa), (fb, nb, sb)) = (share(&a), share(&b));
        let v = if sb > sa {
            Verdict::Regressed
        } else if sb < sa {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        regressed |= v == Verdict::Regressed;
        let _ = writeln!(
            out,
            "{w:<18} {:<17} {:>30} {:>30} {:>6}  {v}",
            "failed ops",
            format!("{fa}/{na}"),
            format!("{fb}/{nb}"),
            ""
        );
    }
    (out, regressed)
}
