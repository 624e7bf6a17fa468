//! Simulated values of full-size runs with the default seed.  Host timing
//! never enters them, so they repeat exactly on any machine; a model
//! change that moves one must update it here, and the mismatch message
//! prints the new values.

/// `(workload, [(value name, value)])`.
pub const PINS: &[(&str, &[(&str, u64)])] = &[
    (
        "lu16-hz1000",
        &[("end_ns", 95_446_716_569), ("events_simulated", 3_977_401)],
    ),
    (
        "fork8-lu16",
        &[
            ("prefix.events_simulated", 2_979_849),
            ("control.end_ns", 476_003_921_637),
            ("control.events_simulated", 4_737_017),
            ("control.retransmits", 0),
            ("faults_mild.end_ns", 476_329_332_221),
            ("faults_mild.events_simulated", 4_778_390),
            ("faults_mild.retransmits", 999),
            ("faults_moderate.end_ns", 476_705_785_253),
            ("faults_moderate.events_simulated", 4_779_251),
            ("faults_moderate.retransmits", 2266),
            ("faults_severe.end_ns", 476_662_091_639),
            ("faults_severe.events_simulated", 4_758_244),
            ("faults_severe.retransmits", 2149),
            ("slowdown_150.end_ns", 560_307_212_932),
            ("slowdown_150.events_simulated", 5_019_356),
            ("slowdown_150.retransmits", 0),
            ("irq_storm.end_ns", 476_017_127_359),
            ("irq_storm.events_simulated", 4_737_743),
            ("irq_storm.retransmits", 0),
            ("cpu_offline.end_ns", 476_000_298_012),
            ("cpu_offline.events_simulated", 4_719_976),
            ("cpu_offline.retransmits", 0),
            ("faults_plus_slowdown.end_ns", 526_712_304_097),
            ("faults_plus_slowdown.events_simulated", 4_948_681),
            ("faults_plus_slowdown.retransmits", 2279),
        ],
    ),
    (
        "ktaud-1024x4",
        &[
            ("sweep10.events_simulated", 848_462),
            ("sweep10.captures", 62_536),
            ("sweep10.bytes_shipped", 78_319_534),
        ],
    ),
    (
        "trace-pingpong-64",
        &[
            ("cycle20.events_simulated", 227_522),
            ("cycle20.trace_records", 233_239),
            ("cycle20.trace_lost", 0),
        ],
    ),
];

/// Checks a run's recorded values against the pins of its workload: the
/// same names, the same values.
pub fn check(workload: &str, got: &[(String, u64)]) -> Result<(), String> {
    let want = PINS
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(&[][..], |(_, p)| *p);
    let same = want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|((n, v), (gn, gv))| n == gn && v == gv);
    if same {
        Ok(())
    } else {
        let list: Vec<String> = got.iter().map(|(n, v)| format!("(\"{n}\", {v})")).collect();
        Err(format!(
            "simulated values differ from the pins; this run recorded [{}]",
            list.join(", ")
        ))
    }
}
