//! `compare` verdicts on synthetic samples, and the inputs it reads.

use ktau_benchmark::compare::{bounds, records, report, verdict, Verdict};

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

fn around(center: f64, spread: f64) -> Vec<f64> {
    (0..10)
        .map(|i| center + spread * (f64::from(i) - 4.5) / 4.5)
        .collect()
}

#[test]
fn clear_win_is_improved() {
    let parent = around(100.0, 1.0);
    let change: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
    assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Improved);
    // The same numbers read as throughput are a regression.
    assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Regressed);
}

#[test]
fn small_shift_within_bound_is_unchanged() {
    let parent = around(100.0, 1.0);
    let change = around(101.0, 1.0);
    assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unchanged);
}

#[test]
fn a_win_smaller_than_the_parent_spread_is_not_a_gain() {
    // Every pair improves, but by less than the parent's interquartile range.
    let parent = around(100.0, 4.0);
    let change: Vec<f64> = parent.iter().map(|v| v - 1.0).collect();
    assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unchanged);
}

#[test]
fn nine_of_ten_pairs_suffice_eight_do_not() {
    let parent = around(100.0, 1.0);
    let mut change: Vec<f64> = parent.iter().map(|v| v - 5.0).collect();
    change[0] = parent[0] + 1.0;
    assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Improved);
    change[1] = parent[1] + 1.0;
    assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unchanged);
}

#[test]
fn worse_beyond_the_bound_is_regressed() {
    let parent = around(100.0, 1.0);
    let change = around(112.0, 1.0);
    assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Regressed);
}

#[test]
fn spread_wider_than_the_bound_is_unresolved() {
    let parent = around(100.0, 30.0);
    let change = around(102.0, 30.0);
    assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unresolved);
    // ...unless every change run beats every parent run.
    let change = around(69.0, 0.5);
    assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unchanged);
    assert_eq!(verdict(&[], &change, false, 0.1), Verdict::Unresolved);
}

#[test]
fn bounds_come_from_benchmark_json() {
    let b = bounds(BENCHMARK_JSON).unwrap();
    let names: Vec<&str> = b.iter().map(|b| b.name.as_str()).collect();
    let want: Vec<&str> = ktau_benchmark::metrics::END_TO_END
        .iter()
        .map(|(n, _)| *n)
        .collect();
    assert_eq!(names, want);
    for (b, (_, unit)) in b.iter().zip(ktau_benchmark::metrics::END_TO_END) {
        assert_eq!(b.unit, unit, "{}", b.name);
        assert!(b.bound > 0.0 && b.bound <= 0.25, "{}", b.name);
    }
    let setup = b.iter().find(|b| b.name == "setup_s").unwrap();
    assert!(b.iter().all(|o| o.bound <= setup.bound));
    assert!(
        b.iter()
            .find(|b| b.name == "sim_events_per_s")
            .unwrap()
            .higher_is_better
    );
}

#[test]
fn report_pairs_runs_and_counts_failures() {
    let line = |w: &str, trace: u8, failed: u64, v: f64| {
        format!(
            r#"{{"workload":"{w}","trace":{trace},"attempted":10,"failed":{failed},"metrics":{{"op_p50_ms":{{"value":{v},"unit":"ms"}}}}}}"#
        )
    };
    let parent: String = (0..10)
        .map(|i| line("w", 0, 0, 100.0 + f64::from(i)) + "\n")
        .collect();
    let mut change: String = (0..10)
        .map(|i| line("w", 0, 0, 80.0 + f64::from(i)) + "\n")
        .collect();
    change.push_str(&line("w", 1, 0, 1.0));
    let b = bounds(BENCHMARK_JSON).unwrap();
    let (a, c) = (records(&parent).unwrap(), records(&change).unwrap());
    assert_eq!(c.len(), 11);
    let (table, regressed) = report(&b, &a, &c);
    assert!(!regressed, "{table}");
    let row = table.lines().find(|l| l.contains("op_p50_ms")).unwrap();
    assert!(row.ends_with("improved"), "{row}");
    assert!(row.contains("10/10"), "{row}");

    let failing: String = (0..10)
        .map(|i| line("w", 0, 1, 100.0 + f64::from(i)) + "\n")
        .collect();
    let (table, regressed) = report(&b, &a, &records(&failing).unwrap());
    assert!(regressed, "{table}");
    let row = table.lines().find(|l| l.contains("failed ops")).unwrap();
    assert!(
        row.contains("10/100") && row.ends_with("regressed"),
        "{row}"
    );
    assert!(records("{\"workload\":1}").is_err());
}
