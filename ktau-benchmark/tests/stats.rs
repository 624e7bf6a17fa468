//! Median, quartile and percentile helpers.

use ktau_benchmark::stats::{median, quantile, tail_allowed, Summary};

#[test]
fn quartiles_match_the_exclusive_method() {
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    let s = [1.0, 2.0, 3.0, 4.0];
    assert_eq!(quantile(&s, 0.25), 1.25);
    assert_eq!(quantile(&s, 0.5), 2.5);
    assert_eq!(quantile(&s, 0.75), 3.75);
    // statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
    let s: Vec<f64> = (1..=10).map(f64::from).collect();
    let q = Summary::of(&s).unwrap();
    assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
    assert_eq!(q.iqr(), 5.5);
}

#[test]
fn quantiles_clamp_to_the_sample() {
    let s = [3.0, 7.0];
    assert_eq!(quantile(&s, 0.0), 3.0);
    assert_eq!(quantile(&s, 0.01), 3.0);
    assert_eq!(quantile(&s, 0.99), 7.0);
    assert_eq!(quantile(&[5.0], 0.9), 5.0);
}

#[test]
fn median_ignores_input_order() {
    assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert!(!tail_allowed(99, 90));
    assert!(tail_allowed(100, 90));
    assert!(!tail_allowed(19, 50));
    assert!(tail_allowed(20, 50));
    assert!(!tail_allowed(999, 99));
    assert!(tail_allowed(1000, 99));
}

#[test]
fn summary_reports_p90_only_with_enough_samples() {
    let small: Vec<f64> = (0..99).map(f64::from).collect();
    assert_eq!(Summary::of(&small).unwrap().p90, None);
    let big: Vec<f64> = (0..100).map(f64::from).collect();
    // rank 0.9 * 101 = 90.9 -> between the 90th and 91st values (89, 90)
    let p90 = Summary::of(&big).unwrap().p90.unwrap();
    assert!((p90 - 89.9).abs() < 1e-9, "{p90}");
    assert_eq!(Summary::of(&[]), None);
}
