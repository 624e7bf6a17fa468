//! Reduced-size runs of every workload (8 nodes, a few sweeps or rounds):
//! every check passes and every metric `BENCHMARK.json` lists is emitted,
//! in both the plain and the traced shape.

use ktau_benchmark::harness::Config;
use ktau_benchmark::{layers, metrics, workloads};
use serde_json::Value;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

fn listed(section: &str) -> Vec<(String, String)> {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
    let Value::Arr(list) = doc.obj_get(section) else {
        panic!("BENCHMARK.json has no {section}");
    };
    list.iter()
        .map(|m| match (m.obj_get("name"), m.obj_get("unit")) {
            (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
            _ => panic!("malformed {section} entry"),
        })
        .collect()
}

fn emitted(ms: &[metrics::Metric]) -> Vec<(String, String)> {
    ms.iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn smoke(workload: &str) {
    let cfg = Config {
        seed: 7,
        seconds: 0.0,
        traced: false,
        smoke: true,
    };
    let run = workloads::run(workload, cfg).unwrap();
    assert_eq!(run.failed, 0, "{workload}: {:?}", run.problems);
    assert!(run.setup_s.iter().all(|s| *s > 0.0));
    let ms = metrics::end_to_end(&run).unwrap();
    assert_eq!(emitted(&ms), listed("end_to_end"), "{workload}");
    assert!(ms.iter().all(|m| m.value > 0.0), "{workload}: {ms:?}");

    let mut run = workloads::run(
        workload,
        Config {
            traced: true,
            ..cfg
        },
    )
    .unwrap();
    let x = layers::measure(&mut run);
    assert_eq!(run.failed, 0, "{workload} traced: {:?}", run.problems);
    let ms = metrics::per_layer(&run, &x);
    assert_eq!(emitted(&ms), listed("per_layer"), "{workload}");
    let coverage = metrics::Shares::of(&run).coverage;
    assert!(
        coverage >= metrics::MIN_COVERAGE_PCT,
        "{workload}: {coverage} %"
    );
}

#[test]
fn lu16_hz1000() {
    smoke(workloads::lu::NAME);
}

#[test]
fn fork8_lu16() {
    smoke(workloads::fork::NAME);
}

#[test]
fn ktaud_1024x4() {
    smoke(workloads::ktaud::NAME);
}

#[test]
fn trace_pingpong_64() {
    smoke(workloads::pingpong::NAME);
}

#[test]
fn workload_names_match_benchmark_json() {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
    let Value::Arr(list) = doc.obj_get("workloads") else {
        panic!("no workloads");
    };
    let names: Vec<&str> = list
        .iter()
        .map(|w| match w.obj_get("name") {
            Value::Str(s) => s.as_str(),
            _ => panic!("unnamed workload"),
        })
        .collect();
    assert_eq!(names, workloads::NAMES);
}
