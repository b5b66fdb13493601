//! Smoke test: each workload at a tiny size prints every metric the
//! catalogue names, each with its unit, its outputs pass their checks,
//! and the per-layer split leaves a non-negative residual.

use std::process::Command;

use myrtus_simbench::catalogue::{END_TO_END, PER_LAYER};

/// The result line of one benchmark invocation at the tiny size.
fn result_line(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_myrtus-simbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace])
        .args(["--size", "tiny"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of metric `name`, asserting it is printed with `unit`.
fn metric(json: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = json.find(&key).unwrap_or_else(|| panic!("{name} missing from {json}"));
    let rest = &json[at + key.len()..];
    let end = rest.find(',').expect("value ends with a comma");
    assert!(
        rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "{name} is not printed with unit {unit}: {json}"
    );
    rest[..end].parse().unwrap_or_else(|_| panic!("{name} is not a number: {json}"))
}

fn metric_count(json: &str) -> usize {
    json.matches("\"unit\": ").count()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in ["storm", "surge", "burst-vm"] {
        let e2e = result_line(workload, "0");
        assert!(e2e.starts_with("{\"correct\": true,"), "{workload}: {e2e}");
        for &(name, unit) in END_TO_END {
            metric(&e2e, name, unit);
        }
        assert_eq!(metric_count(&e2e), END_TO_END.len(), "{workload}: {e2e}");

        let layers = result_line(workload, "1");
        assert!(layers.starts_with("{\"correct\": true,"), "{workload}: {layers}");
        for &(name, unit) in PER_LAYER {
            metric(&layers, name, unit);
        }
        assert_eq!(metric_count(&layers), PER_LAYER.len(), "{workload}: {layers}");
        let residual = metric(&layers, "mirto.residual_s", "s");
        assert!(residual >= 0.0, "{workload}: attributed layers exceed the run ({residual} s)");
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json does not list {name} in {unit}"
        );
    }
    assert_eq!(metric_count(&text), END_TO_END.len() + PER_LAYER.len());
}
