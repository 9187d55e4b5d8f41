//! The smoke pass: every workload at about 1% of its size, measured and
//! traced, must run correctly and report every metric `BENCHMARK.json`
//! names.

use std::process::Command;

use crow_sim::Json;

const SPEC: &str = include_str!("../../BENCHMARK.json");

fn names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_runs_correctly_at_smoke_size() {
    let out = Command::new(env!("CARGO_BIN_EXE_crowbench"))
        .arg("--smoke")
        .output()
        .expect("crowbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "smoke pass failed:\n{stderr}\n{stdout}"
    );

    let spec = Json::parse(SPEC).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let metrics: Vec<String> = names(&spec, "end_to_end")
        .into_iter()
        .chain(names(&spec, "per_layer"))
        .collect();
    for w in &workloads {
        assert!(
            stdout.contains(&format!("{w} digest ")),
            "{w} printed no digest:\n{stdout}"
        );
        for m in &metrics {
            let prefix = format!("{w} {m} ");
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("{w} did not report {m}:\n{stdout}"));
            let value: f64 = line[prefix.len()..]
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("unreadable value in {line:?}"));
            assert!(value.is_finite(), "{line}");
        }
    }
}
