//! A `--quick --trace 1` pass end to end: every metric `BENCHMARK.json`
//! names is reported and finite, no rep fails, each workload's last line
//! has the result shape, and a results file compares clean against
//! itself.

use std::path::PathBuf;
use std::process::Command;

use htp_server::json::Json;

fn benchmark() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    // Work directories are made under the current directory.
    c.current_dir(env!("CARGO_TARGET_TMPDIR"));
    c
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn name(item: &Json) -> &str {
    item.get("name").and_then(Json::as_str).expect("a name")
}

#[test]
fn quick_traced_pass_reports_every_declared_metric() {
    let declared =
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let results = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-results.json");
    let out = benchmark()
        .args(["--quick", "--trace", "1", "--out"])
        .arg(&results)
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc = Json::parse(&std::fs::read_to_string(&results).expect("results written"))
        .expect("results parse");
    let workloads = list(&doc, "workloads");
    let declared_workloads: Vec<&str> = list(&declared, "workloads").iter().map(name).collect();
    assert_eq!(
        workloads.iter().map(name).collect::<Vec<_>>(),
        declared_workloads
    );
    for w in workloads {
        assert_eq!(
            w.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{}",
            name(w)
        );
        assert_eq!(
            w.get("fail_rate").and_then(Json::as_f64),
            Some(0.0),
            "{}",
            name(w)
        );
        for m in list(&declared, "end_to_end") {
            let median = w
                .get("end_to_end")
                .and_then(|e| e.get(name(m)))
                .and_then(|s| s.get("median"))
                .and_then(Json::as_f64);
            assert!(
                median.is_some_and(f64::is_finite),
                "{}: {} = {median:?}",
                name(w),
                name(m)
            );
        }
        for m in list(&declared, "per_layer") {
            let value = w
                .get("per_layer")
                .and_then(|p| p.get(name(m)))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{}: {} = {value:?}",
                name(w),
                name(m)
            );
        }
    }

    // One result line per workload, each with exactly the result keys
    // and, traced, exactly the per-layer metrics.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<Json> = stdout.lines().filter_map(|l| Json::parse(l).ok()).collect();
    assert_eq!(lines.len(), workloads.len());
    for line in &lines {
        let Json::Obj(members) = line else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics: {line}")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            list(&declared, "per_layer")
                .iter()
                .map(name)
                .collect::<Vec<_>>()
        );
    }

    let compare = benchmark()
        .arg("compare")
        .arg(&results)
        .arg(&results)
        .output()
        .expect("compare starts");
    assert!(
        compare.status.success(),
        "{}",
        String::from_utf8_lossy(&compare.stdout)
    );
    assert!(!String::from_utf8_lossy(&compare.stdout).contains("regressed"));
}
