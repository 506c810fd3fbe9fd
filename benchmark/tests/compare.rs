//! `benchmark compare` verdicts on synthetic results files.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A one-workload results file whose `wall_s` has quartiles `wall` and
/// whose traced `core.metric_s` is `metric_s`.
fn results(file: &str, threads: u32, wall: [f64; 3], metric_s: f64) -> PathBuf {
    let [q1, median, q3] = wall;
    let text = format!(
        r#"{{"fingerprint": {{"solver_threads": {threads}, "available_parallelism": 2, "build_profile": "release"}},
  "workloads": [{{"name": "flat-rent1k", "digests": ["0123456789abcdef"],
    "end_to_end": {{"wall_s": {{"unit": "s", "median": {median}, "q1": {q1}, "q3": {q3}}}}},
    "per_layer": {{"core.metric_s": {{"unit": "s", "value": {metric_s}}},
                   "netlist.parse_s": {{"unit": "s", "value": 0.001}}}}}}]}}"#
    );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, text).expect("results file written");
    path
}

fn compare(base: &PathBuf, new: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("compare")
        .arg(base)
        .arg(new)
        .output()
        .expect("compare starts")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn a_regression_beyond_the_bound_fails_and_names_the_layers_that_moved() {
    let base = results("steady.json", 2, [0.99, 1.0, 1.01], 0.9);
    let close = results("close.json", 2, [1.08, 1.1, 1.12], 0.95);
    let slow = results("slow.json", 2, [1.4, 1.5, 1.6], 1.4);

    let out = compare(&base, &close);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains(" ok"), "{}", stdout(&out));

    let out = compare(&base, &slow);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("regressed"), "{text}");
    assert!(text.contains("moved most: core.metric_s"), "{text}");
    assert!(!text.contains("moved most: netlist.parse_s"), "{text}");
}

#[test]
fn a_base_spread_wider_than_the_bound_is_unresolved() {
    let noisy = results("noisy.json", 2, [0.5, 1.0, 1.5], 0.9);
    let slow = results("slow-after-noisy.json", 2, [1.4, 1.5, 1.6], 1.4);
    let out = compare(&noisy, &slow);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("unresolved"), "{}", stdout(&out));
}

#[test]
fn results_from_different_solver_threads_are_refused() {
    let two = results("two-threads.json", 2, [0.99, 1.0, 1.01], 0.9);
    let one = results("one-thread.json", 1, [0.99, 1.0, 1.01], 0.9);
    let out = compare(&two, &one);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("refusing to compare"));
}
