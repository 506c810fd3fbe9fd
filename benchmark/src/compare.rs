//! `benchmark compare BASE.json NEW.json`: one row per (workload,
//! end-to-end metric) with both medians, BASE's quartile spread and a
//! verdict against the bound `BENCHMARK.json` fixes.
//!
//! * `ok`: NEW is not worse than BASE by more than the bound.
//! * `regressed`: it is; the three traced layer metrics that moved most
//!   are named under the row.
//! * `unresolved`: BASE's own quartile spread is wider than the bound, so
//!   the comparison cannot tell a regression from noise.

use htp_server::json::Json;

use crate::Declared;

/// Fingerprint fields that must agree for two results to be comparable.
const MUST_MATCH: [&str; 3] = ["solver_threads", "available_parallelism", "build_profile"];

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn workloads(doc: &Json) -> &[Json] {
    match doc.get("workloads") {
        Some(Json::Arr(ws)) => ws,
        _ => &[],
    }
}

fn stat(entry: &Json, metric: &str, key: &str) -> Option<f64> {
    entry.get("end_to_end")?.get(metric)?.get(key)?.as_f64()
}

/// The per-layer metrics that moved most between two traced entries, by
/// relative change.
fn top_movers(base: &Json, new: &Json, declared: &Declared) -> Vec<String> {
    let value = |e: &Json, name: &str| e.get("per_layer")?.get(name)?.get("value")?.as_f64();
    let mut moved: Vec<(f64, String)> = declared
        .per_layer
        .iter()
        .filter_map(|m| {
            let (b, n) = (value(base, &m.name)?, value(new, &m.name)?);
            let rel = (n - b).abs() / b.abs().max(1e-12);
            (n != b).then(|| (rel, format!("{} {b} -> {n} {}", m.name, m.unit)))
        })
        .collect();
    moved.sort_by(|a, b| b.0.total_cmp(&a.0));
    moved.into_iter().take(3).map(|(_, s)| s).collect()
}

/// Prints the comparison; returns whether any row regressed.
pub fn compare(base_path: &str, new_path: &str, declared: &Declared) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    for key in MUST_MATCH {
        let field = |doc: &Json| doc.get("fingerprint").and_then(|f| f.get(key)).cloned();
        if field(&base) != field(&new) {
            return Err(format!(
                "refusing to compare: fingerprint `{key}` differs ({:?} vs {:?})",
                field(&base),
                field(&new)
            ));
        }
    }

    let mut regressed = false;
    println!(
        "{:<22} {:<12} {:>30} {:>30} {:>9} {:>7}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "bound"
    );
    for b in workloads(&base) {
        let name = b.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(n) = workloads(&new)
            .iter()
            .find(|n| n.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<22} missing from {new_path}");
            continue;
        };
        for m in &declared.end_to_end {
            let (Some(bm), Some(nm)) = (stat(b, &m.name, "median"), stat(n, &m.name, "median"))
            else {
                continue;
            };
            let quartiles = |e: &Json| {
                (
                    stat(e, &m.name, "q1").unwrap_or(f64::NAN),
                    stat(e, &m.name, "q3").unwrap_or(f64::NAN),
                )
            };
            let ((bq1, bq3), (nq1, nq3)) = (quartiles(b), quartiles(n));
            let bound = m.bound.unwrap_or(0.0);
            let worse = (if m.lower_is_better { nm - bm } else { bm - nm }) / bm.abs().max(1e-12);
            let spread = (bq3 - bq1) / bm.abs().max(1e-12);
            let verdict = if spread > bound {
                "unresolved"
            } else if worse > bound {
                regressed = true;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{name:<22} {:<12} {:>30} {:>30} {:>+8.2}% {:>6.1}%  {verdict}",
                m.name,
                format!("{bm:.6} [{bq1:.6}, {bq3:.6}]"),
                format!("{nm:.6} [{nq1:.6}, {nq3:.6}]"),
                worse * 100.0,
                bound * 100.0
            );
            if verdict == "regressed" {
                for mover in top_movers(b, n, declared) {
                    println!("{:<22}   moved most: {mover}", "");
                }
            }
        }
        println!(
            "{name:<22} digests {}",
            if b.get("digests") == n.get("digests") {
                "identical"
            } else {
                "differ"
            }
        );
    }
    Ok(regressed)
}
