//! One workload's run: make the instances' inputs, time batches (every
//! instance once, each in its own child process) for the requested
//! seconds, check that every rep of an instance wrote the same certified
//! answer, and summarise. A batch's value of a metric is its mean over
//! the instances; the run reports the median over batches.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use htp_server::json::{obj, Json};

use crate::stats::{median, summary};
use crate::workload::{self as wl, InputSize, Workload};
use crate::{Declared, Options};

/// Batches below which a run keeps going past its seconds.
const MIN_BATCHES: usize = 2;

/// Work directories live here, under the directory the benchmark runs
/// in, and are removed when the run ends.
const WORK_ROOT: &str = ".bench_work";

/// What a finished run hands back.
pub struct Outcome {
    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub line: Json,
    /// The workload's entry in the results file.
    pub entry: Json,
    /// A human-readable summary.
    pub table: String,
    pub correct: bool,
}

/// One rep of every instance; `Err` holds why a rep failed.
type Batch = Vec<Result<Json, String>>;

/// Runs one rep in a fresh child process of this binary.
fn spawn_rep(w: &Workload, dir: &Path, seed: u64, traced: bool) -> Result<Json, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .arg("rep")
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a rep: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok())
        .ok_or_else(|| format!("rep exited with {} and no report", out.status))?;
    if let Some(failure) = report.get("failure").and_then(Json::as_str) {
        return Err(failure.to_owned());
    }
    if !out.status.success() {
        return Err(format!("rep exited with {}", out.status));
    }
    Ok(report)
}

fn num(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key).and_then(Json::as_f64)
}

/// Mean of `value` over a batch's reps; `None` when a rep failed or
/// lacks the value.
fn batch_mean(batch: &Batch, value: impl Fn(&Json) -> Option<f64>) -> Option<f64> {
    let xs = batch
        .iter()
        .map(|r| r.as_ref().ok().and_then(&value))
        .collect::<Option<Vec<f64>>>()?;
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Runs workload `w`, removing its work directory however the run ends.
pub fn run_workload(w: &Workload, opts: &Options, declared: &Declared) -> Result<Outcome, String> {
    let dir = PathBuf::from(WORK_ROOT).join(format!("{}-{}", w.name, std::process::id()));
    let outcome = measure(w, opts, declared, &dir);
    let _ = fs::remove_dir_all(&dir);
    // Only succeeds once no other run is using the root.
    let _ = fs::remove_dir(WORK_ROOT);
    outcome
}

fn measure(
    w: &Workload,
    opts: &Options,
    declared: &Declared,
    dir: &Path,
) -> Result<Outcome, String> {
    let instances = if opts.quick { 1 } else { w.instances };
    let seeds: Vec<u64> = (0..instances)
        .map(|i| wl::instance_seed(opts.seed, i))
        .collect();
    let dirs: Vec<PathBuf> = (0..instances).map(|i| dir.join(i.to_string())).collect();
    let mut size = InputSize::default();
    for (d, &seed) in dirs.iter().zip(&seeds) {
        fs::create_dir_all(d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
        let s = wl::prepare(w, d, seed, opts.quick)?;
        size.nodes += s.nodes;
        size.nets += s.nets;
        size.pins += s.pins;
    }

    let run_batch = |traced: bool| -> Batch {
        dirs.iter()
            .zip(&seeds)
            .map(|(d, &seed)| spawn_rep(w, d, seed, traced))
            .collect()
    };
    let min_batches = if opts.quick { 1 } else { MIN_BATCHES };
    let started = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    loop {
        let batch_started = Instant::now();
        batches.push(run_batch(false));
        // Stop when another batch would end more than half a batch late.
        let batch_s = batch_started.elapsed().as_secs_f64();
        if batches.len() >= min_batches
            && started.elapsed().as_secs_f64() + batch_s / 2.0 >= opts.seconds
        {
            break;
        }
    }
    let mut traced = opts.trace.then(|| run_batch(true));

    // Every rep of an instance solved the same input with the same seed,
    // so each must carry that instance's first digest.
    let mut digests: Vec<Option<String>> = vec![None; instances];
    for batch in batches.iter_mut().chain(traced.iter_mut()) {
        for (r, first) in batch.iter_mut().zip(&mut digests) {
            let Ok(report) = r else { continue };
            let digest = report
                .get("digest")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned();
            match first {
                None => *first = Some(digest),
                Some(d) if *d != digest => {
                    *r = Err(format!("digest {digest} differs from the first rep's {d}"))
                }
                Some(_) => {}
            }
        }
    }
    let failures: Vec<String> = batches
        .iter()
        .chain(traced.iter())
        .flatten()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    for f in &failures {
        eprintln!("{}: rep failed: {f}", w.name);
    }
    let attempted = (batches.len() + usize::from(opts.trace)) * instances;

    let mut table = format!(
        "{} (seed {}, {instances} instance(s), {} nodes, {} nets, {} pins in all): \
         {} batch(es), {attempted} reps, {} failed\n",
        w.name,
        opts.seed,
        size.nodes,
        size.nets,
        size.pins,
        batches.len(),
        failures.len()
    );
    table.push_str(&format!(
        "  {:<14} {:<6} {:>14} {:>14} {:>14} {:>4}\n",
        "metric", "unit", "median", "min", "max", "n"
    ));
    let mut end_to_end = Vec::new();
    let mut line_metrics = Vec::new();
    let mut wall_median = f64::NAN;
    for m in &declared.end_to_end {
        let xs: Vec<f64> = batches
            .iter()
            .filter_map(|b| batch_mean(b, |r| num(r, &m.name)))
            .collect();
        if xs.is_empty() {
            continue;
        }
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let med = median(&xs);
        if m.name == "wall_s" {
            wall_median = med;
        }
        table.push_str(&format!(
            "  {:<14} {:<6} {med:>14.6} {lo:>14.6} {hi:>14.6} {:>4}\n",
            m.name,
            m.unit,
            xs.len()
        ));
        end_to_end.push((m.name.clone(), summary(&m.unit, &xs)));
        line_metrics.push((
            m.name.clone(),
            obj(vec![
                ("value", Json::Num(med)),
                ("unit", Json::Str(m.unit.clone())),
            ]),
        ));
    }

    let mut per_layer = Json::Null;
    let mut spans = Json::Null;
    if let Some(t) = traced.as_ref().filter(|t| t.iter().all(Result::is_ok)) {
        let overhead =
            batch_mean(t, |r| num(r, "wall_s")).map_or(f64::NAN, |s| s / wall_median - 1.0);
        let mut values = Vec::new();
        for m in &declared.per_layer {
            let v = if m.name == "trace.overhead_frac" {
                overhead
            } else {
                batch_mean(t, |r| r.get("layers").and_then(|l| num(l, &m.name)))
                    .ok_or_else(|| format!("the traced reps do not measure `{}`", m.name))?
            };
            table.push_str(&format!("  {:<36} {:<6} {v:>14.6}\n", m.name, m.unit));
            values.push((
                m.name.clone(),
                obj(vec![
                    ("value", Json::Num(v)),
                    ("unit", Json::Str(m.unit.clone())),
                ]),
            ));
        }
        per_layer = Json::Obj(values.clone());
        line_metrics = values;
        spans = Json::Arr(
            t.iter()
                .filter_map(|r| r.as_ref().ok()?.get("spans").cloned())
                .collect(),
        );
    }

    let failed = failures.len();
    let entry = obj(vec![
        ("name", Json::Str(w.name.to_owned())),
        ("instances", Json::Num(instances as f64)),
        (
            "input",
            obj(vec![
                ("nodes", Json::Num(size.nodes as f64)),
                ("nets", Json::Num(size.nets as f64)),
                ("pins", Json::Num(size.pins as f64)),
            ]),
        ),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("fail_rate", Json::Num(failed as f64 / attempted as f64)),
        (
            "failures",
            Json::Arr(failures.into_iter().map(Json::Str).collect()),
        ),
        (
            "digests",
            Json::Arr(
                digests
                    .into_iter()
                    .map(|d| d.map_or(Json::Null, Json::Str))
                    .collect(),
            ),
        ),
        ("kernel", kernel(&batches[0])),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", per_layer),
        ("spans", spans),
    ]);
    let line = obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(line_metrics)),
    ]);
    Ok(Outcome {
        line,
        entry,
        table,
        correct: failed == 0,
    })
}

/// Dial- and heap-kernel rounds the first batch's metric runs reported
/// (the V-cycle reports none, so it shows only in the traced layers).
fn kernel(batch: &Batch) -> Json {
    let total = |key: &str| -> f64 {
        batch
            .iter()
            .filter_map(|r| r.as_ref().ok()?.get("kernel")?.get(key)?.as_f64())
            .sum()
    };
    obj(vec![
        ("dial_rounds", Json::Num(total("dial_rounds"))),
        ("heap_rounds", Json::Num(total("heap_rounds"))),
    ])
}
