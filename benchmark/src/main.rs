//! The repository benchmark.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1]
//!           [--quick] [--out PATH]
//! benchmark compare BASE.json NEW.json
//! ```
//!
//! A run makes a workload's input from `--seed` (default 1997), then
//! repeats reps of it for `--seconds` (default 10; at least three reps,
//! one under `--quick`), each in a fresh child process. It prints a table
//! of every end-to-end metric (median, min, max, sample count), then, as
//! its last line, one JSON object with `correct`, `attempted`, `failed`
//! and the `metrics`: the end-to-end medians, or with `--trace 1` the
//! per-layer metrics of one extra traced rep. Metric names, units and
//! bounds come from `BENCHMARK.json`. `--out` writes every sample, the
//! spans of the traced rep and a machine fingerprint to a results file,
//! which `compare` reads. The exit code is 0 when every rep's output
//! certified, 1 when a rep failed, 2 on a usage or set-up error.

mod compare;
mod rep;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use htp_server::json::{obj, Json};

use crate::workload::WORKLOADS;

/// The declaration this binary measures against, read at build time.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Declared {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn declared() -> Result<Declared, String> {
    let doc = Json::parse(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Vec<String> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|i| i.get("name").and_then(Json::as_str).map(str::to_owned))
                .collect(),
            _ => Vec::new(),
        }
    };
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    if names("workloads") != ours {
        return Err(format!(
            "BENCHMARK.json declares workloads {:?}, the binary runs {ours:?}",
            names("workloads")
        ));
    }
    let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            return Err(format!("BENCHMARK.json has no `{key}` list"));
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .ok_or(format!("BENCHMARK.json: a `{key}` entry lacks `{k}`"))
                };
                Ok(MetricDef {
                    name: field("name")?.to_owned(),
                    unit: field("unit")?.to_owned(),
                    lower_is_better: field("better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Declared {
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// `--key value` flags; `--trace` and `--quick` may stand alone.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{a}`"))?;
            let takes_value = match key {
                "workload" | "seed" | "seconds" | "out" | "dir" => true,
                "trace" => it.peek().is_some_and(|v| *v == "0" || *v == "1"),
                "quick" => false,
                _ => return Err(format!("unknown flag `{a}`")),
            };
            let value = if takes_value {
                Some(
                    it.next()
                        .ok_or_else(|| format!("`{a}` needs a value"))?
                        .clone(),
                )
            } else {
                None
            };
            pairs.push((key.to_owned(), value));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("bad value for --{key}: `{v}`"))
        })
    }

    fn trace(&self) -> bool {
        self.has("trace") && self.get("trace") != Some("0")
    }
}

/// Where and how a result was measured; `compare` refuses results whose
/// solver threads, core count or build profile differ.
fn fingerprint(opts: &Options) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("available_parallelism", Json::Num(cores as f64)),
        ("solver_threads", Json::Num(workload::THREADS as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        (
            "build_profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_owned(),
            ),
        ),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("quick", Json::Bool(opts.quick)),
        ("trace", Json::Bool(opts.trace)),
    ])
}

fn run_main(flags: &Flags) -> Result<ExitCode, String> {
    let declared = declared()?;
    let quick = flags.has("quick");
    let opts = Options {
        seed: flags.parsed("seed", 1997)?,
        seconds: flags.parsed("seconds", if quick { 0.0 } else { 10.0 })?,
        trace: flags.trace(),
        quick,
    };
    let chosen: Vec<_> = match flags.get("workload").unwrap_or("all") {
        "all" => WORKLOADS.iter().collect(),
        name => vec![workload::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?],
    };
    let mut entries = Vec::new();
    let mut correct = true;
    let mut lines = Vec::new();
    for w in chosen {
        let outcome = run::run_workload(w, &opts, &declared)?;
        print!("{}", outcome.table);
        correct &= outcome.correct;
        entries.push(outcome.entry);
        lines.push(outcome.line);
    }
    if let Some(path) = flags.get("out") {
        let doc = obj(vec![
            ("fingerprint", fingerprint(&opts)),
            ("workloads", Json::Arr(entries)),
        ]);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    for line in lines {
        println!("{line}");
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The child side of a rep: prints its report as one JSON line.
fn rep_main(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.get("workload").ok_or("rep needs --workload")?;
    let w = workload::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let dir = PathBuf::from(flags.get("dir").ok_or("rep needs --dir")?);
    match rep::run(w, &dir, flags.parsed("seed", 1997)?, flags.trace()) {
        Ok(report) => {
            println!("{report}");
            Ok(ExitCode::SUCCESS)
        }
        Err(failure) => {
            println!("{}", obj(vec![("failure", Json::Str(failure))]));
            Ok(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match (args.get(1), args.get(2), args.len()) {
            (Some(base), Some(new), 3) => declared()
                .and_then(|d| compare::compare(base, new, &d))
                .map(|regressed| {
                    if regressed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }),
            _ => Err("usage: benchmark compare BASE.json NEW.json".to_owned()),
        },
        Some("rep") => Flags::parse(&args[1..]).and_then(|f| rep_main(&f)),
        _ => Flags::parse(&args).and_then(|f| run_main(&f)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
