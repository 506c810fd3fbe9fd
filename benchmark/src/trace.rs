//! A small span recorder.
//!
//! Every rep records its spans, because `wall_s` and `setup_s` are read
//! from them. Only a traced rep also samples `/proc/self/status` at each
//! span boundary, which is the recorder's one real cost. Spans stay in
//! memory and leave the process once, inside the rep's report.
//!
//! A *reported* span is a duration a solver returned in its own stats
//! (for example the V-cycle's coarsening seconds). It hangs off the span
//! that made the call as a labelled duration, not as a timed interval.

use std::time::Instant;

use htp_server::json::{obj, Json};

/// Resident and peak-resident set size of this process, in MB.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mem {
    /// `VmRSS`.
    pub rss_mb: f64,
    /// `VmHWM`: the peak so far.
    pub hwm_mb: f64,
}

/// Reads `VmRSS` and `VmHWM` from `/proc/self/status` (zeros where the
/// platform does not expose them).
pub fn mem() -> Mem {
    let mut m = Mem::default();
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return m;
    };
    for line in status.lines() {
        let kb = |rest: &str| -> f64 {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .unwrap_or(0.0)
        };
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            m.rss_mb = kb(rest) / 1024.0;
        } else if let Some(rest) = line.strip_prefix("VmHWM:") {
            m.hwm_mb = kb(rest) / 1024.0;
        }
    }
    m
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Seconds since the recorder started.
    pub start_s: f64,
    pub end_s: f64,
    /// Memory at entry and exit (traced reps only).
    pub mem_start: Option<Mem>,
    pub mem_end: Option<Mem>,
    /// A solver-reported duration rather than a timed interval.
    pub reported: bool,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The recorder: a flat list of spans plus the stack of open ones.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sample_mem: bool,
}

impl Trace {
    pub fn new(sample_mem: bool) -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            sample_mem,
        }
    }

    fn sample(&self) -> Option<Mem> {
        self.sample_mem.then(mem)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let mem_start = self.sample();
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_s: now,
            end_s: now,
            mem_start,
            mem_end: None,
            reported: false,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
        self.spans[id].mem_end = self.sample();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Hangs a solver-reported duration off span `parent`.
    pub fn report(&mut self, parent: usize, name: &str, seconds: f64) {
        let start_s = self.spans[parent].start_s;
        self.spans.push(Span {
            name: name.to_owned(),
            parent: Some(parent),
            start_s,
            end_s: start_s + seconds,
            mem_start: None,
            mem_end: None,
            reported: true,
        });
    }

    /// The last span named `name`, if any.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().rev().find(|s| s.name == name)
    }

    /// Duration of the last span named `name` (0 when it never ran).
    pub fn seconds(&self, name: &str) -> f64 {
        self.find(name).map_or(0.0, Span::seconds)
    }

    /// Summed durations of the reported children of the last span named
    /// `name`.
    pub fn reported_under(&self, name: &str) -> f64 {
        let Some(parent) = self.spans.iter().rposition(|s| s.name == name) else {
            return 0.0;
        };
        self.spans
            .iter()
            .filter(|s| s.reported && s.parent == Some(parent))
            .map(Span::seconds)
            .sum()
    }

    /// Self time of span `id`: its duration minus its children's.
    fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum();
        self.spans[id].seconds() - children
    }

    /// Every span, in the order opened, as JSON.
    pub fn to_json(&self) -> Json {
        let mem = |m: Option<Mem>| match m {
            Some(m) => obj(vec![
                ("rss_mb", Json::Num(m.rss_mb)),
                ("hwm_mb", Json::Num(m.hwm_mb)),
            ]),
            None => Json::Null,
        };
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj(vec![
                        ("name", Json::Str(s.name.clone())),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_s", Json::Num(s.start_s)),
                        ("end_s", Json::Num(s.end_s)),
                        ("self_s", Json::Num(self.self_seconds(id))),
                        ("reported", Json::Bool(s.reported)),
                        ("mem_start", mem(s.mem_start)),
                        ("mem_end", mem(s.mem_end)),
                    ])
                })
                .collect(),
        )
    }
}
