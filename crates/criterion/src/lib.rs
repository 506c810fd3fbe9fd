//! Vendored, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment is fully offline, so the real `criterion` cannot
//! be fetched. This crate keeps the workspace's `[[bench]]` targets
//! compiling and *useful*: the same `criterion_group!`/`criterion_main!`
//! surface, benchmark groups, `bench_function`/`bench_with_input`, and a
//! [`Bencher::iter`] that measures wall-clock time and prints
//! median/mean/min per-iteration timings. No statistical regression
//! analysis, no HTML reports.
//!
//! Benchmarks can be filtered by substring: `cargo bench -- <filter>`.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark inside a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A `name/parameter` id.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id that is just the parameter's `Display` form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher {
    samples: usize,
    last: Option<BenchStats>,
}

impl Bencher {
    /// Measures `f`; the harness prints per-iteration wall-clock
    /// statistics after the benchmark body returns.
    ///
    /// Warm-up runs calibrate how many iterations fit in ~20 ms; each
    /// sample then times that many iterations and reports the mean.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up + calibration: find iters-per-sample so one sample
        // takes roughly 20 ms (at least 1 iteration).
        let calibration_start = Instant::now();
        black_box(f());
        let first = calibration_start.elapsed().max(Duration::from_nanos(1));
        let target = Duration::from_millis(20);
        let iters_per_sample = (target.as_nanos() / first.as_nanos()).clamp(1, 1_000_000) as usize;

        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            per_iter.push(start.elapsed().as_secs_f64() / iters_per_sample as f64);
        }
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
        self.last = Some(BenchStats {
            median: per_iter[per_iter.len() / 2],
            mean: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
            min: per_iter[0],
            samples: self.samples,
            iters_per_sample,
        });
    }
}

/// Simple wall-clock statistics of one benchmark (seconds per iteration).
#[derive(Clone, Copy, Debug)]
pub struct BenchStats {
    /// Median time per iteration.
    pub median: f64,
    /// Mean time per iteration.
    pub mean: f64,
    /// Fastest observed time per iteration.
    pub min: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample (calibrated).
    pub iters_per_sample: usize,
}

fn human(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:8.2} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:8.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:8.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:8.3} s ")
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 1, "need at least one sample");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into().id);
        self.criterion.run_one(&full, self.sample_size, |b| f(b));
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.into().id);
        self.criterion
            .run_one(&full, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (kept for API parity; prints nothing extra).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Reads a substring filter from the command line (`cargo bench -- X`),
    /// skipping harness flags like `--bench`.
    pub fn configure_from_args(mut self) -> Self {
        self.filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        self
    }

    /// Starts a benchmark group called `name`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 100,
        }
    }

    /// Runs a stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(id, 100, |b| f(b));
        self
    }

    fn run_one(&self, full_name: &str, sample_size: usize, mut f: impl FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !full_name.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            samples: sample_size,
            last: None,
        };
        print!("{full_name:<48}");
        f(&mut bencher);
        match bencher.last {
            Some(s) => println!(
                "median {}  mean {}  min {}  ({} samples × {} iters)",
                human(s.median),
                human(s.mean),
                human(s.min),
                s.samples,
                s.iters_per_sample
            ),
            None => println!("(no measurement)"),
        }
    }
}

/// Declares a benchmark group function callable from [`criterion_main!`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
