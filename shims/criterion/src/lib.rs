//! Offline stand-in for [`criterion`](https://docs.rs/criterion).
//!
//! Provides the measurement surface the workspace's benches use —
//! `criterion_group!` / `criterion_main!`, benchmark groups with
//! `sample_size` / `warm_up_time` / `measurement_time` / `throughput`,
//! `BenchmarkId`, and `Bencher::iter` — with a simple wall-clock runner:
//! one warm-up call, then timed batches of iterations until the
//! measurement budget or the sample count is exhausted, reporting the mean
//! time per iteration, the fastest batch's (noise on a shared machine only
//! ever adds time) and derived throughput when one was declared. As in
//! criterion, `cargo bench -- <filter>` runs only the rows whose
//! `group/id` contains the filter. No statistics, plots or baselines; good
//! enough to keep the bench targets compiling, runnable and comparable
//! run-over-run without crates.io access.

use std::fmt::Display;
use std::hint;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

pub mod measurement {
    //! Measurement backends (wall-clock only in this shim).

    /// Wall-clock time measurement.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct WallTime;
}

/// Prevents the optimizer from discarding a benchmark's result.
pub fn black_box<T>(value: T) -> T {
    hint::black_box(value)
}

/// Declared throughput of one benchmark iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Identifier with a function name and a parameter value.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Identifier with only a parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(id: &str) -> Self {
        BenchmarkId { id: id.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// The shortest a timed batch of iterations runs: long enough that
/// reading the clock around it costs nothing measurable.
const BATCH_TIME: Duration = Duration::from_micros(100);

/// Timing loop handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    elapsed: Duration,
    iterations: u64,
    /// The fastest batch's time per iteration.
    fastest: Duration,
}

impl Bencher {
    /// Calls `routine` repeatedly, timing batches of calls.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // One warm-up call, timed only to size the batches.
        let warm_up = Instant::now();
        hint::black_box(routine());
        let once = warm_up.elapsed().max(Duration::from_nanos(1));
        let batch = (BATCH_TIME.as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as u64;
        let (budget, samples) = (self.measurement_time, self.sample_size as u64);
        let start = Instant::now();
        let mut iterations = 0u64;
        self.fastest = Duration::MAX;
        while iterations < samples && start.elapsed() < budget {
            let len = batch.min(samples - iterations);
            let at = Instant::now();
            for _ in 0..len {
                hint::black_box(routine());
            }
            self.fastest = self.fastest.min(at.elapsed() / len as u32);
            iterations += len;
        }
        self.elapsed = start.elapsed();
        self.iterations = iterations.max(1);
    }
}

#[derive(Debug, Clone, Copy)]
struct GroupConfig {
    sample_size: usize,
    measurement_time: Duration,
    throughput: Option<Throughput>,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            throughput: None,
        }
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a, M = measurement::WallTime> {
    criterion: &'a mut Criterion,
    name: String,
    config: GroupConfig,
    _measurement: PhantomData<M>,
}

impl<M> BenchmarkGroup<'_, M> {
    /// Sets the target number of timed iterations.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n;
        self
    }

    /// Accepted for API compatibility (the shim's single warm-up call is
    /// not time-budgeted).
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Sets the wall-clock budget for the timed loop.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.config.measurement_time = d;
        self
    }

    /// Declares per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.config.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run(&id.id, |b| f(b));
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.id, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}

    fn run(&mut self, id: &str, mut f: impl FnMut(&mut Bencher)) {
        let row = format!("{}/{id}", self.name);
        if !self.criterion.selects(&row) {
            return;
        }
        let mut bencher = Bencher {
            sample_size: self.config.sample_size,
            measurement_time: self.config.measurement_time,
            elapsed: Duration::ZERO,
            iterations: 1,
            fastest: Duration::ZERO,
        };
        f(&mut bencher);
        let per_iter = bencher.elapsed.as_secs_f64() / bencher.iterations as f64;
        let mut line = format!(
            "{row}: {} (fastest batch {}) over {} iter",
            format_time(per_iter),
            format_time(bencher.fastest.as_secs_f64()),
            bencher.iterations
        );
        if let Some(throughput) = self.config.throughput {
            let (amount, unit) = match throughput {
                Throughput::Bytes(n) => (n as f64 / (1024.0 * 1024.0), "MiB/s"),
                Throughput::Elements(n) => (n as f64, "elem/s"),
            };
            if per_iter > 0.0 {
                line.push_str(&format!(" ({:.1} {unit})", amount / per_iter));
            }
        }
        self.criterion.report(&line);
    }
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Benchmark driver; one per bench binary.
#[derive(Debug, Default)]
pub struct Criterion {
    /// Runs only the rows whose `group/id` contains it.
    filter: Option<String>,
    /// Every line reported, in order.
    reported: Vec<String>,
}

impl Criterion {
    /// Takes the row filter from the command line, as `cargo bench --
    /// <filter>` passes it: the first argument after the program name
    /// that is not a `--` flag (cargo adds `--bench`).
    pub fn configure_from_args(self) -> Self {
        match filter_from(std::env::args().skip(1)) {
            Some(filter) => self.with_filter(filter),
            None => self,
        }
    }

    /// Runs only the rows whose `group/id` contains `filter`.
    pub fn with_filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    fn selects(&self, row: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| row.contains(f))
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            config: GroupConfig::default(),
            _measurement: PhantomData,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group("bench");
        group.bench_function(id, &mut f);
        group.finish();
        self
    }

    fn report(&mut self, line: &str) {
        println!("{line}");
        self.reported.push(line.to_string());
    }
}

/// The row filter among command-line `args`: the first that is not a
/// `--` flag.
fn filter_from(mut args: impl Iterator<Item = String>) -> Option<String> {
    args.find(|arg| !arg.starts_with("--"))
}

/// Declares a function running the listed benchmark targets in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` for a bench binary (requires `harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("shim");
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        group.throughput(Throughput::Bytes(1024));
        let mut runs = 0u32;
        group.bench_function("noop", |b| {
            b.iter(|| runs = black_box(runs.wrapping_add(1)))
        });
        group.bench_with_input(BenchmarkId::new("param", 7), &7usize, |b, &x| {
            b.iter(|| black_box(x * 2))
        });
        group.finish();
        assert!(runs > 0);
        assert_eq!(criterion.reported.len(), 2);
        for line in &criterion.reported {
            assert!(line.contains(" (fastest batch "), "{line}");
            assert!(line.ends_with(" MiB/s)"), "{line}");
        }
    }

    #[test]
    fn a_filter_runs_only_the_rows_containing_it() {
        let args = ["--bench", "--nocapture", "nn/conv2d", "later"];
        let filter = filter_from(args.into_iter().map(String::from));
        assert_eq!(filter.as_deref(), Some("nn/conv2d"));
        assert_eq!(filter_from(["--bench".to_string()].into_iter()), None);

        let mut criterion = Criterion::default().with_filter(filter.unwrap());
        let mut runs = [0u32; 3];
        let mut group = criterion.benchmark_group("nn");
        group.sample_size(2);
        for (row, id) in ["conv2d/forward", "dense/forward", "conv2d/backward"]
            .into_iter()
            .enumerate()
        {
            group.bench_function(id, |b| b.iter(|| runs[row] += 1));
        }
        group.finish();
        // The warm-up call and the two samples.
        assert_eq!(runs, [3, 0, 3]);
        let rows: Vec<&str> = criterion
            .reported
            .iter()
            .map(|line| line.split(':').next().unwrap())
            .collect();
        assert_eq!(rows, ["nn/conv2d/forward", "nn/conv2d/backward"]);
    }
}
