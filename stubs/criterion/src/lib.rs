//! A minimal wall-clock benchmark harness, API-compatible with the subset
//! of `criterion` 0.5 this workspace uses (see `stubs/README.md`).
//!
//! Each `bench_function` body is timed for real: the routine is warmed up,
//! then run in batches until a time budget is spent, and the harness prints
//! `group/name ... <ns>/iter over <n> iters`. There are no statistical
//! analyses, plots or baselines — just honest medians-of-batches, enough to
//! eyeball regressions.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-iteration measurement duration budget for one benchmark.
fn time_budget() -> Duration {
    std::env::var("CRITERION_STUB_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(Duration::from_millis(300), Duration::from_millis)
}

/// How a batched routine's input size relates to the batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: large batches.
    SmallInput,
    /// Large inputs: small batches.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Result of one timed benchmark, exposed so callers can post-process
/// (the real criterion writes JSON to `target/criterion` instead).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark identifier (`group/name`).
    pub id: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations measured.
    pub iterations: u64,
}

/// The benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    measurements: Vec<Measurement>,
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Times a single benchmark outside any group.
    pub fn bench_function(&mut self, id: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        let id = id.into();
        self.run_one(id, f);
    }

    /// All measurements recorded so far.
    #[must_use]
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    fn run_one(&mut self, id: String, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            ns_per_iter: 0.0,
            iterations: 0,
        };
        f(&mut bencher);
        println!(
            "bench: {:<56} {:>14.1} ns/iter ({} iters)",
            id, bencher.ns_per_iter, bencher.iterations
        );
        self.measurements.push(Measurement {
            id,
            ns_per_iter: bencher.ns_per_iter,
            iterations: bencher.iterations,
        });
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the stub sizes iteration counts from
    /// the time budget instead of a fixed sample count.
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Times one benchmark in this group.
    pub fn bench_function(&mut self, id: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        let id = format!("{}/{}", self.name, id.into());
        self.criterion.run_one(id, f);
    }

    /// Ends the group (kept for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; `iter` runs and times the routine.
#[derive(Debug)]
pub struct Bencher {
    ns_per_iter: f64,
    iterations: u64,
}

impl Bencher {
    /// Times `routine`, running it repeatedly until the time budget is spent.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warmup and per-call estimate.
        let start = Instant::now();
        black_box(routine());
        let estimate = start.elapsed().max(Duration::from_nanos(20));
        let budget = time_budget();
        let iters = (budget.as_nanos() / estimate.as_nanos()).clamp(1, 100_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let total = start.elapsed();
        self.iterations = iters;
        self.ns_per_iter = total.as_nanos() as f64 / iters as f64;
    }

    /// Times `routine` over fresh inputs built by `setup` (setup excluded
    /// from the measurement).
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        let estimate = start.elapsed().max(Duration::from_nanos(20));
        let budget = time_budget();
        let iters = (budget.as_nanos() / estimate.as_nanos()).clamp(1, 100_000) as u64;
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.iterations = iters;
        self.ns_per_iter = total.as_nanos() as f64 / iters as f64;
    }
}

/// Declares a function that runs the listed benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` for a benchmark binary (`harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_something() {
        std::env::set_var("CRITERION_STUB_BUDGET_MS", "5");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.bench_function("noop", |b| b.iter(|| 1 + 1));
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        group.finish();
        assert_eq!(c.measurements().len(), 2);
        assert!(c.measurements().iter().all(|m| m.iterations >= 1));
    }
}
