//! Offline drop-in replacement for the subset of `criterion` this workspace
//! uses. Measures wall time with `std::time::Instant` and reports
//! median/min per benchmark — no statistical regression analysis, no HTML
//! reports. When invoked by `cargo test` (which passes `--test` to
//! `harness = false` bench binaries), each benchmark body runs once as a
//! smoke test so the suite stays fast. As in criterion, the first free
//! argument filters: `cargo bench --bench baseline_ops -- storage` runs only
//! the benchmarks whose `group/function` id contains `storage` (the setup
//! a target runs outside its `bench_function` closures still runs).

use std::time::{Duration, Instant};

/// How `iter_batched` amortizes setup cost. The shim runs one routine call
/// per setup call regardless of variant, which preserves semantics (every
/// routine call sees a fresh input) at some extra setup cost.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
    NumBatches(u64),
    NumIterations(u64),
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
    smoke_test: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Criterion {
            sample_size: 50,
            smoke_test: args.iter().any(|a| a == "--test"),
            filter: args.into_iter().find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark (builder style).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            parent: self,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let (id, sample_size) = (id.into(), self.sample_size);
        self.run_one(&id, sample_size, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&self, id: &str, sample_size: usize, mut f: F) {
        if !selected(self.filter.as_deref(), id) {
            return;
        }
        let smoke = self.smoke_test;
        let mut b = Bencher {
            samples: Vec::with_capacity(sample_size),
            sample_size: if smoke { 1 } else { sample_size },
        };
        f(&mut b);
        if smoke {
            println!("bench {id}: ok (smoke test)");
            return;
        }
        b.samples.sort_unstable();
        if b.samples.is_empty() {
            println!("bench {id}: no samples");
            return;
        }
        let median = b.samples[b.samples.len() / 2];
        let min = b.samples[0];
        println!(
            "bench {id}: median {median:?}  min {min:?}  ({} samples)",
            b.samples.len()
        );
    }
}

/// Whether the benchmark `id` runs under the command line's `filter`:
/// every benchmark without one, else those whose id contains it.
fn selected(filter: Option<&str>, id: &str) -> bool {
    filter.is_none_or(|f| id.contains(f))
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    parent: &'a Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        self.parent.run_one(&full, self.sample_size, f);
        self
    }

    pub fn finish(self) {}
}

/// Passed to each benchmark body; collects timed samples.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine` `sample_size` times.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            let out = routine();
            self.samples.push(t0.elapsed());
            drop(out);
        }
    }

    /// Times `routine` over fresh inputs produced by `setup` (setup is
    /// untimed).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.sample_size {
            let input = setup();
            let t0 = Instant::now();
            let out = routine(input);
            self.samples.push(t0.elapsed());
            drop(out);
        }
    }
}

/// Opaque-to-the-optimizer value laundering.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a benchmark group binding, mirroring criterion's two forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $config;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Emits `main` running the given groups.
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

    fn targets_run(c: &mut Criterion) {
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.bench_function("iter", |b| b.iter(|| black_box(2 + 2)));
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1, 2, 3], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
    }

    criterion_group! {
        name = benches;
        config = Criterion::default().sample_size(3);
        targets = targets_run
    }

    #[test]
    fn group_machinery_runs() {
        benches();
    }

    #[test]
    fn the_filter_selects_ids_containing_it() {
        assert!(selected(None, "wah/count_ones"));
        assert!(selected(Some("storage"), "storage/node_get/hot"));
        assert!(selected(Some("node_get/co"), "storage/node_get/cold"));
        assert!(!selected(Some("storage"), "wah/count_ones"));
        assert!(!selected(Some("Storage"), "storage/node_get/hot"));
    }
}
