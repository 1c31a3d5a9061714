//! Offline stand-in for the parts of `criterion` this workspace uses.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors a small fixed-protocol benchmark harness with the same API:
//! `Criterion::bench_function`, `Bencher::{iter, iter_batched}`,
//! `BatchSize`, and the `criterion_group!` / `criterion_main!` macros.
//!
//! Protocol: a warm-up phase estimates the per-iteration cost, then
//! `sample_size` timed samples are collected and the **median ns/iter**
//! is reported. Each result is also written as a small JSON file under
//! `$GCED_BENCH_DIR` (default `target/gced-criterion/`) so perf
//! trajectories can be diffed across commits (see `BENCH_pipeline.json`
//! at the repository root).
//!
//! `--test` on the command line (as passed by `cargo bench -- --test`)
//! runs every benchmark exactly once as a smoke test without timing.

use std::hint::black_box as std_black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How `iter_batched` amortizes setup cost (accepted, not interpreted:
/// this harness times every routine invocation individually).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// Re-run setup for every routine call.
    PerIteration,
}

/// One benchmark result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id as passed to [`Criterion::bench_function`].
    pub name: String,
    /// Median nanoseconds per iteration over all samples.
    pub median_ns: f64,
    /// Number of samples collected.
    pub samples: usize,
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    test_mode: bool,
    filter: Option<String>,
    /// Where result JSONs go; `None` resolves [`bench_out_dir`].
    out_dir: Option<PathBuf>,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(500),
            test_mode: false,
            filter: None,
            out_dir: None,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Total time budget for the timed samples of one benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Warm-up budget before sampling.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Apply command-line configuration (`--test`, name filters).
    pub fn configure_from_args(mut self) -> Self {
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => self.test_mode = true,
                "--bench" => {}
                a if a.starts_with('-') => {}
                a => self.filter = Some(a.to_string()),
            }
        }
        self
    }

    /// Run one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        if self.test_mode {
            f(&mut b);
            println!("test {name} ... ok (smoke, 1 iteration)");
            return;
        }
        // Warm-up: double the iteration count until the warm-up budget is
        // spent, producing a per-iteration estimate.
        let warm_start = Instant::now();
        let mut per_iter_ns = loop {
            f(&mut b);
            let ns = b.elapsed.as_nanos() as f64 / b.iters as f64;
            if warm_start.elapsed() >= self.warm_up_time {
                break ns.max(1.0);
            }
            b.iters = (b.iters * 2).min(1 << 30);
        };
        // Sampling: size each sample so all samples fit the budget.
        let mut samples_ns = Vec::with_capacity(self.sample_size);
        let budget_ns = self.measurement_time.as_nanos() as f64;
        for _ in 0..self.sample_size {
            let target = budget_ns / self.sample_size as f64;
            b.iters = ((target / per_iter_ns) as u64).clamp(1, 1 << 30);
            f(&mut b);
            let ns = b.elapsed.as_nanos() as f64 / b.iters as f64;
            per_iter_ns = ns.max(1.0);
            samples_ns.push(ns);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
        let median_ns = samples_ns[samples_ns.len() / 2];
        println!("{name:<44} time: [{}]", format_ns(median_ns));
        let result = BenchResult {
            name: name.to_string(),
            median_ns,
            samples: samples_ns.len(),
        };
        let dir = self.out_dir.clone().unwrap_or_else(bench_out_dir);
        write_result_json(&dir, &result);
        self.results.push(result);
    }

    /// Results collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Print a one-line summary (called by `criterion_group!`).
    pub fn final_summary(&self) {
        if !self.test_mode && !self.results.is_empty() {
            println!("({} benchmark(s) done)", self.results.len());
        }
    }
}

/// Times the measured routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine` for the harness-chosen iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std_black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Time `routine` over inputs built by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std_black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{ns:.2} ns")
    }
}

/// Where result JSONs go: `$GCED_BENCH_DIR`, else the **workspace**
/// `target/gced-criterion/`. Cargo runs bench binaries with the package
/// directory as cwd, so a bare relative path would scatter outputs into
/// per-crate `target/` dirs; walking up to the nearest existing `target`
/// finds the shared workspace build dir instead.
fn bench_out_dir() -> PathBuf {
    if let Ok(d) = std::env::var("GCED_BENCH_DIR") {
        return PathBuf::from(d);
    }
    if let Ok(d) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(d).join("gced-criterion");
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("target").is_dir() {
            return dir.join("target").join("gced-criterion");
        }
        if !dir.pop() {
            return PathBuf::from("target/gced-criterion");
        }
    }
}

fn write_result_json(dir: &std::path::Path, r: &BenchResult) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let file: String = r
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let json = format!(
        "{{\n  \"name\": \"{}\",\n  \"median_ns\": {:.1},\n  \"samples\": {}\n}}\n",
        r.name, r.median_ns, r.samples
    );
    let _ = std::fs::write(dir.join(format!("{file}.json")), json);
}

/// Declare a benchmark group function.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg.configure_from_args();
            $( $target(&mut criterion); )+
            criterion.final_summary();
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

/// Declare the bench binary entry point.
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
    fn median_protocol_runs() {
        // A directory of its own: the shared workspace results dir is
        // what `gced bench-check` reads, and a test result there would
        // show up as a stray row.
        let dir = std::env::temp_dir().join(format!("gced-criterion-test-{}", std::process::id()));
        let mut c = Criterion {
            out_dir: Some(dir.clone()),
            ..Criterion::default()
        }
        .sample_size(5)
        .measurement_time(Duration::from_millis(20))
        .warm_up_time(Duration::from_millis(5));
        c.bench_function("smoke/add", |b| {
            b.iter(|| black_box(1u64) + black_box(2u64))
        });
        assert_eq!(c.results().len(), 1);
        assert!(c.results()[0].median_ns > 0.0);
        let json = std::fs::read_to_string(dir.join("smoke_add.json"));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(json.unwrap().contains("\"name\": \"smoke/add\""));
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut b = Bencher {
            iters: 3,
            elapsed: Duration::ZERO,
        };
        b.iter_batched(Vec::<u8>::new, |v| v.len(), BatchSize::SmallInput);
        assert!(b.elapsed < Duration::from_secs(1));
    }

    #[test]
    fn format_units() {
        assert!(format_ns(12.0).contains("ns"));
        assert!(format_ns(12_000.0).contains("µs"));
        assert!(format_ns(12_000_000.0).contains("ms"));
        assert!(format_ns(2e9).contains(" s"));
    }
}
