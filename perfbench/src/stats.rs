//! Pure arithmetic of the benchmark: seeded random streams, the Poisson
//! arrival schedule, the percentile rule, ladder
//! verdicts and the trace reconciliation. Everything here is a function
//! of its arguments, so the unit tests below pin it exactly.

/// One step of the splitmix64 generator: the benchmark's only source of
/// randomness, so every input and schedule is a function of `--seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the stream.
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform integer in `lo..=hi` from the stream.
pub fn range(state: &mut u64, lo: usize, hi: usize) -> usize {
    lo + (splitmix64(state) % (hi - lo + 1) as u64) as usize
}

/// Due times (ns after the step start) of a Poisson arrival process at
/// `rate` per second over `seconds`: exponential gaps drawn from the
/// stream seeded with `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut state = seed;
    let horizon = seconds * 1e9;
    let mut t = 0.0f64;
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 8);
    loop {
        // 1 - u is in (0, 1], so the logarithm is finite.
        t += -(1.0 - unit(&mut state)).ln() / rate * 1e9;
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

/// Smallest sample count for which [`tail_percentile`] reaches `p`.
pub fn samples_for_percentile(p: f64) -> usize {
    // Whole tenths of a percent beyond `p`, so 99.9 is exact.
    let beyond = ((100.0 - p) * 10.0).round().max(1.0) as usize;
    10_000_usize.div_ceil(beyond)
}

/// The tail percentile a sample of `n` supports: the highest of the
/// usual tail percentiles (capped at `cap`) that leaves at least ten
/// samples above it. `None` below 20 samples (not even a p50 tail).
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| n >= samples_for_percentile(p))
}

/// The `p`-th percentile (0..=100) of `sorted` by the nearest-rank
/// rule; 0.0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest-rank, like [`percentile`]).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Completion rates (per second) of `chunks` runs of consecutive
/// completions, from completion times in ns: chunk `i` is the time from
/// the completion closing chunk `i - 1` to the one closing chunk `i`.
/// Their median is a rate that one stalled stretch cannot drag down.
pub fn chunk_rates(done_ns: &[u64], chunks: usize) -> Vec<f64> {
    let mut t = done_ns.to_vec();
    t.sort_unstable();
    let per = (t.len().saturating_sub(1)) / chunks.max(1);
    if per == 0 {
        return Vec::new();
    }
    (0..chunks)
        .map(|i| per as f64 * 1e9 / (t[(i + 1) * per] - t[i * per]).max(1) as f64)
        .collect()
}

/// Outcome of one request of an open-loop step, times in ns after the
/// step start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// Answered with the expected bytes.
    pub ok: bool,
}

impl Sample {
    /// Latency as the user sees it: from the due time to the response
    /// fully read, so a stalled generator cannot hide queueing.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

/// Verdict on one ladder step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepVerdict {
    pub rate: f64,
    pub sent: usize,
    pub succeeded: usize,
    pub failed: usize,
    /// Succeeded with latency at or under the limit.
    pub within_limit: usize,
    /// Requests due by the last due time but not yet sent then.
    pub backlog_end: usize,
    /// The backlog grew past what one latency limit of arrivals explains.
    pub growing_backlog: bool,
    /// At least 99 % of requests sent succeeded within the limit, and no
    /// growing backlog.
    pub meets_limit: bool,
    /// Completions within the limit per second of step.
    pub goodput_rps: f64,
}

/// Judge a step of `samples` at `rate` over `seconds` against a
/// latency limit of `limit_ns`. A failed request misses the limit.
pub fn judge_step(samples: &[Sample], rate: f64, seconds: f64, limit_ns: u64) -> StepVerdict {
    let sent = samples.len();
    let succeeded = samples.iter().filter(|s| s.ok).count();
    let within_limit = samples
        .iter()
        .filter(|s| s.ok && s.latency_ns() <= limit_ns)
        .count();
    let last_due = samples.iter().map(|s| s.due_ns).max().unwrap_or(0);
    let backlog_end = samples
        .iter()
        .filter(|s| s.due_ns <= last_due && s.sent_ns > last_due)
        .count();
    let allowed = (rate * limit_ns as f64 / 1e9).ceil() as usize;
    let growing_backlog = backlog_end > allowed;
    let meets_limit = sent > 0 && within_limit * 100 >= sent * 99 && !growing_backlog;
    StepVerdict {
        rate,
        sent,
        succeeded,
        failed: sent - succeeded,
        within_limit,
        backlog_end,
        growing_backlog,
        meets_limit,
        goodput_rps: within_limit as f64 / seconds,
    }
}

/// The highest ladder rate such that it and every lower rate met the
/// limit; 0.0 when even the lowest rate failed. `steps` are ascending.
pub fn max_rate(steps: &[StepVerdict]) -> f64 {
    steps
        .iter()
        .take_while(|s| s.meets_limit)
        .last()
        .map_or(0.0, |s| s.rate)
}

/// Trace reconciliation: the per-unit time rebuilt from stage
/// self-times plus the untraced remainder (`parts_ns`), against the
/// untraced end-to-end time of the same unit (`whole_ns`). Returns the
/// relative error.
pub fn reconcile(parts_ns: &[f64], whole_ns: f64) -> f64 {
    let rebuilt: f64 = parts_ns.iter().sum();
    (rebuilt - whole_ns).abs() / whole_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(samples_for_percentile(99.0), 1000);
        assert_eq!(samples_for_percentile(50.0), 20);
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(999, 99.0), Some(98.0));
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(10_000, 100.0), Some(99.9));
        assert_eq!(tail_percentile(19, 99.0), None);
        // At the threshold exactly ten samples lie above the percentile.
        let n = samples_for_percentile(99.0);
        let sorted: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let p = percentile(&sorted, 99.0);
        assert_eq!(sorted.iter().filter(|&&v| v > p).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 75.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 200.0, 5.0);
        assert_eq!(a, poisson_schedule(7, 200.0, 5.0));
        assert_ne!(a, poisson_schedule(8, 200.0, 5.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 5_000_000_000));
        // About rate × seconds arrivals (5 sigma ≈ 160).
        assert!((840..1160).contains(&a.len()), "{}", a.len());
    }

    fn sample(due_ms: u64, sent_ms: u64, lat_ms: u64, ok: bool) -> Sample {
        Sample {
            due_ns: due_ms * 1_000_000,
            sent_ns: sent_ms * 1_000_000,
            done_ns: (due_ms + lat_ms) * 1_000_000,
            ok,
        }
    }

    #[test]
    fn steps_count_failures_against_the_limit() {
        // 100 requests at 100 rps over 1 s; one slow, one failed.
        let mut s: Vec<Sample> = (0..100).map(|i| sample(i * 10, i * 10, 5, true)).collect();
        s[10] = sample(100, 100, 500, true);
        let v = judge_step(&s, 100.0, 1.0, 100_000_000);
        assert_eq!(
            (v.sent, v.succeeded, v.failed, v.within_limit),
            (100, 100, 0, 99)
        );
        assert!(v.meets_limit, "99 of 100 within the limit meets it");
        assert!((v.goodput_rps - 99.0).abs() < 1e-9);
        s[20].ok = false;
        let v = judge_step(&s, 100.0, 1.0, 100_000_000);
        assert_eq!((v.failed, v.within_limit), (1, 98));
        assert!(!v.meets_limit, "a failure misses the limit too");
    }

    #[test]
    fn backlog_that_outgrows_the_limit_fails_the_step() {
        // Arrivals every 10 ms; the sender falls 2 ms further behind per
        // request, so 30 requests are still unsent at the last due time.
        let s: Vec<Sample> = (0..100).map(|i| sample(i * 10, i * 12, 1, true)).collect();
        let v = judge_step(&s, 100.0, 1.0, 100_000_000);
        assert!(v.backlog_end > 10, "backlog {}", v.backlog_end);
        assert!(v.growing_backlog);
        assert!(!v.meets_limit);
        // A bounded lag is not a growing backlog.
        let s: Vec<Sample> = (0..100)
            .map(|i| sample(i * 10, i * 10 + 3, 4, true))
            .collect();
        let v = judge_step(&s, 100.0, 1.0, 100_000_000);
        assert!(v.backlog_end <= 1, "only the last request may be unsent");
        assert!(v.meets_limit);
    }

    #[test]
    fn max_rate_is_the_top_of_the_passing_prefix() {
        let step = |rate: f64, ok: bool| StepVerdict {
            rate,
            sent: 1,
            succeeded: 1,
            failed: 0,
            within_limit: 1,
            backlog_end: 0,
            growing_backlog: false,
            meets_limit: ok,
            goodput_rps: rate,
        };
        assert_eq!(
            max_rate(&[step(50.0, true), step(100.0, true), step(200.0, false)]),
            100.0
        );
        // A pass above a failed rate does not count.
        assert_eq!(
            max_rate(&[step(50.0, true), step(100.0, false), step(200.0, true)]),
            50.0
        );
        assert_eq!(max_rate(&[step(50.0, false)]), 0.0);
    }

    #[test]
    fn chunk_rates_ignore_one_stalled_stretch() {
        // One completion per ms, except a 50 ms stall after the 40th.
        let done: Vec<u64> = (0..101u64)
            .map(|i| i * 1_000_000 + if i > 40 { 50_000_000 } else { 0 })
            .collect();
        let rates = chunk_rates(&done, 10);
        assert_eq!(rates.len(), 10);
        assert_eq!(rates.iter().filter(|&&r| r < 900.0).count(), 1);
        assert!((median(&rates) - 1000.0).abs() < 1e-9);
        assert!(chunk_rates(&done[..5], 10).is_empty());
    }

    #[test]
    fn reconciliation_is_relative_to_the_untraced_whole() {
        assert!(reconcile(&[600.0, 300.0, 100.0], 1000.0).abs() < 1e-12);
        assert!((reconcile(&[600.0, 300.0, 200.0], 1000.0) - 0.1).abs() < 1e-12);
        assert!((reconcile(&[450.0, 450.0], 1000.0) - 0.1).abs() < 1e-12);
    }
}
