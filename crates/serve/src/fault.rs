//! Deterministic fault injection ("chaos") for the serve stack.
//!
//! A [`FaultPlan`] arms named injection **sites** in the server's hot
//! paths — latency before a coalesced batch, a panic inside
//! `distill_batch`, the batcher thread dying outright, a torn
//! (partial) socket write, a stalled socket read — each with a seeded
//! Bernoulli rate and an optional cap on total fires. The decision for
//! the *n*-th occurrence of a site is a pure function of
//! `(seed, site, n)`, so a plan replays identically across runs no
//! matter how threads interleave: occurrence numbers are handed out by
//! one atomic counter per site, and whichever thread draws occurrence
//! `n` gets the same verdict every time.
//!
//! The chaos suite (`tests/serve_chaos.rs`) and the CI `chaos-smoke`
//! job drive servers under these plans and assert the containment
//! invariants: no waiting connection hangs, surviving responses stay
//! byte-identical to offline output, the shed/panic counters decompose
//! exactly, and graceful drain still completes.
//!
//! The decision logic is compiled in via the `chaos` cargo feature (a
//! default feature of this crate; build with `--no-default-features`
//! for a binary in which every [`FaultPlan::fire`] call is a constant
//! `None`). Parsing and the plan type are always available so
//! configuration shapes do not change with the feature.

use std::sync::atomic::{AtomicU64, Ordering};

/// True when this build can actually fire faults (the `chaos` feature).
pub const ENABLED: bool = cfg!(feature = "chaos");

/// A named injection site in the serve stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Sleep `arg_ms` on the batcher thread before running a batch.
    PreBatchDelay,
    /// Panic inside the (caught) `distill_batch` call: the whole batch
    /// answers 500, the batcher thread survives.
    BatchPanic,
    /// Panic *outside* the catch: kills the batcher thread itself,
    /// exercising the server's dead-batcher restart path.
    BatcherKill,
    /// Write only a prefix of the rendered response, then break the
    /// connection (a torn write mid-frame).
    TornWrite,
    /// Sleep `arg_ms` before reading a request off a connection.
    ReadStall,
}

impl Site {
    /// Every site, in spec/rendering order.
    pub const ALL: [Site; 5] = [
        Site::PreBatchDelay,
        Site::BatchPanic,
        Site::BatcherKill,
        Site::TornWrite,
        Site::ReadStall,
    ];

    /// The spec key naming this site.
    pub fn key(self) -> &'static str {
        match self {
            Site::PreBatchDelay => "pre_batch_delay",
            Site::BatchPanic => "batch_panic",
            Site::BatcherKill => "batcher_kill",
            Site::TornWrite => "torn_write",
            Site::ReadStall => "read_stall",
        }
    }

    fn index(self) -> usize {
        match self {
            Site::PreBatchDelay => 0,
            Site::BatchPanic => 1,
            Site::BatcherKill => 2,
            Site::TornWrite => 3,
            Site::ReadStall => 4,
        }
    }

    /// Per-site salt so sites with equal rates draw independent
    /// decision streams from the same seed.
    #[cfg_attr(not(feature = "chaos"), allow(dead_code))]
    fn salt(self) -> u64 {
        // Distinct odd constants; any fixed values work.
        [
            0x9e37_79b9_7f4a_7c15,
            0xbf58_476d_1ce4_e5b9,
            0x94d0_49bb_1331_11eb,
            0xd6e8_feb8_6659_fd93,
            0xa076_1d64_78bd_642f,
        ][self.index()]
    }
}

/// One armed site: rate, fire cap, millisecond argument, counters.
#[derive(Debug)]
#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
struct SiteFault {
    /// Fire threshold in u64 space (`rate` mapped onto `0..=u64::MAX`).
    threshold: u64,
    /// Rate as parsed (rendered back out in `/metrics`).
    rate: f64,
    /// Maximum total fires (`u64::MAX` when uncapped).
    max: u64,
    /// Millisecond argument for delay-style sites (0 when unset).
    arg_ms: u64,
    /// Occurrences assigned so far (decision-stream cursor).
    seen: AtomicU64,
    /// Fires so far (observability only; decisions never read it).
    fired: AtomicU64,
}

/// A deterministic fault plan: a seed plus zero or more armed sites.
///
/// Built from a spec string (`--fault-plan` / `GCED_CHAOS`):
///
/// ```text
/// seed=42,batch_panic=1x1,torn_write=0.25,pre_batch_delay=0.5x4:25
/// ```
///
/// Each site entry is `<site>=<rate>[x<max>][:<ms>]` — fire with
/// probability `rate` per occurrence, at most `max` times total,
/// carrying a `ms` argument for the delay sites.
#[derive(Debug, Default)]
pub struct FaultPlan {
    #[cfg_attr(not(feature = "chaos"), allow(dead_code))]
    seed: u64,
    sites: [Option<SiteFault>; 5],
}

impl FaultPlan {
    /// A plan with no armed sites (every `fire` answers `None`).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no site is armed.
    pub fn is_empty(&self) -> bool {
        self.sites.iter().all(Option::is_none)
    }

    /// Parse a spec string (see the type docs for the grammar).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?} is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("bad fault seed {value:?}"))?;
                continue;
            }
            let site = Site::ALL
                .into_iter()
                .find(|s| s.key() == key)
                .ok_or_else(|| {
                    format!(
                        "unknown fault site {key:?} (expected one of {:?})",
                        Site::ALL.map(Site::key)
                    )
                })?;
            let (rate_part, arg_ms) = match value.split_once(':') {
                Some((r, ms)) => (
                    r,
                    ms.parse()
                        .map_err(|_| format!("{key}: bad millisecond argument {ms:?}"))?,
                ),
                None => (value, 0),
            };
            let (rate_str, max) = match rate_part.split_once('x') {
                Some((r, m)) => (
                    r,
                    m.parse()
                        .map_err(|_| format!("{key}: bad fire cap {m:?}"))?,
                ),
                None => (rate_part, u64::MAX),
            };
            let rate: f64 = rate_str
                .parse()
                .map_err(|_| format!("{key}: bad rate {rate_str:?}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{key}: rate {rate} outside [0, 1]"));
            }
            if plan.sites[site.index()].is_some() {
                return Err(format!("fault site {key:?} armed twice"));
            }
            plan.sites[site.index()] = Some(SiteFault {
                threshold: rate_to_threshold(rate),
                rate,
                max,
                arg_ms,
                seen: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            });
        }
        Ok(plan)
    }

    /// Record one occurrence of `site` and decide whether the fault
    /// fires. `Some(arg_ms)` means fire (with the site's millisecond
    /// argument); `None` means proceed normally. Deterministic per
    /// occurrence number regardless of which thread asks.
    #[cfg(feature = "chaos")]
    pub fn fire(&self, site: Site) -> Option<u64> {
        let armed = self.sites[site.index()].as_ref()?;
        let n = armed.seen.fetch_add(1, Ordering::Relaxed);
        if !self.decides(site, armed, n) {
            return None;
        }
        // Honor the fire cap deterministically: occurrence n fires only
        // if fewer than `max` earlier occurrences decided to fire. The
        // scan stays cheap because capped sites dry up quickly.
        if armed.max != u64::MAX {
            let earlier_fires = (0..n).filter(|&j| self.decides(site, armed, j)).count() as u64;
            if earlier_fires >= armed.max {
                return None;
            }
        }
        armed.fired.fetch_add(1, Ordering::Relaxed);
        Some(armed.arg_ms)
    }

    /// Chaos-free builds: every site always passes. `#[inline]` so the
    /// call sites cost nothing.
    #[cfg(not(feature = "chaos"))]
    #[inline(always)]
    pub fn fire(&self, _site: Site) -> Option<u64> {
        None
    }

    /// The pure per-occurrence decision (no counters involved).
    #[cfg(feature = "chaos")]
    fn decides(&self, site: Site, armed: &SiteFault, n: u64) -> bool {
        if armed.threshold == u64::MAX {
            return true;
        }
        crate::splitmix64(self.seed ^ site.salt() ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d))
            < armed.threshold
    }

    /// Render the plan's live counters as a JSON object for `/metrics`:
    /// `{"seed":N,"sites":{"batch_panic":{"rate":…,"seen":…,"fired":…},…}}`.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"seed\":");
        out.push_str(&self.seed.to_string());
        out.push_str(",\"sites\":{");
        let mut first = true;
        for site in Site::ALL {
            let Some(armed) = &self.sites[site.index()] else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(site.key());
            out.push_str("\":{\"rate\":");
            gced_datasets::json::push_f64(&mut out, armed.rate);
            out.push_str(",\"seen\":");
            out.push_str(&armed.seen.load(Ordering::Relaxed).to_string());
            out.push_str(",\"fired\":");
            out.push_str(&armed.fired.load(Ordering::Relaxed).to_string());
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// Map a rate in `[0, 1]` onto a u64 comparison threshold.
fn rate_to_threshold(rate: f64) -> u64 {
    if rate >= 1.0 {
        u64::MAX
    } else {
        (rate * u64::MAX as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let plan =
            FaultPlan::parse("seed=42, batch_panic=1x1, torn_write=0.25, pre_batch_delay=0.5x4:25")
                .unwrap();
        assert_eq!(plan.seed, 42);
        assert!(!plan.is_empty());
        let delay = plan.sites[Site::PreBatchDelay.index()].as_ref().unwrap();
        assert_eq!(delay.arg_ms, 25);
        assert_eq!(delay.max, 4);
        assert!((delay.rate - 0.5).abs() < 1e-12);
        let torn = plan.sites[Site::TornWrite.index()].as_ref().unwrap();
        assert_eq!(torn.max, u64::MAX);
        assert_eq!(torn.arg_ms, 0);
        // The empty spec is a valid no-op plan.
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("seed=7").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "nonsense",
            "unknown_site=1",
            "batch_panic=2.0",
            "batch_panic=-0.1",
            "batch_panic=abc",
            "batch_panic=0.5xq",
            "read_stall=0.5:ms",
            "seed=notanumber",
            "batch_panic=1,batch_panic=1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn decisions_are_deterministic_per_occurrence() {
        let spec = "seed=11,torn_write=0.5";
        let a = FaultPlan::parse(spec).unwrap();
        let b = FaultPlan::parse(spec).unwrap();
        let fires_a: Vec<bool> = (0..256)
            .map(|_| a.fire(Site::TornWrite).is_some())
            .collect();
        let fires_b: Vec<bool> = (0..256)
            .map(|_| b.fire(Site::TornWrite).is_some())
            .collect();
        assert_eq!(fires_a, fires_b, "same seed, same decision stream");
        let n = fires_a.iter().filter(|&&f| f).count();
        assert!(
            (64..192).contains(&n),
            "rate 0.5 over 256 draws fired {n} times"
        );
        // A different seed draws a different stream.
        let c = FaultPlan::parse("seed=12,torn_write=0.5").unwrap();
        let fires_c: Vec<bool> = (0..256)
            .map(|_| c.fire(Site::TornWrite).is_some())
            .collect();
        assert_ne!(fires_a, fires_c);
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn fire_cap_and_rate_one_are_exact() {
        let plan = FaultPlan::parse("seed=3,batch_panic=1x2").unwrap();
        let fires: Vec<bool> = (0..16)
            .map(|_| plan.fire(Site::BatchPanic).is_some())
            .collect();
        assert_eq!(
            fires.iter().filter(|&&f| f).count(),
            2,
            "rate 1 x2 fires exactly twice"
        );
        assert!(
            fires[0] && fires[1],
            "rate 1 fires on the first occurrences"
        );
        // Unarmed sites never fire; rate 0 never fires.
        assert!(plan.fire(Site::TornWrite).is_none());
        let zero = FaultPlan::parse("seed=3,read_stall=0:50").unwrap();
        assert!((0..64).all(|_| zero.fire(Site::ReadStall).is_none()));
        // The ms argument rides along on a fire.
        let ms = FaultPlan::parse("seed=3,read_stall=1x1:50").unwrap();
        assert_eq!(ms.fire(Site::ReadStall), Some(50));
    }

    #[test]
    fn render_json_is_valid() {
        let plan = FaultPlan::parse("seed=9,batch_panic=0.5x3,read_stall=1:20").unwrap();
        let text = plan.render_json();
        let root = gced_datasets::json::parse(&text).expect("valid JSON");
        let sites = root.get("sites").expect("sites");
        assert!(sites.get("batch_panic").is_some());
        assert!(sites.get("read_stall").is_some());
        assert!(sites.get("torn_write").is_none());
    }
}
