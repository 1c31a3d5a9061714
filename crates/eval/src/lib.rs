//! # gced-eval — rater simulation and experiment runners
//!
//! Everything Section IV of the paper needs:
//!
//! * [`rubric`] — the 1–5 scoresheet of Table I;
//! * [`raters`] — the simulated 9-rater panel (3 groups × 3 raters) of
//!   Sec. IV-A1 (DESIGN.md S8): each rater measures the three rubric
//!   constructs through observable proxies, plus a seeded personal bias
//!   and per-item noise;
//! * [`protocol`] — the evaluation protocol: per-group Krippendorff's α
//!   (Table II), the < 0.7 per-item agreement filter, group averaging;
//! * [`scale`] — experiment sizing via the `GCED_SCALE` env var;
//! * [`experiments`] — the per-item runners (one table row, one rated
//!   pool, one Fig. 7 point) and the shared [`ExperimentContext`];
//! * [`shard`] — the one reproduction path of Tables II–VIII and
//!   Fig. 7: dataset-level sharded runs of every experiment with
//!   deterministic merge and a shared fit cache (the backend of
//!   `gced run` and of the table benches);
//! * [`tables`] — plain-text + TSV table rendering.

pub mod experiments;
pub mod protocol;
pub mod raters;
pub mod rubric;
pub mod scale;
pub mod shard;
pub mod tables;

pub use experiments::ExperimentContext;
pub use protocol::{HumanEvalOutcome, RatingProtocol};
pub use raters::{Rater, RaterPanel};
pub use scale::Scale;
pub use shard::{merge, run_shard, MergedRun, ShardError, ShardOutput};
