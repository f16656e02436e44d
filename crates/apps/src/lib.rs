//! Evaluation applications and experiment harnesses.
//!
//! This crate rebuilds the paper's evaluation setup on the simulated
//! stack: a Redis-like key-value server ([`server::RedisServer`]), a
//! Lancet-like open-loop load generator ([`loadgen::LancetClient`]), the
//! RESP protocol they speak ([`resp`]), calibrated CPU cost profiles
//! (`cost`), and what the experiment grids share ([`experiments`]).
//!
//! The entry points most users want:
//!
//! * [`runner::run_point`] — run one (workload, configuration) pair and
//!   get measured + estimated performance.
//! * [`harness::Harness`] — the same run, and the two-tier one, assembled
//!   once and advanced in stages (warm-up, window, drain) by a caller
//!   that steps the loop itself; [`harness::star_hosts`] and
//!   [`harness::tier_hosts`] lay out a topology's hosts.
//! * [`sweep::run_sweep`] — a load sweep across Nagle on/off/dynamic (the
//!   Figure 4 harness).
//! * [`tier::run_tier_point`] — run one two-tier point (clients → proxy →
//!   shards): upstream batching, fault scenario and defense arm in one
//!   [`tier::TierRunConfig`], both grids' readouts in one
//!   [`tier::TierPointResult`].
//! * [`experiments`] — each grid's arm configurations (`chaos_arms()`,
//!   `knobs_arms()`, …), its degradation bound and fault classes, and
//!   `figure2()`. The `experiments` bench registry runs, prints, emits
//!   and gates them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod conn;
mod cost;
pub mod driver;
pub mod experiments;
pub mod failover;
pub mod grid;
pub mod harness;
pub mod kv;
pub mod loadgen;
pub mod proxy;
pub mod report;
pub mod resp;
mod runlog;
pub mod runner;
mod server;
mod sweep;
pub mod tier;
pub mod workload;

pub use cost::CostProfile;
pub use driver::{EstimateRecorder, ListenerPlaneDriver, PlaneDriver, ProxyDriver};
pub use failover::{FailoverArm, FailoverScenario};
pub use harness::Harness;
pub use loadgen::{KeyPool, LancetClient};
pub use proxy::{ProxyApp, Resilience, ShardRouter};
pub use runner::{run_point, ClientResult, NagleSetting, PointResult, RunConfig};
pub use server::RedisServer;
pub use sweep::{run_sweep, SweepResult};
/// The failover grid's name for [`run_tier_point`], kept for callers
/// written against it.
pub use tier::run_tier_point as run_failover_point;
pub use tier::{run_tier_point, ShardSetting, TierPointResult, TierRunConfig};
pub use workload::WorkloadSpec;
