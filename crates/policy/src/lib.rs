//! Dynamic batching policies driven by end-to-end estimates.
//!
//! The paper's §4–§5 sketch how end-to-end performance estimates should be
//! *used*: toggle batching on/off dynamically (ε-greedy exploration, since
//! the effect of the other mode is unknown until tried), smooth noisy
//! estimates, decide at a configurable granularity, balance latency and
//! throughput through an explicit objective, and — as the more principled
//! future direction — adapt a batch-size *limit* with AIMD rather than a
//! binary switch.
//!
//! * [`objective`] — what "better" means: minimize latency, maximize
//!   throughput under a latency SLO, or a weighted tradeoff.
//! * [`toggler`] — [`BatchToggler`] implementations: static on/off
//!   baselines and the ε-greedy dynamic toggler.
//! * [`tick`] — the toggling-granularity controller (the paper suggests a
//!   kernel tick).
//! * [`breaker`] — one closed/open/half-open lifecycle with exponential
//!   re-probe backoff, in two views: a circuit-breaker wrapper that
//!   reverts a toggler to a safe static mode when estimator confidence
//!   collapses under faults, and the proxy's per-upstream routing
//!   breaker.
//! * [`retry`] — the proxy's failure-handling time arithmetic: request
//!   deadlines, budgeted retries with exponential backoff + deterministic
//!   jitter, and estimate-driven hedging.
//! * [`aimd`] — additive-increase/multiplicative-decrease batch limits.
//! * [`knob`] — the multi-knob control plane: one controller per
//!   batching mechanism (Nagle, delayed ACKs, cork limit), each fed its
//!   routed component of the estimate, with coordinated exploration so at
//!   most one knob perturbs the system per window.
//! * [`figure1`] — the paper's Figure 1 analytical model (n queued
//!   requests, per-request cost α, per-batch cost β, client cost c),
//!   reproduced exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod aimd;
pub mod breaker;
pub mod figure1;
pub mod knob;
pub mod objective;
pub mod retry;
pub mod tick;
pub mod toggler;

pub use aimd::AimdBatchLimit;
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, UpstreamBreaker};
pub use figure1::{figure1_model, BatchOutcome, Figure1Params, Metrics};
pub use knob::{ControlPlane, DelAckToggler};
pub use objective::Objective;
pub use retry::{AttemptKind, RetryConfig, RetryPolicy};
pub use tick::TickController;
pub use toggler::{BatchToggler, EpsilonGreedy, StaticToggler};
