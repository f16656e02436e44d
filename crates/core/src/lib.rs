//! End-to-end performance estimation from TCP queue states.
//!
//! This crate implements the contribution of *Batching with End-to-End
//! Performance Estimation* (HotOS'25, Borisov, Amit, Tsafrir): estimating
//! the application-perceived end-to-end latency `L` and throughput of a
//! TCP connection from three cheaply-maintained per-queue counters on each
//! side, combined via Little's law:
//!
//! ```text
//! L ≈ L_unacked^local − L_ackdelay^remote + L_unread^local + L_unread^remote
//! ```
//!
//! where *unacked* is the sent-but-unacknowledged queue, *unread* the
//! received-but-unread queue, and *ackdelay* the received-but-unacked
//! (delayed-ACK) queue (paper §3.2, Figure 3). Both endpoints share their
//! three queue states (36 bytes per exchange), so each can evaluate the
//! formula in both directions; the maximum of the two guards against
//! underestimation.
//!
//! Modules:
//!
//! * [`combine`] — the latency decomposition, as pure functions over queue
//!   windows.
//! * `estimator` — [`E2eEstimator`]: the per-connection stateful
//!   estimator an endpoint runs each policy tick.
//! * [`hints`] — the §3.3 cooperative-application interface:
//!   [`RequestTracker`] (`create(n)` / `complete(n)`) and the single-queue
//!   estimate derived from forwarded hints.
//! * `multi` — aggregation across connections for policies that toggle
//!   batching machine-wide.
//! * [`compose`] — composition of per-leg estimates along a multi-hop
//!   path (client → proxy → shard), latencies summed per Figure 3,
//!   confidence the weakest leg's.
//! * `route` — per-knob views on estimates: each batching knob's
//!   controller sees the decomposition component its mechanism causes.
//! * `validate` — plausibility validation of the peer's shared state:
//!   the exchange is untrusted input, cross-checked against locally
//!   observable signals (SRTT, local transmit/receive rates) before it can
//!   influence an estimate; peer restarts are detected via the exchange's
//!   epoch tag and trigger resynchronization.
//!
//! This crate deliberately depends only on `littles` — it is stack-agnostic
//! and would sit on top of any transport exposing the three queues.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod combine;
pub mod compose;
mod estimator;
pub mod hints;
mod multi;
mod route;
mod validate;

pub use combine::{combine_delays, DelaySet, EndpointSnapshots, EndpointWindows, QueueWindow};
pub use compose::compose_two;
pub use estimator::{Admitted, E2eEstimator, Estimate, ExchangeIntake};
pub use hints::{HintEstimator, RequestTracker};
pub use multi::{EstimatorRegistry, MultiConnectionAggregator};
pub use route::Knob;
pub use validate::{ExchangeValidator, ValidateConfig, ValidateCtx, ValidateStats};
