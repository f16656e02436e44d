//! Little's-law queue-state tracking.
//!
//! This crate implements the measurement core of *Batching with End-to-End
//! Performance Estimation* (HotOS'25): a tiny per-queue state — Algorithm 1's
//! 4-tuple `(time, size, total, integral)` — that is updated whenever a
//! queue's occupancy changes, and from which average occupancy, throughput,
//! and queueing delay over any window can be recovered via Little's law
//! (Algorithm 2, `GETAVGS`).
//!
//! The key identity: for a window delimited by two [`Snapshot`]s,
//!
//! * average occupancy `Q = Δintegral / Δtime`,
//! * throughput `λ = Δtotal / Δtime`, and
//! * queueing delay `D = Q / λ = Δintegral / Δtotal`.
//!
//! All bookkeeping is integer-only and O(1) per update, cheap enough to run
//! on every socket-buffer change inside a TCP stack.
//!
//! # Modules
//!
//! * `time` — the `u64`-nanosecond [`Nanos`] timestamp used throughout.
//! * `queue` — [`QueueState`] (`TRACK`), [`Snapshot`], and [`QueueWindow`]
//!   (`GETAVGS`: the differences of two snapshots, and the averages they
//!   give).
//! * [`wire`] — the compact 36-byte peer exchange format (three 4-byte
//!   counters per queue, three queues), with wrap-aware deltas that give
//!   the same [`QueueWindow`], and an endpoint's three full-resolution
//!   snapshots ([`wire::EndpointSnapshots`]).
//! * `ewma` — exponentially weighted moving averages for smoothing noisy
//!   estimates (paper §5, "Toggling Granularity").
//!
//! # Examples
//!
//! ```
//! use littles::{Nanos, QueueState};
//!
//! let mut q = QueueState::new(Nanos::ZERO);
//! let start = q.snapshot(Nanos::ZERO);
//!
//! // One item resides for 10 µs, then four items for 20 µs (paper §3.1).
//! q.track(Nanos::ZERO, 1);
//! q.track(Nanos::from_micros(10), 3);
//! q.track(Nanos::from_micros(30), -4);
//!
//! let end = q.snapshot(Nanos::from_micros(30));
//! let window = end.window_since(&start).unwrap();
//! assert!((window.avg_occupancy() - 3.0).abs() < 1e-9); // 90 item-µs / 30 µs
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::cast_possible_truncation
)]

mod ewma;
mod queue;
mod time;
pub mod wire;

pub use ewma::Ewma;
pub use queue::{QueueState, QueueWindow, Snapshot};
pub use time::Nanos;
