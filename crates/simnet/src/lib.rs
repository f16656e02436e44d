//! Deterministic discrete-event simulation substrate.
//!
//! The paper's evaluation ran on two Xeon servers with 100 Gbps NICs and a
//! patched Linux v6.3. This crate replaces that testbed with a
//! deterministic, single-threaded discrete-event simulator over which the
//! `tcpsim` stack and the `e2e-apps` workloads run. Determinism matters:
//! every experiment in EXPERIMENTS.md reproduces bit-for-bit from a seed.
//!
//! Components:
//!
//! * `engine` — a generic event queue ([`EventQueue`]) with a total order
//!   on `(time, sequence)`, cancellable timers, and a [`World`] trait plus
//!   [`run`] driver.
//! * [`wheel`] — the hierarchical timer wheel backing [`EventQueue`]:
//!   O(1) schedule/cancel, amortized-O(1) pop, allocation-free in steady
//!   state.
//! * `rng` — a tiny, seedable PCG32 generator with the distributions the
//!   workloads need (uniform, exponential inter-arrivals, Bernoulli).
//! * `link` — a point-to-point link with propagation delay, serialization
//!   at a configured bandwidth, FIFO ordering, and optional loss.
//! * [`fault`] — deterministic fault injection above the links: bursty
//!   (Gilbert–Elliott) loss, bounded reordering, duplication, jitter, and
//!   scheduled blackouts / CPU stalls, each on its own named RNG stream so
//!   lossless runs stay bit-identical.
//! * `topology` — multi-host wiring over links: a general directed-graph
//!   [`Topology`] with typed [`HostId`]/[`LinkId`] handles and shape
//!   constructors — [`Topology::star`] (N clients, one server; the
//!   two-host pair is its N = 1 special case) and [`Topology::two_tier`]
//!   (clients → proxy → sharded servers).
//! * `cpu` — serially-executing CPU contexts (application thread, softirq)
//!   with cost accounting and utilization windows; this is what makes
//!   per-packet overheads translate into saturation, reproducing the
//!   paper's Figure 2 and the high-load side of Figure 4.
//! * `store` — a free-list store whose `u32` keys stand in for bulky
//!   values in events, so the queue moves keys instead of payloads;
//!   allocation-free in steady state like the wheel's slab.
//! * `hist` — log-bucketed latency histograms (mean/percentiles), the
//!   simulator's analogue of Lancet's latency measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod cpu;
mod engine;
pub mod fault;
mod hist;
mod link;
mod rng;
mod store;
mod topology;
pub mod wheel;

pub use cpu::{BusySnapshot, CpuContext};
pub use engine::{run, run_until_idle, EventQueue, EventToken, World};
pub use fault::{
    CorruptConfig, CorruptTarget, DuplicateConfig, FaultConfig, FaultCounters, FaultPlan,
    GilbertElliott, JitterConfig, ReorderConfig, RestartSchedule, ShardBrownout, ShardFaultPlan,
    WindowSchedule,
};
pub use hist::Histogram;
pub use link::{DuplexLink, Link, LinkConfig};
pub use littles::Nanos;
pub use rng::{Pcg32, Stream};
pub use store::{Store, StoreKey};
pub use topology::{HostId, LinkId, Topology};
