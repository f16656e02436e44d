//! A from-scratch userspace TCP stack over a deterministic simulator.
//!
//! This crate is the substrate for reproducing *Batching with End-to-End
//! Performance Estimation* (HotOS'25). The paper patched Linux v6.3; here
//! the relevant slice of a kernel TCP/IP stack is reimplemented so that
//! every batching mechanism the paper discusses exists and is togglable:
//!
//! * **Nagle's algorithm** ([`gates`]) — including a `Dynamic` mode driven
//!   at runtime by a batching policy, which is the paper's proposal;
//! * **delayed ACKs** ([`delack`]) — the 2-segment rule, the timeout, and
//!   piggybacking, whose interaction with Nagle drives the motivating
//!   pathology;
//! * **auto-corking** ([`gates`], NIC ring in [`host`]);
//! * **TSO aggregation** (the send side of a [`socket`], which owns a
//!   connection as a control block, a send side and a receive side);
//! * **doorbell batching** (per-flush charging in [`sim`]);
//! * plus the supporting machinery a TCP needs: sequence arithmetic
//!   ([`seq`]), socket buffers ([`buffer`]), SRTT/RTO (`rtt`), and
//!   AIMD congestion control (`cc`).
//!
//! The paper's measurement machinery lives in `queues`: the three
//! instrumented queues (*unacked*, *unread*, *ackdelay*) tracked in bytes
//! and message units simultaneously, and exchanged between peers through
//! a TCP option ([`segment::E2eOption`], 36 bytes of counters per unit).
//! Packets, the paper's third candidate unit, are not counted; the name
//! is kept for callers that read it, and reads an empty queue.
//!
//! [`sim::NetSim`] assembles two [`host::Host`]s (each with pinned app and
//! softirq CPU contexts, mirroring the paper's core pinning) around a
//! duplex link and runs [`sim::App`] implementations over the socket API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod buffer;
mod cc;
pub mod config;
pub mod delack;
pub mod gates;
pub mod host;
pub mod invariants;
pub mod knob;
mod payload;
mod queues;
mod rtt;
pub mod segment;
pub mod seq;
pub mod sim;
pub mod socket;
mod table;
pub mod tier;

pub use config::{CostConfig, NagleMode, TcpConfig};
pub use delack::AckMode;
pub use host::{Host, HostId};
pub use knob::KnobSetting;
pub use payload::Payload;
pub use queues::Unit;
pub use segment::{FlowId, Segment};
pub use sim::{App, Event, HostCtx, NetSim};
pub use simnet::{LinkId, Topology};
pub use socket::{Action, Actions, SocketId, TcpSocket, TcpState, TimerKind, TxEnv, WakeReason};
pub use tier::TierSim;
