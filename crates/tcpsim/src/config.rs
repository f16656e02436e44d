//! Stack configuration.
//!
//! Every mechanism the paper discusses is independently switchable so the
//! benchmarks can ablate them: Nagle ([`NagleMode`], including the dynamic
//! mode driven by a policy), delayed ACKs, auto-corking, TSO, and the
//! end-to-end metadata exchange. Cost parameters ([`CostConfig`]) translate
//! stack activity into CPU time on the simulated cores; the defaults are
//! calibrated in `e2e-apps` to put the figure experiments in the paper's
//! operating regime (saturation in the tens of kRPS for 16 KiB SETs).

use littles::Nanos;

/// Nagle's algorithm setting for a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NagleMode {
    /// Nagle enabled (the kernel default): a sub-MSS segment is held while
    /// any previously sent data remains unacknowledged.
    On,
    /// `TCP_NODELAY` (the Redis default): never hold small segments.
    #[default]
    Off,
    /// Dynamically toggled at runtime by a batching policy (the paper's
    /// proposal). The socket consults its current [dynamic
    /// state](crate::socket::TcpSocket::nagle_active) each time.
    Dynamic,
}

/// Delayed-acknowledgment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelAckConfig {
    /// Acknowledge immediately once this many full-sized segments are
    /// pending an ACK (RFC 1122's "every second segment").
    pub ack_every_segments: u32,
    /// Maximum time an ACK may be delayed (Linux's minimum delack timer is
    /// ~40 ms; RFC 1122 allows up to 500 ms).
    pub timeout: Nanos,
    /// When true, ACKs ride on any outgoing data segment (piggybacking),
    /// clearing the pending-delack state.
    pub piggyback: bool,
    /// Start the socket in quick-ack mode (`TCP_QUICKACK`-style): every
    /// data segment is acknowledged immediately. The mode can also be
    /// switched at runtime through the knob actuation path
    /// (`KnobSetting::DelAck`).
    pub quick: bool,
}

impl Default for DelAckConfig {
    fn default() -> Self {
        DelAckConfig {
            ack_every_segments: 2,
            timeout: Nanos::from_millis(40),
            piggyback: true,
            quick: false,
        }
    }
}

/// Auto-corking parameters (Linux `tcp_autocorking`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorkConfig {
    /// Master switch (on by default in Linux).
    pub enabled: bool,
    /// A small segment is corked only while at least this many packets sit
    /// unfinished in the NIC transmit ring.
    pub min_inflight_packets: u32,
    /// Safety valve: corked data is flushed after this long even if the
    /// ring never drains (prevents the iSCSI-style stalls reported on the
    /// kernel list).
    pub max_delay: Nanos,
}

impl Default for CorkConfig {
    fn default() -> Self {
        CorkConfig {
            enabled: false,
            min_inflight_packets: 1,
            max_delay: Nanos::from_micros(50),
        }
    }
}

/// TCP segmentation offload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsoConfig {
    /// Master switch.
    pub enabled: bool,
    /// Maximum bytes aggregated into one super-segment handed to the NIC.
    pub max_bytes: usize,
    /// TSO deferral (Linux `tcp_tso_should_defer`): when window-limited
    /// with more data queued and an ACK guaranteed to arrive, hold a
    /// sub-half-max chunk so trains fill out instead of ossifying at
    /// whatever size the ACK clock happens to free.
    pub defer: bool,
}

impl Default for TsoConfig {
    fn default() -> Self {
        TsoConfig {
            enabled: true,
            max_bytes: 65_536,
            defer: true,
        }
    }
}

/// End-to-end metadata exchange parameters (paper §3.2, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeConfig {
    /// Master switch for attaching the 36-byte queue-state option.
    pub enabled: bool,
    /// Attach the option at most once per this interval (the paper notes
    /// Little's-law estimates remain accurate at any exchange frequency,
    /// so sparse exchange keeps fast-path header parsing cheap).
    pub min_interval: Nanos,
    /// Which message units' counters are exchanged, indexed by
    /// [`Unit::index`](crate::queues::Unit::index). The paper exchanges
    /// one unit; enabling several lets one run compare them.
    pub units: [bool; 3],
}

impl ExchangeConfig {
    /// Enables exchange of a single unit's counters.
    pub fn single(unit: crate::queues::Unit) -> Self {
        let mut units = [false; 3];
        units[unit.index()] = true;
        ExchangeConfig {
            enabled: true,
            min_interval: Nanos::from_millis(1),
            units,
        }
    }
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig::single(crate::queues::Unit::Bytes)
    }
}

/// Retransmission parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtoConfig {
    /// Lower bound on the retransmission timeout (Linux: 200 ms).
    pub min_rto: Nanos,
    /// Upper bound on the retransmission timeout.
    pub max_rto: Nanos,
    /// Initial RTO before any RTT sample (RFC 6298: 1 s).
    pub initial_rto: Nanos,
}

impl Default for RtoConfig {
    fn default() -> Self {
        RtoConfig {
            min_rto: Nanos::from_millis(200),
            max_rto: Nanos::from_secs(120),
            initial_rto: Nanos::from_secs(1),
        }
    }
}

/// Congestion-control parameters (Reno-style slow start + AIMD).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcConfig {
    /// Initial congestion window in MSS units (RFC 6928: 10).
    pub initial_window_mss: u32,
    /// Cap on the congestion window, bytes.
    pub max_window_bytes: usize,
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig {
            initial_window_mss: 10,
            max_window_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Full per-socket TCP configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per wire packet).
    pub mss: usize,
    /// Send-buffer capacity in bytes.
    pub sndbuf: usize,
    /// Receive-buffer capacity in bytes (advertised window).
    pub rcvbuf: usize,
    /// Nagle setting.
    pub nagle: NagleMode,
    /// Delayed-ACK behaviour.
    pub delack: DelAckConfig,
    /// Auto-corking behaviour.
    pub cork: CorkConfig,
    /// Segmentation offload behaviour.
    pub tso: TsoConfig,
    /// Retransmission timer bounds.
    pub rto: RtoConfig,
    /// Congestion control parameters.
    pub cc: CcConfig,
    /// End-to-end metadata exchange.
    pub exchange: ExchangeConfig,
    /// Initial gradual-batch (cork) limit in bytes: a sub-limit segment
    /// may wait for more data to accumulate while earlier data is in
    /// flight. `None` disables the limit. Runtime-driven through the
    /// knob actuation path (`KnobSetting::CorkLimit`), typically by the
    /// AIMD controller.
    pub batch_limit: Option<u64>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448, // 1500 MTU − 40 IP/TCP − 12 timestamps
            sndbuf: 4 * 1024 * 1024,
            rcvbuf: 6 * 1024 * 1024,
            nagle: NagleMode::default(),
            delack: DelAckConfig::default(),
            cork: CorkConfig::default(),
            tso: TsoConfig::default(),
            rto: RtoConfig::default(),
            cc: CcConfig::default(),
            exchange: ExchangeConfig::default(),
            batch_limit: None,
        }
    }
}

/// CPU cost parameters for one host.
///
/// Two contexts exist per host, mirroring the paper's pinning: the
/// application thread and the network softirq context. Costs are charged in
/// simulated nanoseconds; see `e2e-apps::cost` for the calibrated profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostConfig {
    /// Softirq: fixed cost per received *delivery* — one skb after
    /// GRO-style aggregation (socket lookup, TCP input, wakeup dispatch).
    /// This is the cost that transmit-side batching (Nagle/TSO filling
    /// bigger trains under backlog) amortizes at the receiver.
    pub rx_per_delivery: Nanos,
    /// Softirq: fixed cost to receive one wire packet (driver + IP + TCP).
    pub rx_per_packet: Nanos,
    /// Softirq: additional cost per KiB of received payload (copy/checksum).
    pub rx_per_kib: Nanos,
    /// Cost to transmit one segment (queue to NIC, charged to the sender's
    /// context: app for data sent from `send`, softirq for ACKs).
    pub tx_per_segment: Nanos,
    /// Additional transmit cost per KiB of payload.
    pub tx_per_kib: Nanos,
    /// Doorbell/MMIO cost per NIC notification (amortized by xmit_more-style
    /// batching: charged once per flush, not per packet).
    pub tx_doorbell: Nanos,
    /// Flat cost to transmit a pure ACK (small pre-built skb; cheaper than
    /// a data send and not charged a doorbell of its own).
    pub tx_ack: Nanos,
    /// App: fixed cost of a `send`/`recv` system call.
    pub syscall: Nanos,
    /// App: cost of waking the application thread (epoll wakeup, context
    /// switch) — charged once per wake, which is what request batching at
    /// the application amortizes.
    pub app_wakeup: Nanos,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            rx_per_delivery: Nanos::from_nanos(1_500),
            rx_per_packet: Nanos::from_nanos(200),
            rx_per_kib: Nanos::from_nanos(45),
            tx_per_segment: Nanos::from_nanos(350),
            tx_per_kib: Nanos::from_nanos(30),
            tx_doorbell: Nanos::from_nanos(400),
            tx_ack: Nanos::from_nanos(500),
            syscall: Nanos::from_nanos(500),
            app_wakeup: Nanos::from_nanos(1200),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TcpConfig::default();
        assert!(c.mss > 500 && c.mss < 9000);
        assert!(c.sndbuf >= c.mss * 10);
        assert_eq!(c.nagle, NagleMode::Off, "Redis default is TCP_NODELAY");
        assert!(c.delack.ack_every_segments >= 1);
        assert!(c.rto.min_rto <= c.rto.max_rto);
    }

    #[test]
    fn nagle_mode_default_is_off() {
        assert_eq!(NagleMode::default(), NagleMode::Off);
    }

    #[test]
    fn config_is_plain_copyable_data() {
        // The config must stay `Copy` + `PartialEq` plain data so sweeps
        // can clone and mutate it freely (serde was dropped with the
        // offline-build change; equality is the roundtrip guarantee now).
        let c = TcpConfig::default();
        let copy = c;
        assert_eq!(copy, c);
        let mut ablated = c;
        ablated.nagle = NagleMode::On;
        assert_ne!(ablated, c);
    }

    #[test]
    fn cost_defaults_positive() {
        let c = CostConfig::default();
        for v in [
            c.rx_per_delivery,
            c.rx_per_packet,
            c.tx_ack,
            c.rx_per_kib,
            c.tx_per_segment,
            c.tx_per_kib,
            c.tx_doorbell,
            c.syscall,
            c.app_wakeup,
        ] {
            assert!(!v.is_zero());
        }
    }
}
