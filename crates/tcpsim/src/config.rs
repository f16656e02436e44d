//! Stack configuration.
//!
//! The switches the benchmarks ablate are settable: Nagle ([`NagleMode`],
//! including the dynamic mode driven by a policy), the delayed-ACK timeout
//! and quick-ack start, auto-corking and TSO on/off, the RTO bounds, the
//! gradual batch limit, and the end-to-end metadata exchange. The values
//! no experiment varies are constants beside the mechanism they shape:
//! the TSO super-segment size and deferral (`socket`), the cork threshold
//! and safety valve ([`crate::gates`]), the every-second-segment ACK rule
//! and piggybacking ([`crate::delack`]), and the initial and maximum
//! congestion window (`crate::cc`). Cost parameters ([`CostConfig`]) translate
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
    /// proposal). The socket consults its current dynamic state, set by
    /// [`KnobSetting::Nagle`](crate::KnobSetting::Nagle), each time.
    Dynamic,
}

/// Delayed-acknowledgment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelAckConfig {
    /// Maximum time an ACK may be delayed (Linux's minimum delack timer is
    /// ~40 ms; RFC 1122 allows up to 500 ms).
    pub timeout: Nanos,
    /// Start the socket in quick-ack mode (`TCP_QUICKACK`-style): every
    /// data segment is acknowledged immediately. The mode can also be
    /// switched at runtime through the knob actuation path
    /// (`KnobSetting::DelAck`).
    pub quick: bool,
}

impl Default for DelAckConfig {
    fn default() -> Self {
        DelAckConfig {
            timeout: Nanos::from_millis(40),
            quick: false,
        }
    }
}

/// Auto-corking switch (Linux `tcp_autocorking`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorkConfig {
    /// Master switch (on by default in Linux, off here).
    pub enabled: bool,
}

/// TCP segmentation offload switch. When on, up to 64 KiB aggregate into
/// one super-segment handed to the NIC, with Linux's deferral
/// (`tcp_tso_should_defer`): when window-limited with more data queued and
/// an ACK guaranteed to arrive, a sub-half-max chunk is held so trains
/// fill out instead of ossifying at whatever size the ACK clock frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsoConfig {
    /// Master switch.
    pub enabled: bool,
}

impl Default for TsoConfig {
    fn default() -> Self {
        TsoConfig { enabled: true }
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
    /// `Unit::index`. The paper exchanges
    /// one unit; enabling several lets one run compare them.
    pub units: [bool; 3],
}

impl ExchangeConfig {
    /// Enables exchange of a single unit's counters.
    pub(crate) fn single(unit: crate::queues::Unit) -> Self {
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
