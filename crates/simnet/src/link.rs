//! Point-to-point link model.
//!
//! A [`Link`] models one direction of a network cable: packets entering at
//! time `t` are serialized at the configured bandwidth (back-to-back packets
//! queue behind each other, preserving FIFO order) and arrive after the
//! propagation delay. This is the standard store-and-forward pipe model;
//! it is sufficient for the paper's setting (two machines, one switch hop,
//! 100 Gbps — the network itself is never the bottleneck, the endpoints
//! are).
//!
//! A link never drops a packet on its own: loss, like every other
//! impairment, is the fault layer's ([`fault`](crate::fault)), which
//! draws from its own RNG stream and books each drop here with
//! [`Link::record_drop`].

use littles::Nanos;

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub propagation: Nanos,
    /// Line rate in bits per second.
    pub bandwidth_bps: u64,
}

impl Default for LinkConfig {
    /// 100 Gbps with 5 µs one-way delay, lossless — the paper's testbed
    /// (two R730s with ConnectX-5 NICs on the same switch).
    fn default() -> Self {
        LinkConfig {
            propagation: Nanos::from_micros(5),
            bandwidth_bps: 100_000_000_000,
        }
    }
}

impl LinkConfig {
    /// Serialization time for `bytes` at the line rate.
    pub(crate) fn serialization_time(&self, bytes: usize) -> Nanos {
        // bytes * 8 bits / bps seconds, computed in integer ns.
        let bits = bytes as u128 * 8;
        Nanos::from_nanos((bits * 1_000_000_000 / self.bandwidth_bps as u128) as u64)
    }
}

/// One direction of a link, with its serialization pipe state.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    busy_until: Nanos,
    packets_sent: u64,
    packets_dropped: u64,
}

impl Link {
    /// Creates an idle link.
    pub(crate) fn new(config: LinkConfig) -> Self {
        Link {
            config,
            busy_until: Nanos::ZERO,
            packets_sent: 0,
            packets_dropped: 0,
        }
    }

    /// Enqueues a packet of `bytes` at `now`; returns its arrival time at
    /// the far end. FIFO order is guaranteed: arrival times are
    /// non-decreasing across calls with non-decreasing `now`.
    pub fn transmit(&mut self, now: Nanos, bytes: usize) -> Nanos {
        let start = self.busy_until.max(now);
        self.busy_until = start + self.config.serialization_time(bytes);
        self.packets_sent += 1;
        self.busy_until + self.config.propagation
    }

    /// Books a drop decided outside the link (the fault-injection layer):
    /// the packet already went through [`transmit`](Self::transmit), so it
    /// occupied the pipe, but it never arrives.
    pub fn record_drop(&mut self) {
        self.packets_dropped += 1;
    }

    /// Packets handed to the link so far (including dropped ones).
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Packets dropped by the fault layer.
    pub fn packets_dropped(&self) -> u64 {
        self.packets_dropped
    }

    /// Time at which the serialization pipe drains.
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }
}

/// A symmetric pair of links between two endpoints, `a` and `b`.
#[derive(Debug, Clone)]
pub struct DuplexLink {
    /// Direction a → b.
    pub a_to_b: Link,
    /// Direction b → a.
    pub b_to_a: Link,
}

impl DuplexLink {
    /// Creates a duplex link with identical parameters per direction.
    pub(crate) fn new(config: LinkConfig) -> Self {
        DuplexLink {
            a_to_b: Link::new(config),
            b_to_a: Link::new(config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbit_link(prop_us: u64, gbps: u64) -> Link {
        Link::new(LinkConfig {
            propagation: Nanos::from_micros(prop_us),
            bandwidth_bps: gbps * 1_000_000_000,
        })
    }

    #[test]
    fn serialization_time_is_exact() {
        // 1250 bytes at 10 Gbps = 10_000 bits / 10 Gbps = 1 µs.
        let cfg = LinkConfig {
            propagation: Nanos::ZERO,
            bandwidth_bps: 10_000_000_000,
        };
        assert_eq!(cfg.serialization_time(1250), Nanos::from_micros(1));
    }

    #[test]
    fn single_packet_arrival() {
        let mut l = gbit_link(5, 10);
        let arrival = l.transmit(Nanos::ZERO, 1250);
        assert_eq!(arrival, Nanos::from_micros(6)); // 1 µs ser + 5 µs prop
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut l = gbit_link(5, 10);
        let a1 = l.transmit(Nanos::ZERO, 1250);
        let a2 = l.transmit(Nanos::ZERO, 1250);
        assert_eq!(a1, Nanos::from_micros(6));
        assert_eq!(a2, Nanos::from_micros(7)); // waits for the pipe
    }

    #[test]
    fn idle_gap_resets_pipe() {
        let mut l = gbit_link(5, 10);
        let _ = l.transmit(Nanos::ZERO, 1250);
        let a2 = l.transmit(Nanos::from_micros(100), 1250);
        assert_eq!(a2, Nanos::from_micros(106));
    }

    #[test]
    fn fifo_order_preserved() {
        let mut l = gbit_link(1, 1);
        let mut prev = Nanos::ZERO;
        let mut now = Nanos::ZERO;
        for i in 0..50 {
            now += Nanos::from_nanos(i * 17 % 900);
            let a = l.transmit(now, 64 + (i as usize * 97) % 1400);
            assert!(a >= prev, "FIFO violated");
            prev = a;
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut l = gbit_link(1, 10);
        l.transmit(Nanos::ZERO, 100);
        l.transmit(Nanos::ZERO, 200);
        assert_eq!(l.packets_sent(), 2);
    }

    #[test]
    fn dropped_bytes_are_booked() {
        let mut l = gbit_link(0, 1);
        let _ = l.transmit(Nanos::ZERO, 100);
        l.record_drop();
        assert_eq!(l.packets_dropped(), 1);
        let _ = l.transmit(Nanos::ZERO, 50);
        l.record_drop();
        assert_eq!(l.packets_dropped(), 2);
        assert_eq!(l.packets_sent(), 2); // dropped packets still used the pipe
    }

    #[test]
    fn duplex_endpoints_are_independent() {
        let mut d = DuplexLink::new(LinkConfig::default());
        d.a_to_b.transmit(Nanos::ZERO, 1000);
        assert_eq!(d.a_to_b.packets_sent(), 1);
        assert_eq!(d.b_to_a.packets_sent(), 0);
    }
}
