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
//! Optional uniform random loss supports the stack's retransmission tests;
//! the figure experiments run lossless, as did the paper's testbed.


use crate::rng::Pcg32;
use littles::Nanos;

/// Static link parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub propagation: Nanos,
    /// Line rate in bits per second.
    pub bandwidth_bps: u64,
    /// Probability of dropping any given packet (0 for lossless).
    pub loss_probability: f64,
}

// Not derived: a derived `PartialEq` would compare `loss_probability` with
// float `==`, where configs that behave identically (0.0 vs -0.0) would
// differ and NaN would break reflexivity. Bitwise identity is the right
// notion for "same configuration".
impl PartialEq for LinkConfig {
    fn eq(&self, other: &Self) -> bool {
        self.propagation == other.propagation
            && self.bandwidth_bps == other.bandwidth_bps
            && self.loss_probability.total_cmp(&other.loss_probability).is_eq()
    }
}

impl Eq for LinkConfig {}

impl Default for LinkConfig {
    /// 100 Gbps with 5 µs one-way delay, lossless — the paper's testbed
    /// (two R730s with ConnectX-5 NICs on the same switch).
    fn default() -> Self {
        LinkConfig {
            propagation: Nanos::from_micros(5),
            bandwidth_bps: 100_000_000_000,
            loss_probability: 0.0,
        }
    }
}

impl LinkConfig {
    /// Serialization time for `bytes` at the line rate.
    pub fn serialization_time(&self, bytes: usize) -> Nanos {
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
    bytes_sent: u64,
    packets_dropped: u64,
    bytes_dropped: u64,
}

impl Link {
    /// Creates an idle link.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            config,
            busy_until: Nanos::ZERO,
            packets_sent: 0,
            bytes_sent: 0,
            packets_dropped: 0,
            bytes_dropped: 0,
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Enqueues a packet of `bytes` at `now`; returns its arrival time at
    /// the far end. FIFO order is guaranteed: arrival times are
    /// non-decreasing across calls with non-decreasing `now`.
    pub fn transmit(&mut self, now: Nanos, bytes: usize) -> Nanos {
        let start = self.busy_until.max(now);
        self.busy_until = start + self.config.serialization_time(bytes);
        self.packets_sent += 1;
        self.bytes_sent += bytes as u64;
        self.busy_until + self.config.propagation
    }

    /// Like [`transmit`](Self::transmit) but subject to random loss;
    /// returns `None` when the packet is dropped (it still occupies the
    /// pipe, as a real lost packet would).
    pub fn transmit_lossy(&mut self, now: Nanos, bytes: usize, rng: &mut Pcg32) -> Option<Nanos> {
        let arrival = self.transmit(now, bytes);
        if self.config.loss_probability > 0.0 && rng.gen_bool(self.config.loss_probability) {
            self.packets_dropped += 1;
            self.bytes_dropped += bytes as u64;
            None
        } else {
            Some(arrival)
        }
    }

    /// Books a drop decided outside the link (the fault-injection layer):
    /// the packet already went through [`transmit`](Self::transmit), so it
    /// occupied the pipe, but it never arrives.
    pub fn record_drop(&mut self, bytes: usize) {
        self.packets_dropped += 1;
        self.bytes_dropped += bytes as u64;
    }

    /// Packets handed to the link so far (including dropped ones).
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Bytes handed to the link so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Packets dropped by the loss process.
    pub fn packets_dropped(&self) -> u64 {
        self.packets_dropped
    }

    /// Bytes belonging to dropped packets.
    pub fn bytes_dropped(&self) -> u64 {
        self.bytes_dropped
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
    pub fn new(config: LinkConfig) -> Self {
        DuplexLink {
            a_to_b: Link::new(config),
            b_to_a: Link::new(config),
        }
    }

    /// The directional link leaving endpoint `from` (0 = a, 1 = b).
    ///
    /// # Panics
    ///
    /// Panics for any endpoint other than 0 or 1.
    #[expect(clippy::panic, reason = "documented: a third endpoint is a caller bug")]
    pub fn from_endpoint(&mut self, from: usize) -> &mut Link {
        match from {
            0 => &mut self.a_to_b,
            1 => &mut self.b_to_a,
            other => panic!("duplex link has endpoints 0 and 1, got {other}"),
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
            loss_probability: 0.0,
        })
    }

    #[test]
    fn serialization_time_is_exact() {
        // 1250 bytes at 10 Gbps = 10_000 bits / 10 Gbps = 1 µs.
        let cfg = LinkConfig {
            propagation: Nanos::ZERO,
            bandwidth_bps: 10_000_000_000,
            loss_probability: 0.0,
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
        assert_eq!(l.bytes_sent(), 300);
    }

    #[test]
    fn lossless_link_never_drops() {
        let mut l = gbit_link(1, 10);
        let mut rng = Pcg32::new(1);
        for _ in 0..100 {
            assert!(l.transmit_lossy(Nanos::ZERO, 64, &mut rng).is_some());
        }
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let mut l = Link::new(LinkConfig {
            propagation: Nanos::ZERO,
            bandwidth_bps: 1_000_000_000,
            loss_probability: 0.25,
        });
        let mut rng = Pcg32::new(2);
        let drops = (0..10_000)
            .filter(|_| l.transmit_lossy(Nanos::ZERO, 64, &mut rng).is_none())
            .count();
        assert!((2_200..2_800).contains(&drops), "got {drops}");
        assert_eq!(l.packets_dropped() as usize, drops);
    }

    #[test]
    fn dropped_bytes_are_booked() {
        let mut l = Link::new(LinkConfig {
            propagation: Nanos::ZERO,
            bandwidth_bps: 1_000_000_000,
            loss_probability: 1.0,
        });
        let mut rng = Pcg32::new(3);
        assert!(l.transmit_lossy(Nanos::ZERO, 100, &mut rng).is_none());
        assert_eq!(l.packets_dropped(), 1);
        assert_eq!(l.bytes_dropped(), 100);
        // External (fault-layer) drops book the same way.
        let _ = l.transmit(Nanos::ZERO, 50);
        l.record_drop(50);
        assert_eq!(l.packets_dropped(), 2);
        assert_eq!(l.bytes_dropped(), 150);
        assert_eq!(l.bytes_sent(), 150); // dropped packets still used the pipe
    }

    #[test]
    fn link_config_equality_is_bitwise_on_loss() {
        let a = LinkConfig::default();
        let mut b = a;
        assert_eq!(a, b);
        b.loss_probability = 0.1;
        assert_ne!(a, b);
    }

    #[test]
    fn duplex_endpoints_are_independent() {
        let mut d = DuplexLink::new(LinkConfig::default());
        d.from_endpoint(0).transmit(Nanos::ZERO, 1000);
        assert_eq!(d.a_to_b.packets_sent(), 1);
        assert_eq!(d.b_to_a.packets_sent(), 0);
    }

    #[test]
    #[should_panic(expected = "endpoints 0 and 1")]
    fn bad_endpoint_panics() {
        let mut d = DuplexLink::new(LinkConfig::default());
        d.from_endpoint(2);
    }
}
