//! Congestion control: slow start + AIMD (Reno-style).
//!
//! The figure experiments run on an uncongested 100 Gbps link, so
//! congestion control rarely binds there — but a TCP stack without it would
//! not be credible, the loss-recovery tests exercise it, and the paper's §5
//! points at AIMD as the principled template for *batch-limit* adaptation
//! (implemented separately in `batchpolicy::aimd`).

/// Initial congestion window in MSS units (RFC 6928: 10).
const INITIAL_WINDOW_MSS: usize = 10;

/// Cap on the congestion window, bytes.
const MAX_WINDOW_BYTES: usize = 8 * 1024 * 1024;

/// Congestion-window state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongestionControl {
    cwnd: usize,
    ssthresh: usize,
    mss: usize,
    /// Bytes acked since the last cwnd increment (congestion-avoidance
    /// accumulator).
    acked_accum: usize,
}

impl CongestionControl {
    /// Creates a controller in slow start with the initial window.
    pub fn new(mss: usize) -> Self {
        CongestionControl {
            cwnd: INITIAL_WINDOW_MSS * mss,
            ssthresh: MAX_WINDOW_BYTES,
            mss,
            acked_accum: 0,
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> usize {
        self.ssthresh
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Processes a cumulative ACK covering `acked_bytes` of new data.
    pub fn on_ack(&mut self, acked_bytes: usize) {
        if acked_bytes == 0 {
            return;
        }
        if self.in_slow_start() {
            // Exponential growth: cwnd += min(acked, MSS) per ACK.
            self.cwnd += acked_bytes.min(self.mss);
        } else {
            // Additive increase: one MSS per cwnd of acked data.
            self.acked_accum += acked_bytes;
            if self.acked_accum >= self.cwnd {
                self.acked_accum -= self.cwnd;
                self.cwnd += self.mss;
            }
        }
        self.cwnd = self.cwnd.min(MAX_WINDOW_BYTES);
    }

    /// Multiplicative decrease on loss detection (RTO in this stack).
    pub fn on_loss(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh;
        self.acked_accum = 0;
    }

    /// Severe response to a retransmission timeout: collapse to one MSS
    /// and re-enter slow start (RFC 5681 §3.1).
    pub fn on_rto(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.acked_accum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc() -> CongestionControl {
        CongestionControl::new(1000)
    }

    #[test]
    fn initial_window() {
        let c = cc();
        assert_eq!(c.cwnd(), 10_000);
        assert!(c.in_slow_start());
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut c = cc();
        let before = c.cwnd();
        // ACK a full window in MSS-sized chunks.
        for _ in 0..10 {
            c.on_ack(1000);
        }
        assert_eq!(c.cwnd(), before * 2);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut c = cc();
        c.on_rto(); // cwnd = 1 MSS, ssthresh = 5000
        // Grow back to ssthresh via slow start.
        while c.in_slow_start() {
            c.on_ack(1000);
        }
        let at_ca = c.cwnd();
        // One full window of ACKs in CA adds exactly one MSS.
        let mut acked = 0;
        while acked < at_ca {
            c.on_ack(1000);
            acked += 1000;
        }
        assert_eq!(c.cwnd(), at_ca + 1000);
    }

    #[test]
    fn loss_halves_window() {
        let mut c = cc();
        c.on_loss();
        assert_eq!(c.cwnd(), 5_000);
        assert_eq!(c.ssthresh(), 5_000);
    }

    #[test]
    fn rto_collapses_to_one_mss() {
        let mut c = cc();
        c.on_rto();
        assert_eq!(c.cwnd(), 1000);
        assert_eq!(c.ssthresh(), 5_000);
        assert!(c.in_slow_start());
    }

    #[test]
    fn window_never_exceeds_cap() {
        let mut c = cc();
        for _ in 0..10_000 {
            c.on_ack(1000);
        }
        assert_eq!(c.cwnd(), MAX_WINDOW_BYTES);
    }

    #[test]
    fn loss_floor_is_two_mss() {
        let mut c = cc();
        c.on_rto();
        c.on_loss();
        assert!(c.cwnd() >= 2_000);
    }

    #[test]
    fn zero_ack_is_noop() {
        let mut c = cc();
        let before = c.cwnd();
        c.on_ack(0);
        assert_eq!(c.cwnd(), before);
    }
}
